//! Process plumbing: the daemon child, peak RSS, the run directory and
//! the host facts every run prints.

use pa_cga_service::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set of this process, MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A fresh, empty per-run directory under `.bench_run/` in the current
/// directory (the checkout), removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.bench_run/<label>-<pid>`, wiping any leftover.
    pub fn new(label: &str) -> std::io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir.canonicalize()?))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_run` itself only when no sibling run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What the daemon child is started with: the same knobs `pacga serve`
/// turns into a [`ServeConfig`].
#[derive(Debug, Clone, Default)]
pub struct DaemonArgs {
    /// Engine worker pool.
    pub workers: usize,
    /// Memoization cache capacity.
    pub cache_cap: usize,
    /// `--corpus` store path.
    pub corpus: Option<PathBuf>,
    /// `--data-dir` for durable sessions.
    pub data_dir: Option<PathBuf>,
}

impl DaemonArgs {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "daemon".to_string(),
            "--workers".into(),
            self.workers.to_string(),
            "--cache-cap".into(),
            self.cache_cap.to_string(),
        ];
        if let Some(c) = &self.corpus {
            args.extend(["--corpus".into(), c.display().to_string()]);
        }
        if let Some(d) = &self.data_dir {
            args.extend(["--data-dir".into(), d.display().to_string()]);
        }
        args
    }
}

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Loopback address it listens on.
    pub addr: String,
}

/// What a drained daemon child reports.
#[derive(Debug, Clone)]
pub struct DaemonExit {
    /// Corpus records persisted on drain.
    pub persisted: u64,
    /// Peak RSS of the daemon process, MiB.
    pub peak_rss_mb: f64,
}

impl Daemon {
    /// Spawns this executable in daemon mode and waits for its
    /// `listening` line.
    pub fn spawn(args: &DaemonArgs) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Daemon { child, stdout: BufReader::new(out), addr: String::new() };
        match daemon.read_line() {
            Some(line) if line.starts_with("listening ") => {
                daemon.addr = line["listening ".len()..].trim().to_string();
                Ok(daemon)
            }
            other => {
                daemon.kill();
                Err(format!("daemon did not come up: {other:?}"))
            }
        }
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line),
            _ => None,
        }
    }

    /// Kills the child without a drain (set-up probes) and reaps it.
    pub fn kill(self) {
        drop(self);
    }

    /// Waits for the drained child's report and its exit. The caller
    /// has already sent `shutdown`.
    pub fn join(mut self) -> Result<DaemonExit, String> {
        let mut exit = DaemonExit { persisted: 0, peak_rss_mb: f64::NAN };
        while let Some(line) = self.read_line() {
            let mut words = line.split_whitespace();
            match (words.next(), words.next().and_then(|v| v.parse::<f64>().ok())) {
                (Some("persisted"), Some(v)) => exit.persisted = v as u64,
                (Some("peak_rss_mb"), Some(v)) => exit.peak_rss_mb = v,
                _ => {}
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(exit)
    }
}

impl Drop for Daemon {
    /// A daemon never outlives its run: one not yet reaped is killed,
    /// and waited for.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Daemon mode: serve until a `shutdown` request drains the daemon,
/// then report persisted records and peak RSS on stdout.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workers" => config.workers = value.parse().map_err(|_| "bad --workers")?,
            "--cache-cap" => config.cache_cap = value.parse().map_err(|_| "bad --cache-cap")?,
            "--corpus" => config.corpus = Some(value.clone()),
            "--data-dir" => config.data_dir = Some(value.clone()),
            other => return Err(format!("unknown daemon flag {other}")),
        }
    }
    let handle = serve(config).map_err(|e| format!("serve: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", handle.addr())
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    let summary = handle.join();
    writeln!(out, "persisted {}", summary.persisted)
        .and_then(|_| writeln!(out, "peak_rss_mb {}", peak_rss_mb()))
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())
}

/// Seconds since `t`, as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
