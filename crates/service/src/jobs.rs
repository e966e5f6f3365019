//! The **durable job manager**: crash-safe, resumable scheduling
//! sessions (DESIGN.md §10).
//!
//! A *job* is a long-running engine execution that survives the daemon.
//! Each job owns a directory under `<data-dir>/jobs/<name>/`:
//!
//! ```text
//! manifest.json          state machine + counters + the original request
//! progress.log           append-only event log (one line per transition)
//! checkpoint.ckpt        latest engine snapshot (atomic, CRC-trailed)
//! checkpoint.prev.ckpt   previous snapshot (rotation fallback)
//! result.json            final best schedule (terminal `done` only)
//! trace.csv              per-thread convergence trace (`done` only)
//! ```
//!
//! State machine (persisted in the manifest):
//!
//! ```text
//! queued ──▶ running ──▶ checkpointed ──▶ done
//!               │    ◀──      │      ╲──▶ failed
//!               │             │       ╲─▶ stopped
//!               ▼             ▼
//!           (crash: daemon restart resumes from latest valid checkpoint)
//! ```
//!
//! Durability rules:
//!
//! * Checkpoints and manifests are written **atomically** (temp file +
//!   `fsync` + rename); checkpoints additionally rotate the previous
//!   snapshot aside, so a kill at any byte leaves at least one loadable,
//!   CRC-verified snapshot.
//! * On daemon startup [`JobManager::open`] scans the data dir and
//!   **re-queues** every job found `queued` / `running` / `checkpointed`,
//!   resuming from the newest snapshot that validates (corrupt or torn
//!   tails fall back to `checkpoint.prev.ckpt`, then to a fresh start)
//!   with the already-spent budget subtracted — so a SIGKILL costs at
//!   most one checkpoint interval of work and never leaves a job stuck
//!   in `running`.
//! * `job.stop` cancels cooperatively (the engines poll a flag at sweep
//!   boundaries); daemon drain instead writes one final checkpoint and
//!   leaves the job `checkpointed` for the next daemon to finish.
//! * `job.archive` moves a terminal job into
//!   `<data-dir>/archive/YYYY-MM-DD/<name>/` (trace + best schedule
//!   included), keeping the live jobs dir small.

use crate::json::Json;
use crate::protocol::{JobListEntry, JobStartRequest, JobStatusBody, Request};
use pa_cga_core::checkpoint::{self, CheckpointMeta};
use pa_cga_core::config::Termination;
use pa_cga_core::engine::PaCga;
use pa_cga_core::hooks::{CheckpointView, RunHooks};
use pa_cga_core::individual::Individual;
use pa_cga_core::runner::Semaphore;
use pa_cga_stats::JobProgress;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Position in the job state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet admitted to the worker pool.
    Queued,
    /// Executing, no checkpoint written yet this incarnation.
    Running,
    /// Executing (or interrupted) with at least one on-disk checkpoint.
    Checkpointed,
    /// Finished its budget; `result.json` + `trace.csv` written.
    Done,
    /// Aborted on an error or engine panic (see the manifest's `error`).
    Failed,
    /// Cancelled by `job.stop`.
    Stopped,
}

impl JobState {
    /// The manifest / wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Checkpointed => "checkpointed",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Stopped => "stopped",
        }
    }

    /// Parses a manifest spelling.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "checkpointed" => JobState::Checkpointed,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "stopped" => JobState::Stopped,
            _ => return None,
        })
    }

    /// Terminal states never resume.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Stopped)
    }
}

/// Why a job's cancel flag was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// `job.stop`: wind down to terminal `stopped`.
    User,
    /// Daemon drain: write a final checkpoint and leave `checkpointed` for
    /// the next daemon incarnation to finish.
    Drain,
}

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Civil date from days since 1970-01-01 (Howard Hinnant's algorithm) —
/// the archive hierarchy's `YYYY-MM-DD` without pulling in a date crate.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Today's archive bucket, `YYYY-MM-DD`.
fn today_bucket() -> String {
    let (y, m, d) = civil_from_days((now_ms() / 86_400_000) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days since 1970-01-01 from a civil date (the [`civil_from_days`]
/// inverse, same source) — ages archive buckets without a date crate.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mm = m as u64;
    let doy = (153 * (if mm > 2 { mm - 3 } else { mm + 9 }) + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

/// Parses an archive bucket name (`YYYY-MM-DD`) into days since the
/// epoch; `None` for anything that is not a bucket.
fn bucket_days(name: &str) -> Option<i64> {
    let mut parts = name.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// The manifest: everything a restarted daemon needs to reconstruct and
/// resume the job. Persisted atomically on every state transition and
/// every checkpoint.
#[derive(Debug, Clone)]
struct Manifest {
    state: JobState,
    checkpoint_gens: u64,
    created_ms: u64,
    generations: u64,
    evaluations: u64,
    elapsed_ms: u64,
    best: Option<f64>,
    error: Option<String>,
    /// The original `job.start` request object, verbatim.
    raw: Json,
}

impl Manifest {
    fn to_json(&self, name: &str) -> Json {
        Json::obj(vec![
            ("job", Json::str(name)),
            ("state", Json::str(self.state.as_str())),
            ("checkpoint_gens", Json::num(self.checkpoint_gens as f64)),
            ("created_ms", Json::num(self.created_ms as f64)),
            ("generations", Json::num(self.generations as f64)),
            ("evaluations", Json::num(self.evaluations as f64)),
            ("elapsed_ms", Json::num(self.elapsed_ms as f64)),
            ("best", self.best.map(Json::num).unwrap_or(Json::Null)),
            ("error", self.error.clone().map(Json::str).unwrap_or(Json::Null)),
            ("request", self.raw.clone()),
        ])
    }

    fn from_json(v: &Json) -> Result<Manifest, String> {
        let state_str = v.get("state").and_then(Json::as_str).ok_or("manifest: missing state")?;
        let state = JobState::parse(state_str)
            .ok_or_else(|| format!("manifest: bad state {state_str:?}"))?;
        let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(Manifest {
            state,
            checkpoint_gens: num("checkpoint_gens").max(1),
            created_ms: num("created_ms"),
            generations: num("generations"),
            evaluations: num("evaluations"),
            elapsed_ms: num("elapsed_ms"),
            best: v.get("best").and_then(Json::as_f64),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            raw: v.get("request").cloned().ok_or("manifest: missing request")?,
        })
    }

    /// Takes a snapshot's counters, and its best fitness when it has one.
    fn set_progress(&mut self, meta: &CheckpointMeta, best: Option<f64>) {
        self.generations = meta.generations;
        self.evaluations = meta.evaluations;
        self.elapsed_ms = meta.elapsed_ms;
        self.best = best.or(self.best);
    }

    /// The `job.list` row; archived rows carry their bucket date.
    fn list_row(&self, job: String, archived_date: Option<String>) -> JobListEntry {
        JobListEntry {
            job,
            state: self.state.as_str().to_string(),
            live: archived_date.is_none(),
            generations: self.generations,
            evaluations: self.evaluations,
            best_makespan: self.best,
            archived_date,
        }
    }
}

/// Writes `value` to `path` atomically via the shared temp-file +
/// `fsync` + rename helper ([`pa_cga_core::fsx`]).
fn write_json_atomic(path: &Path, value: &Json) -> std::io::Result<()> {
    let mut text = value.to_string();
    text.push('\n');
    pa_cga_core::fsx::atomic_write(path, text.as_bytes())
}

/// Appends one timestamped event line to the job's progress log.
/// Best-effort: the log is observability, not the source of truth.
fn append_progress(dir: &Path, event: &str) {
    let line = format!("{} {event}\n", now_ms());
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("progress.log"))
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Everything about a job that changes, under its entry's one lock.
struct Record {
    /// The job's state and counters, as `manifest.json` holds them.
    manifest: Manifest,
    /// Why the cancel flag was raised, once it is.
    stop: Option<Stop>,
    /// While the engine runs: the instant `manifest.elapsed_ms` was taken.
    run_started: Option<Instant>,
}

impl Record {
    /// Total elapsed including the live incarnation, milliseconds.
    fn elapsed_ms(&self) -> u64 {
        let live = self.run_started.map(|t| t.elapsed().as_millis() as u64).unwrap_or(0);
        self.manifest.elapsed_ms + live
    }
}

/// One tracked job: its on-disk home and its record. Shared between the
/// worker thread, the checkpoint callback, and status queries.
struct JobEntry {
    name: String,
    dir: PathBuf,
    /// Cooperative cancel, polled by the engine at sweep boundaries.
    cancel: AtomicBool,
    record: Mutex<Record>,
    /// The request's budget, for the ETA (`None` when the stored request
    /// no longer decodes).
    termination: Option<Termination>,
}

impl JobEntry {
    fn new(
        name: &str,
        dir: PathBuf,
        manifest: Manifest,
        termination: Option<Termination>,
    ) -> JobEntry {
        JobEntry {
            name: name.to_string(),
            dir,
            cancel: AtomicBool::new(false),
            record: Mutex::new(Record { manifest, stop: None, run_started: None }),
            termination,
        }
    }

    fn state(&self) -> JobState {
        self.record.lock().manifest.state
    }

    /// The one way a job's record changes: under its lock, apply
    /// `change`, write `manifest.json`, then log `event`. Readers take
    /// the same lock, so nothing they see is ahead of the disk.
    fn transition(&self, event: &str, change: impl FnOnce(&mut Record)) {
        let mut record = self.record.lock();
        change(&mut record);
        let _ = write_json_atomic(
            &self.dir.join("manifest.json"),
            &record.manifest.to_json(&self.name),
        );
        append_progress(&self.dir, event);
    }

    /// Raises the cancel flag unless the job is terminal; returns whether
    /// it did. A user stop wins over a drain, never the other way round.
    fn request_stop(&self, kind: Stop) -> bool {
        let mut record = self.record.lock();
        if record.manifest.state.is_terminal() {
            return false;
        }
        if kind == Stop::User || record.stop.is_none() {
            record.stop = Some(kind);
        }
        // ord: Release — pairs with the engine's Acquire load in
        // RunHooks::is_cancelled; the stop kind rides on the record lock.
        self.cancel.store(true, Ordering::Release);
        if kind == Stop::User {
            append_progress(&self.dir, "stop-requested");
        }
        true
    }

    /// The wire-facing status body.
    fn status_body(&self) -> JobStatusBody {
        let record = self.record.lock();
        let m = &record.manifest;
        let elapsed_s = record.elapsed_ms() as f64 / 1e3;
        let (done, budget) = match self.termination {
            Some(Termination::Evaluations(e)) => (m.evaluations, Some(e)),
            Some(Termination::Generations(g)) => (m.generations, Some(g)),
            Some(Termination::WallTime(_)) | None => (m.evaluations, None),
        };
        let live = !m.state.is_terminal();
        let rate = JobProgress { done: m.evaluations, budget: None, elapsed_s }.per_sec();
        JobStatusBody {
            job: self.name.clone(),
            state: m.state.as_str().to_string(),
            generations: m.generations,
            evaluations: m.evaluations,
            best_makespan: m.best,
            evals_per_sec: rate.filter(|_| live),
            eta_s: JobProgress { done, budget, elapsed_s }.eta_s().filter(|_| live),
            archived_to: None,
            message: m.error.clone(),
        }
    }
}

/// Job counters surfaced in the `stats` response.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JobCounters {
    /// Jobs started this daemon incarnation (including resumed).
    pub started: u64,
    /// Jobs that reached `done`.
    pub completed: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs resumed from disk at startup.
    pub resumed: u64,
    /// Jobs currently queued / running / checkpointed.
    pub active: u64,
}

/// The durable job subsystem: owns the data dir, the worker-pool budget
/// for jobs, and the in-memory view of every job on disk.
pub struct JobManager {
    jobs_dir: PathBuf,
    archive_dir: PathBuf,
    workers: usize,
    default_checkpoint_gens: u64,
    entries: Mutex<HashMap<String, Arc<JobEntry>>>,
    /// Admission against the daemon's `--workers` budget, weighted by
    /// each job's engine thread count (same scheme as the portfolio
    /// runner).
    pool: Semaphore,
    handles: Mutex<Vec<JoinHandle<()>>>,
    draining: AtomicBool,
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    resumed: AtomicU64,
    next_id: AtomicU64,
}

impl JobManager {
    /// Opens (creating if needed) the data dir, loads every job on disk,
    /// and re-queues the resumable ones — the daemon-startup recovery
    /// pass.
    pub fn open(
        data_dir: &Path,
        workers: usize,
        default_checkpoint_gens: u64,
        archive_keep_days: Option<u64>,
    ) -> std::io::Result<Arc<JobManager>> {
        let jobs_dir = data_dir.join("jobs");
        let archive_dir = data_dir.join("archive");
        std::fs::create_dir_all(&jobs_dir)?;
        std::fs::create_dir_all(&archive_dir)?;
        if let Some(keep) = archive_keep_days {
            sweep_archive(&archive_dir, keep);
        }
        let workers = workers.max(1);
        let mgr = Arc::new(JobManager {
            jobs_dir,
            archive_dir,
            workers,
            default_checkpoint_gens: default_checkpoint_gens.max(1),
            entries: Mutex::new(HashMap::new()),
            pool: Semaphore::new(workers),
            handles: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        });
        mgr.recover();
        Ok(mgr)
    }

    /// Scans the jobs dir, loading every manifest; jobs found in a
    /// resumable state are re-queued.
    fn recover(self: &Arc<Self>) {
        let Ok(dirents) = std::fs::read_dir(&self.jobs_dir) else { return };
        for dirent in dirents.flatten() {
            let dir = dirent.path();
            if !dir.is_dir() {
                continue;
            }
            let name = dirent.file_name().to_string_lossy().into_owned();
            let manifest = match std::fs::read_to_string(dir.join("manifest.json"))
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
                .and_then(|v| Manifest::from_json(&v))
            {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("pacga serve: skipping job {name:?}: {e}");
                    continue;
                }
            };
            // Re-decode the stored request; a manifest whose request no
            // longer decodes is finalized failed rather than skipped, so
            // it can never sit in `running` forever.
            let req = match Request::from_json(&manifest.raw) {
                Ok(Request::JobStart(req)) => Some(*req),
                Ok(_) | Err(_) => None,
            };
            let state = manifest.state;
            let termination = req.as_ref().map(|r| r.spec.termination);
            let entry = Arc::new(JobEntry::new(&name, dir, manifest, termination));
            if !state.is_terminal() {
                match req {
                    Some(req) => {
                        append_progress(&entry.dir, &format!("recovered state={}", state.as_str()));
                        // ord: Relaxed — stats counters, no data rides on
                        // them.
                        self.resumed.fetch_add(1, Ordering::Relaxed);
                        self.started.fetch_add(1, Ordering::Relaxed);
                        self.spawn_worker(Arc::clone(&entry), req, true);
                    }
                    None => finalize(
                        self,
                        &entry,
                        JobState::Failed,
                        Some("stored request no longer decodes".into()),
                        |_| {},
                    ),
                }
            }
            self.entries.lock().insert(name, entry);
        }
    }

    /// Starts a new durable job. `Err("draining")` maps to `busy` at the
    /// protocol layer; other errors are request errors.
    pub fn start(self: &Arc<Self>, req: JobStartRequest) -> Result<JobStatusBody, String> {
        // ord: Acquire — pairs with the AcqRel swap in begin_drain; a
        // start racing the drain edge is rejected here or parked by the
        // check after the insert below.
        if self.draining.load(Ordering::Acquire) {
            return Err("draining".into());
        }
        if req.spec.threads > self.workers {
            return Err(format!(
                "\"threads\" = {} exceeds the server's worker pool ({})",
                req.spec.threads, self.workers
            ));
        }
        // Reject unresolvable instances NOW, not hours later in a
        // detached worker.
        req.spec.resolve_instance()?;

        // Claim the job directory; `create_dir` is the uniqueness lock.
        let (name, dir) = match &req.job {
            Some(name) => {
                let dir = self.jobs_dir.join(name);
                std::fs::create_dir(&dir).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::AlreadyExists {
                        format!("job {name:?} already exists")
                    } else {
                        format!("cannot create job dir: {e}")
                    }
                })?;
                (name.clone(), dir)
            }
            None => loop {
                // ord: Relaxed — uniqueness comes from create_dir, the
                // counter only de-duplicates candidate names.
                let n = self.next_id.fetch_add(1, Ordering::Relaxed);
                let candidate = format!("job-{}-{n}", now_ms());
                let dir = self.jobs_dir.join(&candidate);
                match std::fs::create_dir(&dir) {
                    Ok(()) => break (candidate, dir),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(format!("cannot create job dir: {e}")),
                }
            },
        };

        let manifest = Manifest {
            state: JobState::Queued,
            checkpoint_gens: req.checkpoint_gens.unwrap_or(self.default_checkpoint_gens).max(1),
            created_ms: now_ms(),
            generations: 0,
            evaluations: 0,
            elapsed_ms: 0,
            best: None,
            error: None,
            raw: req.raw.clone(),
        };
        write_json_atomic(&dir.join("manifest.json"), &manifest.to_json(&name))
            .map_err(|e| format!("cannot write manifest: {e}"))?;
        append_progress(&dir, "created");

        let entry = Arc::new(JobEntry::new(&name, dir, manifest, Some(req.spec.termination)));
        self.entries.lock().insert(name.clone(), Arc::clone(&entry));
        // A drain that began after the check above may have walked the
        // entries before this insert: park the job like the others.
        // ord: Acquire — same pairing as the check above; a drain whose
        // walk missed this entry swapped the flag before that walk.
        if self.draining.load(Ordering::Acquire) {
            entry.request_stop(Stop::Drain);
        }
        // ord: Relaxed — stats counter.
        self.started.fetch_add(1, Ordering::Relaxed);
        self.spawn_worker(Arc::clone(&entry), req, false);
        Ok(entry.status_body())
    }

    fn spawn_worker(self: &Arc<Self>, entry: Arc<JobEntry>, req: JobStartRequest, resumed: bool) {
        let mgr = Arc::clone(self);
        let worker_entry = Arc::clone(&entry);
        let spawned = std::thread::Builder::new()
            .name(format!("pacga-job-{}", entry.name))
            .spawn(move || run_job(&mgr, &worker_entry, req, resumed));
        match spawned {
            Ok(handle) => self.handles.lock().push(handle),
            // Thread exhaustion is an environment failure, not a panic:
            // the job lands terminal `failed` with the OS error recorded.
            Err(e) => finalize(
                self,
                &entry,
                JobState::Failed,
                Some(format!("cannot spawn worker thread: {e}")),
                |_| {},
            ),
        }
    }

    fn entry(&self, name: &str) -> Result<Arc<JobEntry>, String> {
        self.entries.lock().get(name).cloned().ok_or_else(|| format!("unknown job {name:?}"))
    }

    /// Status of one job.
    pub fn status(&self, name: &str) -> Result<JobStatusBody, String> {
        Ok(self.entry(name)?.status_body())
    }

    /// The last `tail` lines of a job's progress log, oldest first.
    pub fn log(&self, name: &str, tail: usize) -> Result<Vec<String>, String> {
        let entry = self.entry(name)?;
        let text = std::fs::read_to_string(entry.dir.join("progress.log")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        let skip = lines.len().saturating_sub(tail);
        Ok(lines.iter().skip(skip).map(|l| l.to_string()).collect())
    }

    /// Requests cancellation. Idempotent; already-terminal jobs answer
    /// with their state unchanged.
    pub fn stop(&self, name: &str) -> Result<JobStatusBody, String> {
        let entry = self.entry(name)?;
        let stopping = entry.request_stop(Stop::User);
        let mut body = entry.status_body();
        body.message = Some(if stopping {
            "stop requested".into()
        } else {
            format!("job already {}", body.state)
        });
        Ok(body)
    }

    /// Moves a terminal job into the dated archive hierarchy and drops
    /// it from the live set.
    pub fn archive(&self, name: &str) -> Result<JobStatusBody, String> {
        let entry = self.entry(name)?;
        let state = entry.state();
        if !state.is_terminal() {
            return Err(format!("job {name:?} is {}; stop it before archiving", state.as_str()));
        }
        let bucket = self.archive_dir.join(today_bucket());
        std::fs::create_dir_all(&bucket).map_err(|e| format!("cannot create archive dir: {e}"))?;
        let dest = bucket.join(name);
        if dest.exists() {
            return Err(format!("archive destination {dest:?} already exists"));
        }
        std::fs::rename(&entry.dir, &dest).map_err(|e| format!("archive failed: {e}"))?;
        self.entries.lock().remove(name);
        let mut body = entry.status_body();
        body.state = "archived".into();
        body.archived_to = Some(dest.to_string_lossy().into_owned());
        Ok(body)
    }

    /// Every job the daemon knows about: live entries first (sorted by
    /// name), then the archive hierarchy (newest bucket first, names
    /// sorted within a bucket). Archived rows report the manifest's
    /// terminal state plus the bucket date.
    pub fn list(&self) -> Vec<JobListEntry> {
        let mut rows: Vec<JobListEntry> = self
            .entries
            .lock()
            .values()
            .map(|e| e.record.lock().manifest.list_row(e.name.clone(), None))
            .collect();
        rows.sort_by(|a, b| a.job.cmp(&b.job));

        let mut buckets: Vec<String> = match std::fs::read_dir(&self.archive_dir) {
            Ok(dirents) => dirents
                .flatten()
                .filter(|d| d.path().is_dir())
                .filter_map(|d| d.file_name().into_string().ok())
                .filter(|name| bucket_days(name).is_some())
                .collect(),
            Err(_) => Vec::new(),
        };
        buckets.sort_by(|a, b| b.cmp(a));
        for bucket in buckets {
            let dir = self.archive_dir.join(&bucket);
            let Ok(dirents) = std::fs::read_dir(&dir) else { continue };
            let mut names: Vec<String> =
                dirents.flatten().filter_map(|d| d.file_name().into_string().ok()).collect();
            names.sort();
            for name in names {
                let manifest_path = dir.join(&name).join("manifest.json");
                let Ok(text) = std::fs::read_to_string(&manifest_path) else { continue };
                let Ok(parsed) = Json::parse(&text) else { continue };
                let Ok(manifest) = Manifest::from_json(&parsed) else { continue };
                rows.push(manifest.list_row(name, Some(bucket.clone())));
            }
        }
        rows
    }

    /// Begins the drain: every live job is asked to write a final
    /// checkpoint and park as `checkpointed` (resumed by the next daemon).
    pub fn begin_drain(&self) {
        // ord: AcqRel — the winning swap orders the flag before the walk
        // below; the Acquire loads in start() observe the edge.
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        for entry in self.entries.lock().values() {
            entry.request_stop(Stop::Drain);
        }
    }

    /// Joins every worker thread (drain must have been triggered, or the
    /// jobs must be finishing on their own).
    pub fn join_all(&self) {
        loop {
            let drained: Vec<JoinHandle<()>> = self.handles.lock().drain(..).collect();
            if drained.is_empty() {
                return;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }

    /// Counter snapshot for the `stats` response.
    pub fn counters(&self) -> JobCounters {
        let active =
            self.entries.lock().values().filter(|e| !e.state().is_terminal()).count() as u64;
        JobCounters {
            // ord: Relaxed — stats counters; the snapshot needs no
            // cross-counter consistency.
            started: self.started.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            active,
        }
    }
}

/// Boot-time retention sweep: every archive bucket strictly older than
/// `keep_days` (by its `YYYY-MM-DD` name, not file mtime) is removed
/// wholesale. Best-effort — an undeletable bucket is skipped, never
/// fatal to daemon startup. Non-bucket entries are left alone.
fn sweep_archive(archive_dir: &Path, keep_days: u64) {
    let today = (now_ms() / 86_400_000) as i64;
    let Ok(dirents) = std::fs::read_dir(archive_dir) else { return };
    for dirent in dirents.flatten() {
        let name = dirent.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(days) = bucket_days(name) else { continue };
        if today - days > keep_days as i64 && dirent.path().is_dir() {
            let _ = std::fs::remove_dir_all(dirent.path());
        }
    }
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("jobs_dir", &self.jobs_dir)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Terminal transition: bumps the manager counter, then `change` brings
/// the counters up to date as the record takes `state` and `error`.
fn finalize(
    mgr: &JobManager,
    entry: &JobEntry,
    state: JobState,
    error: Option<String>,
    change: impl FnOnce(&mut Manifest),
) {
    let (counter, event) = match state {
        JobState::Done => (Some(&mgr.completed), "done".to_string()),
        JobState::Failed => {
            (Some(&mgr.failed), format!("failed error={:?}", error.as_deref().unwrap_or("unknown")))
        }
        _ => (None, state.as_str().to_string()),
    };
    if let Some(counter) = counter {
        // ord: Relaxed — stats counter.
        counter.fetch_add(1, Ordering::Relaxed);
    }
    entry.transition(&event, |record| {
        record.manifest.elapsed_ms = record.elapsed_ms();
        record.run_started = None;
        change(&mut record.manifest);
        record.manifest.state = state;
        record.manifest.error = error;
    });
}

/// Writes `result.json` + `trace.csv` for a completed job.
fn write_result(
    entry: &JobEntry,
    instance: &etc_model::EtcInstance,
    best: &Individual,
    totals: &CheckpointMeta,
    traces: &[pa_cga_core::trace::ThreadTrace],
) {
    let result = Json::obj(vec![
        ("job", Json::str(entry.name.clone())),
        ("instance", Json::str(instance.name())),
        ("n_tasks", Json::num(instance.n_tasks() as f64)),
        ("n_machines", Json::num(instance.n_machines() as f64)),
        ("makespan", Json::num(best.makespan())),
        (
            "assignment",
            Json::Arr(best.schedule.assignment().iter().map(|&m| Json::num(m as f64)).collect()),
        ),
        ("generations", Json::num(totals.generations as f64)),
        ("evaluations", Json::num(totals.evaluations as f64)),
        ("elapsed_ms", Json::num(totals.elapsed_ms as f64)),
    ]);
    let _ = write_json_atomic(&entry.dir.join("result.json"), &result);

    let mut csv = String::from("thread,sweep,block_mean,block_best\n");
    for (tid, trace) in traces.iter().enumerate() {
        for (sweep, (mean, best)) in trace.block_mean.iter().zip(&trace.block_best).enumerate() {
            csv.push_str(&format!("{tid},{sweep},{mean},{best}\n"));
        }
    }
    let _ = pa_cga_core::fsx::atomic_write(&entry.dir.join("trace.csv"), csv.as_bytes());
}

/// The detached worker: admission, checkpoint recovery, the hooked
/// engine run, and the terminal transition.
fn run_job(mgr: &JobManager, entry: &JobEntry, req: JobStartRequest, resumed: bool) {
    let weight = req.spec.threads.clamp(1, mgr.workers);
    mgr.pool.acquire(weight);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job_inner(mgr, entry, &req, resumed)));
    if let Err(panic) = outcome {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".into());
        finalize(mgr, entry, JobState::Failed, Some(message), |_| {});
    }
    mgr.pool.release(weight);
}

fn run_job_inner(mgr: &JobManager, entry: &JobEntry, req: &JobStartRequest, resumed: bool) {
    // Cancelled while queued?
    let stop = entry.record.lock().stop;
    match stop {
        Some(Stop::User) => return finalize(mgr, entry, JobState::Stopped, None, |_| {}),
        // Drain before we even started: leave the on-disk state as-is
        // (queued/checkpointed), the next daemon picks it up.
        Some(Stop::Drain) => return,
        None => {}
    }

    let instance = match req.spec.resolve_instance() {
        Ok(i) => i,
        Err(e) => return finalize(mgr, entry, JobState::Failed, Some(e), |_| {}),
    };
    let mut cfg = req.spec.build_config();
    cfg.record_traces = true;

    // Checkpoint recovery chain: latest snapshot, else the rotated
    // previous one, else a fresh start. Every rejection is logged.
    let ckpt_path = entry.dir.join("checkpoint.ckpt");
    let prev_path = entry.dir.join("checkpoint.prev.ckpt");
    let mut warm: Option<(Vec<Individual>, CheckpointMeta)> = None;
    for path in [&ckpt_path, &prev_path] {
        if !path.exists() {
            continue;
        }
        match checkpoint::load_from_path(path, &instance) {
            Ok((pop, meta)) if pop.len() == cfg.population_size() => {
                append_progress(
                    &entry.dir,
                    &format!(
                        "resume-checkpoint file={:?} gens={} evals={}",
                        path.file_name().unwrap_or_default(),
                        meta.generations,
                        meta.evaluations
                    ),
                );
                warm = Some((pop, meta));
                break;
            }
            Ok((pop, _)) => append_progress(
                &entry.dir,
                &format!(
                    "checkpoint-invalid file={:?} error=\"population {} != configured {}\"",
                    path.file_name().unwrap_or_default(),
                    pop.len(),
                    cfg.population_size()
                ),
            ),
            Err(e) => append_progress(
                &entry.dir,
                &format!(
                    "checkpoint-invalid file={:?} error={:?}",
                    path.file_name().unwrap_or_default(),
                    e.to_string()
                ),
            ),
        }
    }

    let (initial, base) = match warm {
        Some((pop, meta)) => (Some(pop), meta),
        None => (None, CheckpointMeta::default()),
    };
    let initial_best =
        initial.as_ref().map(|pop| pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min));

    // Subtract the budget already spent in earlier incarnations. A job
    // that already met its budget finalizes straight from the snapshot.
    let remaining = match cfg.termination {
        Termination::Evaluations(e) if base.evaluations >= e => None,
        Termination::Evaluations(e) => Some(Termination::Evaluations(e - base.evaluations)),
        Termination::Generations(g) if base.generations >= g => None,
        Termination::Generations(g) => Some(Termination::Generations(g - base.generations)),
        Termination::WallTime(d) => {
            let left = d.saturating_sub(Duration::from_millis(base.elapsed_ms));
            (!left.is_zero()).then_some(Termination::WallTime(left))
        }
    };
    let Some(remaining) = remaining else {
        // total_cmp keeps this panic-free even if a corrupt checkpoint
        // smuggled a NaN fitness through; an empty population simply
        // writes no result file.
        if let Some(best) = initial
            .as_ref()
            .and_then(|pop| pop.iter().min_by(|a, b| a.fitness.total_cmp(&b.fitness)))
        {
            write_result(entry, &instance, best, &base, &[]);
        }
        return finalize(mgr, entry, JobState::Done, None, |m| m.set_progress(&base, initial_best));
    };
    cfg.termination = remaining;

    // The record restarts from what this incarnation resumes: the loaded
    // snapshot's counters, or zero on a fresh start.
    let run_started = Instant::now();
    entry.transition(&format!("running resumed={resumed} threads={}", cfg.threads), |record| {
        record.manifest.state = JobState::Running;
        record.manifest.set_progress(&base, initial_best);
        record.run_started = Some(run_started);
    });

    // The checkpoint callback runs on engine thread 0: rotate + write
    // the snapshot atomically, then persist the counters it carries.
    let on_checkpoint = |view: &CheckpointView<'_>| {
        let now = Instant::now();
        let meta = CheckpointMeta {
            generations: base.generations + view.generation,
            evaluations: base.evaluations + view.evaluations,
            elapsed_ms: base.elapsed_ms + now.duration_since(run_started).as_millis() as u64,
        };
        if let Err(e) =
            checkpoint::save_to_path(&ckpt_path, Some(&prev_path), view.population, &meta)
        {
            append_progress(&entry.dir, &format!("checkpoint-error error={:?}", e.to_string()));
            return;
        }
        let best = view.best_fitness();
        let event =
            format!("checkpoint gens={} evals={} best={best}", meta.generations, meta.evaluations);
        entry.transition(&event, |record| {
            record.manifest.state = JobState::Checkpointed;
            record.manifest.set_progress(&meta, Some(best));
            record.run_started = Some(now);
        });
    };
    let hooks = RunHooks {
        checkpoint_every: entry.record.lock().manifest.checkpoint_gens,
        on_checkpoint: Some(&on_checkpoint),
        cancel: Some(&entry.cancel),
    };

    let engine = PaCga::new(&instance, cfg.clone());
    let (outcome, population) = engine.run_hooked(initial, &hooks);
    let totals = CheckpointMeta {
        generations: base.generations + outcome.generations.first().copied().unwrap_or(0),
        evaluations: base.evaluations + outcome.evaluations,
        elapsed_ms: base.elapsed_ms + run_started.elapsed().as_millis() as u64,
    };
    let best = Some(outcome.best.fitness);
    let progress = |m: &mut Manifest| m.set_progress(&totals, best);

    // A stop raised after the run wound down is read here all the same.
    let stop = entry.record.lock().stop;
    match stop {
        Some(Stop::User) => finalize(mgr, entry, JobState::Stopped, None, progress),
        // Park resumable: one final snapshot so the next daemon loses
        // nothing, manifest left `checkpointed`.
        Some(Stop::Drain) => {
            match checkpoint::save_to_path(&ckpt_path, Some(&prev_path), &population, &totals) {
                Ok(()) => entry.transition(
                    &format!("drain-checkpoint gens={}", totals.generations),
                    |record| {
                        record.manifest.state = JobState::Checkpointed;
                        progress(&mut record.manifest);
                        record.run_started = None;
                    },
                ),
                Err(e) => {
                    let error = Some(format!("drain checkpoint failed: {e}"));
                    finalize(mgr, entry, JobState::Failed, error, progress)
                }
            }
        }
        None => {
            write_result(entry, &instance, &outcome.best, &totals, &outcome.traces);
            append_progress(
                &entry.dir,
                &format!(
                    "completed makespan={} gens={} evals={}",
                    outcome.best.makespan(),
                    totals.generations,
                    totals.evaluations
                ),
            );
            finalize(mgr, entry, JobState::Done, None, progress);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_match_known_anchors() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn bucket_days_inverts_civil_from_days() {
        // The retention sweep compares `now_ms() / 86_400_000` (Unix
        // epoch days) against `bucket_days`; both must share the epoch.
        assert_eq!(bucket_days("1970-01-01"), Some(0));
        assert_eq!(bucket_days("2026-08-08"), Some(20_673));
        for days in [0i64, 59, 19_723, 20_673, 40_000] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(bucket_days(&format!("{y:04}-{m:02}-{d:02}")), Some(days));
        }
        assert_eq!(bucket_days("not-a-date"), None);
        assert_eq!(bucket_days("2026-13-01"), None);
        assert_eq!(bucket_days("relic"), None);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            state: JobState::Checkpointed,
            checkpoint_gens: 50,
            created_ms: 1_700_000_000_000,
            generations: 120,
            evaluations: 30_720,
            elapsed_ms: 4_200,
            best: Some(1234.5),
            error: None,
            raw: Json::obj(vec![("type", Json::str("job.start"))]),
        };
        let v = Json::parse(&m.to_json("j1").to_string()).unwrap();
        let back = Manifest::from_json(&v).unwrap();
        assert_eq!(back.state, JobState::Checkpointed);
        assert_eq!(back.checkpoint_gens, 50);
        assert_eq!(back.generations, 120);
        assert_eq!(back.evaluations, 30_720);
        assert_eq!(back.elapsed_ms, 4_200);
        assert_eq!(back.best, Some(1234.5));
        assert_eq!(back.error, None);
        assert_eq!(back.raw.get("type").and_then(Json::as_str), Some("job.start"));
    }

    #[test]
    fn manifest_with_failure_round_trips_error() {
        let m = Manifest {
            state: JobState::Failed,
            checkpoint_gens: 1,
            created_ms: 0,
            generations: 0,
            evaluations: 0,
            elapsed_ms: 0,
            best: None,
            error: Some("engine panicked".into()),
            raw: Json::obj(vec![]),
        };
        let v = Json::parse(&m.to_json("x").to_string()).unwrap();
        let back = Manifest::from_json(&v).unwrap();
        assert_eq!(back.state, JobState::Failed);
        assert_eq!(back.error.as_deref(), Some("engine panicked"));
        assert_eq!(back.best, None);
    }

    #[test]
    fn state_spellings_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Checkpointed,
            JobState::Done,
            JobState::Failed,
            JobState::Stopped,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("archived"), None);
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Checkpointed.is_terminal());
    }
}
