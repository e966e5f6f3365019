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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
const STOP_NONE: u8 = 0;
/// `job.stop`: wind down to terminal `stopped`.
const STOP_USER: u8 = 1;
/// Daemon drain: write a final checkpoint and leave `checkpointed` for
/// the next daemon incarnation to finish.
const STOP_DRAIN: u8 = 2;

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

/// What the job's budget counts, for progress/ETA derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetKind {
    Evaluations(u64),
    Generations(u64),
    /// Wall-time or unknown: no unit budget to extrapolate against.
    None,
}

impl BudgetKind {
    fn of(t: &Termination) -> BudgetKind {
        match t {
            Termination::Evaluations(e) => BudgetKind::Evaluations(*e),
            Termination::Generations(g) => BudgetKind::Generations(*g),
            Termination::WallTime(_) => BudgetKind::None,
        }
    }
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

/// One tracked job: live counters plus its on-disk home. Shared between
/// the worker thread, the checkpoint callback, and status queries.
pub struct JobEntry {
    name: String,
    dir: PathBuf,
    state: Mutex<JobState>,
    /// Cooperative cancel, polled by the engine at sweep boundaries.
    cancel: AtomicBool,
    stop_kind: AtomicU8,
    generations: AtomicU64,
    evaluations: AtomicU64,
    /// Best fitness bits (`u64::MAX` = none observed yet).
    best_bits: AtomicU64,
    /// Elapsed before this incarnation (from the resumed checkpoint).
    elapsed_base_ms: AtomicU64,
    run_started: Mutex<Option<Instant>>,
    error: Mutex<Option<String>>,
    budget: BudgetKind,
}

impl JobEntry {
    fn new(name: &str, dir: PathBuf, manifest: &Manifest, budget: BudgetKind) -> JobEntry {
        JobEntry {
            name: name.to_string(),
            dir,
            state: Mutex::new(manifest.state),
            cancel: AtomicBool::new(false),
            stop_kind: AtomicU8::new(STOP_NONE),
            generations: AtomicU64::new(manifest.generations),
            evaluations: AtomicU64::new(manifest.evaluations),
            best_bits: AtomicU64::new(manifest.best.map(f64::to_bits).unwrap_or(u64::MAX)),
            elapsed_base_ms: AtomicU64::new(manifest.elapsed_ms),
            run_started: Mutex::new(None),
            error: Mutex::new(manifest.error.clone()),
            budget,
        }
    }

    fn state(&self) -> JobState {
        *self.state.lock()
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock() = s;
    }

    /// Total elapsed including the live incarnation, milliseconds.
    fn elapsed_ms(&self) -> u64 {
        // ord: Relaxed — standalone counter; status readers tolerate a
        // slightly stale figure.
        let base = self.elapsed_base_ms.load(Ordering::Relaxed);
        let live = self.run_started.lock().map(|t| t.elapsed().as_millis() as u64).unwrap_or(0);
        base + live
    }

    /// The wire-facing status body.
    fn status_body(&self) -> JobStatusBody {
        let state = self.state();
        // ord: Relaxed — independent progress counters; a status body is
        // a best-effort snapshot, not a consistent cut.
        let generations = self.generations.load(Ordering::Relaxed);
        let evaluations = self.evaluations.load(Ordering::Relaxed);
        let best_bits = self.best_bits.load(Ordering::Relaxed);
        let elapsed_s = self.elapsed_ms() as f64 / 1e3;
        let rate = JobProgress { done: evaluations, budget: None, elapsed_s }.per_sec();
        let eta = match self.budget {
            BudgetKind::Evaluations(e) => {
                JobProgress { done: evaluations, budget: Some(e), elapsed_s }.eta_s()
            }
            BudgetKind::Generations(g) => {
                JobProgress { done: generations, budget: Some(g), elapsed_s }.eta_s()
            }
            BudgetKind::None => None,
        };
        JobStatusBody {
            job: self.name.clone(),
            state: state.as_str().to_string(),
            generations,
            evaluations,
            best_makespan: (best_bits != u64::MAX).then(|| f64::from_bits(best_bits)),
            evals_per_sec: if state.is_terminal() { None } else { rate },
            eta_s: if state.is_terminal() { None } else { eta },
            archived_to: None,
            message: self.error.lock().clone(),
        }
    }
}

impl std::fmt::Debug for JobEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEntry")
            .field("name", &self.name)
            .field("state", &self.state())
            .finish_non_exhaustive()
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
    /// resumable state are re-queued. Returns the number resumed.
    fn recover(self: &Arc<Self>) -> usize {
        let mut resumed = 0;
        let Ok(dirents) = std::fs::read_dir(&self.jobs_dir) else { return 0 };
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
            let budget = req
                .as_ref()
                .map(|r| BudgetKind::of(&r.spec.termination))
                .unwrap_or(BudgetKind::None);
            let entry = Arc::new(JobEntry::new(&name, dir.clone(), &manifest, budget));
            if !manifest.state.is_terminal() {
                match req {
                    Some(req) => {
                        append_progress(
                            &dir,
                            &format!("recovered state={}", manifest.state.as_str()),
                        );
                        // ord: Relaxed — stats counters, no data rides on
                        // them.
                        self.resumed.fetch_add(1, Ordering::Relaxed);
                        self.started.fetch_add(1, Ordering::Relaxed);
                        resumed += 1;
                        self.spawn_worker(Arc::clone(&entry), req, manifest, true);
                    }
                    None => {
                        finalize(
                            self,
                            &entry,
                            &mut manifest.clone(),
                            JobState::Failed,
                            Some("stored request no longer decodes".into()),
                        );
                    }
                }
            }
            self.entries.lock().insert(name, entry);
        }
        resumed
    }

    /// Starts a new durable job. `Err("draining")` maps to `busy` at the
    /// protocol layer; other errors are request errors.
    pub fn start(self: &Arc<Self>, req: JobStartRequest) -> Result<JobStatusBody, String> {
        // ord: Acquire — pairs with the AcqRel swap in begin_drain; a
        // start racing the drain edge is safely rejected or admitted
        // (admitted jobs still see the cancel flag).
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

        let budget = BudgetKind::of(&req.spec.termination);
        let entry = Arc::new(JobEntry::new(&name, dir, &manifest, budget));
        self.entries.lock().insert(name.clone(), Arc::clone(&entry));
        // ord: Relaxed — stats counter.
        self.started.fetch_add(1, Ordering::Relaxed);
        self.spawn_worker(Arc::clone(&entry), req, manifest, false);
        Ok(entry.status_body())
    }

    fn spawn_worker(
        self: &Arc<Self>,
        entry: Arc<JobEntry>,
        req: JobStartRequest,
        mut manifest: Manifest,
        resumed: bool,
    ) {
        let mgr = Arc::clone(self);
        let worker_entry = Arc::clone(&entry);
        let worker_manifest = manifest.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("pacga-job-{}", entry.name))
            .spawn(move || run_job(&mgr, &worker_entry, req, worker_manifest, resumed));
        match spawned {
            Ok(handle) => self.handles.lock().push(handle),
            // Thread exhaustion is an environment failure, not a panic:
            // the job lands terminal `failed` with the OS error recorded.
            Err(e) => finalize(
                self,
                &entry,
                &mut manifest,
                JobState::Failed,
                Some(format!("cannot spawn worker thread: {e}")),
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
        let mut body = entry.status_body();
        if entry.state().is_terminal() {
            body.message = Some(format!("job already {}", body.state));
            return Ok(body);
        }
        // ord: Relaxed — stop_kind is published by the Release store of
        // the cancel flag just below; nothing reads it before observing
        // cancel (or joining the worker).
        entry.stop_kind.store(STOP_USER, Ordering::Relaxed);
        // ord: Release — pairs with the engine's Acquire load in
        // RunHooks::is_cancelled, making stop_kind visible to the
        // wound-down run.
        entry.cancel.store(true, Ordering::Release);
        append_progress(&entry.dir, "stop-requested");
        body.message = Some("stop requested".into());
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
        let mut live: Vec<JobListEntry> = self
            .entries
            .lock()
            .values()
            .map(|e| {
                let body = e.status_body();
                JobListEntry {
                    job: body.job,
                    state: body.state,
                    live: true,
                    generations: body.generations,
                    evaluations: body.evaluations,
                    best_makespan: body.best_makespan,
                    archived_date: None,
                }
            })
            .collect();
        live.sort_by(|a, b| a.job.cmp(&b.job));

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
                live.push(JobListEntry {
                    job: name,
                    state: manifest.state.as_str().to_string(),
                    live: false,
                    generations: manifest.generations,
                    evaluations: manifest.evaluations,
                    best_makespan: manifest.best,
                    archived_date: Some(bucket.clone()),
                });
            }
        }
        live
    }

    /// True once a drain has begun (new `job.start`s are rejected).
    pub fn draining(&self) -> bool {
        // ord: Acquire — pairs with the AcqRel swap in begin_drain.
        self.draining.load(Ordering::Acquire)
    }

    /// Begins the drain: every live job is asked to write a final
    /// checkpoint and park as `checkpointed` (resumed by the next daemon).
    pub fn begin_drain(&self) {
        // ord: AcqRel — the winning swap orders the flag against the
        // per-entry stop propagation below; later Acquire loads in
        // start()/draining() observe the edge.
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        for entry in self.entries.lock().values() {
            if !entry.state().is_terminal() {
                // A user stop already in flight keeps its meaning.
                // ord: Relaxed — single-variable CAS; the Release store
                // of the cancel flag below publishes the outcome.
                let _ = entry.stop_kind.compare_exchange(
                    STOP_NONE,
                    STOP_DRAIN,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // ord: Release — pairs with the Acquire load in
                // RunHooks::is_cancelled; publishes stop_kind.
                entry.cancel.store(true, Ordering::Release);
            }
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

/// Terminal transition: persist state + counters, update the in-memory
/// entry, bump the manager counters.
fn finalize(
    mgr: &JobManager,
    entry: &JobEntry,
    manifest: &mut Manifest,
    state: JobState,
    error: Option<String>,
) {
    manifest.state = state;
    // ord: Relaxed — the worker thread finalizing is the same thread
    // that last stored these counters (or joined the one that did).
    manifest.generations = entry.generations.load(Ordering::Relaxed);
    manifest.evaluations = entry.evaluations.load(Ordering::Relaxed);
    manifest.elapsed_ms = entry.elapsed_ms();
    // ord: Relaxed — same single-writer argument as above.
    let best = entry.best_bits.load(Ordering::Relaxed);
    manifest.best = (best != u64::MAX).then(|| f64::from_bits(best));
    manifest.error = error.clone();
    // ord: Relaxed — status readers tolerate staleness.
    entry.elapsed_base_ms.store(manifest.elapsed_ms, Ordering::Relaxed);
    *entry.run_started.lock() = None;
    *entry.error.lock() = error.clone();
    let _ = write_json_atomic(&entry.dir.join("manifest.json"), &manifest.to_json(&entry.name));
    match state {
        JobState::Done => {
            // ord: Relaxed — stats counter.
            mgr.completed.fetch_add(1, Ordering::Relaxed);
            append_progress(&entry.dir, "done");
        }
        JobState::Failed => {
            // ord: Relaxed — stats counter.
            mgr.failed.fetch_add(1, Ordering::Relaxed);
            append_progress(
                &entry.dir,
                &format!("failed error={:?}", error.as_deref().unwrap_or("unknown")),
            );
        }
        JobState::Stopped => append_progress(&entry.dir, "stopped"),
        _ => {}
    }
    // Published last: a status reader that sees the terminal state also
    // sees its manifest, its progress line and the manager counters.
    entry.set_state(state);
}

/// Writes `result.json` + `trace.csv` for a completed job.
fn write_result(
    entry: &JobEntry,
    instance: &etc_model::EtcInstance,
    best: &Individual,
    generations: u64,
    evaluations: u64,
    elapsed_ms: u64,
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
        ("generations", Json::num(generations as f64)),
        ("evaluations", Json::num(evaluations as f64)),
        ("elapsed_ms", Json::num(elapsed_ms as f64)),
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
fn run_job(
    mgr: &Arc<JobManager>,
    entry: &Arc<JobEntry>,
    req: JobStartRequest,
    mut manifest: Manifest,
    resumed: bool,
) {
    let weight = req.spec.threads.clamp(1, mgr.workers);
    mgr.pool.acquire(weight);
    let outcome =
        catch_unwind(AssertUnwindSafe(|| run_job_inner(mgr, entry, &req, &mut manifest, resumed)));
    if let Err(panic) = outcome {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".into());
        finalize(mgr, entry, &mut manifest, JobState::Failed, Some(message));
    }
    mgr.pool.release(weight);
}

fn run_job_inner(
    mgr: &Arc<JobManager>,
    entry: &Arc<JobEntry>,
    req: &JobStartRequest,
    manifest: &mut Manifest,
    resumed: bool,
) {
    // Cancelled while queued?
    // ord: Relaxed — racing a concurrent stop is benign: a missed kind
    // here is caught by the cancel flag at the first sweep boundary.
    match entry.stop_kind.load(Ordering::Relaxed) {
        STOP_USER => return finalize(mgr, entry, manifest, JobState::Stopped, None),
        // Drain before we even started: leave the on-disk state as-is
        // (queued/checkpointed), the next daemon picks it up.
        STOP_DRAIN => return,
        _ => {}
    }

    let instance = match req.spec.resolve_instance() {
        Ok(i) => i,
        Err(e) => return finalize(mgr, entry, manifest, JobState::Failed, Some(e)),
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
    // ord: Relaxed — single-writer progress mirrors; status queries read
    // them without cross-field consistency requirements.
    entry.generations.store(base.generations, Ordering::Relaxed);
    entry.evaluations.store(base.evaluations, Ordering::Relaxed);
    entry.elapsed_base_ms.store(base.elapsed_ms, Ordering::Relaxed);
    if let Some(pop) = &initial {
        let best = pop.iter().map(|i| i.fitness).fold(f64::INFINITY, f64::min);
        // ord: Relaxed — same mirror contract as above.
        entry.best_bits.store(best.to_bits(), Ordering::Relaxed);
    }

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
            write_result(
                entry,
                &instance,
                best,
                base.generations,
                base.evaluations,
                base.elapsed_ms,
                &[],
            );
        }
        return finalize(mgr, entry, manifest, JobState::Done, None);
    };
    cfg.termination = remaining;

    manifest.state = JobState::Running;
    let _ = write_json_atomic(&entry.dir.join("manifest.json"), &manifest.to_json(&entry.name));
    entry.set_state(JobState::Running);
    let run_started = Instant::now();
    *entry.run_started.lock() = Some(run_started);
    append_progress(&entry.dir, &format!("running resumed={resumed} threads={}", cfg.threads));

    // The checkpoint callback runs on engine thread 0: rotate + write
    // the snapshot atomically, then persist manifest + live counters.
    let manifest_cell = Mutex::new(manifest.clone());
    let on_checkpoint = |view: &CheckpointView<'_>| {
        let meta = CheckpointMeta {
            generations: base.generations + view.generation,
            evaluations: base.evaluations + view.evaluations,
            elapsed_ms: base.elapsed_ms + run_started.elapsed().as_millis() as u64,
        };
        if let Err(e) =
            checkpoint::save_to_path(&ckpt_path, Some(&prev_path), view.population, &meta)
        {
            append_progress(&entry.dir, &format!("checkpoint-error error={:?}", e.to_string()));
            return;
        }
        let best = view.best_fitness();
        // ord: Relaxed — progress mirrors for status queries; the
        // manifest write below is the durable record.
        entry.generations.store(meta.generations, Ordering::Relaxed);
        entry.evaluations.store(meta.evaluations, Ordering::Relaxed);
        entry.best_bits.store(best.to_bits(), Ordering::Relaxed);
        entry.set_state(JobState::Checkpointed);
        {
            let mut m = manifest_cell.lock();
            m.state = JobState::Checkpointed;
            m.generations = meta.generations;
            m.evaluations = meta.evaluations;
            m.elapsed_ms = meta.elapsed_ms;
            m.best = Some(best);
            let _ = write_json_atomic(&entry.dir.join("manifest.json"), &m.to_json(&entry.name));
        }
        append_progress(
            &entry.dir,
            &format!("checkpoint gens={} evals={} best={best}", meta.generations, meta.evaluations),
        );
    };
    let hooks = RunHooks {
        checkpoint_every: manifest.checkpoint_gens,
        on_checkpoint: Some(&on_checkpoint),
        cancel: Some(&entry.cancel),
    };

    let engine = PaCga::new(&instance, cfg.clone());
    let (outcome, population) = engine.run_hooked(initial, &hooks);
    *manifest = manifest_cell.into_inner();

    let total_gens = base.generations + outcome.generations.first().copied().unwrap_or(0);
    let total_evals = base.evaluations + outcome.evaluations;
    let total_elapsed = base.elapsed_ms + run_started.elapsed().as_millis() as u64;
    // ord: Relaxed — post-run mirror updates; the engine threads are
    // already joined.
    entry.generations.store(total_gens, Ordering::Relaxed);
    entry.evaluations.store(total_evals, Ordering::Relaxed);
    entry.best_bits.store(outcome.best.fitness.to_bits(), Ordering::Relaxed);

    // ord: Relaxed — run_hooked joined the engine threads, whose Acquire
    // load of the cancel flag ordered the raiser's stop_kind store
    // before this read (stop raised after the run wound down is caught
    // here directly; either way the kind is coherent).
    match entry.stop_kind.load(Ordering::Relaxed) {
        STOP_USER => finalize(mgr, entry, manifest, JobState::Stopped, None),
        STOP_DRAIN => {
            // Park resumable: one final snapshot so the next daemon
            // loses nothing, manifest left `checkpointed`.
            let meta = CheckpointMeta {
                generations: total_gens,
                evaluations: total_evals,
                elapsed_ms: total_elapsed,
            };
            match checkpoint::save_to_path(&ckpt_path, Some(&prev_path), &population, &meta) {
                Ok(()) => {
                    append_progress(&entry.dir, &format!("drain-checkpoint gens={total_gens}"));
                    manifest.state = JobState::Checkpointed;
                    manifest.generations = total_gens;
                    manifest.evaluations = total_evals;
                    manifest.elapsed_ms = total_elapsed;
                    manifest.best = Some(outcome.best.fitness);
                    entry.set_state(JobState::Checkpointed);
                    // ord: Relaxed — status mirror.
                    entry.elapsed_base_ms.store(total_elapsed, Ordering::Relaxed);
                    *entry.run_started.lock() = None;
                    let _ = write_json_atomic(
                        &entry.dir.join("manifest.json"),
                        &manifest.to_json(&entry.name),
                    );
                }
                Err(e) => finalize(
                    mgr,
                    entry,
                    manifest,
                    JobState::Failed,
                    Some(format!("drain checkpoint failed: {e}")),
                ),
            }
        }
        _ => {
            write_result(
                entry,
                &instance,
                &outcome.best,
                total_gens,
                total_evals,
                total_elapsed,
                &outcome.traces,
            );
            append_progress(
                &entry.dir,
                &format!(
                    "completed makespan={} gens={total_gens} evals={total_evals}",
                    outcome.best.makespan()
                ),
            );
            finalize(mgr, entry, manifest, JobState::Done, None);
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
