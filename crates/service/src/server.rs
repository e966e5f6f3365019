//! The batching scheduler daemon behind `pacga serve`.
//!
//! Thread topology (all `std::net` / `std::thread`, per the vendor
//! policy in DESIGN.md §5):
//!
//! ```text
//! acceptor ──spawns──▶ one handler thread per connection
//!                          │  parse line → control requests answered
//!                          │  inline; a schedule request is resolved,
//!                          │  checked and digested here (or found in
//!                          │  the seen-line table when the same line
//!                          │  was accepted before), then a
//!                          │  hit-only cache lookup: a hit is answered
//!                          │  on this thread; a miss is try_enqueue'd
//!                          ▼
//!                bounded queue (Mutex<VecDeque> + Condvar)
//!                          │          full → "busy" backpressure
//!                          ▼
//!                scheduler thread: drains up to `batch_max` queued
//!                misses into ONE portfolio submission
//!                          │  counting cache lookup (a run that finished
//!                          │  since the handler looked is now a hit);
//!                          │  in-batch duplicates coalesced onto one run
//!                          ▼
//!            pa_cga_core::runner::Portfolio (weights = engine threads,
//!            capacity = --workers ⇒ concurrent requests never
//!            oversubscribe the host)
//! ```
//!
//! A hit never waits for the scheduler thread, which blocks in
//! `Portfolio::execute` for as long as a batch's engine runs take.
//!
//! Shutdown: a `shutdown` request (or [`ServerHandle::shutdown`]) stops
//! the acceptor, the scheduler drains everything already queued, every
//! waiting client gets its answer, and [`ServerHandle::join`] returns a
//! [`ServeSummary`].

use crate::cache::{CachedRun, ScheduleCache};
use crate::jobs::JobManager;
use crate::protocol::{Request, Response, ScheduleRequest, StatsSnapshot, StreamOpenRequest};
use crate::seen::{KnownSchedule, LineKey, SeenLines};
use crate::store::{StoreBuilder, StoreReader};
use crate::stream::StreamSession;
use etc_model::EtcInstance;
use pa_cga_core::config::PaCgaConfig;
use pa_cga_core::engine::PaCga;
use pa_cga_core::runner::{resolve_workers, Portfolio, RunSpec};
use pa_cga_core::trace::RunOutcome;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the `pacga serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Engine worker-pool capacity shared by every batch; 0 = one slot
    /// per available core.
    pub workers: usize,
    /// Bounded-queue depth; requests beyond it get `busy`.
    pub queue_cap: usize,
    /// Memoization cache entries (0 disables caching).
    pub cache_cap: usize,
    /// Most requests coalesced into one portfolio submission.
    pub batch_max: usize,
    /// Durable-job data directory; `None` disables the `job.*` verbs
    /// and named (durable) stream sessions.
    pub data_dir: Option<String>,
    /// Default checkpoint cadence (generations) for durable jobs.
    pub checkpoint_gens: u64,
    /// Retention horizon for archived jobs: buckets older than this many
    /// days are swept on boot. `None` keeps archives forever.
    pub archive_keep_days: Option<u64>,
    /// Path of a `.pacst` corpus store (see FORMAT.md). When set, the
    /// memoization cache warm-loads every best-schedule record at boot
    /// and persists its entries back (merged, atomically) on drain. A
    /// missing file is a cold start, not an error — the drain creates
    /// it.
    pub corpus: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7413".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 128,
            batch_max: 16,
            data_dir: None,
            checkpoint_gens: 64,
            archive_keep_days: None,
            corpus: None,
        }
    }
}

/// One queued schedule miss, resolved and digested by its handler, plus
/// the channel that handler waits on.
struct Job {
    request: ScheduleRequest,
    instance: EtcInstance,
    digest: u64,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct Metrics {
    received: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    evaluations: AtomicU64,
    /// Cache hits answered from the seen-line table, their line neither
    /// decoded nor digested.
    unscanned_hits: AtomicU64,
}

impl Metrics {
    /// Bumps a stats counter by one.
    fn bump(counter: &AtomicU64) {
        // ord: Relaxed — monotonic advisory counters; no data rides on
        // them.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a stats counter.
    fn add(counter: &AtomicU64, n: u64) {
        // ord: Relaxed — same advisory-counter contract as `bump`.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `n`.
    fn raise(counter: &AtomicU64, n: u64) {
        // ord: Relaxed — same advisory-counter contract as `bump`.
        counter.fetch_max(n, Ordering::Relaxed);
    }
}

struct Shared {
    addr: SocketAddr,
    workers: usize,
    queue_cap: usize,
    batch_max: usize,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    cache: Mutex<ScheduleCache>,
    /// Inline `schedule` lines accepted so far (bounded by `--cache-cap`).
    lines: SeenLines,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    /// Read-half handles of every live connection, keyed by connection
    /// id: the drain path shuts their read sides down so idle keep-alive
    /// clients produce EOF instead of pinning [`ServerHandle::join`]
    /// until the grace deadline. In-flight requests are unaffected
    /// (their answer goes out on the write half).
    conn_streams: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// The durable-job subsystem, present when `--data-dir` was given.
    jobs: Option<Arc<JobManager>>,
    /// The data directory itself, for durable stream sessions.
    data_dir: Option<std::path::PathBuf>,
    /// Named stream sessions currently open on SOME connection: at most
    /// one connection may drive a given durable session at a time.
    stream_names: Mutex<std::collections::HashSet<String>>,
    /// `.pacst` corpus path, when `--corpus` was given: the cache is
    /// warm-loaded from it at boot and persisted back on drain.
    corpus: Option<std::path::PathBuf>,
    /// Best-schedule records warm-loaded from the corpus at boot.
    cache_persisted: u64,
    start: Instant,
}

impl Shared {
    fn try_enqueue(
        &self,
        request: ScheduleRequest,
        instance: EtcInstance,
        digest: u64,
    ) -> Result<mpsc::Receiver<Response>, String> {
        let mut queue = self.queue.lock();
        // ord: Relaxed — checked under the queue mutex; the drain
        // trigger bridges the same mutex before notifying, so the flag
        // and the queue state stay coherent.
        if self.shutdown.load(Ordering::Relaxed) {
            return Err("draining".into());
        }
        if queue.len() >= self.queue_cap {
            return Err("queue full".into());
        }
        let (tx, rx) = mpsc::channel();
        queue.push_back(Job { request, instance, digest, reply: tx });
        Metrics::bump(&self.metrics.received);
        drop(queue);
        self.queue_cv.notify_one();
        Ok(rx)
    }

    fn trigger_shutdown(&self) {
        // ord: AcqRel — exactly one caller wins the drain edge and runs
        // the teardown below; losers return immediately.
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return; // already draining
        }
        // Bridge the queue mutex between raising the flag and notifying:
        // a scheduler that checked the flag before the store is now
        // either waiting (and gets the notify) or still holds the lock
        // (and re-checks after this acquire succeeds) — no lost wakeup.
        drop(self.queue.lock());
        self.queue_cv.notify_all();
        // Park every live job behind a final checkpoint so the next
        // daemon incarnation can resume it.
        if let Some(jobs) = &self.jobs {
            jobs.begin_drain();
        }
        // Poke the acceptor out of its blocking accept().
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        // Stop further intake at the socket level: idle connections see
        // EOF now instead of holding join() to the grace deadline.
        for stream in self.conn_streams.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (cache_hits, cache_misses, cache_entries, cache_capacity) = {
            let cache = self.cache.lock();
            (cache.hits(), cache.misses(), cache.len(), cache.capacity())
        };
        let uptime_s = self.start.elapsed().as_secs_f64();
        // ord: Relaxed — advisory stats counters; the snapshot needs no
        // cross-counter consistency.
        let completed = self.metrics.completed.load(Ordering::Relaxed);
        let received = self.metrics.received.load(Ordering::Relaxed);
        let errors = self.metrics.errors.load(Ordering::Relaxed);
        let busy = self.metrics.busy.load(Ordering::Relaxed);
        let coalesced = self.metrics.coalesced.load(Ordering::Relaxed);
        let batches = self.metrics.batches.load(Ordering::Relaxed);
        let max_batch = self.metrics.max_batch.load(Ordering::Relaxed);
        let evaluations = self.metrics.evaluations.load(Ordering::Relaxed);
        let unscanned_hits = self.metrics.unscanned_hits.load(Ordering::Relaxed);
        let jobs = self.jobs.as_ref().map(|j| j.counters()).unwrap_or_default();
        StatsSnapshot {
            uptime_s,
            received,
            completed,
            errors,
            busy,
            cache_hits,
            cache_misses,
            cache_entries,
            cache_capacity,
            cache_persisted: self.cache_persisted,
            unscanned_hits,
            known_lines: self.lines.len(),
            coalesced,
            batches,
            max_batch,
            evaluations,
            req_per_sec: completed as f64 / uptime_s.max(1e-9),
            jobs_started: jobs.started,
            jobs_completed: jobs.completed,
            jobs_failed: jobs.failed,
            jobs_resumed: jobs.resumed,
            jobs_active: jobs.active,
        }
    }
}

/// What a drained daemon reports on exit.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Schedule requests answered with a result.
    pub completed: u64,
    /// Schedule requests answered with an error.
    pub errors: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Cache hits / misses over the whole run.
    pub cache_hits: u64,
    /// Cache misses over the whole run.
    pub cache_misses: u64,
    /// In-batch duplicates served by one run.
    pub coalesced: u64,
    /// Portfolio batches executed.
    pub batches: u64,
    /// Total engine evaluations spent.
    pub evaluations: u64,
    /// Cache entries persisted to the `--corpus` store on drain.
    pub persisted: u64,
    /// Listener lifetime.
    pub uptime: Duration,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained cleanly: {} completed, {} errors, {} busy | cache {} hits / {} misses, \
             {} coalesced, {} persisted | {} batches, {} evaluations | uptime {:.2}s",
            self.completed,
            self.errors,
            self.busy,
            self.cache_hits,
            self.cache_misses,
            self.coalesced,
            self.persisted,
            self.batches,
            self.evaluations,
            self.uptime.as_secs_f64()
        )
    }
}

/// A running daemon: its bound address plus the join/shutdown handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    scheduler: JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain, as if a `shutdown` request arrived.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the drain to finish and returns the exit summary.
    /// Lingering connections are given `grace` to finish before the
    /// summary is returned anyway.
    pub fn join(self) -> ServeSummary {
        let _ = self.acceptor.join();
        let _ = self.scheduler.join();
        // Job workers were cancelled by the drain trigger; wait for their
        // final checkpoints to land before reporting.
        if let Some(jobs) = &self.shared.jobs {
            jobs.join_all();
        }
        let grace = Duration::from_secs(10);
        let deadline = Instant::now() + grace;
        let mut conns = self.shared.conns.lock();
        while *conns > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self.shared.conns_cv.wait_timeout(conns, left);
            conns = guard;
        }
        drop(conns);
        // Everything that could add cache entries has stopped: persist
        // the LRU into the corpus store (merged with whatever the file
        // already holds, atomically rewritten).
        let persisted = persist_corpus(&self.shared);
        let s = self.shared.snapshot();
        ServeSummary {
            completed: s.completed,
            errors: s.errors,
            busy: s.busy,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            coalesced: s.coalesced,
            batches: s.batches,
            evaluations: s.evaluations,
            persisted,
            uptime: self.shared.start.elapsed(),
        }
    }
}

/// Drain-time corpus persistence: load the existing store (preserving
/// its instances and checkpoints), upsert every live cache entry sorted
/// by digest (deterministic images), and atomically rewrite the file.
/// Returns how many cache entries were written; failures are reported
/// on stderr and drop the persistence, never the drain.
fn persist_corpus(shared: &Shared) -> u64 {
    let Some(path) = &shared.corpus else { return 0 };
    load_corpus(path).and_then(|builder| write_corpus(shared, builder, path)).unwrap_or_else(
        |line| {
            eprintln!("{line}");
            0
        },
    )
}

/// The corpus at `path` as a builder that holds no record body (a
/// missing file is an empty corpus), or the line that says why the
/// drain does not persist.
fn load_corpus(path: &Path) -> Result<StoreBuilder, String> {
    if !path.exists() {
        return Ok(StoreBuilder::new());
    }
    StoreReader::open_path(path).and_then(|mut r| r.to_builder()).map_err(|e| {
        format!("pacga serve: corpus {} unreadable at drain ({e}); not persisting", path.display())
    })
}

/// Upserts every live cache entry into `builder` in digest order and
/// writes the corpus to `path`. Each entry is encoded straight from the
/// cache under its lock, with no copy of the runs: by drain time nothing
/// else touches the cache. Returns the entries written, or the line that
/// says why the drain does not persist; the file is then left as it was.
fn write_corpus(shared: &Shared, mut builder: StoreBuilder, path: &Path) -> Result<u64, String> {
    let mut persisted = 0u64;
    {
        let cache = shared.cache.lock();
        let mut entries: Vec<(u64, &CachedRun)> = cache.entries().collect();
        entries.sort_unstable_by_key(|(d, _)| *d);
        for (digest, run) in entries {
            match builder.add_best(digest, run) {
                Ok(()) => persisted += 1,
                Err(e) => eprintln!(
                    "pacga serve: cache entry {digest:#018x} not persistable ({e}); skipped"
                ),
            }
        }
    }
    builder.write(path).map_err(|e| {
        format!("pacga serve: corpus write to {} failed ({e}); not persisting", path.display())
    })?;
    Ok(persisted)
}

/// Binds the listener and spawns the daemon threads.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers =
        if config.workers == 0 { resolve_workers(None, usize::MAX) } else { config.workers };
    // Opening the job manager runs the recovery pass: every job left
    // `queued`/`running`/`checkpointed` on disk is re-queued before the
    // listener answers its first request.
    let jobs = match &config.data_dir {
        Some(dir) => Some(JobManager::open(
            std::path::Path::new(dir),
            workers,
            config.checkpoint_gens,
            config.archive_keep_days,
        )?),
        None => None,
    };
    // Corpus warm-load: every persisted best-schedule record becomes a
    // live cache entry before the listener answers its first request, so
    // a previously-seen digest is a hit with zero engine evaluations. A
    // corrupt corpus fails the boot loudly; a missing file is a cold
    // start (the drain will create it).
    let mut cache = ScheduleCache::new(config.cache_cap);
    let mut cache_persisted = 0u64;
    if let Some(path) = config.corpus.as_ref().map(std::path::Path::new) {
        if path.exists() {
            let bests = StoreReader::open_path(path)
                .and_then(|mut r| r.bests())
                .map_err(|e| std::io::Error::other(format!("corpus {}: {e}", path.display())))?;
            for (digest, run) in bests {
                cache.insert(digest, run);
                cache_persisted += 1;
            }
        }
    }
    let shared = Arc::new(Shared {
        addr,
        workers,
        queue_cap: config.queue_cap,
        batch_max: config.batch_max.max(1),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Metrics::default(),
        cache: Mutex::new(cache),
        lines: SeenLines::new(config.cache_cap),
        conns: Mutex::new(0),
        conn_streams: Mutex::new(std::collections::HashMap::new()),
        next_conn: AtomicU64::new(0),
        conns_cv: Condvar::new(),
        jobs,
        data_dir: config.data_dir.as_ref().map(std::path::PathBuf::from),
        stream_names: Mutex::new(std::collections::HashSet::new()),
        corpus: config.corpus.as_ref().map(std::path::PathBuf::from),
        cache_persisted,
        start: Instant::now(),
    });

    let scheduler = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pacga-scheduler".into())
            .spawn(move || scheduler_loop(&shared))?
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pacga-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))?
    };
    Ok(ServerHandle { addr, shared, acceptor, scheduler })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // ord: Acquire — pairs with the AcqRel drain swap; seeing
                // the flag means the read-shutdown sweep is underway.
                if shared.shutdown.load(Ordering::Acquire) {
                    break; // the shutdown poke, or a late client
                }
                *shared.conns.lock() += 1;
                // ord: Relaxed — connection ids only need uniqueness.
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(read_half) = stream.try_clone() {
                    shared.conn_streams.lock().insert(conn_id, read_half);
                }
                // Registration raced a concurrent drain trigger: apply
                // the read-side shutdown this connection just missed.
                // ord: Relaxed — the conn_streams mutex (held by both the
                // insert above and the drain sweep) supplies the
                // ordering; the flag is a mere re-check.
                if shared.shutdown.load(Ordering::Relaxed) {
                    let _ = stream.shutdown(std::net::Shutdown::Read);
                }
                let conn_shared = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new().name("pacga-conn".into()).spawn(move || {
                        handle_connection(&conn_shared, stream);
                        conn_shared.conn_streams.lock().remove(&conn_id);
                        *conn_shared.conns.lock() -= 1;
                        conn_shared.conns_cv.notify_all();
                    });
                if spawned.is_err() {
                    // Thread exhaustion: undo the bookkeeping and drop
                    // the connection rather than wedge the acceptor.
                    shared.conn_streams.lock().remove(&conn_id);
                    *shared.conns.lock() -= 1;
                    shared.conns_cv.notify_all();
                }
            }
            Err(_) => {
                // ord: Relaxed — only the flag's own value matters here.
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    // The connection's schedule-stream session, if one is open. Sessions
    // are connection-local: the engine runs inline on this thread, so a
    // session never touches the batching queue or the worker pool.
    let mut session: Option<StreamSession> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let response = match std::str::from_utf8(without_line_end(&buf)) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                // One hash of the line serves the table's lookup and, on
                // the full path, its entry.
                let key = shared.lines.key(line);
                let known = key
                    .and_then(|key| shared.lines.get(key))
                    .and_then(|known| handle_known(shared, &known));
                match known {
                    Some(response) => response,
                    None => answer_line(shared, line, key, &mut session),
                }
            }
            // Answered like any line that does not decode; the
            // connection stays open.
            Err(e) => {
                Metrics::bump(&shared.metrics.errors);
                let message = format!("request line is not UTF-8 (byte {})", e.valid_up_to());
                Response::Error { id: None, message }
            }
        };
        let mut line = response.encode();
        line.push('\n');
        if writer.write_all(line.as_bytes()).and_then(|_| writer.flush()).is_err() {
            break;
        }
    }
    // Disconnect without a `stream.close`: suspend the session. Durable
    // sessions persist and stay resumable; anonymous ones are gone.
    if let Some(s) = session.take() {
        release_stream_name(shared, &s);
        s.suspend();
    }
}

/// `buf` without the `\n` or `\r\n` that ends it, as
/// [`BufRead::lines`] strips them.
fn without_line_end(buf: &[u8]) -> &[u8] {
    match buf.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => buf,
    }
}

/// Decodes `line` in full and answers it; `key` is its seen-line key.
fn answer_line(
    shared: &Arc<Shared>,
    line: &str,
    key: Option<LineKey>,
    session: &mut Option<StreamSession>,
) -> Response {
    match Request::decode(line) {
        Err(message) => {
            Metrics::bump(&shared.metrics.errors);
            Response::Error { id: None, message }
        }
        Ok(Request::Ping) => Response::Ok { message: "pong".into() },
        Ok(Request::Stats) => Response::Stats(Box::new(shared.snapshot())),
        Ok(Request::Shutdown) => {
            shared.trigger_shutdown();
            Response::Ok { message: "draining".into() }
        }
        Ok(Request::Schedule(request)) => handle_schedule(shared, *request, key),
        Ok(
            request @ (Request::JobStart(_)
            | Request::JobStatus { .. }
            | Request::JobLog { .. }
            | Request::JobStop { .. }
            | Request::JobArchive { .. }
            | Request::JobList),
        ) => answer_job(shared, request),
        Ok(Request::StreamOpen(request)) => handle_stream_open(shared, *request, session),
        Ok(Request::StreamEvent(request)) => match session.as_mut() {
            None => stream_error(shared, "no_session", "no open stream session", None),
            Some(s) => match s.handle_event(*request) {
                Ok(body) => Response::StreamResult(body),
                Err((code, message)) => {
                    let expected = Some(s.expected_seq());
                    stream_error(shared, &code, message, expected)
                }
            },
        },
        Ok(Request::StreamClose) => match session.take() {
            None => stream_error(shared, "no_session", "no open stream session", None),
            Some(s) => {
                release_stream_name(shared, &s);
                Response::StreamClosed(s.close())
            }
        },
    }
}

/// Answers one `schedule` request on its connection's thread: the
/// instance checks, the pool check and the digest run here, and so does
/// a cache hit. An inline matrix is checked and digested straight from
/// its decoded cells, so a hit builds no instance; once accepted, its
/// line enters the seen-line table under `key`. Only a miss resolves the
/// instance and goes through the queue to the scheduler thread.
fn handle_schedule(
    shared: &Arc<Shared>,
    request: ScheduleRequest,
    key: Option<LineKey>,
) -> Response {
    if let Some(busy) = drain_gate(shared) {
        return busy;
    }
    // Bad instances are answered immediately, never queued.
    let digest = match shared.lines.checked_digest(key, &request) {
        Ok(digest) => digest,
        Err(message) => return schedule_error(shared, request.id, message),
    };
    if let Some(response) = refusal_or_hit(shared, &request, digest) {
        return response;
    }
    // `checked_digest` ran the same checks, so this cannot fail; a
    // failure is still answered, never unwrapped.
    let instance = match request.resolve_instance() {
        Ok(instance) => instance,
        Err(message) => return schedule_error(shared, request.id, message),
    };
    match shared.try_enqueue(request, instance, digest) {
        Err(reason) => {
            Metrics::bump(&shared.metrics.busy);
            Response::Busy { reason }
        }
        Ok(rx) => rx.recv().unwrap_or_else(|_| {
            Metrics::bump(&shared.metrics.errors);
            Response::Error { id: None, message: "scheduler unavailable".into() }
        }),
    }
}

/// Answers a `schedule` line the seen-line table knew, if that takes no
/// matrix: the drain gate, the pool check and a cache hit run as in
/// [`handle_schedule`]. A miss is `None`, and the line takes the full
/// path.
fn handle_known(shared: &Arc<Shared>, known: &KnownSchedule) -> Option<Response> {
    if let Some(busy) = drain_gate(shared) {
        return Some(busy);
    }
    let response = refusal_or_hit(shared, &known.request, known.digest)?;
    if matches!(response, Response::Result { .. }) {
        Metrics::bump(&shared.metrics.unscanned_hits);
    }
    Some(response)
}

/// `busy` once the drain has begun.
fn drain_gate(shared: &Arc<Shared>) -> Option<Response> {
    // ord: Relaxed — advisory intake gate, same contract as the stream
    // gate: once the drain has begun, nothing new is answered, hit or
    // not. A request that slips past a concurrent drain is either a hit
    // (answered before the connection closes) or meets try_enqueue's
    // re-check under the queue mutex.
    if shared.shutdown.load(Ordering::Relaxed) {
        Metrics::bump(&shared.metrics.busy);
        return Some(Response::Busy { reason: "draining".into() });
    }
    None
}

/// After the digest: the pool check's error, or the answer to a cache
/// hit; `None` for a miss.
fn refusal_or_hit(
    shared: &Arc<Shared>,
    request: &ScheduleRequest,
    digest: u64,
) -> Option<Response> {
    // A request may not ask for more engine threads than the pool has
    // slots: the weight would clamp but the engine would still spawn
    // every thread, oversubscribing the host.
    if request.threads > shared.workers {
        let message = format!(
            "\"threads\" = {} exceeds the server's worker pool ({})",
            request.threads, shared.workers
        );
        return Some(schedule_error(shared, request.id.clone(), message));
    }
    // Hit-only lookup: a miss is counted by the scheduler's own lookup,
    // so every request is counted exactly once, as a hit or a miss.
    let run = shared.cache.lock().hit(digest)?;
    Metrics::bump(&shared.metrics.received);
    Metrics::bump(&shared.metrics.completed);
    Some(result_response(request, &request.instance_name(), run, true, false))
}

/// Counts and answers a `schedule` request refused before the queue.
fn schedule_error(shared: &Arc<Shared>, id: Option<String>, message: String) -> Response {
    Metrics::bump(&shared.metrics.errors);
    Response::Error { id, message }
}

/// Opens a stream session for this connection, enforcing the one-session
/// -per-connection and one-connection-per-named-session rules.
fn handle_stream_open(
    shared: &Arc<Shared>,
    request: StreamOpenRequest,
    session: &mut Option<StreamSession>,
) -> Response {
    if session.is_some() {
        return stream_error(
            shared,
            "session_exists",
            "this connection already has an open session; stream.close it first",
            None,
        );
    }
    // ord: Relaxed — advisory intake gate, same contract as try_enqueue;
    // a session that slips past a concurrent drain just finishes its
    // open and is torn down when the socket sees EOF.
    if shared.shutdown.load(Ordering::Relaxed) {
        Metrics::bump(&shared.metrics.busy);
        return Response::Busy { reason: "draining".into() };
    }
    // Reserve the durable name before touching disk so two connections
    // racing on one session cannot interleave writes.
    let reserved = match &request.session {
        None => None,
        Some(name) => {
            if !shared.stream_names.lock().insert(name.clone()) {
                return stream_error(
                    shared,
                    "session_busy",
                    format!("session {name:?} is open on another connection"),
                    None,
                );
            }
            Some(name.clone())
        }
    };
    match StreamSession::open(request, shared.data_dir.as_deref()) {
        Ok((s, body)) => {
            *session = Some(s);
            Response::StreamOpened(Box::new(body))
        }
        Err((code, message)) => {
            if let Some(name) = reserved {
                shared.stream_names.lock().remove(&name);
            }
            stream_error(shared, &code, message, None)
        }
    }
}

fn release_stream_name(shared: &Arc<Shared>, session: &StreamSession) {
    if let Some(name) = session.name() {
        shared.stream_names.lock().remove(name);
    }
}

fn stream_error(
    shared: &Arc<Shared>,
    code: &str,
    message: impl Into<String>,
    expected_seq: Option<u64>,
) -> Response {
    Metrics::bump(&shared.metrics.errors);
    Response::StreamError { code: code.into(), message: message.into(), expected_seq }
}

/// Answers a `job.*` request: an error unless the daemon was started
/// with `--data-dir`, else the verb's answer from the job manager.
fn answer_job(shared: &Arc<Shared>, request: Request) -> Response {
    let Some(jobs) = &shared.jobs else {
        return job_error(
            shared,
            "durable jobs are disabled; start the daemon with --data-dir".into(),
        );
    };
    let job_body = |body| Response::Job(Box::new(body));
    let answer = match request {
        Request::JobStart(request) => match jobs.start(*request) {
            Err(reason) if reason == "draining" => {
                Metrics::bump(&shared.metrics.busy);
                return Response::Busy { reason };
            }
            started => started.map(job_body),
        },
        Request::JobStatus { job } => jobs.status(&job).map(job_body),
        Request::JobLog { job, tail } => {
            jobs.log(&job, tail).map(|lines| Response::JobLog { job, lines })
        }
        Request::JobStop { job } => jobs.stop(&job).map(job_body),
        Request::JobArchive { job } => jobs.archive(&job).map(job_body),
        Request::JobList => Ok(Response::JobList { jobs: jobs.list() }),
        _ => Err("not a job request".into()),
    };
    answer.unwrap_or_else(|message| job_error(shared, message))
}

fn job_error(shared: &Arc<Shared>, message: String) -> Response {
    Metrics::bump(&shared.metrics.errors);
    Response::Error { id: None, message }
}

fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock();
            loop {
                if !queue.is_empty() {
                    let take = queue.len().min(shared.batch_max);
                    break queue.drain(..take).collect();
                }
                // ord: Relaxed — checked under the queue mutex; the
                // drain trigger bridges the same mutex before notifying,
                // so an empty queue + raised flag is a settled state.
                if shared.shutdown.load(Ordering::Relaxed) {
                    return; // drained: queue empty under the lock
                }
                queue = shared.queue_cv.wait(queue);
            }
        };
        let size = batch.len() as u64;
        Metrics::bump(&shared.metrics.batches);
        Metrics::raise(&shared.metrics.max_batch, size);
        process_batch(shared, batch);
    }
}

/// One coalesced unit of engine work: the first job with a given digest
/// owns the run; identical in-batch requests ride along. Each job keeps
/// its own resolved instance — the digest covers the matrix bytes, not
/// the label, so coalesced requests may have named the same data
/// differently and each response must echo its requester's name.
struct PendingRun {
    config: PaCgaConfig,
    owner: Job,
    riders: Vec<Job>,
}

fn process_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let mut pending: Vec<PendingRun> = Vec::new();

    for job in batch {
        // Counting lookup: the handler's hit-only lookup missed, but a
        // run that finished since then may have filled the entry.
        let hit = shared.cache.lock().get(job.digest);
        if let Some(run) = hit {
            Metrics::bump(&shared.metrics.completed);
            let _ = job.reply.send(result_response(
                &job.request,
                job.instance.name(),
                run,
                true,
                false,
            ));
            continue;
        }

        // Coalesce: identical request already pending in THIS batch.
        if let Some(p) = pending.iter_mut().find(|p| p.owner.digest == job.digest) {
            p.riders.push(job);
            continue;
        }
        let config = job.request.build_config();
        pending.push(PendingRun { config, owner: job, riders: Vec::new() });
    }

    if pending.is_empty() {
        return;
    }

    // One portfolio submission for the whole batch. Weights are the
    // per-request engine thread counts, so a batch of 4-thread requests
    // on a `--workers 4` pool executes one at a time instead of
    // thrashing 16 threads.
    let mut portfolio = Portfolio::new().with_workers(shared.workers);
    for (i, p) in pending.iter().enumerate() {
        let instance = &p.owner.instance;
        let config = p.config.clone();
        let weight = p.config.threads;
        portfolio.push(
            RunSpec::new(format!("req{}/{}", i, instance.name()), move || {
                PaCga::new(instance, config.clone()).run()
            })
            .with_weight(weight),
        );
    }
    let report = portfolio.execute();

    for (p, result) in pending.iter().zip(report.results) {
        let jobs = std::iter::once(&p.owner).chain(&p.riders);
        match result {
            Err(panic) => {
                for job in jobs {
                    Metrics::bump(&shared.metrics.errors);
                    let _ = job.reply.send(Response::Error {
                        id: job.request.id.clone(),
                        message: format!("engine failed: {panic}"),
                    });
                }
            }
            Ok(outcome) => {
                let run = cached_run(&p.owner.instance, &outcome);
                Metrics::add(&shared.metrics.evaluations, outcome.evaluations);
                shared.cache.lock().insert(p.owner.digest, run.clone());
                for (k, job) in jobs.enumerate() {
                    Metrics::bump(&shared.metrics.completed);
                    if k > 0 {
                        Metrics::bump(&shared.metrics.coalesced);
                    }
                    let _ = job.reply.send(result_response(
                        &job.request,
                        job.instance.name(),
                        run.clone(),
                        false,
                        k > 0,
                    ));
                }
            }
        }
    }
}

fn cached_run(instance: &EtcInstance, outcome: &RunOutcome) -> CachedRun {
    CachedRun {
        instance: instance.name().to_string(),
        n_tasks: instance.n_tasks(),
        n_machines: instance.n_machines(),
        makespan: outcome.best.makespan(),
        evaluations: outcome.evaluations,
        engine_ms: outcome.elapsed.as_secs_f64() * 1e3,
        assignment: outcome.best.schedule.assignment().to_vec(),
    }
}

/// `instance_name` is the REQUESTING job's resolved name, not the
/// cached run's: the digest ignores labels, so a cache/coalesce answer
/// may have been computed under a different name than this client used.
/// The answer takes `run`'s assignment, not a copy of it.
fn result_response(
    request: &ScheduleRequest,
    instance_name: &str,
    run: CachedRun,
    cached: bool,
    coalesced: bool,
) -> Response {
    Response::Result {
        id: request.id.clone(),
        instance: instance_name.to_string(),
        n_tasks: run.n_tasks,
        n_machines: run.n_machines,
        makespan: run.makespan,
        evaluations: run.evaluations,
        engine_ms: run.engine_ms,
        cached,
        coalesced,
        assignment: request.include_assignment.then_some(run.assignment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(config: ServeConfig) -> ServerHandle {
        serve(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).expect("bind loopback")
    }

    /// A schedule request as its handler would queue it.
    fn toy_miss() -> (ScheduleRequest, EtcInstance, u64) {
        let request = match Request::decode(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":50}"#)
            .unwrap()
        {
            Request::Schedule(r) => *r,
            _ => unreachable!(),
        };
        let instance = request.resolve_instance().unwrap();
        let digest = request.digest(&instance);
        (request, instance, digest)
    }

    #[test]
    fn binds_ephemeral_port_and_drains() {
        let handle = local(ServeConfig::default());
        assert_ne!(handle.addr().port(), 0);
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.completed, 0);
        assert!(summary.to_string().contains("drained cleanly"));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let handle = local(ServeConfig::default());
        handle.shutdown();
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn zero_queue_cap_rejects_everything() {
        let handle = local(ServeConfig { queue_cap: 0, ..ServeConfig::default() });
        let (request, instance, digest) = toy_miss();
        let err = handle.shared.try_enqueue(request, instance, digest).unwrap_err();
        assert_eq!(err, "queue full");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn corpus_round_trips_cache_across_restarts() {
        let dir = std::env::temp_dir().join(format!("pacga-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("t.pacst");
        let config = ServeConfig {
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };

        // Daemon 1: cold start (no file yet), one cache entry, drain.
        let handle = local(config.clone());
        let run = CachedRun {
            instance: "toy_4x2".into(),
            n_tasks: 4,
            n_machines: 2,
            makespan: 9.5,
            evaluations: 123,
            engine_ms: 1.5,
            assignment: vec![0, 1, 1, 0],
        };
        handle.shared.cache.lock().insert(42, run.clone());
        assert_eq!(handle.shared.snapshot().cache_persisted, 0, "cold start");
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.persisted, 1);
        assert!(summary.to_string().contains("1 persisted"));

        // Daemon 2: warm-loads the record before serving.
        let handle = local(config);
        assert_eq!(handle.shared.snapshot().cache_persisted, 1);
        assert_eq!(handle.shared.cache.lock().get(42).as_ref(), Some(&run));
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_carries_stored_records_through() {
        use crate::client::Client;
        use crate::json::Json;
        use crate::store::{SECTION_CHECKPOINTS, SECTION_INSTANCES};

        let dir = std::env::temp_dir().join(format!("pacga-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("d.pacst");
        let mut input = StoreBuilder::new();
        input.add_instance(&EtcInstance::toy(6, 3)).unwrap();
        input.add_instance(&EtcInstance::toy(4, 2)).unwrap();
        input.add_checkpoint("job-1", b"pacga-checkpoint v2 opaque payload").unwrap();
        for tag in 0..3u32 {
            let run = CachedRun {
                instance: format!("archived-{tag}"),
                n_tasks: 4,
                n_machines: 2,
                makespan: 10.0 + f64::from(tag),
                evaluations: 100,
                engine_ms: 0.5,
                assignment: vec![tag % 2, 1, 0, 1],
            };
            input.add_best(0x5EED_0000 + u64::from(tag), &run).unwrap();
        }
        input.write(&corpus).unwrap();
        let before = std::fs::read(&corpus).unwrap();

        let handle = local(ServeConfig {
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let line =
            r#"{"type":"schedule","etc":[[1,2],[2,1],[3,1]],"evals":400,"seed":11,"threads":1}"#;
        let reply = client.request(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false), "{reply:?}");
        client.shutdown().unwrap();
        assert_eq!(handle.join().persisted, 4, "three archived bests and the miss");
        let after = std::fs::read(&corpus).unwrap();

        // The oracle: the input scanned and re-added, then the cache's
        // entries upserted in digest order, as the drain does.
        let mut r = StoreReader::open(std::io::Cursor::new(before.clone())).unwrap();
        let mut oracle = StoreBuilder::new();
        for instance in r.instances().unwrap() {
            oracle.add_instance(&instance).unwrap();
        }
        for (digest, run) in r.bests().unwrap() {
            oracle.add_best(digest, &run).unwrap();
        }
        for (name, payload) in r.checkpoints().unwrap() {
            oracle.add_checkpoint(&name, &payload).unwrap();
        }
        let mut drained = StoreReader::open(std::io::Cursor::new(after.clone())).unwrap();
        let mut cached = drained.bests().unwrap();
        cached.sort_by_key(|(d, _)| *d);
        let fresh: Vec<_> = cached.iter().filter(|(d, _)| d >> 16 != 0x5EED).collect();
        assert_eq!(fresh.len(), 1, "one new best");
        assert_eq!(reply.get("makespan").and_then(Json::as_f64), Some(fresh[0].1.makespan));
        for (digest, run) in &cached {
            oracle.add_best(*digest, run).unwrap();
        }
        assert!(after == oracle.encode(), "drained file differs from the oracle merge");

        let section = |bytes: &[u8], kind: u32| {
            let r = StoreReader::open(std::io::Cursor::new(bytes.to_vec())).unwrap();
            let s = *r.sections().iter().find(|s| s.kind == kind).unwrap();
            bytes[s.offset as usize..(s.offset + s.len) as usize].to_vec()
        };
        for kind in [SECTION_INSTANCES, SECTION_CHECKPOINTS] {
            assert!(section(&before, kind) == section(&after, kind), "section {kind} changed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_that_finds_a_changed_record_does_not_persist() {
        use crate::store::SECTION_INSTANCES;
        use std::io::{Seek, SeekFrom};

        let dir = std::env::temp_dir().join(format!("pacga-changed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("c.pacst");
        let mut input = StoreBuilder::new();
        input.add_instance(&EtcInstance::toy(6, 3)).unwrap();
        input.write(&corpus).unwrap();
        let handle = local(ServeConfig {
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let (_, instance, digest) = toy_miss();
        let run = CachedRun {
            instance: instance.name().to_string(),
            n_tasks: 2,
            n_machines: 2,
            makespan: 2.0,
            evaluations: 50,
            engine_ms: 0.5,
            assignment: vec![0, 1],
        };
        handle.shared.cache.lock().insert(digest, run);

        // The drain's two passes with the stored instance body changed
        // between them: the write finds it and the old file stays.
        let builder = load_corpus(&corpus).unwrap();
        let instances = StoreReader::open_path(&corpus)
            .unwrap()
            .sections()
            .iter()
            .find(|s| s.kind == SECTION_INSTANCES)
            .map(|s| s.offset)
            .unwrap();
        let body_byte = instances + 8 + 8 + 20;
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(&corpus).unwrap();
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(body_byte)).unwrap();
        std::io::Read::read_exact(&mut file, &mut byte).unwrap();
        file.seek(SeekFrom::Start(body_byte)).unwrap();
        file.write_all(&[byte[0] ^ 0x10]).unwrap();
        drop(file);
        let changed = std::fs::read(&corpus).unwrap();
        let line = write_corpus(&handle.shared, builder, &corpus).unwrap_err();
        assert!(line.contains("CRC mismatch in instance record"), "{line}");
        assert!(line.ends_with("; not persisting"), "{line}");
        assert!(std::fs::read(&corpus).unwrap() == changed, "a failed write kept the old file");
        assert!(!dir.join("c.tmp").exists(), "a failed write removed its temp file");

        // The daemon's own drain now meets the damage on its read pass:
        // nothing persists, and the daemon still exits cleanly.
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.persisted, 0);
        assert!(summary.to_string().contains("drained cleanly"), "{summary}");
        assert!(std::fs::read(&corpus).unwrap() == changed, "the drain kept the old file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_corpus_fails_boot_loudly() {
        let dir = std::env::temp_dir().join(format!("pacga-badcorpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("bad.pacst");
        std::fs::write(&corpus, b"not a pacst file at all").unwrap();
        let err = match serve(ServeConfig {
            addr: "127.0.0.1:0".into(),
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("corrupt corpus must fail the boot"),
        };
        assert!(err.to_string().contains("bad.pacst"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enqueue_after_shutdown_reports_draining() {
        let handle = local(ServeConfig::default());
        handle.shutdown();
        let (request, instance, digest) = toy_miss();
        let err = handle.shared.try_enqueue(request, instance, digest).unwrap_err();
        assert_eq!(err, "draining");
        handle.join();
    }
}
