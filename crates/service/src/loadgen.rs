//! The `pacga bench-serve` load generator: N client threads hammer a
//! running daemon over loopback, each sending M schedule requests
//! back-to-back, then the report aggregates throughput, latency
//! percentiles ([`pa_cga_stats::LatencySummary`]) and the server's own
//! cache counters.
//!
//! Requests cycle through `distinct` generator-spec shapes shared by
//! every client, so with `requests >= 2 * distinct` the run is also a
//! cache demonstration: the first cycle misses (or coalesces onto an
//! in-flight batch), later cycles hit.

use crate::client::{Client, ClientError, RetryPolicy, RobustClient};
use crate::json::Json;
use pa_cga_stats::LatencySummary;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Load-generator configuration (the `pacga bench-serve` flags).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Engine evaluation budget per request (small = protocol-bound,
    /// large = engine-bound).
    pub evals: u64,
    /// Base seed for the request shapes (deterministic load).
    pub seed: u64,
    /// Distinct request shapes cycled by every client.
    pub distinct: usize,
    /// Tasks per generated instance (the paper's benchmark is 512; the
    /// scaling mixes go to 4096).
    pub tasks: usize,
    /// Machines per generated instance (up to 64 in the scaling mixes).
    pub machines: usize,
    /// Send `shutdown` after the load and wait for the drain ack.
    pub shutdown_after: bool,
    /// Socket read/write timeout in milliseconds (0 = block forever).
    pub timeout_ms: u64,
    /// Transient-failure retries per request (`busy` + connection
    /// resets), exponential backoff; 0 disables retrying.
    pub retries: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7413".into(),
            clients: 4,
            requests: 25,
            evals: 1_000,
            seed: 0,
            distinct: 4,
            tasks: 64,
            machines: 8,
            shutdown_after: false,
            timeout_ms: 0,
            retries: 0,
        }
    }
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `result` responses received.
    pub ok: u64,
    /// Of those, answered from the server cache.
    pub cached: u64,
    /// Of those, coalesced onto an identical in-batch run.
    pub coalesced: u64,
    /// `busy` responses received.
    pub busy: u64,
    /// `error` responses received.
    pub errors: u64,
    /// Transient-failure retries performed (reported separately: a
    /// retried-then-served request counts once in `ok` and here).
    pub retries: u64,
    /// Wall clock of the whole load phase.
    pub elapsed: Duration,
    /// Completed-request throughput.
    pub req_per_sec: f64,
    /// Per-request round-trip latency profile; `None` when no request
    /// completed a round trip (nothing was measured — a fabricated
    /// all-zero profile would read as a real measurement).
    pub latency: Option<LatencySummary>,
    /// The server's `stats` snapshot taken right after the load.
    pub server_stats: Option<Json>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests : {} ok ({} cached, {} coalesced), {} busy, {} errors, {} retries",
            self.ok, self.cached, self.coalesced, self.busy, self.errors, self.retries
        )?;
        writeln!(
            f,
            "throughput: {:.1} req/s over {:.2}s",
            self.req_per_sec,
            self.elapsed.as_secs_f64()
        )?;
        match &self.latency {
            Some(latency) => writeln!(f, "latency  : {latency}")?,
            None => writeln!(f, "latency  : no samples (no request completed)")?,
        }
        if let Some(stats) = &self.server_stats {
            let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
            writeln!(
                f,
                "server   : cache {} hits / {} misses ({} entries), {} unscanned hits \
                 ({} known lines), {} batches (max {}), {} evaluations",
                n("cache_hits"),
                n("cache_misses"),
                n("cache_entries"),
                n("unscanned_hits"),
                n("known_lines"),
                n("batches"),
                n("max_batch"),
                n("evaluations"),
            )?;
        }
        Ok(())
    }
}

/// The request line for shape `k` of a run seeded with `seed`: a
/// generator-spec instance of the configured dimensions, so the daemon
/// exercises `etc_model` decoding and the cache digest end-to-end. The
/// default 64×8 keeps the protocol-bound smoke cheap; `--tasks 4096
/// --machines 64` turns the same mix into the large-instance scaling
/// demo.
fn request_shape(k: usize, config: &LoadConfig) -> Json {
    let consistency = match k % 3 {
        0 => "i",
        1 => "c",
        _ => "s",
    };
    Json::obj(vec![
        ("type", Json::str("schedule")),
        ("id", Json::str(format!("load-{k}"))),
        (
            "etc_model",
            Json::obj(vec![
                ("tasks", Json::num(config.tasks.max(1) as f64)),
                ("machines", Json::num(config.machines.max(1) as f64)),
                ("consistency", Json::str(consistency)),
                ("task_het", Json::str(if k.is_multiple_of(2) { "hi" } else { "lo" })),
                ("machine_het", Json::str("hi")),
                ("seed", Json::num((config.seed + k as u64) as f64)),
            ]),
        ),
        ("evals", Json::num(config.evals as f64)),
        ("seed", Json::num(config.seed as f64)),
        ("ls", Json::num(2.0)),
    ])
}

#[derive(Default)]
struct Tally {
    ok: u64,
    cached: u64,
    coalesced: u64,
    busy: u64,
    errors: u64,
    retries: u64,
    latencies_ms: Vec<f64>,
}

/// Runs the load and gathers the report. Fails only on connection-level
/// problems; protocol-level `busy`/`error` responses are tallied.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, ClientError> {
    assert!(config.clients > 0 && config.requests > 0, "need clients and requests");
    // Fail fast (and wait for daemon readiness) before spawning threads.
    Client::connect_retry(config.addr.as_str(), Duration::from_secs(10))?.ping()?;

    let tallies: Mutex<Vec<Tally>> = Mutex::new(Vec::new());
    let start = Instant::now();

    std::thread::scope(|scope| {
        for c in 0..config.clients {
            let tallies = &tallies;
            scope.spawn(move || {
                let mut tally = Tally::default();
                let timeout =
                    (config.timeout_ms > 0).then(|| Duration::from_millis(config.timeout_ms));
                let policy = RetryPolicy { attempts: config.retries, ..RetryPolicy::default() };
                let mut client = RobustClient::new(config.addr.as_str(), timeout, policy);
                for i in 0..config.requests {
                    let shape = (c + i) % config.distinct.max(1);
                    let request = request_shape(shape, config);
                    let sent = Instant::now();
                    match client.request(&request) {
                        Err(_) => tally.errors += 1,
                        Ok(v) => {
                            tally.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                            match v.get("type").and_then(Json::as_str) {
                                Some("result") => {
                                    tally.ok += 1;
                                    if v.get("cached").and_then(Json::as_bool) == Some(true) {
                                        tally.cached += 1;
                                    }
                                    if v.get("coalesced").and_then(Json::as_bool) == Some(true) {
                                        tally.coalesced += 1;
                                    }
                                }
                                Some("busy") => tally.busy += 1,
                                _ => tally.errors += 1,
                            }
                        }
                    }
                }
                tally.retries = client.retries();
                tallies.lock().push(tally);
            });
        }
    });
    let elapsed = start.elapsed();

    let tallies = tallies.into_inner();
    let mut ok = 0;
    let mut cached = 0;
    let mut coalesced = 0;
    let mut busy = 0;
    let mut errors = 0;
    let mut retries = 0;
    let mut latencies = Vec::new();
    for t in tallies {
        ok += t.ok;
        cached += t.cached;
        coalesced += t.coalesced;
        busy += t.busy;
        errors += t.errors;
        retries += t.retries;
        latencies.extend(t.latencies_ms);
    }

    let mut tail = Client::connect(config.addr.as_str())?;
    let server_stats = tail.stats().ok();
    if config.shutdown_after {
        tail.shutdown()?;
    }

    let latency =
        if latencies.is_empty() { None } else { Some(LatencySummary::from_millis(&latencies)) };
    Ok(LoadReport {
        ok,
        cached,
        coalesced,
        busy,
        errors,
        retries,
        elapsed,
        req_per_sec: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        latency,
        server_stats,
    })
}
