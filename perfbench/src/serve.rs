//! `serve-mix`: one daemon (`--workers 2`, `--corpus` a fresh copy of a
//! seed-built `.pacst` image) under a closed loop of two client
//! connections. Each client owns its request shapes (inline 512×16
//! matrices, one thread, 20k evals, `assignment: true`); each shape is
//! sent once as a miss, then [`HITS`] times as a hit. Misses go out one
//! at a time (client 0, then client 1) so no miss queues behind another
//! client's engine run; hits from both clients go out concurrently. The
//! run ends with `shutdown` and a timed drain that merges and rewrites
//! the corpus.

use crate::gen::{assignment_of, makespan_of, same_makespan, wire_instance, InputDigest, Rng};
use crate::layers::{archive_record, engine_counts, schedule_line};
use crate::report::Outcome;
use crate::stats::{answer_failure, geomean, median, percentile, HitMiss, Tally};
use crate::sys::{ms, secs, Daemon, DaemonArgs, RunDir};
use crate::trace::Tracer;
use etc_model::{Consistency, EtcGenerator, EtcInstance, GeneratorParams, Heterogeneity};
use pa_cga_core::engine::PaCga;
use pa_cga_core::runner::{Portfolio, RunSpec};
use pa_cga_core::RunOutcome;
use pa_cga_service::cache::{CachedRun, ScheduleCache};
use pa_cga_service::protocol::{Request, Response};
use pa_cga_service::{Client, Json, StoreBuilder, StoreReader};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections.
const CLIENTS: usize = 2;
/// Hits per shape, after its one miss.
const HITS: usize = 16;
/// Evaluation budget per request.
const EVALS: u64 = 20_000;
/// Best records in the corpus that no request asks for.
const ARCHIVE: u64 = 1024;
/// Daemon boots per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Shapes each client owns: enough misses for a p90 (≥ 100 in all),
/// scaled so a run lasts about `seconds` on a 2-core host.
fn shapes_per_client(seconds: u64) -> usize {
    (seconds as usize * 3).max(50)
}

struct Shape {
    id: String,
    line: String,
    instance: EtcInstance,
    min_min: f64,
}

struct Inputs {
    /// `shapes[client][k]`.
    shapes: Vec<Vec<Shape>>,
    corpus: StoreBuilder,
}

fn inputs(seed: u64, seconds: u64, out: &mut Outcome) -> Result<Inputs, String> {
    let mut digest = InputDigest::default();
    let mut rng = Rng::new(seed, 2);
    let per_client = shapes_per_client(seconds);
    let mut shapes = Vec::new();
    for c in 0..CLIENTS {
        let mut own = Vec::new();
        for k in 0..per_client {
            let id = format!("c{c}-s{k}");
            let instance = wire_instance(&mut rng, k, format!("shape-{id}"), 512, 16);
            let line = schedule_line(&id, &instance, EVALS, rng.wire_seed());
            digest.add(line.as_bytes());
            let min_min = heuristics::min_min(&instance).makespan();
            own.push(Shape { id, line, instance, min_min });
        }
        shapes.push(own);
    }
    let mut corpus = StoreBuilder::new();
    for name in etc_model::braun_instance_names() {
        corpus.add_instance(&etc_model::braun_instance(name)).map_err(|e| e.to_string())?;
    }
    for (k, consistency) in
        [Consistency::Consistent, Consistency::SemiConsistent, Consistency::Inconsistent]
            .into_iter()
            .enumerate()
    {
        let params = GeneratorParams {
            n_tasks: 4096,
            n_machines: 64,
            task_heterogeneity: Heterogeneity::High,
            machine_heterogeneity: Heterogeneity::High,
            consistency,
            seed: rng.next_u64(),
        };
        corpus
            .add_instance(&EtcGenerator::new(params).generate_named(format!("large-{k}.4096x64")))
            .map_err(|e| e.to_string())?;
    }
    for k in 0..ARCHIVE {
        corpus.add_best(rng.next_u64(), &archive_record(&mut rng, k)).map_err(|e| e.to_string())?;
    }
    digest.add(&corpus.encode());
    out.note(format!(
        "inputs: {CLIENTS} clients x {per_client} shapes (512x16 inline, ~{} KB/request), 1 miss + {HITS} hits each, corpus {} instances + {ARCHIVE} archived bests, digest {}",
        shapes[0][0].line.len() / 1000,
        corpus.instance_count(),
        digest.hex()
    ));
    Ok(Inputs { shapes, corpus })
}

/// One answered request, after every output check passed.
struct Answer {
    cached: bool,
    makespan: f64,
    evaluations: u64,
}

/// Checks a `schedule` answer against the request's own instance copy.
fn check(reply: &str, shape: &Shape, expect_cached: bool) -> Result<Answer, String> {
    let v = Json::parse(reply).map_err(|e| format!("unparseable answer: {e}"))?;
    if let Some(why) = answer_failure(v.get("type").and_then(Json::as_str).unwrap_or("?")) {
        return Err(why);
    }
    if v.get("id").and_then(Json::as_str) != Some(shape.id.as_str()) {
        return Err("id not echoed".into());
    }
    let cached = v.get("cached").and_then(Json::as_bool).ok_or("no cached flag")?;
    if cached != expect_cached {
        return Err(format!("cached = {cached} where the design expects {expect_cached}"));
    }
    if v.get("coalesced").and_then(Json::as_bool) != Some(false) {
        return Err("answer coalesced".into());
    }
    let makespan = v.get("makespan").and_then(Json::as_f64).ok_or("no makespan")?;
    let assignment = assignment_of(&v)?;
    let recomputed = makespan_of(&shape.instance, &assignment)
        .map_err(|e| format!("invalid assignment: {e}"))?;
    if !same_makespan(makespan, recomputed) {
        return Err(format!("reported makespan {makespan} != recomputed {recomputed}"));
    }
    let evaluations = v.get("evaluations").and_then(Json::as_u64).ok_or("no evaluations")?;
    if evaluations < EVALS {
        return Err(format!("{evaluations} evaluations of a {EVALS} budget"));
    }
    Ok(Answer { cached, makespan, evaluations })
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latency: HitMiss,
    tally: Tally,
    ratios: Vec<f64>,
    miss_evals: u64,
    miss_s: f64,
}

impl ClientLog {
    fn exchange(&mut self, client: &mut Client, shape: &Shape, expect_cached: bool) {
        let t = Instant::now();
        let reply = client.send_line(&shape.line).map_err(|e| format!("request failed: {e}"));
        let dt = t.elapsed();
        let checked = reply.and_then(|r| check(&r, shape, expect_cached));
        let why = checked.as_ref().err().cloned();
        if self.tally.record(why) {
            if let Ok(a) = checked {
                self.latency.record(a.cached, ms(dt));
                self.ratios.push(a.makespan / shape.min_min);
                if !a.cached {
                    self.miss_evals += a.evaluations;
                    self.miss_s += dt.as_secs_f64();
                }
            }
        }
    }
}

/// The closed loop of one client: per round, its miss in turn, then its
/// hits concurrently with the other client's.
fn client_loop(c: usize, client: &mut Client, shapes: &[Shape], barrier: &Barrier) -> ClientLog {
    let mut log = ClientLog::default();
    for shape in shapes {
        for turn in 0..CLIENTS {
            barrier.wait();
            if turn == c {
                log.exchange(client, shape, false);
            }
        }
        barrier.wait();
        for _ in 0..HITS {
            log.exchange(client, shape, true);
        }
    }
    log
}

/// Socket-side facts the traced run reuses.
#[derive(Default)]
struct SocketRun {
    latency: HitMiss,
    stats: Option<Json>,
    drain_ms: f64,
    total_ms: f64,
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with_timeout(addr, Some(TIMEOUT)).map_err(|e| format!("connect {addr}: {e}"))
}

fn socket_run(seed: u64, seconds: u64, out: &mut Outcome) -> Result<SocketRun, String> {
    let inp = inputs(seed, seconds, out)?;
    let dir = RunDir::new("serve-mix").map_err(|e| format!("run dir: {e}"))?;
    let corpus = dir.path().join("corpus.pacst");
    inp.corpus.write(&corpus).map_err(|e| format!("corpus copy: {e}"))?;
    let per_client = inp.shapes[0].len() as u64;
    let args = DaemonArgs {
        workers: 2,
        cache_cap: (ARCHIVE + 2 * per_client) as usize + 64,
        corpus: Some(corpus.clone()),
        data_dir: None,
    };

    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let t = Instant::now();
        let daemon = Daemon::spawn(&args)?;
        let clients = (0..CLIENTS).map(|_| connect(&daemon.addr)).collect::<Result<Vec<_>, _>>();
        setups.push(secs(t));
        let clients = match clients {
            Ok(c) => c,
            Err(e) => {
                daemon.kill();
                return Err(e);
            }
        };
        if k + 1 < SETUP_REPEATS {
            drop(clients);
            daemon.kill();
        } else {
            live = Some((daemon, clients));
        }
    }
    let (daemon, mut clients) = live.ok_or("no daemon")?;
    out.set("setup_s", median(&setups));

    let start = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&inp.shapes)
            .enumerate()
            .map(|(c, (client, shapes))| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(c, client, shapes, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.tally.record(Some("client thread panicked".into()));
                    log
                })
            })
            .collect()
    });
    let total_ms = ms(start.elapsed());

    let mut run = SocketRun { total_ms, ..SocketRun::default() };
    let (mut ratios, mut miss_evals, mut miss_s) = (Vec::new(), 0u64, 0.0);
    for log in logs {
        run.latency.extend(log.latency);
        out.tally.extend(log.tally);
        ratios.extend(log.ratios);
        miss_evals += log.miss_evals;
        miss_s += log.miss_s;
    }

    let expect_misses = CLIENTS as u64 * per_client;
    let expect_hits = expect_misses * HITS as u64;
    let stats = clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    for (key, want) in [
        ("cache_hits", expect_hits),
        ("cache_misses", expect_misses),
        ("coalesced", 0),
        ("busy", 0),
        ("errors", 0),
        ("completed", expect_hits + expect_misses),
    ] {
        if stat(&stats, key) != want {
            out.fail(format!(
                "stats {key} = {} where the design expects {want}",
                stat(&stats, key)
            ));
        }
    }
    run.stats = Some(stats);

    clients.truncate(1);
    let t = Instant::now();
    let drained = clients[0].shutdown().map_err(|e| format!("shutdown: {e}"));
    drop(clients);
    let exit = daemon.join()?;
    run.drain_ms = ms(t.elapsed());
    drained?;
    let expect_persisted = ARCHIVE + expect_misses;
    if exit.persisted != expect_persisted {
        out.fail(format!(
            "drain persisted {} records, expected {expect_persisted}",
            exit.persisted
        ));
    }
    match StoreReader::open_path(&corpus).map(|r| r.best_count()) {
        Ok(n) if n == expect_persisted => {}
        other => {
            out.fail(format!("drained corpus holds {other:?} bests, expected {expect_persisted}"))
        }
    }

    let hit = &run.latency.hit;
    let miss = &run.latency.miss;
    out.note(format!(
        "hits p50 {:.3} ms p90 {:.3} ms (n={}), misses p50 {:.1} ms p90 {:.1} ms (n={}), drain {:.1} ms, fail_ratio {}",
        percentile(hit, 50.0).unwrap_or(f64::NAN),
        percentile(hit, 90.0).unwrap_or(f64::NAN),
        hit.len(),
        percentile(miss, 50.0).unwrap_or(f64::NAN),
        percentile(miss, 90.0).unwrap_or(f64::NAN),
        miss.len(),
        run.drain_ms,
        out.tally.fail_ratio()
    ));
    out.note(format!("daemon: --workers 2, {} corpus records persisted on drain", exit.persisted));
    out.set("peak_rss_mb", exit.peak_rss_mb);
    out.set("makespan_ratio", geomean(&ratios));
    out.set("evals_per_s", miss_evals as f64 / miss_s);
    out.set_pct("op_p90_ms", percentile(hit, 90.0), hit.len());
    Ok(run)
}

/// The untraced end-to-end run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = socket_run(seed, seconds, &mut out) {
        out.fail(e);
    }
    out
}

/// In-process replay of the same requests, in the same order, through
/// the calls the daemon makes: decode, resolve, digest, cache, portfolio
/// execute, encode; plus the store's boot read and drain write. Returns
/// the replay's wall time in ms.
fn replay(
    tracer: &Tracer,
    inp: &Inputs,
    dir: &Path,
    engine: &mut Vec<(RunOutcome, f64)>,
) -> Result<f64, String> {
    let corpus = dir.join("replay.pacst");
    inp.corpus.write(&corpus).map_err(|e| format!("corpus copy: {e}"))?;
    let start = Instant::now();
    let mut cache = ScheduleCache::new(usize::MAX);
    tracer.next_op();
    let bests = tracer.span("store.boot_read", || {
        let mut reader = tracer.span("store.open", || StoreReader::open_path(&corpus))?;
        tracer.span("store.bests", || reader.bests())
    });
    for (digest, run) in bests.map_err(|e| e.to_string())? {
        cache.insert(digest, run);
    }
    let per_client = inp.shapes[0].len();
    let mut serve = |shape: &Shape| -> Result<(), String> {
        tracer.next_op();
        let request = match tracer.span("proto.decode", || Request::decode(&shape.line))? {
            Request::Schedule(r) => r,
            _ => return Err("not a schedule request".into()),
        };
        let instance = tracer.span("proto.resolve", || request.resolve_instance())?;
        let digest = tracer.span("proto.digest", || request.digest(&instance));
        let (run, cached) = match tracer.span("cache.get", || cache.get(digest)) {
            Some(run) => (run, true),
            None => {
                let config = request.build_config();
                let report = tracer.span("runner.execute", || {
                    let mut portfolio = Portfolio::new().with_workers(1);
                    portfolio.push(RunSpec::new("replay", || {
                        PaCga::new(&instance, config.clone()).run()
                    }));
                    let t = Instant::now();
                    let report = portfolio.execute();
                    (report, ms(t.elapsed()))
                });
                let (report, execute_ms) = report;
                let outcome = report.expect_outcomes().pop().ok_or("no outcome")?;
                let run = CachedRun {
                    instance: instance.name().to_string(),
                    n_tasks: instance.n_tasks(),
                    n_machines: instance.n_machines(),
                    makespan: outcome.best.makespan(),
                    evaluations: outcome.evaluations,
                    engine_ms: ms(outcome.elapsed),
                    assignment: outcome.best.schedule.assignment().to_vec(),
                };
                tracer.span("cache.insert", || cache.insert(digest, run.clone()));
                engine.push((outcome, execute_ms));
                (run, false)
            }
        };
        tracer.span("proto.encode", || {
            Response::Result {
                id: request.id.clone(),
                instance: instance.name().to_string(),
                n_tasks: run.n_tasks,
                n_machines: run.n_machines,
                makespan: run.makespan,
                evaluations: run.evaluations,
                engine_ms: run.engine_ms,
                cached,
                coalesced: false,
                assignment: Some(run.assignment.clone()),
            }
            .encode()
        });
        Ok(())
    };
    for k in 0..per_client {
        for c in 0..CLIENTS {
            serve(&inp.shapes[c][k])?;
        }
        for _ in 0..HITS {
            for c in 0..CLIENTS {
                serve(&inp.shapes[c][k])?;
            }
        }
    }
    tracer.next_op();
    tracer.span("store.drain_write", || -> Result<(), String> {
        let mut builder = tracer
            .span("store.to_builder", || {
                StoreReader::open_path(&corpus).and_then(|mut r| r.to_builder())
            })
            .map_err(|e| e.to_string())?;
        let mut entries: Vec<(u64, CachedRun)> =
            cache.entries().map(|(d, r)| (d, r.clone())).collect();
        entries.sort_by_key(|(d, _)| *d);
        for (digest, run) in &entries {
            builder.add_best(*digest, run).map_err(|e| e.to_string())?;
        }
        tracer.span("store.write", || builder.write(&corpus)).map_err(|e| e.to_string())
    })?;
    Ok(ms(start.elapsed()))
}

/// The traced run: the socket run (untraced), then the in-process replay
/// with spans off and on; the residual is socket time the replay's calls
/// do not explain (transport and queue wait).
pub fn traced(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let socket = match socket_run(seed, seconds, &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.set("trace.e2e_ms", socket.total_ms);
    if let Some(stats) = &socket.stats {
        let hits = stat(stats, "cache_hits") as f64;
        let misses = stat(stats, "cache_misses") as f64;
        out.set("cache.hits", hits);
        out.set("cache.misses", misses);
        out.set("cache.hit_ratio", hits / (hits + misses));
        for (name, key) in [
            ("server.batches", "batches"),
            ("server.max_batch", "max_batch"),
            ("server.coalesced", "coalesced"),
            ("server.busy", "busy"),
            ("server.errors", "errors"),
        ] {
            out.set(name, stat(stats, key) as f64);
        }
    }
    let (hit, miss) = (&socket.latency.hit, &socket.latency.miss);
    out.set("server.hit_p50_ms", percentile(hit, 50.0).unwrap_or(f64::NAN));
    out.set("server.hit_p90_ms", percentile(hit, 90.0).unwrap_or(f64::NAN));
    out.set("server.miss_p50_ms", percentile(miss, 50.0).unwrap_or(f64::NAN));
    out.set("server.miss_p90_ms", percentile(miss, 90.0).unwrap_or(f64::NAN));
    out.set("server.drain_ms", socket.drain_ms);

    let result = (|| -> Result<(), String> {
        let mut quiet = Outcome::default();
        let inp = inputs(seed, seconds, &mut quiet)?;
        let dir = RunDir::new("serve-replay").map_err(|e| format!("run dir: {e}"))?;
        let off = replay(&Tracer::new(false), &inp, dir.path(), &mut Vec::new())?;
        let tracer = Tracer::new(true);
        let mut engine = Vec::new();
        let on = replay(&tracer, &inp, dir.path(), &mut engine)?;
        crate::layers::finish_trace(&mut out, &tracer, on, off);
        let t = tracer.totals();
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        for (metric, span) in [
            ("proto.decode_us", "proto.decode"),
            ("proto.resolve_us", "proto.resolve"),
            ("proto.digest_us", "proto.digest"),
            ("proto.encode_us", "proto.encode"),
            ("store.open_us", "store.open"),
        ] {
            out.set(metric, get(span).mean_us());
        }
        out.set("store.bests_ms", get("store.bests").mean_ms());
        out.set("store.to_builder_ms", get("store.to_builder").mean_ms());
        out.set("store.write_ms", get("store.write").mean_ms());
        out.set("store.records", (ARCHIVE + 2 * inp.shapes[0].len() as u64) as f64);
        let image = inp.corpus.encode();
        out.set("store.bytes", image.len() as f64);
        let t0 = Instant::now();
        std::hint::black_box(inp.corpus.encode());
        out.set("store.encode_ms", ms(t0.elapsed()));
        let runs: Vec<(&RunOutcome, u64)> = engine.iter().map(|(o, _)| (o, EVALS)).collect();
        engine_counts(&mut out, &runs);
        let n = engine.len().max(1) as f64;
        out.set("engine.run_ms", engine.iter().map(|(o, _)| ms(o.elapsed)).sum::<f64>() / n);
        out.set(
            "runner.overhead_ms",
            engine.iter().map(|(o, e)| e - ms(o.elapsed)).sum::<f64>() / n,
        );

        // In-process time of a hit: every top-level span of a hit op.
        let spans = tracer.spans();
        let mut per_op: std::collections::BTreeMap<u64, (f64, bool)> = Default::default();
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            let e = per_op.entry(s.op).or_insert((0.0, false));
            e.0 += s.ns() as f64 / 1e6;
            e.1 |= s.name == "runner.execute" || s.name.starts_with("store.");
        }
        let hit_ops: Vec<f64> =
            per_op.values().filter(|(_, heavy)| !heavy).map(|(ms, _)| *ms).collect();
        let in_process = median(&hit_ops);
        let residual = median(hit) - in_process;
        out.set("server.residual_ms", residual);
        out.note(format!(
            "hit: socket p50 {:.3} ms = in-process {in_process:.3} ms (decode+resolve+digest+cache+encode) + residual {residual:.3} ms",
            median(hit)
        ));
        Ok(())
    })();
    if let Err(e) = result {
        out.fail(e);
    }
    out
}
