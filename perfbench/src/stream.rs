//! `stream-storm`: one connection drives one durable named session on a
//! fresh data directory: a seed-generated 512×16 instance, grid 8×8,
//! [`EVALS`] evaluations per event, `assignment: true`, and a
//! seed-generated mixed storm (machine down/up, ETC drift, task
//! arrive/cancel). Every answer is checked against a client-side
//! `DynamicGrid` mirror that replays the same events.

use crate::gen::{assignment_of, makespan_of, same_makespan, InputDigest, Rng};
use crate::layers::engine_counts;
use crate::report::Outcome;
use crate::stats::{answer_failure, geomean, median, percentile};
use crate::sys::{filesystem_of, ms, secs, Daemon, DaemonArgs, RunDir};
use crate::trace::Tracer;
use etc_model::{Consistency, EtcGenerator, GeneratorParams, Heterogeneity};
use grid_sim::{DynamicGrid, EtcDelta, GridEvent, MctRescheduler};
use heuristics::Heuristic;
use pa_cga_core::checkpoint::{self, CheckpointMeta};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::{warm_population, PaCga};
use pa_cga_core::individual::Individual;
use pa_cga_core::RunOutcome;
use pa_cga_service::protocol::Request;
use pa_cga_service::{Client, Json, StreamSession};
use scheduling::Schedule;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Evaluation budget per event (and for the opening optimization).
const EVALS: u64 = 10_000;
/// Population grid side.
const GRID: usize = 8;
/// H2LL iterations.
const LS: usize = 2;
/// Session boots per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// The durable session's name.
const SESSION: &str = "storm";
/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Warm chunks per event and the per-chunk seed stride of the session's
/// event path, mirrored by the traced replay.
const WARM_CHUNKS: u64 = 8;
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Events per run: at least 100 (for a p90), scaled so a run lasts
/// about `seconds` on a 2-core host.
fn events(seconds: u64) -> usize {
    (seconds as usize * 8).max(100)
}

/// Events the traced replay re-runs (a prefix of the storm), which keeps
/// the traced run well inside its time limit.
const TRACE_EVENTS: usize = 100;

struct Inputs {
    params: GeneratorParams,
    open_line: String,
    seed: u64,
    events: Vec<(GridEvent, String)>,
}

/// The `stream.event` line for one event; every number is exact in
/// binary so the server's world matches the mirror's bit for bit.
fn event_line(seq: usize, event: &GridEvent) -> String {
    let body = match event {
        GridEvent::MachineDown { machine } => Json::obj(vec![
            ("kind", Json::str("machine.down")),
            ("machine", Json::num(*machine as f64)),
        ]),
        GridEvent::MachineUp { machine } => Json::obj(vec![
            ("kind", Json::str("machine.up")),
            ("machine", Json::num(*machine as f64)),
        ]),
        GridEvent::EtcDrift { epsilon, seed } => Json::obj(vec![
            ("kind", Json::str("etc.drift")),
            ("epsilon", Json::num(*epsilon)),
            ("seed", Json::num(*seed as f64)),
        ]),
        GridEvent::EtcDeltas { deltas } => Json::obj(vec![
            ("kind", Json::str("etc.drift")),
            (
                "deltas",
                Json::Arr(
                    deltas
                        .iter()
                        .map(|d| {
                            Json::Arr(vec![
                                Json::num(d.task as f64),
                                Json::num(d.machine as f64),
                                Json::num(d.factor),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        GridEvent::TaskArrive { etc } => Json::obj(vec![
            ("kind", Json::str("task.arrive")),
            ("etc", Json::Arr(etc.iter().map(|&v| Json::num(v)).collect())),
        ]),
        GridEvent::TaskCancel { task } => {
            Json::obj(vec![("kind", Json::str("task.cancel")), ("task", Json::num(*task as f64))])
        }
    };
    Json::obj(vec![
        ("type", Json::str("stream.event")),
        ("seq", Json::num(seq as f64)),
        ("event", body),
    ])
    .to_string()
}

/// The mixed storm, generated against a mirror so every event is valid.
/// Event kinds follow a fixed 8-step cycle (down, drift, down, arrive,
/// up, spike, up, cancel), so the world's size follows the same path for
/// every seed (16 → 14 → 16 machines, 512 ↔ 513 tasks); the seed picks
/// the machines, tasks and values.
fn storm(rng: &mut Rng, mirror: &mut DynamicGrid, n: usize) -> Result<Vec<GridEvent>, String> {
    let machines = mirror.base().n_machines();
    let mut script = Vec::with_capacity(n);
    let pick = |rng: &mut Rng, from: &[usize]| from[rng.below(from.len() as u64) as usize];
    for step in 0..n {
        let tasks = mirror.base().n_tasks();
        let event = match step % 8 {
            0 | 2 => GridEvent::MachineDown { machine: pick(rng, &mirror.alive()) },
            4 | 6 => GridEvent::MachineUp { machine: pick(rng, &mirror.down_machines()) },
            1 => GridEvent::EtcDrift {
                epsilon: (1 + rng.below(8)) as f64 / 16.0,
                seed: rng.wire_seed(),
            },
            5 => GridEvent::EtcDeltas {
                deltas: (0..2)
                    .map(|_| EtcDelta {
                        task: rng.below(tasks as u64) as usize,
                        machine: rng.below(machines as u64) as usize,
                        factor: (4 + rng.below(9)) as f64 / 8.0,
                    })
                    .collect(),
            },
            3 => GridEvent::TaskArrive {
                etc: (0..machines).map(|_| (1 + rng.below(100)) as f64).collect(),
            },
            _ => GridEvent::TaskCancel { task: rng.below(tasks as u64) as usize },
        };
        mirror.apply(&event).map_err(|e| format!("storm generator made an invalid event: {e}"))?;
        script.push(event);
    }
    Ok(script)
}

fn inputs(seed: u64, seconds: u64, out: &mut Outcome) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed, 3);
    let params = GeneratorParams {
        n_tasks: 512,
        n_machines: 16,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency: Consistency::Inconsistent,
        seed: rng.wire_seed(),
    };
    let engine_seed = rng.wire_seed();
    let open_line = Json::obj(vec![
        ("type", Json::str("stream.open")),
        ("session", Json::str(SESSION)),
        (
            "etc_model",
            Json::obj(vec![
                ("tasks", Json::num(512.0)),
                ("machines", Json::num(16.0)),
                ("consistency", Json::str("i")),
                ("task_het", Json::str("hi")),
                ("machine_het", Json::str("hi")),
                ("seed", Json::num(params.seed as f64)),
            ]),
        ),
        ("evals", Json::num(EVALS as f64)),
        ("seed", Json::num(engine_seed as f64)),
        ("grid", Json::num(GRID as f64)),
        ("ls", Json::num(LS as f64)),
        ("assignment", Json::Bool(true)),
    ])
    .to_string();
    let mut mirror = DynamicGrid::new(EtcGenerator::new(params).generate());
    let script = storm(&mut rng, &mut mirror, events(seconds))?;
    let events: Vec<(GridEvent, String)> =
        script.into_iter().enumerate().map(|(seq, e)| (e.clone(), event_line(seq, &e))).collect();
    let mut digest = InputDigest::default();
    digest.add(open_line.as_bytes());
    for (_, line) in &events {
        digest.add(line.as_bytes());
    }
    out.note(format!(
        "inputs: 512x16 session, grid {GRID}x{GRID}, {EVALS} evals/event, ls {LS}, {} mixed-storm events, digest {}",
        events.len(),
        digest.hex()
    ));
    Ok(Inputs { params, open_line, seed: engine_seed, events })
}

/// `evaluations` the session has persisted so far.
fn persisted_evals(data_dir: &Path) -> Result<u64, String> {
    let path = data_dir.join("sessions").join(SESSION).join("session.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
        .ok()
        .and_then(|v| v.get("evaluations").and_then(Json::as_u64))
        .ok_or_else(|| format!("{}: no evaluations", path.display()))
}

/// Grades one `stream_result` against the mirror, which it advances.
/// Returns the warm makespan ÷ the benchmark's own Min-min makespan of
/// the post-event world, the warm-win flag and `recovery_evals`.
fn check(
    reply: &str,
    seq: usize,
    event: &GridEvent,
    mirror: &mut DynamicGrid,
) -> Result<(f64, bool, u64), String> {
    let v = Json::parse(reply).map_err(|e| format!("unparseable answer: {e}"))?;
    if let Some(why) = answer_failure(v.get("type").and_then(Json::as_str).unwrap_or("?")) {
        return Err(format!("{why}: {reply:.200}"));
    }
    if v.get("seq").and_then(Json::as_u64) != Some(seq as u64) {
        return Err("seq not echoed".into());
    }
    mirror.apply(event).map_err(|e| format!("mirror rejected the event: {e}"))?;
    let down: Vec<usize> = v
        .get("down")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|m| m.as_u64().map(|m| m as usize)).collect())
        .unwrap_or_default();
    if down != mirror.down_machines() {
        return Err(format!("down set {down:?} != mirror {:?}", mirror.down_machines()));
    }
    if v.get("n_tasks").and_then(Json::as_u64) != Some(mirror.base().n_tasks() as u64) {
        return Err("n_tasks differs from the mirror".into());
    }
    let assignment = assignment_of(&v)?;
    if let Some(g) = assignment.iter().find(|&&g| mirror.is_down(g as usize)) {
        return Err(format!("task on down machine {g}"));
    }
    // Price on the base world: down machines carry no task, so the live
    // sub-instance's makespan equals the base one over live machines.
    let makespan = v.get("makespan").and_then(Json::as_f64).ok_or("no makespan")?;
    let local = mirror.to_local(&assignment).ok_or("assignment does not map onto live machines")?;
    let sub = mirror.sub_instance();
    let priced = makespan_of(&sub, &local).map_err(|e| format!("invalid assignment: {e}"))?;
    if !same_makespan(makespan, priced) {
        return Err(format!("reported makespan {makespan} != recomputed {priced}"));
    }
    let warm = v.get("warm_beats_cold").and_then(Json::as_bool).ok_or("no warm_beats_cold")?;
    let recovery = v.get("recovery_evals").and_then(Json::as_u64).ok_or("no recovery_evals")?;
    Ok((makespan / heuristics::min_min(&sub).makespan(), warm, recovery))
}

fn open(args: &DaemonArgs, line: &str) -> Result<(Daemon, Client), String> {
    let daemon = Daemon::spawn(args)?;
    let opened = Client::connect_with_timeout(daemon.addr.as_str(), Some(TIMEOUT))
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| {
            let reply = c.send_line(line).map_err(|e| format!("stream.open: {e}"))?;
            if reply.contains("\"stream_opened\"") {
                Ok(c)
            } else {
                Err(format!("stream.open answered {reply:.200}"))
            }
        });
    match opened {
        Ok(c) => Ok((daemon, c)),
        Err(e) => {
            daemon.kill();
            Err(e)
        }
    }
}

/// The socket run; returns the storm's wall time in ms.
fn socket_run(seed: u64, seconds: u64, out: &mut Outcome) -> Result<f64, String> {
    let inp = inputs(seed, seconds, out)?;
    let dir = RunDir::new("stream-storm").map_err(|e| format!("run dir: {e}"))?;
    out.note(format!("data dir filesystem {}", filesystem_of(dir.path())));
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let data_dir = dir.path().join(format!("data-{k}"));
        let args = DaemonArgs {
            workers: 2,
            cache_cap: 16,
            corpus: None,
            data_dir: Some(data_dir.clone()),
        };
        let t = Instant::now();
        let (daemon, client) = open(&args, &inp.open_line)?;
        setups.push(secs(t));
        if k + 1 < SETUP_REPEATS {
            drop(client);
            daemon.kill();
        } else {
            live = Some((daemon, client, data_dir));
        }
    }
    let (daemon, mut client, data_dir) = live.ok_or("no daemon")?;
    out.set("setup_s", median(&setups));
    let evals_at_open = persisted_evals(&data_dir)?;

    let mut mirror = DynamicGrid::new(EtcGenerator::new(inp.params).generate());
    let (mut event_ms, mut ratios) = (Vec::new(), Vec::new());
    let (mut wins, mut recovery_sum) = (0u64, 0u64);
    let start = Instant::now();
    for (seq, (event, line)) in inp.events.iter().enumerate() {
        let t = Instant::now();
        let reply = client.send_line(line).map_err(|e| format!("request failed: {e}"));
        let dt = t.elapsed();
        let checked = reply.and_then(|r| check(&r, seq, event, &mut mirror));
        match checked {
            Ok((ratio, warm, recovery)) => {
                out.tally.record(None);
                event_ms.push(ms(dt));
                ratios.push(ratio);
                wins += u64::from(warm);
                recovery_sum += recovery;
            }
            Err(why) => {
                out.tally.record(Some(why));
                // The session and the mirror no longer agree: every later
                // event would fail the same way.
                for _ in seq + 1..inp.events.len() {
                    out.tally.record(Some("not sent after a failed event".into()));
                }
                break;
            }
        }
    }
    let total_ms = ms(start.elapsed());
    let closed = client
        .send_line(r#"{"type":"stream.close"}"#)
        .map_err(|e| e.to_string())
        .and_then(|r| Json::parse(&r).map_err(|e| e.to_string()));
    let applied = event_ms.len() as u64;
    match closed {
        Ok(c)
            if c.get("warm_wins").and_then(Json::as_u64) == Some(wins)
                && c.get("events").and_then(Json::as_u64) == Some(applied) => {}
        other => out.fail(format!("stream.close summary disagrees with the answers: {other:?}")),
    }
    let evals = persisted_evals(&data_dir)?.saturating_sub(evals_at_open);
    let shutdown = client.shutdown().map_err(|e| format!("shutdown: {e}"));
    drop(client);
    let exit = daemon.join()?;
    shutdown?;

    out.note(format!(
        "events p50 {:.1} ms p90 {:.1} ms (n={}), warm wins {wins} / losses {}, recovery_evals sum {recovery_sum}",
        percentile(&event_ms, 50.0).unwrap_or(f64::NAN),
        percentile(&event_ms, 90.0).unwrap_or(f64::NAN),
        event_ms.len(),
        applied - wins,
    ));
    out.set("peak_rss_mb", exit.peak_rss_mb);
    out.set("makespan_ratio", geomean(&ratios));
    out.set("evals_per_s", evals as f64 / (event_ms.iter().sum::<f64>() / 1e3));
    out.set_pct("op_p90_ms", percentile(&event_ms, 90.0), event_ms.len());
    Ok(total_ms)
}

/// The untraced end-to-end run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = socket_run(seed, seconds, &mut out) {
        out.fail(e);
    }
    out
}

/// The session's event path re-run call by call from outside, on its
/// own world, population and data directory.
struct Shadow {
    grid: DynamicGrid,
    population: Vec<Vec<u32>>,
    seed: u64,
    dir: PathBuf,
    rank_calls: Cell<u64>,
}

fn config(evals: u64, seed: u64) -> PaCgaConfig {
    PaCgaConfig::builder()
        .grid(GRID, GRID)
        .threads(1)
        .local_search_iterations(LS)
        .termination(Termination::Evaluations(evals.max(1)))
        .seed(seed)
        .build()
}

impl Shadow {
    fn open(tracer: &Tracer, inp: &Inputs, dir: PathBuf) -> Shadow {
        let grid = DynamicGrid::new(EtcGenerator::new(inp.params).generate());
        let sub = grid.sub_instance();
        let (_, pop) = tracer.span("engine.open_run", || {
            PaCga::new(&sub, config(EVALS, inp.seed)).run_with_population()
        });
        let population =
            pop.iter().filter_map(|i| grid.to_global(i.schedule.assignment())).collect();
        Shadow { grid, population, seed: inp.seed, dir, rank_calls: Cell::new(0) }
    }

    /// One event, as the session handles it; returns the warm makespan
    /// and every engine run with its budget.
    fn event(
        &mut self,
        tracer: &Tracer,
        event: &GridEvent,
    ) -> Result<(f64, Vec<(RunOutcome, u64)>), String> {
        let remap =
            tracer.span("grid.apply", || self.grid.apply(event)).map_err(|e| e.to_string())?;
        let grid = &self.grid;
        let repaired: Vec<Vec<u32>> = tracer.span("grid.repair", || {
            self.population
                .iter()
                .map(|g| grid.repair_assignment(g, remap, &MctRescheduler))
                .collect()
        });
        let sub = tracer.span("grid.sub_instance", || grid.sub_instance());
        let mut local: Vec<Vec<u32>> = tracer
            .span("grid.to_local", || repaired.iter().filter_map(|g| grid.to_local(g)).collect());
        tracer.span("sched.rank_sort", || {
            local.sort_by(|a, b| {
                self.rank_calls.set(self.rank_calls.get() + 2);
                let fa = Schedule::from_assignment(&sub, a.clone()).makespan();
                let fb = Schedule::from_assignment(&sub, b.clone()).makespan();
                fa.total_cmp(&fb)
            })
        });
        let immigrants: Vec<Vec<u32>> = tracer.span("heur.cohort", || {
            Heuristic::all()
                .iter()
                .map(|h| match h {
                    Heuristic::MinMin => tracer.span("heur.min_min", || h.schedule(&sub)),
                    _ => h.schedule(&sub),
                })
                .map(|s| s.assignment().to_vec())
                .collect()
        });
        let keep = local.len().saturating_sub(immigrants.len()).max(1);
        local.truncate(keep);
        local.extend(immigrants);

        let budget = EVALS;
        let event_seed = self.seed.wrapping_add(grid.version().wrapping_mul(SEED_STRIDE));
        let mut runs = Vec::new();
        let cold =
            tracer.span("engine.cold_run", || PaCga::new(&sub, config(budget, event_seed)).run());
        runs.push((cold, budget));
        let mut pop = tracer.span("engine.warm_population", || {
            warm_population(&sub, &config(budget, event_seed), &local)
        });
        let (mut spent, mut chunk_idx, mut warm_best) = (0u64, 0u64, f64::NAN);
        while spent < budget {
            let chunk = (budget / WARM_CHUNKS).max(1).min(budget - spent);
            let seed = event_seed.wrapping_add((chunk_idx + 1).wrapping_mul(SEED_STRIDE));
            let (outcome, next) = tracer.span("engine.warm_chunk", || {
                PaCga::new(&sub, config(chunk, seed)).run_seeded(pop)
            });
            spent += outcome.evaluations;
            warm_best = outcome.best.makespan();
            runs.push((outcome, chunk));
            pop = next;
            chunk_idx += 1;
        }
        self.population = tracer.span("grid.to_global", || {
            pop.iter().filter_map(|i| grid.to_global(i.schedule.assignment())).collect()
        });

        let mut text = Vec::new();
        tracer
            .span("etc.text_write", || etc_model::io::write_instance(&mut text, grid.base()))
            .map_err(|e| e.to_string())?;
        tracer
            .span("fsx.write", || {
                pa_cga_core::fsx::atomic_write(&self.dir.join("instance.etc"), &text)
            })
            .map_err(|e| e.to_string())?;
        let individuals: Vec<Individual> = tracer.span("ckpt.individuals", || {
            self.population
                .iter()
                .map(|g| Individual::new(Schedule::from_assignment(grid.base(), g.clone())))
                .collect()
        });
        let meta = CheckpointMeta { generations: 0, evaluations: 0, elapsed_ms: 0 };
        tracer
            .span("ckpt.save", || {
                checkpoint::save_to_path(
                    &self.dir.join("checkpoint.ckpt"),
                    None,
                    &individuals,
                    &meta,
                )
            })
            .map_err(|e| e.to_string())?;
        Ok((warm_best, runs))
    }
}

/// What one replay measured.
#[derive(Default)]
struct Replay {
    wall_ms: f64,
    recovery_evals: u64,
    wins: u64,
    losses: u64,
    diverged: u64,
    /// Schedules the rank sort rebuilt (two per comparison).
    rank_calls: u64,
    runs: Vec<(RunOutcome, u64)>,
}

/// In-process replay: `StreamSession::open`/`handle_event` on the same
/// lines, and the event path re-run call by call beside it.
fn replay(tracer: &Tracer, inp: &Inputs, dir: &Path) -> Result<Replay, String> {
    let session_dir = dir.join("session");
    let shadow_dir = dir.join("shadow");
    for d in [&session_dir, &shadow_dir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    let mut r = Replay::default();
    tracer.next_op();
    let Ok(Request::StreamOpen(open)) = Request::decode(&inp.open_line) else {
        return Err("open line does not decode".into());
    };
    let (mut session, _) = tracer
        .span("stream.open", || StreamSession::open(*open, Some(&session_dir)))
        .map_err(|(code, m)| format!("{code}: {m}"))?;
    let mut shadow = Shadow::open(tracer, inp, shadow_dir);
    for (event, line) in inp.events.iter().take(TRACE_EVENTS) {
        tracer.next_op();
        let Ok(Request::StreamEvent(req)) = Request::decode(line) else {
            return Err("event line does not decode".into());
        };
        let body = tracer
            .span("stream.handle_event", || session.handle_event(*req))
            .map_err(|(code, m)| format!("{code}: {m}"))?;
        r.recovery_evals += body.recovery_evals;
        if body.warm_beats_cold {
            r.wins += 1;
        } else {
            r.losses += 1;
        }
        let (warm, runs) = shadow.event(tracer, event)?;
        if warm.to_bits() != body.makespan.to_bits() {
            r.diverged += 1;
        }
        r.runs.extend(runs);
    }
    r.wall_ms = ms(start.elapsed());
    r.rank_calls = shadow.rank_calls.get();
    session.suspend();
    Ok(r)
}

/// The traced run: the socket run (untraced), then the replay with
/// spans off and on.
pub fn traced(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    match socket_run(seed, seconds, &mut out) {
        Ok(total_ms) => out.set("trace.e2e_ms", total_ms),
        Err(e) => {
            out.fail(e);
            return out;
        }
    }
    let result = (|| -> Result<(), String> {
        let inp = inputs(seed, seconds, &mut Outcome::default())?;
        let dir = RunDir::new("stream-replay").map_err(|e| format!("run dir: {e}"))?;
        let off = replay(&Tracer::new(false), &inp, dir.path())?;
        let tracer = Tracer::new(true);
        let on = replay(&tracer, &inp, dir.path())?;
        crate::layers::finish_trace(&mut out, &tracer, on.wall_ms, off.wall_ms);
        let t = tracer.totals();
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        let events = inp.events.len().min(TRACE_EVENTS);
        out.set("stream.open_ms", get("stream.open").mean_ms());
        out.set("stream.event_ms", get("stream.handle_event").mean_ms());
        out.set("stream.recovery_evals", on.recovery_evals as f64);
        out.set("stream.warm_wins", on.wins as f64);
        out.set("stream.warm_losses", on.losses as f64);
        let components: u64 = [
            "grid.apply",
            "grid.repair",
            "grid.sub_instance",
            "grid.to_local",
            "sched.rank_sort",
            "heur.cohort",
            "engine.cold_run",
            "engine.warm_population",
            "engine.warm_chunk",
            "grid.to_global",
            "etc.text_write",
            "fsx.write",
            "ckpt.individuals",
            "ckpt.save",
        ]
        .iter()
        .map(|n| get(n).total_ns)
        .sum();
        out.set(
            "stream.unattributed_ms",
            get("stream.handle_event").mean_ms() - components as f64 / 1e6 / events as f64,
        );
        out.set("grid.apply_us", get("grid.apply").mean_us());
        out.set("grid.repair_ms", get("grid.repair").mean_ms());
        out.set("grid.sub_instance_us", get("grid.sub_instance").mean_us());
        out.set("heur.cohort_ms", get("heur.cohort").mean_ms());
        out.set("heur.min_min_ms", get("heur.min_min").mean_ms());
        let calls = on.rank_calls.max(1) as f64;
        out.set("sched.from_assignment_us", get("sched.rank_sort").total_ns as f64 / 1e3 / calls);
        out.set("engine.run_ms", get("engine.cold_run").mean_ms());
        out.set("etc.text_write_ms", get("etc.text_write").mean_ms());
        out.set("fsx.write_ms", get("fsx.write").mean_ms());
        out.set("ckpt.save_ms", get("ckpt.save").mean_ms());
        if let Ok(m) = std::fs::metadata(dir.path().join("shadow").join("checkpoint.ckpt")) {
            out.set("ckpt.bytes", m.len() as f64);
        }
        let runs: Vec<(&RunOutcome, u64)> = on.runs.iter().map(|(o, b)| (o, *b)).collect();
        engine_counts(&mut out, &runs);
        if on.wins != off.wins || on.recovery_evals != off.recovery_evals {
            out.fail("two in-process replays of one seed disagree on warm wins or recovery_evals");
        }
        out.note(format!(
            "replay: warm wins {} / losses {}, recovery_evals {}, call-by-call replica matched handle_event on {} of {} events",
            on.wins,
            on.losses,
            on.recovery_evals,
            events as u64 - on.diverged,
            events
        ));
        Ok(())
    })();
    if let Err(e) = result {
        out.fail(e);
    }
    out
}
