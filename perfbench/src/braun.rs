//! `braun-batch`: the paper's experiment. The parallel asynchronous
//! engine at two threads, Min-min seeded, solves the twelve Braun
//! `u_*_*.0` 512×16 instances, round after round, each solve under a
//! fixed evaluation budget. In process: no socket, store or grid_sim.

use crate::gen::{makespan_of, same_makespan, InputDigest, Rng};
use crate::report::Outcome;
use crate::stats::{geomean, median, percentile};
use crate::sys::{ms, peak_rss_mb, secs};
use crate::trace::Tracer;
use etc_model::{braun_instance, braun_instance_names, EtcInstance};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::PaCga;
use pa_cga_core::RunOutcome;
use scheduling::{check_schedule, Schedule};
use std::time::Instant;

/// Evaluation budget per solve.
pub const EVALS: u64 = 40_000;
/// H2LL iterations per offspring.
const LS: usize = 5;
/// Engine threads: the paper's parallel engine on a 2-core host.
const THREADS: usize = 2;
/// Warm-up budget per instance inside set-up.
const WARMUP_EVALS: u64 = 4_000;
/// Fewest rounds, so `op_p90_ms` has ≥ 100 solves behind it.
const MIN_ROUNDS: usize = 9;
/// Rounds the traced replay re-solves (at one and two threads).
const TRACE_ROUNDS: usize = 1;

fn config(threads: usize, evals: u64, seed: u64) -> PaCgaConfig {
    PaCgaConfig::builder()
        .threads(threads)
        .local_search_iterations(LS)
        .termination(Termination::Evaluations(evals))
        .seed(seed)
        .build()
}

struct Inputs {
    names: Vec<&'static str>,
    /// Per-round engine seed stream.
    seeds: Rng,
    /// Min-min makespan per instance, computed by the benchmark.
    min_min: Vec<f64>,
}

fn inputs(seed: u64, out: &mut Outcome) -> Inputs {
    let names: Vec<&'static str> = braun_instance_names()
        .into_iter()
        .filter(|n| n.starts_with("u_") && n.ends_with(".0"))
        .collect();
    let mut digest = InputDigest::default();
    let mut min_min = Vec::new();
    for name in &names {
        let instance = braun_instance(name);
        digest.add(name.as_bytes());
        digest.add_instance(&instance);
        min_min.push(heuristics::min_min(&instance).makespan());
    }
    let seeds = Rng::new(seed, 1);
    let mut preview = seeds.clone();
    for _ in 0..MIN_ROUNDS {
        digest.add(&preview.next_u64().to_le_bytes());
    }
    out.note(format!(
        "inputs: {} Braun instances, {EVALS} evals, ls {LS}, threads {THREADS}, digest {}",
        names.len(),
        digest.hex()
    ));
    Inputs { names, seeds, min_min }
}

/// Set-up: materialize the instances and compute each one's Min-min
/// seed schedule, the single-threaded work before the first solve.
fn setup(names: &[&'static str]) -> (Vec<EtcInstance>, f64) {
    let t = Instant::now();
    let instances: Vec<EtcInstance> = names.iter().map(|n| braun_instance(n)).collect();
    for instance in &instances {
        std::hint::black_box(heuristics::min_min(instance));
    }
    (instances, secs(t))
}

/// One short untimed solve per instance after set-up, so thread
/// start-up and page faults are paid before the first timed solve.
fn warm_up(instances: &[EtcInstance]) {
    for (k, instance) in instances.iter().enumerate() {
        std::hint::black_box(PaCga::new(instance, config(THREADS, WARMUP_EVALS, k as u64)).run());
    }
}

/// Output checks on one solve; `Some` names the first that failed.
fn check(instance: &EtcInstance, outcome: &RunOutcome, budget: u64) -> Option<String> {
    let reported = outcome.best.makespan();
    match makespan_of(instance, outcome.best.schedule.assignment()) {
        Err(e) => return Some(format!("invalid assignment: {e}")),
        Ok(m) if !same_makespan(reported, m) => {
            return Some(format!("reported makespan {reported} != recomputed {m}"))
        }
        Ok(_) => {}
    }
    if outcome.evaluations < budget {
        return Some(format!("spent {} evals of a {budget} budget", outcome.evaluations));
    }
    None
}

/// The untraced end-to-end run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut inp = inputs(seed, &mut out);
    let (instances, first) = setup(&inp.names);
    let mut setups = vec![first];
    warm_up(&instances);
    let mut solve_ms = Vec::new();
    let mut ratios = Vec::new();
    let (mut evals, mut engine_s) = (0u64, 0.0);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < seconds as f64 {
        let round_seed = inp.seeds.next_u64();
        for (k, instance) in instances.iter().enumerate() {
            let t = Instant::now();
            let outcome = PaCga::new(instance, config(THREADS, EVALS, round_seed ^ k as u64)).run();
            let dt = t.elapsed();
            if out.tally.record(check(instance, &outcome, EVALS)) {
                solve_ms.push(ms(dt));
                ratios.push(outcome.best.makespan() / inp.min_min[k]);
                evals += outcome.evaluations;
                engine_s += dt.as_secs_f64();
            }
        }
        // One more set-up after every round: spread over the whole run,
        // their median does not hinge on the host's state in one moment.
        setups.push(setup(&inp.names).1);
        rounds += 1;
    }
    out.note(format!(
        "{rounds} rounds x {} instances in {:.1} s; solves p50 {:.1} ms p90 {:.1} ms (n={})",
        instances.len(),
        secs(start),
        percentile(&solve_ms, 50.0).unwrap_or(f64::NAN),
        percentile(&solve_ms, 90.0).unwrap_or(f64::NAN),
        solve_ms.len()
    ));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("makespan_ratio", geomean(&ratios));
    out.set("evals_per_s", evals as f64 / engine_s);
    out.set_pct("op_p90_ms", percentile(&solve_ms, 90.0), solve_ms.len());
    out
}

/// One replay of the first [`TRACE_ROUNDS`] rounds with spans around
/// every library call; returns the wall time in ms.
fn replay(tracer: &Tracer, seed: u64, names: &[&'static str], engine: &mut Vec<RunOutcome>) -> f64 {
    let mut seeds = Rng::new(seed, 1);
    let t = Instant::now();
    for _ in 0..TRACE_ROUNDS {
        let round_seed = seeds.next_u64();
        for (k, name) in names.iter().enumerate() {
            tracer.next_op();
            let instance = tracer.span("etc.braun_instance", || braun_instance(name));
            let seed = round_seed ^ k as u64;
            tracer.span("heur.min_min", || heuristics::min_min(&instance));
            tracer.span("engine.run_t1", || PaCga::new(&instance, config(1, EVALS, seed)).run());
            let outcome = tracer.span("engine.run_t2", || {
                PaCga::new(&instance, config(THREADS, EVALS, seed)).run()
            });
            let schedule = tracer.span("sched.from_assignment", || {
                Schedule::from_assignment(&instance, outcome.best.schedule.assignment().to_vec())
            });
            tracer.span("sched.check", || check_schedule(&instance, &schedule).is_ok());
            engine.push(outcome);
        }
    }
    ms(t.elapsed())
}

/// The traced run: the untraced end-to-end run, then the replay with
/// spans off and on.
pub fn traced(seed: u64, seconds: u64) -> Outcome {
    let e2e_start = Instant::now();
    let mut out = run(seed, seconds);
    out.set("trace.e2e_ms", ms(e2e_start.elapsed()));
    let names: Vec<&'static str> = braun_instance_names()
        .into_iter()
        .filter(|n| n.starts_with("u_") && n.ends_with(".0"))
        .collect();
    let off = replay(&Tracer::new(false), seed, &names, &mut Vec::new());
    let tracer = Tracer::new(true);
    let mut outcomes = Vec::new();
    let on = replay(&tracer, seed, &names, &mut outcomes);
    crate::layers::finish_trace(&mut out, &tracer, on, off);
    let t = tracer.totals();
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    out.set("etc.generate_ms.512x16", get("etc.braun_instance").mean_ms());
    out.set("heur.min_min_ms", get("heur.min_min").mean_ms());
    out.set("sched.from_assignment_us", get("sched.from_assignment").mean_us());
    out.set(
        "engine.speedup_t2",
        get("engine.run_t1").total_ns as f64 / get("engine.run_t2").total_ns as f64,
    );
    out.set("engine.run_ms", get("engine.run_t2").mean_ms());
    let runs: Vec<(&RunOutcome, u64)> = outcomes.iter().map(|o| (o, EVALS)).collect();
    crate::layers::engine_counts(&mut out, &runs);
    out
}
