//! Shared pieces of the traced runs: engine counters from `RunOutcome`,
//! the trace summary, and timed calls into the layers a workload's
//! replay does not reach, on inputs generated from the same seed.

use crate::gen::{wire_instance, Rng};
use crate::report::{Outcome, COVERAGE_EPSILON};
use crate::trace::{top_level_ns, Tracer};
use etc_model::{Consistency, EtcGenerator, EtcInstance, GeneratorParams, Heterogeneity};
use grid_sim::{DynamicGrid, GridEvent, MctRescheduler, TaskRemap};
use heuristics::Heuristic;
use pa_cga_core::checkpoint::{self, CheckpointMeta, Crc32};
use pa_cga_core::individual::Individual;
use pa_cga_core::RunOutcome;
use pa_cga_service::cache::CachedRun;
use pa_cga_service::protocol::{Request, Response};
use pa_cga_service::{StoreBuilder, StoreReader};
use scheduling::{OffspringBatch, Schedule};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Engine counters summed over a replay's runs, each with its budget.
pub fn engine_counts(out: &mut Outcome, runs: &[(&RunOutcome, u64)]) {
    let evals: u64 = runs.iter().map(|(r, _)| r.evaluations).sum();
    let generations: u64 = runs.iter().map(|(r, _)| r.generations.iter().sum::<u64>()).sum();
    let replacements: u64 = runs.iter().map(|(r, _)| r.replacements.iter().sum::<u64>()).sum();
    let overshoot: f64 = runs.iter().map(|(r, b)| r.evaluations as f64 - *b as f64).sum::<f64>()
        / runs.len().max(1) as f64;
    out.set("engine.evals", evals as f64);
    out.set("engine.generations", generations as f64);
    out.set("engine.accept_ratio", replacements as f64 / evals.max(1) as f64);
    out.set("engine.overshoot", overshoot);
}

/// Trace summary of one replay: span count, how much of the replay's
/// wall time the top-level spans cover, and the tracing overhead
/// (traced − untraced replay). A coverage short of 1 − ε fails the run.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, traced_ms: f64, untraced_ms: f64) {
    let spans = tracer.spans();
    let coverage = top_level_ns(&spans) as f64 / 1e6 / traced_ms;
    out.set("trace.spans", spans.len() as f64);
    out.set("trace.coverage", coverage);
    out.set("trace.replay_ms", traced_ms);
    out.set("trace.untraced_replay_ms", untraced_ms);
    out.set("trace.overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0);
    out.note(format!(
        "trace: {} spans, top-level coverage {:.4} (epsilon {COVERAGE_EPSILON}), replay {traced_ms:.1} ms traced vs {untraced_ms:.1} ms untraced",
        spans.len(),
        coverage
    ));
    for (name, t) in tracer.totals() {
        out.note(format!(
            "span {name:<24} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    if coverage < 1.0 - COVERAGE_EPSILON {
        out.fail(format!("top-level spans cover {coverage:.4} of the replay"));
    }
    out.set("fail_ratio", out.tally.fail_ratio());
}

/// Mean wall time of `reps` calls, in ms.
fn mean_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// High/high heterogeneity generator parameters of any size.
fn params(
    consistency: Consistency,
    n_tasks: usize,
    n_machines: usize,
    seed: u64,
) -> GeneratorParams {
    GeneratorParams {
        n_tasks,
        n_machines,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency,
        seed,
    }
}

fn generated(rng: &mut Rng, n_tasks: usize, n_machines: usize) -> EtcInstance {
    EtcGenerator::new(params(Consistency::Inconsistent, n_tasks, n_machines, rng.next_u64()))
        .generate()
}

fn genes(rng: &mut Rng, instance: &EtcInstance) -> Vec<u32> {
    (0..instance.n_tasks()).map(|_| rng.below(instance.n_machines() as u64) as u32).collect()
}

/// Sets `name` unless the workload's replay already measured it.
fn fill(out: &mut Outcome, name: &'static str, value: impl FnOnce() -> f64) {
    if !out.values.contains_key(name) {
        let v = value();
        out.set(name, v);
    }
}

fn batch_eval_ns_per_row(rng: &mut Rng, instance: &EtcInstance, reps: usize) -> f64 {
    const ROWS: usize = 16;
    let mut batch = OffspringBatch::new(instance, ROWS);
    let mut total_ns = 0u128;
    for _ in 0..reps {
        batch.clear();
        for _ in 0..ROWS {
            let r = batch.push_stale();
            for g in batch.genes_mut(r) {
                *g = rng.below(instance.n_machines() as u64) as u32;
            }
        }
        let t = Instant::now();
        batch.evaluate(instance);
        total_ns += t.elapsed().as_nanos();
        black_box(batch.fitness(0));
    }
    total_ns as f64 / (reps * ROWS) as f64
}

/// Times every layer the workload's replay left unmeasured.
pub fn probe(out: &mut Outcome, seed: u64, dir: &Path) -> Result<(), String> {
    let mut rng = Rng::new(seed, 99);
    let small = generated(&mut rng, 512, 16);
    let large = generated(&mut rng, 4096, 64);

    fill(out, "sched.batch_eval_ns_per_row.512x16", || {
        batch_eval_ns_per_row(&mut rng, &small, 400)
    });
    fill(out, "sched.batch_eval_ns_per_row.4096x64", || {
        batch_eval_ns_per_row(&mut rng, &large, 20)
    });
    let assignment = genes(&mut rng, &small);
    fill(out, "sched.from_assignment_us", || {
        mean_ms(200, || Schedule::from_assignment(&small, assignment.clone())) * 1e3
    });
    fill(out, "heur.min_min_ms", || mean_ms(5, || heuristics::min_min(&small)));
    fill(out, "heur.cohort_ms", || {
        mean_ms(3, || Heuristic::all().map(|h| h.schedule(&small).makespan()))
    });

    let mib = vec![0xA5u8; 1 << 20];
    fill(out, "crc.ns_per_kib", || mean_ms(8, || Crc32::of(&mib)) * 1e6 / 1024.0);
    let payload = vec![7u8; 64 << 10];
    let fsx_path = dir.join("probe.bin");
    let mut fsx_err = None;
    fill(out, "fsx.write_ms", || {
        mean_ms(10, || {
            if let Err(e) = pa_cga_core::fsx::atomic_write(&fsx_path, &payload) {
                fsx_err = Some(e.to_string());
            }
        })
    });

    let population: Vec<Individual> = (0..64)
        .map(|_| Individual::new(Schedule::from_assignment(&small, genes(&mut rng, &small))))
        .collect();
    let ckpt = dir.join("probe.ckpt");
    let meta = CheckpointMeta { generations: 1, evaluations: 1, elapsed_ms: 1 };
    let mut saves = Vec::new();
    let save_ms =
        mean_ms(5, || saves.push(checkpoint::save_to_path(&ckpt, None, &population, &meta)));
    if let Some(Err(e)) = saves.into_iter().find(Result::is_err) {
        return Err(format!("probe checkpoint write failed: {e}"));
    }
    fill(out, "ckpt.save_ms", || save_ms);
    fill(out, "ckpt.load_ms", || mean_ms(5, || checkpoint::load_from_path(&ckpt, &small).is_ok()));
    fill(out, "ckpt.bytes", || std::fs::metadata(&ckpt).map_or(0.0, |m| m.len() as f64));
    if let Some(e) = fsx_err {
        return Err(format!("probe write failed: {e}"));
    }

    let s = rng.next_u64();
    let c = Consistency::Consistent;
    fill(out, "etc.generate_ms.512x16", || {
        mean_ms(5, || EtcGenerator::new(params(c, 512, 16, s)).generate())
    });
    fill(out, "etc.generate_ms.4096x64", || {
        mean_ms(2, || EtcGenerator::new(params(c, 4096, 64, s)).generate())
    });
    let mut text = Vec::new();
    let write_ms = mean_ms(5, || {
        text.clear();
        etc_model::io::write_instance(&mut text, &small).is_ok()
    });
    fill(out, "etc.text_write_ms", || write_ms);
    fill(out, "etc.text_parse_ms", || {
        mean_ms(5, || etc_model::io::read_instance(&text[..]).is_ok())
    });
    let bin = etc_model::encode_instance(&small).map_err(|e| e.to_string())?;
    fill(out, "etc.binary_decode_ms", || mean_ms(20, || etc_model::decode_instance(&bin).is_ok()));

    probe_grid(out, &mut rng, &small);
    probe_proto(out, &mut rng);
    probe_store(out, &mut rng, &small, &large, dir)
}

fn probe_grid(out: &mut Outcome, rng: &mut Rng, instance: &EtcInstance) {
    let population: Vec<Vec<u32>> = (0..64).map(|_| genes(rng, instance)).collect();
    let mut grid = DynamicGrid::new(instance.clone());
    let mut seed = 0;
    fill(out, "grid.apply_us", || {
        // One cycle of the event kinds a storm mixes.
        mean_ms(10, || {
            seed += 1;
            [
                GridEvent::MachineDown { machine: 3 },
                GridEvent::EtcDrift { epsilon: 0.25, seed },
                GridEvent::MachineUp { machine: 3 },
                GridEvent::TaskArrive { etc: vec![10.0; instance.n_machines()] },
                GridEvent::TaskCancel { task: 0 },
            ]
            .iter()
            .all(|e| grid.apply(e).is_ok())
        }) * 1e3
            / 5.0
    });
    let _ = grid.apply(&GridEvent::MachineDown { machine: 3 });
    fill(out, "grid.repair_ms", || {
        mean_ms(5, || {
            population
                .iter()
                .map(|g| grid.repair_assignment(g, TaskRemap::Identity, &MctRescheduler))
                .collect::<Vec<_>>()
        })
    });
    fill(out, "grid.sub_instance_us", || mean_ms(20, || grid.sub_instance()) * 1e3);
}

/// A `schedule` request line with an inline matrix, as serve-mix sends.
pub fn schedule_line(id: &str, instance: &EtcInstance, evals: u64, seed: u64) -> String {
    use pa_cga_service::Json;
    let rows: Vec<Json> = (0..instance.n_tasks())
        .map(|t| Json::Arr(instance.etc().task_row(t).iter().map(|&x| Json::num(x)).collect()))
        .collect();
    Json::obj(vec![
        ("type", Json::str("schedule")),
        ("id", Json::str(id)),
        ("name", Json::str(instance.name())),
        ("etc", Json::Arr(rows)),
        ("evals", Json::num(evals as f64)),
        ("seed", Json::num(seed as f64)),
        ("threads", Json::num(1.0)),
        ("ls", Json::num(5.0)),
        ("assignment", Json::Bool(true)),
    ])
    .to_string()
}

fn probe_proto(out: &mut Outcome, rng: &mut Rng) {
    let instance = wire_instance(rng, 11, "probe".into(), 512, 16);
    let line = schedule_line("probe", &instance, 20_000, 1);
    let Ok(Request::Schedule(request)) = Request::decode(&line) else {
        out.fail("probe schedule line does not decode");
        return;
    };
    fill(out, "proto.decode_us", || mean_ms(20, || Request::decode(&line).is_ok()) * 1e3);
    fill(out, "proto.resolve_us", || mean_ms(20, || request.resolve_instance().is_ok()) * 1e3);
    fill(out, "proto.digest_us", || mean_ms(20, || request.digest(&instance)) * 1e3);
    let response = Response::Result {
        id: request.id.clone(),
        instance: "probe".into(),
        n_tasks: 512,
        n_machines: 16,
        makespan: 1.0,
        evaluations: 20_000,
        engine_ms: 1.0,
        cached: true,
        coalesced: false,
        assignment: Some(genes(rng, &instance)),
    };
    fill(out, "proto.encode_us", || mean_ms(20, || response.encode()) * 1e3);
}

fn probe_store(
    out: &mut Outcome,
    rng: &mut Rng,
    small: &EtcInstance,
    large: &EtcInstance,
    dir: &Path,
) -> Result<(), String> {
    if out.values.contains_key("store.open_us") {
        return Ok(());
    }
    let mut builder = StoreBuilder::new();
    builder.add_instance(small).map_err(|e| e.to_string())?;
    builder.add_instance(large).map_err(|e| e.to_string())?;
    for k in 0..256u64 {
        builder.add_best(rng.next_u64(), &archive_record(rng, k)).map_err(|e| e.to_string())?;
    }
    let path = dir.join("probe.pacst");
    store_layer(out, &builder, &path)
}

/// A best-schedule record the workloads never request: stands in for a
/// long-lived daemon's accumulated cache.
pub fn archive_record(rng: &mut Rng, k: u64) -> CachedRun {
    CachedRun {
        instance: format!("archive-{k}"),
        n_tasks: 512,
        n_machines: 16,
        makespan: 1e6 + rng.below(1 << 20) as f64,
        evaluations: 20_000,
        engine_ms: 50.0 + rng.below(100) as f64,
        assignment: (0..512).map(|_| rng.below(16) as u32).collect(),
    }
}

/// Times the store's write path (encode, write) and read path (open,
/// bests, to_builder) over the image `builder` describes.
pub fn store_layer(out: &mut Outcome, builder: &StoreBuilder, path: &Path) -> Result<(), String> {
    let image = builder.encode();
    out.set("store.encode_ms", mean_ms(3, || builder.encode()));
    let t = Instant::now();
    builder.write(path).map_err(|e| format!("store write: {e}"))?;
    out.set("store.write_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("store.bytes", image.len() as f64);
    let mut records = 0usize;
    let mut err = None;
    out.set(
        "store.open_us",
        mean_ms(5, || StoreReader::open_path(path).map_err(|e| err = Some(e.to_string())).is_ok())
            * 1e3,
    );
    let mut reader = StoreReader::open_path(path).map_err(|e| e.to_string())?;
    out.set(
        "store.bests_ms",
        mean_ms(3, || match reader.bests() {
            Ok(b) => records = b.len(),
            Err(e) => err = Some(e.to_string()),
        }),
    );
    out.set("store.records", records as f64);
    out.set(
        "store.to_builder_ms",
        mean_ms(3, || reader.to_builder().map_err(|e| err = Some(e.to_string())).is_ok()),
    );
    match err {
        Some(e) => Err(format!("store read: {e}")),
        None => Ok(()),
    }
}
