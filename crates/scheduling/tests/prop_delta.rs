//! Differential suite for the delta evaluation core (DESIGN.md §9):
//! after **every** incremental operation, the schedule's cached
//! completion times and its O(1) tracked-argmax makespan must be
//! **bit-identical** to a from-scratch recompute — across random grid
//! shapes and all 12 Braun consistency×heterogeneity classes, and for
//! the batched slab evaluator against per-offspring oracle builds.
#![recursion_limit = "512"]

use etc_model::{
    braun_instance_names, Consistency, EtcGenerator, EtcInstance, GeneratorParams, Heterogeneity,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scheduling::{check_schedule, OffspringBatch, Schedule};

fn gen_instance(
    n_tasks: usize,
    n_machines: usize,
    seed: u64,
    consistency: Consistency,
) -> EtcInstance {
    EtcGenerator::new(GeneratorParams {
        n_tasks,
        n_machines,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency,
        seed,
    })
    .generate()
}

/// The oracle: a fresh build from the assignment alone, sharing no cached
/// state, with the original O(M) makespan fold.
fn assert_matches_oracle(inst: &EtcInstance, s: &Schedule, ctx: &str) {
    let oracle = Schedule::from_assignment(inst, s.assignment().to_vec());
    for m in 0..inst.n_machines() {
        assert_eq!(
            s.completion(m).to_bits(),
            oracle.completion(m).to_bits(),
            "{ctx}: CT[{m}] diverged from the from-scratch recompute"
        );
    }
    assert_eq!(
        s.makespan().to_bits(),
        oracle.makespan_full().to_bits(),
        "{ctx}: tracked-argmax makespan diverged from the oracle fold"
    );
    assert_eq!(
        s.makespan().to_bits(),
        s.makespan_full().to_bits(),
        "{ctx}: makespan() and makespan_full() disagree on the same schedule"
    );
}

/// One incremental operation.
#[derive(Debug, Clone)]
enum Op {
    Move { task: usize, machine: usize },
    Swap { a: usize, b: usize },
    Rewrite { assignment: Vec<u32> },
    Renormalize,
}

fn op_strategy(n_tasks: usize, n_machines: usize) -> impl Strategy<Value = Op> {
    let m = n_machines as u32;
    prop_oneof![
        5 => (0..n_tasks, 0..n_machines).prop_map(|(task, machine)| Op::Move { task, machine }),
        4 => (0..n_tasks, 0..n_tasks).prop_map(|(a, b)| Op::Swap { a, b }),
        1 => proptest::collection::vec(0..m, n_tasks)
            .prop_map(|assignment| Op::Rewrite { assignment }),
        1 => Just(Op::Renormalize),
    ]
}

fn consistency_strategy() -> impl Strategy<Value = Consistency> {
    prop_oneof![
        Just(Consistency::Consistent),
        Just(Consistency::SemiConsistent),
        Just(Consistency::Inconsistent),
    ]
}

/// Op indices are generated at the maximum shape bounds and folded into
/// the actual (randomly drawn) shape with a modulo, keeping the strategy
/// types flat for the proptest macro.
const MAX_TASKS: usize = 48;
const MAX_MACHINES: usize = 9;

proptest! {
    /// Random grid shapes: every operator leaves CT and makespan
    /// bit-identical to the oracle.
    #[test]
    fn delta_state_matches_oracle_after_every_op(
        n_tasks in 1usize..MAX_TASKS,
        n_machines in 1usize..MAX_MACHINES,
        inst_seed in 0u64..50,
        consistency in consistency_strategy(),
        rng_seed in 0u64..1000,
        ops in proptest::collection::vec(op_strategy(MAX_TASKS, MAX_MACHINES), 1..60),
    ) {
        let inst = gen_instance(n_tasks, n_machines, inst_seed, consistency);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mut s = Schedule::random(&inst, &mut rng);
        assert_matches_oracle(&inst, &s, "after random init");
        for (k, op) in ops.into_iter().enumerate() {
            match op {
                Op::Move { task, machine } => {
                    s.move_task(&inst, task % n_tasks, machine % n_machines);
                }
                Op::Swap { a, b } => s.swap_tasks(&inst, a % n_tasks, b % n_tasks),
                Op::Rewrite { assignment } => {
                    s.rewrite_assignment(&inst, |t| assignment[t % MAX_TASKS] % n_machines as u32)
                }
                Op::Renormalize => s.renormalize(&inst),
            }
            assert_matches_oracle(&inst, &s, &format!("step {k}"));
            prop_assert!(check_schedule(&inst, &s).is_ok());
        }
    }

    /// The slab evaluator is bitwise the oracle for arbitrary gene rows.
    #[test]
    fn batch_slab_matches_oracle(
        n_tasks in 1usize..48,
        n_machines in 1usize..9,
        inst_seed in 0u64..50,
        consistency in consistency_strategy(),
        rows in proptest::collection::vec(0u64..u64::MAX, 1..16),
    ) {
        let inst = gen_instance(n_tasks, n_machines, inst_seed, consistency);
        let mut batch = OffspringBatch::new(&inst, rows.len());
        let mut genes_per_row = Vec::new();
        for seed in &rows {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let genes: Vec<u32> =
                (0..n_tasks).map(|_| rng.gen_range(0..n_machines as u32)).collect();
            let r = batch.push_stale();
            batch.genes_mut(r).copy_from_slice(&genes);
            genes_per_row.push(genes);
        }
        batch.evaluate(&inst);
        for (r, genes) in genes_per_row.iter().enumerate() {
            let oracle = Schedule::from_assignment(&inst, genes.clone());
            prop_assert_eq!(batch.fitness(r).to_bits(), oracle.makespan_full().to_bits());
            for m in 0..n_machines {
                prop_assert_eq!(
                    batch.completion_row(r)[m].to_bits(),
                    oracle.completion(m).to_bits()
                );
            }
            prop_assert_eq!(
                batch.fitness(r).to_bits(),
                batch.oracle_fitness(&inst, r).to_bits()
            );
        }
    }
}

proptest! {
    /// The local-search load: rewriting a schedule that held another
    /// assignment to a gene row gives exactly the from-scratch build (task
    /// index included) and the slab's completion row, bit for bit, with
    /// non-zero ready times in every machine's sum.
    #[test]
    fn ls_load_matches_build_and_slab(
        n_tasks in 1usize..48,
        n_machines in 1usize..9,
        inst_seed in 0u64..50,
        consistency in consistency_strategy(),
        ready_seed in 0u64..u64::MAX,
        rows in proptest::collection::vec(0u64..u64::MAX, 1..16),
    ) {
        let base = gen_instance(n_tasks, n_machines, inst_seed, consistency);
        let mut rng = SmallRng::seed_from_u64(ready_seed);
        let ready: Vec<f64> = (0..n_machines).map(|_| rng.gen_range(0.0..5000.0)).collect();
        let inst = EtcInstance::with_ready_times("ready", base.etc().clone(), ready);
        let mut batch = OffspringBatch::new(&inst, rows.len());
        for seed in &rows {
            let mut row_rng = SmallRng::seed_from_u64(*seed);
            let r = batch.push_stale();
            for g in batch.genes_mut(r) {
                *g = row_rng.gen_range(0..n_machines as u32);
            }
        }
        batch.evaluate(&inst);
        let mut s = Schedule::random(&inst, &mut rng);
        for r in 0..rows.len() {
            let genes = batch.genes(r);
            s.rewrite_assignment(&inst, |t| genes[t]);
            prop_assert_eq!(&s, &Schedule::from_assignment(&inst, genes.to_vec()));
            prop_assert!(s.validate_index().is_ok());
            for m in 0..n_machines {
                prop_assert_eq!(s.completion(m).to_bits(), batch.completion_row(r)[m].to_bits());
            }
            prop_assert_eq!(s.makespan().to_bits(), batch.fitness(r).to_bits());
        }
    }
}

/// All 12 Braun consistency×heterogeneity classes at full 512×16 scale:
/// long random operator chains stay bit-identical to the oracle, checked
/// at every step.
#[test]
fn braun_classes_delta_matches_oracle() {
    let names = braun_instance_names();
    assert_eq!(names.len(), 12, "the Braun registry has 12 classes");
    for (c, name) in names.iter().enumerate() {
        let inst = etc_model::braun_instance(name);
        let (nt, nm) = (inst.n_tasks(), inst.n_machines());
        let mut rng = SmallRng::seed_from_u64(c as u64);
        let mut s = Schedule::random(&inst, &mut rng);
        for step in 0..150 {
            match step % 3 {
                0 => {
                    let t = rng.gen_range(0..nt);
                    let m = rng.gen_range(0..nm);
                    s.move_task(&inst, t, m);
                }
                1 => {
                    let a = rng.gen_range(0..nt);
                    let b = rng.gen_range(0..nt);
                    s.swap_tasks(&inst, a, b);
                }
                _ => {
                    // H2LL-shaped move: off the most loaded machine.
                    let loaded = s.most_loaded_machine();
                    if let Some(t) = s.random_task_on(loaded, &mut rng) {
                        let m = rng.gen_range(0..nm);
                        s.move_task(&inst, t, m);
                    }
                }
            }
            assert_matches_oracle(&inst, &s, &format!("{name} step {step}"));
        }
    }
}

/// Braun-scale slab batches are bitwise the oracle too.
#[test]
fn braun_classes_batch_slab_matches_oracle() {
    for (c, name) in braun_instance_names().iter().enumerate() {
        let inst = etc_model::braun_instance(name);
        let mut rng = SmallRng::seed_from_u64(100 + c as u64);
        let mut batch = OffspringBatch::new(&inst, 16);
        let mut rows = Vec::new();
        for _ in 0..16 {
            let genes: Vec<u32> =
                (0..inst.n_tasks()).map(|_| rng.gen_range(0..inst.n_machines() as u32)).collect();
            let r = batch.push_stale();
            batch.genes_mut(r).copy_from_slice(&genes);
            rows.push(genes);
        }
        batch.evaluate(&inst);
        for (r, genes) in rows.iter().enumerate() {
            let oracle = Schedule::from_assignment(&inst, genes.clone());
            assert_eq!(
                batch.fitness(r).to_bits(),
                oracle.makespan_full().to_bits(),
                "{name} row {r}"
            );
            for m in 0..inst.n_machines() {
                assert_eq!(
                    batch.completion_row(r)[m].to_bits(),
                    oracle.completion(m).to_bits(),
                    "{name} row {r} CT[{m}]"
                );
            }
        }
    }
}

/// The renormalize_every drift pin (ISSUE 6 satellite): run far longer
/// without renormalization than any configured cadence, then show the
/// renormalize pass changes **nothing** — the canonical-CT invariant
/// means accumulated drift is exactly zero ULP, not merely bounded.
#[test]
fn long_unrenormalized_runs_have_zero_ulp_drift() {
    let inst = etc_model::braun_instance("u_i_hihi.0");
    let (nt, nm) = (inst.n_tasks(), inst.n_machines());
    let mut rng = SmallRng::seed_from_u64(42);
    let mut s = Schedule::random(&inst, &mut rng);
    // 20k incremental updates with no renormalization — the historical
    // ±etc delta path would have drifted by many ULPs by now.
    for _ in 0..20_000 {
        if rng.gen_bool(0.5) {
            let t = rng.gen_range(0..nt);
            let m = rng.gen_range(0..nm);
            s.move_task(&inst, t, m);
        } else {
            let a = rng.gen_range(0..nt);
            let b = rng.gen_range(0..nt);
            s.swap_tasks(&inst, a, b);
        }
    }
    let mut renorm = s.clone();
    renorm.renormalize(&inst);
    for m in 0..nm {
        let drift_ulps =
            (s.completion(m).to_bits() as i64 - renorm.completion(m).to_bits() as i64).abs();
        assert_eq!(drift_ulps, 0, "CT[{m}] drifted {drift_ulps} ULPs after 20k updates");
    }
    assert_eq!(s.makespan().to_bits(), renorm.makespan().to_bits());
}
