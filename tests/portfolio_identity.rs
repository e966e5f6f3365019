//! The portfolio runner must never change *results*, only wall-clock.
//!
//! Under a deterministic stop condition (generation budget) and one
//! engine thread per PA-CGA run, Table 2 computed sequentially (1 worker)
//! is byte-identical to Table 2 computed on a parallel pool. The worker
//! count is injected, so the test never touches the process environment.
//!
//! With 2 engine threads per run the bits are *not* reproducible: each
//! thread reads its neighbours' cells live across block boundaries, so a
//! generation budget fixes how much work is done but not the interleaving
//! it is done in. What does hold at 2 threads — row shape, instance
//! order, valid schedules, the exact evaluation count the budget implies
//! — is checked separately.

use pa_cga_bench::experiments::table2;
use pa_cga_bench::{benchmark_suite, harness_config, Budget};
use pa_cga_core::config::Termination;
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::PaCga;
use pa_cga_core::runner::{Portfolio, RunSpec};
use scheduling::check_schedule;

#[test]
fn table2_rows_identical_sequential_vs_parallel() {
    let budget = Budget { time_ms: 1, runs: 2, max_threads: 1, gens: Some(1) };

    let sequential = table2::compute_rows_on(&budget, Some(1));
    let parallel = table2::compute_rows_on(&budget, Some(4));

    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.instance, p.instance);
        // Bit-identical, not approximately equal: the pool only reorders
        // work, never the result slots.
        assert_eq!(
            s.means.map(f64::to_bits),
            p.means.map(f64::to_bits),
            "row {} diverged between sequential and parallel execution",
            s.instance
        );
    }
}

#[test]
fn table2_two_thread_runs_keep_shape_validity_and_work() {
    let gens = 1;
    let budget = Budget { time_ms: 1, runs: 1, max_threads: 2, gens: Some(gens) };
    let suite = benchmark_suite();

    let rows = table2::compute_rows_on(&budget, Some(4));
    let names: Vec<&str> = rows.iter().map(|r| r.instance.as_str()).collect();
    let expected: Vec<&str> = suite.iter().map(|(meta, _)| meta.name).collect();
    assert_eq!(names, expected, "one row per instance, in suite order");
    for row in &rows {
        assert!(row.means.iter().all(|m| m.is_finite() && *m > 0.0), "{row:?}");
    }

    // The PA-CGA column's runs, as Table 2 submits them, on the same pool.
    let config = |seed| {
        harness_config(2, 10, CrossoverOp::TwoPoint, Termination::Generations(gens), seed, false)
    };
    let cells = config(0).population_size() as u64;
    let mut portfolio = Portfolio::new().with_workers(4);
    for (meta, instance) in &suite {
        for seed in 0..budget.runs {
            portfolio.push(RunSpec::new(
                format!("{}/s{seed}", meta.name),
                PaCga::new(instance, config(seed)),
            ));
        }
    }
    let outcomes = portfolio.execute().expect_outcomes();
    assert_eq!(outcomes.len(), suite.len() * budget.runs as usize);
    for (k, out) in outcomes.iter().enumerate() {
        let (meta, instance) = &suite[k / budget.runs as usize];
        assert!(
            check_schedule(instance, &out.best.schedule).is_ok(),
            "{}: invalid best",
            meta.name
        );
        assert_eq!(out.generations, vec![gens; 2], "{}", meta.name);
        // The initial population plus one offspring per cell per sweep.
        assert_eq!(out.evaluations, cells * (1 + gens), "{}", meta.name);
    }
}
