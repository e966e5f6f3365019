//! The portfolio runner must never change *results*, only wall-clock:
//! under a deterministic stop condition (generation budget), Table 2
//! computed sequentially (1 worker) is byte-identical to Table 2
//! computed on a parallel pool. The worker count is injected, so the
//! test never touches the process environment.

use pa_cga_bench::experiments::table2;
use pa_cga_bench::Budget;

#[test]
fn table2_rows_identical_sequential_vs_parallel() {
    let budget = Budget { time_ms: 1, runs: 2, max_threads: 2, gens: Some(1) };

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
