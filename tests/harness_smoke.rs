//! Smoke tests for every experiment harness at a tiny budget: each must
//! run end-to-end and emit its table/figure skeleton.

use pa_cga_bench::experiments;
use pa_cga_bench::Budget;

fn tiny() -> Budget {
    Budget { time_ms: 40, runs: 2, max_threads: 2, gens: None }
}

#[test]
fn fig4_smoke() {
    let out = experiments::fig4::run(&tiny());
    assert!(out.contains("Figure 4"));
    assert!(out.contains("threads"));
    assert!(out.contains("10 iter"));
    // The 1-thread baseline row is always 100%.
    assert!(out.contains("100.0%"));
}

#[test]
fn fig6_smoke() {
    let out = experiments::fig6::run(&tiny());
    assert!(out.contains("Figure 6"));
    assert!(out.contains("1 thread(s)"));
    assert!(out.contains("mean makespan"));
    assert!(out.contains("summary"));
}

#[test]
fn table2_smoke() {
    let out = experiments::table2::run(&tiny());
    assert!(out.contains("Table 2"));
    for name in etc_model::braun_instance_names() {
        assert!(out.contains(name), "missing row {name}");
    }
    assert!(out.contains("Struggle GA"));
    assert!(out.contains("cMA+LTH"));
    assert!(out.contains("PA-CGA short"));
}

#[test]
fn fig5_smoke() {
    let b = Budget { time_ms: 15, runs: 2, max_threads: 2, gens: None };
    let out = experiments::fig5::run(&b);
    assert!(out.contains("Figure 5"));
    assert!(out.contains("u_c_hihi.0"));
    assert!(out.contains("tpx/10 vs opx/5"));
    assert!(out.contains("Mann-Whitney"));
}

#[test]
fn async_sync_smoke() {
    // Shrink the per-run evaluation budget so this runs in CI time.
    let b = Budget { time_ms: 10, runs: 2, max_threads: 1, gens: None };
    let out = experiments::async_sync::run_with_evals_ls(&b, 2_000, 10);
    assert!(out.contains("asynchronous"));
    assert!(out.contains("synchronous"));
    assert!(out.contains("Mann-Whitney"));
}
