//! Supporting claim of §3.1 (after \[1\], \[14\]): the **asynchronous** update
//! policy *converges faster* than the **synchronous** one.
//!
//! Convergence speed is a budget-dependent statement, so the comparison
//! runs at several evaluation budgets: the asynchronous advantage shows at
//! the small/medium budgets and washes out once both models have converged
//! (which is also what the cited studies report). Both engines share every
//! operator and parameter; only the update discipline differs (in-place
//! replacement vs auxiliary-population swap).

use crate::{harness_config, Budget};
use etc_model::braun_instance;
use pa_cga_core::config::Termination;
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::{PaCga, SyncCga};
use pa_cga_core::runner::Portfolio;
use pa_cga_stats::{mann_whitney_u, Descriptive, Table};

/// Evaluation budgets swept by the default harness (in units of the 256
/// initial evaluations: early, mid, late convergence).
pub const BUDGETS: [u64; 3] = [5_000, 15_000, 60_000];

/// Runs the comparison across the default budget sweep, with and without
/// H2LL — heavy local search masks the update-policy effect (both models
/// spend most of their improvement inside H2LL), so the cited async
/// advantage is expected to surface in the no-LS rows.
pub fn run(budget: &Budget) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Async vs sync cellular GA, u_c_hihi.0, {} runs per point\n",
        budget.runs
    ));
    for ls in [0usize, 10] {
        out.push_str(&format!("\n== H2LL iterations: {ls} ==\n"));
        for evals in BUDGETS {
            out.push_str(&run_with_evals_ls(budget, evals, ls));
        }
    }
    print!("{out}");
    out
}

/// One comparison at an explicit per-run evaluation budget and H2LL depth.
/// Returns (and does not print) the rendered block.
pub fn run_with_evals_ls(budget: &Budget, evaluations: u64, ls: usize) -> String {
    let instance = braun_instance("u_c_hihi.0");
    let mut out = format!("\n--- {evaluations} evaluations ---\n");

    // One portfolio holds both models' repetitions: async runs first,
    // sync runs second, so the result slice splits at `runs`.
    let mut portfolio = Portfolio::new();
    let cfg = |seed| {
        harness_config(
            1,
            ls,
            CrossoverOp::TwoPoint,
            Termination::Evaluations(evaluations),
            seed,
            false,
        )
    };
    for seed in 0..budget.runs {
        portfolio.submit(format!("async/s{seed}"), PaCga::new(&instance, cfg(seed)));
    }
    for seed in 0..budget.runs {
        portfolio.submit(format!("sync/s{seed}"), SyncCga::new(&instance, cfg(seed)));
    }
    let outcomes = portfolio.execute().expect_outcomes();
    let best: Vec<f64> = outcomes.iter().map(|o| o.best.makespan()).collect();
    let (async_best, sync_best) = best.split_at(budget.runs as usize);

    let da = Descriptive::from_sample(async_best);
    let ds = Descriptive::from_sample(sync_best);
    let mut table = Table::new(&["model", "mean best", "std", "min"]);
    table.row(&[
        "asynchronous".into(),
        format!("{:.1}", da.mean),
        format!("{:.1}", da.std_dev),
        format!("{:.1}", da.min),
    ]);
    table.row(&[
        "synchronous".into(),
        format!("{:.1}", ds.mean),
        format!("{:.1}", ds.std_dev),
        format!("{:.1}", ds.min),
    ]);
    out.push_str(&table.render());

    let mw = mann_whitney_u(async_best, sync_best);
    out.push_str(&format!(
        "async mean {} sync by {:.2}% (Mann-Whitney p = {:.4})\n",
        if da.mean <= ds.mean { "≤" } else { ">" },
        100.0 * (ds.mean - da.mean).abs() / ds.mean,
        mw.p_value
    ));
    out
}
