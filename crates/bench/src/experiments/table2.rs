//! **Table 2** — mean makespan comparison against the literature.
//!
//! Columns: Struggle GA \[19\], cMA+LTH \[20\], PA-CGA at the short
//! (TSCP-calibrated, ÷9) budget, PA-CGA at the full budget. All
//! algorithms run under the *same* wall-time budget on the same host — the
//! fairness the paper approximated with its cross-machine benchmark ratio.
//!
//! Expected shape: PA-CGA (full budget) wins on inconsistent and highly
//! heterogeneous instances; the margins shrink (and may flip) on the
//! near-homogeneous `*lolo` instances.

use crate::{benchmark_suite, harness_config, Budget};
use baselines::{CmaLth, CmaLthConfig, StruggleConfig, StruggleGa};
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::PaCga;
use pa_cga_core::runner::{Portfolio, RunSpec};
use pa_cga_stats::table::fmt_makespan;
use pa_cga_stats::Table;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Instance name.
    pub instance: String,
    /// Mean best makespan per algorithm, in column order
    /// (struggle, cma_lth, pa_cga_short, pa_cga_long).
    pub means: [f64; 4],
}

impl Row {
    /// Index of the winning (smallest) column.
    pub fn winner(&self) -> usize {
        let mut w = 0;
        for i in 1..4 {
            if self.means[i] < self.means[w] {
                w = i;
            }
        }
        w
    }
}

/// Computes all Table 2 rows.
///
/// All `12 instances × 4 algorithms × runs` repetitions go into **one**
/// portfolio, so the machine stays saturated across instance boundaries
/// instead of draining between serial per-algorithm loops. Results come
/// back keyed by submission index; with a deterministic stop condition
/// (`PA_CGA_GENS`) and one engine thread (`max_threads = 1`) the rows
/// are byte-identical at any worker count, including the sequential
/// `PA_CGA_WORKERS=1` path. Multi-thread PA-CGA runs are not
/// bit-reproducible (DESIGN.md §6).
pub fn compute_rows(budget: &Budget) -> Vec<Row> {
    compute_rows_on(budget, None)
}

/// [`compute_rows`] on an explicit worker count; `None` resolves it the
/// way [`Portfolio`] does (`PA_CGA_WORKERS`, else available parallelism).
pub fn compute_rows_on(budget: &Budget, workers: Option<usize>) -> Vec<Row> {
    let long = budget.long_termination();
    let short = budget.short_termination();
    let runs = budget.runs;
    let suite = benchmark_suite();

    let mut portfolio = match workers {
        Some(n) => Portfolio::new().with_workers(n),
        None => Portfolio::new(),
    };
    for (meta, instance) in &suite {
        for seed in 0..runs {
            portfolio.submit(
                format!("struggle/{}/s{seed}", meta.name),
                StruggleGa::new(
                    instance,
                    StruggleConfig { termination: long, seed, ..StruggleConfig::default() },
                ),
            );
        }
        for seed in 0..runs {
            portfolio.submit(
                format!("cma_lth/{}/s{seed}", meta.name),
                CmaLth::new(
                    instance,
                    CmaLthConfig { termination: long, seed, ..CmaLthConfig::default() },
                ),
            );
        }
        // PA-CGA gets to use its parallelism — that is the paper's
        // point; the baselines are sequential by design. The engine
        // thread count rides along as the spec weight, so the pool never
        // oversubscribes the host with multi-thread runs.
        let threads = budget.max_threads;
        for (column, termination) in [("pa_short", short), ("pa_long", long)] {
            for seed in 0..runs {
                portfolio.push(RunSpec::new(
                    format!("{column}/{}/s{seed}", meta.name),
                    PaCga::new(
                        instance,
                        harness_config(
                            threads,
                            10,
                            CrossoverOp::TwoPoint,
                            termination,
                            seed,
                            false,
                        ),
                    ),
                ));
            }
        }
    }

    let outcomes = portfolio.execute().expect_outcomes();
    let mean_chunk = |chunk: &[pa_cga_core::engine::RunOutcome]| {
        chunk.iter().map(|o| o.best.makespan()).sum::<f64>() / chunk.len() as f64
    };
    suite
        .iter()
        .zip(outcomes.chunks(4 * runs as usize))
        .map(|((meta, _), per_instance)| {
            let columns: Vec<f64> = per_instance.chunks(runs as usize).map(mean_chunk).collect();
            Row {
                instance: meta.name.to_string(),
                means: [columns[0], columns[1], columns[2], columns[3]],
            }
        })
        .collect()
}

/// Runs the Table 2 experiment.
pub fn run(budget: &Budget) -> String {
    let mut out = String::new();
    out.push_str("Table 2: mean best makespan vs literature baselines\n");
    out.push_str(&budget.banner());
    out.push_str("\n(* marks the row winner; PA-CGA short runs at budget/9)\n\n");

    let rows = compute_rows(budget);
    let mut table = Table::new(&["instance", "Struggle GA", "cMA+LTH", "PA-CGA short", "PA-CGA"]);
    let mut pa_wins = 0usize;
    for row in &rows {
        let w = row.winner();
        if w >= 2 {
            pa_wins += 1;
        }
        let cells: Vec<String> = std::iter::once(row.instance.clone())
            .chain(row.means.iter().enumerate().map(|(i, &m)| {
                let mark = if i == w { "*" } else { "" };
                format!("{}{mark}", fmt_makespan(m))
            }))
            .collect();
        table.row(&cells);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nPA-CGA variant wins {pa_wins}/{} instances \
         (paper: wins most, strongest on inconsistent/hi-het)\n",
        rows.len()
    ));

    // Friedman omnibus test over the instance × algorithm score matrix.
    let scores: Vec<Vec<f64>> = rows.iter().map(|r| r.means.to_vec()).collect();
    let fr = pa_cga_stats::friedman_test(&scores);
    let names = ["Struggle GA", "cMA+LTH", "PA-CGA short", "PA-CGA"];
    out.push_str("\nFriedman mean ranks (1 = best):");
    for (name, rank) in names.iter().zip(&fr.mean_ranks) {
        out.push_str(&format!(" {name} {rank:.2};"));
    }
    out.push_str(&format!(
        "\nχ²({}) = {:.2}, p = {:.2e} — ranking {}\n",
        fr.dof,
        fr.chi_square,
        fr.p_value,
        if fr.p_value < 0.05 { "significant" } else { "not significant" }
    ));
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.instance.clone()];
            row.extend(r.means.iter().map(|m| m.to_string()));
            row
        })
        .collect();
    out.push_str(&crate::maybe_write_csv(
        "table2_comparison",
        &["instance", "struggle_ga", "cma_lth", "pa_cga_short", "pa_cga"],
        &csv_rows,
    ));
    print!("{out}");
    out
}
