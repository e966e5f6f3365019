//! # Experiment harness support
//!
//! Shared plumbing for the per-table/per-figure binaries:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 4 (speedup vs threads × LS iterations) | `fig4_speedup` |
//! | Figure 5 (operator box plots, 12 instances) | `fig5_operators` |
//! | Table 2 (algorithm comparison, 12 instances) | `table2_comparison` |
//! | Figure 6 (makespan vs generations per thread count) | `fig6_evolution` |
//! | §3.1 async-vs-sync claim | `async_vs_sync` |
//! | everything above | `run_all` |
//!
//! ## Budget scaling
//!
//! The paper runs 90 s × 100 repetitions per point on a 2007 Xeon — far
//! too much for CI. Budgets scale through environment variables, all
//! optional:
//!
//! * `PA_CGA_TIME_MS` — wall-time budget per run (default 1000 ms; the
//!   paper used 90 000).
//! * `PA_CGA_RUNS` — independent runs per configuration (default 8; the
//!   paper used 100).
//! * `PA_CGA_MAX_THREADS` — top of the thread sweep (default 4, like the
//!   paper).
//! * `PA_CGA_GENS` — when set, wall-time-terminated harnesses switch to a
//!   generation budget of this many generations per run. Runs with one
//!   engine thread are then deterministic per seed, so with
//!   `PA_CGA_MAX_THREADS=1` the portfolio-parallel harnesses emit
//!   byte-identical tables at any worker count. Multi-thread PA-CGA runs
//!   do fixed work but follow the OS interleaving.
//! * `PA_CGA_WORKERS` — portfolio worker count override (default:
//!   available parallelism; 1 forces sequential execution). Replication
//!   loops run through [`pa_cga_core::runner`], not serial per-seed
//!   `for` loops.
//!
//! The short-budget Table 2 row uses `PA_CGA_TIME_MS / 9` (or
//! `PA_CGA_GENS / 9`), mirroring the paper's TSCP-calibrated
//! 90 s → 10 s reduction.

use etc_model::{braun_registry, BraunInstance, EtcInstance};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::crossover::CrossoverOp;
use pa_cga_core::engine::{PaCga, RunOutcome};
use pa_cga_core::runner::Portfolio;

/// Reads a positive integer environment variable with a default. A set
/// but unparsable (or zero) value warns on stderr instead of silently
/// falling back — a typo'd `PA_CGA_RUNS=1OO` must not quietly run the
/// default budget.
pub fn env_u64(name: &str, default: u64) -> u64 {
    env_opt_u64(name).unwrap_or(default)
}

/// [`env_u64`] without a default: `None` when the variable is unset or
/// rejected (with the same stderr warning on rejection).
pub fn env_opt_u64(name: &str) -> Option<u64> {
    env_opt_u64_from(name, std::env::var(name).ok().as_deref())
}

/// [`env_opt_u64`] over an explicit value of variable `name` (`None`
/// when unset); `name` only labels the rejection warning.
pub fn env_opt_u64_from(name: &str, raw: Option<&str>) -> Option<u64> {
    let raw = raw?;
    match raw.parse::<u64>() {
        Ok(v) if v > 0 => Some(v),
        _ => {
            eprintln!("warning: {name}={raw:?} is not a positive integer; ignoring it");
            None
        }
    }
}

/// Harness-wide budgets, resolved once from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-time per run, milliseconds.
    pub time_ms: u64,
    /// Independent runs per configuration.
    pub runs: u64,
    /// Maximum thread count in sweeps.
    pub max_threads: usize,
    /// When set (`PA_CGA_GENS`), harnesses that default to wall-time
    /// budgets terminate on a generation budget instead — one-thread runs
    /// become deterministic per seed, so with `max_threads = 1`
    /// portfolio-parallel and sequential execution produce byte-identical
    /// tables.
    pub gens: Option<u64>,
}

impl Budget {
    /// Resolves budgets from `PA_CGA_*` environment variables.
    pub fn from_env() -> Self {
        Self {
            time_ms: env_u64("PA_CGA_TIME_MS", 1000),
            runs: env_u64("PA_CGA_RUNS", 8),
            max_threads: env_u64("PA_CGA_MAX_THREADS", 4) as usize,
            gens: env_opt_u64("PA_CGA_GENS"),
        }
    }

    /// The paper's proportional "10 second" short budget (÷ 9).
    pub fn short_time_ms(&self) -> u64 {
        (self.time_ms / 9).max(1)
    }

    /// The full-budget stop condition: `PA_CGA_GENS` generations when
    /// set, otherwise `time_ms` of wall time.
    pub fn long_termination(&self) -> Termination {
        match self.gens {
            Some(g) => Termination::Generations(g),
            None => Termination::wall_time_ms(self.time_ms),
        }
    }

    /// The TSCP-calibrated short stop condition (÷ 9, like
    /// [`Budget::short_time_ms`]), in the same currency as
    /// [`Budget::long_termination`].
    pub fn short_termination(&self) -> Termination {
        match self.gens {
            Some(g) => Termination::Generations((g / 9).max(1)),
            None => Termination::wall_time_ms(self.short_time_ms()),
        }
    }

    /// Banner for harness output.
    pub fn banner(&self) -> String {
        let stop = match self.gens {
            Some(g) => format!("{g} generations/run"),
            None => format!("{} ms/run", self.time_ms),
        };
        format!(
            "budget: {stop} ({} runs/config, ≤{} threads); paper used 90 000 ms × 100 runs",
            self.runs, self.max_threads
        )
    }
}

/// The 12 benchmark instances with their registry metadata, regenerated
/// once (they are deterministic).
pub fn benchmark_suite() -> Vec<(BraunInstance, EtcInstance)> {
    braun_registry()
        .into_iter()
        .map(|b| {
            let inst = b.instance();
            (b, inst)
        })
        .collect()
}

/// A paper-default PA-CGA configuration with the knobs the harnesses vary.
pub fn harness_config(
    threads: usize,
    ls_iterations: usize,
    crossover: CrossoverOp,
    termination: Termination,
    seed: u64,
    record_traces: bool,
) -> PaCgaConfig {
    PaCgaConfig::builder()
        .threads(threads)
        .local_search_iterations(ls_iterations)
        .crossover(crossover)
        .termination(termination)
        .seed(seed)
        .record_traces(record_traces)
        .build()
}

/// Runs `runs` independent PA-CGA repetitions (distinct seeds) through
/// the portfolio runner and returns the outcomes in seed order.
///
/// Each run declares its configured engine thread count as its pool
/// weight, so a sweep of 4-thread runs never oversubscribes the host.
/// `PA_CGA_WORKERS` overrides the worker count (1 = sequential).
pub fn repeat_runs(
    instance: &EtcInstance,
    runs: u64,
    mut config_for_seed: impl FnMut(u64) -> PaCgaConfig,
) -> Vec<RunOutcome> {
    let mut portfolio = Portfolio::new();
    for seed in 0..runs {
        portfolio.submit(
            format!("{}/s{seed}", instance.name()),
            PaCga::new(instance, config_for_seed(seed)),
        );
    }
    portfolio.execute().expect_outcomes()
}

/// Mean best makespan over a set of outcomes.
pub fn mean_best_makespan(outcomes: &[RunOutcome]) -> f64 {
    outcomes.iter().map(|o| o.best.makespan()).sum::<f64>() / outcomes.len() as f64
}

/// Mean total evaluations over a set of outcomes.
pub fn mean_evaluations(outcomes: &[RunOutcome]) -> f64 {
    outcomes.iter().map(|o| o.evaluations as f64).sum::<f64>() / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_cga_core::config::Termination;

    #[test]
    fn env_u64_parses_and_defaults() {
        let parse = |raw| env_opt_u64_from("PA_CGA_TEST_VAR", raw);
        assert_eq!(parse(None), None);
        assert_eq!(parse(Some("42")), Some(42));
        assert_eq!(parse(Some("zero")), None);
        assert_eq!(parse(Some("0")), None, "zero rejected");
        assert_eq!(parse(Some("9")), Some(9));
        assert_eq!(env_u64("PA_CGA_TEST_VAR_NEVER_SET", 7), 7);
    }

    #[test]
    fn short_budget_is_ninth() {
        let b = Budget { time_ms: 900, runs: 1, max_threads: 1, gens: None };
        assert_eq!(b.short_time_ms(), 100);
        assert_eq!(b.long_termination(), Termination::wall_time_ms(900));
        assert_eq!(b.short_termination(), Termination::wall_time_ms(100));
        let tiny = Budget { time_ms: 5, runs: 1, max_threads: 1, gens: None };
        assert_eq!(tiny.short_time_ms(), 1, "clamped to ≥ 1 ms");
        let det = Budget { time_ms: 900, runs: 1, max_threads: 1, gens: Some(18) };
        assert_eq!(det.long_termination(), Termination::Generations(18));
        assert_eq!(det.short_termination(), Termination::Generations(2));
        assert!(det.banner().contains("18 generations"));
    }

    #[test]
    fn suite_has_twelve_instances() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 12);
        for (meta, inst) in &suite {
            assert_eq!(meta.name, inst.name());
        }
    }

    #[test]
    fn repeat_runs_uses_distinct_seeds() {
        let inst = EtcInstance::toy(24, 4);
        let outcomes = repeat_runs(&inst, 3, |seed| {
            harness_config(1, 5, CrossoverOp::TwoPoint, Termination::Evaluations(300), seed, false)
        });
        assert_eq!(outcomes.len(), 3);
        let m = mean_best_makespan(&outcomes);
        assert!(m > 0.0);
        assert!(mean_evaluations(&outcomes) >= 300.0);
    }
}

pub mod experiments;

/// Directory for CSV result dumps, from `PA_CGA_CSV_DIR`; `None` disables
/// CSV output (default).
pub fn csv_dir() -> Option<std::path::PathBuf> {
    csv_dir_from(std::env::var_os("PA_CGA_CSV_DIR"))
}

/// [`csv_dir`] over an explicit `PA_CGA_CSV_DIR` value (`None` when
/// unset).
pub fn csv_dir_from(value: Option<std::ffi::OsString>) -> Option<std::path::PathBuf> {
    value.map(std::path::PathBuf::from)
}

/// Writes a CSV result file when `PA_CGA_CSV_DIR` is set; returns the
/// note appended to harness output (empty when disabled).
pub fn maybe_write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    write_csv_in(csv_dir(), name, header, rows)
}

/// [`maybe_write_csv`] into an explicit directory; `None` writes nothing.
pub fn write_csv_in(
    dir: Option<std::path::PathBuf>,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> String {
    let Some(dir) = dir else {
        return String::new();
    };
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        pa_cga_stats::csv::write_table(&mut file, header, rows)?;
        Ok(path)
    };
    match write() {
        Ok(path) => format!("(csv written to {})\n", path.display()),
        Err(e) => format!("(csv write failed: {e})\n"),
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn disabled_without_env() {
        assert_eq!(csv_dir_from(None), None);
        assert!(write_csv_in(csv_dir_from(None), "x", &["a"], &[]).is_empty());
    }

    #[test]
    fn writes_when_enabled() {
        let dir = std::env::temp_dir().join(format!("pacga_csv_test_{}", std::process::id()));
        let from_env = csv_dir_from(Some(dir.clone().into_os_string()));
        assert_eq!(from_env.as_deref(), Some(dir.as_path()));
        let note = write_csv_in(from_env, "smoke", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(note.contains("csv written"), "{note}");
        let text = std::fs::read_to_string(dir.join("smoke.csv")).unwrap();
        assert!(text.contains("a,b"));
        assert!(text.contains("1,2"));
        std::fs::remove_dir_all(dir).ok();
    }
}
