//! The **portfolio runner** — a weighted worker-pool executor for
//! replication sweeps.
//!
//! The paper's protocol is 100 independent repetitions per configuration
//! across 12 instances (§4); every such sweep is a *portfolio* of
//! mutually independent runs. This module executes a portfolio across
//! `min(available_parallelism, portfolio size)` workers pulling from a
//! shared queue, instead of the serial `for seed in 0..runs` loop the
//! harnesses used to ship.
//!
//! Design points:
//!
//! * **Deterministic output order.** Results are keyed by submission
//!   index, so the report reads identically regardless of which worker
//!   finished which run first. For runs that are themselves deterministic
//!   (single-thread engines under [`Termination::Generations`] /
//!   [`Termination::Evaluations`] budgets) the collected outcomes are
//!   bit-identical to a sequential loop — the runner only reorders *work*,
//!   never *results*.
//! * **Weights against oversubscription.** A run that internally uses
//!   more than one engine thread (a 4-thread [`PaCga`]) declares a weight;
//!   the pool admits jobs only while the total admitted weight fits its
//!   capacity, so a portfolio of 4-thread runs on a 4-core host executes
//!   one at a time rather than thrashing 16 threads.
//! * **Panic isolation.** Each job runs under `catch_unwind`; one
//!   panicking spec yields an `Err` slot in the report and the pool keeps
//!   draining the queue.
//!
//! The typed surface is [`Portfolio`] over [`RunSpec`]s — anything
//! implementing the small [`Runnable`] trait ([`PaCga`], [`SyncCga`], the
//! baseline GAs, or a plain closure returning a [`RunOutcome`]). The
//! untyped layer ([`run_weighted_jobs`]) executes arbitrary `FnOnce`
//! jobs and is what the experiment harnesses use for non-`RunOutcome`
//! work (noise worlds, diversity snapshots).
//!
//! ```
//! use etc_model::EtcInstance;
//! use pa_cga_core::config::{PaCgaConfig, Termination};
//! use pa_cga_core::engine::PaCga;
//! use pa_cga_core::runner::{Portfolio, RunSpec};
//!
//! let instance = EtcInstance::toy(24, 4);
//! let mut portfolio = Portfolio::new();
//! for seed in 0..4u64 {
//!     let config = PaCgaConfig::builder()
//!         .grid(4, 4)
//!         .threads(1)
//!         .termination(Termination::Evaluations(500))
//!         .seed(seed)
//!         .build();
//!     portfolio.push(RunSpec::new(format!("toy/s{seed}"), PaCga::new(&instance, config)));
//! }
//! let report = portfolio.execute();
//! assert_eq!(report.results.len(), 4);
//! let outcomes = report.expect_outcomes();
//! assert!(outcomes.iter().all(|o| o.best.makespan() > 0.0));
//! ```
//!
//! [`Termination::Generations`]: crate::config::Termination::Generations
//! [`Termination::Evaluations`]: crate::config::Termination::Evaluations

use crate::engine::{PaCga, SyncCga};
use crate::trace::RunOutcome;
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A unit of portfolio work: one independent run producing a
/// [`RunOutcome`].
///
/// Implemented by the engines ([`PaCga`], [`SyncCga`]), by the baseline
/// GAs in the `baselines` crate, and — via the blanket impl — by any
/// `Fn() -> RunOutcome` closure.
pub trait Runnable {
    /// Executes the run to termination.
    fn run_once(&self) -> RunOutcome;

    /// How many pool slots the run occupies while executing (its internal
    /// engine thread count). Weight-1 jobs pack `workers` at a time; a
    /// weight-*w* job admits only when *w* slots are free.
    fn weight(&self) -> usize {
        1
    }
}

impl<F: Fn() -> RunOutcome> Runnable for F {
    fn run_once(&self) -> RunOutcome {
        self()
    }
}

impl Runnable for PaCga<'_> {
    fn run_once(&self) -> RunOutcome {
        self.run()
    }

    fn weight(&self) -> usize {
        self.config().threads
    }
}

impl Runnable for SyncCga<'_> {
    fn run_once(&self) -> RunOutcome {
        self.run()
    }
}

/// A labelled, weighted entry of a [`Portfolio`].
pub struct RunSpec<'a> {
    /// Display label (progress tickers, failure reports).
    pub label: String,
    weight: usize,
    job: Box<dyn Runnable + Send + Sync + 'a>,
}

impl<'a> RunSpec<'a> {
    /// Wraps a runnable; the weight is taken from [`Runnable::weight`].
    pub fn new(label: impl Into<String>, job: impl Runnable + Send + Sync + 'a) -> Self {
        let weight = job.weight().max(1);
        Self { label: label.into(), weight, job: Box::new(job) }
    }

    /// Overrides the declared weight (e.g. an island model whose
    /// parallelism is not visible through [`Runnable::weight`]).
    pub fn with_weight(mut self, weight: usize) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// The spec's pool weight.
    pub fn weight(&self) -> usize {
        self.weight
    }
}

impl std::fmt::Debug for RunSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("label", &self.label)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// Why a job produced no outcome: its panic payload, rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (`"<non-string panic payload>"` when the payload
    /// was not a string).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        Self { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

/// One job's result slot: the outcome, or the panic that replaced it.
pub type JobResult<T> = Result<T, JobPanic>;

/// Counting semaphore (std has none): guards the pool's admitted weight.
/// Also used by the service's durable job manager to admit resumed jobs
/// against the daemon's worker budget.
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    /// A semaphore holding `permits` free slots.
    pub fn new(permits: usize) -> Self {
        Self { permits: Mutex::new(permits), freed: Condvar::new() }
    }

    /// Blocks until `n` slots are free, then takes them. Callers clamp
    /// `n` to the initial capacity (a larger `n` never admits).
    pub fn acquire(&self, n: usize) {
        let mut p = self.permits.lock();
        while *p < n {
            p = self.freed.wait(p);
        }
        *p -= n;
    }

    /// Returns `n` slots to the pool.
    pub fn release(&self, n: usize) {
        *self.permits.lock() += n;
        self.freed.notify_all();
    }
}

/// Resolves the worker count for a portfolio of `jobs` entries:
/// `requested`, else the `PA_CGA_WORKERS` environment variable, else
/// [`std::thread::available_parallelism`] — always clamped to
/// `1..=jobs.max(1)`.
pub fn resolve_workers(requested: Option<usize>, jobs: usize) -> usize {
    resolve_workers_from(requested, std::env::var("PA_CGA_WORKERS").ok().as_deref(), jobs)
}

/// [`resolve_workers`] over an explicit `PA_CGA_WORKERS` value (`None`
/// when unset): a positive integer wins over the hardware default, any
/// other value is ignored.
pub fn resolve_workers_from(requested: Option<usize>, env: Option<&str>, jobs: usize) -> usize {
    let hardware =
        || std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let env = || env.and_then(|v| v.parse::<usize>().ok()).filter(|&v| v > 0);
    requested.or_else(env).unwrap_or_else(hardware).clamp(1, jobs.max(1))
}

/// Executes `(weight, job)` pairs on `workers` pool threads and returns
/// their results **in submission order**.
///
/// The untyped engine under [`Portfolio`]: jobs are arbitrary `FnOnce`
/// closures, each run under `catch_unwind` so a panicking job surrenders
/// only its own slot. Weights are clamped to the pool capacity; the sum
/// of the weights executing at any instant never exceeds `workers`.
pub fn run_weighted_jobs<T, F>(jobs: Vec<(usize, F)>, workers: usize) -> Vec<JobResult<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);

    let mut weights = Vec::with_capacity(total);
    let mut slots: Vec<Mutex<Option<F>>> = Vec::with_capacity(total);
    for (w, job) in jobs {
        weights.push(w.clamp(1, workers));
        slots.push(Mutex::new(Some(job)));
    }
    let results: Vec<Mutex<Option<JobResult<T>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let capacity = Semaphore::new(workers);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ord: Relaxed — claim ticket only; each index is handed
                // out exactly once and the job itself is transferred
                // through the slot Mutex, which provides the ordering.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let job = slots[i].lock().take().expect("each job is claimed exactly once");
                capacity.acquire(weights[i]);
                let result = catch_unwind(AssertUnwindSafe(job)).map_err(JobPanic::from_payload);
                capacity.release(weights[i]);
                *results[i].lock() = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every claimed job stores a result"))
        .collect()
}

/// Convenience wrapper over [`run_weighted_jobs`]: weight-1 jobs, default
/// worker resolution ([`resolve_workers`]).
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<JobResult<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let workers = resolve_workers(None, jobs.len());
    run_weighted_jobs(jobs.into_iter().map(|j| (1, j)).collect(), workers)
}

/// A portfolio of [`RunSpec`]s awaiting execution.
#[derive(Debug, Default)]
pub struct Portfolio<'a> {
    specs: Vec<RunSpec<'a>>,
    workers: Option<usize>,
}

impl<'a> Portfolio<'a> {
    /// An empty portfolio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a spec; its index is the current portfolio size.
    pub fn push(&mut self, spec: RunSpec<'a>) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Shorthand for `push(RunSpec::new(label, job))`.
    pub fn submit(
        &mut self,
        label: impl Into<String>,
        job: impl Runnable + Send + Sync + 'a,
    ) -> &mut Self {
        self.push(RunSpec::new(label, job))
    }

    /// Number of queued specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Overrides the worker count (default: [`resolve_workers`] over
    /// `PA_CGA_WORKERS` / available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Executes every spec and collects results keyed by submission
    /// index.
    pub fn execute(self) -> PortfolioReport {
        let workers = resolve_workers(self.workers, self.specs.len());
        let start = Instant::now();
        let mut labels = Vec::with_capacity(self.specs.len());
        let mut jobs: Vec<(usize, Box<dyn FnOnce() -> RunOutcome + Send + 'a>)> =
            Vec::with_capacity(self.specs.len());
        for spec in self.specs {
            labels.push(spec.label);
            let job = spec.job;
            jobs.push((spec.weight, Box::new(move || job.run_once())));
        }
        let results = run_weighted_jobs(jobs, workers);
        PortfolioReport { labels, results, workers, elapsed: start.elapsed() }
    }
}

/// Everything an executed [`Portfolio`] reports.
#[derive(Debug)]
pub struct PortfolioReport {
    /// Spec labels, by submission index.
    pub labels: Vec<String>,
    /// Per-spec results, by submission index — completion order never
    /// shows here.
    pub results: Vec<JobResult<RunOutcome>>,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Wall-clock time for the whole portfolio.
    pub elapsed: Duration,
}

impl PortfolioReport {
    /// The outcome at `index`, if that spec succeeded.
    pub fn outcome(&self, index: usize) -> Option<&RunOutcome> {
        self.results.get(index).and_then(|r| r.as_ref().ok())
    }

    /// `(index, label, panic)` for every failed spec.
    pub fn failures(&self) -> Vec<(usize, &str, &JobPanic)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|p| (i, self.labels[i].as_str(), p)))
            .collect()
    }

    /// Unwraps every result, panicking with the offending label if any
    /// spec failed — the harness default, where a panicking run is a bug.
    pub fn expect_outcomes(self) -> Vec<RunOutcome> {
        self.labels
            .into_iter()
            .zip(self.results)
            .map(|(label, r)| match r {
                Ok(outcome) => outcome,
                Err(p) => panic!("portfolio spec {label:?} failed: {p}"),
            })
            .collect()
    }

    /// Completed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaCgaConfig, Termination};
    use etc_model::EtcInstance;

    fn toy_config(seed: u64) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(4, 4)
            .threads(1)
            .local_search_iterations(2)
            .termination(Termination::Evaluations(200))
            .seed(seed)
            .build()
    }

    #[test]
    fn results_keyed_by_submission_index() {
        let inst = EtcInstance::toy(16, 4);
        let mut portfolio = Portfolio::new().with_workers(3);
        for seed in 0..6u64 {
            portfolio.submit(format!("s{seed}"), PaCga::new(&inst, toy_config(seed)));
        }
        let report = portfolio.execute();
        assert_eq!(report.labels, vec!["s0", "s1", "s2", "s3", "s4", "s5"]);
        let parallel = report.expect_outcomes();

        // Same runs sequentially: identical outcomes in identical order.
        for (seed, outcome) in parallel.iter().enumerate() {
            let solo = PaCga::new(&inst, toy_config(seed as u64)).run();
            assert_eq!(solo.best, outcome.best);
            assert_eq!(solo.evaluations, outcome.evaluations);
        }
    }

    #[test]
    fn panicking_spec_does_not_poison_the_pool() {
        let inst = EtcInstance::toy(16, 4);
        let ok = |seed: u64| {
            let inst = inst.clone();
            move || PaCga::new(&inst, toy_config(seed)).run()
        };
        let mut portfolio = Portfolio::new().with_workers(2);
        portfolio.submit("ok0", ok(0));
        portfolio.submit("boom", || -> RunOutcome { panic!("intentional test panic") });
        portfolio.submit("ok1", ok(1));
        let report = portfolio.execute();

        assert!(report.outcome(0).is_some());
        assert!(report.outcome(2).is_some(), "job after the panic still ran");
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        let (index, label, panic) = failures[0];
        assert_eq!((index, label), (1, "boom"));
        assert!(panic.message.contains("intentional"), "{panic}");
    }

    #[test]
    fn weights_clamp_and_admit() {
        // A weight larger than the pool must clamp, not deadlock.
        let jobs: Vec<(usize, _)> = (0..4).map(|i| (usize::MAX, move || i * 2)).collect();
        let out = run_weighted_jobs(jobs, 2);
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 2, 4, 6]);
    }

    #[test]
    fn empty_portfolio_is_fine() {
        let report = Portfolio::new().execute();
        assert!(report.results.is_empty());
        assert_eq!(report.expect_outcomes().len(), 0);
    }

    #[test]
    fn resolve_workers_clamps_to_jobs() {
        assert_eq!(resolve_workers(Some(8), 3), 3);
        assert_eq!(resolve_workers(Some(2), 100), 2);
        assert_eq!(resolve_workers(Some(0), 5), 1);
        assert!(resolve_workers(None, 100) >= 1);
        assert_eq!(resolve_workers_from(Some(2), Some("5"), 100), 2, "request beats env");
        assert_eq!(resolve_workers_from(None, Some("5"), 100), 5);
        assert_eq!(resolve_workers_from(None, Some("5"), 3), 3);
        let hardware = resolve_workers_from(None, None, 100);
        assert!(hardware >= 1);
        assert_eq!(resolve_workers_from(None, Some("0"), 100), hardware, "zero ignored");
        assert_eq!(resolve_workers_from(None, Some("many"), 100), hardware, "garbage ignored");
    }
}
