//! The parallel asynchronous engine (paper Algorithms 2 and 3).
//!
//! One thread per contiguous population block; threads never barrier
//! between generations. Each thread runs the evolution kernel both
//! engines share (`engine/kernel.rs`) over its block, reading and writing
//! the live cells. Every individual sits behind its own
//! `parking_lot::RwLock` (padded to a cache line to avoid false sharing
//! between neighboring locks), and every cell's **fitness** is
//! additionally mirrored in a padded `AtomicU64` holding the `f64` bit
//! pattern (DESIGN.md §7). The neighborhood snapshot — five fitness
//! reads per cell evolution, the hottest cross-thread traffic — is plain
//! relaxed atomic loads; the `RwLock` is down to the two parent genome
//! copies and the single replacement write, 3 lock operations per cell
//! evolution instead of 8. At most one lock is ever held at a time, so
//! the engine stays deadlock-free by construction.
//!
//! Evaluation accounting is sharded per thread (see [`EVAL_FLUSH_EVERY`]),
//! so an evaluation budget overshoots by at most
//! `threads × EVAL_FLUSH_EVERY`.
//!
//! A single-block run (`threads = 1`) evolves on the caller's thread:
//! spawning one worker only to join it costs a thread creation and a
//! fresh stack per run, which short warm-started runs (a stream event
//! makes nine) pay over and over, in time and in peak RSS. The results
//! are the same bit for bit, since the block, its RNG stream and its
//! thread id do not depend on which OS thread runs it.

use super::kernel::{evolve_block, finish, Population};
use crate::config::PaCgaConfig;
use crate::grid::GridTopology;
use crate::hooks::RunHooks;
use crate::individual::Individual;
use crate::neighborhood::NeighborhoodTable;
use crate::partition::partition_blocks;
use crate::replacement::ReplacementPolicy;
use crate::trace::{RunOutcome, ThreadTrace};
use crossbeam::utils::CachePadded;
use etc_model::EtcInstance;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use super::kernel::EVAL_FLUSH_EVERY;

/// A padded, lockable population cell.
type Cell = CachePadded<RwLock<Individual>>;

/// A cell's lock-free fitness mirror: the `f64` bit pattern of the last
/// fitness committed under the cell's write lock, padded so neighboring
/// mirrors never share a cache line.
type FitnessCell = CachePadded<AtomicU64>;

/// The parallel asynchronous cellular GA.
///
/// ```
/// use etc_model::EtcInstance;
/// use pa_cga_core::config::{PaCgaConfig, Termination};
/// use pa_cga_core::engine::PaCga;
///
/// let instance = EtcInstance::toy(32, 4);
/// let config = PaCgaConfig::builder()
///     .grid(4, 4)
///     .threads(2)
///     .termination(Termination::Generations(20))
///     .seed(7)
///     .build();
/// let outcome = PaCga::new(&instance, config).run();
/// assert_eq!(outcome.generations.len(), 2);
/// ```
#[derive(Debug)]
pub struct PaCga<'a> {
    instance: &'a EtcInstance,
    config: PaCgaConfig,
}

impl<'a> PaCga<'a> {
    /// Binds a validated configuration to an instance.
    pub fn new(instance: &'a EtcInstance, config: PaCgaConfig) -> Self {
        config.validate();
        Self { instance, config }
    }

    /// The bound configuration.
    pub fn config(&self) -> &PaCgaConfig {
        &self.config
    }

    /// Runs to termination and reports the outcome.
    pub fn run(&self) -> RunOutcome {
        self.run_with_population().0
    }

    /// Runs to termination, returning the final population alongside the
    /// outcome — used by invariant audits and diversity studies.
    pub fn run_with_population(&self) -> (RunOutcome, Vec<Individual>) {
        self.run_internal(None, None)
    }

    /// Warm-start: evolves an existing population instead of initializing
    /// a fresh one (the island model's epoch driver). Fitness values are
    /// trusted as cached; the initial-evaluation count is *not* re-charged.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not match the configured population size.
    pub fn run_seeded(&self, initial: Vec<Individual>) -> (RunOutcome, Vec<Individual>) {
        self.run_internal(Some(initial), None)
    }

    /// Runs with [`RunHooks`] installed — periodic checkpoint snapshots
    /// (taken by thread 0) and cooperative cancellation, optionally from
    /// a warm-start population (same contract as [`PaCga::run_seeded`]).
    /// The durable job manager's entry point.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is `Some` and does not match the configured
    /// population size.
    pub fn run_hooked(
        &self,
        initial: Option<Vec<Individual>>,
        hooks: &RunHooks<'_>,
    ) -> (RunOutcome, Vec<Individual>) {
        self.run_internal(initial, Some(hooks))
    }

    fn run_internal(
        &self,
        initial: Option<Vec<Individual>>,
        hooks: Option<&RunHooks<'_>>,
    ) -> (RunOutcome, Vec<Individual>) {
        if let Some(init) = &initial {
            assert_eq!(
                init.len(),
                self.config.population_size(),
                "warm-start population size mismatch"
            );
        }
        let cfg = &self.config;
        let instance = self.instance;
        let grid = GridTopology::new(cfg.grid_width, cfg.grid_height);
        let table = NeighborhoodTable::new(grid, cfg.neighborhood);
        let warm = initial.is_some();
        let individuals = initial.unwrap_or_else(|| super::init_population(instance, cfg));
        // The paper's initial_evaluation() counts toward the totals; a
        // warm-started population was already evaluated by its producer.
        let evaluations = AtomicU64::new(if warm { 0 } else { individuals.len() as u64 });
        let fitness: Vec<FitnessCell> = individuals
            .iter()
            .map(|ind| CachePadded::new(AtomicU64::new(ind.fitness_bits())))
            .collect();
        let population: Vec<Cell> =
            individuals.into_iter().map(|ind| CachePadded::new(RwLock::new(ind))).collect();
        let blocks = partition_blocks(population.len(), cfg.threads);
        let start = Instant::now();

        let mut per_thread: Vec<(u64, u64, ThreadTrace)> = Vec::with_capacity(cfg.threads);
        // Every block evolves through its own copy of this view
        // (`&mut { live }`); the cells behind it are shared.
        let live = LiveCells { cells: &population, fitness: &fitness };
        if let [block] = blocks.as_slice() {
            // One block: evolve on the caller's thread — no spawn per run.
            per_thread.push(evolve_block(
                instance,
                cfg,
                &mut { live },
                &table,
                block.clone(),
                0,
                start,
                &evaluations,
                hooks,
            ));
        } else {
            std::thread::scope(|scope| {
                let table = &table;
                let evals = &evaluations;
                let handles: Vec<_> = blocks
                    .iter()
                    .enumerate()
                    .map(|(tid, block)| {
                        let block = block.clone();
                        scope.spawn(move || {
                            evolve_block(
                                instance,
                                cfg,
                                &mut { live },
                                table,
                                block,
                                tid as u64,
                                start,
                                evals,
                                hooks,
                            )
                        })
                    })
                    .collect();
                for h in handles {
                    per_thread.push(h.join().expect("worker thread panicked"));
                }
            });
        }
        let elapsed = start.elapsed();

        let mut final_pop: Vec<Individual> =
            population.into_iter().map(|cell| CachePadded::into_inner(cell).into_inner()).collect();
        let best = finish(&mut final_pop);
        let mut generations = Vec::with_capacity(per_thread.len());
        let mut replacements = Vec::with_capacity(per_thread.len());
        let mut traces = Vec::with_capacity(per_thread.len());
        for (g, r, t) in per_thread {
            generations.push(g);
            replacements.push(r);
            traces.push(t);
        }
        (
            RunOutcome {
                best,
                // ord: Relaxed — all worker threads have been joined, so
                // their shard flushes happen-before this read.
                evaluations: evaluations.load(Ordering::Relaxed),
                generations,
                replacements,
                elapsed,
                traces,
            },
            final_pop,
        )
    }
}

/// One thread's view of the shared live cells: selection reads the
/// fitness mirrors, parents are read under the cell's read lock, and a
/// replacement takes the write lock and republishes the mirror.
#[derive(Clone, Copy)]
struct LiveCells<'p> {
    cells: &'p [Cell],
    fitness: &'p [FitnessCell],
}

impl Population for LiveCells<'_> {
    fn fitness(&self, i: usize) -> f64 {
        // ord: Relaxed — single-word fitness mirror; staleness is inherent
        // to the asynchronous model and each load is an internally
        // consistent f64.
        f64::from_bits(self.fitness[i].load(Ordering::Relaxed))
    }

    fn with_cell<R>(&self, i: usize, f: impl FnOnce(&Individual) -> R) -> R {
        f(&self.cells[i].read())
    }

    fn replace(
        &mut self,
        i: usize,
        fitness: f64,
        policy: ReplacementPolicy,
        install: impl FnOnce(&mut Individual),
    ) -> bool {
        // The only write lock per cell evolution. The fitness mirror is
        // published while the lock is held, so it always equals the last
        // committed fitness.
        let mut current = self.cells[i].write();
        let accepted = policy.accepts(current.fitness, fitness);
        if accepted {
            install(&mut current);
            // ord: Relaxed — mirror write while still holding the cell's
            // write lock; the lock release publishes it, readers tolerate
            // stale values.
            self.fitness[i].store(fitness.to_bits(), Ordering::Relaxed);
        }
        accepted
    }

    fn update(&mut self, i: usize, f: impl FnOnce(&mut Individual)) {
        let mut ind = self.cells[i].write();
        f(&mut ind);
        // ord: Relaxed — republishing the mirror under the cell's write
        // lock, same contract as the replacement store.
        self.fitness[i].store(ind.fitness_bits(), Ordering::Relaxed);
    }

    fn end_sweep(&mut self, _unvisited: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;
    use scheduling::check_schedule;

    fn instance() -> EtcInstance {
        EtcInstance::toy(48, 6)
    }

    fn base_config(threads: usize) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(6, 6)
            .threads(threads)
            .local_search_iterations(5)
            .termination(Termination::Generations(15))
            .seed(42)
            .record_traces(true)
            .build()
    }

    #[test]
    fn single_thread_run_is_deterministic() {
        let inst = instance();
        let a = PaCga::new(&inst, base_config(1)).run();
        let b = PaCga::new(&inst, base_config(1)).run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn generation_budget_respected_exactly() {
        let inst = instance();
        let out = PaCga::new(&inst, base_config(3)).run();
        assert_eq!(out.generations, vec![15, 15, 15]);
        // 36 initial + 15 gens × 36 offspring.
        assert_eq!(out.evaluations, 36 + 15 * 36);
    }

    #[test]
    fn best_improves_on_population_seed() {
        let inst = instance();
        let out = PaCga::new(&inst, base_config(2)).run();
        let minmin = heuristics::min_min(&inst).makespan();
        assert!(out.best.makespan() <= minmin, "best {} vs min-min {minmin}", out.best.makespan());
    }

    #[test]
    fn final_population_is_valid_under_parallelism() {
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(6, 6)
            .threads(4)
            .local_search_iterations(5)
            .termination(Termination::Generations(30))
            .seed(7)
            .build();
        let (out, pop) = PaCga::new(&inst, cfg).run_with_population();
        assert_eq!(pop.len(), 36);
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
        assert!(out.best.makespan() > 0.0);
    }

    #[test]
    fn traces_recorded_per_thread() {
        let inst = instance();
        let out = PaCga::new(&inst, base_config(2)).run();
        assert_eq!(out.traces.len(), 2);
        for t in &out.traces {
            assert_eq!(t.len(), 15);
            // Block best is never worse than block mean.
            for (m, b) in t.block_mean.iter().zip(&t.block_best) {
                assert!(b <= m);
            }
        }
    }

    #[test]
    fn periodic_renormalize_keeps_population_exact_and_deterministic() {
        let inst = instance();
        // One thread: cross-block neighbor reads make multi-thread runs
        // timing-dependent, and this test compares two trajectories.
        let cfg = |every: u64| {
            PaCgaConfig::builder()
                .grid(6, 6)
                .threads(1)
                .local_search_iterations(5)
                .termination(Termination::Generations(10))
                .renormalize_every(every)
                .seed(11)
                .build()
        };
        let (out, pop) = PaCga::new(&inst, cfg(3)).run_with_population();
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
        // Renormalizing consumes no randomness, so the search trajectory
        // is untouched: only cached CT bits may sharpen.
        let base = PaCga::new(&inst, cfg(0)).run();
        assert_eq!(out.best.schedule.assignment(), base.best.schedule.assignment());
        assert_eq!(out.evaluations, base.evaluations);
    }

    #[test]
    fn evaluation_budget_stops_run() {
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(6, 6)
            .threads(2)
            .termination(Termination::Evaluations(500))
            .seed(1)
            .build();
        let out = PaCga::new(&inst, cfg).run();
        // Blocks (18 cells) are smaller than EVAL_FLUSH_EVERY, so checks
        // land at sweep boundaries: each thread overshoots at most one
        // block sweep (tightened from the 500 + 2*36 + 36 the per-sweep
        // check used to allow).
        assert!(out.evaluations >= 500);
        assert!(out.evaluations < 500 + 2 * 18);
    }

    #[test]
    fn evaluation_budget_checked_mid_sweep() {
        // One thread, one 256-cell block: without the mid-sweep check the
        // overshoot would be a whole block sweep (up to 255 evals past
        // budget). With it, the overshoot is bounded by EVAL_FLUSH_EVERY.
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(Termination::Evaluations(300))
            .seed(1)
            .build();
        let out = PaCga::new(&inst, cfg).run();
        assert!(out.evaluations >= 300);
        assert!(
            out.evaluations <= 300 + EVAL_FLUSH_EVERY,
            "overshoot {} exceeds the flush interval",
            out.evaluations - 300
        );
    }

    #[test]
    fn budget_landing_on_sweep_boundary_counts_the_completed_sweep() {
        // 256 init + one full 256-cell sweep hits the 512 budget exactly
        // at the sweep's last cell: that sweep completed, so it must be
        // counted (generation + trace point), not discarded as partial.
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(Termination::Evaluations(512))
            .seed(5)
            .record_traces(true)
            .build();
        let out = PaCga::new(&inst, cfg).run();
        assert_eq!(out.evaluations, 512);
        assert_eq!(out.generations, vec![1]);
        assert_eq!(out.traces[0].len(), 1);
    }

    #[test]
    fn mid_sweep_stop_leaves_population_valid() {
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(4)
            .termination(Termination::Evaluations(1_000))
            .seed(3)
            .build();
        let (out, pop) = PaCga::new(&inst, cfg).run_with_population();
        assert!(out.evaluations >= 1_000);
        assert!(out.evaluations <= 1_000 + 4 * EVAL_FLUSH_EVERY);
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
    }

    #[test]
    fn wall_time_budget_stops_quickly() {
        let inst = instance();
        let cfg = PaCgaConfig::builder()
            .grid(6, 6)
            .threads(2)
            .termination(Termination::wall_time_ms(50))
            .seed(1)
            .build();
        let out = PaCga::new(&inst, cfg).run();
        assert!(out.elapsed.as_millis() >= 50);
        assert!(out.elapsed.as_secs() < 10, "run did not stop near its budget");
    }

    #[test]
    fn replace_if_better_makes_block_best_monotone() {
        let inst = instance();
        let out = PaCga::new(&inst, base_config(1)).run();
        let best = &out.traces[0].block_best;
        for w in best.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "block best regressed: {w:?}");
        }
    }
}
