//! The parallel asynchronous engine (paper Algorithms 2 and 3).
//!
//! One thread per contiguous population block; threads never barrier
//! between generations. Every individual sits behind its own
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
//! Evaluation accounting is **sharded**: each thread counts locally and
//! flushes into the shared counter every [`EVAL_FLUSH_EVERY`]
//! evaluations (and at every sweep boundary), instead of a per-eval
//! `fetch_add` bouncing one cache line between all threads. The flush
//! points double as mid-sweep [`crate::config::Termination::Evaluations`] checks, so
//! the budget overshoot is bounded by `threads × EVAL_FLUSH_EVERY`
//! independent of the block size.
//!
//! A single-block run (`threads = 1`) evolves on the caller's thread:
//! spawning one worker only to join it costs a thread creation and a
//! fresh stack per run, which short warm-started runs (a stream event
//! makes nine) pay over and over, in time and in peak RSS. The results
//! are the same bit for bit, since the block, its RNG stream and its
//! thread id do not depend on which OS thread runs it.

use crate::config::PaCgaConfig;
use crate::grid::GridTopology;
use crate::hooks::{CheckpointView, RunHooks};
use crate::individual::Individual;
use crate::neighborhood::NeighborhoodTable;
use crate::partition::partition_blocks;
use crate::rng::stream_rng;
use crate::trace::{RunOutcome, ThreadTrace};
use crossbeam::utils::CachePadded;
use etc_model::EtcInstance;
use parking_lot::RwLock;
use rand::Rng;
use scheduling::OffspringBatch;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A padded, lockable population cell.
type Cell = CachePadded<RwLock<Individual>>;

/// A cell's lock-free fitness mirror: the `f64` bit pattern of the last
/// fitness committed under the cell's write lock, padded so neighboring
/// mirrors never share a cache line.
type FitnessCell = CachePadded<AtomicU64>;

/// Evaluations a thread accumulates locally before flushing them into
/// the shared counter and re-checking an evaluation budget. 32 keeps the
/// shared-counter traffic ~32× lower than per-eval `fetch_add` while
/// bounding the [`crate::config::Termination::Evaluations`] overshoot at
/// `threads × EVAL_FLUSH_EVERY` evaluations (each thread runs at most
/// one flush interval past the point where the budget is reached).
pub const EVAL_FLUSH_EVERY: u64 = 32;

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
        assert_eq!(
            initial.len(),
            self.config.population_size(),
            "warm-start population size mismatch"
        );
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
        if let Some(init) = &initial {
            assert_eq!(
                init.len(),
                self.config.population_size(),
                "warm-start population size mismatch"
            );
        }
        self.run_internal(initial, Some(hooks))
    }

    fn run_internal(
        &self,
        initial: Option<Vec<Individual>>,
        hooks: Option<&RunHooks<'_>>,
    ) -> (RunOutcome, Vec<Individual>) {
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
        if let [block] = blocks.as_slice() {
            // One block: evolve on the caller's thread — no spawn per run.
            per_thread.push(evolve_block(
                instance,
                cfg,
                &population,
                &fitness,
                &table,
                block.clone(),
                0,
                start,
                &evaluations,
                hooks,
            ));
        } else {
            std::thread::scope(|scope| {
                let pop = &population;
                let fit = &fitness;
                let table = &table;
                let evals = &evaluations;
                let handles: Vec<_> = blocks
                    .iter()
                    .enumerate()
                    .map(|(tid, block)| {
                        let block = block.clone();
                        scope.spawn(move || {
                            evolve_block(
                                instance, cfg, pop, fit, table, block, tid as u64, start, evals,
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
        // Re-index cells whose last replacement was a deferred-index
        // install — one counting sort per touched cell, instead of one
        // per accepted offspring all run long.
        for ind in &mut final_pop {
            ind.schedule.ensure_index();
        }
        let best = final_pop
            .iter()
            .min_by(|a, b| a.fitness.partial_cmp(&b.fitness).expect("finite fitness"))
            .expect("population is non-empty")
            .clone();
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

/// The paper's `evolve()` (Algorithm 3), for one thread's block.
#[allow(clippy::too_many_arguments)]
fn evolve_block(
    instance: &EtcInstance,
    cfg: &PaCgaConfig,
    pop: &[Cell],
    fit: &[FitnessCell],
    table: &NeighborhoodTable,
    block: Range<usize>,
    thread_id: u64,
    start: Instant,
    evals: &AtomicU64,
    hooks: Option<&RunHooks<'_>>,
) -> (u64, u64, ThreadTrace) {
    let mut rng = stream_rng(cfg.seed, thread_id);
    let mut trace = ThreadTrace::default();
    let budget = cfg.termination.evaluation_budget();

    // Reusable scratch: the offspring batch slab, a local-search schedule,
    // the neighborhood snapshot, H2LL machine ordering, sweep order, and a
    // parent-2 gene buffer. No allocation inside the hot loop.
    let template: Individual = pop[block.start].read().clone();
    let mut offspring = template;
    let mut snapshot: Vec<(u32, f64)> = Vec::with_capacity(cfg.neighborhood.size());
    let mut ls_scratch: Vec<usize> = Vec::with_capacity(instance.n_machines());
    let mut order: Vec<usize> = Vec::with_capacity(block.len());
    let mut batch = OffspringBatch::new(instance, cfg.eval_batch);
    let mut p2_genes = vec![0u32; instance.n_tasks()];
    // Per-row metadata for stage 3: (cell index, run local search?).
    let mut meta: Vec<(usize, bool)> = Vec::with_capacity(cfg.eval_batch);

    let mut generations = 0u64;
    let mut replacements = 0u64;
    // Evaluations counted locally since the last flush into `evals`.
    let mut pending = 0u64;
    // Checkpoint snapshot buffer — only ever populated on thread 0 and
    // only when checkpoint hooks are installed; other threads never
    // allocate it.
    let mut snap: Vec<Individual> = Vec::new();
    'run: loop {
        cfg.sweep.order_into(block.clone(), &mut order, &mut rng);
        // The sweep runs in chunks of `eval_batch` cells, three stages per
        // chunk (DESIGN.md §9). With eval_batch = 1 the stages collapse to
        // the retired per-offspring loop, draw for draw; wider batches
        // trade within-chunk snapshot freshness for a cache-hot
        // evaluation pass — the same staleness the asynchronous model
        // already tolerates across thread blocks. Chunks never straddle a
        // sweep boundary, so per-sweep bookkeeping is untouched.
        let mut kbase = 0;
        while kbase < order.len() {
            let chunk = (order.len() - kbase).min(cfg.eval_batch);
            batch.clear();
            meta.clear();

            // Stage 1 — selection + gene-level variation per cell.
            for j in 0..chunk {
                let i = order[kbase + j];
                // get_neighborhood + select: lock-free relaxed loads from
                // the fitness mirrors — no traffic on the cell locks.
                snapshot.clear();
                for &nb in table.neighbors(i) {
                    // ord: Relaxed — single-word fitness mirror; staleness
                    // is inherent to the asynchronous model and each load
                    // is an internally consistent f64.
                    let fitness = f64::from_bits(fit[nb as usize].load(Ordering::Relaxed));
                    snapshot.push((nb, fitness));
                }
                let (s0, s1) = cfg.selection.select(&snapshot, &mut rng);
                let g0 = snapshot[s0].0 as usize;
                let g1 = snapshot[s1].0 as usize;
                // Parent 1 lands in the slab row verbatim — genes, CT and
                // fitness under one read lock, ~1/3 the bytes of the full
                // Individual copy the per-offspring loop paid.
                let row = {
                    let p1 = pop[g0].read();
                    batch.push_parent(
                        p1.schedule.assignment(),
                        p1.schedule.completion_times(),
                        p1.fitness,
                    )
                };
                // recombine(p_comb, parents): gene-level, in place over
                // parent 1's genes (the second read lock only held for
                // the parent-2 gene copy).
                if rng.gen_bool(cfg.p_crossover) {
                    if g1 == g0 {
                        // Self-crossover: parent 2 aliases the slab row, so
                        // compose from a stable copy.
                        p2_genes.copy_from_slice(batch.genes(row));
                        cfg.crossover.compose_into(&p2_genes, batch.genes_mut(row), &mut rng);
                    } else {
                        // Compose straight from parent 2 under its read
                        // lock — the whole-genome copy the retired loop
                        // paid is gone; the lock is held only for the
                        // (usually shorter) splice itself.
                        let p2 = pop[g1].read();
                        cfg.crossover.compose_into(
                            p2.schedule.assignment(),
                            batch.genes_mut(row),
                            &mut rng,
                        );
                    }
                }
                // mutate(p_mut, offspring): gene-level.
                if rng.gen_bool(cfg.p_mutation) {
                    cfg.mutation.mutate_row(instance, &mut batch, row, &mut rng);
                }
                let ls = cfg.local_search.is_some() && rng.gen_bool(cfg.p_local_search);
                meta.push((i, ls));
            }

            // Stage 2 — evaluate(offspring), batched: one cache-hot pass
            // re-derives every stale row's completion times and fitness.
            batch.evaluate(instance);

            // Stage 3 — H2LL, replacement, sharded accounting per cell.
            for (j, &(i, ls)) in meta.iter().enumerate() {
                let k = kbase + j;
                let fitness = if ls {
                    // H2LL(p_ser, iter, offspring) needs a materialized
                    // schedule (task index + tracked argmax).
                    batch.materialize_into(instance, j, &mut offspring.schedule);
                    offspring.fitness = batch.fitness(j);
                    cfg.local_search.expect("ls flag implies operator").apply_with_scratch(
                        instance,
                        &mut offspring.schedule,
                        &mut rng,
                        &mut ls_scratch,
                    );
                    if cfg.delta_eval {
                        offspring.evaluate()
                    } else {
                        offspring.fitness = offspring.schedule.makespan_full();
                        offspring.fitness
                    }
                } else if cfg.delta_eval {
                    batch.fitness(j)
                } else {
                    batch.oracle_fitness(instance, j)
                };
                pending += 1;

                // replace(ind, offspring): the only write lock. The
                // fitness mirror is published while the lock is held, so
                // it always equals the last committed fitness. Accepted
                // non-LS rows materialize straight from the slab into the
                // resident cell — the index rebuild replaces the retired
                // full-Individual copy.
                {
                    let mut current = pop[i].write();
                    if cfg.replacement.accepts(current.fitness, fitness) {
                        if ls {
                            current.copy_from(&offspring);
                        } else {
                            // Deferred-index install: the cell's CSR index
                            // is read by nothing mid-run (parents export
                            // genes + CT only), so the counting sort waits
                            // for the run-exit ensure_index pass.
                            batch.materialize_into_deferred(instance, j, &mut current.schedule);
                            current.fitness = fitness;
                        }
                        // ord: Relaxed — mirror write while still holding
                        // the cell's write lock; the lock release publishes
                        // it, readers tolerate stale values.
                        fit[i].store(fitness.to_bits(), Ordering::Relaxed);
                        replacements += 1;
                    }
                }

                // Sharded accounting: flush the local count every
                // EVAL_FLUSH_EVERY evaluations; the flush doubles as the
                // mid-sweep evaluation-budget check. A partial sweep
                // counts no generation and records no trace point — but a
                // check firing on the sweep's LAST cell is a completed
                // sweep, so it falls through to the normal per-sweep
                // bookkeeping and lets the boundary stop check end the
                // run.
                if pending >= EVAL_FLUSH_EVERY {
                    // ord: Relaxed — monotonic shared counter; only the
                    // count matters, never the data it orders.
                    let total = evals.fetch_add(pending, Ordering::Relaxed) + pending;
                    pending = 0;
                    if budget.is_some_and(|b| total >= b) && k + 1 < order.len() {
                        break 'run;
                    }
                }
            }
            kbase += chunk;
        }
        generations += 1;

        // Periodic drift correction: recompute this block's cached CT
        // vectors from scratch every `renormalize_every` sweeps, so
        // incremental f64 updates cannot drift over long asynchronous
        // runs. Consumes no randomness; each thread renormalizes only its
        // own block, one brief write lock at a time, republishing the
        // (possibly sharpened) fitness bits.
        if cfg.renormalize_every > 0 && generations.is_multiple_of(cfg.renormalize_every) {
            for i in block.clone() {
                let mut ind = pop[i].write();
                ind.schedule.renormalize(instance);
                ind.evaluate();
                // ord: Relaxed — republishing the mirror under the cell's
                // write lock, same contract as the replacement store.
                fit[i].store(ind.fitness_bits(), Ordering::Relaxed);
            }
        }

        if cfg.record_traces {
            // Block statistics from the published mirrors: zero lock
            // traffic (the retired version took block.len() read locks
            // per sweep).
            let mut sum = 0.0;
            let mut best = f64::INFINITY;
            for i in block.clone() {
                // ord: Relaxed — trace statistics over the mirrors; stale
                // reads only blur a plot point.
                let f = f64::from_bits(fit[i].load(Ordering::Relaxed));
                sum += f;
                best = best.min(f);
            }
            trace.push(sum / block.len() as f64, best);
        }

        // Flush before the per-sweep stop check so it sees our own work.
        if pending > 0 {
            // ord: Relaxed — monotonic shared counter, same as mid-sweep
            // flushes.
            evals.fetch_add(pending, Ordering::Relaxed);
            pending = 0;
        }
        // Algorithm 3 line 1: the stop check runs once per block sweep.
        // ord: Relaxed — an undercounted budget check only delays the stop
        // by at most one sweep; no data rides on this load.
        if cfg.termination.should_stop(start, generations, evals.load(Ordering::Relaxed)) {
            break;
        }

        // Run hooks (one branch per sweep when none are installed):
        // cooperative cancel on every thread, checkpoint cadence on
        // thread 0 only.
        if let Some(h) = hooks {
            if h.is_cancelled() {
                break;
            }
            if thread_id == 0 && h.checkpoint_due(generations) {
                // Snapshot every cell one read lock at a time: cells owned
                // by other threads may be from slightly different sweeps
                // (the staleness the asynchronous model already accepts),
                // but each clone is internally consistent. The buffer is
                // reused across checkpoints after the first.
                if snap.is_empty() {
                    snap.extend(pop.iter().map(|cell| cell.read().clone()));
                } else {
                    for (dst, cell) in snap.iter_mut().zip(pop) {
                        dst.copy_from(&cell.read());
                    }
                }
                let view = CheckpointView {
                    generation: generations,
                    // ord: Relaxed — best-effort progress figure for the
                    // checkpoint header; exactness is not part of its
                    // contract.
                    evaluations: evals.load(Ordering::Relaxed) + pending,
                    population: &snap,
                };
                if let Some(cb) = h.on_checkpoint {
                    cb(&view);
                }
            }
        }
    }
    debug_assert_eq!(pending, 0, "all evaluations flushed on exit");
    (generations, replacements, trace)
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
