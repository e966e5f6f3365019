//! The evolution kernel both cellular engines run: the paper's `evolve()`
//! (Algorithm 3) for one block of cells.
//!
//! The asynchronous and synchronous cellular GAs (§3.1) differ in one
//! thing only: whether replacement reads and writes the live cell, or
//! reads the old population and writes an auxiliary one. [`evolve_block`]
//! is the loop; a [`Population`] is that one difference. The parallel
//! engine hands each thread a view of its lock-guarded live cells
//! ([`super::parallel`]), the synchronous engine hands its single block an
//! old/aux double buffer ([`super::synchronous`]). Dispatch is static, so
//! each engine's hot loop is monomorphized for its own view.
//!
//! Evaluation accounting is **sharded**: the block counts locally and
//! flushes into the shared counter every [`EVAL_FLUSH_EVERY`]
//! evaluations (and at every sweep boundary), instead of a per-eval
//! `fetch_add` bouncing one cache line between all threads. The flush
//! points double as mid-sweep [`crate::config::Termination::Evaluations`]
//! checks, so the budget overshoot is bounded by
//! `threads × EVAL_FLUSH_EVERY` independent of the block size.

use crate::config::PaCgaConfig;
use crate::hooks::{CheckpointView, RunHooks};
use crate::individual::Individual;
use crate::neighborhood::NeighborhoodTable;
use crate::replacement::ReplacementPolicy;
use crate::rng::stream_rng;
use crate::trace::ThreadTrace;
use etc_model::EtcInstance;
use rand::Rng;
use scheduling::OffspringBatch;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Evaluations a thread accumulates locally before flushing them into
/// the shared counter and re-checking an evaluation budget. 32 keeps the
/// shared-counter traffic ~32× lower than per-eval `fetch_add` while
/// bounding the [`crate::config::Termination::Evaluations`] overshoot at
/// `threads × EVAL_FLUSH_EVERY` evaluations (each thread runs at most
/// one flush interval past the point where the budget is reached).
pub const EVAL_FLUSH_EVERY: u64 = 32;

/// How the kernel reads and writes the population it evolves.
pub(crate) trait Population {
    /// Cell `i`'s fitness as selection sees it.
    fn fitness(&self, i: usize) -> f64;

    /// Runs `f` on cell `i` as a parent is read from it.
    fn with_cell<R>(&self, i: usize, f: impl FnOnce(&Individual) -> R) -> R;

    /// Offers cell `i` an offspring of `fitness`. When `policy` accepts
    /// it, `install` writes the offspring into the cell's next state and
    /// the call returns true.
    fn replace(
        &mut self,
        i: usize,
        fitness: f64,
        policy: ReplacementPolicy,
        install: impl FnOnce(&mut Individual),
    ) -> bool;

    /// Rewrites cell `i` in place between sweeps.
    fn update(&mut self, i: usize, f: impl FnOnce(&mut Individual));

    /// Closes a sweep. `unvisited` lists the cells a mid-sweep exit left
    /// unevolved (empty at a sweep boundary).
    fn end_sweep(&mut self, unvisited: &[usize]);
}

/// Evolves `block` of `pop` until termination, a cancel, or (mid-sweep)
/// an exhausted evaluation budget. Returns the block's completed sweeps,
/// accepted replacements and trace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evolve_block<P: Population>(
    instance: &EtcInstance,
    cfg: &PaCgaConfig,
    pop: &mut P,
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
    let mut ls_schedule = pop.with_cell(block.start, |cell| cell.schedule.clone());
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
        // already tolerates across thread blocks (the synchronous model
        // reads the old population and sees none). Chunks never straddle
        // a sweep boundary, so per-sweep bookkeeping is untouched.
        let mut kbase = 0;
        while kbase < order.len() {
            let chunk = (order.len() - kbase).min(cfg.eval_batch);
            batch.clear();
            meta.clear();

            // Stage 1 — selection + gene-level variation per cell.
            for &i in &order[kbase..kbase + chunk] {
                snapshot.clear();
                snapshot
                    .extend(table.neighbors(i).iter().map(|&nb| (nb, pop.fitness(nb as usize))));
                let (s0, s1) = cfg.selection.select(&snapshot, &mut rng);
                let g0 = snapshot[s0].0 as usize;
                let g1 = snapshot[s1].0 as usize;
                // Parent 1 lands in the slab row verbatim — genes, CT and
                // fitness, ~1/3 the bytes of a full Individual copy.
                let row = pop.with_cell(g0, |p1| {
                    batch.push_parent(
                        p1.schedule.assignment(),
                        p1.schedule.completion_times(),
                        p1.fitness,
                    )
                });
                // recombine(p_comb, parents): gene-level, in place over
                // parent 1's genes.
                if rng.gen_bool(cfg.p_crossover) {
                    if g1 == g0 {
                        // Self-crossover: parent 2 aliases the slab row, so
                        // compose from a stable copy.
                        p2_genes.copy_from_slice(batch.genes(row));
                        cfg.crossover.compose_into(&p2_genes, batch.genes_mut(row), &mut rng);
                    } else {
                        // Compose straight from parent 2's cell: no
                        // whole-genome copy, and in the parallel engine
                        // its read lock is held only for the splice.
                        pop.with_cell(g1, |p2| {
                            cfg.crossover.compose_into(
                                p2.schedule.assignment(),
                                batch.genes_mut(row),
                                &mut rng,
                            );
                        });
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
            // re-derives the completion times and fitness of every stale
            // row that skips local search. A local-search row is priced
            // once, when stage 3 loads it into the scratch schedule.
            batch.evaluate_rows(instance, |j| !meta[j].1);

            // Stage 3 — H2LL, replacement, sharded accounting per cell.
            for (j, &(i, ls)) in meta.iter().enumerate() {
                let k = kbase + j;
                let fitness = if ls {
                    // H2LL(p_ser, iter, offspring) needs a full schedule
                    // (task index + tracked argmax): one rebuild from the
                    // row's genes.
                    let genes = batch.genes(j);
                    ls_schedule.rewrite_assignment(instance, |t| genes[t]);
                    cfg.local_search.expect("ls flag implies operator").apply_with_scratch(
                        instance,
                        &mut ls_schedule,
                        &mut rng,
                        &mut ls_scratch,
                    );
                    if cfg.delta_eval {
                        ls_schedule.makespan()
                    } else {
                        ls_schedule.makespan_full()
                    }
                } else if cfg.delta_eval {
                    batch.fitness(j)
                } else {
                    batch.oracle_fitness(instance, j)
                };
                pending += 1;

                // replace(ind, offspring). An accepted offspring's genes
                // and CT land in the cell — from the scratch schedule after
                // local search, from the slab otherwise — as a
                // deferred-index install: the cell's CSR index is read by
                // nothing mid-run (parents export genes + CT only), so the
                // counting sort waits for the run-exit `ensure_index` pass.
                let accepted = pop.replace(i, fitness, cfg.replacement, |cell| {
                    let (genes, ct) = if ls {
                        (ls_schedule.assignment(), ls_schedule.completion_times())
                    } else {
                        (batch.genes(j), batch.completion_row(j))
                    };
                    cell.schedule.load_evaluated_deferred(instance, genes, ct);
                    cell.fitness = fitness;
                });
                replacements += u64::from(accepted);

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
                        pop.end_sweep(&order[k + 1..]);
                        break 'run;
                    }
                }
            }
            kbase += chunk;
        }
        pop.end_sweep(&[]);
        generations += 1;

        // Periodic drift correction: recompute this block's cached CT
        // vectors from scratch every `renormalize_every` sweeps, so
        // incremental f64 updates cannot drift over long runs. Consumes
        // no randomness; each block renormalizes only its own cells.
        if cfg.renormalize_every > 0 && generations.is_multiple_of(cfg.renormalize_every) {
            for i in block.clone() {
                pop.update(i, |ind| {
                    ind.schedule.renormalize(instance);
                    ind.evaluate();
                });
            }
        }

        if cfg.record_traces {
            let mut sum = 0.0;
            let mut best = f64::INFINITY;
            for i in block.clone() {
                let f = pop.fitness(i);
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
                // Snapshot every cell one at a time: in the parallel
                // engine, cells owned by other threads may be from
                // slightly different sweeps (the staleness the
                // asynchronous model already accepts), but each copy is
                // internally consistent. The buffer is reused across
                // checkpoints after the first.
                for i in 0..cfg.population_size() {
                    pop.with_cell(i, |cell| match snap.get_mut(i) {
                        Some(dst) => dst.copy_from(cell),
                        None => snap.push(cell.clone()),
                    });
                }
                let view = CheckpointView {
                    generation: generations,
                    // ord: Relaxed — best-effort progress figure for the
                    // checkpoint header; exactness is not part of its
                    // contract.
                    evaluations: evals.load(Ordering::Relaxed),
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

/// Re-indexes cells whose last replacement was a deferred-index install
/// (one counting sort per touched cell, instead of one per accepted
/// offspring all run long) and returns the population's best individual.
pub(crate) fn finish(pop: &mut [Individual]) -> Individual {
    for ind in pop.iter_mut() {
        ind.schedule.ensure_index();
    }
    pop.iter()
        .min_by(|a, b| a.fitness.partial_cmp(&b.fitness).expect("finite fitness"))
        .expect("population is non-empty")
        .clone()
}
