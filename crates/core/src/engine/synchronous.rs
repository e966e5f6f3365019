//! The sequential **synchronous** cellular GA.
//!
//! Offspring are written to an auxiliary population and swapped in all at
//! once per generation, so every selection decision sees the *previous*
//! generation. The paper (§3.1, citing \[1\], \[14\]) notes the asynchronous
//! model converges faster; the `async_vs_sync` harness reproduces that
//! comparison against [`super::PaCga`] with one thread.
//!
//! The loop is the evolution kernel the parallel engine runs
//! (`engine/kernel.rs`), called once over the whole grid as block 0 with
//! an old/aux double buffer as its population.

use super::kernel::{evolve_block, finish, Population};
use crate::config::PaCgaConfig;
use crate::grid::GridTopology;
use crate::individual::Individual;
use crate::neighborhood::NeighborhoodTable;
use crate::replacement::ReplacementPolicy;
use crate::trace::RunOutcome;
use etc_model::EtcInstance;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Sequential synchronous cellular GA sharing the PA-CGA operator set and
/// configuration type. `sweep` orders each generation's cell visits;
/// `threads` is ignored, since the model is sequential by definition.
/// There are no run hooks and no warm start: every run evolves a fresh
/// initial population to termination.
#[derive(Debug)]
pub struct SyncCga<'a> {
    instance: &'a EtcInstance,
    config: PaCgaConfig,
}

impl<'a> SyncCga<'a> {
    /// Binds a validated configuration to an instance.
    pub fn new(instance: &'a EtcInstance, config: PaCgaConfig) -> Self {
        config.validate();
        Self { instance, config }
    }

    /// Runs to termination.
    pub fn run(&self) -> RunOutcome {
        self.run_with_population().0
    }

    /// Runs to termination, also returning the final population (for
    /// diversity studies and invariant audits).
    pub fn run_with_population(&self) -> (RunOutcome, Vec<Individual>) {
        let cfg = &self.config;
        let instance = self.instance;
        let grid = GridTopology::new(cfg.grid_width, cfg.grid_height);
        let table = NeighborhoodTable::new(grid, cfg.neighborhood);
        let old = super::init_population(instance, cfg);
        let cells = 0..old.len();
        let evaluations = AtomicU64::new(old.len() as u64);
        let mut buffers = DoubleBuffer { aux: old.clone(), old };
        let start = Instant::now();
        let (generations, replacements, trace) =
            evolve_block(instance, cfg, &mut buffers, &table, cells, 0, start, &evaluations, None);
        let mut pop = buffers.old;
        let best = finish(&mut pop);
        (
            RunOutcome {
                best,
                evaluations: evaluations.into_inner(),
                generations: vec![generations],
                replacements: vec![replacements],
                elapsed: start.elapsed(),
                traces: vec![trace],
            },
            pop,
        )
    }
}

/// The synchronous population: selection, parents and the replacement
/// decision read the immutable old generation, commits land in `aux`,
/// and the sweep end swaps the two.
struct DoubleBuffer {
    old: Vec<Individual>,
    aux: Vec<Individual>,
}

impl Population for DoubleBuffer {
    fn fitness(&self, i: usize) -> f64 {
        self.old[i].fitness
    }

    fn with_cell<R>(&self, i: usize, f: impl FnOnce(&Individual) -> R) -> R {
        f(&self.old[i])
    }

    fn replace(
        &mut self,
        i: usize,
        fitness: f64,
        policy: ReplacementPolicy,
        install: impl FnOnce(&mut Individual),
    ) -> bool {
        let accepted = policy.accepts(self.old[i].fitness, fitness);
        if accepted {
            install(&mut self.aux[i]);
        } else {
            self.aux[i].copy_from(&self.old[i]);
        }
        accepted
    }

    fn update(&mut self, i: usize, f: impl FnOnce(&mut Individual)) {
        f(&mut self.old[i]);
    }

    fn end_sweep(&mut self, unvisited: &[usize]) {
        // Cells a mid-sweep exit never reached carry over unchanged.
        for &i in unvisited {
            self.aux[i].copy_from(&self.old[i]);
        }
        std::mem::swap(&mut self.old, &mut self.aux);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;
    use crate::engine::parallel::EVAL_FLUSH_EVERY;
    use scheduling::check_schedule;

    fn config(gens: u64) -> PaCgaConfig {
        PaCgaConfig::builder()
            .grid(6, 6)
            .threads(1)
            .local_search_iterations(5)
            .termination(Termination::Generations(gens))
            .seed(42)
            .record_traces(true)
            .build()
    }

    #[test]
    fn deterministic() {
        let inst = EtcInstance::toy(48, 6);
        let a = SyncCga::new(&inst, config(10)).run();
        let b = SyncCga::new(&inst, config(10)).run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn exact_evaluation_count() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(10)).run();
        assert_eq!(out.evaluations, 36 + 10 * 36);
        assert_eq!(out.generations, vec![10]);
    }

    #[test]
    fn best_schedule_is_valid_and_beats_min_min_seed() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(20)).run();
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
        assert!(out.best.makespan() <= heuristics::min_min(&inst).makespan());
    }

    #[test]
    fn periodic_renormalize_keeps_population_exact() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(6, 6)
            .threads(1)
            .local_search_iterations(5)
            .termination(Termination::Generations(9))
            .renormalize_every(2)
            .seed(5)
            .record_traces(true)
            .build();
        let (_, pop) = SyncCga::new(&inst, cfg).run_with_population();
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
    }

    #[test]
    fn evaluation_budget_overshoot_bounded_by_flush_interval() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(crate::config::Termination::Evaluations(400))
            .seed(2)
            .build();
        let out = SyncCga::new(&inst, cfg).run();
        assert!(out.evaluations >= 400);
        assert!(
            out.evaluations <= 400 + EVAL_FLUSH_EVERY,
            "overshoot {} exceeds the flush interval",
            out.evaluations - 400
        );
        assert!(check_schedule(&inst, &out.best.schedule).is_ok());
    }

    #[test]
    fn budget_landing_on_sweep_boundary_counts_the_completed_sweep() {
        let inst = EtcInstance::toy(48, 6);
        let cfg = PaCgaConfig::builder()
            .grid(16, 16)
            .threads(1)
            .termination(crate::config::Termination::Evaluations(512))
            .seed(5)
            .record_traces(true)
            .build();
        let out = SyncCga::new(&inst, cfg).run();
        assert_eq!(out.evaluations, 512);
        assert_eq!(out.generations, vec![1]);
        assert_eq!(out.traces[0].len(), 1);
    }

    #[test]
    fn sweep_policy_is_honoured() {
        let inst = EtcInstance::toy(48, 6);
        let mut random = config(10);
        random.sweep = crate::sweep::SweepPolicy::RandomSweep;
        let line = SyncCga::new(&inst, config(10)).run();
        let (a, pop) = SyncCga::new(&inst, random.clone()).run_with_population();
        let b = SyncCga::new(&inst, random).run();
        // The shuffle draws from the run's RNG stream, so the trajectory
        // moves, reproducibly, at the same amount of work.
        assert_ne!(a.traces, line.traces);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.evaluations, line.evaluations);
        for ind in &pop {
            assert!(check_schedule(&inst, &ind.schedule).is_ok());
            assert_eq!(ind.fitness, ind.schedule.makespan());
        }
    }

    #[test]
    fn traces_have_one_thread() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(8)).run();
        assert_eq!(out.traces.len(), 1);
        assert_eq!(out.traces[0].len(), 8);
    }

    #[test]
    fn population_best_monotone_with_replace_if_better() {
        let inst = EtcInstance::toy(48, 6);
        let out = SyncCga::new(&inst, config(15)).run();
        for w in out.traces[0].block_best.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
