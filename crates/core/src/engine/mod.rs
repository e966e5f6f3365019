//! Execution engines.
//!
//! * [`PaCga`] — the paper's parallel asynchronous engine (Algorithms 2–3).
//!   With `threads = 1` it **is** the canonical asynchronous cellular GA of
//!   Algorithm 1 (the paper makes the same identification in §4.2).
//! * [`SyncCga`] — the sequential *synchronous* cellular GA (offspring
//!   written to an auxiliary population, swapped once per generation),
//!   kept for the async-vs-sync comparison the paper cites from \[1\], \[14\].
//!   It honours the configured sweep order, ignores `threads`, and has no
//!   run hooks and no warm start.
//!
//! Both run one evolution kernel (`kernel.rs`, the paper's Algorithm 3
//! for one block of cells). The engines differ only in the population
//! view they hand it: the parallel engine's live, lock-guarded cells, or
//! the synchronous engine's old/aux double buffer.

pub mod islands;
mod kernel;
pub mod parallel;
pub mod synchronous;

pub use crate::trace::RunOutcome;
pub use islands::{IslandConfig, IslandModel, IslandOutcome};
pub use parallel::PaCga;
pub use synchronous::SyncCga;

use crate::config::PaCgaConfig;
use crate::individual::Individual;
use crate::rng::{stream_rng, INIT_STREAM};
use etc_model::EtcInstance;
use scheduling::Schedule;

/// Builds the initial population: uniformly random schedules, with the
/// configured [`crate::seeding::Seeding`] strategy overwriting the first
/// individuals — the paper's "population initialized randomly, except for
/// one individual [Min-min]" (Table 1).
pub(crate) fn init_population(instance: &EtcInstance, config: &PaCgaConfig) -> Vec<Individual> {
    let mut rng = stream_rng(config.seed, INIT_STREAM);
    let size = config.population_size();
    let mut pop = Vec::with_capacity(size);
    for _ in 0..size {
        pop.push(Individual::new(Schedule::random(instance, &mut rng)));
    }
    for (i, seed) in config.seeding.seeds(instance).into_iter().enumerate().take(size) {
        pop[i] = Individual::new(seed);
    }
    pop
}

/// Builds a population for a **warm start**: the supplied assignment
/// vectors (e.g. a repaired previous population after a grid event) fill
/// the first cells in order, truncated to the configured population
/// size; any remainder is filled with seeded random schedules so a
/// too-small carry-over still yields a full grid. This is the repair
/// counterpart of the engine's internal cold-start seeding — feed the result to
/// [`PaCga::run_hooked`]/[`PaCga::run_seeded`] to resume evolution
/// instead of restarting.
///
/// # Panics
///
/// Panics if an assignment has the wrong length or names an
/// out-of-range machine (the same contract as
/// [`Schedule::from_assignment`]) — callers repair genes *before*
/// warm-starting.
pub fn warm_population(
    instance: &EtcInstance,
    config: &PaCgaConfig,
    assignments: &[Vec<u32>],
) -> Vec<Individual> {
    let mut rng = stream_rng(config.seed, INIT_STREAM);
    let size = config.population_size();
    let mut pop = Vec::with_capacity(size);
    for genes in assignments.iter().take(size) {
        pop.push(Individual::new(Schedule::from_assignment(instance, genes.clone())));
    }
    while pop.len() < size {
        pop.push(Individual::new(Schedule::random(instance, &mut rng)));
    }
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;

    #[test]
    fn init_population_seeds_min_min_at_zero() {
        let inst = EtcInstance::toy(16, 4);
        let config = PaCgaConfig::builder()
            .grid(4, 4)
            .threads(1)
            .termination(Termination::Generations(1))
            .seed(3)
            .build();
        let pop = init_population(&inst, &config);
        assert_eq!(pop.len(), 16);
        let minmin = heuristics::min_min(&inst);
        assert_eq!(pop[0].schedule, minmin);
        assert_eq!(pop[0].fitness, minmin.makespan());
    }

    #[test]
    fn init_population_fully_random_when_disabled() {
        let inst = EtcInstance::toy(16, 4);
        let config = PaCgaConfig::builder()
            .grid(4, 4)
            .threads(1)
            .seed_min_min(false)
            .termination(Termination::Generations(1))
            .seed(3)
            .build();
        let pop = init_population(&inst, &config);
        let minmin = heuristics::min_min(&inst);
        // Vanishingly unlikely that a random individual equals Min-min.
        assert_ne!(pop[0].schedule, minmin);
    }

    #[test]
    fn warm_population_carries_assignments_then_pads_randomly() {
        let inst = EtcInstance::toy(8, 3);
        let config = PaCgaConfig::builder()
            .grid(3, 3)
            .threads(1)
            .termination(Termination::Generations(1))
            .seed(11)
            .build();
        let carried = vec![vec![0u32; 8], vec![1u32; 8]];
        let pop = warm_population(&inst, &config, &carried);
        assert_eq!(pop.len(), 9);
        assert_eq!(pop[0].schedule.assignment(), &[0u32; 8]);
        assert_eq!(pop[1].schedule.assignment(), &[1u32; 8]);
        // Padding is the seeded init stream: deterministic per config seed.
        let again = warm_population(&inst, &config, &carried);
        assert_eq!(pop, again);
    }

    #[test]
    fn warm_population_truncates_oversized_carry() {
        let inst = EtcInstance::toy(4, 2);
        let config = PaCgaConfig::builder()
            .grid(2, 2)
            .threads(1)
            .termination(Termination::Generations(1))
            .build();
        let carried: Vec<Vec<u32>> = (0..9).map(|i| vec![(i % 2) as u32; 4]).collect();
        let pop = warm_population(&inst, &config, &carried);
        assert_eq!(pop.len(), 4);
        for (i, ind) in pop.iter().enumerate() {
            assert_eq!(ind.schedule.assignment(), carried[i].as_slice());
        }
    }

    #[test]
    fn init_population_deterministic_per_seed() {
        let inst = EtcInstance::toy(16, 4);
        let mk = |seed| {
            let config = PaCgaConfig::builder()
                .grid(4, 4)
                .threads(1)
                .termination(Termination::Generations(1))
                .seed(seed)
                .build();
            init_population(&inst, &config)
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }
}
