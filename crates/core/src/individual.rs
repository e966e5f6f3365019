//! One cell of the cellular population: a schedule plus its cached fitness.

use scheduling::Schedule;
use serde::{Deserialize, Serialize};

/// An individual: a candidate schedule and its fitness (makespan; lower is
/// better).
///
/// Fitness is cached so that neighbors can inspect it under a brief read
/// lock without recomputing, and is refreshed by [`Individual::evaluate`]
/// after the variation operators run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    /// The candidate solution.
    pub schedule: Schedule,
    /// Cached makespan of `schedule`.
    pub fitness: f64,
}

impl Individual {
    /// Wraps a schedule, computing its fitness.
    pub fn new(schedule: Schedule) -> Self {
        let fitness = schedule.makespan();
        Self { schedule, fitness }
    }

    /// The paper's `evaluate()`: refreshes the cached fitness from the
    /// schedule's completion times (O(#machines)) and returns it.
    pub fn evaluate(&mut self) -> f64 {
        self.fitness = self.schedule.makespan();
        self.fitness
    }

    /// Makespan accessor (cached fitness).
    #[inline]
    pub fn makespan(&self) -> f64 {
        self.fitness
    }

    /// The cached fitness as its raw `u64` bit pattern — what the parallel
    /// engine publishes through each cell's `AtomicU64` mirror (DESIGN.md
    /// §7). Publishing all 64 bits in one atomic store is what makes
    /// lock-free neighborhood fitness reads tear-free: a concurrent reader
    /// observes either the old or the new fitness, never a hybrid.
    #[inline]
    pub fn fitness_bits(&self) -> u64 {
        self.fitness.to_bits()
    }

    /// Copies `other` into `self` without reallocating (hot path under a
    /// write lock).
    pub fn copy_from(&mut self, other: &Individual) {
        self.schedule.copy_from(&other.schedule);
        self.fitness = other.fitness;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::EtcInstance;

    #[test]
    fn new_caches_fitness() {
        let inst = EtcInstance::toy(6, 2);
        let s = Schedule::round_robin(&inst);
        let ind = Individual::new(s.clone());
        assert_eq!(ind.fitness, s.makespan());
    }

    #[test]
    fn evaluate_refreshes_after_mutation() {
        let inst = EtcInstance::toy(6, 2);
        let mut ind = Individual::new(Schedule::round_robin(&inst));
        let before = ind.fitness;
        // Pile everything onto the slow machine 1 and re-evaluate.
        for t in 0..6 {
            ind.schedule.move_task(&inst, t, 1);
        }
        assert_eq!(ind.fitness, before, "fitness is cached until evaluate()");
        let after = ind.evaluate();
        assert!(after > before);
        assert_eq!(ind.fitness, after);
    }

    #[test]
    fn fitness_bits_round_trip() {
        let inst = EtcInstance::toy(6, 2);
        let ind = Individual::new(Schedule::round_robin(&inst));
        assert_eq!(f64::from_bits(ind.fitness_bits()), ind.fitness);
    }

    #[test]
    fn copy_from_equals_clone() {
        let inst = EtcInstance::toy(4, 2);
        let a = Individual::new(Schedule::round_robin(&inst));
        let mut b = Individual::new(Schedule::from_assignment(&inst, vec![0, 0, 0, 0]));
        b.copy_from(&a);
        assert_eq!(a, b);
    }
}
