//! # Deterministic list heuristics for ETC scheduling
//!
//! The classic static mapping heuristics of Braun et al. (JPDC 2001) and
//! Ibarra & Kim (JACM 1977). The PA-CGA paper uses **Min-min** to seed one
//! individual of the population (Table 1) and points to these heuristics
//! as the right tool for near-homogeneous instances (§4.2).
//!
//! All heuristics are deterministic given the instance (ties break to the
//! lowest index), run in at most O(n²·m), and return a fully valid
//! [`Schedule`].
//!
//! | Heuristic | Strategy |
//! |---|---|
//! | [`olb`] | next task → machine that becomes ready soonest (ignores ETC) |
//! | [`met`] | next task → machine with minimal execution time (ignores load) |
//! | [`mct`] | next task → machine with minimal completion time |
//! | [`min_min`] | repeatedly schedule the task with the *smallest* best completion time |
//! | [`max_min`] | repeatedly schedule the task with the *largest* best completion time |
//! | [`sufferage`] | repeatedly schedule the task that would *suffer* most if denied its best machine |
//! | [`duplex`] | better of Min-min and Max-min |
//!
//! [`cohort`] builds all of them at once, in [`Heuristic::all`] order.

pub mod immediate;
pub mod iterative;

pub use immediate::{mct, met, olb};
pub use iterative::{duplex, max_min, min_min, min_min_scan, sufferage};

use etc_model::EtcInstance;
use scheduling::Schedule;

/// Name-indexed access to every heuristic, for harnesses and CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Opportunistic Load Balancing.
    Olb,
    /// Minimum Execution Time.
    Met,
    /// Minimum Completion Time.
    Mct,
    /// Min-min (Ibarra & Kim) — the paper's seeding heuristic.
    MinMin,
    /// Max-min.
    MaxMin,
    /// Sufferage (Maheswaran et al.).
    Sufferage,
    /// Duplex: better of Min-min and Max-min.
    Duplex,
}

impl Heuristic {
    /// Every implemented heuristic.
    pub fn all() -> [Heuristic; 7] {
        [
            Heuristic::Olb,
            Heuristic::Met,
            Heuristic::Mct,
            Heuristic::MinMin,
            Heuristic::MaxMin,
            Heuristic::Sufferage,
            Heuristic::Duplex,
        ]
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::Olb => "olb",
            Heuristic::Met => "met",
            Heuristic::Mct => "mct",
            Heuristic::MinMin => "min-min",
            Heuristic::MaxMin => "max-min",
            Heuristic::Sufferage => "sufferage",
            Heuristic::Duplex => "duplex",
        }
    }

    /// Runs the heuristic on an instance.
    pub fn schedule(self, instance: &EtcInstance) -> Schedule {
        match self {
            Heuristic::Olb => olb(instance),
            Heuristic::Met => met(instance),
            Heuristic::Mct => mct(instance),
            Heuristic::MinMin => min_min(instance),
            Heuristic::MaxMin => max_min(instance),
            Heuristic::Sufferage => sufferage(instance),
            Heuristic::Duplex => duplex(instance),
        }
    }
}

/// Every heuristic's schedule, in [`Heuristic::all`] order: equal, entry
/// for entry, to `Heuristic::all().map(|h| h.schedule(instance))`. Duplex
/// is taken from the Min-min and Max-min schedules just built instead of
/// running both again.
pub fn cohort(instance: &EtcInstance) -> [Schedule; 7] {
    let min_min = min_min(instance);
    let max_min = max_min(instance);
    let duplex = if iterative::duplex_keeps_min_min(&min_min, &max_min) {
        min_min.clone()
    } else {
        max_min.clone()
    };
    [olb(instance), met(instance), mct(instance), min_min, max_min, sufferage(instance), duplex]
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduling::check_schedule;

    #[test]
    fn all_heuristics_produce_valid_schedules() {
        let inst = EtcInstance::toy(12, 4);
        for h in Heuristic::all() {
            let s = h.schedule(&inst);
            assert!(check_schedule(&inst, &s).is_ok(), "{h} invalid");
            assert!(s.makespan() > 0.0, "{h} zero makespan");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Heuristic::all().iter().map(|h| h.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
