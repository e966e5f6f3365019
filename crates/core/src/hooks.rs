//! Engine run hooks: periodic checkpoint callbacks and cooperative
//! cancellation.
//!
//! The durable job manager (`pa_cga_service::jobs`) needs two things the
//! plain `run()` entry points cannot give it: a **periodic snapshot** of
//! the evolving population (to write crash-safe checkpoints every N
//! generations) and a way to **stop a run early** without killing the
//! thread (graceful daemon drain, `job.stop`). Both ride through
//! [`RunHooks`], threaded into the parallel engine by
//! [`crate::engine::PaCga::run_hooked`]. The synchronous engine takes no
//! hooks.
//!
//! Cost discipline: with no hooks installed the evolution kernel pays one
//! branch per block sweep — nothing per cell, nothing per evaluation — so
//! the hot path stays inside perfbench braun-batch's `evals_per_s` bound.

use crate::individual::Individual;
use std::sync::atomic::{AtomicBool, Ordering};

/// What a checkpoint callback observes: a point-in-time copy of the
/// population plus the observing thread's progress counters.
///
/// The snapshot is taken by thread 0 of [`crate::engine::PaCga::run_hooked`]
/// cloning every cell under its read lock — cells owned by other threads may be from
/// slightly different sweeps (the same staleness the asynchronous model
/// already tolerates), but every individual is internally consistent.
/// Consumers should treat the snapshot as gene vectors + fitness values
/// (exactly what [`crate::checkpoint`] persists); mid-run clones may
/// carry a deferred schedule index, so index-dependent accessors are out
/// of contract.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Completed block sweeps of the snapshotting thread (thread 0).
    pub generation: u64,
    /// Evaluations globally accounted at snapshot time (the shared
    /// counter; the snapshotting thread has just flushed its own shard).
    pub evaluations: u64,
    /// The population copy.
    pub population: &'a [Individual],
}

impl CheckpointView<'_> {
    /// Best (lowest) fitness in the snapshot.
    pub fn best_fitness(&self) -> f64 {
        self.population.iter().map(|ind| ind.fitness).fold(f64::INFINITY, f64::min)
    }
}

/// Optional per-run hooks. The default ([`RunHooks::none`]) is inert.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Fire [`RunHooks::on_checkpoint`] every this many generations of
    /// the snapshotting thread (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Checkpoint callback; runs on the engine's thread 0, so a slow
    /// callback stalls only that thread's block.
    pub on_checkpoint: Option<&'a (dyn Fn(&CheckpointView<'_>) + Sync)>,
    /// Cooperative cancel flag, checked once per block sweep by every
    /// engine thread. The run winds down at the next sweep boundary and
    /// returns its partial outcome; the caller distinguishes "cancelled"
    /// from "terminated" by reading its own flag.
    pub cancel: Option<&'a AtomicBool>,
}

impl<'a> RunHooks<'a> {
    /// Inert hooks: no checkpoints, never cancelled.
    pub fn none() -> Self {
        Self::default()
    }

    /// True once the cancel flag (if any) has been raised.
    ///
    /// Publication contract: raisers store `true` with `Release` after
    /// writing any companion state (e.g. the job manager's `stop_kind`
    /// discriminator); the `Acquire` load here makes that state visible
    /// to whoever joins the wound-down run.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        // ord: Acquire — pairs with the Release store in job stop/drain
        // paths so state written before raising the flag (stop_kind) is
        // visible after the engine observes the cancel.
        self.cancel.is_some_and(|c| c.load(Ordering::Acquire))
    }

    /// True when a checkpoint is due at `generation` (which is 1-based:
    /// the count *after* completing a sweep).
    #[inline]
    pub fn checkpoint_due(&self, generation: u64) -> bool {
        self.checkpoint_every > 0
            && self.on_checkpoint.is_some()
            && generation.is_multiple_of(self.checkpoint_every)
    }
}

impl std::fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHooks")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_hooks_never_fire() {
        let hooks = RunHooks::none();
        assert!(!hooks.is_cancelled());
        for g in 0..10 {
            assert!(!hooks.checkpoint_due(g));
        }
    }

    #[test]
    fn checkpoint_cadence() {
        let noop = |_: &CheckpointView<'_>| {};
        let hooks = RunHooks { checkpoint_every: 3, on_checkpoint: Some(&noop), cancel: None };
        let due: Vec<u64> = (1..=9).filter(|&g| hooks.checkpoint_due(g)).collect();
        assert_eq!(due, vec![3, 6, 9]);
        // Cadence without a callback is inert.
        let silent = RunHooks { checkpoint_every: 3, ..RunHooks::none() };
        assert!(!silent.checkpoint_due(3));
    }

    #[test]
    fn cancel_flag_observed() {
        let flag = AtomicBool::new(false);
        let hooks = RunHooks { cancel: Some(&flag), ..RunHooks::none() };
        assert!(!hooks.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(hooks.is_cancelled());
    }
}
