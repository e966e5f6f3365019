//! Time-to-recover metrics for dynamic rescheduling.
//!
//! A schedule-stream session answers every grid event twice over: the
//! **warm** path repairs the previous PA-CGA population and resumes
//! evolution, the **cold** path restarts from scratch with the same
//! evaluation budget. Each event yields one [`RecoverySample`]; a
//! [`RecoveryStats`] accumulator folds them into the profile the chaos
//! harness asserts on — recovery wall-clock percentiles plus the
//! warm-vs-cold win ledger.
//!
//! "Recovery" is deliberately defined in *evaluations*, not wall-clock:
//! `recovery_evals` is how many post-repair evaluations the warm path
//! needed before its best makespan first matched the cold restart's
//! final best. The engine is deterministic at `threads = 1`, so this
//! quantity is exactly reproducible across runs and hosts — the CI
//! assertion that warm-start beats cold restart never flakes on machine
//! speed. Wall-clock (`recovery_ms`, the warm path's wall time) is still
//! recorded and reported (p50/p99) because it is what an operator
//! experiences.

use crate::latency::LatencySummary;
use serde::{Deserialize, Serialize};

/// What one reschedule event measured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoverySample {
    /// Warm-path wall time, in ms: from the event being applied to the
    /// last warm chunk finishing (an overlapped cold run excluded).
    pub recovery_ms: f64,
    /// Post-repair evaluations until the warm best first reached the
    /// cold restart's final best (`budget_evals` if it never did).
    pub recovery_evals: u64,
    /// The per-event evaluation budget both paths were given.
    pub budget_evals: u64,
    /// Warm best makespan after the full budget.
    pub warm_makespan: f64,
    /// Cold-restart best makespan after the full budget.
    pub cold_makespan: f64,
}

impl RecoverySample {
    /// Did the warm start beat the cold restart on time-to-recover?
    /// True iff the warm path reached the cold path's final quality
    /// strictly before spending the full budget the cold path needed.
    pub fn warm_wins(&self) -> bool {
        self.recovery_evals < self.budget_evals
    }

    /// Makespan delta versus the cold restart (negative = warm better).
    pub fn delta_vs_cold(&self) -> f64 {
        self.warm_makespan - self.cold_makespan
    }
}

/// Accumulated recovery profile over a session or chaos run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    samples: Vec<RecoverySample>,
}

impl RecoveryStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event's sample.
    pub fn record(&mut self, sample: RecoverySample) {
        self.samples.push(sample);
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in event order.
    pub fn samples(&self) -> &[RecoverySample] {
        &self.samples
    }

    /// Events where the warm start recovered before the cold budget.
    pub fn warm_wins(&self) -> usize {
        self.samples.iter().filter(|s| s.warm_wins()).count()
    }

    /// Events where it did not.
    pub fn warm_losses(&self) -> usize {
        self.samples.len() - self.warm_wins()
    }

    /// Mean evaluations the warm path saved versus the cold budget.
    pub fn mean_evals_saved(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let saved: u64 =
            self.samples.iter().map(|s| s.budget_evals.saturating_sub(s.recovery_evals)).sum();
        saved as f64 / self.samples.len() as f64
    }

    /// Recovery wall-clock percentile profile; `None` when empty.
    pub fn latency(&self) -> Option<LatencySummary> {
        if self.samples.is_empty() {
            return None;
        }
        let ms: Vec<f64> = self.samples.iter().map(|s| s.recovery_ms).collect();
        Some(LatencySummary::from_millis(&ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(recovery_evals: u64, budget: u64, warm: f64, cold: f64, ms: f64) -> RecoverySample {
        RecoverySample {
            recovery_ms: ms,
            recovery_evals,
            budget_evals: budget,
            warm_makespan: warm,
            cold_makespan: cold,
        }
    }

    #[test]
    fn win_iff_recovered_under_budget() {
        assert!(sample(0, 1000, 9.0, 10.0, 1.0).warm_wins());
        assert!(sample(999, 1000, 10.0, 10.0, 1.0).warm_wins());
        assert!(!sample(1000, 1000, 11.0, 10.0, 1.0).warm_wins());
    }

    #[test]
    fn ledger_and_rates() {
        let mut stats = RecoveryStats::new();
        assert!(stats.is_empty());
        assert!(stats.latency().is_none());
        stats.record(sample(100, 1000, 9.0, 10.0, 2.0));
        stats.record(sample(1000, 1000, 12.0, 10.0, 8.0));
        stats.record(sample(0, 1000, 8.0, 10.0, 4.0));
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.warm_wins(), 2);
        assert_eq!(stats.warm_losses(), 1);
        // Saved: 900 + 0 + 1000 over 3 events.
        assert!((stats.mean_evals_saved() - 1900.0 / 3.0).abs() < 1e-9);
        let lat = stats.latency().unwrap();
        assert_eq!(lat.count, 3);
        assert_eq!(lat.max_ms, 8.0);
    }

    #[test]
    fn delta_vs_cold_signs() {
        assert!(sample(0, 10, 9.0, 10.0, 0.0).delta_vs_cold() < 0.0);
        assert!(sample(10, 10, 11.0, 10.0, 0.0).delta_vs_cold() > 0.0);
    }
}
