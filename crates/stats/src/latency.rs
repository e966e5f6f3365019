//! Latency summaries for service load tests.
//!
//! The `pacga bench-serve` load generator records one wall-clock sample
//! per request/response round trip and reports the percentile profile a
//! service operator reads off a dashboard: p50/p90/p99 plus mean and max.
//! Percentiles are type-7 ([`crate::quartiles::percentile`]), matching
//! every other quantile this crate computes.

use crate::descriptive::Descriptive;
use crate::quartiles::percentile;
use serde::{Deserialize, Serialize};

/// A percentile summary of request latencies, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// 50th percentile (median).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest observed request.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a sample of latencies given in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values (a latency sample
    /// is always a measured duration).
    pub fn from_millis(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty latency sample");
        let d = Descriptive::from_sample(samples);
        Self {
            count: samples.len(),
            mean_ms: d.mean,
            p50_ms: percentile(samples, 0.50),
            p90_ms: percentile(samples, 0.90),
            p99_ms: percentile(samples, 0.99),
            max_ms: d.max,
        }
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms (mean {:.2}ms, n={})",
            self.p50_ms, self.p90_ms, self.p99_ms, self.max_ms, self.mean_ms, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ramp_percentiles() {
        // 1..=100 ms: type-7 percentiles interpolate on n-1 gaps.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_millis(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 50.5).abs() < 1e-9);
        assert!((s.p90_ms - 90.1).abs() < 1e-9);
        assert!((s.p99_ms - 99.01).abs() < 1e-9);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_degenerates() {
        let s = LatencySummary::from_millis(&[7.5]);
        assert_eq!(s.p50_ms, 7.5);
        assert_eq!(s.p99_ms, 7.5);
        assert_eq!(s.max_ms, 7.5);
    }

    #[test]
    fn display_mentions_every_percentile() {
        let s = LatencySummary::from_millis(&[1.0, 2.0, 3.0]);
        let text = s.to_string();
        for needle in ["p50", "p90", "p99", "max", "n=3"] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "empty latency sample")]
    fn empty_sample_panics() {
        LatencySummary::from_millis(&[]);
    }
}
