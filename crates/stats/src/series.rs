//! Aggregation of per-generation traces across independent runs (Figure 6).
//!
//! Each run (and, inside the parallel engine, each thread) produces a trace
//! of `(generation, value)` points at its own pace; the asynchronous model
//! means different runs reach different generation counts. The aggregator
//! buckets points by generation index and reports the mean value per
//! generation over every run that reached it, which is exactly how the
//! paper plots "mean makespan vs generations" for each thread count.

use serde::{Deserialize, Serialize};

/// One aggregated point of the output series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Generation index.
    pub generation: usize,
    /// Mean value across contributing runs.
    pub mean: f64,
    /// How many runs contributed (runs that reached this generation).
    pub count: usize,
}

/// Accumulates traces and produces a per-generation mean series.
#[derive(Debug, Default, Clone)]
pub struct TraceAggregator {
    /// sums[g] and counts[g] over contributed traces.
    sums: Vec<f64>,
    counts: Vec<usize>,
}

impl TraceAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one run's trace: `trace[g]` is the value at generation `g`.
    pub fn add_trace(&mut self, trace: &[f64]) {
        if trace.len() > self.sums.len() {
            self.sums.resize(trace.len(), 0.0);
            self.counts.resize(trace.len(), 0);
        }
        for (g, &v) in trace.iter().enumerate() {
            self.sums[g] += v;
            self.counts[g] += 1;
        }
    }

    /// Number of generations with at least one contribution.
    pub fn len(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// True when nothing was added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The aggregated series, skipping generations nobody reached.
    pub fn series(&self) -> Vec<SeriesPoint> {
        (0..self.sums.len())
            .filter(|&g| self.counts[g] > 0)
            .map(|g| SeriesPoint {
                generation: g,
                mean: self.sums[g] / self.counts[g] as f64,
                count: self.counts[g],
            })
            .collect()
    }

    /// The series restricted to generations reached by at least
    /// `min_count` runs — avoids the noisy tail where few long runs remain.
    pub fn series_with_support(&self, min_count: usize) -> Vec<SeriesPoint> {
        self.series().into_iter().filter(|p| p.count >= min_count).collect()
    }
}

/// Keeps roughly `max_points` evenly spaced elements, always retaining the
/// first and last.
pub fn downsample(series: &[SeriesPoint], max_points: usize) -> Vec<SeriesPoint> {
    assert!(max_points >= 2, "need at least two points");
    if series.len() <= max_points {
        return series.to_vec();
    }
    let stride = (series.len() - 1) as f64 / (max_points - 1) as f64;
    (0..max_points).map(|i| series[(i as f64 * stride).round() as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_over_equal_length_traces() {
        let mut agg = TraceAggregator::new();
        agg.add_trace(&[10.0, 8.0, 6.0]);
        agg.add_trace(&[20.0, 12.0, 8.0]);
        let s = agg.series();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].mean, 15.0);
        assert_eq!(s[1].mean, 10.0);
        assert_eq!(s[2].mean, 7.0);
        assert!(s.iter().all(|p| p.count == 2));
    }

    #[test]
    fn ragged_traces_tracked_by_count() {
        let mut agg = TraceAggregator::new();
        agg.add_trace(&[10.0, 8.0]);
        agg.add_trace(&[20.0]);
        let s = agg.series();
        assert_eq!(s[0], SeriesPoint { generation: 0, mean: 15.0, count: 2 });
        assert_eq!(s[1], SeriesPoint { generation: 1, mean: 8.0, count: 1 });
    }

    #[test]
    fn support_filter() {
        let mut agg = TraceAggregator::new();
        agg.add_trace(&[10.0, 8.0]);
        agg.add_trace(&[20.0]);
        let s = agg.series_with_support(2);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].generation, 0);
    }

    #[test]
    fn empty_behaviour() {
        let agg = TraceAggregator::new();
        assert!(agg.is_empty());
        assert!(agg.series().is_empty());
    }

    #[test]
    fn downsample_keeps_ends() {
        let series: Vec<SeriesPoint> =
            (0..100).map(|g| SeriesPoint { generation: g, mean: g as f64, count: 1 }).collect();
        let d = downsample(&series, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].generation, 0);
        assert_eq!(d[4].generation, 99);
    }

    #[test]
    fn downsample_short_series_passthrough() {
        let series: Vec<SeriesPoint> =
            (0..3).map(|g| SeriesPoint { generation: g, mean: 0.0, count: 1 }).collect();
        assert_eq!(downsample(&series, 10).len(), 3);
    }
}
