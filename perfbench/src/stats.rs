//! The benchmark's own statistics: the tail-percentile rule, latency
//! split by the response's `cached` flag, the geometric-mean makespan
//! ratio and failure accounting.

use std::collections::BTreeMap;

/// Fewest samples a reported percentile must leave beyond itself.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile ladder the tail rule picks from, in per mille,
/// highest last.
const LADDER_PER_MILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest percentile of the ladder (p50, p90, p99, p99.9) with at
/// least [`TAIL_SAMPLES`] samples beyond it, or `None` below 20 samples
/// (not even the median qualifies then).
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE.iter().copied().rfind(|&pm| tail_ok(pm, n)).map(|pm| pm as f64 / 10.0)
}

/// Whether `p` may be reported from `n` samples: at least
/// [`TAIL_SAMPLES`] of them must lie beyond it, so a p90 needs 100.
pub fn percentile_allowed(p: f64, n: usize) -> bool {
    tail_ok((p * 10.0).round() as u64, n)
}

/// Exact integer form of `n × (1 − pm/1000) ≥ TAIL_SAMPLES`.
fn tail_ok(per_mille: u64, n: usize) -> bool {
    n as u64 * (1000 - per_mille.min(1000)) >= TAIL_SAMPLES as u64 * 1000
}

/// The `p`-th percentile of `values` by linear interpolation between
/// order statistics, or `None` when the tail rule forbids it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !percentile_allowed(p, values.len()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(&sorted, p))
}

/// Linear-interpolated percentile of already sorted, non-empty values.
fn interpolate(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of any non-empty sample set (no tail rule: set-up probes are
/// few by design and report only their median).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    interpolate(&sorted, 50.0)
}

/// Geometric mean of positive ratios; `NaN` when empty or any ratio is
/// not a positive finite number.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() || ratios.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Round-trip latencies split by the response's `cached` flag, so hits
/// and misses never pool into one distribution.
#[derive(Debug, Default, Clone)]
pub struct HitMiss {
    /// `cached: true` responses, ms.
    pub hit: Vec<f64>,
    /// `cached: false` responses, ms.
    pub miss: Vec<f64>,
}

impl HitMiss {
    /// Files one answered request under its `cached` flag.
    pub fn record(&mut self, cached: bool, ms: f64) {
        if cached {
            self.hit.push(ms);
        } else {
            self.miss.push(ms);
        }
    }

    /// Merges another client's samples.
    pub fn extend(&mut self, other: HitMiss) {
        self.hit.extend(other.hit);
        self.miss.extend(other.miss);
    }
}

/// Attempted/failed operation accounting. A failed operation (an
/// `error` or `busy` answer, a timeout, a failed output check) records
/// no latency, so it counts against every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, by the first check they failed.
    pub failures: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one attempt; returns whether it succeeded. `check` is the
    /// first failed check's description, or `None` for success.
    pub fn record(&mut self, check: Option<String>) -> bool {
        self.attempted += 1;
        match check {
            None => true,
            Some(why) => {
                *self.failures.entry(why).or_insert(0) += 1;
                false
            }
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failed ÷ attempted (0 with nothing attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Merges another tally.
    pub fn extend(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (why, n) in other.failures {
            *self.failures.entry(why).or_insert(0) += n;
        }
    }
}

/// Classifies one schedule answer's `type`: only `result` succeeds;
/// `busy`, `error` and anything else fail with the reason.
pub fn answer_failure(kind: &str) -> Option<String> {
    match kind {
        "result" | "stream_result" => None,
        "busy" => Some("answered busy".into()),
        "error" | "stream_error" => Some(format!("answered {kind}")),
        other => Some(format!("unexpected answer type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn no_p90_from_fewer_than_100_samples() {
        let values: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), None);
        assert!(percentile(&values, 50.0).is_some());
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&values, 90.0).expect("100 samples allow a p90");
        assert!((p90 - 89.1).abs() < 1e-9, "{p90}");
        assert_eq!(percentile(&values, 50.0), Some(49.5));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&values, 90.0);
        values.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&values, 90.0));
    }

    #[test]
    fn hit_miss_split_follows_the_cached_flag() {
        let mut split = HitMiss::default();
        split.record(true, 0.7);
        split.record(false, 80.0);
        split.record(true, 0.9);
        assert_eq!(split.hit, vec![0.7, 0.9]);
        assert_eq!(split.miss, vec![80.0]);
        let mut other = HitMiss::default();
        other.record(false, 90.0);
        split.extend(other);
        assert_eq!(split.miss, vec![80.0, 90.0]);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn busy_error_and_timeout_fail_and_carry_no_latency() {
        let mut tally = Tally::default();
        let mut latencies = Vec::new();
        for (answer, ms) in [("result", 1.0), ("busy", 2.0), ("error", 3.0), ("result", 4.0)] {
            if tally.record(answer_failure(answer)) {
                latencies.push(ms);
            }
        }
        assert!(!tally.record(Some("timed out after 30s".into())));
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.failed(), 3);
        assert_eq!(latencies, vec![1.0, 4.0]);
        assert!((tally.fail_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(tally.failures.get("answered busy"), Some(&1));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
