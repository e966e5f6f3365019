//! The paper's speedup metric (Eq. 5).
//!
//! Because the stop condition is fixed wall time, the paper replaces
//! `time(1)/time(n)` with the ratio of **total evaluations performed**:
//! `S(n) = #evaluations(n) / #evaluations(1)`, plotted as a percentage
//! ("Evaluations increase %", Figure 4 — 100% means no speedup).

/// Converts mean evaluation counts per thread count into Figure 4's
/// percentage series. `evals[i]` is the mean evaluation count with `i+1`
/// threads; `evals\[0\]` is the single-thread baseline.
///
/// # Panics
///
/// Panics if `evals` is empty or the baseline is zero/non-finite.
pub fn speedup_percentages(evals: &[f64]) -> Vec<f64> {
    assert!(!evals.is_empty(), "need at least the 1-thread baseline");
    let base = evals[0];
    assert!(base.is_finite() && base > 0.0, "baseline evaluations must be positive");
    evals.iter().map(|&e| 100.0 * e / base).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_100_percent() {
        let s = speedup_percentages(&[50_000.0, 90_000.0, 120_000.0]);
        assert_eq!(s[0], 100.0);
        assert_eq!(s[1], 180.0);
        assert_eq!(s[2], 240.0);
    }

    #[test]
    fn degradation_below_100() {
        let s = speedup_percentages(&[50_000.0, 40_000.0]);
        assert_eq!(s[1], 80.0);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        speedup_percentages(&[0.0, 10.0]);
    }
}
