//! Mann-Whitney U rank-sum test (two-sided, normal approximation with tie
//! correction).
//!
//! The paper's significance statements come from notch overlap (see
//! [`crate::boxplot`]); the harness reports this distribution-free test as
//! a second, sharper check when comparing operator configurations over
//! independent runs.

use serde::{Deserialize, Serialize};

/// Result of a two-sided Mann-Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MannWhitneyResult {
    /// The smaller of U₁ and U₂.
    pub u: f64,
    /// Standardized statistic (0 when both samples have a single value).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
}

/// Error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7) — plenty for
/// test decisions at conventional α levels.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal survival function `P(Z > z)`.
fn normal_sf(z: f64) -> f64 {
    0.5 * (1.0 - erf(z / std::f64::consts::SQRT_2))
}

/// Assigns average ranks to the pooled sample; returns (ranks of `a`'s
/// elements summed, tie-correction term Σ(t³−t)).
fn rank_sum_of_first(a: &[f64], b: &[f64]) -> (f64, f64) {
    let mut pooled: Vec<(f64, bool)> =
        a.iter().map(|&x| (x, true)).chain(b.iter().map(|&x| (x, false))).collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite sample values"));

    let mut r1 = 0.0;
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i;
        while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let tie_len = (j - i + 1) as f64;
        // Average rank of the tied block (1-based ranks i+1 ..= j+1).
        let avg_rank = (i + j + 2) as f64 / 2.0;
        for item in &pooled[i..=j] {
            if item.1 {
                r1 += avg_rank;
            }
        }
        if tie_len > 1.0 {
            tie_term += tie_len * tie_len * tie_len - tie_len;
        }
        i = j + 1;
    }
    (r1, tie_term)
}

/// Two-sided Mann-Whitney U test on two independent samples.
///
/// # Panics
///
/// Panics if either sample is empty or contains non-finite values.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> MannWhitneyResult {
    assert!(!a.is_empty() && !b.is_empty(), "both samples must be non-empty");
    for &x in a.iter().chain(b.iter()) {
        assert!(x.is_finite(), "non-finite sample value {x}");
    }
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    let (r1, tie_term) = rank_sum_of_first(a, b);
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let u2 = n1 * n2 - u1;
    let u = u1.min(u2);

    let n = n1 + n2;
    let mu = n1 * n2 / 2.0;
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var <= 0.0 {
        // All values tied: no evidence of difference.
        return MannWhitneyResult { u, z: 0.0, p_value: 1.0 };
    }
    // Continuity correction toward the mean.
    let z = (u - mu + 0.5).min(0.0) / var.sqrt();
    let p = (2.0 * normal_sf(-z)).min(1.0);
    MannWhitneyResult { u, z, p_value: p }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = mann_whitney_u(&a, &a);
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
        assert!(r.p_value >= 0.05);
    }

    #[test]
    fn disjoint_samples_significant() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
        let r = mann_whitney_u(&a, &b);
        assert_eq!(r.u, 0.0);
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = [1.0, 5.0, 9.0, 12.0];
        let b = [2.0, 4.0, 8.0, 30.0, 31.0];
        let r1 = mann_whitney_u(&a, &b);
        let r2 = mann_whitney_u(&b, &a);
        assert!((r1.u - r2.u).abs() < 1e-12);
        assert!((r1.p_value - r2.p_value).abs() < 1e-9);
    }

    #[test]
    fn known_example_matches_scipy() {
        // scipy.stats.mannwhitneyu([1,2,3], [4,5,6], method="asymptotic",
        // use_continuity=True) -> U=0, p≈0.0765.
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(r.u, 0.0);
        assert!((r.p_value - 0.0765).abs() < 0.005, "p = {}", r.p_value);
    }

    #[test]
    fn ties_handled() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 3.0, 3.0, 4.0];
        let r = mann_whitney_u(&a, &b);
        assert!(r.p_value > 0.05 && r.p_value <= 1.0);
    }

    #[test]
    fn all_tied_gives_p_one() {
        let a = [5.0, 5.0, 5.0];
        let b = [5.0, 5.0];
        let r = mann_whitney_u(&a, &b);
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.z, 0.0);
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7.
        assert!((erf(0.0) - 0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        mann_whitney_u(&[], &[1.0]);
    }
}
