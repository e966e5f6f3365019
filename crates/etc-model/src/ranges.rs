//! Processing-time ranges, used for the Blazewicz notation and for
//! validating regenerated instances against the ranges the paper prints.

use serde::{Deserialize, Serialize};

/// The `[min, max]` range of ETC entries (`p_j`) in an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtcRange {
    /// Smallest processing time.
    pub min: f64,
    /// Largest processing time.
    pub max: f64,
}

impl EtcRange {
    /// Creates a range; panics if `min > max` or either bound is invalid.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min.is_finite() && max.is_finite() && min <= max, "invalid range [{min}, {max}]");
        Self { min, max }
    }

    /// Ratio `max/min`, a crude heterogeneity indicator.
    pub fn spread(&self) -> f64 {
        self.max / self.min
    }

    /// Same order of magnitude on both ends (log10 distance below `tol`).
    pub fn same_magnitude(&self, other: &EtcRange, tol: f64) -> bool {
        (self.max.log10() - other.max.log10()).abs() <= tol
            && (self.min.log10() - other.min.log10()).abs() <= tol + 1.0
    }
}

impl std::fmt::Display for EtcRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ≤ pj ≤ {:.2}", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let r = EtcRange::new(1.44, 975.3);
        assert_eq!(r.to_string(), "1.44 ≤ pj ≤ 975.30");
    }

    #[test]
    fn spread() {
        let r = EtcRange::new(2.0, 20.0);
        assert_eq!(r.spread(), 10.0);
    }

    #[test]
    fn same_magnitude() {
        let a = EtcRange::new(26.48, 2_892_648.25);
        let b = EtcRange::new(40.0, 2_500_000.0);
        assert!(a.same_magnitude(&b, 0.5));
        let c = EtcRange::new(1.0, 1000.0);
        assert!(!a.same_magnitude(&c, 0.5));
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_panics() {
        EtcRange::new(2.0, 1.0);
    }
}
