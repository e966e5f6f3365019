//! Descriptive statistics over a sample of run results.

use serde::{Deserialize, Serialize};

/// Summary statistics of a non-empty sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Descriptive {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n = 1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Descriptive {
    /// Computes the summary.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    pub fn from_sample(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "empty sample");
        let n = sample.len();
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in sample {
            assert!(x.is_finite(), "non-finite sample value {x}");
            sum += x;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = sum / n as f64;
        let std_dev = if n > 1 {
            let ss: f64 = sample.iter().map(|&x| (x - mean) * (x - mean)).sum();
            (ss / (n as f64 - 1.0)).sqrt()
        } else {
            0.0
        };
        Self { n, mean, std_dev, min, max }
    }

    /// Coefficient of variation (`std/mean`), 0 if the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let d = Descriptive::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(d.n, 8);
        assert!((d.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic dataset is sqrt(32/7).
        assert!((d.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
    }

    #[test]
    fn single_element() {
        let d = Descriptive::from_sample(&[3.5]);
        assert_eq!(d.mean, 3.5);
        assert_eq!(d.std_dev, 0.0);
    }

    #[test]
    fn cv_and_std_err() {
        let d = Descriptive::from_sample(&[1.0, 3.0]);
        assert_eq!(d.mean, 2.0);
        assert!((d.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((d.cv() - std::f64::consts::SQRT_2 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_zero_mean() {
        let d = Descriptive::from_sample(&[-1.0, 1.0]);
        assert_eq!(d.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        Descriptive::from_sample(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_panics() {
        Descriptive::from_sample(&[1.0, f64::NAN]);
    }
}
