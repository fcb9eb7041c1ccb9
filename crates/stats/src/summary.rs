//! Summary statistics over sample sets.
//!
//! The paper reports the **geometric mean** of six or more samples (to reduce
//! the impact of outliers), plus minima/maxima for the comparative error
//! rule, and the sample standard deviation feeding the Student-t interval.

/// Summary statistics of a set of (strictly positive) performance samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Geometric mean (the paper's headline aggregate).
    pub gmean: f64,
    /// Unbiased sample variance (denominator `n - 1`).
    pub variance: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise a non-empty slice of samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains non-finite values, or if a
    /// sample is non-positive (performance figures are times or rates and the
    /// geometric mean requires positivity).
    pub fn of(samples: &[f64]) -> Self {
        assert!(
            !samples.is_empty(),
            "Summary::of requires at least one sample"
        );
        let n = samples.len();
        let mut sum = 0.0;
        let mut log_sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in samples {
            assert!(s.is_finite(), "non-finite sample {s}");
            assert!(s > 0.0, "non-positive sample {s}");
            sum += s;
            log_sum += s.ln();
            min = min.min(s);
            max = max.max(s);
        }
        let mean = sum / n as f64;
        let gmean = (log_sum / n as f64).exp();
        let variance = if n > 1 {
            samples.iter().map(|&s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            gmean,
            variance,
            min,
            max,
        }
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean, `s / sqrt(n)`.
    pub(crate) fn std_err(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples() {
        let s = Summary::of(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.gmean, 2.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn gmean_le_amean() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]);
        assert!(s.gmean < s.mean, "AM-GM inequality");
        assert!((s.gmean - 2.828_427_124_746_190_3).abs() < 1e-12);
        assert_eq!(s.mean, 3.75);
    }

    #[test]
    fn variance_known_value() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert!((s.variance - 1.0).abs() < 1e-12);
        assert!((s.std_err() - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn rejects_nonpositive() {
        Summary::of(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        Summary::of(&[]);
    }
}
