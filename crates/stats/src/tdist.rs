//! Student-t quantiles and confidence intervals.
//!
//! The paper: "All error bars represent a 95% confidence interval computed
//! using the Student's t-distribution, which is appropriate for the small
//! number of samples available."

use crate::special::beta_inc;
use crate::summary::Summary;

/// CDF of the Student-t distribution with `df` degrees of freedom.
pub(crate) fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided quantile: the value `t*` such that
/// `P(-t* <= T <= t*) = confidence` for `T ~ t(df)`.
///
/// Solved by bisection on the CDF; monotonicity makes this robust for any
/// `df >= 1` and `confidence ∈ (0, 1)`.
pub fn t_quantile(confidence: f64, df: usize) -> f64 {
    assert!(
        (0.0..1.0).contains(&confidence) && confidence > 0.0,
        "confidence must be in (0,1), got {confidence}"
    );
    assert!(df >= 1, "need at least one degree of freedom");
    let df = df as f64;
    let target = 0.5 + confidence / 2.0; // upper-tail CDF value
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    // Grow the bracket until it contains the quantile (heavy tails for df=1).
    while t_cdf(hi, df) < target {
        hi *= 2.0;
        assert!(hi < 1e12, "t_quantile bracket blew up");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// A symmetric confidence interval around a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Centre of the interval (the sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// The confidence level the interval was built for (e.g. `0.95`).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub(crate) fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub(crate) fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

/// Student-t confidence interval for the mean of `samples`.
///
/// With a single sample the half-width is zero by convention (no spread
/// information), matching how a lone measurement is plotted without bars.
pub fn confidence_interval(samples: &[f64], confidence: f64) -> ConfidenceInterval {
    let s = Summary::of(samples);
    if s.n < 2 {
        return ConfidenceInterval {
            mean: s.mean,
            half_width: 0.0,
            confidence,
        };
    }
    let t = t_quantile(confidence, s.n - 1);
    ConfidenceInterval {
        mean: s.mean,
        half_width: t * s.std_err(),
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_symmetry() {
        for df in [1.0, 3.0, 5.0, 30.0] {
            for t in [0.1, 0.7, 1.5, 3.0] {
                let up = t_cdf(t, df);
                let down = t_cdf(-t, df);
                assert!((up + down - 1.0).abs() < 1e-12, "df={df} t={t}");
            }
        }
    }

    #[test]
    fn quantile_matches_tables() {
        // Classic two-sided 95% t-table values.
        let cases = [
            (1, 12.706),
            (2, 4.303),
            (5, 2.571),
            (10, 2.228),
            (30, 2.042),
        ];
        for (df, expect) in cases {
            let got = t_quantile(0.95, df);
            assert!(
                (got - expect).abs() < 5e-3,
                "df={df}: got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn quantile_99_gt_95() {
        for df in [2, 5, 9] {
            assert!(t_quantile(0.99, df) > t_quantile(0.95, df));
        }
    }

    #[test]
    fn quantile_approaches_normal() {
        // For large df the 95% two-sided quantile tends to 1.96.
        let got = t_quantile(0.95, 10_000);
        assert!((got - 1.96).abs() < 0.01, "got {got}");
    }

    #[test]
    fn interval_contains_mean_of_tight_data() {
        let ci = confidence_interval(&[10.0, 10.1, 9.9, 10.05, 9.95, 10.0], 0.95);
        assert!(ci.contains(10.0));
        assert!(ci.half_width < 0.2);
        assert!(ci.half_width / ci.mean < 0.02);
    }

    #[test]
    fn single_sample_interval_is_degenerate() {
        let ci = confidence_interval(&[4.2], 0.95);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 4.2);
    }

    #[test]
    fn six_samples_use_five_df() {
        // Matches the paper's setup: >= 6 samples.
        let samples = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0];
        let ci = confidence_interval(&samples, 0.95);
        let s = Summary::of(&samples);
        let expect = t_quantile(0.95, 5) * s.std_err();
        assert!((ci.half_width - expect).abs() < 1e-12);
    }
}
