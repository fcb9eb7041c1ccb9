//! Comparative results with compounded errors.
//!
//! The paper: "In the case of comparative results, errors are compounded as
//! would be expected, i.e. comparative minimum is test case minimum divided by
//! base case maximum." This module implements that rule for relative
//! performance (`base_time / test_time`, so values < 1 mean slowdown when the
//! samples are execution times).

use crate::summary::Summary;

/// A comparison of a test case against a base case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Ratio of geometric means (the headline relative-performance number).
    pub ratio: f64,
    /// Conservative lower bound: `test.min / base.max`.
    pub min: f64,
    /// Conservative upper bound: `test.max / base.min`.
    pub max: f64,
    /// Number of samples in the test case.
    pub n_test: usize,
    /// Number of samples in the base case.
    pub n_base: usize,
}

impl Comparison {
    /// Build a comparison from execution **times** (lower = better) by
    /// converting to relative performance `base_time / test_time`.
    pub fn of_times(test_times: &[f64], base_times: &[f64]) -> Self {
        let t = Summary::of(test_times);
        let b = Summary::of(base_times);
        Comparison {
            ratio: b.gmean / t.gmean,
            // Worst relative performance: slowest test vs fastest base.
            min: b.min / t.max,
            max: b.max / t.min,
            n_test: t.n,
            n_base: b.n,
        }
    }

    /// Whether the comparison is statistically distinguishable from "no
    /// change" under the conservative min/max rule: the whole compounded
    /// interval lies on one side of 1.0.
    pub fn significant(&self) -> bool {
        self.min > 1.0 || self.max < 1.0
    }

    /// Percentage change implied by the ratio (e.g. `-12.5` for the paper's
    /// POWER7 `sync` result).
    pub fn percent_change(&self) -> f64 {
        (self.ratio - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_ratio_one() {
        let s = [1.0, 1.1, 0.9];
        let c = Comparison::of_times(&s, &s);
        assert!((c.ratio - 1.0).abs() < 1e-12);
        assert!(c.min < 1.0 && c.max > 1.0);
        assert!(!c.significant());
    }

    #[test]
    fn clear_slowdown_is_significant() {
        let base = [1.00, 1.01, 0.99];
        let test = [1.25, 1.26, 1.24];
        let c = Comparison::of_times(&test, &base);
        assert!(c.ratio < 0.85);
        assert!(c.significant());
        assert!(c.percent_change() < -15.0);
    }

    #[test]
    fn time_based_comparison_inverts() {
        // Test takes twice as long => relative performance 0.5.
        let base_t = [10.0, 10.0];
        let test_t = [20.0, 20.0];
        let c = Comparison::of_times(&test_t, &base_t);
        assert!((c.ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compounding_rule_matches_paper() {
        // Relative performance is base time / test time: the slowest test
        // run against the fastest base run bounds it from below.
        let base = [2.0, 4.0]; // min 2.0, max 4.0
        let test = [1.0, 2.0]; // min 1.0, max 2.0
        let c = Comparison::of_times(&test, &base);
        assert_eq!(c.min, 2.0 / 2.0);
        assert_eq!(c.max, 4.0 / 1.0);
    }
}
