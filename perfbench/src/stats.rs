//! Order statistics over a run's samples.
//!
//! Every reported figure is a median with its sample count. Timings also
//! carry their quartiles and the highest standard percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail is never
//! read off a handful of points. There is deliberately no best-of-N.

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile levels a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Which side of a distribution is the bad tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput): the tail is the low side.
    Higher,
    /// Smaller is better (time, memory): the tail is the high side.
    Lower,
}

/// Summary of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(level, value)` of the highest percentile on the bad side with at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, if the sample count
    /// allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64], better: Better) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
            tail: tail(&sorted, better),
        })
    }

    /// Interquartile range as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Median of an ascending-sorted, non-empty slice.
#[must_use]
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles of an ascending-sorted, non-empty slice, by
/// the exclusive method (Python's `statistics.quantiles(data, n=4)`), so
/// spreads read the same here as in any script that checks them.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Rank i*m/4 (1-based), interpolated between its neighbours. The
        // rank is clamped to the data, the weight is not: small samples
        // extrapolate, exactly as Python does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest level in [`TAIL_LEVELS`] whose nearest-rank value leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it on the bad side.
fn tail(sorted: &[f64], better: Better) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LEVELS.iter().find_map(|&level| {
        let rank = ((level / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| {
            let value = match better {
                Better::Lower => sorted[rank - 1],
                // Mirror image: the level-th worst throughput from below.
                Better::Higher => sorted[n - rank],
            };
            (level, value)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), (2.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 10 samples: not even the median leaves 10 beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, Better::Lower), None);
        // 20 samples: the median (rank 10) leaves exactly 10.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, Better::Lower), Some((50.0, 10.0)));
        // 200 samples: p95 is rank 190, leaving 10; p99 would leave 2.
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&many, Better::Lower), Some((95.0, 190.0)));
        // Throughput: the bad tail is the low side, mirrored.
        assert_eq!(tail(&many, Better::Higher), Some((95.0, 11.0)));
        // 1,000 samples reach p99.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&k, Better::Lower), Some((99.0, 990.0)));
    }

    #[test]
    fn summary_reports_count_and_spread_without_best_of_n() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0], Better::Lower).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.tail, None);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[], Better::Lower), None);
    }
}
