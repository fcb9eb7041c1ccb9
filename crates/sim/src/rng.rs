//! A tiny, fully deterministic pseudo-random number generator.
//!
//! We implement SplitMix64 ourselves rather than depending on an external RNG
//! so that simulation results are bit-for-bit stable across dependency
//! upgrades — reproducibility of every figure is a deliverable, and a silent
//! stream change in a third-party crate would invalidate recorded results.

/// SplitMix64: a fast, high-quality 64-bit generator with a one-word state.
///
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014). Passes BigCrush when used as a stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Every seed gives an independent,
    /// full-period stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the bounds used here and determinism is what matters.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Multiplicative jitter uniform in `[1 - amp, 1 + amp]`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        1.0 + amp * (2.0 * self.next_f64() - 1.0)
    }

    /// Derive an independent child generator (splitting).
    pub(crate) fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let j = r.jitter(0.05);
            assert!((0.95..=1.05).contains(&j));
        }
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(42);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn split_streams_independent() {
        let mut parent = SplitMix64::new(1234);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
