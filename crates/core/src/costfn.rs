//! Cost functions — the paper's injectable spin loops (Figs. 2–4).
//!
//! A cost function is "an instruction sequence with known stable execution
//! time": `mov xN, #iters; subs; bne` (plus a stack spill/reload when no
//! scratch register is available). It takes up a predictable amount of time
//! without touching shared memory.
//!
//! Because pipelining makes small loops sub-linear in the iteration count
//! (Fig. 4), the methodology first *calibrates* the cost function — measures
//! its execution time across the loop counts of interest on the target
//! machine — and uses the measured nanoseconds, not the nominal count, as
//! the `a` axis of every sweep.

use wmm_sim::isa::Instr;
use wmm_sim::Machine;

/// A cost function: the spin loop of Fig. 2 (ARM) / Fig. 3 (POWER).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostFunction {
    /// Loop iteration count N.
    pub iters: u64,
    /// Whether the loop counter register must be spilled to the stack.
    /// In OpenJDK on ARMv8 a scratch register (`x9`) is available, so the
    /// spill is elided ("arm-nostack" in Fig. 4); the Linux kernel rewriting
    /// must spill.
    pub stack_spill: bool,
}

impl CostFunction {
    /// The injectable instruction (modelled natively by the simulator).
    pub(crate) fn instr(&self) -> Instr {
        Instr::CostLoop {
            iters: self.iters,
            stack_spill: self.stack_spill,
        }
    }

    /// Encoded size in instruction words (5 with spill, 3 without),
    /// needed for size-invariant padding of the base case.
    pub fn size(&self) -> u64 {
        self.instr().size()
    }
}

/// A calibration table: measured execution time for a range of loop counts
/// on a specific machine — the data behind Fig. 4.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Whether the calibrated variant spills to the stack.
    pub stack_spill: bool,
    /// `(iteration count, measured ns)` pairs, ascending in count.
    pub points: Vec<(u64, f64)>,
}

impl Calibration {
    /// Measure the cost function across `2^0 ..= 2^max_exp` iterations on
    /// `machine` (the paper uses up to 2^10 for Fig. 4 and up to 2^14 for
    /// Fig. 1).
    pub fn measure(machine: &Machine, stack_spill: bool, max_exp: u32) -> Self {
        let mut points = Vec::with_capacity(max_exp as usize + 1);
        // The ALU-only baseline subtracted from every point: one seed, one
        // run.
        let empty = machine.time_sequence_ns(&[Instr::Alu, Instr::Alu], 400, 0xC0FFEE);
        for e in 0..=max_exp {
            let n = 1u64 << e;
            let cf = CostFunction {
                iters: n,
                stack_spill,
            };
            // Interleave with a little ALU work so that the loop is measured
            // in a realistic pipeline context rather than back-to-back.
            let body = [Instr::Alu, cf.instr(), Instr::Alu];
            let total = machine.time_sequence_ns(&body, 400, 0xC0FFEE + e as u64);
            points.push((n, (total - empty).max(0.01)));
        }
        Calibration {
            stack_spill,
            points,
        }
    }

    /// Measured nanoseconds for a loop count (piecewise-linear interpolation
    /// between calibrated points; extrapolates linearly beyond the table).
    pub fn ns_for_iters(&self, iters: u64) -> f64 {
        assert!(!self.points.is_empty());
        let n = iters as f64;
        if iters <= self.points[0].0 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (n0, t0) = (w[0].0 as f64, w[0].1);
            let (n1, t1) = (w[1].0 as f64, w[1].1);
            if n <= n1 {
                return t0 + (t1 - t0) * (n - n0) / (n1 - n0);
            }
        }
        // Beyond the last point: extrapolate from the final slope.
        let last = self.points.len() - 1;
        let (n0, t0) = (self.points[last - 1].0 as f64, self.points[last - 1].1);
        let (n1, t1) = (self.points[last].0 as f64, self.points[last].1);
        t1 + (t1 - t0) * (n - n1) / (n1 - n0)
    }

    /// Smallest loop count whose measured time reaches `target_ns`.
    /// This is how a sweep converts its nanosecond axis into loop counts.
    pub(crate) fn iters_for_ns(&self, target_ns: f64) -> u64 {
        let mut lo = 1u64;
        let mut hi = self.points.last().expect("non-empty").0.max(2);
        // Grow the bracket if the target is beyond the calibrated range.
        while self.ns_for_iters(hi) < target_ns {
            hi = hi.saturating_mul(2);
            if hi > 1 << 40 {
                break;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.ns_for_iters(mid) < target_ns {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The cost function realising approximately `target_ns`, together with
    /// its calibrated actual time — the value used for the model's `a` axis.
    pub fn for_target_ns(&self, target_ns: f64) -> (CostFunction, f64) {
        let iters = self.iters_for_ns(target_ns);
        (
            CostFunction {
                iters,
                stack_spill: self.stack_spill,
            },
            self.ns_for_iters(iters),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::{armv8_xgene1, power7};

    #[test]
    fn sizes_match_figures_2_and_3() {
        assert_eq!(
            CostFunction {
                iters: 8,
                stack_spill: true
            }
            .size(),
            5
        );
        assert_eq!(
            CostFunction {
                iters: 8,
                stack_spill: false
            }
            .size(),
            3
        );
    }

    #[test]
    fn calibration_points_are_pinned_bit_for_bit() {
        // Every sweep's `a` axis is read off these tables, so any drift in
        // how they are measured moves every cell of every figure.
        #[rustfmt::skip]
        let cases: [(Machine, bool, [u64; 13]); 3] = [
            (Machine::new(armv8_xgene1()), false, [
                0x3fee000000000000, 0x3ff09eb1b61b5ecf, 0x3ff3f7b5c15d7d72, 0x3ffaa2d0bb0195ba,
                0x4013ff9842ee08bf, 0x402755322d62d972, 0x40390142f608f4e5, 0x4049d5319ea8c5cb,
                0x405a4013ae883759, 0x406a757fa0e6a773, 0x407a8ff27b546e39, 0x408a9d543ceba000,
                0x409aa4006be1ac81,
            ]),
            (Machine::new(armv8_xgene1()), true, [
                0x4004d55555555555, 0x4005a4ae306304bd, 0x400751303604140f, 0x400aa6bdb2d62033,
                0x401aaa42ed98b369, 0x402aaa8782b82ec8, 0x403aabeda0b39f91, 0x404aaa86f3fe1b1f,
                0x405aaabe5932e203, 0x406aaad4f63bfcc8, 0x407aaa9d25ff18e3, 0x408aaaa99240f556,
                0x409aaaab168c572c,
            ]),
            (Machine::new(power7()), true, [
                0x3ffb3e45306eb489, 0x3ffc9457e6301404, 0x3fff21ab24a935b0, 0x40022a9996007a23,
                0x4011bfdaee908a2e, 0x40218470b305baca, 0x403168e788bc41be, 0x40415a3e9e0b7445,
                0x405153209cf4f4fe, 0x40614fa2c8f7a2a0, 0x40714de18e3d5482, 0x40814cf89fa0d5ac,
                0x40914c8dc5f256bd,
            ]),
        ];
        for (machine, spill, bits) in cases {
            let cal = Calibration::measure(&machine, spill, 12);
            let got: Vec<(u64, u64)> = cal.points.iter().map(|&(n, t)| (n, t.to_bits())).collect();
            let want: Vec<(u64, u64)> = (0..13).map(|e| (1 << e, bits[e])).collect();
            assert_eq!(got, want, "{:?}, spill {spill}", machine.spec().arch);
        }
    }

    #[test]
    fn calibration_is_monotonic() {
        let m = Machine::new(armv8_xgene1());
        let cal = Calibration::measure(&m, true, 10);
        for w in cal.points.windows(2) {
            assert!(w[1].1 >= w[0].1, "{:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn calibration_linear_region_slope() {
        // Large-N slope approaches 1 cycle/iteration: ~0.417 ns on ARM at
        // 2.4 GHz and ~0.27 ns on POWER at 3.7 GHz (Fig. 4).
        for (spec, per_iter) in [(armv8_xgene1(), 1.0 / 2.4), (power7(), 1.0 / 3.7)] {
            let m = Machine::new(spec);
            let cal = Calibration::measure(&m, true, 12);
            let (n0, t0) = cal.points[10];
            let (n1, t1) = cal.points[12];
            let slope = (t1 - t0) / (n1 - n0) as f64;
            assert!(
                (slope - per_iter).abs() / per_iter < 0.1,
                "slope {slope} vs {per_iter}"
            );
        }
    }

    #[test]
    fn sublinear_at_small_n() {
        let m = Machine::new(armv8_xgene1());
        let cal = Calibration::measure(&m, false, 10);
        let t1 = cal.ns_for_iters(1);
        let t8 = cal.ns_for_iters(8);
        assert!(
            t8 < 6.0 * t1,
            "overlap should compress small loops: {t1} vs {t8}"
        );
    }

    #[test]
    fn nostack_cheaper_than_stack() {
        let m = Machine::new(armv8_xgene1());
        let with = Calibration::measure(&m, true, 6);
        let without = Calibration::measure(&m, false, 6);
        for ((_, a), (_, b)) in with.points.iter().zip(&without.points) {
            assert!(b <= a, "nostack {b} should not exceed stack {a}");
        }
    }

    #[test]
    fn iters_for_ns_inverts_ns_for_iters() {
        let m = Machine::new(armv8_xgene1());
        let cal = Calibration::measure(&m, true, 14);
        for target in [1.0, 4.0, 16.0, 100.0, 1000.0] {
            let n = cal.iters_for_ns(target);
            let t = cal.ns_for_iters(n);
            assert!(t >= target || n == 1, "target {target}: got n={n} t={t}");
            if n > 1 {
                assert!(
                    cal.ns_for_iters(n - 1) < target,
                    "n not minimal for {target}"
                );
            }
        }
    }

    #[test]
    fn for_target_returns_consistent_pair() {
        let m = Machine::new(power7());
        let cal = Calibration::measure(&m, true, 12);
        let (cf, actual) = cal.for_target_ns(64.0);
        assert!(cf.stack_spill);
        assert!((cal.ns_for_iters(cf.iters) - actual).abs() < 1e-12);
        assert!(actual >= 64.0);
    }
}
