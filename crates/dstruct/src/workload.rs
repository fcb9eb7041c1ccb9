//! Data-structure benchmarks: operation mixes composed into whole images.
//!
//! Three workloads span the scheme trade-off space: `stack_churn` is
//! retire-heavy (pop retires every node, so the reclaim path runs often),
//! `list_search` is traversal-heavy (many hazard publications per
//! operation, almost no retirements — the worst case for per-protect
//! fences and the best case for the asymmetric scheme), and `list_update`
//! mixes inserts, deletes and lookups.

use wmm_sim::isa::Instr;
use wmm_sim::machine::WorkloadCtx;
use wmm_sim::SplitMix64;
use wmmbench::image::{Image, Segment};
use wmmbench::runner::BenchSpec;

use crate::ops::DstructOp;
use crate::sites::DSite;

/// A data-structure benchmark profile.
#[derive(Debug, Clone)]
pub struct DstructProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Concurrent threads hammering the structure.
    pub threads: usize,
    /// Operations per thread at scale 1.0.
    pub ops: usize,
    /// Application work between operations, cycles.
    pub user_cycles: u32,
    /// Structure operations per request, with fractional rates.
    pub mix: Vec<(DstructOp, f64)>,
    /// Run-level noise amplitude.
    pub noise_amp: f64,
    /// Load-queue pressure at fence sites (traversals keep it hot).
    pub load_pressure: f64,
    /// Branch-predictor pressure.
    pub bp_pressure: f64,
    /// L1 miss rate on private data.
    pub l1_miss_rate: f64,
}

/// The benchmark suite, most protect-dense first.
pub(crate) fn dstruct_profiles() -> Vec<DstructProfile> {
    use DstructOp::*;
    vec![
        DstructProfile {
            name: "list_search",
            threads: 4,
            ops: 220,
            user_cycles: 260,
            mix: vec![(HmLookup, 1.0), (HmInsert, 0.05), (HmDelete, 0.05)],
            noise_amp: 0.02,
            load_pressure: 0.7,
            bp_pressure: 0.35,
            l1_miss_rate: 0.04,
        },
        DstructProfile {
            name: "list_update",
            threads: 2,
            ops: 180,
            user_cycles: 420,
            mix: vec![(HmLookup, 0.5), (HmInsert, 0.5), (HmDelete, 0.5)],
            noise_amp: 0.03,
            load_pressure: 0.5,
            bp_pressure: 0.45,
            l1_miss_rate: 0.05,
        },
        DstructProfile {
            name: "stack_churn",
            threads: 4,
            ops: 240,
            user_cycles: 340,
            mix: vec![(TreiberPush, 1.0), (TreiberPop, 1.0)],
            noise_amp: 0.03,
            load_pressure: 0.3,
            bp_pressure: 0.5,
            l1_miss_rate: 0.05,
        },
    ]
}

/// A runnable data-structure benchmark.
pub struct DstructBench {
    /// The profile.
    pub profile: DstructProfile,
    /// Image-size multiplier.
    pub scale: f64,
}

impl DstructBench {
    /// Construct from a profile.
    pub(crate) fn new(profile: DstructProfile, scale: f64) -> Self {
        DstructBench { profile, scale }
    }

    fn gen_thread(&self, thread: usize, seed: u64) -> Vec<Segment<DSite>> {
        let p = &self.profile;
        let mut rng = SplitMix64::new(seed ^ (thread as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let n = ((p.ops as f64) * self.scale).ceil() as usize;
        let mut segs: Vec<Segment<DSite>> = Vec::with_capacity(n * 12);
        for _ in 0..n {
            let w = (p.user_cycles as f64 * rng.jitter(0.25)) as u32;
            segs.push(Segment::Code(vec![Instr::Compute { cycles: w }]));
            for &(op, rate) in &p.mix {
                let count = rate.floor() as u32 + u32::from(rng.chance(rate - rate.floor()));
                for _ in 0..count {
                    op.emit(&mut segs, &mut rng);
                }
            }
        }
        segs
    }
}

impl BenchSpec<DSite> for DstructBench {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn image(&self, seed: u64) -> Image<DSite> {
        let threads: Vec<Vec<Segment<DSite>>> = (0..self.profile.threads)
            .map(|t| self.gen_thread(t, seed))
            .collect();
        let work = (self.profile.ops as f64 * self.scale).ceil() * self.profile.threads as f64;
        Image {
            threads,
            ctx: WorkloadCtx {
                name: self.profile.name.to_string(),
                bp_pressure: self.profile.bp_pressure,
                load_pressure: self.profile.load_pressure,
                l1_miss_rate: self.profile.l1_miss_rate,
                dram_frac: 0.2,
                noise_amp: self.profile.noise_amp,
            },
            work_units: work,
        }
    }
}

/// The full suite at a given scale.
pub fn dstruct_suite(scale: f64) -> Vec<DstructBench> {
    dstruct_profiles()
        .into_iter()
        .map(|p| DstructBench::new(p, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_benchmarks() {
        let names: Vec<String> = dstruct_suite(0.2)
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(names, vec!["list_search", "list_update", "stack_churn"]);
    }

    #[test]
    fn list_search_is_most_protect_dense() {
        // The traversal workload must publish the most hazards per site —
        // that density is the asymmetric scheme's win condition.
        let protect_share = |b: &DstructBench| {
            let counts = b.image(5).site_counts();
            let protect = counts.get(&DSite::HpProtect).copied().unwrap_or(0) as f64;
            let total: u64 = counts.values().sum();
            protect / total as f64
        };
        let suite = dstruct_suite(0.2);
        let search = suite.iter().find(|b| b.name() == "list_search").unwrap();
        for b in &suite {
            if b.name() != "list_search" {
                assert!(
                    protect_share(b) < protect_share(search),
                    "{} denser in protects than list_search",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn scans_are_rare_everywhere() {
        for b in dstruct_suite(0.3) {
            let counts = b.image(7).site_counts();
            let scans = counts.get(&DSite::HpScan).copied().unwrap_or(0);
            let protects = counts.get(&DSite::HpProtect).copied().unwrap_or(0);
            assert!(
                scans * 3 < protects.max(1),
                "{}: scans ({scans}) must be rare vs protects ({protects})",
                b.name()
            );
        }
    }

    #[test]
    fn images_deterministic_per_seed() {
        let b = DstructBench::new(
            dstruct_profiles()
                .into_iter()
                .find(|p| p.name == "stack_churn")
                .unwrap(),
            0.2,
        );
        assert_eq!(b.image(9).site_counts(), b.image(9).site_counts());
        assert_ne!(b.image(9).site_counts(), b.image(10).site_counts());
    }

    #[test]
    fn every_site_appears_in_the_suite() {
        let mut seen = std::collections::HashSet::new();
        for b in dstruct_suite(0.3) {
            for (site, n) in b.image(3).site_counts() {
                if n > 0 {
                    seen.insert(site);
                }
            }
        }
        for s in DSite::ALL {
            assert!(seen.contains(&s), "{s:?} never emitted");
        }
    }
}
