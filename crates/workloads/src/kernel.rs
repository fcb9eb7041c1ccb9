//! The §4.3 Linux-kernel benchmark suite.
//!
//! Each benchmark composes [`wmm_kernel::services::Service`] hot paths with user-space
//! work at rates chosen to reproduce the paper's rankings and sensitivities:
//! the netperf pair and lmbench are the most macro-sensitive (Fig. 8),
//! `netperf_udp` has the highest `read_barrier_depends` sensitivity and
//! `osm_stack` the lowest (Fig. 9), netperf TCP is unstable, and the JVM
//! benchmarks inherited from §4.2 (h2, spark, xalan) coordinate their
//! concurrency inside the VM and hence barely touch kernel macros.

use wmm_kernel::macros::KMacro;
use wmm_kernel::services::Service;
use wmm_sim::isa::Instr;
use wmm_sim::machine::WorkloadCtx;
use wmm_sim::SplitMix64;
use wmmbench::image::{Image, Segment};
use wmmbench::runner::BenchSpec;

/// A kernel benchmark profile.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Name as printed in Figs. 8–10.
    pub name: &'static str,
    /// Concurrent threads (client/server pairs, worker pools…).
    pub threads: usize,
    /// Requests (packets, syscall iterations, page bursts) per thread at
    /// scale 1.0.
    pub requests: usize,
    /// User-space work per request, cycles.
    pub user_cycles: u32,
    /// Kernel services invoked per request, with fractional rates.
    pub services: Vec<(Service, f64)>,
    /// Run-level noise amplitude (stability).
    pub noise_amp: f64,
    /// Load-queue pressure at fence sites: ~1.0 for syscall-dense lmbench
    /// (which is what makes `dmb ishld` expensive there), ~0.1 elsewhere.
    pub load_pressure: f64,
    /// Branch-predictor pressure: ~0.25 in the lmbench loops, ~0.6 in real
    /// applications — the source of the `ctrl` strategy's micro/macro
    /// divergence (§4.3.1).
    pub bp_pressure: f64,
    /// L1 miss rate on private data.
    pub l1_miss_rate: f64,
}

/// The full suite of §4.3, in Fig. 8's sensitivity order.
pub(crate) fn kernel_profiles() -> Vec<KernelProfile> {
    use Service::*;
    vec![
        KernelProfile {
            name: "netperf_tcp",
            threads: 2,
            requests: 260,
            user_cycles: 1400,
            services: vec![
                (NetTx, 1.0),
                (NetRx, 1.0),
                (Syscall, 2.0),
                (SchedWakeup, 3.0),
            ],
            noise_amp: 0.08,
            load_pressure: 0.08,
            bp_pressure: 0.55,
            l1_miss_rate: 0.03,
        },
        KernelProfile {
            name: "lmbench",
            threads: 1,
            requests: 650,
            user_cycles: 290,
            services: vec![(Syscall, 1.0)],
            noise_amp: 0.01,
            load_pressure: 1.0,
            bp_pressure: 0.25,
            l1_miss_rate: 0.01,
        },
        KernelProfile {
            name: "netperf_udp",
            threads: 2,
            requests: 300,
            user_cycles: 280,
            services: vec![(NetTx, 1.0), (NetRx, 1.0), (Syscall, 1.0)],
            noise_amp: 0.025,
            load_pressure: 0.08,
            bp_pressure: 0.55,
            l1_miss_rate: 0.03,
        },
        KernelProfile {
            name: "ebizzy",
            threads: 8,
            requests: 140,
            user_cycles: 1150,
            services: vec![(PageAlloc, 2.0), (RcuRead, 0.3)],
            noise_amp: 0.05,
            load_pressure: 0.08,
            bp_pressure: 0.6,
            l1_miss_rate: 0.08,
        },
        KernelProfile {
            name: "xalan",
            threads: 8,
            requests: 90,
            user_cycles: 3000,
            services: vec![(Syscall, 0.4), (SchedWakeup, 0.2)],
            noise_amp: 0.03,
            load_pressure: 0.12,
            bp_pressure: 0.6,
            l1_miss_rate: 0.04,
        },
        KernelProfile {
            name: "osm_stack",
            threads: 4,
            requests: 40,
            user_cycles: 30_000,
            services: vec![(Syscall, 1.0), (NetTx, 1.0), (NetRx, 1.0), (VfsRead, 1.0)],
            noise_amp: 0.04,
            load_pressure: 0.15,
            bp_pressure: 0.6,
            l1_miss_rate: 0.05,
        },
        KernelProfile {
            name: "osm_tiles",
            threads: 4,
            requests: 35,
            user_cycles: 22_000,
            services: vec![(VfsRead, 0.5), (DeviceIo, 0.2), (Syscall, 0.5)],
            noise_amp: 0.03,
            load_pressure: 0.12,
            bp_pressure: 0.6,
            l1_miss_rate: 0.05,
        },
        KernelProfile {
            name: "kernel_compile",
            threads: 8,
            requests: 45,
            user_cycles: 18_000,
            services: vec![
                (Syscall, 1.5),
                (VfsRead, 0.5),
                (PageAlloc, 0.3),
                (DeviceIo, 0.1),
            ],
            noise_amp: 0.02,
            load_pressure: 0.15,
            bp_pressure: 0.6,
            l1_miss_rate: 0.04,
        },
        KernelProfile {
            name: "spark",
            threads: 8,
            requests: 70,
            user_cycles: 8000,
            services: vec![(Syscall, 0.2)],
            noise_amp: 0.02,
            load_pressure: 0.12,
            bp_pressure: 0.55,
            l1_miss_rate: 0.03,
        },
        KernelProfile {
            name: "h2",
            threads: 4,
            requests: 75,
            user_cycles: 9000,
            services: vec![(Syscall, 0.15)],
            noise_amp: 0.02,
            load_pressure: 0.12,
            bp_pressure: 0.55,
            l1_miss_rate: 0.03,
        },
    ]
}

/// A runnable kernel benchmark.
pub struct KernelBench {
    /// The profile.
    pub profile: KernelProfile,
    /// Image-size multiplier.
    pub scale: f64,
}

impl KernelBench {
    /// Construct from a profile.
    pub fn new(profile: KernelProfile, scale: f64) -> Self {
        KernelBench { profile, scale }
    }

    fn gen_thread(&self, thread: usize, seed: u64) -> Vec<Segment<KMacro>> {
        let p = &self.profile;
        let mut rng = SplitMix64::new(seed ^ (thread as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let n = ((p.requests as f64) * self.scale).ceil() as usize;
        let mut segs: Vec<Segment<KMacro>> = Vec::with_capacity(n * 8);
        for _ in 0..n {
            let w = (p.user_cycles as f64 * rng.jitter(0.25)) as u32;
            segs.push(Segment::Code(vec![Instr::Compute { cycles: w }]));
            for &(service, rate) in &p.services {
                let count = rate.floor() as u32 + u32::from(rng.chance(rate - rate.floor()));
                for _ in 0..count {
                    service.emit(&mut segs, &mut rng);
                }
            }
        }
        segs
    }
}

impl BenchSpec<KMacro> for KernelBench {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn image(&self, seed: u64) -> Image<KMacro> {
        let threads: Vec<Vec<Segment<KMacro>>> = (0..self.profile.threads)
            .map(|t| self.gen_thread(t, seed))
            .collect();
        let work = (self.profile.requests as f64 * self.scale).ceil() * self.profile.threads as f64;
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

/// The full kernel suite at a given scale.
pub fn kernel_suite(scale: f64) -> Vec<KernelBench> {
    kernel_profiles()
        .into_iter()
        .map(|p| KernelBench::new(p, scale))
        .collect()
}

/// Look up one kernel profile by name.
pub fn kernel_profile(name: &str) -> Option<KernelProfile> {
    kernel_profiles().into_iter().find(|p| p.name == name)
}

/// The lmbench sub-benchmarks the paper aggregates by arithmetic mean:
/// each is the base syscall loop with a per-test service mix.
pub fn lmbench_subs(scale: f64) -> Vec<KernelBench> {
    use Service::*;
    let base = kernel_profile("lmbench").expect("lmbench profile exists");
    let sub = |name: &'static str, user: u32, services: Vec<(Service, f64)>| {
        let mut p = base.clone();
        p.name = name;
        p.user_cycles = user;
        p.services = services;
        KernelBench::new(p, scale)
    };
    vec![
        sub("fcntl", 250, vec![(Syscall, 1.0)]),
        sub(
            "proc_exec",
            2200,
            vec![(Syscall, 2.0), (PageAlloc, 3.0), (VfsRead, 2.0)],
        ),
        sub(
            "proc_fork",
            1800,
            vec![(Syscall, 1.0), (PageAlloc, 3.0), (SchedWakeup, 1.0)],
        ),
        sub("select_100", 900, vec![(Syscall, 1.0), (VfsRead, 2.0)]),
        sub("sem", 300, vec![(Syscall, 1.0), (SchedWakeup, 1.0)]),
        sub("sig_catch", 450, vec![(Syscall, 1.0), (SchedWakeup, 0.5)]),
        sub("sig_install", 260, vec![(Syscall, 1.0)]),
        sub("syscall_fstat", 280, vec![(Syscall, 1.0), (VfsRead, 0.5)]),
        sub("syscall_null", 180, vec![(Syscall, 1.0)]),
        sub(
            "syscall_open",
            500,
            vec![(Syscall, 1.0), (VfsRead, 1.0), (RcuRead, 1.0)],
        ),
        sub("syscall_read", 350, vec![(Syscall, 1.0), (VfsRead, 1.0)]),
        sub("syscall_write", 350, vec![(Syscall, 1.0), (VfsRead, 0.5)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_fig8_composition() {
        let suite = kernel_suite(0.2);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 10);
        for expected in [
            "netperf_tcp",
            "lmbench",
            "netperf_udp",
            "ebizzy",
            "xalan",
            "osm_stack",
            "osm_tiles",
            "kernel_compile",
            "spark",
            "h2",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
    }

    #[test]
    fn netperf_udp_is_most_rbd_dense() {
        // Fig. 9: netperf_udp has the highest read_barrier_depends
        // sensitivity; rbd sites per instruction must dominate.
        let density = |b: &KernelBench| {
            let img = b.image(5);
            let rbd = img
                .site_counts()
                .get(&KMacro::ReadBarrierDepends)
                .copied()
                .unwrap_or(0);
            // Approximate execution weight: Compute blocks by their cycle
            // count, everything else as a few cycles.
            let cycles: f64 = img
                .threads
                .iter()
                .flatten()
                .map(|s| match s {
                    Segment::Code(v) => v
                        .iter()
                        .map(|i| match i {
                            Instr::Compute { cycles } => *cycles as f64,
                            _ => 4.0,
                        })
                        .sum::<f64>(),
                    _ => 8.0,
                })
                .sum();
            rbd as f64 / cycles
        };
        let suite = kernel_suite(0.2);
        let udp = suite.iter().find(|b| b.name() == "netperf_udp").unwrap();
        let udp_d = density(udp);
        for b in &suite {
            if b.name() != "netperf_udp" {
                assert!(
                    density(b) < udp_d,
                    "{} denser in rbd than netperf_udp",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn jvm_benchmarks_barely_touch_the_kernel() {
        let suite = kernel_suite(0.3);
        let sites = |name: &str| -> u64 {
            suite
                .iter()
                .find(|b| b.name() == name)
                .unwrap()
                .image(1)
                .site_counts()
                .values()
                .sum()
        };
        assert!(sites("h2") < sites("netperf_udp") / 10);
        assert!(sites("spark") < sites("netperf_udp") / 10);
    }

    #[test]
    fn lmbench_has_hot_load_queue_and_cold_branches() {
        let p = kernel_profile("lmbench").unwrap();
        assert!(p.load_pressure > 0.9, "syscall-dense load queue");
        assert!(p.bp_pressure < 0.3, "tight loops predict well");
        // Macro applications are the opposite.
        let tcp = kernel_profile("netperf_tcp").unwrap();
        assert!(tcp.bp_pressure > 0.5);
        assert!(tcp.load_pressure < 0.5);
    }

    #[test]
    fn twelve_lmbench_subs() {
        let subs = lmbench_subs(0.2);
        assert_eq!(subs.len(), 12);
        let names: Vec<&str> = subs.iter().map(|b| b.name()).collect();
        assert!(names.contains(&"syscall_null"));
        assert!(names.contains(&"proc_fork"));
    }

    #[test]
    fn images_deterministic_per_seed() {
        let b = KernelBench::new(kernel_profile("ebizzy").unwrap(), 0.2);
        assert_eq!(b.image(9).site_counts(), b.image(9).site_counts());
        assert_ne!(b.image(9).site_counts(), b.image(10).site_counts());
    }

    #[test]
    fn netperf_tcp_is_unstable() {
        let tcp = kernel_profile("netperf_tcp").unwrap();
        let udp = kernel_profile("netperf_udp").unwrap();
        assert!(tcp.noise_amp > udp.noise_amp * 2.0);
    }
}
