//! DaCapo-like JVM workloads plus the Spark PageRank macrobenchmark.
//!
//! Each benchmark is a multi-threaded stream of "transactions" — bursts of
//! Java-level operations with a characteristic barrier profile. Per-1
//! transaction operation counts (reference stores with card marks, volatile
//! accesses, monitor pairs, CAS) control which barrier code paths the
//! benchmark exercises and how densely; per-architecture context parameters
//! control locality and stability.
//!
//! The paper's DaCapo subset is the concurrent one identified by Kalibera et
//! al. \[19\]; spark runs GraphX PageRank over the LiveJournal graph \[20\] —
//! here a seeded synthetic graph workload with the same barrier-heavy
//! profile (shuffle writes → card marks, block-manager locks, volatile
//! progress counters).

use wmm_jvm::barrier::Combined;
use wmm_jvm::jit::{lower, JavaOp, JitConfig};
use wmm_sim::arch::Arch;
use wmm_sim::isa::Loc;
use wmm_sim::machine::WorkloadCtx;
use wmm_sim::SplitMix64;
use wmmbench::image::Image;
use wmmbench::runner::BenchSpec;

/// Per-architecture execution context of a profile.
#[derive(Debug, Clone, Copy)]
pub struct ArchCtx {
    /// Run-level noise amplitude (stability).
    pub noise_amp: f64,
    /// L1 miss rate on private data.
    pub l1_miss_rate: f64,
    /// Fraction of misses that reach DRAM.
    pub dram_frac: f64,
    /// Load-queue pressure at fence sites.
    pub load_pressure: f64,
}

/// A JVM benchmark profile: per-transaction operation mix plus context.
#[derive(Debug, Clone)]
pub struct JvmProfile {
    /// Benchmark name as printed in Fig. 5.
    pub name: &'static str,
    /// Worker threads (the paper's machines run up to 8 cores on ARM).
    pub threads: usize,
    /// Transactions per thread at scale 1.0.
    pub transactions: usize,
    /// Straight-line work per transaction, cycles.
    pub work_cycles: u32,
    /// Plain field loads per transaction.
    pub field_loads: u32,
    /// Plain field stores per transaction.
    pub field_stores: u32,
    /// Reference stores (each emits a GC card-mark `StoreStore` site).
    pub ref_stores: f64,
    /// Volatile loads per transaction (fractional = probabilistic).
    pub vloads: f64,
    /// Volatile stores per transaction.
    pub vstores: f64,
    /// Monitor enter/exit pairs per transaction.
    pub monitors: f64,
    /// `java.util.concurrent` CAS operations per transaction.
    pub cas: f64,
    /// Allocations per transaction.
    pub allocs: f64,
    /// Context on the ARMv8 machine.
    pub arm: ArchCtx,
    /// Context on the POWER7 machine.
    pub power: ArchCtx,
}

impl JvmProfile {
    fn ctx_for(&self, arch: Arch) -> ArchCtx {
        match arch {
            Arch::ArmV8 => self.arm,
            Arch::Power7 => self.power,
        }
    }
}

fn stable(noise: f64) -> ArchCtx {
    ArchCtx {
        noise_amp: noise,
        l1_miss_rate: 0.02,
        dram_frac: 0.15,
        load_pressure: 0.12,
    }
}

/// The eight Fig. 5 profiles. Operation mixes are calibrated so the fitted
/// all-barrier sensitivities land near the paper's values; see EXPERIMENTS.md
/// for measured-vs-paper numbers.
pub(crate) fn profiles() -> Vec<JvmProfile> {
    vec![
        // h2: in-memory database — lock-heavy transactions, moderate writes.
        JvmProfile {
            name: "h2",
            threads: 4,
            transactions: 60,
            work_cycles: 2800,
            field_loads: 40,
            field_stores: 6,
            ref_stores: 0.6,
            vloads: 0.1,
            vstores: 0.1,
            monitors: 1.8,
            cas: 0.2,
            allocs: 1.0,
            arm: stable(0.015),
            power: ArchCtx {
                l1_miss_rate: 0.55,
                dram_frac: 0.5,
                ..stable(0.02)
            },
        },
        // lusearch: text search — mostly reads, small index updates.
        JvmProfile {
            name: "lusearch",
            threads: 6,
            transactions: 55,
            work_cycles: 3000,
            field_loads: 60,
            field_stores: 3,
            ref_stores: 0.35,
            vloads: 0.15,
            vstores: 0.1,
            monitors: 1.0,
            cas: 0.1,
            allocs: 1.5,
            arm: ArchCtx {
                noise_amp: 0.05,
                ..stable(0.05)
            },
            power: ArchCtx {
                l1_miss_rate: 0.7,
                dram_frac: 0.5,
                ..stable(0.02)
            },
        },
        // spark: GraphX PageRank — shuffle-write heavy: card marks, block
        // manager locks, volatile progress counters. Most sensitive.
        JvmProfile {
            name: "spark",
            threads: 8,
            transactions: 70,
            work_cycles: 1950,
            field_loads: 8,
            field_stores: 6,
            ref_stores: 4.4,
            vloads: 0.08,
            vstores: 0.6,
            monitors: 2.1,
            cas: 0.1,
            allocs: 2.0,
            arm: stable(0.012),
            power: stable(0.015),
        },
        // sunflow: ray tracer — compute bound, few barriers.
        JvmProfile {
            name: "sunflow",
            threads: 8,
            transactions: 50,
            work_cycles: 3600,
            field_loads: 38,
            field_stores: 4,
            ref_stores: 1.0,
            vloads: 0.3,
            vstores: 0.15,
            monitors: 0.4,
            cas: 0.1,
            allocs: 0.8,
            arm: stable(0.015),
            power: ArchCtx {
                noise_amp: 0.06,
                l1_miss_rate: 0.5,
                dram_frac: 0.4,
                ..stable(0.06)
            },
        },
        // tomcat: servlet container — request dispatch locks; unstable.
        JvmProfile {
            name: "tomcat",
            threads: 6,
            transactions: 55,
            work_cycles: 2600,
            field_loads: 22,
            field_stores: 5,
            ref_stores: 1.0,
            vloads: 0.25,
            vstores: 0.25,
            monitors: 0.55,
            cas: 0.3,
            allocs: 1.2,
            arm: ArchCtx {
                noise_amp: 0.06,
                ..stable(0.06)
            },
            power: ArchCtx {
                noise_amp: 0.07,
                l1_miss_rate: 0.2,
                ..stable(0.07)
            },
        },
        // tradebeans: EJB transaction processing.
        JvmProfile {
            name: "tradebeans",
            threads: 4,
            transactions: 55,
            work_cycles: 2600,
            field_loads: 20,
            field_stores: 6,
            ref_stores: 1.1,
            vloads: 0.3,
            vstores: 0.3,
            monitors: 0.45,
            cas: 0.2,
            allocs: 1.3,
            arm: ArchCtx {
                noise_amp: 0.06,
                ..stable(0.06)
            },
            power: ArchCtx {
                l1_miss_rate: 0.15,
                ..stable(0.025)
            },
        },
        // tradesoap: like tradebeans with SOAP serialisation overhead.
        JvmProfile {
            name: "tradesoap",
            threads: 4,
            transactions: 50,
            work_cycles: 2900,
            field_loads: 22,
            field_stores: 7,
            ref_stores: 1.0,
            vloads: 0.25,
            vstores: 0.25,
            monitors: 0.55,
            cas: 0.2,
            allocs: 1.4,
            arm: stable(0.02),
            power: ArchCtx {
                l1_miss_rate: 0.18,
                ..stable(0.025)
            },
        },
        // xalan: XML transform — monitor-heavy on shared output buffers;
        // sensitive on ARM, unstable (SMT) on POWER.
        JvmProfile {
            name: "xalan",
            threads: 8,
            transactions: 60,
            work_cycles: 2200,
            field_loads: 70,
            field_stores: 8,
            ref_stores: 1.2,
            vloads: 0.3,
            vstores: 0.3,
            monitors: 2.2,
            cas: 0.2,
            allocs: 1.0,
            arm: stable(0.015),
            power: ArchCtx {
                noise_amp: 0.15,
                l1_miss_rate: 0.8,
                dram_frac: 0.75,
                load_pressure: 0.2,
            },
        },
    ]
}

/// A runnable DaCapo-like benchmark: a profile bound to a JIT configuration
/// and an image scale.
pub struct DacapoBench {
    /// The workload profile.
    pub profile: JvmProfile,
    /// JIT configuration (arch, volatile mode, locking patch).
    pub jit: JitConfig,
    /// Image-size multiplier (1.0 = the profile's base size; tests use less).
    pub scale: f64,
}

impl DacapoBench {
    /// Construct from a profile.
    pub fn new(profile: JvmProfile, jit: JitConfig, scale: f64) -> Self {
        DacapoBench {
            profile,
            jit,
            scale,
        }
    }

    fn gen_thread(&self, thread: usize, seed: u64) -> Vec<JavaOp> {
        let p = &self.profile;
        let mut rng = SplitMix64::new(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9));
        let n = ((p.transactions as f64) * self.scale).ceil() as usize;
        let mut ops = Vec::with_capacity(n * 16);
        // Each thread works mostly on its own objects, sharing some.
        let heap_base = 0x4000 + (thread as u64) * 0x100;
        let shared_base = 0x8000;
        let frac = |rate: f64, rng: &mut SplitMix64| -> u32 {
            let whole = rate.floor() as u32;
            whole + u32::from(rng.chance(rate - rate.floor()))
        };
        for _ in 0..n {
            let w = (p.work_cycles as f64 * rng.jitter(0.2)) as u32;
            ops.push(JavaOp::Work(w / 2));
            for i in 0..p.field_loads {
                let loc = if rng.chance(0.2) {
                    Loc::SharedRw(shared_base + rng.next_below(64))
                } else {
                    Loc::Private(heap_base + i as u64 % 32)
                };
                ops.push(JavaOp::FieldLoad(loc));
            }
            for i in 0..p.field_stores {
                ops.push(JavaOp::FieldStore(Loc::Private(
                    heap_base + 32 + i as u64 % 16,
                )));
            }
            for _ in 0..frac(p.ref_stores, &mut rng) {
                // Shuffle/output buffers are mostly thread-affine; a minority
                // of reference stores hit genuinely shared structures.
                let line = if rng.chance(0.2) {
                    shared_base + 64 + rng.next_below(32)
                } else {
                    shared_base + 0x400 + ((thread as u64) << 8) + rng.next_below(96)
                };
                ops.push(JavaOp::RefStore(Loc::SharedRw(line)));
            }
            // Publish pattern: the volatile store follows the data writes
            // while they are still draining (this is exactly when a `stlr`
            // and a `dmb; str` differ).
            for _ in 0..frac(p.vstores, &mut rng) {
                ops.push(JavaOp::VolatileStore(Loc::SharedRw(
                    0x9000 + rng.next_below(8),
                )));
            }
            ops.push(JavaOp::Work(w / 2));
            for _ in 0..frac(p.vloads, &mut rng) {
                ops.push(JavaOp::VolatileLoad(Loc::SharedRw(
                    0x9000 + rng.next_below(8),
                )));
            }
            for _ in 0..frac(p.monitors, &mut rng) {
                let lock = rng.next_below(4);
                ops.push(JavaOp::MonitorEnter(lock));
                ops.push(JavaOp::Work(40));
                ops.push(JavaOp::MonitorExit(lock));
            }
            for _ in 0..frac(p.cas, &mut rng) {
                ops.push(JavaOp::Cas(Loc::SharedRw(0xA000 + rng.next_below(4))));
            }
            for _ in 0..frac(p.allocs, &mut rng) {
                ops.push(JavaOp::Alloc(4));
            }
        }
        ops
    }
}

impl DacapoBench {
    /// The raw per-thread Java operation streams for one sample — exposed
    /// so alternative lowerings (e.g. the optimisation-site-annotated IR of
    /// `wmm_jvm::optsites`) can consume the same workload.
    pub(crate) fn java_ops(&self, seed: u64) -> Vec<Vec<JavaOp>> {
        (0..self.profile.threads)
            .map(|t| self.gen_thread(t, seed))
            .collect()
    }
}

/// The same workload lowered with optimisation-site annotations
/// (`wmm_jvm::optsites::lower_with_optsites`): code paths are
/// [`wmm_jvm::optsites::JvmPath`] instead of plain combined barriers.
pub struct OptAnnotatedBench(pub DacapoBench);

impl BenchSpec<wmm_jvm::optsites::JvmPath> for OptAnnotatedBench {
    fn name(&self) -> &str {
        self.0.profile.name
    }

    fn image(&self, seed: u64) -> Image<wmm_jvm::optsites::JvmPath> {
        let ops = self.0.java_ops(seed);
        let segs = wmm_jvm::optsites::lower_with_optsites(&ops, &self.0.jit);
        let ctx = self.0.profile.ctx_for(self.0.jit.arch);
        let work = (self.0.profile.transactions as f64 * self.0.scale).ceil()
            * self.0.profile.threads as f64;
        Image {
            threads: segs,
            ctx: WorkloadCtx {
                name: self.0.profile.name.to_string(),
                bp_pressure: 0.55,
                load_pressure: ctx.load_pressure,
                l1_miss_rate: ctx.l1_miss_rate,
                dram_frac: ctx.dram_frac,
                noise_amp: ctx.noise_amp,
            },
            work_units: work,
        }
    }
}

impl BenchSpec<Combined> for DacapoBench {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn image(&self, seed: u64) -> Image<Combined> {
        let threads: Vec<Vec<JavaOp>> = (0..self.profile.threads)
            .map(|t| self.gen_thread(t, seed))
            .collect();
        let segs = lower(&threads, &self.jit);
        let ctx = self.profile.ctx_for(self.jit.arch);
        let work =
            (self.profile.transactions as f64 * self.scale).ceil() * self.profile.threads as f64;
        Image {
            threads: segs,
            ctx: WorkloadCtx {
                name: self.profile.name.to_string(),
                bp_pressure: 0.55,
                load_pressure: ctx.load_pressure,
                l1_miss_rate: ctx.l1_miss_rate,
                dram_frac: ctx.dram_frac,
                noise_amp: ctx.noise_amp,
            },
            work_units: work,
        }
    }
}

/// The full Fig. 5 suite bound to a JIT configuration.
pub fn dacapo_suite(jit: JitConfig, scale: f64) -> Vec<DacapoBench> {
    profiles()
        .into_iter()
        .map(|p| DacapoBench::new(p, jit, scale))
        .collect()
}

/// Look up a single profile by name.
pub fn profile(name: &str) -> Option<JvmProfile> {
    profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_jvm::barrier::Elemental;
    use wmmbench::image::Segment;

    /// Every literal code segment and every thread's segment list holds
    /// exactly its content: sweeps keep their sample images for the whole
    /// sweep.
    fn assert_exact_size<P>(image: &Image<P>) {
        for segs in &image.threads {
            assert_eq!(segs.capacity(), segs.len(), "{}", image.ctx.name);
            for seg in segs {
                if let Segment::Code(code) = seg {
                    assert_eq!(code.capacity(), code.len(), "{}", image.ctx.name);
                }
            }
        }
    }

    #[test]
    fn dacapo_and_optsite_images_are_exact_size() {
        for arch in [Arch::ArmV8, Arch::Power7] {
            for bench in dacapo_suite(JitConfig::jdk8(arch), 0.2) {
                assert_exact_size(&bench.image(3));
                assert_exact_size(&OptAnnotatedBench(bench).image(3));
            }
        }
    }

    #[test]
    fn suite_has_the_eight_fig5_benchmarks() {
        let suite = dacapo_suite(JitConfig::jdk8(Arch::ArmV8), 0.2);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "h2",
                "lusearch",
                "spark",
                "sunflow",
                "tomcat",
                "tradebeans",
                "tradesoap",
                "xalan"
            ]
        );
    }

    #[test]
    fn spark_is_the_most_site_dense() {
        let suite = dacapo_suite(JitConfig::jdk8(Arch::ArmV8), 0.3);
        let density = |b: &DacapoBench| {
            let img = b.image(7);
            let sites: u64 = img.site_counts().values().sum();
            let instrs: usize = img
                .threads
                .iter()
                .flatten()
                .map(|s| match s {
                    wmmbench::image::Segment::Code(v) => v.len(),
                    _ => 1,
                })
                .sum();
            sites as f64 / instrs as f64
        };
        let spark = suite.iter().find(|b| b.name() == "spark").unwrap();
        let spark_d = density(spark);
        for b in &suite {
            if b.name() != "spark" {
                assert!(density(b) < spark_d, "{} denser than spark", b.name());
            }
        }
    }

    #[test]
    fn spark_storestore_sites_dominate() {
        // Fig. 6: spark is most sensitive to StoreStore on both archs.
        let b = DacapoBench::new(
            profile("spark").unwrap(),
            JitConfig::jdk8(Arch::Power7),
            0.3,
        );
        let img = b.image(3);
        let counts = img.site_counts();
        let with = |e: Elemental| -> u64 {
            counts
                .iter()
                .filter(|(c, _)| c.contains(e))
                .map(|(_, n)| *n)
                .sum()
        };
        let ss = with(Elemental::StoreStore);
        let sl = with(Elemental::StoreLoad);
        let ll = with(Elemental::LoadLoad);
        assert!(ss > sl && ss > ll, "ss={ss} sl={sl} ll={ll}");
    }

    #[test]
    fn images_are_seed_deterministic() {
        let b = DacapoBench::new(profile("h2").unwrap(), JitConfig::jdk8(Arch::ArmV8), 0.2);
        let a = b.image(42);
        let c = b.image(42);
        assert_eq!(a.threads.len(), c.threads.len());
        assert_eq!(a.site_counts(), c.site_counts());
        // Different seeds differ in composition.
        let d = b.image(43);
        assert_ne!(a.site_counts(), d.site_counts());
    }

    #[test]
    fn scale_controls_image_size() {
        let small = DacapoBench::new(profile("h2").unwrap(), JitConfig::jdk8(Arch::ArmV8), 0.1);
        let large = DacapoBench::new(profile("h2").unwrap(), JitConfig::jdk8(Arch::ArmV8), 1.0);
        let n_small: u64 = small.image(1).site_counts().values().sum();
        let n_large: u64 = large.image(1).site_counts().values().sum();
        assert!(n_large > n_small * 5);
    }

    #[test]
    fn xalan_power_is_configured_unstable() {
        let p = profile("xalan").unwrap();
        assert!(p.power.noise_amp > 0.1);
        assert!(p.power.noise_amp > p.arm.noise_amp * 3.0);
    }
}
