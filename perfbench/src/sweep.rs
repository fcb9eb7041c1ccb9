//! `sweep_cold` and `sweep_warm`: the Fig. 5 OpenJDK all-barrier sweep on
//! ARMv8 then POWER7 at the full protocol.
//!
//! One pass is both architectures, 640 simulation jobs each: 8 benchmarks
//! × 10 configurations (the nop-padded base and 9 cost sizes) × 8 samples
//! (2 warm-ups and 6 kept) = 1,280 jobs per pass. The cold pass gives every pass a
//! fresh in-memory [`SimCache`], so every job simulates; the warm pass runs
//! against one cache loaded from a file that the set-up primes, so every
//! job is a cache hit.

use std::path::Path;
use std::time::{Duration, Instant};

use wmm_bench::{
    fig5_openjdk_sweeps_with, jvm_base_strategy, jvm_costfn_spill, jvm_envelope, machine, ExpConfig,
};
use wmm_harness::{job_key, run_keyed, Fnv128, ParallelExecutor, SimCache};
use wmm_jvm::jit::JitConfig;
use wmm_sim::arch::Arch;
use wmm_stats::Comparison;
use wmm_workloads::dacapo::dacapo_suite;
use wmmbench::costfn::Calibration;
use wmmbench::exec::{Executor, SimJob};
use wmmbench::image::{program_words, Injection, SiteRewriter};
use wmmbench::model::fit_sensitivity;
use wmmbench::runner::{jobs_from_images, measurement_from_times, sample_images};
use wmmbench::sensitivity::{pow2_targets, SweepPoint, SweepResult};

use crate::layers::Tracer;
use crate::run::{Check, Workload};

/// The architectures of one pass, in order.
pub const ARCHES: [Arch; 2] = [Arch::ArmV8, Arch::Power7];

/// The paper's Fig. 5 sensitivities: `(benchmark, k on ARMv8, k on POWER7)`.
pub const PAPER: [(&str, f64, f64); 8] = [
    ("h2", 0.00339, 0.00251),
    ("lusearch", 0.00213, 0.00118),
    ("spark", 0.00870, 0.01227),
    ("sunflow", 0.00187, 0.00164),
    ("tomcat", 0.00250, 0.00397),
    ("tradebeans", 0.00262, 0.00385),
    ("tradesoap", 0.00238, 0.00314),
    ("xalan", 0.00606, 0.00152),
];

/// Results checksum of both sweeps at [`crate::run::DEFAULT_SEED`].
pub const PINNED: u64 = 0xe5cf_c7a7_9886_41dc;

/// The full protocol with the sample seeds moved by `seed`; seed 0 is
/// exactly `ExpConfig::full()`.
#[must_use]
pub fn config(seed: u64) -> ExpConfig {
    let mut cfg = ExpConfig::full();
    cfg.run.base_seed = cfg.run.base_seed.wrapping_add(seed.wrapping_mul(0x1_0000));
    cfg
}

/// Order-sensitive checksum over every deterministic field of the sweeps,
/// floats by bit pattern: equal iff the science is bit-identical.
#[must_use]
pub fn checksum(sweeps: &[SweepResult]) -> u64 {
    let mut h = Fnv128::new();
    for s in sweeps {
        h.bytes(s.benchmark.as_bytes());
        h.bytes(s.arch.as_bytes());
        h.bytes(s.code_path.as_bytes());
        for p in &s.points {
            for f in [p.target_ns, p.actual_ns, p.rel_perf, p.rel_min, p.rel_max] {
                h.f64(f);
            }
            h.u64(p.iters);
        }
        match &s.fit {
            Some(fit) => {
                for f in [fit.k, fit.k_std_err, fit.r_squared] {
                    h.f64(f);
                }
            }
            None => h.bytes(b"nofit"),
        }
    }
    h.finish() as u64
}

/// Median over the fitted sweeps of `|k - k_paper| / k_paper`.
#[must_use]
pub fn k_paper_err(sweeps: &[SweepResult]) -> f64 {
    let mut errs: Vec<f64> = sweeps
        .iter()
        .filter_map(|s| {
            let (_, arm, power) = PAPER.iter().find(|(n, _, _)| *n == s.benchmark)?;
            let paper = if s.arch == Arch::ArmV8.label() {
                arm
            } else {
                power
            };
            Some((s.fit.as_ref()?.k - paper).abs() / paper)
        })
        .collect();
    if errs.is_empty() {
        return f64::NAN;
    }
    errs.sort_by(f64::total_cmp);
    crate::stats::median(&errs)
}

/// One pass's results plus the cache traffic that produced them.
pub struct SweepOutput {
    /// Both architectures' sweeps, ARMv8 first.
    pub sweeps: Vec<SweepResult>,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs answered from the cache.
    pub hits: u64,
}

/// A sweep workload, cold or warm.
pub struct Sweep {
    cfg: ExpConfig,
    threads: usize,
    /// The warm workload's executor, holding the loaded cache.
    warm: Option<ParallelExecutor>,
}

impl Sweep {
    /// Set up a sweep: calibrate both machines' cost functions, the work
    /// the campaign does before its first batch, and, when warm, load the
    /// cache file at `warm_cache`.
    ///
    /// # Panics
    ///
    /// If the cache file cannot be read.
    #[must_use]
    pub fn setup(seed: u64, threads: usize, warm_cache: Option<&Path>) -> Sweep {
        for arch in ARCHES {
            std::hint::black_box(Calibration::measure(
                &machine(arch),
                jvm_costfn_spill(arch),
                12,
            ));
        }
        let warm = warm_cache.map(|path| {
            let cache = SimCache::with_disk(path).expect("load the primed sweep cache");
            ParallelExecutor::new(Some(threads)).with_cache(cache)
        });
        Sweep {
            cfg: config(seed),
            threads,
            warm,
        }
    }

    /// Write every result of one cold pass to a fresh cache file at
    /// `path`, for the warm workload's set-up to load.
    ///
    /// # Panics
    ///
    /// If the file cannot be written.
    pub fn prime(seed: u64, threads: usize, path: &Path) {
        let _ = std::fs::remove_file(path);
        let cache = SimCache::with_disk(path).expect("create the sweep cache file");
        let exec = ParallelExecutor::new(Some(threads)).with_cache(cache);
        for arch in ARCHES {
            fig5_openjdk_sweeps_with(arch, config(seed), &exec);
        }
    }

    /// Run `f` on this pass's executor: the warm one, or a fresh one with
    /// an empty in-memory cache.
    fn with_executor<R>(&self, f: impl FnOnce(&ParallelExecutor) -> R) -> R {
        match &self.warm {
            Some(exec) => f(exec),
            None => f(&ParallelExecutor::new(Some(self.threads)).with_cache(SimCache::in_memory())),
        }
    }

    /// The traced replica of `sweep_with` for one benchmark.
    #[allow(clippy::too_many_arguments)]
    fn traced_sweep<P: Clone + Eq + std::hash::Hash + Send + Sync>(
        &self,
        t: &Tracer,
        exec: &ParallelExecutor,
        m: &wmm_sim::Machine,
        bench: &(dyn wmmbench::runner::BenchSpec<P> + Sync),
        strategy: &(dyn wmmbench::strategy::FencingStrategy<P> + Sync),
        cal: &Calibration,
        envelope: &std::collections::HashMap<P, u64>,
        probes: &mut Duration,
    ) -> SweepResult {
        let cfg = self.cfg.run;
        let runs = cfg.warmups + cfg.samples;
        let images = t.time("workloads.image", 0, || sample_images(bench, cfg));
        t.add("workloads.images", images.len() as f64);

        let targets = pow2_targets(0, 8);
        let mut injections = vec![Injection::None];
        let mut cfs = Vec::with_capacity(targets.len());
        for &t_ns in &targets {
            let (cf, actual_ns) = cal.for_target_ns(t_ns);
            injections.push(Injection::All(cf));
            cfs.push((t_ns, cf, actual_ns));
        }
        let linked = t.time("image.link", 0, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = injections
                    .into_iter()
                    .map(|injection| {
                        let env = envelope.clone();
                        let images = &images;
                        s.spawn(move || {
                            let rw = SiteRewriter::new(strategy, injection, env);
                            jobs_from_images(m, images, &rw)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("link worker"))
                    .collect::<Vec<_>>()
            })
        });
        let base_wu = linked[0].1;
        let jobs: Vec<SimJob<'_>> = linked.into_iter().flat_map(|(jobs, _)| jobs).collect();

        // Probes the untraced pass does not make: sizing the programs,
        // keying them on their own, and copying the jobs for the
        // simulator probe below.
        let probe = Instant::now();
        t.add("image.programs", jobs.len() as f64);
        t.add(
            "image.words",
            jobs.iter().map(|j| program_words(&j.program)).sum::<u64>() as f64,
        );
        t.time("harness.key", 0, || run_keyed(&jobs, self.threads, job_key));
        let copies: Vec<SimJob<'_>> = jobs
            .iter()
            .map(|j| SimJob {
                machine: j.machine,
                program: j.program.clone(),
                ctx: j.ctx.clone(),
                seed: j.seed,
                sited: j.sited,
            })
            .collect();
        *probes += probe.elapsed();

        let before = exec.telemetry();
        let outcomes = t.time("harness.run_batch", 0, || exec.run_batch_stats(jobs));
        let after = exec.telemetry();
        t.add(
            "harness.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
        );
        t.add(
            "harness.cache_misses",
            (after.cache_misses - before.cache_misses) as f64,
        );
        t.add(
            "harness.busy_ms",
            after.timing.sim_ms - before.timing.sim_ms,
        );

        // The simulator alone, serially, on every job the executor had to
        // simulate; it must reproduce the executor's wall time exactly.
        let probe = Instant::now();
        for (o, job) in outcomes.iter().zip(&copies) {
            if o.stats.is_none() {
                continue;
            }
            let s = t.time("sim.run", 0, || job.run_stats());
            assert_eq!(
                s.wall_ns.to_bits(),
                o.wall_ns.to_bits(),
                "simulator probe diverged from the executor"
            );
            let c = &s.counters;
            let fences: u64 = c.fence_counts.values().sum();
            t.add("sim.jobs", 1.0);
            t.add(
                "sim.events",
                (c.loads + c.stores + c.atomics + fences + c.cost_loop_iters) as f64,
            );
            t.add("sim.simulated_cycles", s.core_cycles.iter().sum());
        }
        drop(copies);
        *probes += probe.elapsed();

        let times: Vec<f64> = outcomes.iter().map(|o| o.wall_ns).collect();
        let base = measurement_from_times(&times[..runs], base_wu, cfg);
        let points: Vec<SweepPoint> = cfs
            .into_iter()
            .enumerate()
            .map(|(i, (t_ns, cf, actual_ns))| {
                let slice = &times[runs * (i + 1)..runs * (i + 2)];
                let test = measurement_from_times(slice, base_wu, cfg);
                let cmp = Comparison::of_times(&test.times_ns, &base.times_ns);
                SweepPoint {
                    target_ns: t_ns,
                    actual_ns,
                    iters: cf.iters,
                    rel_perf: cmp.ratio,
                    rel_min: cmp.min,
                    rel_max: cmp.max,
                }
            })
            .collect();
        let samples: Vec<(f64, f64)> = points.iter().map(|p| (p.actual_ns, p.rel_perf)).collect();
        let fit = t.time("model.fit", 0, || fit_sensitivity(&samples));
        t.add("model.fits", 1.0);
        t.add("model.fits_converged", f64::from(u8::from(fit.is_some())));
        SweepResult {
            benchmark: bench.name().to_string(),
            arch: m.spec().arch.label().to_string(),
            code_path: "all barriers".to_string(),
            points,
            fit,
        }
    }
}

impl Workload for Sweep {
    type Output = SweepOutput;

    fn units(&self) -> u64 {
        let per_arch = PAPER.len() * (pow2_targets(0, 8).len() + 1);
        (ARCHES.len() * per_arch * (self.cfg.run.warmups + self.cfg.run.samples)) as u64
    }

    fn pinned(&self) -> u64 {
        PINNED
    }

    fn pass(&mut self) -> SweepOutput {
        self.with_executor(|exec| {
            let before = exec.telemetry();
            let sweeps = ARCHES
                .iter()
                .flat_map(|&arch| fig5_openjdk_sweeps_with(arch, self.cfg, exec))
                .collect();
            let after = exec.telemetry();
            SweepOutput {
                sweeps,
                jobs: after.jobs - before.jobs,
                hits: after.cache_hits - before.cache_hits,
            }
        })
    }

    fn traced_pass(&mut self, t: &Tracer) -> (SweepOutput, Duration) {
        self.with_executor(|exec| {
            let before = exec.telemetry();
            let mut probes = Duration::ZERO;
            let mut sweeps = Vec::new();
            for &arch in &ARCHES {
                let m = machine(arch);
                let strategy = jvm_base_strategy(arch);
                let cal = t.time("costfn.calibrate", 0, || {
                    Calibration::measure(&m, jvm_costfn_spill(arch), 12)
                });
                let env = jvm_envelope(arch);
                for bench in dacapo_suite(JitConfig::jdk8(arch), self.cfg.scale) {
                    sweeps.push(self.traced_sweep(
                        t,
                        exec,
                        &m,
                        &bench,
                        &strategy,
                        &cal,
                        &env,
                        &mut probes,
                    ));
                }
            }
            let after = exec.telemetry();
            t.add("model.k_paper_err", k_paper_err(&sweeps));
            let out = SweepOutput {
                sweeps,
                jobs: after.jobs - before.jobs,
                hits: after.cache_hits - before.cache_hits,
            };
            (out, probes)
        })
    }

    fn check(&self, out: &SweepOutput) -> Check {
        // Cache behaviour is part of the workload's definition: cold
        // simulates every job, warm simulates none.
        let want_hits = if self.warm.is_some() { out.jobs } else { 0 };
        let cache_ok = out.jobs == self.units() && out.hits == want_hits;
        Check {
            failed: if cache_ok { 0 } else { self.units() },
            checksum: checksum(&out.sweeps),
        }
    }

    fn facts(&self, out: &SweepOutput) -> Vec<(&'static str, f64)> {
        vec![("k_paper_err", k_paper_err(&out.sweeps))]
    }
}
