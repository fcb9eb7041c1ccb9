//! The measurement harness: run benchmarks under rewriter configurations,
//! with warm-ups, repeated samples and the paper's statistics.
//!
//! §4.1: "Unless otherwise noted all reported results are geometric mean
//! (reduce impact of outliers) from six or more samples measured after one
//! or more warm-up runs of a given benchmark. All error bars represent a 95%
//! confidence interval computed using the Student's t-distribution."

use std::hash::Hash;

use wmm_sim::Machine;
use wmm_stats::{Comparison, Summary};

use crate::exec::{wall_times, CellProgram, Executor, SimCell, SimJob};
use crate::image::{Image, ImageCode, SiteNames, SiteRewriter, SiteTable};

/// A benchmark: a black box producing a program image per sample seed.
///
/// Seed-dependence is how the paper's run-to-run variation appears: workload
/// generators vary their interleavings, access patterns and noise with the
/// seed, so repeated samples spread exactly like repeated executions.
pub trait BenchSpec<P> {
    /// Benchmark name as printed in figures (e.g. "spark", "netperf_udp").
    fn name(&self) -> &str;

    /// Produce the image for one sample.
    fn image(&self, seed: u64) -> Image<P>;
}

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Samples kept (the paper uses six or more).
    pub samples: usize,
    /// Warm-up runs discarded (the paper discards the first two).
    pub warmups: usize,
    /// Base seed; sample `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            samples: 6,
            warmups: 2,
            base_seed: 0x1CEB00DA,
        }
    }
}

impl RunConfig {
    /// A faster configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        RunConfig {
            samples: 3,
            warmups: 1,
            base_seed: 0x1CEB00DA,
        }
    }
}

/// A measured distribution of execution times for one configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-sample wall times, ns (warm-ups excluded).
    pub times_ns: Vec<f64>,
    /// Work units per run, for throughput conversion.
    pub work_units: f64,
}

impl Measurement {
    /// Summary statistics of the times.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.times_ns)
    }
}

/// Generate the `cfg.warmups + cfg.samples` per-sample images of `bench`,
/// paired with their seeds. Images depend only on `(bench, seed)`, so
/// several rewriter configurations under comparison can be linked from one
/// shared set instead of regenerating it per configuration — image
/// generation dominates sweep setup otherwise.
pub fn sample_images<P>(bench: &dyn BenchSpec<P>, cfg: RunConfig) -> Vec<(u64, Image<P>)> {
    (0..cfg.warmups + cfg.samples)
        .map(|i| {
            let seed = cfg.base_seed.wrapping_add(i as u64);
            (seed, bench.image(seed))
        })
        .collect()
}

/// Link pre-generated sample images (from [`sample_images`]) into
/// simulation jobs under `rewriter`, plus the work-unit count.
pub fn jobs_from_images<'m, P: Clone + Eq + Hash>(
    machine: &'m Machine,
    images: &[(u64, Image<P>)],
    rewriter: &SiteRewriter<'_, P>,
) -> (Vec<SimJob<'m>>, f64) {
    let mut jobs = Vec::with_capacity(images.len());
    let mut work_units = 1.0;
    for (seed, image) in images {
        work_units = image.work_units;
        jobs.push(SimJob {
            machine,
            program: rewriter.link(image),
            ctx: image.ctx.clone(),
            seed: *seed,
            sited: false,
        });
    }
    (jobs, work_units)
}

/// Per-sample images (from [`sample_images`]) ready to become simulation
/// cells under any number of rewriters: each image's code is indexed once,
/// and its digests computed once, for every configuration run from it.
pub struct SampleCode<'i, P> {
    samples: &'i [(u64, Image<P>)],
    paths: Vec<P>,
    code: Vec<ImageCode<'i>>,
}

impl<'i, P: Clone + Eq + Hash> SampleCode<'i, P> {
    /// Index every sample's sites into one shared path list.
    pub fn new(samples: &'i [(u64, Image<P>)]) -> Self {
        let mut paths = Vec::new();
        let code = samples
            .iter()
            .map(|(_, image)| ImageCode::new(image, &mut paths))
            .collect();
        SampleCode {
            samples,
            paths,
            code,
        }
    }

    /// `rewriter`'s lowering of every path of the samples.
    pub fn site_table(&self, rewriter: &SiteRewriter<'_, P>) -> SiteTable {
        rewriter.site_table(&self.paths)
    }

    /// One image cell per sample under `sites`, in sample order.
    pub fn cells<'a>(&'a self, machine: &'a Machine, sites: &'a SiteTable) -> Vec<SimCell<'a>> {
        self.samples
            .iter()
            .zip(&self.code)
            .map(|((seed, image), code)| SimCell {
                machine,
                program: CellProgram::Image(code, sites),
                ctx: image.ctx.clone(),
                seed: *seed,
                sited: false,
            })
            .collect()
    }

    /// Per-sample [`SiteNames`] under `sites`, in sample order: what a
    /// sited run of each of [`SampleCode::cells`] folds its stall records
    /// by. Images can vary with the sample seed, so profiles join records
    /// by site *name*, not raw index.
    pub fn site_names(&self, sites: &SiteTable) -> Vec<SiteNames>
    where
        P: std::fmt::Debug,
    {
        self.samples
            .iter()
            .map(|(_, image)| SiteNames::new(image, &self.paths, sites))
            .collect()
    }

    /// Work units per run (the last sample's, as [`jobs_from_images`]
    /// reports).
    pub fn work_units(&self) -> f64 {
        self.samples
            .last()
            .map_or(1.0, |(_, image)| image.work_units)
    }
}

/// Assemble a [`Measurement`] from batch results (drops warm-ups).
pub fn measurement_from_times(times: &[f64], work_units: f64, cfg: RunConfig) -> Measurement {
    Measurement {
        times_ns: times[cfg.warmups..].to_vec(),
        work_units,
    }
}

/// Run `bench` under `rewriter` on `machine` and collect samples, as one
/// batch through `exec`.
pub fn measure_with<P: Clone + Eq + Hash>(
    machine: &Machine,
    bench: &dyn BenchSpec<P>,
    rewriter: &SiteRewriter<'_, P>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> Measurement {
    let images = sample_images(bench, cfg);
    let code = SampleCode::new(&images);
    let sites = code.site_table(rewriter);
    let times = wall_times(exec.run_cells(code.cells(machine, &sites)));
    measurement_from_times(&times, code.work_units(), cfg)
}

/// Measure a test configuration against a base configuration and return the
/// relative performance (base time / test time; < 1 means the test case is
/// slower), with the paper's compounded min/max error rule. Base and test
/// samples are submitted to `exec` as one batch so they can run
/// concurrently.
pub fn measure_relative_with<P: Clone + Eq + Hash>(
    machine: &Machine,
    bench: &dyn BenchSpec<P>,
    base: &SiteRewriter<'_, P>,
    test: &SiteRewriter<'_, P>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> Comparison {
    let images = sample_images(bench, cfg);
    let code = SampleCode::new(&images);
    let (base_sites, test_sites) = (code.site_table(base), code.site_table(test));
    let mut cells = code.cells(machine, &base_sites);
    let split = cells.len();
    cells.extend(code.cells(machine, &test_sites));
    let times = wall_times(exec.run_cells(cells));
    let b = measurement_from_times(&times[..split], code.work_units(), cfg);
    let t = measurement_from_times(&times[split..], code.work_units(), cfg);
    Comparison::of_times(&t.times_ns, &b.times_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costfn::CostFunction;
    use crate::exec::SerialExecutor;
    use crate::image::{compute_envelope, Injection, Segment};
    use crate::strategy::FnStrategy;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::WorkloadCtx;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct OnlyPath;

    struct Toy {
        sites: usize,
        compute: u32,
    }

    impl BenchSpec<OnlyPath> for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn image(&self, _seed: u64) -> Image<OnlyPath> {
            let mut segs = vec![];
            for _ in 0..self.sites {
                segs.push(Segment::Code(vec![Instr::Compute {
                    cycles: self.compute,
                }]));
                segs.push(Segment::Site(OnlyPath));
            }
            Image {
                threads: vec![segs],
                ctx: WorkloadCtx::default(),
                work_units: self.sites as f64,
            }
        }
    }

    #[test]
    fn measurement_discards_warmups_and_keeps_samples() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &OnlyPath| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let env = compute_envelope(&[OnlyPath], &[&strategy], 5);
        let rw = SiteRewriter::new(&strategy, Injection::None, env);
        let bench = Toy {
            sites: 50,
            compute: 100,
        };
        let m = measure_with(&machine, &bench, &rw, RunConfig::quick(), &SerialExecutor);
        assert_eq!(m.times_ns.len(), 3);
        assert!(m.summary().mean > 0.0);
        assert_eq!(m.work_units, 50.0);
    }

    #[test]
    fn injection_slows_the_benchmark() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &OnlyPath| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let cf = CostFunction {
            iters: 1 << 10,
            stack_spill: true,
        };
        let env = compute_envelope(&[OnlyPath], &[&strategy], cf.size());
        let base = SiteRewriter::new(&strategy, Injection::None, env.clone());
        let test = SiteRewriter::new(&strategy, Injection::All(cf), env);
        let bench = Toy {
            sites: 100,
            compute: 100,
        };
        let c = measure_relative_with(
            &machine,
            &bench,
            &base,
            &test,
            RunConfig::quick(),
            &SerialExecutor,
        );
        assert!(
            c.ratio < 0.5,
            "a 1024-iteration loop per site must hurt: p = {}",
            c.ratio
        );
        assert!(c.significant());
    }

    #[test]
    fn identical_configs_show_no_change() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &OnlyPath| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let env = compute_envelope(&[OnlyPath], &[&strategy], 5);
        let a = SiteRewriter::new(&strategy, Injection::None, env.clone());
        let b = SiteRewriter::new(&strategy, Injection::None, env);
        let bench = Toy {
            sites: 50,
            compute: 100,
        };
        let c = measure_relative_with(
            &machine,
            &bench,
            &a,
            &b,
            RunConfig::quick(),
            &SerialExecutor,
        );
        assert!((c.ratio - 1.0).abs() < 1e-9, "p = {}", c.ratio);
    }
}
