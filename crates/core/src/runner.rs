//! The measurement harness: run benchmarks under rewriter configurations,
//! with warm-ups, repeated samples and the paper's statistics.
//!
//! §4.1: "Unless otherwise noted all reported results are geometric mean
//! (reduce impact of outliers) from six or more samples measured after one
//! or more warm-up runs of a given benchmark. All error bars represent a 95%
//! confidence interval computed using the Student's t-distribution."
//!
//! Every measurement batch of image cells is a [`Batch`], and `Batch::kept`
//! is the one place that drops its warm-ups: callers fold kept samples only.

use std::hash::Hash;

use wmm_sim::Machine;
use wmm_stats::Comparison;

use crate::exec::{wall_times, CellProgram, Executor, JobOutcome, SimCell, SimJob};
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
    pub fn cells<'a>(
        &'a self,
        machine: &'a Machine,
        sites: &'a SiteTable,
    ) -> impl Iterator<Item = SimCell<'a>> {
        self.samples
            .iter()
            .zip(&self.code)
            .map(move |((seed, image), code)| SimCell {
                machine,
                program: CellProgram::Image(code, sites),
                ctx: image.ctx.clone(),
                seed: *seed,
                sited: false,
            })
    }
}

/// Assemble a [`Measurement`] from one configuration's wall times (drops warm-ups).
pub fn measurement_from_times(times: &[f64], work_units: f64, cfg: RunConfig) -> Measurement {
    Measurement {
        times_ns: times[cfg.warmups..].to_vec(),
        work_units,
    }
}

/// One measurement batch: any number of configurations, each one
/// benchmark's samples under one rewriter, run as a single batch of cells
/// in configuration order, sample after sample in seed order. Each
/// configuration gets back its kept samples: `Batch::kept` is the one
/// place a batch drops warm-ups.
pub struct Batch<'a, P> {
    machine: &'a Machine,
    warmups: usize,
    configs: Vec<(&'a SampleCode<'a, P>, SiteTable)>,
}

impl<'a, P: Clone + Eq + Hash> Batch<'a, P> {
    /// A batch of `configs` on `machine`, each pairing samples from
    /// [`sample_images`] under `cfg` with a rewriter.
    pub fn new(
        machine: &'a Machine,
        cfg: RunConfig,
        configs: impl IntoIterator<Item = (&'a SampleCode<'a, P>, &'a SiteRewriter<'a, P>)>,
    ) -> Self {
        let configs = configs.into_iter().map(|(c, rw)| (c, c.site_table(rw)));
        Batch {
            machine,
            warmups: cfg.warmups,
            configs: configs.collect(),
        }
    }

    /// Run the batch through `exec`: each configuration's kept outcomes.
    pub fn run(self, exec: &dyn Executor) -> Vec<Vec<JobOutcome>> {
        self.kept(exec.run_cells(self.cells(false)))
    }

    /// [`Batch::run`] with every cell sited, each kept outcome paired with
    /// its sample's [`SiteNames`] (images vary with the seed, so stall
    /// records are joined by site name).
    pub fn run_sited(self, exec: &dyn Executor) -> Vec<Vec<(JobOutcome, SiteNames)>>
    where
        P: std::fmt::Debug,
    {
        let kept = self.kept(exec.run_cells(self.cells(true)));
        // Name only the kept samples: warm-ups are dropped unnamed.
        let configs = kept.into_iter().zip(&self.configs);
        let named = configs.map(|(outcomes, (code, sites))| {
            let images = code.samples.iter().skip(self.warmups);
            let name = |(_, image): &(u64, Image<P>)| SiteNames::new(image, &code.paths, sites);
            outcomes.into_iter().zip(images.map(name)).collect()
        });
        named.collect()
    }

    fn cells(&self, sited: bool) -> Vec<SimCell<'_>> {
        let (machine, configs) = (self.machine, self.configs.iter());
        let cells = configs.flat_map(|(code, sites)| code.cells(machine, sites));
        cells.map(|c| SimCell { sited, ..c }).collect()
    }

    /// Split `runs`, one per cell in submission order, into each
    /// configuration's samples after its warm-ups.
    fn kept<T>(&self, runs: impl IntoIterator<Item = T>) -> Vec<Vec<T>> {
        let mut runs = runs.into_iter();
        let mut keep = |n| runs.by_ref().take(n).skip(self.warmups).collect();
        let sizes = self.configs.iter().map(|(code, _)| code.samples.len());
        sizes.map(&mut keep).collect()
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
    let kept = Batch::new(machine, cfg, [(&code, rewriter)]).run(exec);
    Measurement {
        times_ns: kept.into_iter().flat_map(wall_times).collect(),
        // The last sample's, as `jobs_from_images` reports.
        work_units: images.last().map_or(1.0, |(_, image)| image.work_units),
    }
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
    let batch = Batch::new(machine, cfg, [(&code, base), (&code, test)]);
    let times: Vec<_> = batch.run(exec).into_iter().map(wall_times).collect();
    Comparison::of_times(&times[1], &times[0])
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

    /// A benchmark whose site count follows the seed, so every sample
    /// has its own [`SiteNames`].
    struct Seeded;

    impl BenchSpec<OnlyPath> for Seeded {
        fn name(&self) -> &str {
            "seeded"
        }

        fn image(&self, seed: u64) -> Image<OnlyPath> {
            Toy {
                sites: 1 + (seed % 4) as usize,
                compute: 10,
            }
            .image(seed)
        }
    }

    /// Records the `(seed, digest, sited)` of every cell of every batch it
    /// is given, and answers a batch's cell `i` with wall time `i`.
    #[derive(Default)]
    struct Recorder {
        batches: std::sync::Mutex<Vec<Vec<(u64, crate::digest::Digest, bool)>>>,
    }

    impl Executor for Recorder {
        fn run_cells(&self, cells: Vec<SimCell<'_>>) -> Vec<JobOutcome> {
            let record = cells.iter().map(|c| (c.seed, c.digest(), c.sited));
            self.batches.lock().unwrap().push(record.collect());
            (0..cells.len())
                .map(|i| JobOutcome::cached(i as f64))
                .collect()
        }
    }

    /// Two rewriters whose site tables differ: plain and cost-injected.
    fn plain_and_injected(
        strategy: &dyn crate::strategy::FencingStrategy<OnlyPath>,
    ) -> [SiteRewriter<'_, OnlyPath>; 2] {
        let cf = CostFunction {
            iters: 4,
            stack_spill: false,
        };
        let env = compute_envelope(&[OnlyPath], &[strategy], cf.size());
        [
            SiteRewriter::new(strategy, Injection::None, env.clone()),
            SiteRewriter::new(strategy, Injection::All(cf), env),
        ]
    }

    const LAYOUT: RunConfig = RunConfig {
        samples: 3,
        warmups: 2,
        base_seed: 11,
    };

    #[test]
    fn batch_submits_once_and_keeps_each_configurations_samples() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &OnlyPath| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let rws = plain_and_injected(&strategy);
        let toy = Toy {
            sites: 5,
            compute: 20,
        };
        let (a, b) = (sample_images(&Seeded, LAYOUT), sample_images(&toy, LAYOUT));
        let (a, b) = (SampleCode::new(&a), SampleCode::new(&b));
        // Two benchmarks under two rewriters, rewriter-major as a ranking
        // matrix submits them.
        let configs = [(&a, &rws[0]), (&b, &rws[0]), (&a, &rws[1]), (&b, &rws[1])];
        let exec = Recorder::default();
        let kept = Batch::new(&machine, LAYOUT, configs).run(&exec);

        let mut expected = vec![];
        for (code, rw) in configs {
            let sites = code.site_table(rw);
            let cells = code.cells(&machine, &sites);
            expected.extend(cells.map(|c| (c.seed, c.digest(), false)));
        }
        assert_eq!(
            *exec.batches.lock().unwrap(),
            [expected],
            "one batch, in order"
        );

        let (w, s) = (LAYOUT.warmups, LAYOUT.samples);
        assert_eq!(kept.len(), configs.len());
        for (c, outcomes) in kept.iter().enumerate() {
            let positions: Vec<f64> = outcomes.iter().map(|o| o.wall_ns).collect();
            let want: Vec<f64> = (c * (w + s) + w..c * (w + s) + w + s)
                .map(|i| i as f64)
                .collect();
            assert_eq!(positions, want, "configuration {c}");
        }
    }

    #[test]
    fn sited_batch_pairs_each_kept_outcome_with_its_samples_names() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &OnlyPath| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let rws = plain_and_injected(&strategy);
        let images = sample_images(&Seeded, LAYOUT);
        let code = SampleCode::new(&images);
        let exec = Recorder::default();
        let kept =
            Batch::new(&machine, LAYOUT, [(&code, &rws[0]), (&code, &rws[1])]).run_sited(&exec);

        let batches = exec.batches.lock().unwrap();
        assert_eq!(batches.len(), 1);
        assert!(batches[0].iter().all(|&(_, _, sited)| sited));
        let (w, s) = (LAYOUT.warmups, LAYOUT.samples);
        assert_eq!(kept.len(), 2);
        for (c, (samples, rw)) in kept.iter().zip(&rws).enumerate() {
            let sites = code.site_table(rw);
            let names: Vec<_> = images
                .iter()
                .map(|(_, image)| SiteNames::new(image, &code.paths, &sites))
                .collect();
            assert_eq!(samples.len(), s);
            for (j, (outcome, sample_names)) in samples.iter().enumerate() {
                assert_eq!(outcome.wall_ns, (c * (w + s) + w + j) as f64);
                assert_eq!(*sample_names, names[w + j], "configuration {c}, sample {j}");
            }
        }
        // The seeds give neighbouring samples different names, so a
        // misaligned pairing shows.
        assert!(kept[0].windows(2).all(|p| p[0].1 != p[1].1));
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
        assert!(m.times_ns.iter().all(|&t| t > 0.0));
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
