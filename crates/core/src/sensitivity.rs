//! Sensitivity sweeps: vary the injected cost-function size, measure the
//! relative performance curve, and fit the idealised model (Figs. 1, 5, 6
//! and 9 of the paper).

use std::hash::Hash;

use wmm_sim::Machine;
use wmm_stats::Comparison;

use crate::costfn::Calibration;
use crate::exec::{wall_times, Executor};
use crate::image::{Injection, SiteRewriter};
use crate::model::{fit_sensitivity, SensitivityFit};
use crate::runner::{measurement_from_times, sample_images, BenchSpec, RunConfig, SampleCode};
use crate::strategy::FencingStrategy;

/// One point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Requested cost-function size, ns.
    pub target_ns: f64,
    /// Calibrated actual cost-function time, ns — the model's `a` value.
    pub actual_ns: f64,
    /// Loop iteration count used.
    pub iters: u64,
    /// Relative performance vs the nop-padded base case (geometric means).
    pub rel_perf: f64,
    /// Conservative lower bound (compounded min rule).
    pub rel_min: f64,
    /// Conservative upper bound.
    pub rel_max: f64,
}

/// A complete sweep with its model fit.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Architecture label ("arm"/"power").
    pub arch: String,
    /// Description of the injected code path(s).
    pub code_path: String,
    /// Measured points, ascending in `actual_ns`.
    pub points: Vec<SweepPoint>,
    /// The fitted sensitivity, if the fit converged.
    pub fit: Option<SensitivityFit>,
}

impl SweepResult {
    /// Instability heuristic: the mean relative width of the compounded
    /// error bounds. The paper rejects xalan-on-POWER and netperf-tcp style
    /// benchmarks on exactly this kind of spread.
    pub fn mean_error_width(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| ((p.rel_max - p.rel_min) / p.rel_perf).abs())
            .sum::<f64>()
            / self.points.len() as f64
    }
}

/// Where a sweep injects its cost function.
pub enum SweepTarget<P> {
    /// Every site (Fig. 5).
    AllSites,
    /// A single code path (Figs. 6 and 9).
    Path(P),
    /// Every site whose path is in the set (elemental barriers inside
    /// combined-barrier sites, Fig. 6).
    Paths(Vec<P>),
}

/// Run a sensitivity sweep.
///
/// `targets_ns` is the requested cost-size axis (the paper uses powers of
/// two, e.g. `2^0 ..= 2^8` ns); the calibration converts each target into a
/// loop count and supplies the measured time used for fitting. The base
/// case is the same strategy with `nop` padding in place of the loop.
///
/// The base case and every cost-size point are submitted to `exec` as a
/// single batch of independent simulation cells, so a parallel executor
/// can run the whole sweep concurrently.
///
/// The per-sample images are generated once and shared by every
/// configuration (they depend only on the benchmark and seed). No program
/// is linked, here or in the executor: each configuration only lowers its
/// sites, and a cell whose result is not cached is simulated in place over
/// the image's code and those lowerings.
#[allow(clippy::too_many_arguments)]
pub fn sweep_with<P: Clone + Eq + Hash>(
    machine: &Machine,
    bench: &dyn BenchSpec<P>,
    strategy: &dyn FencingStrategy<P>,
    target: SweepTarget<P>,
    calibration: &Calibration,
    targets_ns: &[f64],
    envelope: std::collections::HashMap<P, u64>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> SweepResult {
    let runs = cfg.warmups + cfg.samples;
    let images = sample_images(bench, cfg);
    let code = SampleCode::new(&images);

    let mut injections = vec![Injection::None];
    let mut cfs = Vec::with_capacity(targets_ns.len());
    for &t_ns in targets_ns {
        let (cf, actual_ns) = calibration.for_target_ns(t_ns);
        injections.push(match &target {
            SweepTarget::AllSites => Injection::All(cf),
            SweepTarget::Path(p) => Injection::At(p.clone(), cf),
            SweepTarget::Paths(ps) => Injection::Set(ps.clone(), cf),
        });
        cfs.push((t_ns, cf, actual_ns));
    }
    let tables: Vec<_> = injections
        .into_iter()
        .map(|injection| code.site_table(&SiteRewriter::new(strategy, injection, envelope.clone())))
        .collect();
    let cells = tables
        .iter()
        .flat_map(|sites| code.cells(machine, sites))
        .collect();

    let base_wu = code.work_units();
    let times = wall_times(exec.run_cells(cells));
    let base = measurement_from_times(&times[..runs], base_wu, cfg);

    let mut points = Vec::with_capacity(targets_ns.len());
    for (i, (t_ns, cf, actual_ns)) in cfs.into_iter().enumerate() {
        let slice = &times[runs * (i + 1)..runs * (i + 2)];
        let test = measurement_from_times(slice, base_wu, cfg);
        let cmp = Comparison::of_times(&test.times_ns, &base.times_ns);
        points.push(SweepPoint {
            target_ns: t_ns,
            actual_ns,
            iters: cf.iters,
            rel_perf: cmp.ratio,
            rel_min: cmp.min,
            rel_max: cmp.max,
        });
    }

    let fit = fit_sensitivity(
        &points
            .iter()
            .map(|p| (p.actual_ns, p.rel_perf))
            .collect::<Vec<_>>(),
    );
    SweepResult {
        benchmark: bench.name().to_string(),
        arch: machine.spec().arch.label().to_string(),
        code_path: match &target {
            SweepTarget::AllSites => "all barriers".to_string(),
            SweepTarget::Path(_) => "single code path".to_string(),
            SweepTarget::Paths(_) => "code path set".to_string(),
        },
        points,
        fit,
    }
}

/// The paper's cost-size axis: powers of two from `2^lo` to `2^hi` ns.
pub fn pow2_targets(lo: u32, hi: u32) -> Vec<f64> {
    (lo..=hi).map(|e| (1u64 << e) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SerialExecutor;
    use crate::image::{compute_envelope, Image, Segment};
    use crate::strategy::FnStrategy;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::WorkloadCtx;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct S;

    /// A synthetic benchmark with a controllable barrier density, so the
    /// recovered k has a known ballpark.
    struct Synthetic {
        sites: usize,
        compute_per_site: u32,
    }

    impl BenchSpec<S> for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }

        fn image(&self, _seed: u64) -> Image<S> {
            let mut segs = vec![];
            for _ in 0..self.sites {
                segs.push(Segment::Code(vec![Instr::Compute {
                    cycles: self.compute_per_site,
                }]));
                segs.push(Segment::Site(S));
            }
            Image {
                threads: vec![segs],
                ctx: WorkloadCtx::default(),
                work_units: self.sites as f64,
            }
        }
    }

    #[test]
    fn sweep_recovers_designed_sensitivity() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &S| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let cal = Calibration::measure(&machine, false, 12);
        let env = compute_envelope(&[S], &[&strategy], 3);

        // Design: each site costs ~1 ns/ns of injection; baseline site region
        // ~= compute (417 ns) + fence. k_design ~= 1ns / (site period).
        let bench = Synthetic {
            sites: 60,
            compute_per_site: 1000,
        };
        let result = sweep_with(
            &machine,
            &bench,
            &strategy,
            SweepTarget::AllSites,
            &cal,
            &pow2_targets(0, 10),
            env,
            RunConfig::quick(),
            &SerialExecutor,
        );
        let fit = result.fit.expect("fit converges");
        // Site period ~= 1000 cycles / 2.4 GHz ~= 417 ns + fence ~= 3 ns.
        let expected_k = 1.0 / 420.0;
        let rel = (fit.k - expected_k).abs() / expected_k;
        assert!(
            rel < 0.35,
            "k = {} expected ~{expected_k} (rel err {rel})",
            fit.k
        );
        // Performance must degrade monotonically (within noise).
        let first = result.points.first().unwrap().rel_perf;
        let last = result.points.last().unwrap().rel_perf;
        assert!(last < first * 0.9, "{first} -> {last}");
    }

    #[test]
    fn pow2_axis_matches_paper() {
        let axis = pow2_targets(0, 8);
        assert_eq!(axis.len(), 9);
        assert_eq!(axis[0], 1.0);
        assert_eq!(axis[8], 256.0);
    }

    #[test]
    fn single_path_sweep_only_touches_that_path() {
        // Two paths; sweep one; the benchmark only contains the other =>
        // no sensitivity.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum P2 {
            Hot,
            Cold,
        }
        struct OnlyHot;
        impl BenchSpec<P2> for OnlyHot {
            fn name(&self) -> &str {
                "onlyhot"
            }
            fn image(&self, _seed: u64) -> Image<P2> {
                let mut segs = vec![];
                for _ in 0..40 {
                    segs.push(Segment::Code(vec![Instr::Compute { cycles: 200 }]));
                    segs.push(Segment::Site(P2::Hot));
                }
                Image {
                    threads: vec![segs],
                    ctx: WorkloadCtx::default(),
                    work_units: 1.0,
                }
            }
        }
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &P2| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let cal = Calibration::measure(&machine, false, 10);
        let env = compute_envelope(&[P2::Hot, P2::Cold], &[&strategy], 3);
        let result = sweep_with(
            &machine,
            &OnlyHot,
            &strategy,
            SweepTarget::Path(P2::Cold),
            &cal,
            &pow2_targets(0, 8),
            env,
            RunConfig::quick(),
            &SerialExecutor,
        );
        for p in &result.points {
            assert!(
                (p.rel_perf - 1.0).abs() < 0.02,
                "cold path injection changed perf: {p:?}"
            );
        }
    }
}
