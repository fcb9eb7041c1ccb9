//! A turnkey evaluation system — the extension proposed in the paper's
//! conclusion: "The process of iterating the cost function could also be
//! encapsulated in the VM, potentially yielding a turnkey evaluation
//! system."
//!
//! [`evaluate_with`] takes a machine, a benchmark and a fencing strategy
//! and runs the whole methodology unattended: calibrate the cost function, discover
//! the code paths actually present in the benchmark's image, sweep each
//! path, fit sensitivities, classify each (benchmark, path) pair as usable
//! or not, and rank the paths — producing everything a systems programmer
//! needs before committing to a fencing-strategy change.

use std::collections::HashMap;
use std::hash::Hash;

use wmm_sim::Machine;

use crate::costfn::Calibration;
use crate::exec::Executor;
use crate::image::compute_envelope;
use crate::json::{Json, ToJson};
use crate::model::SensitivityFit;
use crate::runner::{BenchSpec, RunConfig};
use crate::sensitivity::{pow2_targets, sweep_with, SweepTarget};
use crate::strategy::FencingStrategy;

/// Thresholds for the usability verdict (§3: a benchmark suits a code path
/// when `k` is not comparatively low and the fit variance is not high).
#[derive(Debug, Clone, Copy)]
pub struct Usability {
    /// Minimum sensitivity worth acting on.
    pub min_k: f64,
    /// Maximum tolerated relative standard error of the fit.
    pub max_rel_err: f64,
    /// Maximum tolerated mean compounded-error width (stability).
    pub max_instability: f64,
}

impl Default for Usability {
    fn default() -> Self {
        Usability {
            min_k: 5e-4,
            max_rel_err: 0.25,
            max_instability: 0.35,
        }
    }
}

/// Per-code-path result of a turnkey evaluation.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Human-readable path label.
    pub path: String,
    /// Dynamic invocation count in one image (the paper's rejected-but-
    /// indicative counter statistic, here obtained for free).
    pub invocations: u64,
    /// Fitted sensitivity, if the fit converged.
    pub fit: Option<SensitivityFit>,
    /// Mean compounded-error width across the sweep (instability).
    pub instability: f64,
    /// The §3 verdict: is this benchmark usable for evaluating this path?
    pub usable: bool,
}

/// The full turnkey report for one (machine, benchmark, strategy) triple.
#[derive(Debug, Clone)]
pub struct TurnkeyReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Architecture label.
    pub arch: String,
    /// Strategy name.
    pub strategy: String,
    /// Per-path results, sorted by descending sensitivity.
    pub paths: Vec<PathReport>,
}

impl ToJson for PathReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", self.path.to_json()),
            ("invocations", self.invocations.to_json()),
            ("fit", self.fit.to_json()),
            ("instability", Json::Num(self.instability)),
            ("usable", Json::Bool(self.usable)),
        ])
    }
}

impl ToJson for TurnkeyReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("arch", self.arch.to_json()),
            ("strategy", self.strategy.to_json()),
            ("paths", self.paths.to_json()),
        ])
    }
}

impl TurnkeyReport {
    /// The most sensitive usable path, if any — the natural first target
    /// for optimisation effort.
    pub fn hottest_usable(&self) -> Option<&PathReport> {
        self.paths.iter().find(|p| p.usable)
    }
}

/// Run the complete §3 methodology unattended.
///
/// `spill` selects the cost-function variant (whether a scratch register is
/// available on this platform); `targets_exp` bounds the sweep axis at
/// `2^targets_exp` ns. Each per-path sweep is one batch through `exec`, so
/// a parallel executor overlaps the simulations within every sweep.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_with<P>(
    machine: &Machine,
    bench: &(dyn BenchSpec<P> + Sync),
    strategy: &(dyn FencingStrategy<P> + Sync),
    spill: bool,
    targets_exp: u32,
    usability: Usability,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> TurnkeyReport
where
    P: Clone + Eq + Hash + std::fmt::Debug + Send + Sync,
{
    // 1. Calibrate.
    let calibration = Calibration::measure(machine, spill, 12);

    // 2. Discover the paths present and their invocation counts.
    let probe_image = bench.image(cfg.base_seed);
    let counts = probe_image.site_counts();
    let mut paths: Vec<P> = probe_image.paths();
    // Deterministic order for reproducible reports.
    paths.sort_by_key(|p| format!("{p:?}"));

    let extra = crate::costfn::CostFunction {
        iters: 1,
        stack_spill: spill,
    }
    .size();
    let envelope: HashMap<P, u64> = compute_envelope(&paths, &[strategy], extra);

    // 3. Sweep each path and fit.
    let mut reports = Vec::with_capacity(paths.len());
    for p in &paths {
        let result = sweep_with(
            machine,
            bench,
            strategy,
            SweepTarget::Path(p.clone()),
            &calibration,
            &pow2_targets(0, targets_exp),
            envelope.clone(),
            cfg,
            exec,
        );
        let instability = result.mean_error_width();
        let usable = result
            .fit
            .as_ref()
            .map(|f| {
                f.usable(usability.min_k, usability.max_rel_err)
                    && instability <= usability.max_instability
            })
            .unwrap_or(false);
        reports.push(PathReport {
            path: format!("{p:?}"),
            invocations: counts.get(p).copied().unwrap_or(0),
            fit: result.fit,
            instability,
            usable,
        });
    }

    // 4. Rank by sensitivity.
    reports.sort_by(|a, b| {
        let ka = a.fit.as_ref().map(|f| f.k).unwrap_or(0.0);
        let kb = b.fit.as_ref().map(|f| f.k).unwrap_or(0.0);
        kb.partial_cmp(&ka).expect("finite k")
    });

    TurnkeyReport {
        benchmark: bench.name().to_string(),
        arch: machine.spec().arch.label().to_string(),
        strategy: strategy.name().to_string(),
        paths: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SerialExecutor;
    use crate::image::{Image, Segment};
    use crate::strategy::FnStrategy;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::WorkloadCtx;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum P {
        Hot,
        Cold,
    }

    struct TwoPath;
    impl BenchSpec<P> for TwoPath {
        fn name(&self) -> &str {
            "twopath"
        }
        fn image(&self, _seed: u64) -> Image<P> {
            let mut segs = vec![];
            for i in 0..60 {
                segs.push(Segment::Code(vec![Instr::Compute { cycles: 400 }]));
                segs.push(Segment::Site(P::Hot));
                if i % 20 == 0 {
                    segs.push(Segment::Site(P::Cold));
                }
            }
            Image {
                threads: vec![segs],
                ctx: WorkloadCtx::default(),
                work_units: 60.0,
            }
        }
    }

    #[test]
    fn turnkey_ranks_hot_path_first_and_flags_usability() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &P| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let report = evaluate_with(
            &machine,
            &TwoPath,
            &strategy,
            false,
            9,
            Usability::default(),
            RunConfig::quick(),
            &SerialExecutor,
        );
        assert_eq!(report.benchmark, "twopath");
        assert_eq!(report.paths.len(), 2, "absent path not discovered");
        assert_eq!(report.paths[0].path, "Hot");
        assert!(report.paths[0].invocations > report.paths[1].invocations);
        let hottest = report.hottest_usable().expect("hot path usable");
        assert_eq!(hottest.path, "Hot");
        // The cold path is invoked 20x less often: lower k.
        let k0 = report.paths[0].fit.as_ref().unwrap().k;
        let k1 = report.paths[1].fit.as_ref().unwrap().k;
        assert!(k0 > 5.0 * k1, "hot {k0} vs cold {k1}");
    }

    #[test]
    fn turnkey_report_serialises() {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("dmb", |_: &P| vec![Instr::Fence(FenceKind::DmbIsh)]);
        let report = evaluate_with(
            &machine,
            &TwoPath,
            &strategy,
            false,
            6,
            Usability::default(),
            RunConfig::quick(),
            &SerialExecutor,
        );
        let json = report.to_json().to_string();
        assert!(json.contains("\"benchmark\":\"twopath\""));
    }
}
