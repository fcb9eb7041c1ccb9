//! End-to-end tests of the methodology pipeline: calibration → injection →
//! sweep → fit → cost estimation, across crates.

use wmm::wmm_bench::{machine, ExpConfig};
use wmm::wmm_sim::arch::Arch;
use wmm::wmm_sim::isa::{FenceKind, Instr};
use wmm::wmm_sim::machine::WorkloadCtx;
use wmm::wmmbench::costfn::Calibration;
use wmm::wmmbench::exec::SerialExecutor;
use wmm::wmmbench::image::{compute_envelope, Image, Injection, Segment, SiteRewriter};
use wmm::wmmbench::model::estimate_cost;
use wmm::wmmbench::runner::{measure_relative_with, measure_with, BenchSpec, RunConfig};
use wmm::wmmbench::sensitivity::{pow2_targets, sweep_with, SweepTarget};
use wmm::wmmbench::strategy::{FencingStrategy, FnStrategy};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OnePath;

/// A benchmark with an exactly-known structure: `sites` barrier sites, each
/// preceded by `compute` cycles of work, so the designed sensitivity is
/// computable in closed form.
struct Designed {
    sites: usize,
    compute: u32,
}

impl BenchSpec<OnePath> for Designed {
    fn name(&self) -> &str {
        "designed"
    }

    fn image(&self, _seed: u64) -> Image<OnePath> {
        let mut segs = vec![];
        for _ in 0..self.sites {
            segs.push(Segment::Code(vec![Instr::Compute {
                cycles: self.compute,
            }]));
            segs.push(Segment::Site(OnePath));
        }
        Image {
            threads: vec![segs],
            ctx: WorkloadCtx::default(),
            work_units: self.sites as f64,
        }
    }
}

fn strategy() -> impl FencingStrategy<OnePath> {
    FnStrategy::new("dmb", |_: &OnePath| vec![Instr::Fence(FenceKind::DmbIsh)])
}

#[test]
fn sweep_recovers_designed_sensitivity_within_tolerance() {
    let m = machine(Arch::ArmV8);
    let s = strategy();
    let cal = Calibration::measure(&m, false, 12);
    let env = compute_envelope(&[OnePath], &[&s], 3);
    // Designed: one site per (compute + fence) period.
    let bench = Designed {
        sites: 80,
        compute: 1200,
    };
    let result = sweep_with(
        &m,
        &bench,
        &s,
        SweepTarget::AllSites,
        &cal,
        &pow2_targets(0, 10),
        env,
        RunConfig::quick(),
        &SerialExecutor,
    );
    let fit = result.fit.expect("fit converges");
    // Period ~= 1200 cycles / 2.4 GHz = 500 ns (plus fence ~4 ns).
    let designed_k = 1.0 / 504.0;
    let rel = (fit.k - designed_k).abs() / designed_k;
    assert!(rel < 0.3, "k = {}, designed {designed_k}, rel {rel}", fit.k);
    assert!(fit.r_squared > 0.98);
}

#[test]
fn eq2_estimates_real_strategy_change_cost() {
    // Measure k by sweeping; apply a real change whose per-site cost we
    // know (dmb -> dmb + isb adds ~the isb flush); check Eq. 2's estimate.
    let m = machine(Arch::ArmV8);
    let s = strategy();
    let with_isb = FnStrategy::new("dmb+isb", |_: &OnePath| {
        vec![
            Instr::Fence(FenceKind::DmbIsh),
            Instr::Fence(FenceKind::Isb),
        ]
    });
    let cal = Calibration::measure(&m, false, 12);
    let env = compute_envelope(&[OnePath], &[&s, &with_isb], 3);
    let bench = Designed {
        sites: 80,
        compute: 1200,
    };
    let result = sweep_with(
        &m,
        &bench,
        &s,
        SweepTarget::AllSites,
        &cal,
        &pow2_targets(0, 10),
        env.clone(),
        RunConfig::quick(),
        &SerialExecutor,
    );
    let k = result.fit.expect("fit").k;

    let base_rw = SiteRewriter::new(&s, Injection::None, env.clone());
    let test_rw = SiteRewriter::new(&with_isb, Injection::None, env);
    let cmp = measure_relative_with(
        &m,
        &bench,
        &base_rw,
        &test_rw,
        RunConfig::quick(),
        &SerialExecutor,
    );
    assert!(cmp.ratio < 1.0, "adding isb must slow things down");
    let a = estimate_cost(k, cmp.ratio);
    // The isb costs ~48 cycles = 20 ns; estimate should be in that region.
    assert!(
        (8.0..40.0).contains(&a),
        "estimated isb cost {a} ns implausible"
    );
}

#[test]
fn measurements_are_deterministic_per_seed() {
    let m = machine(Arch::Power7);
    let s = strategy();
    let env = compute_envelope(&[OnePath], &[&s], 5);
    let rw = SiteRewriter::new(&s, Injection::None, env);
    let bench = Designed {
        sites: 40,
        compute: 500,
    };
    let cfg = RunConfig::quick();
    let a = measure_with(&m, &bench, &rw, cfg, &SerialExecutor);
    let b = measure_with(&m, &bench, &rw, cfg, &SerialExecutor);
    assert_eq!(a.times_ns, b.times_ns);
}

#[test]
fn warmups_are_discarded() {
    let m = machine(Arch::ArmV8);
    let s = strategy();
    let env = compute_envelope(&[OnePath], &[&s], 3);
    let rw = SiteRewriter::new(&s, Injection::None, env);
    let bench = Designed {
        sites: 10,
        compute: 100,
    };
    let cfg = RunConfig {
        samples: 5,
        warmups: 3,
        base_seed: 42,
    };
    let meas = measure_with(&m, &bench, &rw, cfg, &SerialExecutor);
    assert_eq!(meas.times_ns.len(), 5);
}

#[test]
fn quick_and_full_configs_differ() {
    let q = ExpConfig::quick();
    let f = ExpConfig::full();
    assert!(q.scale < f.scale);
    assert!(q.run.samples < f.run.samples);
    assert!(f.run.samples >= 6, "paper protocol: six or more samples");
    assert_eq!(f.run.warmups, 2, "paper protocol: two warm-ups discarded");
}
