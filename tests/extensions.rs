//! Tests for the implemented future-work extensions: the SC-preserving
//! strategy comparison (§5), the JIT optimisation-site annotation and the
//! turnkey evaluation system (both from the paper's conclusion).

use wmm::wmm_bench::{machine, sc_strategy_experiment, ExpConfig};
use wmm::wmm_jvm::jit::JitConfig;
use wmm::wmm_jvm::optsites::{JvmPath, OptAwareStrategy, OptPass};
use wmm::wmm_kernel::macros::default_arm_strategy;
use wmm::wmm_sim::arch::Arch;
use wmm::wmm_workloads::dacapo::{profile, DacapoBench, OptAnnotatedBench};
use wmm::wmm_workloads::kernel::{kernel_profile, KernelBench};
use wmm::wmmbench::exec::SerialExecutor;
use wmm::wmmbench::runner::{BenchSpec, RunConfig};
use wmm::wmmbench::turnkey::{evaluate_with, Usability};

fn cfg() -> ExpConfig {
    ExpConfig {
        scale: 0.3,
        run: RunConfig {
            samples: 3,
            warmups: 1,
            base_seed: 0x1CEB00DA,
        },
    }
}

#[test]
fn sc_strategy_sits_between_marinos_bounds() {
    // §5: ARM might fit within Marino's 34% maximum slowdown, but their
    // 3.8% x86 mean "is unlikely to be replicated".
    let rows = sc_strategy_experiment(cfg(), &SerialExecutor);
    let drops: Vec<f64> = rows.iter().map(|r| -r.cmp.percent_change()).collect();
    let mean = drops.iter().sum::<f64>() / drops.len() as f64;
    let worst = drops.iter().cloned().fold(0.0, f64::max);
    assert!(worst < 34.0, "worst {worst}% exceeds Marino's bound");
    assert!(
        mean > 3.8,
        "mean {mean}% should exceed the x86 mean on a weaker model"
    );
    // The kernel-insensitive JVM benchmarks barely notice even full SC.
    let h2 = rows.iter().find(|r| r.bench == "h2").unwrap();
    assert!(-h2.cmp.percent_change() < 1.0);
}

#[test]
fn optsite_sensitivities_track_what_each_pass_touches() {
    let arch = Arch::ArmV8;
    let m = machine(arch);
    let inner = wmm::wmm_bench::jvm_base_strategy(arch);
    let strategy = OptAwareStrategy::new(&inner);
    let bench = OptAnnotatedBench(DacapoBench::new(
        profile("spark").unwrap(),
        JitConfig::jdk8(arch),
        0.3,
    ));
    let cal = wmm::wmmbench::costfn::Calibration::measure(&m, false, 10);
    let paths = bench.image(1).paths();
    let env = wmm::wmmbench::image::compute_envelope(
        &paths,
        &[&strategy as &dyn wmm::wmmbench::strategy::FencingStrategy<JvmPath>],
        3,
    );
    let k_of = |pass: OptPass| {
        wmm::wmmbench::sensitivity::sweep_with(
            &m,
            &bench,
            &strategy,
            wmm::wmmbench::sensitivity::SweepTarget::Path(JvmPath::Opt(pass)),
            &cal,
            &wmm::wmmbench::sensitivity::pow2_targets(0, 8),
            env.clone(),
            RunConfig::quick(),
            &SerialExecutor,
        )
        .fit
        .map(|f| f.k)
        .unwrap_or(0.0)
    };
    // spark holds far more monitor operations than volatile loads, so lock
    // elision has far more headroom than redundant-volatile-load removal.
    let lock = k_of(OptPass::LockElision);
    let vload = k_of(OptPass::RedundantVolatileLoad);
    let escape = k_of(OptPass::EscapeAnalysis);
    assert!(lock > 5.0 * vload, "lock {lock} vs vload {vload}");
    assert!(escape > vload, "escape {escape} vs vload {vload}");
}

#[test]
fn turnkey_identifies_rbd_and_smp_mb_as_netperfs_hot_paths() {
    let m = machine(Arch::ArmV8);
    let strategy = default_arm_strategy();
    let bench = KernelBench::new(kernel_profile("netperf_udp").unwrap(), 0.25);
    let report = evaluate_with(
        &m,
        &bench,
        &strategy,
        true,
        8,
        Usability::default(),
        RunConfig::quick(),
        &SerialExecutor,
    );
    assert_eq!(report.benchmark, "netperf_udp");
    assert!(report.paths.len() >= 5, "paths: {}", report.paths.len());
    // The two most sensitive paths are the RCU dereference and the full
    // barrier, matching the Fig. 7 ranking for this benchmark.
    let top2: Vec<&str> = report.paths[..2].iter().map(|p| p.path.as_str()).collect();
    assert!(top2.contains(&"ReadBarrierDepends"), "{top2:?}");
    assert!(top2.contains(&"SmpMb"), "{top2:?}");
    let hottest = report.hottest_usable().expect("usable path exists");
    assert!(hottest.fit.as_ref().unwrap().k > 0.004);
    // Sensitivity ranking is descending.
    let ks: Vec<f64> = report
        .paths
        .iter()
        .map(|p| p.fit.as_ref().map(|f| f.k).unwrap_or(0.0))
        .collect();
    for w in ks.windows(2) {
        assert!(w[0] >= w[1] - 1e-9, "not sorted: {ks:?}");
    }
}
