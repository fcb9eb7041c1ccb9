//! The experiment drivers. Every figure and in-text table of the paper's
//! evaluation (§4) has a function here; the campaign registry prints them,
//! integration tests assert their shapes.

use std::collections::HashMap;
use std::hash::Hash;

use wmm_harness::SimTotals;
use wmm_jvm::barrier::{all_site_combinations, sites_containing, Combined, Elemental};
use wmm_jvm::jit::{JavaOp, JitConfig, VolatileMode};
use wmm_jvm::strategy::{
    arm_jdk8_barriers, arm_storestore_as_full, power_jdk9, power_storestore_as_sync, JvmStrategy,
};
use wmm_kernel::macros::{default_arm_strategy, KMacro};
use wmm_kernel::rbd::{rbd_strategy, RbdStrategy};
use wmm_sim::arch::{armv8_xgene1, power7, Arch};
use wmm_sim::isa::{FenceKind, Instr, Loc};
use wmm_sim::machine::{Program, WorkloadCtx};
use wmm_sim::Machine;
use wmm_stats::Comparison;
use wmm_workloads::dacapo::{dacapo_suite, profile, DacapoBench};
use wmm_workloads::kernel::{kernel_profile, kernel_suite, lmbench_subs, KernelBench};
use wmmbench::costfn::{Calibration, CostFunction};
use wmmbench::exec::{Executor, SimJob};
use wmmbench::image::{compute_envelope, Injection, SiteRewriter};
use wmmbench::model::{estimate_cost, SensitivityFit};
use wmmbench::ranking::{ranking_matrix_with, RankingMatrix};
use wmmbench::runner::{
    measure_relative_with, measure_with, sample_images, Batch, BenchSpec, RunConfig, SampleCode,
};
use wmmbench::sensitivity::{pow2_targets, sweep_with, SweepResult, SweepTarget};
use wmmbench::strategy::{FencingStrategy, FnStrategy};

/// Global experiment configuration: workload scale and sampling protocol.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Image-size multiplier.
    pub scale: f64,
    /// Sampling protocol.
    pub run: RunConfig,
}

impl ExpConfig {
    /// Full-fidelity configuration (the paper's protocol: ≥6 samples after
    /// 2 warm-ups).
    pub fn full() -> Self {
        ExpConfig {
            scale: 1.0,
            run: RunConfig::default(),
        }
    }

    /// Reduced configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.25,
            run: RunConfig::quick(),
        }
    }
}

/// The `results/` directory (created if needed).
pub(crate) fn results_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The `results/runs/` directory where campaign manifests are written.
pub(crate) fn runs_dir() -> std::path::PathBuf {
    results_dir().join("runs")
}

/// The machine for an architecture.
pub fn machine(arch: Arch) -> Machine {
    Machine::new(match arch {
        Arch::ArmV8 => armv8_xgene1(),
        Arch::Power7 => power7(),
    })
}

/// The base (unmodified) JVM fencing strategy for an architecture.
pub fn jvm_base_strategy(arch: Arch) -> JvmStrategy {
    match arch {
        Arch::ArmV8 => arm_jdk8_barriers(),
        Arch::Power7 => power_jdk9(),
    }
}

/// Cost function footprint for JVM experiments: the ARMv8 OpenJDK has a
/// scratch register (`x9`), so the stack spill is elided (§4.1, Fig. 2);
/// POWER must spill.
pub fn jvm_costfn_spill(arch: Arch) -> bool {
    arch == Arch::Power7
}

/// Envelope for JVM experiments: covers the base strategy, both StoreStore
/// modifications, and the cost function.
pub fn jvm_envelope(arch: Arch) -> HashMap<Combined, u64> {
    let paths = all_site_combinations();
    let base = jvm_base_strategy(arch);
    let ss_full = arm_storestore_as_full();
    let ss_sync = power_storestore_as_sync();
    let strategies: Vec<&dyn FencingStrategy<Combined>> = vec![&base, &ss_full, &ss_sync];
    let extra = CostFunction {
        iters: 1,
        stack_spill: jvm_costfn_spill(arch),
    }
    .size();
    compute_envelope(&paths, &strategies, extra)
}

/// Envelope for kernel experiments: covers all six rbd strategies plus the
/// (stack-spilling) cost function.
pub fn kernel_envelope() -> HashMap<KMacro, u64> {
    let paths: Vec<KMacro> = KMacro::ALL.to_vec();
    let strategies: Vec<_> = RbdStrategy::ALL.iter().map(|s| rbd_strategy(*s)).collect();
    let refs: Vec<&dyn FencingStrategy<KMacro>> = strategies
        .iter()
        .map(|s| s as &dyn FencingStrategy<KMacro>)
        .collect();
    let extra = CostFunction {
        iters: 1,
        stack_spill: true,
    }
    .size();
    compute_envelope(&paths, &refs, extra)
}

// ---------------------------------------------------------------------------
// Figures 1 and 4: the cost function itself
// ---------------------------------------------------------------------------

/// Fig. 1: an example sensitivity fit over cost sizes up to 2^14, on a
/// stable mid-sensitivity benchmark (the paper's example has k ≈ 0.00277).
pub(crate) fn fig1_example_fit(cfg: ExpConfig, exec: &dyn Executor) -> SweepResult {
    let m = machine(Arch::ArmV8);
    let strategy = jvm_base_strategy(Arch::ArmV8);
    let cal = Calibration::measure(&m, false, 14);
    let bench = DacapoBench::new(
        profile("h2").expect("h2 exists"),
        JitConfig::jdk8(Arch::ArmV8),
        cfg.scale,
    );
    sweep_with(
        &m,
        &bench,
        &strategy,
        SweepTarget::AllSites,
        &cal,
        &pow2_targets(0, 14),
        jvm_envelope(Arch::ArmV8),
        cfg.run,
        exec,
    )
}

/// Fig. 4: cost-function execution time vs loop count for the three
/// variants (arm, arm-nostack, power).
pub(crate) fn fig4_costfn_calibration() -> Vec<(&'static str, Calibration)> {
    let arm = machine(Arch::ArmV8);
    let pow = machine(Arch::Power7);
    vec![
        ("arm", Calibration::measure(&arm, true, 10)),
        ("arm-nostack", Calibration::measure(&arm, false, 10)),
        ("power", Calibration::measure(&pow, true, 10)),
    ]
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: OpenJDK sweeps
// ---------------------------------------------------------------------------

/// Fig. 5's published sensitivities: `(benchmark, k on ARMv8, k on POWER7)`.
pub(crate) const FIG5_PAPER_K: [(&str, f64, f64); 8] = [
    ("h2", 0.00339, 0.00251),
    ("lusearch", 0.00213, 0.00118),
    ("spark", 0.00870, 0.01227),
    ("sunflow", 0.00187, 0.00164),
    ("tomcat", 0.00250, 0.00397),
    ("tradebeans", 0.00262, 0.00385),
    ("tradesoap", 0.00238, 0.00314),
    ("xalan", 0.00606, 0.00152),
];

/// Fig. 5: cost-function sweep injected into *all* memory barriers, for the
/// eight benchmarks on one architecture. Each benchmark's sweep is one
/// batch of independent simulations through `exec`.
pub fn fig5_openjdk_sweeps_with(
    arch: Arch,
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> Vec<SweepResult> {
    let m = machine(arch);
    let strategy = jvm_base_strategy(arch);
    let cal = Calibration::measure(&m, jvm_costfn_spill(arch), 12);
    let env = jvm_envelope(arch);
    dacapo_suite(JitConfig::jdk8(arch), cfg.scale)
        .iter()
        .map(|bench| {
            sweep_with(
                &m,
                bench,
                &strategy,
                SweepTarget::AllSites,
                &cal,
                &pow2_targets(0, 8),
                env.clone(),
                cfg.run,
                exec,
            )
        })
        .collect()
}

/// Fig. 6: spark's sensitivity to each elemental barrier (injection hits
/// every combined site containing the elemental).
pub fn fig6_spark_elementals(
    arch: Arch,
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> Vec<(Elemental, SweepResult)> {
    let m = machine(arch);
    let strategy = jvm_base_strategy(arch);
    let cal = Calibration::measure(&m, jvm_costfn_spill(arch), 12);
    let env = jvm_envelope(arch);
    let bench = DacapoBench::new(
        profile("spark").expect("spark exists"),
        JitConfig::jdk8(arch),
        cfg.scale,
    );
    Elemental::ALL
        .iter()
        .map(|e| {
            let result = sweep_with(
                &m,
                &bench,
                &strategy,
                SweepTarget::Paths(sites_containing(*e)),
                &cal,
                &pow2_targets(0, 8),
                env.clone(),
                cfg.run,
                exec,
            );
            (*e, result)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §4.2.1 in-text experiments
// ---------------------------------------------------------------------------

/// Result of one strategy comparison on one benchmark.
#[derive(Debug, Clone)]
pub struct StrategyDelta {
    /// Benchmark name.
    pub bench: String,
    /// Relative performance (test/base, < 1 = slower).
    pub cmp: Comparison,
}

/// §4.2.1: nop instructions injected into every elemental barrier vs the
/// truly unmodified JVM (mean drop: 1.9% ARM / 0.7% POWER; peak 4.5% on
/// h2-ARM).
pub fn jvm_nop_overhead(arch: Arch, cfg: ExpConfig, exec: &dyn Executor) -> Vec<StrategyDelta> {
    let m = machine(arch);
    let strategy = jvm_base_strategy(arch);
    // Unmodified: envelope with no padding room. Padded: the standard one.
    let paths = all_site_combinations();
    let tight = compute_envelope(&paths, &[&strategy as &dyn FencingStrategy<Combined>], 0);
    let padded = jvm_envelope(arch);
    let base_rw = SiteRewriter::new(&strategy, Injection::None, tight);
    let pad_rw = SiteRewriter::new(&strategy, Injection::None, padded);
    dacapo_suite(JitConfig::jdk8(arch), cfg.scale)
        .iter()
        .map(|bench| StrategyDelta {
            bench: bench.name().to_string(),
            cmp: measure_relative_with(&m, bench, &base_rw, &pad_rw, cfg.run, exec),
        })
        .collect()
}

/// §4.2.1: the StoreStore modification on spark — `dmb ishst` → `dmb ish`
/// on ARM (−0.7%), `lwsync` → `sync` on POWER (−12.5%). Returns the
/// comparison plus the Eq. 2 cost estimate computed from the Fig. 6
/// sensitivity.
pub fn storestore_experiment(
    arch: Arch,
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> (Comparison, f64, Option<f64>) {
    let m = machine(arch);
    let base = jvm_base_strategy(arch);
    let modified = match arch {
        Arch::ArmV8 => arm_storestore_as_full(),
        Arch::Power7 => power_storestore_as_sync(),
    };
    let env = jvm_envelope(arch);
    let bench = DacapoBench::new(
        profile("spark").expect("spark exists"),
        JitConfig::jdk8(arch),
        cfg.scale,
    );
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let mod_rw = SiteRewriter::new(&modified, Injection::None, env.clone());
    let cmp = measure_relative_with(&m, &bench, &base_rw, &mod_rw, cfg.run, exec);

    // Sensitivity of spark to StoreStore, for the Eq. 2 estimate.
    let cal = Calibration::measure(&m, jvm_costfn_spill(arch), 12);
    let sweep_res = sweep_with(
        &m,
        &bench,
        &base,
        SweepTarget::Paths(sites_containing(Elemental::StoreStore)),
        &cal,
        &pow2_targets(0, 8),
        env,
        cfg.run,
        exec,
    );
    let k = sweep_res.fit.as_ref().map(|f| f.k);
    let a = k.map(|k| wmmbench::model::estimate_cost(k, cmp.ratio));
    (cmp, k.unwrap_or(f64::NAN), a)
}

/// §4.2.1: microbenchmarked `sync` and `lwsync` execution times on POWER
/// (paper: 18.9 ns and 6.1 ns) and the indistinguishable `dmb` variants on
/// ARM. Returns `(label, ns)` rows.
pub fn fence_microbenchmarks() -> Vec<(String, f64)> {
    let pow = machine(Arch::Power7);
    let arm = machine(Arch::ArmV8);
    let mut rows = vec![];
    for (label, m, kind) in [
        ("power sync", &pow, FenceKind::HwSync),
        ("power lwsync", &pow, FenceKind::LwSync),
        ("arm dmb ish", &arm, FenceKind::DmbIsh),
        ("arm dmb ishld", &arm, FenceKind::DmbIshLd),
        ("arm dmb ishst", &arm, FenceKind::DmbIshSt),
    ] {
        let ns = m.time_sequence_ns(&[Instr::Fence(kind)], 2000, 7);
        rows.push((label.to_string(), ns));
    }
    rows
}

/// The Dekker-style SB idiom over volatile fields: the store→load ordering
/// volatiles guarantee (shared by the `fence_lint` and `fence_synth`
/// static-analysis campaigns).
pub(crate) fn volatile_sb_idiom() -> Vec<Vec<JavaOp>> {
    let (x, y) = (Loc::SharedRw(1), Loc::SharedRw(2));
    vec![
        vec![JavaOp::VolatileStore(x), JavaOp::VolatileLoad(y)],
        vec![JavaOp::VolatileStore(y), JavaOp::VolatileLoad(x)],
    ]
}

/// The message-passing idiom: plain data store published by a volatile
/// flag (shared by the `fence_lint` and `fence_synth` campaigns).
pub(crate) fn volatile_mp_idiom() -> Vec<Vec<JavaOp>> {
    let (data, flag) = (Loc::SharedRw(3), Loc::SharedRw(4));
    vec![
        vec![JavaOp::FieldStore(data), JavaOp::VolatileStore(flag)],
        vec![JavaOp::VolatileLoad(flag), JavaOp::FieldLoad(data)],
    ]
}

/// Measured per-invocation fence costs, driven through the [`Executor`]
/// seam (the same batch path the figure campaigns use) rather than a
/// direct `Machine` call — `fence_synth` records these next to its
/// Eq. 1/Eq. 2-priced static table as a cross-check.
///
/// Repetitions are fixed (not protocol-scaled) so the resulting manifest
/// cells are identical under `--quick` and the full protocol.
pub(crate) fn seam_fence_costs(exec: &dyn Executor, arch: Arch) -> Vec<(FenceKind, f64)> {
    const REPS: usize = 2000;
    let m = machine(arch);
    let kinds: &[FenceKind] = match arch {
        Arch::ArmV8 => &[
            FenceKind::DmbIsh,
            FenceKind::DmbIshLd,
            FenceKind::DmbIshSt,
            FenceKind::Isb,
        ],
        Arch::Power7 => &[FenceKind::HwSync, FenceKind::LwSync],
    };
    // The idle-machine context `Machine::time_sequence_ns` uses: §4.2.1's
    // "basic microbenchmarking", with all the blind spots the paper notes.
    let ctx = WorkloadCtx {
        name: "micro".to_string(),
        bp_pressure: 0.0,
        load_pressure: 0.0,
        l1_miss_rate: 0.0,
        dram_frac: 0.0,
        noise_amp: 0.0,
    };
    let jobs: Vec<SimJob> = kinds
        .iter()
        .map(|&k| SimJob {
            machine: &m,
            program: Program::new(vec![vec![Instr::Fence(k); REPS]]),
            ctx: ctx.clone(),
            seed: 7,
            sited: false,
        })
        .collect();
    let times = exec.run_batch(jobs);
    kinds
        .iter()
        .zip(times)
        .map(|(&k, t)| (k, t / REPS as f64))
        .collect()
}

/// §4.2.1: JDK9 load-acquire/store-release vs JDK8 barriers on ARM, per
/// benchmark (paper: xalan +2.9%, sunflow +3.0%, h2 −0.3%, spark −0.5%,
/// tomcat −1.7%; lusearch/tradebeans/tradesoap not significant).
pub(crate) fn lasr_vs_barriers(cfg: ExpConfig, exec: &dyn Executor) -> Vec<StrategyDelta> {
    let m = machine(Arch::ArmV8);
    let strategy = jvm_base_strategy(Arch::ArmV8);
    let env = jvm_envelope(Arch::ArmV8);
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let base_suite = dacapo_suite(JitConfig::jdk8(Arch::ArmV8), cfg.scale);
    let lasr_suite = dacapo_suite(JitConfig::jdk9(Arch::ArmV8), cfg.scale);
    base_suite
        .iter()
        .zip(&lasr_suite)
        .map(|(b8, b9)| {
            let base = measure_with(&m, b8, &rw, cfg.run, exec);
            let test = measure_with(&m, b9, &rw, cfg.run, exec);
            StrategyDelta {
                bench: b8.name().to_string(),
                cmp: Comparison::of_times(&test.times_ns, &base.times_ns),
            }
        })
        .collect()
}

/// §4.2.1: the pending DMB-elimination locking patch on spark, under both
/// volatile modes (paper: +2.9% with la/sr, −1% with barriers).
pub fn locking_patch_experiment(cfg: ExpConfig, exec: &dyn Executor) -> Vec<(String, Comparison)> {
    let m = machine(Arch::ArmV8);
    let strategy = jvm_base_strategy(Arch::ArmV8);
    let env = jvm_envelope(Arch::ArmV8);
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let spark = profile("spark").expect("spark exists");
    let mut out = vec![];
    for (label, mode) in [
        ("la/sr", VolatileMode::LoadAcquireStoreRelease),
        ("barriers", VolatileMode::Barriers),
    ] {
        let mk = |patched| {
            DacapoBench::new(
                spark.clone(),
                JitConfig {
                    arch: Arch::ArmV8,
                    volatile_mode: mode,
                    locking_patch: patched,
                },
                cfg.scale,
            )
        };
        let base = measure_with(&m, &mk(false), &rw, cfg.run, exec);
        let test = measure_with(&m, &mk(true), &rw, cfg.run, exec);
        out.push((
            label.to_string(),
            Comparison::of_times(&test.times_ns, &base.times_ns),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// §4.3: Linux kernel
// ---------------------------------------------------------------------------

/// Figs. 7 and 8: the (macro × benchmark) ranking matrix with a fixed
/// 1024-iteration cost function. The entire matrix is one batch of
/// independent simulations through `exec`.
pub fn linux_ranking_with(cfg: ExpConfig, exec: &dyn Executor) -> RankingMatrix<KMacro> {
    let m = machine(Arch::ArmV8);
    let strategy = default_arm_strategy();
    let suite = kernel_suite(cfg.scale);
    let benches: Vec<&dyn BenchSpec<KMacro>> =
        suite.iter().map(|b| b as &dyn BenchSpec<KMacro>).collect();
    let cf = CostFunction {
        iters: 1024,
        stack_spill: true,
    };
    ranking_matrix_with(
        &m,
        &benches,
        &strategy,
        &KMacro::ALL,
        cf,
        kernel_envelope(),
        cfg.run,
        exec,
    )
}

/// §4.3: nop padding vs the unmodified kernel (paper: mean −1.9%, worst
/// −6.6% on netperf).
pub fn kernel_nop_overhead(cfg: ExpConfig, exec: &dyn Executor) -> Vec<StrategyDelta> {
    let m = machine(Arch::ArmV8);
    let strategy = default_arm_strategy();
    let tight = compute_envelope(
        KMacro::ALL.as_ref(),
        &[&strategy as &dyn FencingStrategy<KMacro>],
        0,
    );
    let base_rw = SiteRewriter::new(&strategy, Injection::None, tight);
    let pad_rw = SiteRewriter::new(&strategy, Injection::None, kernel_envelope());
    kernel_suite(cfg.scale)
        .iter()
        .map(|bench| StrategyDelta {
            bench: bench.name().to_string(),
            cmp: measure_relative_with(&m, bench, &base_rw, &pad_rw, cfg.run, exec),
        })
        .collect()
}

/// Fig. 9's published `read_barrier_depends` sensitivities.
pub(crate) const FIG9_PAPER_K: [(&str, f64); 6] = [
    ("ebizzy", 0.00106),
    ("xalan", 0.00038),
    ("netperf_udp", 0.00943),
    ("osm_stack", 0.00019),
    ("lmbench", 0.00525),
    ("netperf_tcp", 0.00355),
];

/// Fig. 9: `read_barrier_depends` sensitivity sweeps on the six most
/// interesting kernel benchmarks. Each benchmark's sweep is one batch of
/// independent simulations through `exec`.
pub fn fig9_rbd_sweeps_with(cfg: ExpConfig, exec: &dyn Executor) -> Vec<SweepResult> {
    let m = machine(Arch::ArmV8);
    let strategy = default_arm_strategy();
    let cal = Calibration::measure(&m, true, 12);
    let env = kernel_envelope();
    [
        "ebizzy",
        "xalan",
        "netperf_udp",
        "osm_stack",
        "lmbench",
        "netperf_tcp",
    ]
    .iter()
    .map(|name| {
        let bench = KernelBench::new(kernel_profile(name).expect("profile exists"), cfg.scale);
        sweep_with(
            &m,
            &bench,
            &strategy,
            SweepTarget::Path(KMacro::ReadBarrierDepends),
            &cal,
            &pow2_targets(0, 9),
            env.clone(),
            cfg.run,
            exec,
        )
    })
    .collect()
}

/// Fig. 10: relative performance of the six rbd fencing strategies on the
/// six benchmarks, against the nop-padded base case.
pub fn fig10_rbd_strategies(
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> Vec<(RbdStrategy, Vec<StrategyDelta>)> {
    let m = machine(Arch::ArmV8);
    let env = kernel_envelope();
    let base = rbd_strategy(RbdStrategy::BaseCase);
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let benches: Vec<KernelBench> = [
        "ebizzy",
        "xalan",
        "netperf_udp",
        "osm_stack",
        "lmbench",
        "netperf_tcp",
    ]
    .iter()
    .map(|n| KernelBench::new(kernel_profile(n).expect("exists"), cfg.scale))
    .collect();
    let bases: Vec<_> = benches
        .iter()
        .map(|b| measure_with(&m, b, &base_rw, cfg.run, exec))
        .collect();

    RbdStrategy::ALL
        .iter()
        .map(|s| {
            let strat = rbd_strategy(*s);
            let rw = SiteRewriter::new(&strat, Injection::None, env.clone());
            let deltas = benches
                .iter()
                .zip(&bases)
                .map(|(b, base_m)| {
                    let test = measure_with(&m, b, &rw, cfg.run, exec);
                    StrategyDelta {
                        bench: b.name().to_string(),
                        cmp: Comparison::of_times(&test.times_ns, &base_m.times_ns),
                    }
                })
                .collect();
            (*s, deltas)
        })
        .collect()
}

/// §5 (related work, Marino et al.): an SC-preserving fencing strategy —
/// every kernel macro lowered to a full `dmb ish`, and the `_ONCE`
/// annotations fenced too, approximating what an SC-preserving compiler
/// would emit at shared accesses. The paper conjectures ARM could stay
/// within Marino's 34% maximum slowdown but not replicate their 3.8% x86
/// mean. Returns per-benchmark relative performance vs the default kernel.
pub fn sc_strategy_experiment(cfg: ExpConfig, exec: &dyn Executor) -> Vec<StrategyDelta> {
    let m = machine(Arch::ArmV8);
    let base = default_arm_strategy();
    let mut sc = default_arm_strategy().named("SC-preserving");
    for mac in KMacro::ALL {
        sc = sc.with(mac, vec![Instr::Fence(FenceKind::DmbIsh)]);
    }
    let env = {
        let paths: Vec<KMacro> = KMacro::ALL.to_vec();
        let strategies: Vec<_> = RbdStrategy::ALL.iter().map(|s| rbd_strategy(*s)).collect();
        let mut refs: Vec<&dyn FencingStrategy<KMacro>> = strategies
            .iter()
            .map(|s| s as &dyn FencingStrategy<KMacro>)
            .collect();
        refs.push(&sc);
        compute_envelope(&paths, &refs, 5)
    };
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let sc_rw = SiteRewriter::new(&sc, Injection::None, env);
    kernel_suite(cfg.scale)
        .iter()
        .map(|bench| StrategyDelta {
            bench: bench.name().to_string(),
            cmp: measure_relative_with(&m, bench, &base_rw, &sc_rw, cfg.run, exec),
        })
        .collect()
}

/// §4.3.1: equivalent per-invocation cost `a` of each rbd strategy,
/// computed via Eq. 2 from (a) the lmbench aggregate and (b) the mean over
/// the other benchmarks. Returns `(strategy, a_lmbench, a_others)` rows.
///
/// Paper values: ctrl 4.6/10.1, ctrl+isb 24.5/24.5, dmb ishld 10.7/1.8,
/// dmb ish 11.0/10.7, la/sr 21.7/15.9 ns — with the ctrl and ishld
/// micro/macro divergences being the headline observations.
pub fn rbd_cost_estimates(cfg: ExpConfig, exec: &dyn Executor) -> Vec<(RbdStrategy, f64, f64)> {
    let m = machine(Arch::ArmV8);
    let env = kernel_envelope();
    let cal = Calibration::measure(&m, true, 12);
    let base = rbd_strategy(RbdStrategy::BaseCase);

    // Sensitivities to the rbd code path, per benchmark.
    let bench_names = ["ebizzy", "xalan", "netperf_udp", "osm_stack", "netperf_tcp"];
    let mut k_of: HashMap<String, f64> = HashMap::new();
    let mut benches: Vec<KernelBench> = vec![];
    for n in bench_names {
        benches.push(KernelBench::new(
            kernel_profile(n).expect("exists"),
            cfg.scale,
        ));
    }
    let lm_subs = lmbench_subs(cfg.scale);
    let k_for = |bench: &KernelBench| -> Option<f64> {
        let r = sweep_with(
            &m,
            bench,
            &base,
            SweepTarget::Path(KMacro::ReadBarrierDepends),
            &cal,
            &pow2_targets(0, 9),
            env.clone(),
            cfg.run,
            exec,
        );
        r.fit.map(|f| f.k)
    };
    for b in &benches {
        if let Some(k) = k_for(b) {
            k_of.insert(b.name().to_string(), k);
        }
    }
    // lmbench: aggregate of the sub-benchmarks (arithmetic mean post
    // comparison, as the paper specifies).
    let lm_ks: Vec<f64> = lm_subs.iter().filter_map(k_for).collect();

    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let mut rows = vec![];
    for s in [
        RbdStrategy::Ctrl,
        RbdStrategy::CtrlIsb,
        RbdStrategy::DmbIshld,
        RbdStrategy::DmbIsh,
        RbdStrategy::LaSr,
    ] {
        let strat = rbd_strategy(s);
        let rw = SiteRewriter::new(&strat, Injection::None, env.clone());

        // lmbench estimate: mean of per-sub estimates.
        let mut lm_as = vec![];
        for (sub, k) in lm_subs.iter().zip(&lm_ks) {
            let cmp = measure_relative_with(&m, sub, &base_rw, &rw, cfg.run, exec);
            if *k > 1e-6 {
                lm_as.push(wmmbench::model::estimate_cost(*k, cmp.ratio));
            }
        }
        let a_lm = if lm_as.is_empty() {
            f64::NAN
        } else {
            lm_as.iter().sum::<f64>() / lm_as.len() as f64
        };

        // Other benchmarks.
        let mut other_as = vec![];
        for b in &benches {
            let Some(&k) = k_of.get(b.name()) else {
                continue;
            };
            if k < 1e-5 {
                continue; // too insensitive to invert Eq. 2 meaningfully
            }
            let cmp = measure_relative_with(&m, b, &base_rw, &rw, cfg.run, exec);
            other_as.push(wmmbench::model::estimate_cost(k, cmp.ratio));
        }
        let a_others = if other_as.is_empty() {
            f64::NAN
        } else {
            other_as.iter().sum::<f64>() / other_as.len() as f64
        };
        rows.push((s, a_lm, a_others));
    }
    rows
}

// ---------------------------------------------------------------------------
// Fence attribution: observed simulator stall cycles vs Eq. 2 inference
// ---------------------------------------------------------------------------

/// One observed-vs-inferred fence cost attribution row: the same fencing
/// change costed two independent ways — the simulator's own per-execution
/// stall cycles (ground truth flowing through the `run_batch_stats` seam)
/// and the Eq. 2 inversion of the measured performance ratio under the
/// benchmark's fitted sensitivity.
#[derive(Debug, Clone)]
pub(crate) struct AttributionRow {
    /// Campaign the row belongs to (`"fig5-arm"` or `"fig9-kernel"`).
    pub campaign: &'static str,
    /// Benchmark name.
    pub bench: String,
    /// Fence mnemonic being attributed.
    pub fence: &'static str,
    /// Fitted sensitivity `k` used for the Eq. 2 inversion.
    pub k: f64,
    /// Measured relative performance `p` of the fenced vs unfenced
    /// configuration.
    pub rel_perf: f64,
    /// Fence executions attributed (the differential count).
    pub fence_execs: u64,
    /// Observed ns per invocation: attributed stall cycles / executions,
    /// converted at the core clock.
    pub observed_ns: f64,
    /// Eq. 2 inferred ns per invocation: `estimate_cost(k, p)`.
    pub eq2_ns: f64,
}

impl AttributionRow {
    /// The agreement factor between the two costings: `max(obs/eq2,
    /// eq2/obs)`. 1.0 is perfect; the repository's acceptance bar is 2.0.
    /// Non-positive or non-finite inputs yield infinity.
    pub(crate) fn agreement(&self) -> f64 {
        let (a, b) = (self.observed_ns, self.eq2_ns);
        if !a.is_finite() || !b.is_finite() || a <= 0.0 || b <= 0.0 {
            return f64::INFINITY;
        }
        (a / b).max(b / a)
    }
}

/// One per-*site* observed fence cost, the finer-grained companion of an
/// [`AttributionRow`]: the same Eq. 2 per-invocation estimate, set against
/// the stall cycles one specific site's fences actually paid.
#[derive(Debug, Clone)]
pub(crate) struct SiteCostRow {
    /// Campaign the row belongs to.
    pub campaign: &'static str,
    /// Benchmark name.
    pub bench: String,
    /// Stable site name (from the sited batch's `SiteNames`).
    pub site: String,
    /// Fence mnemonic executed at the site.
    pub fence: &'static str,
    /// Fence executions at this site across the measurement samples.
    pub fences: u64,
    /// Observed ns per invocation at this site.
    pub observed_ns: f64,
    /// The benchmark-level Eq. 2 inferred ns per invocation (one estimate
    /// per benchmark — Eq. 2 sees only the aggregate slowdown).
    pub eq2_ns: f64,
}

/// The attribution rows for one campaign plus the sensitivity fits they
/// were inverted through (for the run manifest).
#[derive(Debug, Clone, Default)]
pub(crate) struct AttributionReport {
    /// Per-(benchmark, fence) attribution rows.
    pub rows: Vec<AttributionRow>,
    /// Per-site observed costs backing the rows, where the campaign runs
    /// sited batches (fig5-arm does; fig9's differential design compares
    /// two strategies whose site sets differ, so it stays per-kind).
    pub site_rows: Vec<SiteCostRow>,
    /// `(label, fit)` pairs, one per benchmark whose fit converged.
    pub fits: Vec<(String, SensitivityFit)>,
}

/// Run one measurement batch through the stats seam: sample wall times
/// (warm-ups dropped) plus the simulation totals aggregated over the
/// freshly simulated sample jobs. Totals cover only jobs the executor
/// actually simulated — batches answered from a result cache contribute
/// times but no stats, which is why attribution batches run *before* any
/// sweep that would seed the cache with the same cells.
fn batch_with_stats<P: Clone + Eq + Hash>(
    m: &Machine,
    bench: &dyn BenchSpec<P>,
    rw: &SiteRewriter<'_, P>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> (Vec<f64>, SimTotals) {
    let images = sample_images(bench, cfg);
    let code = SampleCode::new(&images);
    let kept = Batch::new(m, cfg, [(&code, rw)]).run(exec);
    let mut totals = SimTotals::default();
    for s in kept.iter().flatten().filter_map(|o| o.stats.as_ref()) {
        totals.merge_stats(s);
    }
    (kept.iter().flatten().map(|o| o.wall_ns).collect(), totals)
}

/// Fig. 5 ARM campaign attribution: for each DaCapo benchmark, measure a
/// fence-free JVM against one that emits a single `dmb ish` per barrier
/// site, so per-site and per-fence costs coincide. The benchmark's
/// sensitivity `k` comes from an all-sites cost-function sweep over the
/// same fence-free baseline; Eq. 2 then converts the measured ratio into
/// an inferred ns-per-invocation to set against the simulator's observed
/// stall cycles per `dmb ish`.
pub(crate) fn fig5_arm_fence_attribution(cfg: ExpConfig, exec: &dyn Executor) -> AttributionReport {
    let m = machine(Arch::ArmV8);
    let spec = m.spec().clone();
    let nofence = FnStrategy::new("no-fence", |_: &Combined| vec![]);
    let dmb = FnStrategy::new("dmb-per-site", |_: &Combined| {
        vec![Instr::Fence(FenceKind::DmbIsh)]
    });
    let env = jvm_envelope(Arch::ArmV8);
    let cal = Calibration::measure(&m, jvm_costfn_spill(Arch::ArmV8), 12);
    let mut report = AttributionReport::default();
    for bench in dacapo_suite(JitConfig::jdk8(Arch::ArmV8), cfg.scale) {
        let base_rw = SiteRewriter::new(&nofence, Injection::None, env.clone());
        let test_rw = SiteRewriter::new(&dmb, Injection::None, env.clone());
        // Attribution batches first: their stats must be freshly simulated,
        // and the sweep below then reuses the base cells from cache. The
        // test side runs sited so the per-kind totals can also be reported
        // per site; its times and totals are bit-identical to the unsited
        // batch (the probe only observes values the executor computed).
        let (base_t, base_s) = batch_with_stats(&m, &bench, &base_rw, cfg.run, exec);
        let test_b = crate::profiling::batch_with_profile(&m, &bench, &test_rw, cfg.run, exec);
        let (test_t, test_s) = (test_b.times, test_b.totals);
        let cmp = Comparison::of_times(&test_t, &base_t);
        let s = sweep_with(
            &m,
            &bench,
            &nofence,
            SweepTarget::AllSites,
            &cal,
            &pow2_targets(0, 8),
            env.clone(),
            cfg.run,
            exec,
        );
        let Some(fit) = s.fit else { continue };
        let execs = *test_s
            .counters
            .fence_counts
            .get(&FenceKind::DmbIsh)
            .unwrap_or(&0);
        if execs == 0 || fit.k < 1e-5 {
            continue; // no fences ran, or too insensitive to invert Eq. 2
        }
        // A full barrier's observed cost is its own stall cycles plus the
        // store-buffer stalls it induces downstream (drains serialize the
        // buffer, so pressure the baseline absorbed for free now shows up
        // as stalls). Eq. 2 sees total slowdown, so the observed side must
        // count the same effects.
        let stall = test_s
            .counters
            .fence_cycles
            .get(&FenceKind::DmbIsh)
            .unwrap_or(&0.0)
            + (test_s.sb_stall_cycles - base_s.sb_stall_cycles);
        let eq2_ns = estimate_cost(fit.k, cmp.ratio);
        report.rows.push(AttributionRow {
            campaign: "fig5-arm",
            bench: bench.name().to_string(),
            fence: FenceKind::DmbIsh.mnemonic(),
            k: fit.k,
            rel_perf: cmp.ratio,
            fence_execs: execs,
            observed_ns: spec.ns(stall) / execs as f64,
            eq2_ns,
        });
        // The per-site decomposition of the same observed cost: each
        // site's own stall cycles per execution (the sb-drain surcharge
        // above is a whole-run differential and has no per-site split).
        for (site, sp) in &test_b.profile.sites {
            if sp.fences == 0 {
                continue;
            }
            report.site_rows.push(SiteCostRow {
                campaign: "fig5-arm",
                bench: bench.name().to_string(),
                site: site.clone(),
                fence: FenceKind::DmbIsh.mnemonic(),
                fences: sp.fences,
                observed_ns: spec.ns(sp.fence_cycles) / sp.fences as f64,
                eq2_ns,
            });
        }
        report
            .fits
            .push((format!("fig5-arm/{}", bench.name()), fit));
    }
    report
}

/// Fig. 9 kernel campaign attribution: per-kind *differential* costing of
/// the fence-based `read_barrier_depends` strategies against the base-case
/// kernel. Both kernels emit the default fences everywhere else, so
/// subtracting the base run's per-kind stall cycles and counts isolates
/// exactly the fences the strategy added at rbd sites. The sensitivity `k`
/// comes from the benchmark's rbd-path sweep (Fig. 9), mirroring how the
/// paper's §4.3.1 Eq. 2 estimates are produced.
pub(crate) fn fig9_fence_attribution(cfg: ExpConfig, exec: &dyn Executor) -> AttributionReport {
    let m = machine(Arch::ArmV8);
    let spec = m.spec().clone();
    let env = kernel_envelope();
    let cal = Calibration::measure(&m, true, 12);
    let base = rbd_strategy(RbdStrategy::BaseCase);
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    // The strategies whose rbd sequence is a hardware fence, with the kind
    // the differential attributes (ctrl has no fence; la/sr also refences
    // the _ONCE macros, so its delta is not a single-kind attribution).
    let cases = [
        (RbdStrategy::DmbIshld, FenceKind::DmbIshLd),
        (RbdStrategy::DmbIsh, FenceKind::DmbIsh),
        (RbdStrategy::CtrlIsb, FenceKind::Isb),
    ];
    let mut report = AttributionReport::default();
    for name in ["ebizzy", "netperf_udp", "lmbench", "netperf_tcp"] {
        let bench = KernelBench::new(kernel_profile(name).expect("profile exists"), cfg.scale);
        // Differential batches first (fresh stats), sweep afterwards.
        let (base_t, base_s) = batch_with_stats(&m, &bench, &base_rw, cfg.run, exec);
        let mut measured = Vec::with_capacity(cases.len());
        for (s, kind) in cases {
            let strat = rbd_strategy(s);
            let rw = SiteRewriter::new(&strat, Injection::None, env.clone());
            let (test_t, test_s) = batch_with_stats(&m, &bench, &rw, cfg.run, exec);
            measured.push((s, kind, Comparison::of_times(&test_t, &base_t), test_s));
        }
        let sweep_res = sweep_with(
            &m,
            &bench,
            &base,
            SweepTarget::Path(KMacro::ReadBarrierDepends),
            &cal,
            &pow2_targets(0, 9),
            env.clone(),
            cfg.run,
            exec,
        );
        let Some(fit) = sweep_res.fit else { continue };
        // The paper's §3 usability rule of thumb, applied to attribution: a
        // benchmark whose rbd sensitivity is comparatively low (ebizzy sits
        // at k ≈ 0.001, 3–9x below the network/lmbench kernels) leaves the
        // Eq. 2 inversion dominated by measurement noise in `p`, so its
        // inferred cost is not a meaningful cross-check. Same reasoning as
        // `SensitivityFit::usable`.
        if !fit.usable(2e-3, 0.5) {
            continue; // too insensitive for a stable Eq. 2 inversion
        }
        for (_, kind, cmp, test_s) in &measured {
            let base_execs = *base_s.counters.fence_counts.get(kind).unwrap_or(&0);
            let test_execs = *test_s.counters.fence_counts.get(kind).unwrap_or(&0);
            if test_execs <= base_execs {
                continue; // strategy added no fences of this kind
            }
            let execs = test_execs - base_execs;
            // Attribute the *whole* extra stall the strategy caused: the
            // per-kind delta isolates the rbd-site fences themselves, the
            // remaining fence kinds' delta captures pipeline knock-on at
            // the fences both kernels share, and the store-buffer delta
            // captures induced drain pressure. Eq. 2 infers from the total
            // slowdown, so observed must sum the same effects.
            let stall = (test_s.total_fence_stall_cycles() - base_s.total_fence_stall_cycles())
                + (test_s.sb_stall_cycles - base_s.sb_stall_cycles);
            report.rows.push(AttributionRow {
                campaign: "fig9-kernel",
                bench: bench.name().to_string(),
                fence: kind.mnemonic(),
                k: fit.k,
                rel_perf: cmp.ratio,
                fence_execs: execs,
                observed_ns: spec.ns(stall) / execs as f64,
                eq2_ns: estimate_cost(fit.k, cmp.ratio),
            });
        }
        report
            .fits
            .push((format!("fig9-kernel/{}", bench.name()), fit));
    }
    report
}

// ---------------------------------------------------------------------------
// The dstruct campaign: reclamation-scheme sensitivity and ranking
// ---------------------------------------------------------------------------

/// Envelope for dstruct experiments: covers all four reclamation-scheme
/// strategies plus the (stack-spilling) cost function, so NR/EBR/HP images
/// are size-identical and the comparison is fence cost alone.
pub(crate) fn dstruct_envelope() -> HashMap<wmm_dstruct::DSite, u64> {
    let paths: Vec<wmm_dstruct::DSite> = wmm_dstruct::DSite::ALL.to_vec();
    let strategies = wmm_dstruct::scheme_strategies();
    let refs: Vec<&dyn FencingStrategy<wmm_dstruct::DSite>> = strategies
        .iter()
        .map(|s| s as &dyn FencingStrategy<wmm_dstruct::DSite>)
        .collect();
    let extra = CostFunction {
        iters: 1,
        stack_spill: true,
    }
    .size();
    compute_envelope(&paths, &refs, extra)
}

/// fig_dstruct part 1: sensitivity of each data-structure benchmark to the
/// hazard-protect code path (the hottest reclamation site) under the
/// classic `hp-dmb` scheme.
pub(crate) fn fig_dstruct_sweeps_with(cfg: ExpConfig, exec: &dyn Executor) -> Vec<SweepResult> {
    let m = machine(Arch::ArmV8);
    let strategy = wmm_dstruct::hp_dmb_strategy();
    let cal = Calibration::measure(&m, true, 12);
    let env = dstruct_envelope();
    wmm_dstruct::dstruct_suite(cfg.scale)
        .iter()
        .map(|bench| {
            sweep_with(
                &m,
                bench,
                &strategy,
                SweepTarget::Path(wmm_dstruct::DSite::HpProtect),
                &cal,
                &pow2_targets(0, 8),
                env.clone(),
                cfg.run,
                exec,
            )
        })
        .collect()
}

/// fig_dstruct part 2: each reclamation scheme's relative performance
/// against the NR (no reclamation) baseline on every benchmark. Ratio < 1
/// means the scheme is slower than the unsafe baseline; the interesting
/// order is among the safe schemes — on protect-dense workloads `hp-dmb`
/// must lose to the amortising (`ebr`) and asymmetric (`hp-asym`) schemes.
pub(crate) fn dstruct_ranking_with(cfg: ExpConfig, exec: &dyn Executor) -> SchemeRanking {
    let m = machine(Arch::ArmV8);
    let env = dstruct_envelope();
    let base = wmm_dstruct::nr_strategy();
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let suite = wmm_dstruct::dstruct_suite(cfg.scale);
    wmm_dstruct::scheme_strategies()
        .iter()
        .filter(|s| s.name() != "nr")
        .map(|scheme| {
            let rw = SiteRewriter::new(scheme, Injection::None, env.clone());
            let deltas = suite
                .iter()
                .map(|bench| StrategyDelta {
                    bench: bench.name().to_string(),
                    cmp: measure_relative_with(&m, bench, &base_rw, &rw, cfg.run, exec),
                })
                .collect();
            (scheme.name().to_string(), deltas)
        })
        .collect()
}

/// Per-scheme ranking rows: `(scheme_name, per-benchmark deltas vs nr)`.
pub(crate) type SchemeRanking = Vec<(String, Vec<StrategyDelta>)>;

/// The whole fig_dstruct campaign — protect-path sweeps plus the scheme
/// ranking — folded into one schema-gated manifest. Shared by the
/// `fig_dstruct` campaign and the determinism tests so both see byte-for-byte
/// the same canonical content.
pub fn fig_dstruct_manifest_with(
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> (wmm_harness::RunManifest, Vec<SweepResult>, SchemeRanking) {
    let mut manifest = wmm_harness::RunManifest::new("fig_dstruct", "arm");
    let sweeps = fig_dstruct_sweeps_with(cfg, exec);
    for s in &sweeps {
        if let Some(fit) = &s.fit {
            manifest.push_fit(&s.benchmark, fit);
        }
        for p in &s.points {
            // Label by the requested target, not the calibrated actual:
            // neighbouring small targets can calibrate to the same actual
            // ns and the gate rejects duplicate labels.
            manifest.push_cell(format!("{}/t={:.0}", s.benchmark, p.target_ns), p.rel_perf);
        }
    }
    let ranking = dstruct_ranking_with(cfg, exec);
    for (scheme, deltas) in &ranking {
        for d in deltas {
            manifest.push_cell(format!("rank/{}/{scheme}", d.bench), d.cmp.ratio);
        }
    }
    (manifest, sweeps, ranking)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_cover_all_paths() {
        let env = jvm_envelope(Arch::ArmV8);
        assert_eq!(env.len(), all_site_combinations().len());
        let kenv = kernel_envelope();
        assert_eq!(kenv.len(), 14);
        // All sites leave room for the 5-word cost function; the rbd site
        // additionally covers the 3-word ctrl/ctrl+isb sequences.
        assert!(kenv.values().all(|&v| v >= 6));
        assert_eq!(kenv[&KMacro::ReadBarrierDepends], 8);
    }

    #[test]
    fn fence_micro_matches_paper() {
        let rows = fence_microbenchmarks();
        let get = |l: &str| rows.iter().find(|(n, _)| n == l).unwrap().1;
        assert!((get("power sync") - 18.9).abs() < 1.0);
        assert!((get("power lwsync") - 6.1).abs() < 0.5);
        // dmb variants indistinguishable in vitro.
        let ish = get("arm dmb ish");
        assert!((ish - get("arm dmb ishld")).abs() / ish < 0.05);
        assert!((ish - get("arm dmb ishst")).abs() / ish < 0.05);
    }
}
