//! Shape assertions for the OpenJDK half of the evaluation (§4.2): the
//! orderings, winners and approximate factors the paper reports must hold
//! in this reproduction, under the reduced test protocol.

use wmm::wmm_bench::{
    fence_microbenchmarks, fig5_openjdk_sweeps_with, fig6_spark_elementals, jvm_nop_overhead,
    locking_patch_experiment, storestore_experiment, ExpConfig,
};
use wmm::wmm_jvm::barrier::Elemental;
use wmm::wmm_sim::arch::Arch;
use wmm::wmmbench::exec::SerialExecutor;

fn cfg() -> ExpConfig {
    ExpConfig {
        scale: 0.3,
        run: wmm::wmmbench::runner::RunConfig {
            samples: 3,
            warmups: 1,
            base_seed: 0x1CEB00DA,
        },
    }
}

#[test]
fn fig5_spark_is_most_sensitive_on_both_architectures() {
    for arch in [Arch::ArmV8, Arch::Power7] {
        let sweeps = fig5_openjdk_sweeps_with(arch, cfg(), &SerialExecutor);
        let k_of = |name: &str| {
            sweeps
                .iter()
                .find(|s| s.benchmark == name)
                .and_then(|s| s.fit.as_ref())
                .map(|f| f.k)
                .unwrap_or(0.0)
        };
        let spark = k_of("spark");
        for s in &sweeps {
            if s.benchmark != "spark" {
                let k = s.fit.as_ref().map(|f| f.k).unwrap_or(0.0);
                assert!(
                    k < spark,
                    "{} (k={k}) should be less sensitive than spark (k={spark}) on {}",
                    s.benchmark,
                    arch.label()
                );
            }
        }
        // And sensitivities are in the paper's order of magnitude.
        assert!(
            (0.004..0.02).contains(&spark),
            "spark k={spark} out of band on {}",
            arch.label()
        );
    }
}

#[test]
fn fig5_xalan_is_second_on_arm_but_degraded_on_power() {
    let arm = fig5_openjdk_sweeps_with(Arch::ArmV8, cfg(), &SerialExecutor);
    let k = |sweeps: &[wmm::wmmbench::sensitivity::SweepResult], n: &str| {
        sweeps
            .iter()
            .find(|s| s.benchmark == n)
            .and_then(|s| s.fit.as_ref())
            .map(|f| f.k)
            .unwrap_or(0.0)
    };
    // ARM: xalan second after spark.
    let xalan_arm = k(&arm, "xalan");
    for s in &arm {
        if s.benchmark != "spark" && s.benchmark != "xalan" {
            assert!(
                k(&arm, &s.benchmark) < xalan_arm,
                "{} should rank below xalan on ARM",
                s.benchmark
            );
        }
    }
    // POWER: xalan's sensitivity collapses and it is the least stable.
    let pow = fig5_openjdk_sweeps_with(Arch::Power7, cfg(), &SerialExecutor);
    let xalan_pow = pow.iter().find(|s| s.benchmark == "xalan").unwrap();
    assert!(
        k(&pow, "xalan") < xalan_arm * 0.6,
        "xalan must degrade on POWER"
    );
    let most_unstable = pow
        .iter()
        .max_by(|a, b| {
            a.mean_error_width()
                .partial_cmp(&b.mean_error_width())
                .unwrap()
        })
        .unwrap();
    assert_eq!(
        most_unstable.benchmark,
        "xalan",
        "xalan should be the least stable POWER benchmark (got {} at {:.3})",
        most_unstable.benchmark,
        xalan_pow.mean_error_width()
    );
}

#[test]
fn fig6_storestore_dominates_spark_on_both_architectures() {
    for arch in [Arch::ArmV8, Arch::Power7] {
        let results = fig6_spark_elementals(arch, cfg(), &SerialExecutor);
        let k_of = |e: Elemental| {
            results
                .iter()
                .find(|(el, _)| *el == e)
                .and_then(|(_, s)| s.fit.as_ref())
                .map(|f| f.k)
                .unwrap_or(0.0)
        };
        let ss = k_of(Elemental::StoreStore);
        for e in [
            Elemental::LoadLoad,
            Elemental::LoadStore,
            Elemental::StoreLoad,
        ] {
            assert!(
                k_of(e) < ss,
                "{e:?} must be below StoreStore on {}",
                arch.label()
            );
        }
    }
}

#[test]
fn fig6_power_breakdown_shows_leaner_fencing() {
    // "Clearly the developers of the ARM implementation are more defensive
    // ... the Power developers rely more heavily on StoreStore and
    // StoreLoad": on POWER, LoadLoad and StoreLoad sensitivities are far
    // below LoadStore and StoreStore.
    let results = fig6_spark_elementals(Arch::Power7, cfg(), &SerialExecutor);
    let k_of = |e: Elemental| {
        results
            .iter()
            .find(|(el, _)| *el == e)
            .and_then(|(_, s)| s.fit.as_ref())
            .map(|f| f.k)
            .unwrap_or(0.0)
    };
    assert!(k_of(Elemental::LoadLoad) < k_of(Elemental::LoadStore) * 0.4);
    assert!(k_of(Elemental::StoreLoad) < k_of(Elemental::StoreStore) * 0.4);
}

#[test]
fn storestore_modification_is_an_order_of_magnitude_worse_on_power() {
    // §4.4's headline: the same class of single-barrier change costs ~0.7%
    // on ARM but ~12.5% on POWER — "this order of magnitude difference
    // could separate an acceptable implementation change and an
    // unacceptable one."
    let (arm_cmp, _, arm_a) = storestore_experiment(Arch::ArmV8, cfg(), &SerialExecutor);
    let (pow_cmp, _, pow_a) = storestore_experiment(Arch::Power7, cfg(), &SerialExecutor);
    let arm_drop = -arm_cmp.percent_change();
    let pow_drop = -pow_cmp.percent_change();
    assert!(arm_drop > 0.0 && arm_drop < 4.0, "ARM drop {arm_drop}%");
    assert!(pow_drop > 7.0 && pow_drop < 20.0, "POWER drop {pow_drop}%");
    assert!(
        pow_drop > 4.0 * arm_drop,
        "order-of-magnitude split lost: {arm_drop}% vs {pow_drop}%"
    );
    // Eq. 2 estimates land near the paper's 1.8 ns / 11.7 ns.
    let a_arm = arm_a.expect("arm estimate");
    let a_pow = pow_a.expect("power estimate");
    assert!((0.5..6.0).contains(&a_arm), "ARM a = {a_arm} ns");
    assert!((7.0..16.0).contains(&a_pow), "POWER a = {a_pow} ns");
}

#[test]
fn power_fence_micro_times_match_the_paper() {
    let rows = fence_microbenchmarks();
    let get = |l: &str| rows.iter().find(|(n, _)| n == l).unwrap().1;
    let sync = get("power sync");
    let lwsync = get("power lwsync");
    assert!((sync - 18.9).abs() < 1.5, "sync micro {sync} ns");
    assert!((lwsync - 6.1).abs() < 0.8, "lwsync micro {lwsync} ns");
    // "a microbenchmark ... would be able to establish a threefold
    // difference in execution time between the two instructions."
    assert!((sync / lwsync - 3.1).abs() < 0.5);
}

#[test]
fn arm_dmb_variants_indistinguishable_in_vitro() {
    let rows = fence_microbenchmarks();
    let get = |l: &str| rows.iter().find(|(n, _)| n == l).unwrap().1;
    let ish = get("arm dmb ish");
    for v in ["arm dmb ishld", "arm dmb ishst"] {
        assert!(
            (get(v) - ish).abs() / ish < 0.05,
            "{v} differs from dmb ish in a pure timing loop"
        );
    }
}

#[test]
fn nop_injection_costs_more_on_arm_than_power() {
    let arm = jvm_nop_overhead(Arch::ArmV8, cfg(), &SerialExecutor);
    let pow = jvm_nop_overhead(Arch::Power7, cfg(), &SerialExecutor);
    let mean = |rows: &[wmm::wmm_bench::StrategyDelta]| {
        rows.iter().map(|r| r.cmp.percent_change()).sum::<f64>() / rows.len() as f64
    };
    let (m_arm, m_pow) = (mean(&arm), mean(&pow));
    assert!(m_arm < 0.0, "ARM nop injection must cost: {m_arm}%");
    assert!(
        m_arm < m_pow,
        "ARM ({m_arm}%) should pay more than POWER ({m_pow}%)"
    );
}

#[test]
fn locking_patch_signs_match_the_paper() {
    let rows = locking_patch_experiment(cfg(), &SerialExecutor);
    let get = |l: &str| {
        rows.iter()
            .find(|(n, _)| n == l)
            .unwrap()
            .1
            .percent_change()
    };
    let lasr = get("la/sr");
    let barriers = get("barriers");
    assert!(lasr > 1.0, "patch should help with la/sr: {lasr}%");
    assert!(
        barriers < 0.5,
        "patch should not help with barriers: {barriers}%"
    );
    assert!(
        lasr > barriers + 1.0,
        "la/sr gain must exceed barrier-mode outcome"
    );
}
