//! Shape assertions for the Linux-kernel half of the evaluation (§4.3):
//! rankings, `read_barrier_depends` sensitivities and the Fig. 10 strategy
//! comparison.

use wmm::wmm_bench::{
    fig10_rbd_strategies, fig9_rbd_sweeps_with, kernel_nop_overhead, linux_ranking_with,
    rbd_cost_estimates, ExpConfig,
};
use wmm::wmm_kernel::macros::KMacro;
use wmm::wmm_kernel::rbd::RbdStrategy;
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
fn fig7_top_macros_match_the_paper() {
    let m = linux_ranking_with(cfg(), &SerialExecutor);
    let order = m.by_path_impact();
    let top3: Vec<KMacro> = order.iter().take(3).map(|(m, _)| *m).collect();
    // "It is clear that smp_mb, read_once and read_barrier_depends have the
    // most impact."
    for expect in [KMacro::SmpMb, KMacro::ReadOnce, KMacro::ReadBarrierDepends] {
        assert!(
            top3.contains(&expect),
            "{expect:?} missing from top-3: {top3:?}"
        );
    }
    // The mandatory device barriers rank at the bottom.
    let bottom: Vec<KMacro> = order.iter().rev().take(4).map(|(m, _)| *m).collect();
    let device = [KMacro::Mb, KMacro::Rmb, KMacro::Wmb];
    let device_in_bottom = device.iter().filter(|d| bottom.contains(d)).count();
    assert!(
        device_in_bottom >= 2,
        "device barriers should rank last: {bottom:?}"
    );
}

#[test]
fn fig8_benchmark_ranking_shape() {
    let m = linux_ranking_with(cfg(), &SerialExecutor);
    let order = m.by_benchmark_sensitivity();
    let names: Vec<&str> = order.iter().map(|(n, _)| n.as_str()).collect();
    // Microbenchmarks dominate the top of the ranking…
    let top4 = &names[..4];
    for expect in ["netperf_tcp", "netperf_udp", "ebizzy", "lmbench"] {
        assert!(top4.contains(&expect), "{expect} not in top-4: {top4:?}");
    }
    // …and the JVM benchmarks are almost completely insensitive.
    let bottom2 = &names[names.len() - 2..];
    for expect in ["spark", "h2"] {
        assert!(
            bottom2.contains(&expect),
            "{expect} should be least sensitive: {bottom2:?}"
        );
    }
    // 14 macros x 10 benchmarks of data behind the ranking.
    assert_eq!(m.data_points(), 140);
}

#[test]
fn fig9_rbd_sensitivity_ordering() {
    let sweeps = fig9_rbd_sweeps_with(cfg(), &SerialExecutor);
    let k = |n: &str| {
        sweeps
            .iter()
            .find(|s| s.benchmark == n)
            .and_then(|s| s.fit.as_ref())
            .map(|f| f.k)
            .unwrap_or(0.0)
    };
    // netperf_udp highest; lmbench next; real-world applications very low.
    assert!(k("netperf_udp") > k("lmbench"));
    assert!(k("lmbench") > k("netperf_tcp"));
    assert!(k("netperf_tcp") > k("ebizzy"));
    assert!(k("ebizzy") > k("xalan"));
    assert!(k("xalan") >= k("osm_stack") * 0.8);
    // Bands from the paper.
    assert!(
        (0.006..0.014).contains(&k("netperf_udp")),
        "udp k {}",
        k("netperf_udp")
    );
    assert!(k("osm_stack") < 0.001, "osm k {}", k("osm_stack"));
}

#[test]
fn fig10_isb_is_unreasonable_and_dmb_ishld_is_best_case() {
    let results = fig10_rbd_strategies(cfg(), &SerialExecutor);
    let mean_drop = |s: RbdStrategy| {
        let (_, deltas) = results.iter().find(|(st, _)| *st == s).unwrap();
        -deltas.iter().map(|d| d.cmp.percent_change()).sum::<f64>() / deltas.len() as f64
    };
    let isb = mean_drop(RbdStrategy::CtrlIsb);
    let ishld = mean_drop(RbdStrategy::DmbIshld);
    let ish = mean_drop(RbdStrategy::DmbIsh);
    let lasr = mean_drop(RbdStrategy::LaSr);
    assert!(
        isb > ishld && isb > ish && isb > mean_drop(RbdStrategy::Ctrl),
        "ctrl+isb must be the worst ordering strategy: isb {isb}%"
    );
    // "if ordering is required then dmb ishld or dmb ish represent the best
    // case scenarios."
    assert!(
        ishld <= ish + 0.5,
        "ishld ({ishld}%) should not exceed ish ({ish}%)"
    );
    assert!(ishld < isb && ish < isb && ishld < lasr);
    // Base case is exactly zero against itself.
    let (_, base) = results
        .iter()
        .find(|(s, _)| *s == RbdStrategy::BaseCase)
        .unwrap();
    for d in base {
        assert!((d.cmp.ratio - 1.0).abs() < 1e-9);
    }
}

#[test]
fn fig10_osm_stack_drop_is_small_but_real() {
    // "The osm stack results show a small, but statistically significant
    // drop of up to 1%."
    let results = fig10_rbd_strategies(cfg(), &SerialExecutor);
    for (s, deltas) in &results {
        if *s == RbdStrategy::BaseCase {
            continue;
        }
        let osm = deltas.iter().find(|d| d.bench == "osm_stack").unwrap();
        let drop = -osm.cmp.percent_change();
        assert!(
            drop < 2.0,
            "{}: osm_stack drop {drop}% too large for a low-sensitivity app",
            s.label()
        );
    }
}

#[test]
fn rbd_cost_divergences_match_the_paper() {
    let rows = rbd_cost_estimates(cfg(), &SerialExecutor);
    let get = |s: RbdStrategy| {
        let (_, a, b) = rows.iter().find(|(st, _, _)| *st == s).unwrap();
        (*a, *b)
    };
    // ctrl: cheap in vitro, dearer in vivo (branch-predictor pressure).
    let (ctrl_lm, ctrl_others) = get(RbdStrategy::Ctrl);
    assert!(
        ctrl_others > ctrl_lm * 1.5,
        "ctrl divergence lost: {ctrl_lm} vs {ctrl_others}"
    );
    // dmb ishld: dear in vitro, cheap in vivo (quiet load queues).
    let (ishld_lm, ishld_others) = get(RbdStrategy::DmbIshld);
    assert!(
        ishld_lm > ishld_others * 1.5,
        "ishld divergence lost: {ishld_lm} vs {ishld_others}"
    );
    // ctrl+isb: stable across contexts.
    let (isb_lm, isb_others) = get(RbdStrategy::CtrlIsb);
    assert!(
        (isb_lm - isb_others).abs() / isb_lm < 0.25,
        "ctrl+isb should be context-independent: {isb_lm} vs {isb_others}"
    );
    assert!((18.0..30.0).contains(&isb_lm), "ctrl+isb level {isb_lm} ns");
    // dmb ish: roughly workload-agnostic, ~10-12 ns.
    let (ish_lm, ish_others) = get(RbdStrategy::DmbIsh);
    assert!((8.0..16.0).contains(&ish_lm), "ish lmbench {ish_lm}");
    assert!((ish_lm - ish_others).abs() / ish_lm < 0.4);
}

#[test]
fn nop_padding_hurts_netperf_most() {
    let rows = kernel_nop_overhead(cfg(), &SerialExecutor);
    let worst = rows
        .iter()
        .min_by(|a, b| a.cmp.ratio.partial_cmp(&b.cmp.ratio).unwrap())
        .unwrap();
    assert!(
        worst.bench.starts_with("netperf"),
        "worst nop overhead should be netperf, got {}",
        worst.bench
    );
    let mean = rows.iter().map(|r| r.cmp.percent_change()).sum::<f64>() / rows.len() as f64;
    assert!(mean < -0.3 && mean > -4.0, "mean nop overhead {mean}%");
    // Insensitive benchmarks barely notice.
    let h2 = rows.iter().find(|r| r.bench == "h2").unwrap();
    assert!(h2.cmp.percent_change().abs() < 0.5);
}
