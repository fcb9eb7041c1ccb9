//! Quickstart: measure how sensitive a benchmark is to a platform's fencing
//! strategy, exactly as §3 of the paper prescribes.
//!
//! 1. Calibrate a cost function on the target machine (Fig. 4).
//! 2. Sweep its size, injected into every barrier the platform emits.
//! 3. Fit the sensitivity model `p = 1/((1-k) + k·a)` (Eq. 1).
//! 4. Use the fitted `k` to convert a real fencing-strategy change into an
//!    equivalent per-invocation cost in ns (Eq. 2).
//!
//! Run with: `cargo run --release --example quickstart`

use wmm::wmm_jvm::jit::JitConfig;
use wmm::wmm_jvm::strategy::power_storestore_as_sync;
use wmm::wmm_sim::arch::{power7, Arch};
use wmm::wmm_sim::Machine;
use wmm::wmm_workloads::dacapo::{profile, DacapoBench};
use wmm::wmmbench::costfn::Calibration;
use wmm::wmmbench::exec::SerialExecutor;
use wmm::wmmbench::image::{Injection, SiteRewriter};
use wmm::wmmbench::model::estimate_cost;
use wmm::wmmbench::runner::{measure_relative_with, RunConfig};
use wmm::wmmbench::sensitivity::{pow2_targets, sweep_with, SweepTarget};

fn main() {
    // The machine: a POWER7-like multicore (12 cores @ 3.7 GHz).
    let machine = Machine::new(power7());

    // The platform: OpenJDK's POWER fencing strategy (StoreLoad -> sync,
    // everything else -> lwsync).
    let strategy = wmm::wmm_jvm::strategy::power_jdk9();

    // The benchmark: the Spark PageRank workload of §4.2.
    let bench = DacapoBench::new(
        profile("spark").expect("spark profile"),
        JitConfig::jdk8(Arch::Power7),
        0.5,
    );

    // 1. Calibrate the spin-loop cost function.
    let cal = Calibration::measure(&machine, true, 12);
    println!(
        "cost function: 1 iter = {:.1} ns, 1024 iters = {:.1} ns",
        cal.ns_for_iters(1),
        cal.ns_for_iters(1024)
    );

    // 2–3. Sweep and fit.
    let env = wmm_bench_envelope(&strategy);
    let cfg = RunConfig::default();
    let result = sweep_with(
        &machine,
        &bench,
        &strategy,
        SweepTarget::AllSites,
        &cal,
        &pow2_targets(0, 8),
        env.clone(),
        cfg,
        &SerialExecutor,
    );
    let fit = result.fit.expect("fit converges");
    println!("spark sensitivity to all barriers: {}", fit.display());
    println!("(the paper measures k = 0.01227 ±7% on POWER7)");

    // 4. A real change: StoreStore from lwsync to sync (§4.2.1).
    let modified = power_storestore_as_sync();
    let base_rw = SiteRewriter::new(&strategy, Injection::None, env.clone());
    let test_rw = SiteRewriter::new(&modified, Injection::None, env);
    let cmp = measure_relative_with(&machine, &bench, &base_rw, &test_rw, cfg, &SerialExecutor);
    println!(
        "StoreStore lwsync -> sync: relative performance {:.4} ({:+.1}%)",
        cmp.ratio,
        cmp.percent_change()
    );
    println!(
        "equivalent cost per invocation (Eq. 2): {:.1} ns",
        estimate_cost(fit.k, cmp.ratio)
    );
    println!("(the paper observes -12.5%, computing 11.7 ns over lwsync)");
}

/// Envelope covering the base strategy, the sync modification and the
/// 5-word (stack-spilling) cost function.
fn wmm_bench_envelope(
    strategy: &dyn wmm::wmmbench::strategy::FencingStrategy<wmm::wmm_jvm::barrier::Combined>,
) -> std::collections::HashMap<wmm::wmm_jvm::barrier::Combined, u64> {
    let modified = power_storestore_as_sync();
    wmm::wmmbench::image::compute_envelope(
        &wmm::wmm_jvm::barrier::all_site_combinations(),
        &[strategy, &modified],
        5,
    )
}
