//! Compare volatile-variable implementation strategies on ARMv8, the JDK8
//! vs JDK9 question of §4.2: explicit `dmb` barriers
//! (`-XX:+UseBarriersForVolatile`) versus load-acquire/store-release
//! instructions, across the whole concurrent-DaCapo suite — plus the
//! pending DMB-elimination locking patch under both modes.
//!
//! Run with: `cargo run --release --example jvm_volatile_strategies`

use wmm::wmm_jvm::barrier::all_site_combinations;
use wmm::wmm_jvm::jit::{JitConfig, VolatileMode};
use wmm::wmm_sim::arch::{armv8_xgene1, Arch};
use wmm::wmm_sim::Machine;
use wmm::wmm_stats::Comparison;
use wmm::wmm_workloads::dacapo::{dacapo_suite, profile, DacapoBench};
use wmm::wmmbench::exec::SerialExecutor;
use wmm::wmmbench::image::{compute_envelope, Injection, SiteRewriter};
use wmm::wmmbench::runner::{measure_with, RunConfig};
use wmm::wmmbench::strategy::FencingStrategy;

fn main() {
    let machine = Machine::new(armv8_xgene1());
    let strategy = wmm::wmm_jvm::strategy::arm_jdk8_barriers();
    let env = compute_envelope(
        &all_site_combinations(),
        &[&strategy as &dyn FencingStrategy<_>],
        3,
    );
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let cfg = RunConfig::default();

    println!("JDK9 ld.acq/st.rel vs JDK8 barriers on ARMv8 (positive = JDK9 faster)\n");
    let jdk8 = dacapo_suite(JitConfig::jdk8(Arch::ArmV8), 0.5);
    let jdk9 = dacapo_suite(JitConfig::jdk9(Arch::ArmV8), 0.5);
    for (b8, b9) in jdk8.iter().zip(&jdk9) {
        let base = measure_with(&machine, b8, &rw, cfg, &SerialExecutor);
        let test = measure_with(&machine, b9, &rw, cfg, &SerialExecutor);
        let cmp = Comparison::of_times(&test.times_ns, &base.times_ns);
        let marker = if cmp.significant() { "*" } else { " " };
        println!(
            "  {:<11} {:+5.1}% {marker}  [{:.3}, {:.3}]",
            b8.profile.name,
            cmp.percent_change(),
            cmp.min,
            cmp.max
        );
    }
    println!("\n  (* = significant under the compounded min/max rule)");

    println!("\nDMB-elimination locking patch on spark:");
    for (label, mode) in [
        ("with ld.acq/st.rel", VolatileMode::LoadAcquireStoreRelease),
        ("with barriers     ", VolatileMode::Barriers),
    ] {
        let mk = |patched| {
            DacapoBench::new(
                profile("spark").unwrap(),
                JitConfig {
                    arch: Arch::ArmV8,
                    volatile_mode: mode,
                    locking_patch: patched,
                },
                0.5,
            )
        };
        let base = measure_with(&machine, &mk(false), &rw, cfg, &SerialExecutor);
        let test = measure_with(&machine, &mk(true), &rw, cfg, &SerialExecutor);
        let cmp = Comparison::of_times(&test.times_ns, &base.times_ns);
        println!("  {label} {:+5.1}%", cmp.percent_change());
    }
    println!("\nThe paper: the patch helps (+2.9%) with ld.acq/st.rel but hurts (-1%)");
    println!("with barriers — 'subtle interactions between load-acquire/store-release");
    println!("and dmb instructions which require further investigation.'");
}
