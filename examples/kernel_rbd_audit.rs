//! Audit the kernel's `read_barrier_depends` options (Fig. 10): if ARM
//! speculation someday requires a real fencing strategy for dependent
//! reads, which implementation should the kernel adopt?
//!
//! Run with: `cargo run --release --example kernel_rbd_audit`

use wmm::wmm_kernel::macros::KMacro;
use wmm::wmm_kernel::rbd::{rbd_strategy, RbdStrategy};
use wmm::wmm_sim::arch::armv8_xgene1;
use wmm::wmm_sim::Machine;
use wmm::wmm_stats::Comparison;
use wmm::wmm_workloads::kernel::{kernel_profile, KernelBench};
use wmm::wmmbench::costfn::CostFunction;
use wmm::wmmbench::exec::SerialExecutor;
use wmm::wmmbench::image::{compute_envelope, Injection, SiteRewriter};
use wmm::wmmbench::runner::{measure_with, RunConfig};
use wmm::wmmbench::strategy::FencingStrategy;

fn main() {
    let machine = Machine::new(armv8_xgene1());
    let cfg = RunConfig::default();

    // Envelope covering all six strategies plus the injectable cost function.
    let strategies: Vec<_> = RbdStrategy::ALL.iter().map(|s| rbd_strategy(*s)).collect();
    let refs: Vec<&dyn FencingStrategy<KMacro>> = strategies
        .iter()
        .map(|s| s as &dyn FencingStrategy<KMacro>)
        .collect();
    let env = compute_envelope(
        KMacro::ALL.as_ref(),
        &refs,
        CostFunction {
            iters: 1,
            stack_spill: true,
        }
        .size(),
    );

    let benches: Vec<KernelBench> = ["netperf_udp", "lmbench", "osm_stack", "ebizzy"]
        .iter()
        .map(|n| KernelBench::new(kernel_profile(n).unwrap(), 0.5))
        .collect();

    let base = rbd_strategy(RbdStrategy::BaseCase);
    let base_rw = SiteRewriter::new(&base, Injection::None, env.clone());
    let bases: Vec<_> = benches
        .iter()
        .map(|b| measure_with(&machine, b, &base_rw, cfg, &SerialExecutor))
        .collect();

    println!("read_barrier_depends strategies vs nop-padded base case (%):\n");
    print!("{:<12}", "strategy");
    for b in &benches {
        print!("{:>14}", b.profile.name);
    }
    println!();
    for s in RbdStrategy::ALL.iter().skip(1) {
        let strat = rbd_strategy(*s);
        let rw = SiteRewriter::new(&strat, Injection::None, env.clone());
        print!("{:<12}", s.label());
        for (b, base_m) in benches.iter().zip(&bases) {
            let t = measure_with(&machine, b, &rw, cfg, &SerialExecutor);
            let cmp = Comparison::of_times(&t.times_ns, &base_m.times_ns);
            print!("{:>+13.1}%", cmp.percent_change());
        }
        println!();
    }

    println!();
    println!("The paper's verdict (§4.3.1): introducing isb is unreasonable due to its");
    println!("effect on the processor pipeline; if ordering is required, dmb ishld or");
    println!("dmb ish represent the best-case scenarios — and dmb ishld's guarantees are");
    println!("stronger than a bare control dependency, 'a particularly positive result'.");
}
