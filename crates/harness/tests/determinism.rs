//! Executor determinism over *generated* programs, as a property test: a
//! batch of random jobs must produce bit-identical outcomes — wall times,
//! statistics, and the aggregated simulator totals — no matter how many
//! workers drain it, whether a cache is attached, and despite every worker
//! thread reusing its `MachineScratch` arena across jobs. Scratch reuse is
//! exactly the seam where stale per-run state (core clocks, store buffers,
//! directory warmth) would leak between jobs if a `reset` missed a field.

use proptest::prelude::*;
use wmm_harness::{ParallelExecutor, SimCache, SimTotals};
use wmm_sim::arch::{armv8_xgene1, power7};
use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc, Mispredict};
use wmm_sim::machine::{Program, WorkloadCtx};
use wmm_sim::Machine;
use wmmbench::exec::{Executor, SerialExecutor, SimJob};

fn loc() -> impl Strategy<Value = Loc> {
    // Small line ids force real sharing and coherence traffic.
    prop_oneof![
        (0u64..4).prop_map(Loc::Private),
        (0u64..4).prop_map(Loc::SharedRo),
        (0u64..4).prop_map(Loc::SharedRw),
    ]
}

fn ord() -> impl Strategy<Value = AccessOrd> {
    prop_oneof![
        Just(AccessOrd::Plain),
        Just(AccessOrd::Acquire),
        Just(AccessOrd::Release),
    ]
}

fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::MovImm),
        Just(Instr::Alu),
        Just(Instr::CmpImm),
        Just(Instr::StackPush),
        Just(Instr::StackPop),
        prop_oneof![
            Just(Mispredict::Never),
            Just(Mispredict::Workload),
            (0.0f64..0.5).prop_map(Mispredict::Rate),
        ]
        .prop_map(Instr::CondBranch),
        (loc(), ord()).prop_map(|(loc, ord)| Instr::Load { loc, ord }),
        (loc(), ord()).prop_map(|(loc, ord)| Instr::Store { loc, ord }),
        (loc(), 0.3f64..1.0).prop_map(|(loc, success_prob)| Instr::Cas { loc, success_prob }),
        (0usize..FenceKind::ALL.len()).prop_map(|i| Instr::Fence(FenceKind::ALL[i])),
        (1u64..64, 0u32..2).prop_map(|(iters, spill)| Instr::CostLoop {
            iters,
            stack_spill: spill == 1
        }),
        (1u32..200).prop_map(|cycles| Instr::Compute { cycles }),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    prop::collection::vec(prop::collection::vec(instr(), 0..24), 1..4).prop_map(Program::new)
}

fn ctx() -> impl Strategy<Value = WorkloadCtx> {
    (
        (0.0f64..0.3, 0.0f64..1.0),
        (0.0f64..0.2, 0.0f64..1.0),
        0.0f64..0.05,
    )
        .prop_map(
            |((bp_pressure, load_pressure), (l1_miss_rate, dram_frac), noise_amp)| WorkloadCtx {
                name: "prop".to_string(),
                bp_pressure,
                load_pressure,
                l1_miss_rate,
                dram_frac,
                noise_amp,
            },
        )
}

fn batch() -> impl Strategy<Value = Vec<(Program, WorkloadCtx, u64)>> {
    prop::collection::vec((program(), ctx(), 0u64..u64::MAX), 1..12)
}

fn jobs<'m>(machine: &'m Machine, batch: &[(Program, WorkloadCtx, u64)]) -> Vec<SimJob<'m>> {
    batch
        .iter()
        .map(|(program, ctx, seed)| SimJob {
            machine,
            program: program.clone(),
            ctx: ctx.clone(),
            seed: *seed,
            sited: false,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_executor_is_worker_count_invariant(batch in batch(), power in 0u32..2) {
        let machine = Machine::new(if power == 1 { power7() } else { armv8_xgene1() });
        let serial = SerialExecutor.run_batch_stats(jobs(&machine, &batch));
        let mut totals: Option<SimTotals> = None;
        for threads in [1usize, 2, 4] {
            for cached in [false, true] {
                let mut exec = ParallelExecutor::new(Some(threads));
                if cached {
                    exec = exec.with_cache(SimCache::in_memory());
                }
                let first = exec.run_batch_stats(jobs(&machine, &batch));
                // The aggregated simulator totals (float sums folded in job
                // order) are part of the run manifest: bit-identical across
                // every executor configuration after one batch.
                let t = exec.telemetry();
                prop_assert_eq!(t.sim.jobs_observed, batch.len() as u64);
                match &totals {
                    None => totals = Some(t.sim),
                    Some(m) => prop_assert!(m == &t.sim,
                        "totals drifted: threads {threads} cached {cached}"),
                }
                // A second identical batch exercises the warm-hit path when
                // a cache is attached and plain re-simulation (with reused
                // worker scratch) when not.
                let second = exec.run_batch_stats(jobs(&machine, &batch));
                for ((s, f), snd) in serial.iter().zip(&first).zip(&second) {
                    // Bit-exact wall times, not approximate agreement.
                    prop_assert!(s.wall_ns.to_bits() == f.wall_ns.to_bits(),
                        "threads {threads} cached {cached}");
                    prop_assert!(f.wall_ns.to_bits() == snd.wall_ns.to_bits(),
                        "repeat batch drifted: threads {threads} cached {cached}");
                    prop_assert_eq!(s.stats.as_ref(), f.stats.as_ref());
                }
            }
        }
    }
}
