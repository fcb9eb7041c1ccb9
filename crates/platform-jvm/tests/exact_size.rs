//! Lowered images hold no slack capacity.
//!
//! A sweep keeps every sample image alive for the whole sweep and
//! simulates straight out of its code segments, so unused `Vec` capacity
//! in them is resident memory for nothing. Every literal code segment and
//! every thread's segment list must be exactly as large as its content,
//! under both the plain and the optimisation-site lowering.

use wmm_jvm::jit::{lower, JavaOp, JitConfig, VolatileMode};
use wmm_jvm::optsites::lower_with_optsites;
use wmm_jvm::Composite;
use wmm_sim::arch::Arch;
use wmm_sim::isa::Loc;
use wmm_sim::SplitMix64;
use wmmbench::image::Segment;

/// A DaCapo-like mix of every Java operation, with runs of plain work of
/// varying length between the operations that emit sites.
fn java_ops(seed: u64, len: usize) -> Vec<JavaOp> {
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        for _ in 0..rng.next_below(40) {
            ops.push(match rng.next_below(3) {
                0 => JavaOp::Work(1 + rng.next_below(50) as u32),
                1 => JavaOp::FieldLoad(Loc::Private(rng.next_below(64))),
                _ => JavaOp::FieldStore(Loc::Private(rng.next_below(64))),
            });
        }
        let line = rng.next_below(16);
        ops.push(match rng.next_below(8) {
            0 => JavaOp::RefStore(Loc::SharedRw(line)),
            1 => JavaOp::VolatileLoad(Loc::SharedRw(line)),
            2 => JavaOp::VolatileStore(Loc::SharedRw(line)),
            3 => JavaOp::MonitorEnter(line),
            4 => JavaOp::MonitorExit(line),
            5 => JavaOp::Cas(Loc::SharedRw(line)),
            6 => JavaOp::Alloc(rng.next_below(12) as u32),
            _ => JavaOp::Fence(Composite::Release),
        });
    }
    ops
}

fn configs() -> Vec<JitConfig> {
    let mut out = vec![];
    for arch in [Arch::ArmV8, Arch::Power7] {
        for volatile_mode in [
            VolatileMode::Barriers,
            VolatileMode::LoadAcquireStoreRelease,
        ] {
            for locking_patch in [false, true] {
                out.push(JitConfig {
                    arch,
                    volatile_mode,
                    locking_patch,
                });
            }
        }
    }
    out
}

fn assert_exact_size<P>(threads: &[Vec<Segment<P>>], what: &str) {
    for (t, segs) in threads.iter().enumerate() {
        assert_eq!(
            segs.capacity(),
            segs.len(),
            "{what}: thread {t}'s segment list"
        );
        for (i, seg) in segs.iter().enumerate() {
            if let Segment::Code(code) = seg {
                assert!(!code.is_empty(), "{what}: t{t} segment {i} is empty code");
                assert_eq!(code.capacity(), code.len(), "{what}: t{t} segment {i}");
            }
        }
    }
}

#[test]
fn plain_and_optsite_lowerings_are_exact_size() {
    let threads: Vec<Vec<JavaOp>> = (0..4).map(|t| java_ops(t, 2_000)).collect();
    for cfg in configs() {
        assert_exact_size(&lower(&threads, &cfg), &format!("lower {cfg:?}"));
        assert_exact_size(
            &lower_with_optsites(&threads, &cfg),
            &format!("lower_with_optsites {cfg:?}"),
        );
    }
}
