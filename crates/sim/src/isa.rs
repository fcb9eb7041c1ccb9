//! The simulated instruction set.
//!
//! This is not a full ISA — it is the *performance-relevant* vocabulary the
//! paper manipulates: plain/acquire/release memory accesses, the fence
//! instructions of ARMv8 and POWER, branches with a controllable
//! mispredictability (for synthetic control dependencies), stack spills, nops
//! for size-invariant padding, coarse compute blocks, and the paper's
//! spin-loop cost function as a first-class instruction so that huge
//! iteration counts need not be simulated one branch at a time.
//!
//! Both target architectures have fixed 4-byte instructions, which is what
//! makes the paper's size-invariant binary rewriting possible; [`Instr::size`]
//! reports the encoded size in instruction words so the injection layer can
//! assert invariance.

/// Memory-access ordering attached to a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOrd {
    /// Ordinary access (`ldr`/`str`, `ld`/`std`).
    Plain,
    /// Load-acquire (`ldar` on ARMv8). On POWER modelled as `ld; lwsync`
    /// folded into one access by the lowering layer.
    Acquire,
    /// Store-release (`stlr` on ARMv8).
    Release,
}

/// Fence (memory-barrier) instructions across both architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// ARMv8 `dmb ish` — full barrier (inner shareable domain).
    DmbIsh,
    /// ARMv8 `dmb ishld` — orders loads against later loads and stores.
    DmbIshLd,
    /// ARMv8 `dmb ishst` — orders stores against later stores.
    DmbIshSt,
    /// ARMv8 `isb` — instruction synchronisation barrier (pipeline flush).
    Isb,
    /// POWER `sync` (heavyweight sync, a.k.a. `hwsync`) — full barrier.
    HwSync,
    /// POWER `lwsync` (lightweight sync) — all orderings except store→load.
    LwSync,
    /// Compiler-only barrier: no instruction is emitted; zero hardware cost.
    Compiler,
}

impl FenceKind {
    /// Human-readable mnemonic, as printed in the paper's figures.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FenceKind::DmbIsh => "dmb ish",
            FenceKind::DmbIshLd => "dmb ishld",
            FenceKind::DmbIshSt => "dmb ishst",
            FenceKind::Isb => "isb",
            FenceKind::HwSync => "sync",
            FenceKind::LwSync => "lwsync",
            FenceKind::Compiler => "barrier()",
        }
    }

    /// Every fence kind, in a stable order (telemetry serialisation and
    /// deterministic iteration rely on this ordering never changing).
    pub const ALL: [FenceKind; 7] = [
        FenceKind::DmbIsh,
        FenceKind::DmbIshLd,
        FenceKind::DmbIshSt,
        FenceKind::Isb,
        FenceKind::HwSync,
        FenceKind::LwSync,
        FenceKind::Compiler,
    ];

    /// Inverse of [`FenceKind::mnemonic`], for parsing serialised site records.
    pub fn from_mnemonic(s: &str) -> Option<FenceKind> {
        FenceKind::ALL.into_iter().find(|k| k.mnemonic() == s)
    }
}

/// Address classes. The timing model does not need byte addresses — it needs
/// to know how an access interacts with the cache hierarchy and with other
/// cores, so locations are classified by sharing behaviour. The `u64` is a
/// line identifier within the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// Thread-private data (stack, TLAB): hits L1 after first touch and never
    /// generates coherence traffic.
    Private(u64),
    /// Read-mostly shared data (code constants, interned strings): may be
    /// replicated in every L1 without invalidations.
    SharedRo(u64),
    /// Read-write shared data: ownership is tracked by the coherence
    /// directory; writes by one core invalidate copies in others.
    SharedRw(u64),
}

impl Loc {
    /// The line identifier inside the class.
    pub fn line(self) -> u64 {
        match self {
            Loc::Private(l) | Loc::SharedRo(l) | Loc::SharedRw(l) => l,
        }
    }
}

/// How predictable a conditional branch is. Synthetic control dependencies
/// (the kernel `ctrl` strategy of Fig. 10) compare a just-loaded value
/// against a constant; their prediction rate depends on the surrounding
/// workload, which the paper observes as a micro/macro divergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mispredict {
    /// Never mispredicted (e.g. a loop back-edge with a trivial pattern).
    Never,
    /// Fixed mispredict probability.
    Rate(f64),
    /// Use the running workload's branch-pressure parameter
    /// ([`crate::machine::WorkloadCtx::bp_pressure`]).
    Workload,
}

/// One simulated instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `nop` — occupies space, costs (almost) nothing. The padding
    /// instruction for size-invariant rewriting.
    Nop,
    /// Move-immediate / register move.
    MovImm,
    /// Generic single-cycle ALU operation.
    Alu,
    /// Compare against an immediate.
    CmpImm,
    /// Conditional branch with the given prediction behaviour.
    CondBranch(Mispredict),
    /// Stack spill: `stp x9, xzr, [sp,#-16]!` (ARM) or `std r11,-8(r1)`
    /// (POWER). Cheap store to a private line.
    StackPush,
    /// Stack reload: `ldp`/`ld` of the spilled register.
    StackPop,
    /// Memory load.
    Load {
        /// Location accessed.
        loc: Loc,
        /// Ordering attribute.
        ord: AccessOrd,
    },
    /// Memory store (retires through the store buffer).
    Store {
        /// Location accessed.
        loc: Loc,
        /// Ordering attribute.
        ord: AccessOrd,
    },
    /// Atomic read-modify-write (load-linked/store-conditional or `lwarx`/
    /// `stwcx` pair). Acquires the line exclusively.
    Cas {
        /// Location accessed.
        loc: Loc,
        /// Probability the reservation succeeds first try (contention model).
        success_prob: f64,
    },
    /// Memory barrier instruction.
    Fence(FenceKind),
    /// The paper's spin-loop cost function (Figs. 2 and 3), timed natively.
    ///
    /// `stack_spill` selects the variant that must save/restore the counter
    /// register (Fig. 2 lines 1 and 5) versus the OpenJDK-ARM variant where a
    /// scratch register is available ("arm-nostack" in Fig. 4).
    CostLoop {
        /// Loop iteration count N.
        iters: u64,
        /// Whether the counter register must be spilled to the stack.
        stack_spill: bool,
    },
    /// A coarse block of straight-line computation worth `cycles` cycles
    /// after accounting for instruction-level parallelism. Workload
    /// generators use this for the non-barrier bulk of an application.
    Compute {
        /// Amortised cycle cost of the block.
        cycles: u32,
    },
}

impl Instr {
    /// Encoded size in 4-byte instruction words, used to check
    /// size-invariant rewriting. `Compute` blocks and cost loops report the
    /// space their real encoding would occupy.
    pub fn size(&self) -> u64 {
        match self {
            Instr::Nop
            | Instr::MovImm
            | Instr::Alu
            | Instr::CmpImm
            | Instr::CondBranch(_)
            | Instr::StackPush
            | Instr::StackPop
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Fence(_) => 1,
            // ll/sc loop: load-exclusive, op, store-exclusive, branch.
            Instr::Cas { .. } => 4,
            // mov N; subs; bne (+ optional stp/ldp) — Figs. 2/3.
            Instr::CostLoop { stack_spill, .. } => {
                if *stack_spill {
                    5
                } else {
                    3
                }
            }
            // Compute blocks stand for real application code; their size is
            // irrelevant to barrier-site invariance, report 0.
            Instr::Compute { .. } => 0,
        }
    }
}

/// Total encoded size of an instruction sequence, in words.
pub fn seq_size(instrs: &[Instr]) -> u64 {
    instrs.iter().map(Instr::size).sum()
}

/// Pad `instrs` with `Nop`s up to `target` words. Panics if the sequence is
/// already larger than `target` — the caller chose an insufficient envelope.
pub fn pad_to(mut instrs: Vec<Instr>, target: u64) -> Vec<Instr> {
    let sz = seq_size(&instrs);
    assert!(
        sz <= target,
        "sequence of {sz} words cannot be padded to {target}"
    );
    for _ in sz..target {
        instrs.push(Instr::Nop);
    }
    instrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_figures() {
        // Fig. 2: stp, mov, subs, bne, ldp = 5 instructions.
        assert_eq!(
            Instr::CostLoop {
                iters: 8,
                stack_spill: true
            }
            .size(),
            5
        );
        // OpenJDK ARM variant elides the stack ops: mov, subs, bne.
        assert_eq!(
            Instr::CostLoop {
                iters: 8,
                stack_spill: false
            }
            .size(),
            3
        );
    }

    #[test]
    fn pad_to_is_size_invariant() {
        let a = pad_to(vec![Instr::Fence(FenceKind::DmbIsh)], 4);
        let b = pad_to(
            vec![
                Instr::CmpImm,
                Instr::CondBranch(Mispredict::Workload),
                Instr::Fence(FenceKind::Isb),
            ],
            4,
        );
        assert_eq!(seq_size(&a), seq_size(&b));
        assert_eq!(a.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot be padded")]
    fn pad_to_rejects_overflow() {
        pad_to(vec![Instr::Nop; 5], 4);
    }

    #[test]
    fn mnemonics_are_papers() {
        assert_eq!(FenceKind::HwSync.mnemonic(), "sync");
        assert_eq!(FenceKind::LwSync.mnemonic(), "lwsync");
        assert_eq!(FenceKind::DmbIshLd.mnemonic(), "dmb ishld");
    }

    #[test]
    fn loc_line_extraction() {
        assert_eq!(Loc::Private(7).line(), 7);
        assert_eq!(Loc::SharedRw(9).line(), 9);
    }
}
