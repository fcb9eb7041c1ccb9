//! The six `read_barrier_depends` fencing strategies of Fig. 10.
//!
//! §4.3.1: "Each of these test cases replicates a method for introducing
//! ordering dependencies from the `ARMv8` manual [B2.7.4]":
//!
//! * **base case** — the default kernel: `read_barrier_depends` is a
//!   compiler barrier, padded with `nop`s;
//! * **ctrl** — a true control dependency: compare the last loaded value
//!   against a constant (42) and conditionally branch over an impotent
//!   instruction;
//! * **ctrl+isb** — the same, but the impotent instruction is an `isb`
//!   (orders dependent *loads* too, at pipeline-flush cost);
//! * **dmb ishld** / **dmb ish** — the barrier instruction itself;
//! * **la/sr** — `dmb ishld` for `read_barrier_depends`, plus `dmb ishld`
//!   added to `READ_ONCE` and `dmb ishst` to `WRITE_ONCE`, "with the
//!   intention of adding load-acquire/store-release semantics across all
//!   annotated reads and writes".

use wmm_litmus::ops::DepKind;
use wmm_sim::isa::{FenceKind, Instr, Mispredict};

use crate::macros::{default_arm_strategy, KMacro, KernelStrategy};

/// The test cases of Fig. 10, in the figure's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RbdStrategy {
    /// Default barriers with `nop` padding.
    BaseCase,
    /// Synthetic control dependency.
    Ctrl,
    /// Control dependency + `isb`.
    CtrlIsb,
    /// `dmb ishld`.
    DmbIshld,
    /// `dmb ish`.
    DmbIsh,
    /// Load-acquire/store-release across `READ_ONCE`/`WRITE_ONCE` too.
    LaSr,
}

impl RbdStrategy {
    /// All six, in Fig. 10 order.
    pub const ALL: [RbdStrategy; 6] = [
        RbdStrategy::BaseCase,
        RbdStrategy::Ctrl,
        RbdStrategy::CtrlIsb,
        RbdStrategy::DmbIshld,
        RbdStrategy::DmbIsh,
        RbdStrategy::LaSr,
    ];

    /// Label as printed in Fig. 10.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RbdStrategy::BaseCase => "base case",
            RbdStrategy::Ctrl => "ctrl",
            RbdStrategy::CtrlIsb => "ctrl+isb",
            RbdStrategy::DmbIshld => "dmb ishld",
            RbdStrategy::DmbIsh => "dmb ish",
            RbdStrategy::LaSr => "la/sr",
        }
    }

    /// The dependency this strategy's `read_barrier_depends` sequence
    /// establishes from the preceding load to later accesses, in litmus
    /// terms: the ctrl variants compare against the loaded value, so they
    /// carry a real control (or control+isb) dependency; the fence and
    /// base-case variants carry none — their ordering, if any, comes from
    /// the emitted fence instruction itself.
    #[must_use]
    pub(crate) fn dep_kind(self) -> Option<DepKind> {
        match self {
            RbdStrategy::Ctrl => Some(DepKind::Ctrl),
            RbdStrategy::CtrlIsb => Some(DepKind::CtrlIsb),
            _ => None,
        }
    }

    /// The instruction sequence this strategy uses for
    /// `read_barrier_depends` itself.
    #[must_use]
    pub(crate) fn rbd_sequence(self) -> Vec<Instr> {
        match self {
            RbdStrategy::BaseCase => vec![Instr::Fence(FenceKind::Compiler)],
            // cmp x_last, #42; b.ne +4; <impotent nop>
            RbdStrategy::Ctrl => vec![
                Instr::CmpImm,
                Instr::CondBranch(Mispredict::Workload),
                Instr::Nop,
            ],
            // cmp; b.ne; isb — the branch's misprediction cost is absorbed
            // by the flush the isb performs anyway, which is why the paper
            // measures ctrl+isb at the same ~24.5 ns in vitro and in vivo
            // ("the behaviour of isb is broadly stable").
            RbdStrategy::CtrlIsb => vec![
                Instr::CmpImm,
                Instr::CondBranch(Mispredict::Never),
                Instr::Fence(FenceKind::Isb),
            ],
            // la/sr uses dmb ishld for read_barrier_depends itself; its
            // extra _ONCE annotations are added in `rbd_strategy`.
            RbdStrategy::DmbIshld | RbdStrategy::LaSr => {
                vec![Instr::Fence(FenceKind::DmbIshLd)]
            }
            RbdStrategy::DmbIsh => vec![Instr::Fence(FenceKind::DmbIsh)],
        }
    }
}

/// Build the full kernel strategy for a Fig. 10 test case.
#[must_use]
pub fn rbd_strategy(which: RbdStrategy) -> KernelStrategy {
    let mut s = default_arm_strategy()
        .with(KMacro::ReadBarrierDepends, which.rbd_sequence())
        .named(format!("rbd={}", which.label()));
    if which == RbdStrategy::LaSr {
        s = s
            .with(KMacro::ReadOnce, vec![Instr::Fence(FenceKind::DmbIshLd)])
            .with(KMacro::WriteOnce, vec![Instr::Fence(FenceKind::DmbIshSt)]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmmbench::strategy::FencingStrategy;

    #[test]
    fn six_strategies_with_labels() {
        assert_eq!(RbdStrategy::ALL.len(), 6);
        assert_eq!(RbdStrategy::CtrlIsb.label(), "ctrl+isb");
        assert_eq!(RbdStrategy::LaSr.label(), "la/sr");
    }

    #[test]
    fn base_case_is_free() {
        let s = rbd_strategy(RbdStrategy::BaseCase);
        assert_eq!(
            s.lower(&KMacro::ReadBarrierDepends),
            vec![Instr::Fence(FenceKind::Compiler)]
        );
    }

    #[test]
    fn ctrl_uses_a_real_branch() {
        let seq = RbdStrategy::Ctrl.rbd_sequence();
        assert!(seq
            .iter()
            .any(|i| matches!(i, Instr::CondBranch(Mispredict::Workload))));
        assert!(!seq
            .iter()
            .any(|i| matches!(i, Instr::Fence(FenceKind::Isb))));
    }

    #[test]
    fn ctrl_isb_adds_the_flush() {
        let seq = RbdStrategy::CtrlIsb.rbd_sequence();
        assert!(seq
            .iter()
            .any(|i| matches!(i, Instr::Fence(FenceKind::Isb))));
    }

    #[test]
    fn lasr_annotates_once_macros_too() {
        let s = rbd_strategy(RbdStrategy::LaSr);
        assert_eq!(
            s.lower(&KMacro::ReadOnce),
            vec![Instr::Fence(FenceKind::DmbIshLd)]
        );
        assert_eq!(
            s.lower(&KMacro::WriteOnce),
            vec![Instr::Fence(FenceKind::DmbIshSt)]
        );
        // Non-LaSr strategies leave the _ONCE macros free.
        let d = rbd_strategy(RbdStrategy::DmbIshld);
        assert_eq!(
            d.lower(&KMacro::ReadOnce),
            vec![Instr::Fence(FenceKind::Compiler)]
        );
    }
}
