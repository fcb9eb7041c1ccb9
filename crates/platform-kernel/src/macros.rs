//! The kernel's memory-model macros and their default `ARMv8` lowerings.

use wmm_sim::isa::{FenceKind, Instr};
use wmmbench::strategy::FencingStrategy;

/// The 14 memory-model macros investigated in §4.3 (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KMacro {
    /// `smp_mb()` — full barrier between CPUs.
    SmpMb,
    /// `smp_rmb()` — read barrier.
    SmpRmb,
    /// `smp_wmb()` — write barrier.
    SmpWmb,
    /// `smp_mb__before_atomic()`.
    SmpMbBeforeAtomic,
    /// `smp_mb__after_atomic()`.
    SmpMbAfterAtomic,
    /// `smp_store_mb()` — store followed by a full barrier.
    SmpStoreMb,
    /// `smp_load_acquire()`.
    SmpLoadAcquire,
    /// `smp_store_release()`.
    SmpStoreRelease,
    /// `READ_ONCE()` — prevents duplicated/fused reads (compiler-only).
    ReadOnce,
    /// `WRITE_ONCE()` — prevents duplicated/fused writes (compiler-only).
    WriteOnce,
    /// `read_barrier_depends()` — orders dependent reads; a superset of the
    /// control dependencies `READ_ONCE_CTRL` would need (§4.3).
    ReadBarrierDepends,
    /// `mb()` — mandatory (device-visible) full barrier.
    Mb,
    /// `rmb()` — mandatory read barrier.
    Rmb,
    /// `wmb()` — mandatory write barrier.
    Wmb,
}

impl KMacro {
    /// All macros, in Fig. 7's display order.
    pub const ALL: [KMacro; 14] = [
        KMacro::SmpMb,
        KMacro::ReadOnce,
        KMacro::ReadBarrierDepends,
        KMacro::SmpRmb,
        KMacro::SmpWmb,
        KMacro::SmpMbBeforeAtomic,
        KMacro::SmpStoreMb,
        KMacro::SmpMbAfterAtomic,
        KMacro::WriteOnce,
        KMacro::SmpLoadAcquire,
        KMacro::SmpStoreRelease,
        KMacro::Rmb,
        KMacro::Mb,
        KMacro::Wmb,
    ];

    /// Macro name as written in kernel source.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KMacro::SmpMb => "smp_mb",
            KMacro::SmpRmb => "smp_rmb",
            KMacro::SmpWmb => "smp_wmb",
            KMacro::SmpMbBeforeAtomic => "smp_mb_before_atomic",
            KMacro::SmpMbAfterAtomic => "smp_mb_after_atomic",
            KMacro::SmpStoreMb => "smp_store_mb",
            KMacro::SmpLoadAcquire => "smp_load_acquire",
            KMacro::SmpStoreRelease => "smp_store_release",
            KMacro::ReadOnce => "read_once",
            KMacro::WriteOnce => "write_once",
            KMacro::ReadBarrierDepends => "read_barrier_depends",
            KMacro::Mb => "mb",
            KMacro::Rmb => "rmb",
            KMacro::Wmb => "wmb",
        }
    }
}

/// A kernel fencing strategy: the default per-macro lowering with an
/// arbitrary set of overrides (how the rbd strategies are built).
pub struct KernelStrategy {
    name: String,
    overrides: Vec<(KMacro, Vec<Instr>)>,
}

impl KernelStrategy {
    /// Add an override.
    #[must_use]
    pub fn with(mut self, m: KMacro, seq: Vec<Instr>) -> Self {
        self.overrides.push((m, seq));
        self
    }

    /// Rename.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Default lowering of a macro on `ARMv8` Linux 4.2 (§4.3):
    /// `smp_mb` is `dmb ish`; the read/write barriers use the `ishld`/`ishst`
    /// variants; acquire/release map to their nearest `dmb` flavour; the
    /// `_ONCE` macros and `read_barrier_depends` are compiler-only.
    #[must_use]
    pub(crate) fn default_lowering(m: KMacro) -> Vec<Instr> {
        match m {
            KMacro::SmpMb
            | KMacro::SmpMbBeforeAtomic
            | KMacro::SmpMbAfterAtomic
            | KMacro::SmpStoreMb
            | KMacro::Mb => vec![Instr::Fence(FenceKind::DmbIsh)],
            // smp_load_acquire/smp_store_release are ldar/stlr stand-ins:
            // ordering-equivalent dmb flavours (the timing model gives
            // acquire/release their own costs only when attached to an
            // access; a site is a pure instruction sequence).
            KMacro::SmpRmb | KMacro::Rmb | KMacro::SmpLoadAcquire => {
                vec![Instr::Fence(FenceKind::DmbIshLd)]
            }
            KMacro::SmpWmb | KMacro::Wmb | KMacro::SmpStoreRelease => {
                vec![Instr::Fence(FenceKind::DmbIshSt)]
            }
            KMacro::ReadOnce | KMacro::WriteOnce | KMacro::ReadBarrierDepends => {
                vec![Instr::Fence(FenceKind::Compiler)]
            }
        }
    }
}

impl FencingStrategy<KMacro> for KernelStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    fn lower(&self, path: &KMacro) -> Vec<Instr> {
        for (m, seq) in &self.overrides {
            if m == path {
                return seq.clone();
            }
        }
        KernelStrategy::default_lowering(*path)
    }
}

/// The unmodified `ARMv8` kernel 4.2 strategy — the base case of §4.3 (after
/// nop padding, which `wmmbench::image` adds automatically).
#[must_use]
pub fn default_arm_strategy() -> KernelStrategy {
    KernelStrategy {
        name: "linux-4.2-arm64-default".into(),
        overrides: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_macros() {
        assert_eq!(KMacro::ALL.len(), 14);
        // No duplicates.
        let mut names: Vec<&str> = KMacro::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn default_smp_mb_is_dmb_ish() {
        let s = default_arm_strategy();
        assert_eq!(
            s.lower(&KMacro::SmpMb),
            vec![Instr::Fence(FenceKind::DmbIsh)]
        );
    }

    #[test]
    fn once_macros_are_compiler_only() {
        let s = default_arm_strategy();
        for m in [
            KMacro::ReadOnce,
            KMacro::WriteOnce,
            KMacro::ReadBarrierDepends,
        ] {
            assert_eq!(
                s.lower(&m),
                vec![Instr::Fence(FenceKind::Compiler)],
                "{m:?} must be free by default"
            );
        }
    }

    #[test]
    fn rw_barriers_use_dmb_variants() {
        let s = default_arm_strategy();
        assert_eq!(
            s.lower(&KMacro::SmpRmb),
            vec![Instr::Fence(FenceKind::DmbIshLd)]
        );
        assert_eq!(
            s.lower(&KMacro::SmpWmb),
            vec![Instr::Fence(FenceKind::DmbIshSt)]
        );
    }

    #[test]
    fn overrides_shadow_defaults() {
        let s = default_arm_strategy()
            .with(
                KMacro::ReadBarrierDepends,
                vec![Instr::Fence(FenceKind::DmbIshLd)],
            )
            .named("rbd=dmb ishld");
        assert_eq!(
            s.lower(&KMacro::ReadBarrierDepends),
            vec![Instr::Fence(FenceKind::DmbIshLd)]
        );
        assert_eq!(
            s.lower(&KMacro::SmpMb),
            vec![Instr::Fence(FenceKind::DmbIsh)],
            "other macros unchanged"
        );
        assert_eq!(s.name(), "rbd=dmb ishld");
    }
}
