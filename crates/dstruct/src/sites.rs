//! The reclamation code paths and the four scheme strategies.
//!
//! Every fence a reclamation scheme needs lives at one of six named sites;
//! a scheme is a [`DstructStrategy`] lowering each site to an instruction
//! sequence. The structures themselves (CAS publication order and so on)
//! keep their barriers inside plain code segments, so the strategy axis
//! varies *only* the reclamation cost — the same discipline the kernel
//! platform applies to `read_barrier_depends`.

use wmm_sim::isa::{FenceKind, Instr};
use wmmbench::strategy::FencingStrategy;

/// The six reclamation code paths of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DSite {
    /// Hazard-pointer publication: announce the pointer, then order the
    /// announcement before the validating re-read (the hot reader site).
    HpProtect,
    /// Add a removed node to the thread-local retire list (orders the
    /// unlink before the list publication).
    Retire,
    /// Scan all hazard pointers before freeing retired nodes (the rare
    /// reclaimer site — where the asymmetric scheme concentrates its cost).
    HpScan,
    /// Epoch entry: announce the local epoch before touching shared nodes.
    EpochEnter,
    /// Epoch exit: release the critical section.
    EpochExit,
    /// Global epoch advance before reclaiming a grace-period-old batch.
    EpochAdvance,
}

impl DSite {
    /// All sites, readers first, reclaimer paths after.
    pub const ALL: [DSite; 6] = [
        DSite::HpProtect,
        DSite::Retire,
        DSite::HpScan,
        DSite::EpochEnter,
        DSite::EpochExit,
        DSite::EpochAdvance,
    ];
}

/// A reclamation scheme: the free default per-site lowering with an
/// arbitrary set of overrides (how all four schemes are built).
pub struct DstructStrategy {
    name: String,
    overrides: Vec<(DSite, Vec<Instr>)>,
}

impl DstructStrategy {
    /// Add an override.
    #[must_use]
    pub fn with(mut self, s: DSite, seq: Vec<Instr>) -> Self {
        self.overrides.push((s, seq));
        self
    }

    /// Rename.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Default lowering: every reclamation site is compiler-only. This is
    /// the no-reclamation baseline — the structure's own publication
    /// barriers live in code segments and are not part of any site.
    #[must_use]
    pub(crate) fn default_lowering(_s: DSite) -> Vec<Instr> {
        vec![Instr::Fence(FenceKind::Compiler)]
    }
}

impl FencingStrategy<DSite> for DstructStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    fn lower(&self, path: &DSite) -> Vec<Instr> {
        for (s, seq) in &self.overrides {
            if s == path {
                return seq.clone();
            }
        }
        DstructStrategy::default_lowering(*path)
    }
}

/// No reclamation: every site free. The baseline every scheme is ranked
/// against (and the unsafe end of the use-after-retire check).
#[must_use]
pub fn nr_strategy() -> DstructStrategy {
    DstructStrategy {
        name: "nr".into(),
        overrides: vec![],
    }
}

/// Epoch-based reclamation: full barrier on epoch entry (announcement
/// before the first shared read), store barrier on exit, full barrier at
/// the global advance. Per-protect sites stay free — the scheme's whole
/// point is amortising ordering over the critical section.
#[must_use]
pub(crate) fn ebr_strategy() -> DstructStrategy {
    nr_strategy()
        .with(DSite::EpochEnter, vec![Instr::Fence(FenceKind::DmbIsh)])
        .with(DSite::EpochExit, vec![Instr::Fence(FenceKind::DmbIshSt)])
        .with(DSite::EpochAdvance, vec![Instr::Fence(FenceKind::DmbIsh)])
        .named("ebr")
}

/// Classic hazard pointers: `dmb ish` between every hazard publication and
/// its validating re-read (the §4 `store → fence → load` pattern on the
/// hottest path), store barrier on retire, full barrier before the scan.
#[must_use]
pub fn hp_dmb_strategy() -> DstructStrategy {
    nr_strategy()
        .with(DSite::HpProtect, vec![Instr::Fence(FenceKind::DmbIsh)])
        .with(DSite::Retire, vec![Instr::Fence(FenceKind::DmbIshSt)])
        .with(DSite::HpScan, vec![Instr::Fence(FenceKind::DmbIsh)])
        .named("hp-dmb")
}

/// Asymmetric (membarrier-style) hazard pointers: the reader-side protect
/// fence is compiler-only; the reclaimer pays for everyone with a heavy
/// process-wide barrier sequence before each scan (modeled as
/// `dmb ish; isb; dmb ish` — the IPI round-trip that forces every reader's
/// ordering remotely).
#[must_use]
pub fn hp_asym_strategy() -> DstructStrategy {
    nr_strategy()
        .with(DSite::Retire, vec![Instr::Fence(FenceKind::DmbIshSt)])
        .with(
            DSite::HpScan,
            vec![
                Instr::Fence(FenceKind::DmbIsh),
                Instr::Fence(FenceKind::Isb),
                Instr::Fence(FenceKind::DmbIsh),
            ],
        )
        .named("hp-asym")
}

/// All four scheme strategies, baseline first (the ranking order the
/// campaign reports).
#[must_use]
pub fn scheme_strategies() -> Vec<DstructStrategy> {
    vec![
        nr_strategy(),
        ebr_strategy(),
        hp_dmb_strategy(),
        hp_asym_strategy(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_sites() {
        assert_eq!(DSite::ALL.len(), 6);
        let mut sites = DSite::ALL.to_vec();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 6);
    }

    #[test]
    fn nr_is_free_everywhere() {
        let s = nr_strategy();
        for site in DSite::ALL {
            assert_eq!(
                s.lower(&site),
                vec![Instr::Fence(FenceKind::Compiler)],
                "{site:?} must be free under NR"
            );
        }
    }

    #[test]
    fn hp_dmb_fences_every_protect() {
        let s = hp_dmb_strategy();
        assert_eq!(
            s.lower(&DSite::HpProtect),
            vec![Instr::Fence(FenceKind::DmbIsh)]
        );
        assert_eq!(
            s.lower(&DSite::EpochEnter),
            vec![Instr::Fence(FenceKind::Compiler)],
            "HP does not touch epoch sites"
        );
    }

    #[test]
    fn hp_asym_moves_cost_to_the_scan() {
        let s = hp_asym_strategy();
        assert_eq!(
            s.lower(&DSite::HpProtect),
            vec![Instr::Fence(FenceKind::Compiler)],
            "asymmetric readers are fence-free"
        );
        let scan = s.lower(&DSite::HpScan);
        assert!(
            scan.len() > hp_dmb_strategy().lower(&DSite::HpScan).len(),
            "the reclaimer pays more than the classic scan"
        );
    }

    #[test]
    fn ebr_fences_only_epoch_boundaries() {
        let s = ebr_strategy();
        assert_eq!(
            s.lower(&DSite::HpProtect),
            vec![Instr::Fence(FenceKind::Compiler)]
        );
        assert_eq!(
            s.lower(&DSite::EpochEnter),
            vec![Instr::Fence(FenceKind::DmbIsh)]
        );
        assert_eq!(
            s.lower(&DSite::EpochExit),
            vec![Instr::Fence(FenceKind::DmbIshSt)]
        );
    }

    #[test]
    fn four_schemes_with_distinct_names() {
        let mut names: Vec<String> = scheme_strategies()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names.len(), 4);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
