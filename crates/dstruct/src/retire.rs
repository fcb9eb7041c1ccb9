//! The hazard-publication / retire-scan idiom, and the bridge between
//! fence *synthesis* and reclamation *schemes*.
//!
//! The safety core of hazard pointers is a store-buffering race: a reader
//! announces a hazard then validates the node is still reachable, while a
//! reclaimer unlinks the node then scans the hazard slots. If both the
//! protect fence and the scan fence are missing, each side can miss the
//! other's store — the reclaimer frees a node the reader still holds, and
//! the reader dereferences reclaimed memory. [`hp_reclaim_idiom`] lowers
//! that skeleton under any [`DstructStrategy`]; [`ebr_reclaim_idiom`] is
//! the epoch analogue (announcement vs epoch advance);
//! [`use_after_retire`] is the litmus shape the explorer checks.
//!
//! [`strategy_from_placement`] closes the loop with `wmm-analyze`: a fence
//! placement synthesized on the bare skeleton maps back onto the
//! protect/scan sites, so a synthesized scheme can be re-lowered and
//! priced exactly like a hand-written one.

use wmm_analyze::{Instrument, StreamDep};
use wmm_litmus::ops::{LOp, LitmusTest};
use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};
use wmmbench::strategy::FencingStrategy;

use crate::sites::{nr_strategy, DSite, DstructStrategy};

/// Shared locations of the reclaim idiom.
const HAZARD: Loc = Loc::SharedRw(0x4A5A);
const NODE: Loc = Loc::SharedRw(0x20DE);
const EPOCH: Loc = Loc::SharedRw(0xE60C);

fn store(loc: Loc) -> Instr {
    Instr::Store {
        loc,
        ord: AccessOrd::Plain,
    }
}

fn load(loc: Loc) -> Instr {
    Instr::Load {
        loc,
        ord: AccessOrd::Plain,
    }
}

/// Lower the hazard-pointer reclaim idiom under a scheme: reader thread
/// `W hazard; hp_protect(); R node`, reclaimer thread
/// `W node (unlink); hp_scan(); R hazard`. No syntactic dependencies —
/// protection must come from the site lowerings.
#[must_use]
pub fn hp_reclaim_idiom(s: &DstructStrategy) -> (Vec<Vec<Instr>>, Vec<StreamDep>) {
    let mut reader = vec![store(HAZARD)];
    reader.extend(s.lower(&DSite::HpProtect));
    reader.push(load(NODE));

    let mut reclaimer = vec![store(NODE)];
    reclaimer.extend(s.lower(&DSite::HpScan));
    reclaimer.push(load(HAZARD));

    (vec![reader, reclaimer], vec![])
}

/// The epoch analogue of [`hp_reclaim_idiom`]: reader thread
/// `W epoch (announce); epoch_enter(); R node`, reclaimer thread
/// `W node (unlink); epoch_advance(); R epoch`.
#[must_use]
pub fn ebr_reclaim_idiom(s: &DstructStrategy) -> (Vec<Vec<Instr>>, Vec<StreamDep>) {
    let mut reader = vec![store(EPOCH)];
    reader.extend(s.lower(&DSite::EpochEnter));
    reader.push(load(NODE));

    let mut reclaimer = vec![store(NODE)];
    reclaimer.extend(s.lower(&DSite::EpochAdvance));
    reclaimer.push(load(EPOCH));

    (vec![reader, reclaimer], vec![])
}

/// The bare reclaim skeleton: no fences anywhere (what fence synthesis
/// starts from). Thread 0 is `W hazard; R node`, thread 1 is
/// `W node; R hazard` — the store-buffering shape.
#[must_use]
pub fn bare_reclaim() -> (Vec<Vec<Instr>>, Vec<StreamDep>) {
    (
        vec![
            vec![store(HAZARD), load(NODE)],
            vec![store(NODE), load(HAZARD)],
        ],
        vec![],
    )
}

/// Map a fence placement synthesized on [`bare_reclaim`] back onto the
/// reclamation sites: reader fences between hazard store and node load
/// become the `hp_protect` lowering, reclaimer fences between unlink and
/// scan load become the `hp_scan` lowering. A site the placement leaves
/// bare is lowered to a compiler barrier (overriding nothing — the NR
/// default is already compiler-only — but keeping the mapping explicit).
///
/// Returns `None` if the placement contains anything without a site to
/// live in: non-fence instruments (upgrades, dependencies) or fences
/// outside the two inter-access slots.
#[must_use]
pub fn strategy_from_placement(instruments: &[Instrument]) -> Option<DstructStrategy> {
    let mut protect: Vec<Instr> = vec![];
    let mut scan: Vec<Instr> = vec![];
    for ins in instruments {
        match *ins {
            Instrument::Fence {
                thread: 0,
                slot: 1,
                kind,
            } => protect.push(Instr::Fence(kind)),
            Instrument::Fence {
                thread: 1,
                slot: 1,
                kind,
            } => scan.push(Instr::Fence(kind)),
            _ => return None,
        }
    }
    if protect.is_empty() {
        protect.push(Instr::Fence(FenceKind::Compiler));
    }
    if scan.is_empty() {
        scan.push(Instr::Fence(FenceKind::Compiler));
    }
    Some(
        nr_strategy()
            .with(DSite::HpProtect, protect)
            .with(DSite::HpScan, scan)
            .named("hp=synth"),
    )
}

/// The use-after-retire litmus shape: variable 0 is the hazard slot,
/// variable 1 the node's reachability word (1 once unlinked/poisoned).
/// The weak outcome — both threads read 0 — is the reader validating a
/// node the reclaimer has already decided nobody holds: the reclaimed
/// node gets dereferenced. Observable wherever store→load reorders (TSO
/// and weaker) when no scheme fences are placed.
#[must_use]
pub fn use_after_retire() -> LitmusTest {
    LitmusTest {
        name: "use-after-retire".into(),
        threads: vec![
            vec![
                LOp::Store {
                    var: 0,
                    val: 1,
                    release: false,
                },
                LOp::Load {
                    var: 1,
                    reg: 0,
                    acquire: false,
                    dep: None,
                },
            ],
            vec![
                LOp::Store {
                    var: 1,
                    val: 1,
                    release: false,
                },
                LOp::Load {
                    var: 0,
                    reg: 0,
                    acquire: false,
                    dep: None,
                },
            ],
        ],
        interesting: vec![(0, 0, 0), (1, 0, 0)],
        store_deps: vec![],
        memory: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{ebr_strategy, hp_asym_strategy, hp_dmb_strategy};
    use wmm_analyze::{analyze, ProgramGraph};
    use wmm_litmus::explore::explore;
    use wmm_litmus::ops::{FClass, ModelKind};
    use wmm_litmus::rewrite::Reinforce;

    #[test]
    fn bare_reclaim_has_no_fences() {
        let (streams, deps) = bare_reclaim();
        assert!(deps.is_empty());
        for t in &streams {
            assert!(t.iter().all(|i| !matches!(i, Instr::Fence(_))));
        }
    }

    #[test]
    fn hp_dmb_idiom_is_statically_protected() {
        let (streams, deps) = hp_reclaim_idiom(&hp_dmb_strategy());
        let g = ProgramGraph::from_streams("hp-dmb", &streams, &deps);
        assert!(analyze(&g, ModelKind::ArmV8).protected());
    }

    #[test]
    fn nr_and_asym_reader_sides_are_statically_unprotected() {
        // NR places no fences at all; the asymmetric scheme's reader-side
        // compiler barrier is invisible to the per-thread fence analysis
        // (its correctness lives in the membarrier IPI, outside the
        // model) — both must be flagged.
        for s in [nr_strategy(), hp_asym_strategy()] {
            let (streams, deps) = hp_reclaim_idiom(&s);
            let g = ProgramGraph::from_streams(s.name().to_string(), &streams, &deps);
            assert!(
                !analyze(&g, ModelKind::ArmV8).protected(),
                "{} must be flagged",
                s.name()
            );
        }
    }

    #[test]
    fn ebr_idiom_is_statically_protected() {
        let (streams, deps) = ebr_reclaim_idiom(&ebr_strategy());
        let g = ProgramGraph::from_streams("ebr", &streams, &deps);
        assert!(analyze(&g, ModelKind::ArmV8).protected());
        let (streams, deps) = ebr_reclaim_idiom(&nr_strategy());
        let g = ProgramGraph::from_streams("ebr-bare", &streams, &deps);
        assert!(!analyze(&g, ModelKind::ArmV8).protected());
    }

    /// [`use_after_retire`] with the classic hazard-pointer placement: a
    /// full fence between hazard publication and validation, and a full
    /// fence between unlink and scan (read as epoch announcement vs epoch
    /// advance, the same two fences close the race under EBR). The weak
    /// outcome must be unreachable under every model.
    fn hp_use_after_retire() -> LitmusTest {
        use_after_retire().reinforced(&[
            Reinforce::Fence {
                thread: 0,
                before: 1,
                class: FClass::Full,
            },
            Reinforce::Fence {
                thread: 1,
                before: 1,
                class: FClass::Full,
            },
        ])
    }

    #[test]
    fn use_after_retire_differential_two_oracles_agree() {
        // For every model: the explorer reaches the reclaimed-node read
        // exactly when the static check reports an unprotected cycle —
        // the "Herding Cats" two-oracle discipline on the new shape.
        for (test, expect_weak_somewhere) in
            [(use_after_retire(), true), (hp_use_after_retire(), false)]
        {
            let mut weak_anywhere = false;
            for model in [
                ModelKind::Sc,
                ModelKind::Tso,
                ModelKind::ArmV8,
                ModelKind::Power,
            ] {
                let observed =
                    explore(&test, model).allows_with_memory(&test.interesting, &test.memory);
                let g = ProgramGraph::from_litmus(&test);
                let protected = analyze(&g, model).protected();
                assert_eq!(
                    protected,
                    !observed,
                    "{} under {}: static protected={protected}, explorer observes={observed}",
                    test.name,
                    model.label()
                );
                weak_anywhere |= observed;
            }
            assert_eq!(weak_anywhere, expect_weak_somewhere, "{}", test.name);
        }
    }

    #[test]
    fn use_after_retire_is_reachable_on_tso_and_weaker() {
        // SB-shaped: even TSO's store→load reordering frees the node.
        for model in [ModelKind::Tso, ModelKind::ArmV8, ModelKind::Power] {
            let t = use_after_retire();
            assert!(
                explore(&t, model).allows_with_memory(&t.interesting, &t.memory),
                "{}",
                model.label()
            );
        }
        let t = use_after_retire();
        assert!(!explore(&t, ModelKind::Sc).allows_with_memory(&t.interesting, &t.memory));
    }

    #[test]
    fn placement_maps_onto_reclamation_sites() {
        let s = strategy_from_placement(&[
            Instrument::Fence {
                thread: 0,
                slot: 1,
                kind: FenceKind::DmbIsh,
            },
            Instrument::Fence {
                thread: 1,
                slot: 1,
                kind: FenceKind::DmbIsh,
            },
        ])
        .expect("both fences sit on reclamation sites");
        assert_eq!(
            s.lower(&DSite::HpProtect),
            vec![Instr::Fence(FenceKind::DmbIsh)]
        );
        assert_eq!(
            s.lower(&DSite::HpScan),
            vec![Instr::Fence(FenceKind::DmbIsh)]
        );
        let (streams, deps) = hp_reclaim_idiom(&s);
        let g = ProgramGraph::from_streams("hp=synth", &streams, &deps);
        assert!(analyze(&g, ModelKind::ArmV8).protected());
    }

    #[test]
    fn empty_sites_relower_to_compiler_barriers() {
        let s = strategy_from_placement(&[Instrument::Fence {
            thread: 1,
            slot: 1,
            kind: FenceKind::DmbIsh,
        }])
        .expect("scan-only placement");
        assert_eq!(
            s.lower(&DSite::HpProtect),
            vec![Instr::Fence(FenceKind::Compiler)]
        );
    }

    #[test]
    fn off_site_instruments_have_no_dstruct_home() {
        assert!(strategy_from_placement(&[Instrument::Fence {
            thread: 0,
            slot: 2,
            kind: FenceKind::DmbIsh,
        }])
        .is_none());
        assert!(strategy_from_placement(&[Instrument::Acquire { thread: 1, pos: 0 }]).is_none());
    }
}
