//! Lock-free structure operations: segment generators with reclamation
//! sites.
//!
//! Each operation models one hot path of a Treiber stack or Harris-Michael
//! list as application-level instruction segments plus [`DSite`] sites at
//! the densities that make the scheme comparison interesting: the list
//! traversals publish a hazard per visited node (so `hp-dmb` pays a
//! `dmb ish` per pointer chase), every operation crosses one epoch
//! enter/exit pair, and the retire-scan path runs once per reclamation
//! batch (every `SCAN_PERIOD`-th retirement on average) — which is what
//! lets the asymmetric scheme price its heavy barrier where it rarely
//! executes. Pointer-chase loads are labeled `chase` so per-site profiles
//! join structure traffic on stable rows.

use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};
use wmm_sim::SplitMix64;
use wmmbench::image::Segment;

use crate::sites::DSite;

/// One lock-free structure operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DstructOp {
    /// Treiber stack push: init node, publish, CAS the top pointer.
    TreiberPush,
    /// Treiber stack pop: protect the top node, CAS it out, retire it.
    TreiberPop,
    /// Harris-Michael lookup: hazard-protected traversal.
    HmLookup,
    /// Harris-Michael insert: traversal, then publish + CAS.
    HmInsert,
    /// Harris-Michael delete: traversal, mark + unlink CAS, retire; every
    /// few retirements the reclaim path (scan + epoch advance) runs.
    HmDelete,
}

/// Mean retirements per hazard scan / epoch advance: reclamation is
/// batched (real implementations scan after on the order of
/// 2 × slots × threads retirements), so the reclaimer-side sites execute
/// this many times more rarely than [`DSite::Retire`].
pub(crate) const SCAN_PERIOD: u64 = 32;

/// Shared data-structure lines.
mod lines {
    /// Stack top pointer.
    pub(crate) const TOP: u64 = 0x70_0000;
    /// List head and node pool.
    pub(crate) const LIST: u64 = 0x11_0000;
    /// Per-thread hazard-pointer slots.
    pub(crate) const HAZARD: u64 = 0x4A_0000;
    /// Per-thread retire lists.
    pub(crate) const RETIRE: u64 = 0x2E_0000;
    /// Global + per-thread epoch words.
    pub(crate) const EPOCH: u64 = 0xE0_0000;
}

impl DstructOp {
    /// Append this operation's hot path to `out`. `rng` varies node lines
    /// and traversal lengths so repeated invocations are not identical.
    // One arm per operation; each arm is a reclamation vignette and reads
    // as a unit.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn emit(&self, out: &mut Vec<Segment<DSite>>, rng: &mut SplitMix64) {
        let code = |v: Vec<Instr>| Segment::Code(v);
        let site = |s: DSite| Segment::Site(s);
        let chase = |l: u64| {
            Segment::Labeled(
                "chase",
                vec![Instr::Load {
                    loc: Loc::SharedRw(l),
                    ord: AccessOrd::Plain,
                }],
            )
        };
        let ld = |l: u64| Instr::Load {
            loc: Loc::SharedRw(l),
            ord: AccessOrd::Plain,
        };
        let st = |l: u64| Instr::Store {
            loc: Loc::SharedRw(l),
            ord: AccessOrd::Plain,
        };
        let work = |c: u32| Instr::Compute { cycles: c };

        // A hazard-protected pointer chase: publish the hazard slot, cross
        // the protect site (the scheme's validation fence), re-read the
        // protected pointer.
        let protect = |out: &mut Vec<Segment<DSite>>, rng: &mut SplitMix64, node: u64| {
            out.push(code(vec![st(lines::HAZARD + rng.next_below(4))]));
            out.push(site(DSite::HpProtect));
            out.push(chase(node));
        };
        // The batched reclaim path: scan every hazard slot, advance the
        // epoch, free the batch.
        let reclaim = |out: &mut Vec<Segment<DSite>>| {
            out.push(site(DSite::HpScan));
            out.push(code(vec![
                ld(lines::HAZARD),
                ld(lines::HAZARD + 1),
                ld(lines::HAZARD + 2),
                ld(lines::HAZARD + 3),
            ]));
            out.push(site(DSite::EpochAdvance));
            out.push(code(vec![ld(lines::EPOCH), st(lines::EPOCH + 1), work(60)]));
        };

        match self {
            DstructOp::TreiberPush => {
                let node = lines::LIST + rng.next_below(64);
                out.push(site(DSite::EpochEnter));
                out.push(code(vec![st(lines::EPOCH + 2)]));
                // Init the node and publish it: the store-store barrier is
                // structure correctness, identical under every scheme, so
                // it lives in code rather than at a strategy site.
                out.push(code(vec![
                    work(25),
                    st(node),
                    Instr::Fence(FenceKind::DmbIshSt),
                    Instr::Cas {
                        loc: Loc::SharedRw(lines::TOP),
                        success_prob: 0.9,
                    },
                ]));
                out.push(site(DSite::EpochExit));
                out.push(code(vec![st(lines::EPOCH + 2)]));
            }
            DstructOp::TreiberPop => {
                out.push(site(DSite::EpochEnter));
                out.push(code(vec![st(lines::EPOCH + 2)]));
                protect(out, rng, lines::TOP);
                out.push(code(vec![
                    work(15),
                    Instr::Cas {
                        loc: Loc::SharedRw(lines::TOP),
                        success_prob: 0.85,
                    },
                ]));
                out.push(site(DSite::Retire));
                out.push(code(vec![st(lines::RETIRE + rng.next_below(4))]));
                if rng.next_below(SCAN_PERIOD) == 0 {
                    reclaim(out);
                }
                out.push(site(DSite::EpochExit));
                out.push(code(vec![st(lines::EPOCH + 2)]));
            }
            DstructOp::HmLookup => {
                out.push(site(DSite::EpochEnter));
                out.push(code(vec![st(lines::EPOCH + 2)]));
                let hops = 2 + rng.next_below(3);
                let mut node = lines::LIST + rng.next_below(128);
                for _ in 0..hops {
                    protect(out, rng, node);
                    out.push(code(vec![work(12)]));
                    node = lines::LIST + rng.next_below(128);
                }
                out.push(site(DSite::EpochExit));
                out.push(code(vec![st(lines::EPOCH + 2)]));
            }
            DstructOp::HmInsert => {
                out.push(site(DSite::EpochEnter));
                out.push(code(vec![st(lines::EPOCH + 2)]));
                let hops = 1 + rng.next_below(3);
                let mut node = lines::LIST + rng.next_below(128);
                for _ in 0..hops {
                    protect(out, rng, node);
                    node = lines::LIST + rng.next_below(128);
                }
                out.push(code(vec![
                    work(30),
                    st(node),
                    Instr::Fence(FenceKind::DmbIshSt),
                    Instr::Cas {
                        loc: Loc::SharedRw(node + 1),
                        success_prob: 0.92,
                    },
                ]));
                out.push(site(DSite::EpochExit));
                out.push(code(vec![st(lines::EPOCH + 2)]));
            }
            DstructOp::HmDelete => {
                out.push(site(DSite::EpochEnter));
                out.push(code(vec![st(lines::EPOCH + 2)]));
                let hops = 1 + rng.next_below(3);
                let mut node = lines::LIST + rng.next_below(128);
                for _ in 0..hops {
                    protect(out, rng, node);
                    node = lines::LIST + rng.next_below(128);
                }
                // Mark, then unlink.
                out.push(code(vec![
                    Instr::Cas {
                        loc: Loc::SharedRw(node),
                        success_prob: 0.88,
                    },
                    work(10),
                    Instr::Cas {
                        loc: Loc::SharedRw(node + 1),
                        success_prob: 0.9,
                    },
                ]));
                out.push(site(DSite::Retire));
                out.push(code(vec![st(lines::RETIRE + rng.next_below(4))]));
                if rng.next_below(SCAN_PERIOD) == 0 {
                    reclaim(out);
                }
                out.push(site(DSite::EpochExit));
                out.push(code(vec![st(lines::EPOCH + 2)]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites_of(op: DstructOp, seed: u64) -> Vec<DSite> {
        let mut out = vec![];
        let mut rng = SplitMix64::new(seed);
        op.emit(&mut out, &mut rng);
        out.iter()
            .filter_map(|seg| match seg {
                Segment::Site(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    const OPS: [DstructOp; 5] = [
        DstructOp::TreiberPush,
        DstructOp::TreiberPop,
        DstructOp::HmLookup,
        DstructOp::HmInsert,
        DstructOp::HmDelete,
    ];

    #[test]
    fn every_op_crosses_one_epoch_pair() {
        for op in OPS {
            for seed in 0..16 {
                let sites = sites_of(op, seed);
                let enters = sites.iter().filter(|s| **s == DSite::EpochEnter).count();
                let exits = sites.iter().filter(|s| **s == DSite::EpochExit).count();
                assert_eq!(enters, 1, "{op:?}");
                assert_eq!(exits, 1, "{op:?}");
            }
        }
    }

    #[test]
    fn traversals_protect_every_hop() {
        // The list operations must emit multiple protect sites per op —
        // that density is what makes hp-dmb lose to the batched schemes.
        for seed in 0..16 {
            let protects = sites_of(DstructOp::HmLookup, seed)
                .iter()
                .filter(|s| **s == DSite::HpProtect)
                .count();
            assert!(protects >= 2, "lookup protects every visited node");
        }
        assert_eq!(
            sites_of(DstructOp::TreiberPush, 1)
                .iter()
                .filter(|s| **s == DSite::HpProtect)
                .count(),
            0,
            "push reads no shared nodes and needs no hazard"
        );
    }

    #[test]
    fn retiring_ops_retire_and_occasionally_scan() {
        for op in [DstructOp::TreiberPop, DstructOp::HmDelete] {
            let mut retires = 0usize;
            let mut scans = 0usize;
            for seed in 0..200 {
                let sites = sites_of(op, seed);
                retires += sites.iter().filter(|s| **s == DSite::Retire).count();
                scans += sites.iter().filter(|s| **s == DSite::HpScan).count();
            }
            assert_eq!(retires, 200, "{op:?} retires exactly once per op");
            assert!(scans > 0, "{op:?} must reach the reclaim path");
            assert!(
                scans * 4 < retires,
                "{op:?}: scans ({scans}) must be much rarer than retires ({retires})"
            );
        }
    }

    #[test]
    fn pointer_chases_are_labeled() {
        let mut out = vec![];
        DstructOp::HmLookup.emit(&mut out, &mut SplitMix64::new(3));
        assert!(
            out.iter()
                .any(|s| matches!(s, Segment::Labeled("chase", _))),
            "traversal loads must join profiles on the chase label"
        );
    }

    #[test]
    fn emission_is_seed_deterministic() {
        for op in OPS {
            let mut a = vec![];
            let mut b = vec![];
            op.emit(&mut a, &mut SplitMix64::new(5));
            op.emit(&mut b, &mut SplitMix64::new(5));
            assert_eq!(a.len(), b.len(), "{op:?}");
        }
    }

    #[test]
    fn all_six_sites_are_reachable() {
        let mut seen = std::collections::HashSet::new();
        for op in OPS {
            for seed in 0..32 {
                seen.extend(sites_of(op, seed));
            }
        }
        for s in DSite::ALL {
            assert!(seen.contains(&s), "{s:?} unused by any operation");
        }
    }
}
