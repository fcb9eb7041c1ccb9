//! Stitched multi-operation hot paths for whole-program synthesis.
//!
//! [`crate::ops`] emits single operations as priced segment streams for
//! the simulator; [`crate::retire`] distils the reclamation race into a
//! 2x2 litmus shape. This module sits between the two: each *stitched
//! program* concatenates several operations of one data structure into
//! per-thread instruction streams over shared locations — push **and**
//! pop on the Treiber stack, insert **and** delete **and** search on the
//! Harris-Michael list — so the static analysis sees the races between
//! operations that per-shape synthesis never composes:
//!
//! * the **publication race** (message-passing shape): initialise a node,
//!   publish it with a CAS; a concurrent traversal reads the pointer and
//!   dereferences the node;
//! * the **reclamation race** (store-buffering shape): a reader publishes
//!   a hazard pointer and dereferences; the reclaimer poisons the node
//!   and scans hazards — [`crate::retire::use_after_retire`] embedded in
//!   full operation context.
//!
//! The threads share locations (top-of-stack, list head, node payloads),
//! so the stitched program is a single conflict component — the
//! whole-program analysis cannot split it and must handle the composed
//! cycle set, which is exactly what makes these programs a stress input
//! for the tiered solver. Each program also knows where its reclamation
//! race lives ([`StitchedProgram::hazard_race_reinforcement`]), so a
//! synthesized placement can be replayed onto the use-after-retire litmus
//! and validated dynamically by the explorer.

use wmm_analyze::{Instrument, ProgramGraph, StreamDep};
use wmm_litmus::ops::{DepKind, FClass};
use wmm_litmus::rewrite::Reinforce;
use wmm_sim::isa::{AccessOrd, Instr, Loc};

/// Where a stitched program's reclamation (hazard) race lives: one
/// store→load window per side, mapped onto one thread of the
/// use-after-retire litmus.
#[derive(Debug, Clone, Copy)]
pub struct HazardWindow {
    /// Stream thread carrying the window.
    pub thread: usize,
    /// Access position of the hazard-publish (or node-poison) store.
    pub store_pos: usize,
    /// Access position of the validating deref (or hazard-scan load).
    pub load_pos: usize,
    /// The use-after-retire thread this window corresponds to.
    pub litmus_thread: usize,
}

/// A stitched multi-operation program plus its race geometry.
#[derive(Debug, Clone)]
pub struct StitchedProgram {
    /// Program name (also the [`ProgramGraph`] name).
    pub name: &'static str,
    /// Per-thread instruction streams (accesses only — synthesis adds
    /// the fences).
    pub threads: Vec<Vec<Instr>>,
    /// Pointer-chase dependencies the idiom establishes.
    pub deps: Vec<StreamDep>,
    /// The two sides of the embedded reclamation race.
    pub hazard_windows: [HazardWindow; 2],
}

fn load(loc: u64) -> Instr {
    Instr::Load {
        loc: Loc::SharedRw(loc),
        ord: AccessOrd::Plain,
    }
}

fn store(loc: u64) -> Instr {
    Instr::Store {
        loc: Loc::SharedRw(loc),
        ord: AccessOrd::Plain,
    }
}

fn cas(loc: u64) -> Instr {
    Instr::Cas {
        loc: Loc::SharedRw(loc),
        success_prob: 1.0,
    }
}

fn addr(thread: usize, from: usize, to: usize) -> StreamDep {
    StreamDep {
        thread,
        from,
        to,
        kind: DepKind::Addr,
    }
}

/// Shared lines of the stitched programs (same address space as
/// [`crate::ops`]'s segment lines).
mod lines {
    /// Treiber top-of-stack pointer.
    pub(crate) const TOP: u64 = 0x70_0000;
    /// Harris-Michael list head.
    pub(crate) const HEAD: u64 = 0x11_0000;
    /// Payload/next word of an established node.
    pub(crate) const NODE_A: u64 = 0x20DE;
    /// Payload/next word of a second (freshly pushed / being reclaimed)
    /// node.
    pub(crate) const NODE_B: u64 = 0x20DF;
    /// Hazard-pointer slot.
    pub(crate) const HAZARD: u64 = 0x4A5A;
}

/// Treiber stack, push + pop stitched.
///
/// Thread 0 pushes node A (initialise, CAS the top) and begins a pop
/// (publish a hazard for the observed top, dereference it). Thread 1 runs
/// the competing pop: read the top, dereference node A through it, unlink
/// with a CAS, poison node B's payload for reuse and scan hazards before
/// freeing. Bare, both the publication race (`NODE_A`/`TOP`) and the
/// reclamation race (`HAZARD`/`NODE_B`) are open on every model weaker
/// than SC.
#[must_use]
pub(crate) fn stitched_treiber() -> StitchedProgram {
    use lines::{HAZARD, NODE_A, NODE_B, TOP};
    StitchedProgram {
        name: "treiber-push-pop",
        threads: vec![
            vec![
                store(NODE_A), // 0: init payload of A
                cas(TOP),      // 1: push A (publish)
                store(HAZARD), // 2: pop: announce hazard for candidate
                load(TOP),     // 3: pop: re-read top (validate)
                load(NODE_B),  // 4: pop: deref candidate B
            ],
            vec![
                load(TOP),     // 0: pop: read top
                load(NODE_A),  // 1: deref A (publication consumer)
                cas(TOP),      // 2: unlink
                store(NODE_B), // 3: poison B for reuse (retire)
                load(HAZARD),  // 4: scan hazards before free
            ],
        ],
        deps: vec![addr(0, 3, 4), addr(1, 0, 1)],
        hazard_windows: [
            HazardWindow {
                thread: 0,
                store_pos: 2,
                load_pos: 4,
                litmus_thread: 0,
            },
            HazardWindow {
                thread: 1,
                store_pos: 3,
                load_pos: 4,
                litmus_thread: 1,
            },
        ],
    }
}

/// Harris-Michael list, insert + delete + search stitched.
///
/// Thread 0 inserts node B after A (traverse, initialise, CAS the link);
/// thread 1 deletes A (mark via CAS, unlink the head, poison the node,
/// scan hazards); thread 2 searches (publish a hazard, validate from the
/// head, dereference A then continue to B — the consumer of both the
/// insert's publication and the delete's poison).
#[must_use]
pub(crate) fn stitched_harris_michael() -> StitchedProgram {
    use lines::{HAZARD, HEAD, NODE_A, NODE_B};
    StitchedProgram {
        name: "hm-insert-delete-search",
        threads: vec![
            vec![
                load(HEAD),    // 0: traverse from head
                load(NODE_A),  // 1: read A.next
                store(NODE_B), // 2: init new node B
                cas(NODE_A),   // 3: link B after A
            ],
            vec![
                load(HEAD),    // 0: traverse
                cas(NODE_A),   // 1: logical delete (mark A)
                cas(HEAD),     // 2: physical unlink
                store(NODE_A), // 3: poison A (retire)
                load(HAZARD),  // 4: scan hazards before free
            ],
            vec![
                store(HAZARD), // 0: protect candidate
                load(HEAD),    // 1: validate from head
                load(NODE_A),  // 2: deref A
                load(NODE_B),  // 3: continue to B (publication consumer)
            ],
        ],
        deps: vec![addr(0, 0, 1), addr(1, 0, 1), addr(2, 1, 2)],
        hazard_windows: [
            HazardWindow {
                thread: 2,
                store_pos: 0,
                load_pos: 2,
                litmus_thread: 0,
            },
            HazardWindow {
                thread: 1,
                store_pos: 3,
                load_pos: 4,
                litmus_thread: 1,
            },
        ],
    }
}

impl StitchedProgram {
    /// The program graph the whole-program analysis runs on.
    #[must_use]
    pub fn graph(&self) -> ProgramGraph {
        ProgramGraph::from_streams(self.name, &self.threads, &self.deps)
    }

    /// Both stitched programs, in manifest order.
    #[must_use]
    pub fn all() -> Vec<StitchedProgram> {
        vec![stitched_treiber(), stitched_harris_michael()]
    }

    /// Replay the part of a synthesized placement that falls inside the
    /// reclamation-race windows onto [`crate::retire::use_after_retire`]:
    /// fences between a window's store and load map to a fence between
    /// the corresponding litmus accesses, release/acquire upgrades on the
    /// window endpoints carry over. The reinforced litmus must then make
    /// the weak outcome unreachable — the dynamic half of validating the
    /// placement.
    #[must_use]
    pub fn hazard_race_reinforcement(&self, instruments: &[Instrument]) -> Vec<Reinforce> {
        let mut out: Vec<Reinforce> = vec![];
        let mut push = |r: Reinforce| {
            if !out.contains(&r) {
                out.push(r);
            }
        };
        for w in &self.hazard_windows {
            for ins in instruments {
                match *ins {
                    Instrument::Fence { thread, slot, kind }
                        if thread == w.thread && slot > w.store_pos && slot <= w.load_pos =>
                    {
                        if let Some(class) = FClass::of_fence(kind) {
                            push(Reinforce::Fence {
                                thread: w.litmus_thread,
                                before: 1,
                                class,
                            });
                        }
                    }
                    Instrument::Release { thread, pos }
                        if thread == w.thread && pos == w.store_pos =>
                    {
                        push(Reinforce::Release {
                            thread: w.litmus_thread,
                            pos: 0,
                        });
                    }
                    Instrument::Acquire { thread, pos }
                        if thread == w.thread && pos == w.load_pos =>
                    {
                        push(Reinforce::Acquire {
                            thread: w.litmus_thread,
                            pos: 1,
                        });
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retire::use_after_retire;
    use wmm_analyze::{analyze, apply_to_graph, synthesize, CostModel, SynthConfig};
    use wmm_litmus::explore::explore;
    use wmm_litmus::ops::ModelKind;

    #[test]
    fn stitched_programs_are_bare_open_single_components() {
        for prog in StitchedProgram::all() {
            let g = prog.graph();
            assert!(
                !analyze(&g, ModelKind::ArmV8).protected(),
                "{} should be open bare",
                prog.name
            );
            assert_eq!(
                wmm_analyze::wps::conflict_components(&g).len(),
                1,
                "{} threads share locations",
                prog.name
            );
        }
    }

    #[test]
    fn synthesized_placement_closes_the_hazard_race_dynamically() {
        let costs = CostModel::static_table();
        for prog in StitchedProgram::all() {
            let g = prog.graph();
            let cfg = SynthConfig::fences_only(ModelKind::ArmV8);
            let placement = synthesize(&g, cfg, &costs).expect("stitched programs are fenceable");
            assert!(analyze(
                &apply_to_graph(&g, &placement.instruments),
                ModelKind::ArmV8
            )
            .protected());
            let items = prog.hazard_race_reinforcement(&placement.instruments);
            // Both sides of the race must have been fenced.
            for lt in [0, 1] {
                assert!(
                    items.iter().any(|r| matches!(
                        r,
                        Reinforce::Fence { thread, .. } if *thread == lt
                    )),
                    "{}: no fence mapped onto litmus thread {lt}: {items:?}",
                    prog.name
                );
            }
            let reinforced = use_after_retire().reinforced(&items);
            let weak = explore(&reinforced, ModelKind::ArmV8)
                .allows_with_memory(&reinforced.interesting, &reinforced.memory);
            assert!(!weak, "{}: reclamation race still reachable", prog.name);
        }
    }
}
