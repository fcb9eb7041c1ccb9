//! Shasha–Snir critical-cycle enumeration.
//!
//! A critical cycle alternates program-order *legs* (at most two accesses
//! per thread, the leg's entry program-before its exit, at different
//! locations) with *communication* edges between conflicting accesses of
//! different threads: write-to-read (`rf`), read-to-write (`fr`) and
//! write-to-write (`co`). Every sequentially inconsistent execution
//! contains one (Shasha & Snir 1988), so a program whose every critical
//! cycle is cut by sufficient fences/dependencies is SC — the property
//! "Don't sit on the fence" (Alglave et al.) checks statically and this
//! module's caller checks per memory model.
//!
//! The enumeration is a depth-first search over leg sequences. It starts
//! each sequence at an access of the cycle's lowest thread and extends it
//! only into higher threads not yet on the path, so every rotation class
//! is found once. A leg's exits are read from its thread's own access
//! list (program-later accesses only), and the communication edges out of
//! an exit from an index of each location's shared accesses, built once
//! per graph, so no step scans the whole graph. The threads on the path
//! are marked in a flag per thread: any thread count works. Each
//! *orientation* of the communication edges is a distinct cycle (a
//! distinct weak-execution scenario).

use crate::graph::{Access, ProgramGraph};

/// Communication edge kinds between conflicting accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommKind {
    /// Write to read (reads-from): the read observes the write.
    Rf,
    /// Read to write (from-read): the read observed a coherence-earlier
    /// write, so the write reaches the reader's thread only later.
    Fr,
    /// Write to write (coherence): the first write is coherence-earlier.
    Co,
}

impl CommKind {
    /// Stable small-integer rank, used by canonical cycle keys.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            CommKind::Rf => 0,
            CommKind::Fr => 1,
            CommKind::Co => 2,
        }
    }

    /// Short arrow label.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            CommKind::Rf => "rf",
            CommKind::Fr => "fr",
            CommKind::Co => "co",
        }
    }

    /// All communication kinds possible from `u` to `v`. Pure pairs admit
    /// one kind; RMW endpoints admit several (each a distinct scenario).
    #[must_use]
    pub fn between(u: &Access, v: &Access) -> Vec<CommKind> {
        if u.thread == v.thread || u.loc != v.loc || !u.shared || !v.shared {
            return vec![];
        }
        [CommKind::Rf, CommKind::Fr, CommKind::Co]
            .into_iter()
            .filter(|k| k.joins(u, v))
            .collect()
    }

    /// Do the roles of `u` and `v` admit an edge of this kind from `u` to
    /// `v` (given a conflicting pair: shared, same location, different
    /// threads)?
    fn joins(self, u: &Access, v: &Access) -> bool {
        match self {
            CommKind::Rf => u.is_store && v.is_load,
            CommKind::Fr => u.is_load && v.is_store,
            CommKind::Co => u.is_store && v.is_store,
        }
    }
}

/// One critical cycle: per-thread legs `(entry, exit)` (access ids;
/// `entry == exit` for single-access legs) and the communication edge
/// leaving each leg's exit into the next leg's entry.
#[derive(Debug, Clone)]
pub struct CriticalCycle {
    /// Legs in cycle order; threads are pairwise distinct.
    pub legs: Vec<(usize, usize)>,
    /// `comms[i]` connects `legs[i].1` to `legs[(i+1) % n].0`.
    pub comms: Vec<CommKind>,
}

impl CriticalCycle {
    /// Canonical rotation key: the lexicographically smallest rotation of
    /// the paired `(entry, exit, comm)` sequence. Two cycles are the same
    /// scenario iff their keys are equal, regardless of which leg the
    /// enumeration happened to start from.
    #[must_use]
    pub(crate) fn canonical_key(&self) -> Vec<(usize, usize, u8)> {
        let n = self.legs.len();
        let r = self.canonical_start();
        (0..n)
            .map(|i| {
                let j = (r + i) % n;
                (self.legs[j].0, self.legs[j].1, self.comms[j].rank())
            })
            .collect()
    }

    /// Rotate the cycle in place onto its canonical rotation (the one whose
    /// `(entry, exit, comm)` sequence is lexicographically smallest).
    pub(crate) fn canonicalize(&mut self) {
        let r = self.canonical_start();
        self.legs.rotate_left(r);
        self.comms.rotate_left(r);
    }

    /// Where the canonical rotation starts: at the smallest entry. Leg
    /// threads are pairwise distinct, so entries are distinct accesses, and
    /// the rotations' sequences already differ in their first entry — the
    /// smallest one is the lexicographic minimum.
    fn canonical_start(&self) -> usize {
        (0..self.legs.len())
            .min_by_key(|&i| self.legs[i].0)
            .unwrap_or(0)
    }

    /// Human-readable rendering, e.g.
    /// `t0:Wx ->po t0:Wy ->rf t1:Ry ->po t1:Rx ->fr t0:Wx`.
    #[must_use]
    pub(crate) fn describe(&self, g: &ProgramGraph) -> String {
        let mut parts = vec![];
        for (i, &(entry, exit)) in self.legs.iter().enumerate() {
            parts.push(g.describe(entry));
            if entry != exit {
                parts.push("->po".into());
                parts.push(g.describe(exit));
            }
            parts.push(format!("->{}", self.comms[i].label()));
        }
        parts.push(g.describe(self.legs[0].0));
        parts.join(" ")
    }
}

/// Enumerate every critical cycle of `g`, once per rotation class (the
/// leg sequence starts at the cycle's lowest-numbered thread), each in
/// its canonical rotation.
#[must_use]
pub fn critical_cycles(g: &ProgramGraph) -> Vec<CriticalCycle> {
    let mut out = vec![];
    if g.threads.len() < 2 {
        return out;
    }
    let by_loc = shared_by_loc(g);
    let mut dfs = Dfs {
        g,
        by_loc: &by_loc,
        e0: 0,
        t0: 0,
        legs: vec![],
        comms: vec![],
        used: vec![false; g.threads.len()],
        out: &mut out,
    };
    for t0 in 0..g.threads.len() {
        dfs.t0 = t0;
        for &e0 in &g.threads[t0] {
            dfs.e0 = e0;
            dfs.extend(e0);
        }
    }
    // Each rotation class is emitted once: every emitted sequence starts
    // on its lowest thread, and distinct DFS paths give distinct
    // sequences. So canonicalizing is all `dedup_cycles` would do here.
    for cyc in &mut out {
        cyc.canonicalize();
    }
    out
}

/// Canonicalize every cycle onto its minimal rotation and drop
/// rotation-equivalent duplicates, preserving first-occurrence order.
///
/// The DFS in [`critical_cycles`] only ever extends to higher-numbered
/// threads, so it emits each rotation class once — but merged cycle sets
/// (per-component enumeration remapped into a parent graph, or graphs with
/// parallel communication edges folded from several sources) can carry the
/// same cycle under different rotations. This pass makes dedup exact.
#[must_use]
pub(crate) fn dedup_cycles(cycles: Vec<CriticalCycle>) -> Vec<CriticalCycle> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(cycles.len());
    for mut cyc in cycles {
        cyc.canonicalize();
        if seen.insert(cyc.canonical_key()) {
            out.push(cyc);
        }
    }
    out
}

/// The shared accesses of each location, in access-id order: the only
/// accesses a communication edge can reach.
fn shared_by_loc(g: &ProgramGraph) -> Vec<Vec<usize>> {
    let mut by_loc = vec![vec![]; g.loc_names.len()];
    for (id, a) in g.accesses.iter().enumerate() {
        if a.shared {
            by_loc[a.loc].push(id);
        }
    }
    by_loc
}

/// The depth-first search over leg sequences that start at access `e0` of
/// thread `t0` and visit only higher-numbered threads, each at most once.
struct Dfs<'a> {
    g: &'a ProgramGraph,
    by_loc: &'a [Vec<usize>],
    e0: usize,
    t0: usize,
    legs: Vec<(usize, usize)>,
    comms: Vec<CommKind>,
    /// Threads on the current path (`t0` is never marked: the path can
    /// only return to it by closing at `e0`).
    used: Vec<bool>,
    out: &'a mut Vec<CriticalCycle>,
}

impl Dfs<'_> {
    /// Extend the path with every leg entered at `entry`: its exit is the
    /// entry itself or a program-later access of the thread at another
    /// location; every communication edge out of the exit then closes the
    /// cycle at `e0` or enters an unvisited higher thread.
    fn extend(&mut self, entry: usize) {
        let (g, by_loc) = (self.g, self.by_loc);
        let e = &g.accesses[entry];
        for &exit in &g.threads[e.thread][e.pos..] {
            let x = &g.accesses[exit];
            if (exit != entry && x.loc == e.loc) || !x.shared {
                continue;
            }
            self.legs.push((entry, exit));
            for &v in &by_loc[x.loc] {
                let va = &g.accesses[v];
                if va.thread == x.thread {
                    continue;
                }
                for kind in [CommKind::Rf, CommKind::Fr, CommKind::Co] {
                    if kind.joins(x, va) {
                        self.follow(v, kind);
                    }
                }
            }
            self.legs.pop();
        }
    }

    /// Take the communication edge of `kind` into access `v`.
    fn follow(&mut self, v: usize, kind: CommKind) {
        let vt = self.g.accesses[v].thread;
        if v == self.e0 {
            self.comms.push(kind);
            if self.legs.len() >= 2 && !degenerate(&self.legs) {
                self.out.push(CriticalCycle {
                    legs: self.legs.clone(),
                    comms: self.comms.clone(),
                });
            }
            self.comms.pop();
        } else if vt > self.t0 && !self.used[vt] {
            self.comms.push(kind);
            self.used[vt] = true;
            self.extend(v);
            self.used[vt] = false;
            self.comms.pop();
        }
    }
}

/// A two-leg cycle whose legs are both single accesses runs both its
/// communication edges between the same pair — contradictory by
/// construction (e.g. `rf` one way and `fr` back), never a real scenario.
fn degenerate(legs: &[(usize, usize)]) -> bool {
    legs.len() == 2 && legs[0].0 == legs[0].1 && legs[1].0 == legs[1].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProgramGraph;
    use wmm_litmus::suite;

    fn cycles_of(entry: &suite::SuiteEntry) -> (ProgramGraph, Vec<CriticalCycle>) {
        let g = ProgramGraph::from_litmus(&entry.test);
        let c = critical_cycles(&g);
        (g, c)
    }

    #[test]
    fn sb_has_exactly_one_cycle() {
        let (g, c) = cycles_of(&suite::store_buffering());
        assert_eq!(
            c.len(),
            1,
            "{:?}",
            c.iter().map(|x| x.describe(&g)).collect::<Vec<_>>()
        );
        let d = c[0].describe(&g);
        assert!(d.contains("->fr"), "{d}");
        assert!(!d.contains("->rf"), "{d}");
    }

    #[test]
    fn mp_has_exactly_one_cycle() {
        let (g, c) = cycles_of(&suite::message_passing());
        assert_eq!(c.len(), 1);
        let d = c[0].describe(&g);
        assert!(d.contains("->rf") && d.contains("->fr"), "{d}");
    }

    #[test]
    fn corr_and_coww_have_no_critical_cycles() {
        // Same-location legs are uniproc territory: coherence handles them,
        // no fence is ever needed, so no critical cycle exists.
        let (_, c) = cycles_of(&suite::corr());
        assert!(c.is_empty(), "{}", c.len());
        let (_, c) = cycles_of(&suite::coww());
        assert!(c.is_empty());
    }

    #[test]
    fn iriw_cycle_spans_four_threads() {
        let (_, c) = cycles_of(&suite::iriw_addrs());
        assert!(!c.is_empty());
        assert!(c.iter().any(|cy| cy.legs.len() == 4));
        // Rotation dedup: every cycle starts at its lowest thread.
        for cy in &c {
            let (g, _) = cycles_of(&suite::iriw_addrs());
            let t0 = g.accesses[cy.legs[0].0].thread;
            assert!(cy.legs.iter().all(|&(e, _)| g.accesses[e].thread >= t0));
        }
    }

    #[test]
    fn fenced_variants_have_same_cycles_as_bare() {
        // Fences sit between accesses; they do not change the cycle set,
        // only whether cycles are protected.
        let (_, bare) = cycles_of(&suite::store_buffering());
        let (_, fenced) = cycles_of(&suite::sb_fences());
        assert_eq!(bare.len(), fenced.len());
    }

    use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};

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

    #[test]
    fn single_thread_program_has_no_cycles() {
        // A critical cycle needs at least two threads; a single-thread
        // program short-circuits before any DFS.
        let g = ProgramGraph::from_streams("solo", &[vec![store(0), load(1), store(1)]], &[]);
        assert!(critical_cycles(&g).is_empty());
    }

    #[test]
    fn empty_and_fence_only_streams_have_no_cycles() {
        let g = ProgramGraph::from_streams("empty", &[vec![], vec![]], &[]);
        assert!(critical_cycles(&g).is_empty());

        let g = ProgramGraph::from_streams(
            "fences-only",
            &[
                vec![Instr::Fence(FenceKind::DmbIsh)],
                vec![
                    Instr::Fence(FenceKind::HwSync),
                    Instr::Fence(FenceKind::LwSync),
                ],
            ],
            &[],
        );
        assert!(g.accesses.is_empty());
        assert!(critical_cycles(&g).is_empty());
    }

    #[test]
    fn same_location_pair_in_one_thread_cannot_form_a_leg() {
        // t0: Wx; Wx; Wy   t1: Ry; Rx — the doubled store never pairs with
        // itself (a leg's exit must sit at a different location), but each
        // copy independently anchors cycles through the (Wx, Wy) leg.
        let g = ProgramGraph::from_streams(
            "dup",
            &[vec![store(0), store(0), store(1)], vec![load(1), load(0)]],
            &[],
        );
        let cycles = critical_cycles(&g);
        assert!(!cycles.is_empty());
        for cyc in &cycles {
            for &(entry, exit) in &cyc.legs {
                if entry != exit {
                    assert_ne!(
                        g.accesses[entry].loc,
                        g.accesses[exit].loc,
                        "multi-access leg endpoints must differ in location: {}",
                        cyc.describe(&g)
                    );
                }
            }
        }
        // Both Wx copies (access ids 0 and 1) appear as cycle entries.
        for wx in [0, 1] {
            assert!(
                cycles.iter().any(|c| c.legs.iter().any(|&(e, _)| e == wx)),
                "store copy {wx} should anchor a cycle"
            );
        }
    }

    fn cas(loc: u64) -> Instr {
        Instr::Cas {
            loc: Loc::SharedRw(loc),
            success_prob: 1.0,
        }
    }

    #[test]
    fn parallel_edge_graph_enumerates_each_rotation_class_once() {
        // Two RMWs on the same location admit parallel communication edges
        // (rf, fr and co between the same access pair, each a distinct
        // scenario). Canonical keys must stay pairwise distinct: the same
        // scenario must never appear under two rotations.
        let g = ProgramGraph::from_streams(
            "rmw-parallel",
            &[vec![cas(0), store(1)], vec![load(1), cas(0)]],
            &[],
        );
        let cycles = critical_cycles(&g);
        assert!(!cycles.is_empty());
        let keys: Vec<_> = cycles.iter().map(CriticalCycle::canonical_key).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(
            keys.len(),
            deduped.len(),
            "rotation-equivalent duplicates survived: {:?}",
            cycles.iter().map(|c| c.describe(&g)).collect::<Vec<_>>()
        );
        // Every emitted cycle is already in canonical rotation.
        for cyc in &cycles {
            let mut canon = cyc.clone();
            canon.canonicalize();
            assert_eq!(cyc.legs, canon.legs);
            assert_eq!(cyc.comms, canon.comms);
        }
    }

    #[test]
    fn dedup_cycles_collapses_hand_rotated_duplicates() {
        let (_, cycles) = cycles_of(&suite::message_passing());
        let cyc = cycles[0].clone();
        let mut rotated = cyc.clone();
        rotated.legs.rotate_left(1);
        rotated.comms.rotate_left(1);
        assert_ne!(rotated.legs, cyc.legs);
        assert_eq!(rotated.canonical_key(), cyc.canonical_key());
        let merged = dedup_cycles(vec![cyc.clone(), rotated]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].legs, cyc.legs);
    }

    #[test]
    fn threads_numbered_past_63_still_form_cycles() {
        // SB between threads 1 and 65 of a 66-thread program. A 64-bit
        // mask of visited threads cannot name thread 65: its shift wraps
        // onto thread 1's bit (release) or overflows (debug).
        let mut streams: Vec<Vec<Instr>> = vec![vec![]; 66];
        streams[1] = vec![store(0), load(1)];
        streams[65] = vec![store(1), load(0)];
        let g = ProgramGraph::from_streams("sb-1-65", &streams, &[]);
        assert_eq!(critical_cycles(&g).len(), 1);
        assert!(!crate::report::analyze(&g, wmm_litmus::ops::ModelKind::ArmV8).protected());
    }

    /// The canonical key by its definition: the lexicographically
    /// smallest rotation, found by comparing them all.
    fn lexmin_key(cyc: &CriticalCycle) -> Vec<(usize, usize, u8)> {
        let n = cyc.legs.len();
        let rotation = |r: usize| -> Vec<(usize, usize, u8)> {
            (0..n)
                .map(|i| {
                    let j = (r + i) % n;
                    (cyc.legs[j].0, cyc.legs[j].1, cyc.comms[j].rank())
                })
                .collect()
        };
        (0..n).map(rotation).min().unwrap_or_default()
    }

    /// A program of `threads` streams of `(role, loc)` accesses: role 0 a
    /// load, 1 a store, 2 an RMW.
    fn program(threads: &[Vec<(u8, u8)>]) -> ProgramGraph {
        let streams: Vec<Vec<Instr>> = threads
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|&(role, loc)| match role {
                        0 => load(u64::from(loc)),
                        1 => store(u64::from(loc)),
                        _ => cas(u64::from(loc)),
                    })
                    .collect()
            })
            .collect();
        ProgramGraph::from_streams("prop", &streams, &[])
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Starting the rotation at the smallest entry gives the
        /// lexicographic minimum, from whichever leg a cycle starts.
        #[test]
        fn canonical_rotation_is_the_lexicographic_minimum(
            threads in prop::collection::vec(
                prop::collection::vec((0u8..3, 0u8..3), 0..4),
                2..5,
            ),
            turn in 0usize..8,
        ) {
            let g = program(&threads);
            for cyc in critical_cycles(&g) {
                let mut rotated = cyc.clone();
                rotated.legs.rotate_left(turn % cyc.legs.len());
                rotated.comms.rotate_left(turn % cyc.legs.len());
                prop_assert_eq!(rotated.canonical_key(), lexmin_key(&cyc));
                rotated.canonicalize();
                prop_assert_eq!(&rotated.legs, &cyc.legs);
                prop_assert_eq!(&rotated.comms, &cyc.comms);
            }
        }

        #[test]
        fn every_enumerated_cycle_is_structurally_critical(
            threads in prop::collection::vec(
                prop::collection::vec((0u8..2, 0u8..3), 0..5),
                1..4,
            )
        ) {
            let g = program(&threads);
            for cyc in critical_cycles(&g) {
                prop_assert!(cyc.legs.len() >= 2);
                prop_assert_eq!(cyc.legs.len(), cyc.comms.len());

                // Threads alternate: pairwise distinct, rotation starting
                // at the lowest-numbered thread.
                let ts: Vec<usize> =
                    cyc.legs.iter().map(|&(e, _)| g.accesses[e].thread).collect();
                prop_assert_eq!(ts[0], *ts.iter().min().expect("nonempty"));
                let mut sorted = ts.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), ts.len());

                for (i, &(entry, exit)) in cyc.legs.iter().enumerate() {
                    let (ea, xa) = (&g.accesses[entry], &g.accesses[exit]);
                    // Per-thread po-adjacent endpoints: same thread, entry
                    // program-before (or equal to) exit, and a genuine leg
                    // spans two locations.
                    prop_assert_eq!(ea.thread, xa.thread);
                    prop_assert!(ea.pos <= xa.pos);
                    if entry != exit {
                        prop_assert!(ea.loc != xa.loc);
                    }
                    // The communication edge into the next leg must be a
                    // valid conflict of the recorded kind.
                    let next = &g.accesses[cyc.legs[(i + 1) % cyc.legs.len()].0];
                    prop_assert!(CommKind::between(xa, next).contains(&cyc.comms[i]));
                }

                // The degenerate two-single-access shape is filtered.
                prop_assert!(!(cyc.legs.len() == 2
                    && cyc.legs[0].0 == cyc.legs[0].1
                    && cyc.legs[1].0 == cyc.legs[1].1));
            }
        }
    }
}
