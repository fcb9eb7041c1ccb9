//! The per-model protection check for one critical cycle.
//!
//! A cycle describes a weak-execution *scenario*: a claimed orientation of
//! communication edges. The check builds a constraint graph over the
//! events the operational explorer manipulates and asks whether the
//! scenario's necessary orderings are contradictory:
//!
//! * `exec(a)` — the commit of access `a` (execution order; coherence
//!   order for stores, exactly as in `wmm_litmus::explore`);
//! * `prop(W, t)` — the propagation of store `W` to thread `t` (non-MCA
//!   models only; on multi-copy-atomic models `prop ≡ exec`).
//!
//! Constraint edges are the *necessary* consequences of the scenario plus
//! whatever ordering mechanisms the program supplies. If the constraint
//! graph has a directed cycle, the scenario is impossible — the critical
//! cycle is **protected**. Otherwise it is reported unprotected: for this
//! explorer's models the constraints are tight enough that unprotected
//! cycles are dynamically observable (the differential test in
//! `tests/differential.rs` holds this over the whole litmus suite).
//!
//! Mechanism strengths mirror the explorer's semantics:
//!
//! * **Local** (orders `exec(a) < exec(b)`): model-implied order (SC: all
//!   pairs; TSO: all but store→load; ARM/POWER: same location), an
//!   address/data/control dependency that covers the pair, acquire on
//!   `a`, release on `b`, a covering fence marker, and — `ARMv8` only — the
//!   `RCsc` `stlr; ldar` pair.
//! * **Cumulative** (POWER `lwsync`/`sync` before a store, or a release
//!   store): the store may propagate to a thread only after the stores
//!   its thread knew about have — `prop(s, u) < prop(b, u)`.
//! * **Global** (POWER `sync`): the fence waits until its group-A stores
//!   have propagated *everywhere* — `prop(s, u) < exec(b)`.

use std::cell::Cell;

use wmm_litmus::ops::{DepKind, FClass, ModelKind};

use crate::cycles::{CommKind, CriticalCycle};
use crate::graph::{Access, ProgramGraph};

/// Verdict for one cycle.
#[derive(Debug, Clone)]
pub struct CycleCheck {
    /// Whether the scenario is impossible under the model.
    pub protected: bool,
    /// Program-order pairs `(entry, exit)` with no local ordering
    /// mechanism — where a fence or dependency is missing.
    pub uncut: Vec<(usize, usize)>,
}

/// Ordering strength present between a program-order pair. Exposed to the
/// synthesis layer (`crate::synth`), which uses it both to decide which
/// candidate instruments strengthen a pair and to generate lazy
/// constraints when a trial placement fails verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PairCut {
    pub(crate) local: bool,
    pub(crate) cumulative: bool,
    pub(crate) global: bool,
}

impl PairCut {
    /// Does `self` carry any strength bit that `base` lacks?
    pub(crate) fn stronger_than(self, base: PairCut) -> bool {
        (self.local && !base.local)
            || (self.cumulative && !base.cumulative)
            || (self.global && !base.global)
    }
}

/// A hypothetical edit of one fence, for the lint probes: fence `fence`
/// (an index into [`ProgramGraph::fences`]) removed (`class: None`) or
/// re-classed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FenceEdit {
    pub(crate) fence: usize,
    pub(crate) class: Option<FClass>,
}

/// Everything [`PairCut`] depends on for one program-order pair: the two
/// accesses with their attributes, the pair's dependency, and what the
/// fences between them contribute. The synthesis layer overlays candidate
/// instruments on a view instead of building the instrumented graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairView {
    pub(crate) a: Access,
    pub(crate) b: Access,
    pub(crate) dep: Option<DepKind>,
    /// Some fence between the pair covers its role combination.
    fence_local: bool,
    /// Some fence between the pair is cumulative (`Full` or `LwSync`).
    fence_cumulative: bool,
    /// Some fence between the pair is `Full`.
    fence_global: bool,
}

impl PairView {
    /// The view of the pair `(a_id, b_id)` (same thread, `a` earlier) in
    /// `g`, with `probe` applied to the graph's fences.
    pub(crate) fn of(g: &ProgramGraph, a_id: usize, b_id: usize, probe: Option<FenceEdit>) -> Self {
        let (a, b) = (g.accesses[a_id], g.accesses[b_id]);
        debug_assert_eq!(a.thread, b.thread);
        debug_assert!(a.pos < b.pos);
        let mut view = PairView {
            a,
            b,
            dep: g.dep_between(a_id, b_id),
            fence_local: false,
            fence_cumulative: false,
            fence_global: false,
        };
        for (i, f) in g.fences.iter().enumerate() {
            if f.thread != a.thread || f.slot <= a.pos || f.slot > b.pos {
                continue;
            }
            match probe {
                Some(e) if e.fence == i => {
                    if let Some(class) = e.class {
                        view.add_fence(class);
                    }
                }
                _ => view.add_fence(f.class),
            }
        }
        view
    }

    /// Account for one more fence of `class` between the pair.
    pub(crate) fn add_fence(&mut self, class: FClass) {
        self.fence_local |= covers_pair(class, &self.a, &self.b);
        self.fence_cumulative |= matches!(class, FClass::Full | FClass::LwSync);
        self.fence_global |= class == FClass::Full;
    }

    /// The pair's ordering strength under `model`.
    pub(crate) fn cut(&self, model: ModelKind) -> PairCut {
        let (a, b) = (&self.a, &self.b);
        // ARMv8 is RCsc: an acquire load never overtakes an earlier release
        // store (`stlr; ldar` stay ordered) — what lets JDK9 drop the dmb
        // between a volatile store and a following volatile load.
        let rcsc = model == ModelKind::ArmV8 && a.is_store && a.release && b.is_load && b.acquire;
        let local = bare_ordered(model, a, b)
            || (a.is_load && a.acquire)
            || (b.is_store && b.release)
            || rcsc
            || self.dep.is_some_and(|k| k.orders(b.is_store))
            || self.fence_local;
        PairCut {
            local,
            cumulative: b.is_store && (b.release || self.fence_cumulative),
            global: self.fence_global,
        }
    }
}

/// Does `class` order every role combination of `a` before `b`?
fn covers_pair(class: FClass, a: &Access, b: &Access) -> bool {
    a.roles()
        .iter()
        .all(|&ra| b.roles().iter().all(|&rb| class.covers(ra, rb)))
}

/// Model-implied ("bare") per-thread ordering, mirroring
/// `LitmusTest::ordered`'s model arms.
fn bare_ordered(model: ModelKind, a: &Access, b: &Access) -> bool {
    match model {
        ModelKind::Sc => true,
        // TSO relaxes only pure-store → pure-load at different locations
        // (RMWs are locked operations: fully ordered).
        ModelKind::Tso => !(a.is_store && !a.is_load && b.is_load && !b.is_store && a.loc != b.loc),
        ModelKind::ArmV8 | ModelKind::Power => a.loc == b.loc,
    }
}

/// A directed graph on dense node ids as adjacency bit rows, with each
/// node's in-degree counted as edges are added (a repeated edge counts
/// once). Its buffers are reused from check to check on a thread.
#[derive(Default)]
struct BitGraph {
    /// Words per row.
    words: usize,
    /// Row `u` holds the successors of `u`.
    rows: Vec<u64>,
    indeg: Vec<u32>,
    queue: Vec<usize>,
}

thread_local! {
    static BIT_GRAPH: Cell<BitGraph> = Cell::new(BitGraph::default());
}

impl BitGraph {
    /// Clear to `n` nodes and no edges.
    fn reset(&mut self, n: usize) {
        self.words = n.div_ceil(64);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
        self.indeg.clear();
        self.indeg.resize(n, 0);
    }

    fn add(&mut self, u: usize, v: usize) {
        let word = &mut self.rows[u * self.words + v / 64];
        let bit = 1u64 << (v % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.indeg[v] += 1;
        }
    }

    /// Kahn's algorithm: does the graph contain a directed cycle?
    fn has_cycle(&mut self) -> bool {
        let n = self.indeg.len();
        self.queue.clear();
        self.queue.extend((0..n).filter(|&v| self.indeg[v] == 0));
        let mut removed = 0;
        while let Some(u) = self.queue.pop() {
            removed += 1;
            for w in 0..self.words {
                let mut bits = self.rows[u * self.words + w];
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.indeg[v] -= 1;
                    if self.indeg[v] == 0 {
                        self.queue.push(v);
                    }
                }
            }
        }
        removed < n
    }
}

/// Check one cycle under `model`.
#[must_use]
pub fn check_cycle(g: &ProgramGraph, model: ModelKind, cyc: &CriticalCycle) -> CycleCheck {
    check_cycle_edited(g, model, cyc, None)
}

/// Check one cycle with fence `skip_fence` (an index into
/// [`ProgramGraph::fences`]) treated as absent — the redundancy probe.
///
/// # Panics
///
/// Panics if `cyc` references access ids outside `g` — cycles must come
/// from [`critical_cycles`](crate::cycles::critical_cycles) on the same
/// graph.
#[must_use]
pub fn check_cycle_without(
    g: &ProgramGraph,
    model: ModelKind,
    cyc: &CriticalCycle,
    skip_fence: Option<usize>,
) -> CycleCheck {
    let probe = skip_fence.map(|fence| FenceEdit { fence, class: None });
    check_cycle_edited(g, model, cyc, probe)
}

/// Check one cycle with `probe` applied to the graph's fences (the
/// redundancy and downgrade probes).
pub(crate) fn check_cycle_edited(
    g: &ProgramGraph,
    model: ModelKind,
    cyc: &CriticalCycle,
    probe: Option<FenceEdit>,
) -> CycleCheck {
    check_cycle_cut(g, model, cyc, |a, b| {
        PairView::of(g, a, b, probe).cut(model)
    })
}

/// Check one cycle given `cut(entry, exit)`, the cut under `model` of each
/// of its program-order legs: build the constraint graph over `exec`/`prop`
/// events and look for a directed cycle. The cuts may come from an
/// instrumented copy of `g`: instruments change no access's thread or
/// roles, which is all this reads from `g`.
///
/// Nodes are numbered from leg coordinates. End `at` of the cycle is
/// `2i` for the entry of leg `i` and `2i + 1` for its exit (`2i` again
/// when the leg is a single access); `exec` of an end is node `at`. On a
/// non-MCA model, `prop` of the store at end `at` to the thread of leg
/// `to` is node `2n + at·n + to` (`exec` itself when `to` is the store's
/// own leg). Numbers of non-stores and unused exits stay isolated nodes.
pub(crate) fn check_cycle_cut(
    g: &ProgramGraph,
    model: ModelKind,
    cyc: &CriticalCycle,
    mut cut: impl FnMut(usize, usize) -> PairCut,
) -> CycleCheck {
    let n = cyc.legs.len();
    let mca = model.multi_copy_atomic();
    let multi = |leg: usize| cyc.legs[leg].0 != cyc.legs[leg].1;
    let end = |leg: usize, exit: bool| 2 * leg + usize::from(exit && multi(leg));
    let is_store = |at: usize| {
        let (entry, exit) = cyc.legs[at / 2];
        g.accesses[if at.is_multiple_of(2) { entry } else { exit }].is_store
    };
    let prop = |at: usize, to: usize| {
        if mca || at / 2 == to {
            at
        } else {
            2 * n + at * n + to
        }
    };

    let mut graph = BIT_GRAPH.take();
    graph.reset(if mca { 2 * n } else { 2 * n + 2 * n * n });
    if !mca {
        // A store is visible to a remote thread only after it commits.
        for at in 0..2 * n {
            if (at.is_multiple_of(2) || multi(at / 2)) && is_store(at) {
                for to in (0..n).filter(|&to| to != at / 2) {
                    graph.add(at, prop(at, to));
                }
            }
        }
    }

    let mut uncut = vec![];
    for leg in 0..n {
        let (entry, exit) = cyc.legs[leg];
        let exit_at = end(leg, true);
        // Program-order leg.
        if multi(leg) {
            let pair = cut(entry, exit);
            if pair.local {
                graph.add(end(leg, false), exit_at);
            } else {
                uncut.push((entry, exit));
            }
            if !mca {
                // The store whose visibility the entry's thread "knows":
                // the entry itself, or the store a load entry reads in this
                // scenario (its incoming rf edge's source).
                let known = if is_store(end(leg, false)) {
                    end(leg, false)
                } else {
                    end((leg + n - 1) % n, true)
                };
                if pair.cumulative {
                    for to in 0..n {
                        graph.add(prop(known, to), prop(exit_at, to));
                    }
                }
                if pair.global {
                    for to in 0..n {
                        graph.add(prop(known, to), exit_at);
                    }
                }
            }
        }
        // Communication edge into the next leg.
        let next = (leg + 1) % n;
        match cyc.comms[leg] {
            // The reader saw the store: it propagated to the reader first.
            CommKind::Rf => graph.add(prop(exit_at, next), end(next, false)),
            // The reader missed the store: it reaches the reader later.
            CommKind::Fr => graph.add(exit_at, prop(end(next, false), leg)),
            // Coherence order is commit order.
            CommKind::Co => graph.add(exit_at, end(next, false)),
        }
    }

    let protected = graph.has_cycle();
    BIT_GRAPH.set(graph);
    CycleCheck { protected, uncut }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::critical_cycles;
    use crate::graph::ProgramGraph;
    use wmm_litmus::suite;
    use ModelKind::{ArmV8, Power, Sc, Tso};

    fn all_protected(entry: &suite::SuiteEntry, model: ModelKind) -> bool {
        let g = ProgramGraph::from_litmus(&entry.test);
        critical_cycles(&g)
            .iter()
            .all(|c| check_cycle(&g, model, c).protected)
    }

    #[test]
    fn sb_protection_per_model() {
        let e = suite::store_buffering();
        assert!(all_protected(&e, Sc));
        assert!(!all_protected(&e, Tso));
        assert!(!all_protected(&e, ArmV8));
        assert!(!all_protected(&e, Power));
        let f = suite::sb_fences();
        for m in [Sc, Tso, ArmV8, Power] {
            assert!(all_protected(&f, m), "{m:?}");
        }
        // lwsync leaves store→load open.
        assert!(!all_protected(&suite::sb_lwsyncs(), Power));
    }

    #[test]
    fn cumulativity_split_on_power() {
        // dmb ishst + addr: sound on MCA ARMv8, unsound on POWER.
        let e = suite::mp_dmbst_addr();
        assert!(all_protected(&e, ArmV8));
        assert!(!all_protected(&e, Power));
        // lwsync is cumulative: sound on POWER too.
        assert!(all_protected(&suite::mp_lwsync_addr(), Power));
    }

    #[test]
    fn iriw_needs_global_strength_on_power() {
        assert!(!all_protected(&suite::iriw_addrs(), Power));
        assert!(!all_protected(&suite::iriw_lwsyncs(), Power));
        assert!(all_protected(&suite::iriw_syncs(), Power));
        assert!(all_protected(&suite::iriw_addrs(), ArmV8));
    }

    #[test]
    fn ctrl_dep_cuts_stores_not_loads() {
        assert!(!all_protected(&suite::mp_dmbst_ctrl(), ArmV8));
        assert!(all_protected(&suite::mp_dmbst_ctrlisb(), ArmV8));
        assert!(all_protected(&suite::lb_deps(), Power));
    }

    #[test]
    fn uncut_pairs_name_the_gap() {
        let g = ProgramGraph::from_litmus(&suite::message_passing().test);
        let cycles = critical_cycles(&g);
        let check = check_cycle(&g, ArmV8, &cycles[0]);
        assert!(!check.protected);
        assert_eq!(check.uncut.len(), 2, "both MP pairs are unordered");
    }
}
