//! The relational axioms, cat-style.
//!
//! A candidate execution (a `Witness`) is **consistent** under a model
//! iff four acyclicity axioms hold. The names follow "Herding cats"
//! (Alglave et al.); the relations are instantiated from the explorer's
//! own vocabulary so both oracles share one definition of every ordering
//! mechanism:
//!
//! * **sc-per-location** — `acyclic(po-loc ∪ rf ∪ fr ∪ co)` per variable:
//!   coherence. Purely relational, model-independent.
//! * **no-thin-air** — `acyclic(ppo ∪ rf)`: values cannot justify
//!   themselves. `ppo` is exactly [`LitmusTest::ordered`](wmm_litmus::LitmusTest::ordered), i.e. SC orders
//!   everything, TSO all but store→load, ARM/POWER same-location pairs,
//!   fences, acquire/release (incl. the `ARMv8` `RCsc` pair), and
//!   dependencies.
//! * **propagation** — POWER only: `acyclic(co ∪ prop)` where `prop`
//!   carries the cumulativity of `lwsync`/`sync`/release (a store may
//!   reach a thread only after the stores its thread had seen before the
//!   barrier) and the global strength of `sync` (everything the fencing
//!   thread knew has propagated everywhere before execution continues).
//!   Vacuous on multi-copy-atomic models.
//! * **observation** — the decisive check: the *join* of all of the above
//!   over both event kinds the operational explorer manipulates,
//!   `exec(a)` (commit order; coherence order for stores) and
//!   `prop(W, t)` (per-thread visibility of a store, POWER only; on MCA
//!   models `prop ≡ exec`). A witness's rf edge means the store reached
//!   the reader first (`prop(W, t_r) < exec(R)`); its derived fr edges
//!   mean every co-later store reached the reader *after* it read
//!   (`exec(R) < prop(W', t_r)`). If the join is acyclic the candidate
//!   is realisable by the machine; if cyclic it is forbidden.
//!
//! The first three are each *necessary* (the differential suite holds
//! them against the explorer over every generated program), but only the
//! join is precise — they are reported as named diagnostics when they are
//! the earliest axiom to fail.
//!
//! Most of each relation does not depend on the witness: the propagation
//! nodes, `ppo`, `po-loc`, the commit-before-propagate skeleton and which
//! earlier events feed each cumulative store and each `sync`. A
//! `Checker` builds them once per test and model as adjacency bit rows.
//! Per candidate it copies them into reused rows, adds the witness's `rf`,
//! `fr` and `co` edges and the cumulativity edges that depend on what its
//! loads read, and runs Kahn's algorithm on reused buffers: checking a
//! candidate allocates nothing. The observation graph is the propagation
//! graph plus `ppo` and the communication edges, so it extends the rows
//! the propagation check left.

use wmm_litmus::ops::{FClass, LOp, ModelKind};

use crate::events::EventGraph;
use crate::witness::Witness;

/// The named axioms, in diagnostic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axiom {
    /// Per-location coherence: `acyclic(po-loc ∪ rf ∪ fr ∪ co)`.
    ScPerLocation,
    /// `acyclic(ppo ∪ rf)` — no out-of-thin-air values.
    NoThinAir,
    /// POWER store-propagation consistency: `acyclic(co ∪ prop)`.
    Propagation,
    /// The full exec/prop join — the model-precise consistency check.
    Observation,
}

impl Axiom {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Axiom::ScPerLocation => "sc-per-location",
            Axiom::NoThinAir => "no-thin-air",
            Axiom::Propagation => "propagation",
            Axiom::Observation => "observation",
        }
    }
}

/// Verdict on one candidate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Is the candidate consistent (every axiom acyclic)?
    pub allowed: bool,
    /// The first axiom violated, when forbidden.
    pub violated: Option<Axiom>,
}

impl Verdict {
    const ALLOWED: Verdict = Verdict {
        allowed: true,
        violated: None,
    };

    fn forbidden(axiom: Axiom) -> Verdict {
        Verdict {
            allowed: false,
            violated: Some(axiom),
        }
    }
}

/// A directed graph on dense node ids as adjacency bit rows (a repeated
/// edge is one edge).
struct BitGraph {
    /// Words per row.
    words: usize,
    /// Row `u` holds the successors of `u`.
    rows: Vec<u64>,
}

impl BitGraph {
    /// `n` nodes, no edges.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitGraph {
            words,
            rows: vec![0; n * words],
        }
    }

    fn add(&mut self, u: usize, v: usize) {
        self.rows[u * self.words + v / 64] |= 1 << (v % 64);
    }

    /// Add every edge of `other`, a graph on as many nodes.
    fn union(&mut self, other: &BitGraph) {
        for (row, extra) in self.rows.iter_mut().zip(&other.rows) {
            *row |= extra;
        }
    }

    /// The successors of `u`, lowest first.
    fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.rows[u * self.words..(u + 1) * self.words];
        row.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    v
                })
            })
        })
    }
}

/// Kahn's algorithm over reused buffers.
#[derive(Default)]
struct Kahn {
    indeg: Vec<u32>,
    queue: Vec<usize>,
}

impl Kahn {
    /// Does `g` restricted to its first `n` nodes contain a directed cycle?
    /// No edge of `g` may leave those nodes.
    fn has_cycle(&mut self, g: &BitGraph, n: usize) -> bool {
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for u in 0..n {
            for v in g.successors(u) {
                self.indeg[v] += 1;
            }
        }
        self.queue.clear();
        self.queue.extend((0..n).filter(|&v| self.indeg[v] == 0));
        let mut removed = 0;
        while let Some(u) = self.queue.pop() {
            removed += 1;
            for v in g.successors(u) {
                self.indeg[v] -= 1;
                if self.indeg[v] == 0 {
                    self.queue.push(v);
                }
            }
        }
        removed < n
    }
}

/// The witness-independent relations of one test under one model.
struct Relations<'g, 't> {
    g: &'g EventGraph<'t>,
    mca: bool,
    nthreads: usize,
    /// Event nodes, then one propagation node per (store, remote thread)
    /// on non-multi-copy-atomic models.
    nodes: usize,
    /// Node of `(store event e, thread u)` at `e * nthreads + u`: the store
    /// reaching `u`. It is the store's own event on its own thread and on
    /// multi-copy-atomic models.
    prop_node: Vec<usize>,
    /// Load slot of each load event.
    slot: Vec<usize>,
    /// Same-thread, same-location program order over events.
    po_loc: BitGraph,
    /// Preserved program order over events
    /// ([`LitmusTest::ordered`](wmm_litmus::LitmusTest::ordered)).
    ppo: BitGraph,
    /// Each store's commit before its propagation to each remote thread
    /// (empty on multi-copy-atomic models).
    skeleton: BitGraph,
    /// `(store, earlier event)`: on non-multi-copy-atomic models the store
    /// event that the earlier one read or wrote reaches every thread
    /// before the store does (cumulativity of `lwsync`, `sync` and
    /// release).
    cumulative: Vec<(usize, usize)>,
    /// Per `sync` on non-multi-copy-atomic models: the events before it
    /// and the events after it. Every store an earlier event read or wrote
    /// reaches every thread before any later event executes.
    syncs: Vec<(Vec<usize>, Vec<usize>)>,
}

impl<'g, 't> Relations<'g, 't> {
    fn new(g: &'g EventGraph<'t>, model: ModelKind) -> Self {
        let mca = model.multi_copy_atomic();
        let nthreads = g.test.threads.len();
        let nev = g.events.len();

        // Event id per (thread, op) for barrier scans.
        let mut ev_at: Vec<Vec<Option<usize>>> = g
            .test
            .threads
            .iter()
            .map(|ops| vec![None; ops.len()])
            .collect();
        for (id, e) in g.events.iter().enumerate() {
            ev_at[e.thread][e.op] = Some(id);
        }

        let mut nodes = nev;
        let mut prop_node = vec![0; nev * nthreads];
        for (id, e) in g.events.iter().enumerate() {
            for u in 0..nthreads {
                prop_node[id * nthreads + u] = if mca || u == e.thread || !e.is_store {
                    id
                } else {
                    nodes += 1;
                    nodes - 1
                };
            }
        }
        let mut slot = vec![usize::MAX; nev];
        for (s, &l) in g.loads.iter().enumerate() {
            slot[l] = s;
        }

        let (mut po_loc, mut ppo, mut skeleton) = (
            BitGraph::new(nodes),
            BitGraph::new(nodes),
            BitGraph::new(nodes),
        );
        for (a, ea) in g.events.iter().enumerate() {
            for (b, eb) in g.events.iter().enumerate() {
                if ea.thread != eb.thread || ea.op >= eb.op {
                    continue;
                }
                if ea.loc == eb.loc {
                    po_loc.add(a, b);
                }
                if g.test.ordered(model, ea.thread, ea.op, eb.op) {
                    ppo.add(a, b);
                }
            }
        }

        let (mut cumulative, mut syncs) = (vec![], vec![]);
        if !mca {
            for (id, e) in g.events.iter().enumerate() {
                if !e.is_store {
                    continue;
                }
                // A store is visible to a remote thread only after it
                // commits.
                for u in (0..nthreads).filter(|&u| u != e.thread) {
                    skeleton.add(id, prop_node[id * nthreads + u]);
                }
                // Cumulativity: everything the storing thread had seen
                // before its latest lwsync/sync (or, for a release store,
                // before the store itself) must reach a thread before the
                // store does. The barrier orders all those accesses before
                // the store, so the group is static — exactly the
                // explorer's prereq set.
                let ops = &g.test.threads[e.thread];
                let boundary = if matches!(ops[e.op], LOp::Store { release: true, .. }) {
                    Some(e.op)
                } else {
                    (0..e.op)
                        .rev()
                        .find(|&i| matches!(ops[i], LOp::Fence(FClass::Full | FClass::LwSync)))
                };
                if let Some(b) = boundary {
                    cumulative.extend(
                        ev_at[e.thread][..b]
                            .iter()
                            .flatten()
                            .map(|&prev| (id, prev)),
                    );
                }
            }
            // sync's global strength: the fence blocks until its group-A
            // stores have propagated everywhere, and everything po-after
            // the fence executes after it.
            for (t, ops) in g.test.threads.iter().enumerate() {
                for (k, op) in ops.iter().enumerate() {
                    if matches!(op, LOp::Fence(FClass::Full)) {
                        let before = ev_at[t][..k].iter().flatten().copied().collect();
                        let after = ev_at[t][k + 1..].iter().flatten().copied().collect();
                        syncs.push((before, after));
                    }
                }
            }
        }

        Relations {
            g,
            mca,
            nthreads,
            nodes,
            prop_node,
            slot,
            po_loc,
            ppo,
            skeleton,
            cumulative,
            syncs,
        }
    }

    /// The node of store `s` reaching thread `u`.
    fn node(&self, s: usize, u: usize) -> usize {
        self.prop_node[s * self.nthreads + u]
    }

    /// The store event `ev` wrote, or the one it read under `w` (`None`
    /// when it read the initial state).
    fn touched(&self, w: &Witness, ev: usize) -> Option<usize> {
        if self.g.events[ev].is_store {
            Some(ev)
        } else {
            w.rf[self.slot[ev]]
        }
    }

    /// Add the cumulativity and `sync` edges of `w` to `graph`: they run
    /// from whichever stores the earlier events wrote or read.
    fn add_prop(&self, w: &Witness, graph: &mut BitGraph) {
        for &(store, prev) in &self.cumulative {
            if let Some(s) = self.touched(w, prev) {
                for u in 0..self.nthreads {
                    graph.add(self.node(s, u), self.node(store, u));
                }
            }
        }
        for (before, after) in &self.syncs {
            for s in before.iter().filter_map(|&prev| self.touched(w, prev)) {
                for u in 0..self.nthreads {
                    for &c in after {
                        graph.add(self.node(s, u), c);
                    }
                }
            }
        }
    }
}

/// The four axioms for one test under one model.
///
/// Everything that does not depend on the witness is built once
/// ([`Relations`]). [`check`](Self::check) then adds one candidate's `rf`,
/// `fr` and `co` edges, and the cumulativity edges that depend on what its
/// loads read, to copies of those relations in reused buffers.
pub(crate) struct Checker<'g, 't> {
    rel: Relations<'g, 't>,
    /// Each store's position in its location's coherence order.
    co_pos: Vec<usize>,
    /// The graph under check.
    graph: BitGraph,
    kahn: Kahn,
}

impl<'g, 't> Checker<'g, 't> {
    /// Build the witness-independent relations of `g` under `model`.
    pub(crate) fn new(g: &'g EventGraph<'t>, model: ModelKind) -> Self {
        let rel = Relations::new(g, model);
        Checker {
            co_pos: vec![0; g.events.len()],
            graph: BitGraph::new(rel.nodes),
            kahn: Kahn::default(),
            rel,
        }
    }

    /// Decide one candidate execution. The axioms are checked in
    /// diagnostic order, so the first violated one is reported.
    pub(crate) fn check(&mut self, w: &Witness) -> Verdict {
        let (rel, graph, kahn) = (&self.rel, &mut self.graph, &mut self.kahn);
        let (g, nev) = (rel.g, rel.g.events.len());
        for order in &w.co {
            for (p, &s) in order.iter().enumerate() {
                self.co_pos[s] = p;
            }
        }
        let co_pos = &self.co_pos;
        // The stores coherence-after what load slot `l` read: every
        // same-location store after its rf source, or all of them when it
        // read the initial state.
        let fr = |l: usize| {
            let order = &w.co[g.events[g.loads[l]].loc];
            match w.rf[l] {
                Some(src) => &order[co_pos[src] + 1..],
                None => &order[..],
            }
        };
        let add_co = |graph: &mut BitGraph| {
            for order in &w.co {
                for pair in order.windows(2) {
                    graph.add(pair[0], pair[1]);
                }
            }
        };

        // Per-location coherence: po-loc ∪ rf ∪ fr ∪ co over events, with
        // rf and fr as direct event edges — the purely relational uniproc
        // check, independent of propagation timing.
        graph.rows.copy_from_slice(&rel.po_loc.rows);
        for (l, &r) in g.loads.iter().enumerate() {
            if let Some(src) = w.rf[l] {
                graph.add(src, r);
            }
            for &later in fr(l) {
                graph.add(r, later);
            }
        }
        add_co(graph);
        if kahn.has_cycle(graph, nev) {
            return Verdict::forbidden(Axiom::ScPerLocation);
        }

        // No thin air: ppo ∪ rf over events.
        graph.rows.copy_from_slice(&rel.ppo.rows);
        for (l, &r) in g.loads.iter().enumerate() {
            if let Some(src) = w.rf[l] {
                graph.add(src, r);
            }
        }
        if kahn.has_cycle(graph, nev) {
            return Verdict::forbidden(Axiom::NoThinAir);
        }

        // Propagation: co ∪ prop over every node.
        graph.rows.copy_from_slice(&rel.skeleton.rows);
        add_co(graph);
        if !rel.mca {
            rel.add_prop(w, graph);
        }
        if kahn.has_cycle(graph, rel.nodes) {
            return Verdict::forbidden(Axiom::Propagation);
        }

        // Observation: the join — ppo, rf and fr through the reader's
        // propagation nodes, co and prop. Given co, "reads the
        // coherence-latest visible store" decomposes exactly: the read
        // store reached the reader first, every co-later same-location
        // store only after the read.
        graph.union(&rel.ppo);
        for (l, &r) in g.loads.iter().enumerate() {
            let reader = g.events[r].thread;
            if let Some(src) = w.rf[l] {
                graph.add(rel.node(src, reader), r);
            }
            for &later in fr(l) {
                graph.add(r, rel.node(later, reader));
            }
        }
        if kahn.has_cycle(graph, rel.nodes) {
            return Verdict::forbidden(Axiom::Observation);
        }
        Verdict::ALLOWED
    }
}
