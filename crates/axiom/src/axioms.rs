//! The relational axioms, cat-style.
//!
//! A candidate execution (a [`Witness`]) is **consistent** under a model
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
pub struct Verdict {
    /// Is the candidate consistent (every axiom acyclic)?
    pub allowed: bool,
    /// The first axiom violated, when forbidden.
    pub violated: Option<Axiom>,
}

/// Kahn's algorithm: does the directed graph contain a cycle?
fn has_cycle(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![vec![]; n];
    let mut indeg = vec![0usize; n];
    for &(u, v) in edges {
        adj[u].push(v);
        indeg[v] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut removed = 0;
    while let Some(u) = queue.pop() {
        removed += 1;
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    removed < n
}

/// All relation edges of one candidate, split by axiom membership.
struct Relations {
    /// Total node count (exec events + prop nodes).
    nodes: usize,
    /// `ppo` over exec nodes.
    ppo: Vec<(usize, usize)>,
    /// rf as direct exec→exec edges (for no-thin-air).
    rf_direct: Vec<(usize, usize)>,
    /// rf/fr through prop nodes (for observation).
    comm: Vec<(usize, usize)>,
    /// co over exec nodes.
    co: Vec<(usize, usize)>,
    /// Commit-before-propagate skeleton + cumulative + global edges.
    prop: Vec<(usize, usize)>,
}

/// Map `(store event, observing thread)` to its graph node.
struct PropMap {
    mca: bool,
    /// `(store, thread, node)` rows, non-MCA only.
    rows: Vec<(usize, usize, usize)>,
}

impl PropMap {
    fn node(&self, g: &EventGraph, store: usize, u: usize) -> usize {
        if self.mca || g.events[store].thread == u {
            store
        } else {
            self.rows
                .iter()
                .find(|&&(s, t, _)| s == store && t == u)
                .map(|&(_, _, n)| n)
                .expect("prop node")
        }
    }
}

/// The witness-level "touched store" of an access op: the store it wrote,
/// or the store it read (`None` when it read the initial state).
fn touched(g: &EventGraph, w: &Witness, ev: usize) -> Option<usize> {
    if g.events[ev].is_store {
        Some(ev)
    } else {
        let slot = g.loads.iter().position(|&l| l == ev).expect("load slot");
        w.rf[slot]
    }
}

#[allow(clippy::too_many_lines)] // one block per relation; the split IS the structure
fn build_relations(g: &EventGraph, model: ModelKind, w: &Witness) -> Relations {
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

    // prop nodes.
    let mut nodes = nev;
    let mut rows = vec![];
    if !mca {
        for (id, e) in g.events.iter().enumerate() {
            if e.is_store {
                for u in 0..nthreads {
                    if u != e.thread {
                        rows.push((id, u, nodes));
                        nodes += 1;
                    }
                }
            }
        }
    }
    let pm = PropMap { mca, rows };

    // ppo: the explorer's own per-thread ordering relation.
    let mut ppo = vec![];
    for a in 0..nev {
        for b in 0..nev {
            let (ea, eb) = (&g.events[a], &g.events[b]);
            if ea.thread == eb.thread
                && ea.op < eb.op
                && g.test.ordered(model, ea.thread, ea.op, eb.op)
            {
                ppo.push((a, b));
            }
        }
    }

    // rf and fr. Given co, "reads the coherence-latest visible store"
    // decomposes exactly: the read store reached the reader first, every
    // co-later same-loc store only after the read.
    let mut rf_direct = vec![];
    let mut comm = vec![];
    for (slot, &r) in g.loads.iter().enumerate() {
        let reader = g.events[r].thread;
        let co_order = &w.co[g.events[r].loc];
        match w.rf[slot] {
            Some(src) => {
                rf_direct.push((src, r));
                comm.push((pm.node(g, src, reader), r));
                let pos = co_order
                    .iter()
                    .position(|&s| s == src)
                    .expect("rf source in co");
                for &later in &co_order[pos + 1..] {
                    comm.push((r, pm.node(g, later, reader)));
                }
            }
            None => {
                // Initial-state read: no same-loc store had reached the
                // reader yet.
                for &s in co_order {
                    comm.push((r, pm.node(g, s, reader)));
                }
            }
        }
    }

    // co: commit order restricted per location.
    let mut co = vec![];
    for order in &w.co {
        for pair in order.windows(2) {
            co.push((pair[0], pair[1]));
        }
    }

    // Propagation edges (POWER only).
    let mut prop = vec![];
    if !mca {
        // A store is visible to a remote thread only after it commits.
        for &(store, u, node) in &pm.rows {
            let _ = u;
            prop.push((store, node));
        }
        for (id, e) in g.events.iter().enumerate() {
            if !e.is_store {
                continue;
            }
            // Cumulativity: everything the storing thread had seen before
            // its latest lwsync/sync (or, for a release store, before the
            // store itself) must reach a thread before the store does.
            // The barrier orders all those accesses before the store, so
            // the group is static — exactly the explorer's prereq set.
            let release = matches!(
                g.test.threads[e.thread][e.op],
                LOp::Store { release: true, .. }
            );
            let boundary = if release {
                Some(e.op)
            } else {
                (0..e.op).rev().find(|&i| {
                    matches!(
                        g.test.threads[e.thread][i],
                        LOp::Fence(FClass::Full | FClass::LwSync)
                    )
                })
            };
            if let Some(b) = boundary {
                for i in 0..b {
                    let Some(prev) = ev_at[e.thread].get(i).copied().flatten() else {
                        continue;
                    };
                    if let Some(s) = touched(g, w, prev) {
                        for u in 0..nthreads {
                            prop.push((pm.node(g, s, u), pm.node(g, id, u)));
                        }
                    }
                }
            }
        }
        // sync's global strength: the fence blocks until its group-A
        // stores have propagated everywhere, and everything po-after the
        // fence executes after it.
        for (t, ops) in g.test.threads.iter().enumerate() {
            for (k, op) in ops.iter().enumerate() {
                if !matches!(op, LOp::Fence(FClass::Full)) {
                    continue;
                }
                let group_a: Vec<usize> = (0..k)
                    .filter_map(|i| ev_at[t][i])
                    .filter_map(|prev| touched(g, w, prev))
                    .collect();
                for c in ops.iter().enumerate().skip(k + 1).filter_map(|(m, o)| {
                    if o.is_access() {
                        ev_at[t][m]
                    } else {
                        None
                    }
                }) {
                    for &s in &group_a {
                        for u in 0..nthreads {
                            prop.push((pm.node(g, s, u), c));
                        }
                    }
                }
            }
        }
    }

    Relations {
        nodes,
        ppo,
        rf_direct,
        comm,
        co,
        prop,
    }
}

/// Per-location coherence: `acyclic(po-loc ∪ rf ∪ fr ∪ co)` over the
/// events of each variable, with rf/fr as direct event edges — the purely
/// relational uniproc check, independent of propagation timing.
fn sc_per_location(g: &EventGraph, w: &Witness) -> bool {
    let nev = g.events.len();
    let mut edges = vec![];
    // po-loc.
    for a in 0..nev {
        for b in 0..nev {
            let (ea, eb) = (&g.events[a], &g.events[b]);
            if ea.thread == eb.thread && ea.op < eb.op && ea.loc == eb.loc {
                edges.push((a, b));
            }
        }
    }
    for (slot, &r) in g.loads.iter().enumerate() {
        let co_order = &w.co[g.events[r].loc];
        match w.rf[slot] {
            Some(src) => {
                edges.push((src, r));
                let pos = co_order
                    .iter()
                    .position(|&s| s == src)
                    .expect("rf source in co");
                for &later in &co_order[pos + 1..] {
                    edges.push((r, later));
                }
            }
            None => {
                for &s in co_order {
                    edges.push((r, s));
                }
            }
        }
    }
    for order in &w.co {
        for pair in order.windows(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    !has_cycle(nev, &edges)
}

/// Decide one candidate execution under `model`.
#[must_use]
pub fn check_witness(g: &EventGraph, model: ModelKind, w: &Witness) -> Verdict {
    let rel = build_relations(g, model, w);
    let nev = g.events.len();

    // Diagnostic axioms first, decisive join last.
    if !sc_per_location(g, w) {
        return Verdict {
            allowed: false,
            violated: Some(Axiom::ScPerLocation),
        };
    }
    let thin: Vec<(usize, usize)> = rel
        .ppo
        .iter()
        .chain(rel.rf_direct.iter())
        .copied()
        .collect();
    if has_cycle(nev, &thin) {
        return Verdict {
            allowed: false,
            violated: Some(Axiom::NoThinAir),
        };
    }
    let prop_join: Vec<(usize, usize)> = rel.co.iter().chain(rel.prop.iter()).copied().collect();
    if has_cycle(rel.nodes, &prop_join) {
        return Verdict {
            allowed: false,
            violated: Some(Axiom::Propagation),
        };
    }
    let full: Vec<(usize, usize)> = rel
        .ppo
        .iter()
        .chain(rel.comm.iter())
        .chain(rel.co.iter())
        .chain(rel.prop.iter())
        .copied()
        .collect();
    if has_cycle(rel.nodes, &full) {
        return Verdict {
            allowed: false,
            violated: Some(Axiom::Observation),
        };
    }
    Verdict {
        allowed: true,
        violated: None,
    }
}
