//! The per-witness relation builder, kept for tests only.
//!
//! This is the axiomatic checker as it was before the witness-independent
//! relations were built once per test and model (see the [`crate::axioms`]
//! module doc). It rebuilds every relation for each candidate as an edge
//! list and runs each acyclicity check on a freshly built adjacency list.
//! The test below holds the library checker to its verdicts — `allowed`
//! and the first violated axiom — on every candidate of the hand suite and
//! the quick differential stride under all four models, and holds the
//! streamed enumeration to this module's recursive one.

use wmm_litmus::ops::{FClass, LOp, ModelKind};

use crate::axioms::{Axiom, Verdict};
use crate::events::EventGraph;
use crate::witness::{permutations, Witness};

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
fn check_witness(g: &EventGraph, model: ModelKind, w: &Witness) -> Verdict {
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

/// Every candidate execution of `g`, collected by recursion.
fn witnesses(g: &EventGraph) -> Vec<Witness> {
    let rf_choices: Vec<Vec<Option<usize>>> = g
        .loads
        .iter()
        .map(|&l| {
            let mut c: Vec<Option<usize>> = vec![None];
            c.extend(g.co_group(l).iter().map(|&w| Some(w)));
            c
        })
        .collect();
    let co_choices: Vec<Vec<Vec<usize>>> = g
        .stores_by_loc
        .iter()
        .map(|stores| permutations(stores))
        .collect();
    let mut out = vec![];
    let mut rf = vec![None; g.loads.len()];
    let mut co: Vec<Vec<usize>> = vec![vec![]; g.num_vars];
    enumerate_rf(&rf_choices, 0, &mut rf, &co_choices, &mut co, &mut out);
    out
}

fn enumerate_rf(
    rf_choices: &[Vec<Option<usize>>],
    slot: usize,
    rf: &mut Vec<Option<usize>>,
    co_choices: &[Vec<Vec<usize>>],
    co: &mut Vec<Vec<usize>>,
    out: &mut Vec<Witness>,
) {
    if slot == rf_choices.len() {
        enumerate_co(co_choices, 0, rf, co, out);
        return;
    }
    for &choice in &rf_choices[slot] {
        rf[slot] = choice;
        enumerate_rf(rf_choices, slot + 1, rf, co_choices, co, out);
    }
}

fn enumerate_co(
    co_choices: &[Vec<Vec<usize>>],
    loc: usize,
    rf: &[Option<usize>],
    co: &mut Vec<Vec<usize>>,
    out: &mut Vec<Witness>,
) {
    if loc == co_choices.len() {
        out.push(Witness {
            rf: rf.to_vec(),
            co: co.clone(),
        });
        return;
    }
    for order in &co_choices[loc] {
        co[loc].clone_from(order);
        enumerate_co(co_choices, loc + 1, rf, co, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::Checker;
    use crate::witness::Witnesses;
    use wmm_analyze::differential_corpus;
    use wmm_litmus::suite::full_suite;
    use wmm_litmus::LitmusTest;

    const MODELS: [ModelKind; 4] = [
        ModelKind::Sc,
        ModelKind::Tso,
        ModelKind::ArmV8,
        ModelKind::Power,
    ];

    #[test]
    fn checker_matches_the_per_witness_builder_on_every_candidate() {
        let mut tests: Vec<LitmusTest> = full_suite().into_iter().map(|e| e.test).collect();
        // The quick `axiom_diff` stride of the generated corpus.
        tests.extend(differential_corpus().into_iter().step_by(8));
        let mut candidates = 0;
        for test in &tests {
            let g = EventGraph::new(test);
            let reference = witnesses(&g);
            for model in MODELS {
                let mut checker = Checker::new(&g, model);
                let mut streamed = Witnesses::new(&g);
                for want in &reference {
                    let w = streamed
                        .next()
                        .expect("as many candidates as the reference");
                    assert_eq!(w, want, "{}: enumeration order", test.name);
                    assert_eq!(
                        checker.check(w),
                        check_witness(&g, model, w),
                        "{} under {} on {w:?}",
                        test.name,
                        model.label()
                    );
                    candidates += 1;
                }
                assert!(streamed.next().is_none(), "{}: extra candidates", test.name);
            }
        }
        assert!(candidates > 5_000, "{candidates} candidates checked");
    }
}
