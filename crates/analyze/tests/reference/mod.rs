//! The reference analysis kernels: the critical-cycle enumerator and the
//! per-model cycle check as they were before they became index-driven,
//! kept for tests only.
//!
//! The enumerator scans every access of the graph for the communication
//! edges out of each leg exit, collects each leg's exits into a fresh
//! list, and picks each cycle's canonical rotation by comparing every
//! rotation's `(entry, exit, comm)` sequence. The check finds each
//! constraint node by searching lists of accesses and `(store, thread)`
//! pairs, and runs Kahn's algorithm on an edge list. `kernels.rs` holds
//! the library's kernels equal to these, output for output.
//!
//! One line differs from the code it was moved from: the threads on the
//! DFS path were a `u64` mask, which cannot name a thread numbered 64 or
//! more, so they are a flag per thread here, as in the library.

use wmm_analyze::{Access, CommKind, CriticalCycle, CycleCheck, ProgramGraph};
use wmm_litmus::ops::{FClass, ModelKind};

/// The lexicographically smallest rotation of the cycle's paired
/// `(entry, exit, comm)` sequence, found by comparing every rotation.
pub fn lexmin_key(cyc: &CriticalCycle) -> Vec<(usize, usize, u8)> {
    let n = cyc.legs.len();
    let seq: Vec<(usize, usize, u8)> = (0..n)
        .map(|i| (cyc.legs[i].0, cyc.legs[i].1, cyc.comms[i].rank()))
        .collect();
    let best = (0..n)
        .min_by_key(|&r| (0..n).map(|i| seq[(r + i) % n]).collect::<Vec<_>>())
        .unwrap_or(0);
    (0..n).map(|i| seq[(best + i) % n]).collect()
}

fn canonicalize(cyc: &mut CriticalCycle) {
    let key = lexmin_key(cyc);
    for (i, &(entry, exit, comm)) in key.iter().enumerate() {
        cyc.legs[i] = (entry, exit);
        cyc.comms[i] = match comm {
            0 => CommKind::Rf,
            1 => CommKind::Fr,
            _ => CommKind::Co,
        };
    }
}

/// Every critical cycle of `g`, once per rotation class, canonicalized
/// and deduplicated by [`lexmin_key`].
pub fn critical_cycles(g: &ProgramGraph) -> Vec<CriticalCycle> {
    let mut out = vec![];
    if g.threads.len() < 2 {
        return out;
    }
    for t0 in 0..g.threads.len() {
        for &e0 in &g.threads[t0] {
            let mut legs = vec![];
            let mut comms = vec![];
            let mut used = vec![false; g.threads.len()];
            used[t0] = true;
            extend(g, e0, e0, &mut legs, &mut comms, &mut used, &mut out);
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut deduped = Vec::with_capacity(out.len());
    for mut cyc in out {
        canonicalize(&mut cyc);
        if seen.insert(lexmin_key(&cyc)) {
            deduped.push(cyc);
        }
    }
    deduped
}

fn exits_of(g: &ProgramGraph, entry: usize) -> Vec<usize> {
    let e = &g.accesses[entry];
    g.threads[e.thread]
        .iter()
        .copied()
        .filter(|&x| {
            let a = &g.accesses[x];
            x == entry || (a.pos > e.pos && a.loc != e.loc)
        })
        .collect()
}

fn extend(
    g: &ProgramGraph,
    e0: usize,
    entry: usize,
    legs: &mut Vec<(usize, usize)>,
    comms: &mut Vec<CommKind>,
    used: &mut Vec<bool>,
    out: &mut Vec<CriticalCycle>,
) {
    let t0 = g.accesses[e0].thread;
    for exit in exits_of(g, entry) {
        legs.push((entry, exit));
        for (v, kind) in comm_targets(g, exit) {
            let vt = g.accesses[v].thread;
            if v == e0 {
                comms.push(kind);
                if legs.len() >= 2 && !degenerate(legs) {
                    out.push(CriticalCycle {
                        legs: legs.clone(),
                        comms: comms.clone(),
                    });
                }
                comms.pop();
            } else if vt > t0 && !used[vt] {
                comms.push(kind);
                used[vt] = true;
                extend(g, e0, v, legs, comms, used, out);
                used[vt] = false;
                comms.pop();
            }
        }
        legs.pop();
    }
}

fn comm_targets(g: &ProgramGraph, u: usize) -> Vec<(usize, CommKind)> {
    let ua = &g.accesses[u];
    let mut out = vec![];
    for (v, va) in g.accesses.iter().enumerate() {
        for kind in CommKind::between(ua, va) {
            out.push((v, kind));
        }
    }
    out
}

fn degenerate(legs: &[(usize, usize)]) -> bool {
    legs.len() == 2 && legs[0].0 == legs[0].1 && legs[1].0 == legs[1].1
}

/// A hypothetical edit of one fence: fence `.0` (an index into
/// [`ProgramGraph::fences`]) removed (`None`) or re-classed.
pub type Probe = Option<(usize, Option<FClass>)>;

/// Ordering strength present between a program-order pair.
#[derive(Clone, Copy)]
struct PairCut {
    local: bool,
    cumulative: bool,
    global: bool,
}

fn covers_pair(class: FClass, a: &Access, b: &Access) -> bool {
    a.roles()
        .iter()
        .all(|&ra| b.roles().iter().all(|&rb| class.covers(ra, rb)))
}

fn bare_ordered(model: ModelKind, a: &Access, b: &Access) -> bool {
    match model {
        ModelKind::Sc => true,
        ModelKind::Tso => !(a.is_store && !a.is_load && b.is_load && !b.is_store && a.loc != b.loc),
        ModelKind::ArmV8 | ModelKind::Power => a.loc == b.loc,
    }
}

/// The cut of the pair `(a_id, b_id)` of `g` with `probe` applied.
fn pair_cut(g: &ProgramGraph, model: ModelKind, a_id: usize, b_id: usize, probe: Probe) -> PairCut {
    let (a, b) = (&g.accesses[a_id], &g.accesses[b_id]);
    let (mut fence_local, mut fence_cumulative, mut fence_global) = (false, false, false);
    for (i, f) in g.fences.iter().enumerate() {
        if f.thread != a.thread || f.slot <= a.pos || f.slot > b.pos {
            continue;
        }
        let class = match probe {
            Some((fence, class)) if fence == i => class,
            _ => Some(f.class),
        };
        if let Some(class) = class {
            fence_local |= covers_pair(class, a, b);
            fence_cumulative |= matches!(class, FClass::Full | FClass::LwSync);
            fence_global |= class == FClass::Full;
        }
    }
    let dep = g.dep_between(a_id, b_id);
    let rcsc = model == ModelKind::ArmV8 && a.is_store && a.release && b.is_load && b.acquire;
    let local = bare_ordered(model, a, b)
        || (a.is_load && a.acquire)
        || (b.is_store && b.release)
        || rcsc
        || dep.is_some_and(|k| k.orders(b.is_store))
        || fence_local;
    PairCut {
        local,
        cumulative: b.is_store && (b.release || fence_cumulative),
        global: fence_global,
    }
}

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

/// Check one cycle under `model` with `probe` applied to the graph's
/// fences.
pub fn check_cycle(
    g: &ProgramGraph,
    model: ModelKind,
    cyc: &CriticalCycle,
    probe: Probe,
) -> CycleCheck {
    let n = cyc.legs.len();
    let mca = model.multi_copy_atomic();
    let threads: Vec<usize> = cyc
        .legs
        .iter()
        .map(|&(e, _)| g.accesses[e].thread)
        .collect();

    let mut nodes: Vec<usize> = vec![];
    for &(e, x) in &cyc.legs {
        nodes.push(e);
        if x != e {
            nodes.push(x);
        }
    }
    let exec = |id: usize| nodes.iter().position(|&a| a == id).expect("cycle access");

    let mut node_count = nodes.len();
    let mut prop_nodes: Vec<(usize, usize, usize)> = vec![];
    if !mca {
        for &a in &nodes {
            if g.accesses[a].is_store {
                for &u in &threads {
                    if u != g.accesses[a].thread {
                        prop_nodes.push((a, u, node_count));
                        node_count += 1;
                    }
                }
            }
        }
    }
    let prop = |store: usize, u: usize| -> usize {
        if mca || g.accesses[store].thread == u {
            exec(store)
        } else {
            prop_nodes
                .iter()
                .find(|&&(s, t, _)| s == store && t == u)
                .map(|&(_, _, node)| node)
                .expect("prop node")
        }
    };

    let mut edges: Vec<(usize, usize)> = vec![];
    for &(store, _, node) in &prop_nodes {
        edges.push((exec(store), node));
    }

    let mut uncut = vec![];
    for i in 0..n {
        let (entry, exit) = cyc.legs[i];
        if entry != exit {
            let cut = pair_cut(g, model, entry, exit, probe);
            if cut.local {
                edges.push((exec(entry), exec(exit)));
            } else {
                uncut.push((entry, exit));
            }
            if !mca {
                let prev_exit = cyc.legs[(i + n - 1) % n].1;
                let s = if g.accesses[entry].is_store {
                    entry
                } else {
                    prev_exit
                };
                if cut.cumulative {
                    for &u in &threads {
                        edges.push((prop(s, u), prop(exit, u)));
                    }
                }
                if cut.global {
                    for &u in &threads {
                        edges.push((prop(s, u), exec(exit)));
                    }
                }
            }
        }
        let next = cyc.legs[(i + 1) % n].0;
        match cyc.comms[i] {
            CommKind::Rf => edges.push((prop(exit, g.accesses[next].thread), exec(next))),
            CommKind::Fr => edges.push((exec(exit), prop(next, g.accesses[exit].thread))),
            CommKind::Co => edges.push((exec(exit), exec(next))),
        }
    }

    CycleCheck {
        protected: has_cycle(node_count, &edges),
        uncut,
    }
}
