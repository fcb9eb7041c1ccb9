//! The memory-access program graph the static analysis runs on.
//!
//! A [`ProgramGraph`] is the shared-memory skeleton of a concurrent
//! program: per-thread sequences of loads/stores/RMWs over interned
//! locations, fence markers sitting *between* accesses, and explicit
//! dependency annotations. Two frontends build it:
//!
//! * [`ProgramGraph::from_litmus`] — from a `wmm-litmus` test, so static
//!   verdicts can be cross-validated against the dynamic explorer;
//! * [`ProgramGraph::from_streams`] — from platform-lowered instruction
//!   streams (the JVM JIT output, kernel macro-site streams), so shipped
//!   fencing strategies get the same treatment.
//!
//! Instruction streams carry no dependency information (`Instr` has no
//! register semantics), so stream frontends pass [`StreamDep`] annotations
//! describing the dependencies the surrounding idiom establishes.

use wmm_litmus::ops::{DepKind, FClass, LOp, LitmusTest};
use wmm_sim::isa::{Instr, Loc};

/// One shared-memory access.
// The four flags are two role bits (load/store, both for RMWs) and the
// ldar/stlr attributes — independent axes, not a disguised state machine.
#[allow(clippy::struct_excessive_bools)]
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Owning thread.
    pub thread: usize,
    /// Index among the thread's accesses (program-order position).
    pub pos: usize,
    /// Has a load role (loads and RMWs).
    pub is_load: bool,
    /// Has a store role (stores and RMWs).
    pub is_store: bool,
    /// Interned location id (index into [`ProgramGraph::loc_names`]).
    pub loc: usize,
    /// Whether other threads can observe this location.
    pub shared: bool,
    /// Acquire attribute (`ldar`).
    pub acquire: bool,
    /// Release attribute (`stlr`).
    pub release: bool,
}

impl Access {
    /// The store-role alternatives this access can play in a fence-coverage
    /// question: `[true]` for stores, `[false]` for loads, both for RMWs.
    #[must_use]
    pub fn roles(&self) -> &'static [bool] {
        match (self.is_store, self.is_load) {
            (true, true) => &[true, false],
            (true, false) => &[true],
            _ => &[false],
        }
    }

    /// Short label: `W` / `R` / `U` (update) plus the location name.
    #[must_use]
    pub(crate) fn label(&self, loc_names: &[String]) -> String {
        let role = match (self.is_store, self.is_load) {
            (true, true) => "U",
            (true, false) => "W",
            _ => "R",
        };
        format!("{role}{}", loc_names[self.loc])
    }
}

/// A fence marker between two accesses of one thread.
#[derive(Debug, Clone)]
pub struct FenceNode {
    /// Owning thread.
    pub thread: usize,
    /// Number of accesses of the thread that precede the fence: the fence
    /// sits between access positions `slot - 1` and `slot`.
    pub slot: usize,
    /// Semantic class.
    pub class: FClass,
    /// Mnemonic for reports (`dmb ish`, `lwsync`, …).
    pub mnemonic: String,
}

/// A dependency annotation for a stream frontend: instruction `from` (a
/// load) orders instruction `to` within `thread`, with litmus semantics.
#[derive(Debug, Clone, Copy)]
pub struct StreamDep {
    /// Thread index.
    pub thread: usize,
    /// Source instruction index (must be a load or RMW).
    pub from: usize,
    /// Dependent instruction index (must be an access).
    pub to: usize,
    /// Dependency kind.
    pub kind: DepKind,
}

/// The program graph.
#[derive(Debug, Clone)]
pub struct ProgramGraph {
    /// Program name (for reports).
    pub name: String,
    /// All accesses; ids index into this vector.
    pub accesses: Vec<Access>,
    /// Access ids per thread, in program order.
    pub threads: Vec<Vec<usize>>,
    /// Fence markers.
    pub fences: Vec<FenceNode>,
    /// Dependencies between same-thread accesses `(from, to, kind)`, by
    /// access id.
    pub deps: Vec<(usize, usize, DepKind)>,
    /// Interned location names.
    pub loc_names: Vec<String>,
}

fn litmus_var_name(v: usize) -> String {
    match v {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        n => format!("v{n}"),
    }
}

fn fclass_mnemonic(class: FClass) -> &'static str {
    match class {
        FClass::Full => "dmb ish/sync",
        FClass::LwSync => "lwsync",
        FClass::StSt => "dmb ishst",
        FClass::LdLdSt => "dmb ishld",
    }
}

fn loc_name(loc: Loc) -> String {
    match loc {
        Loc::Private(n) => format!("p{n:x}"),
        Loc::SharedRo(n) => format!("ro{n:x}"),
        Loc::SharedRw(n) => format!("g{n:x}"),
    }
}

impl ProgramGraph {
    /// Build the graph of a litmus test. Variables intern as locations
    /// `x, y, z, w, v4…`; load- and store-side dependencies both carry over.
    pub fn from_litmus(test: &LitmusTest) -> Self {
        let nvars = test.num_vars();
        let mut g = ProgramGraph {
            name: test.name.clone(),
            accesses: vec![],
            threads: vec![],
            fences: vec![],
            deps: vec![],
            loc_names: (0..nvars).map(litmus_var_name).collect(),
        };
        for (t, ops) in test.threads.iter().enumerate() {
            let mut ids: Vec<usize> = vec![];
            let mut op_to_access: Vec<Option<usize>> = vec![None; ops.len()];
            for (j, op) in ops.iter().enumerate() {
                match *op {
                    LOp::Store { var, release, .. } => {
                        let id = g.accesses.len();
                        g.accesses.push(Access {
                            thread: t,
                            pos: ids.len(),
                            is_load: false,
                            is_store: true,
                            loc: var,
                            shared: true,
                            acquire: false,
                            release,
                        });
                        op_to_access[j] = Some(id);
                        ids.push(id);
                    }
                    LOp::Load { var, acquire, .. } => {
                        let id = g.accesses.len();
                        g.accesses.push(Access {
                            thread: t,
                            pos: ids.len(),
                            is_load: true,
                            is_store: false,
                            loc: var,
                            shared: true,
                            acquire,
                            release: false,
                        });
                        op_to_access[j] = Some(id);
                        ids.push(id);
                    }
                    LOp::Fence(class) => g.fences.push(FenceNode {
                        thread: t,
                        slot: ids.len(),
                        class,
                        mnemonic: fclass_mnemonic(class).into(),
                    }),
                }
            }
            for (j, _) in ops.iter().enumerate() {
                if let Some((src, kind)) = test.dep_of(t, j) {
                    if let (Some(from), Some(to)) = (op_to_access[src], op_to_access[j]) {
                        g.deps.push((from, to, kind));
                    }
                }
            }
            g.threads.push(ids);
        }
        g
    }

    /// Parallel composition: the disjoint union of `parts` as one
    /// multi-function program. Threads concatenate in part order and each
    /// part's locations are re-interned under a `f{i}.` prefix, so parts
    /// share no location even when names collide — every critical cycle
    /// of the union lies inside a single part, which is what makes the
    /// whole-program analysis decompose it exactly.
    #[must_use]
    pub fn disjoint_union(name: impl Into<String>, parts: &[&ProgramGraph]) -> Self {
        let mut g = ProgramGraph {
            name: name.into(),
            accesses: vec![],
            threads: vec![],
            fences: vec![],
            deps: vec![],
            loc_names: vec![],
        };
        for (i, part) in parts.iter().enumerate() {
            let access_off = g.accesses.len();
            let thread_off = g.threads.len();
            let loc_off = g.loc_names.len();
            g.loc_names
                .extend(part.loc_names.iter().map(|n| format!("f{i}.{n}")));
            for a in &part.accesses {
                let mut a = *a;
                a.thread += thread_off;
                a.loc += loc_off;
                g.accesses.push(a);
            }
            for ids in &part.threads {
                g.threads
                    .push(ids.iter().map(|&id| id + access_off).collect());
            }
            for f in &part.fences {
                let mut f = f.clone();
                f.thread += thread_off;
                g.fences.push(f);
            }
            for &(from, to, kind) in &part.deps {
                g.deps.push((from + access_off, to + access_off, kind));
            }
        }
        g
    }

    /// Build the graph of platform-lowered instruction streams.
    ///
    /// `Load`/`Store` become accesses (with their acquire/release
    /// attributes), `Cas` becomes an RMW access, fences map through
    /// [`FClass::of_fence`] (compiler barriers and bare `isb` carry no
    /// inter-thread ordering and vanish). Private accesses cannot conflict
    /// and are dropped. `deps` indices refer to instruction positions
    /// within each stream.
    pub fn from_streams(
        name: impl Into<String>,
        threads: &[Vec<Instr>],
        deps: &[StreamDep],
    ) -> Self {
        let mut g = ProgramGraph {
            name: name.into(),
            accesses: vec![],
            threads: vec![],
            fences: vec![],
            deps: vec![],
            loc_names: vec![],
        };
        let mut locs: Vec<Loc> = vec![];
        let intern = |locs: &mut Vec<Loc>, names: &mut Vec<String>, l: Loc| -> usize {
            if let Some(i) = locs.iter().position(|&k| k == l) {
                return i;
            }
            locs.push(l);
            names.push(loc_name(l));
            locs.len() - 1
        };
        let mut instr_to_access: Vec<Vec<Option<usize>>> = vec![];
        for (t, instrs) in threads.iter().enumerate() {
            let mut ids: Vec<usize> = vec![];
            let mut map: Vec<Option<usize>> = vec![None; instrs.len()];
            for (j, instr) in instrs.iter().enumerate() {
                let acc = match *instr {
                    Instr::Load { loc, ord } => Some((true, false, loc, ord)),
                    Instr::Store { loc, ord } => Some((false, true, loc, ord)),
                    Instr::Cas { loc, .. } => {
                        Some((true, true, loc, wmm_sim::isa::AccessOrd::Plain))
                    }
                    Instr::Fence(kind) => {
                        if let Some(class) = FClass::of_fence(kind) {
                            g.fences.push(FenceNode {
                                thread: t,
                                slot: ids.len(),
                                class,
                                mnemonic: format!("{kind:?}"),
                            });
                        }
                        None
                    }
                    _ => None,
                };
                if let Some((is_load, is_store, loc, ord)) = acc {
                    if matches!(loc, Loc::Private(_)) {
                        continue;
                    }
                    let id = g.accesses.len();
                    g.accesses.push(Access {
                        thread: t,
                        pos: ids.len(),
                        is_load,
                        is_store,
                        loc: intern(&mut locs, &mut g.loc_names, loc),
                        shared: true,
                        acquire: ord == wmm_sim::isa::AccessOrd::Acquire,
                        release: ord == wmm_sim::isa::AccessOrd::Release,
                    });
                    map[j] = Some(id);
                    ids.push(id);
                }
            }
            g.threads.push(ids);
            instr_to_access.push(map);
        }
        for d in deps {
            if let (Some(from), Some(to)) = (
                instr_to_access[d.thread][d.from],
                instr_to_access[d.thread][d.to],
            ) {
                g.deps.push((from, to, d.kind));
            }
        }
        g
    }

    /// Dependency from access `a` to access `b`, if annotated.
    #[must_use]
    pub fn dep_between(&self, a: usize, b: usize) -> Option<DepKind> {
        self.deps
            .iter()
            .find(|&&(f, t, _)| f == a && t == b)
            .map(|&(_, _, k)| k)
    }

    /// Human-readable access description, e.g. `t1:Rx`.
    #[must_use]
    pub(crate) fn describe(&self, id: usize) -> String {
        let a = &self.accesses[id];
        format!("t{}:{}", a.thread, a.label(&self.loc_names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::suite;
    use wmm_sim::isa::{AccessOrd, FenceKind};

    #[test]
    fn litmus_mp_graph_shape() {
        let entry = suite::mp_fences();
        let g = ProgramGraph::from_litmus(&entry.test);
        assert_eq!(g.threads.len(), 2);
        assert_eq!(g.accesses.len(), 4);
        assert_eq!(g.fences.len(), 2);
        // The writer's fence sits between its two stores.
        assert_eq!((g.fences[0].thread, g.fences[0].slot), (0, 1));
        assert_eq!(g.describe(g.threads[0][0]), "t0:Wx");
        assert_eq!(g.describe(g.threads[1][1]), "t1:Rx");
    }

    #[test]
    fn litmus_deps_carry_over_both_sides() {
        // LB+datas has store-side deps; MP+dmb.st+addr a load-side dep.
        let lb = ProgramGraph::from_litmus(&suite::lb_deps().test);
        assert_eq!(lb.deps.len(), 2);
        let mp = ProgramGraph::from_litmus(&suite::mp_dmbst_addr().test);
        assert_eq!(mp.deps.len(), 1);
        assert_eq!(mp.deps[0].2, DepKind::Addr);
    }

    #[test]
    fn stream_frontend_interns_and_maps_fences() {
        let threads = vec![
            vec![
                Instr::Store {
                    loc: Loc::SharedRw(1),
                    ord: AccessOrd::Plain,
                },
                Instr::Fence(FenceKind::DmbIshSt),
                Instr::Fence(FenceKind::Compiler),
                Instr::Store {
                    loc: Loc::SharedRw(2),
                    ord: AccessOrd::Plain,
                },
            ],
            vec![
                Instr::Load {
                    loc: Loc::SharedRw(2),
                    ord: AccessOrd::Plain,
                },
                Instr::Load {
                    loc: Loc::SharedRw(1),
                    ord: AccessOrd::Plain,
                },
            ],
        ];
        let deps = [StreamDep {
            thread: 1,
            from: 0,
            to: 1,
            kind: DepKind::Addr,
        }];
        let g = ProgramGraph::from_streams("mp-stream", &threads, &deps);
        assert_eq!(g.accesses.len(), 4);
        assert_eq!(g.fences.len(), 1, "compiler barrier has no class");
        assert_eq!(g.fences[0].class, FClass::StSt);
        assert_eq!(g.deps.len(), 1);
        // Locations intern by value: both threads see the same two ids.
        assert_eq!(
            g.accesses[g.threads[0][0]].loc,
            g.accesses[g.threads[1][1]].loc
        );
    }

    #[test]
    fn private_accesses_are_dropped() {
        let threads = vec![vec![
            Instr::Store {
                loc: Loc::Private(7),
                ord: AccessOrd::Plain,
            },
            Instr::Load {
                loc: Loc::SharedRw(1),
                ord: AccessOrd::Plain,
            },
        ]];
        let g = ProgramGraph::from_streams("priv", &threads, &[]);
        assert_eq!(g.accesses.len(), 1);
        assert!(g.accesses[0].is_load);
    }

    #[test]
    fn cas_is_an_rmw() {
        let threads = vec![vec![Instr::Cas {
            loc: Loc::SharedRw(3),
            success_prob: 0.9,
        }]];
        let g = ProgramGraph::from_streams("cas", &threads, &[]);
        assert!(g.accesses[0].is_load && g.accesses[0].is_store);
        assert_eq!(g.accesses[0].roles(), [true, false]);
    }

    #[test]
    fn disjoint_union_keeps_parts_separate() {
        use wmm_litmus::suite;
        let sb = ProgramGraph::from_litmus(&suite::store_buffering().test);
        let mp = ProgramGraph::from_litmus(&suite::message_passing().test);
        let u = ProgramGraph::disjoint_union("sb+mp", &[&sb, &mp]);
        assert_eq!(u.threads.len(), 4);
        assert_eq!(u.accesses.len(), sb.accesses.len() + mp.accesses.len());
        // Same variable names in both parts intern as distinct locations.
        assert_eq!(u.loc_names.len(), sb.loc_names.len() + mp.loc_names.len());
        assert!(u.loc_names.iter().any(|n| n == "f0.x"));
        assert!(u.loc_names.iter().any(|n| n == "f1.x"));
        // Access ids, thread ids and positions stay consistent.
        for (t, ids) in u.threads.iter().enumerate() {
            for (pos, &id) in ids.iter().enumerate() {
                assert_eq!(u.accesses[id].thread, t);
                assert_eq!(u.accesses[id].pos, pos);
            }
        }
        // The union has exactly the parts' cycles: one from SB, one from MP.
        assert_eq!(crate::cycles::critical_cycles(&u).len(), 2);
    }
}
