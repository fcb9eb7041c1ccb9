//! Minimal-cost fence synthesis: the inverse of the protection check.
//!
//! Given a program graph and a target model, find the cheapest set of
//! ordering *instruments* — fences, acquire/release upgrades, artificial
//! dependencies — that protects every critical cycle. This is the
//! automatic-insertion direction of Alglave et al.'s "Don't sit on the
//! fence", priced with the paper's Eq. 1/Eq. 2 cost model instead of an
//! abstract instruction count.
//!
//! ## Formulation
//!
//! Protection is decided by [`crate::check`]: a cycle is protected iff its
//! constraint graph is contradictory. Two facts shape the encoding:
//!
//! 1. On multi-copy-atomic models the constraint graph closes **iff every
//!    multi-access program-order leg is locally cut** — comm edges only
//!    run from a leg's exit to the next leg's entry, so the only way
//!    across a leg is its own `exec(entry) < exec(exit)` edge. Local cuts
//!    everywhere are therefore *necessary and sufficient* on SC/TSO/ARMv8.
//! 2. On POWER they are necessary but not sufficient (IRIW needs the
//!    *global* strength of `sync`), and the extra requirement depends on
//!    the interaction of cumulativity edges across threads — awkward to
//!    encode eagerly, cheap to discover lazily.
//!
//! So the solver runs a weighted minimum-hitting-set over constraints
//! "this pair needs one of these candidates", seeded with the local-cut
//! constraints, and **lazily** adds a constraint whenever the exact
//! [`check_cycle`] verdict rejects a trial placement: the new constraint
//! is the set of unchosen candidates that add any strength bit
//! (local/cumulative/global) to some leg of the failing cycle beyond what
//! the trial placement provides. Since per-leg strength is monotone in the
//! instrument set, any feasible superset must contain one of those
//! candidates, and each round strictly excludes the current trial, so the
//! loop terminates.
//!
//! The hitting set itself is solved exactly by branch-and-bound (cycle
//! counts are small), seeded with a greedy upper bound. Cost is summed
//! over *distinct* instruments, so bundles (the `RCsc` `stlr; ldar` pair)
//! share price with their parts. Ties are broken deterministically:
//! among equal-cost solutions the lexicographically smallest instrument
//! key vector wins, and instrument keys rank weaker fence kinds first —
//! which is what lets synthesis rediscover `dmb ishst`/`dmb ishld` even
//! though idle-machine microbenchmarks cannot separate the `dmb` variants
//! (the sim's `micro_timing_cannot_distinguish_dmb_variants` property).
//!
//! ## Searching without instrumented graphs
//!
//! Candidates are judged on pair cuts, never on a rebuilt graph. A
//! `PairView` ([`crate::check`]) holds one program-order pair's two
//! accesses, its dependency and what the fences between them contribute;
//! `overlay` applies a bundle to the view exactly as [`apply_to_graph`]
//! would apply it to the graph, so the pair's cut is the same either way
//! (a property test in this module holds the two equal). Candidate
//! enumeration, the eager local-cut filter and the lazy escape sets all
//! run on views; a pair shared by several cycles is enumerated once. A
//! round judges its trial placement the same way: the exact cycle check
//! reads each leg's cut from the pair view with the placement overlaid,
//! so no round builds a graph.
//!
//! The candidates, the per-leg local-cut sets and their interned form
//! make up one instance per set of open cycles. Whole-program synthesis
//! ([`crate::wps`]) builds it once for both of its tiers: the approximate
//! tier seeds eager constraints from the first `k` legs of each cycle,
//! the exact tier from all of them, in the same order and with the same
//! deduplication.
//!
//! Branch-and-bound runs on interned instruments: every distinct
//! instrument gets a dense id, ids follow the tie-break key order, and
//! each is priced once. The search keeps how many chosen candidates hold
//! each instrument and how many each constraint holds, so pricing a
//! branch and finding the next unhit constraint are counter reads; an
//! incumbent's sorted id vector, which orders as its sorted key vector
//! does, is only gathered when its cost wins or ties. A brute-force
//! subset search on random instances checks the minimum and its
//! tie-break.

use std::collections::HashMap;

use wmm_litmus::ops::{DepKind, FClass, ModelKind};
use wmm_litmus::rewrite::Reinforce;
use wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};
use wmmbench::model::{estimate_cost, predicted_performance};

use crate::check::{check_cycle, check_cycle_cut, PairCut, PairView};
use crate::cycles::{critical_cycles, CriticalCycle};
use crate::graph::{FenceNode, ProgramGraph, StreamDep};

/// One synthesized ordering instrument, addressed by access position
/// (the [`crate::graph::Access::pos`] coordinate system, portable across
/// the litmus and stream frontends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instrument {
    /// A fence of `kind` between access positions `slot - 1` and `slot`.
    Fence {
        /// Thread index.
        thread: usize,
        /// Fence slot (number of preceding accesses).
        slot: usize,
        /// Concrete fence instruction.
        kind: FenceKind,
    },
    /// Upgrade the load at `pos` to acquire (`ldar`).
    Acquire {
        /// Thread index.
        thread: usize,
        /// Access position.
        pos: usize,
    },
    /// Upgrade the store at `pos` to release (`stlr`).
    Release {
        /// Thread index.
        thread: usize,
        /// Access position.
        pos: usize,
    },
    /// An artificial syntactic dependency (load `from_pos` → `to_pos`).
    Dep {
        /// Thread index.
        thread: usize,
        /// Source access position (a load).
        from_pos: usize,
        /// Dependent access position.
        to_pos: usize,
        /// Dependency kind.
        kind: DepKind,
    },
}

/// Deterministic rank of a fence kind: weaker (cheaper under the paper's
/// Eq. 2 costs) kinds first, so cost ties resolve toward the weakest
/// sufficient fence.
fn fence_rank(kind: FenceKind) -> u8 {
    match kind {
        FenceKind::Compiler => 0,
        FenceKind::DmbIshSt => 1,
        FenceKind::DmbIshLd => 2,
        FenceKind::LwSync => 3,
        FenceKind::DmbIsh => 4,
        FenceKind::HwSync => 5,
        FenceKind::Isb => 6,
    }
}

fn dep_rank(kind: DepKind) -> u8 {
    match kind {
        DepKind::Addr => 0,
        DepKind::Data => 1,
        DepKind::Ctrl => 2,
        DepKind::CtrlIsb => 3,
    }
}

impl Instrument {
    /// Total-order key: thread, then position, then instrument tag, then
    /// kind rank. The solver's tie-breaking compares sorted key vectors.
    fn key(&self) -> (usize, usize, u8, usize, u8) {
        match *self {
            Instrument::Fence { thread, slot, kind } => (thread, slot, 0, slot, fence_rank(kind)),
            Instrument::Acquire { thread, pos } => (thread, pos, 1, pos, 0),
            Instrument::Release { thread, pos } => (thread, pos, 2, pos, 0),
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => (thread, from_pos, 3, to_pos, dep_rank(kind)),
        }
    }

    /// Human-readable description, e.g. `t1 slot1: dmb ishld`.
    #[must_use]
    pub(crate) fn describe(&self) -> String {
        match *self {
            Instrument::Fence { thread, slot, kind } => {
                format!("t{thread} slot{slot}: {}", kind.mnemonic())
            }
            Instrument::Acquire { thread, pos } => format!("t{thread} acq@{pos}"),
            Instrument::Release { thread, pos } => format!("t{thread} rel@{pos}"),
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => format!("t{thread} dep {kind:?} {from_pos}->{to_pos}"),
        }
    }
}

impl PartialOrd for Instrument {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instrument {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Static per-instrument cost table (ns per invocation): the paper's
/// Eq. 2-inferred costs on the ARM/POWER test machines. These are the
/// fallback weights when no measured cost is available or pricing fails
/// the finiteness guard — and deliberately the *default* weights for the
/// `dmb` variants, which idle-machine micro-timing cannot separate.
const STATIC_FENCE_NS: [(FenceKind, f64); 7] = [
    (FenceKind::DmbIsh, 17.0),
    (FenceKind::DmbIshLd, 4.1),
    (FenceKind::DmbIshSt, 2.3),
    (FenceKind::Isb, 24.5),
    (FenceKind::HwSync, 18.9),
    (FenceKind::LwSync, 6.1),
    (FenceKind::Compiler, 0.0),
];
const STATIC_ACQUIRE_NS: f64 = 2.0;
const STATIC_RELEASE_NS: f64 = 2.5;
const STATIC_DEP_NS: f64 = 0.5;

/// Eq. 1/Eq. 2 round-trip pricing with the same finiteness discipline as
/// [`crate::report::Analysis::with_savings`]: a non-finite or non-positive
/// raw cost, a sensitivity outside `(0, 1)`, or a non-finite result falls
/// back to `raw` unchanged.
fn eq_price(k: f64, raw: f64) -> f64 {
    if raw.is_finite() && raw > 0.0 && k.is_finite() && k > 0.0 && k < 1.0 {
        let priced = estimate_cost(k, predicted_performance(k, raw));
        if priced.is_finite() && priced > 0.0 {
            return priced;
        }
    }
    raw
}

/// Instrument weights for the hitting-set objective.
// The shared `_ns` postfix is the unit, not noise — every weight in the
// model is nanoseconds per invocation.
#[allow(clippy::struct_field_names)]
#[derive(Debug, Clone)]
pub struct CostModel {
    fence_ns: [(FenceKind, f64); 7],
    acquire_ns: f64,
    release_ns: f64,
    dep_ns: f64,
}

impl CostModel {
    /// The raw static table.
    #[must_use]
    pub fn static_table() -> Self {
        CostModel {
            fence_ns: STATIC_FENCE_NS,
            acquire_ns: STATIC_ACQUIRE_NS,
            release_ns: STATIC_RELEASE_NS,
            dep_ns: STATIC_DEP_NS,
        }
    }

    /// The static table priced through the Eq. 1/Eq. 2 round trip at
    /// sensitivity `k`. An entry whose raw cost is non-finite or
    /// non-positive, a `k` outside `(0, 1)`, or a non-finite result keeps
    /// the raw entry.
    #[must_use]
    pub fn priced(k: f64) -> Self {
        let mut m = CostModel::static_table();
        for (_, ns) in &mut m.fence_ns {
            *ns = eq_price(k, *ns);
        }
        m.acquire_ns = eq_price(k, m.acquire_ns);
        m.release_ns = eq_price(k, m.release_ns);
        m.dep_ns = eq_price(k, m.dep_ns);
        m
    }

    /// Cost of one fence kind.
    #[must_use]
    pub fn fence_ns(&self, kind: FenceKind) -> f64 {
        self.fence_ns
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0.0, |&(_, ns)| ns)
    }

    /// Cost of a *classed* fence under `model`: `Full` prices as the
    /// model's full barrier, the weaker classes as their native encoding.
    #[must_use]
    pub(crate) fn class_ns(&self, class: FClass, model: ModelKind) -> f64 {
        let kind = match (class, model) {
            (FClass::Full, ModelKind::Power) => FenceKind::HwSync,
            (FClass::Full, _) => FenceKind::DmbIsh,
            (FClass::LwSync, _) => FenceKind::LwSync,
            (FClass::StSt, _) => FenceKind::DmbIshSt,
            (FClass::LdLdSt, _) => FenceKind::DmbIshLd,
        };
        self.fence_ns(kind)
    }

    /// Cost of one instrument.
    #[must_use]
    pub(crate) fn instrument_ns(&self, ins: &Instrument) -> f64 {
        match *ins {
            Instrument::Fence { kind, .. } => self.fence_ns(kind),
            Instrument::Acquire { .. } => self.acquire_ns,
            Instrument::Release { .. } => self.release_ns,
            // A bogus address dependency is an ALU op; ctrl+isb pays the
            // pipeline flush.
            Instrument::Dep { kind, .. } => {
                if kind == DepKind::CtrlIsb {
                    self.fence_ns(FenceKind::Isb)
                } else {
                    self.dep_ns
                }
            }
        }
    }
}

/// Total priced cost (ns) of the ordering instruments already present in
/// `g`: classed fences, acquire/release attributes, and dependency
/// annotations. The yardstick hand-written strategies are compared with.
#[must_use]
pub fn graph_cost(g: &ProgramGraph, model: ModelKind, costs: &CostModel) -> f64 {
    let fences: f64 = g
        .fences
        .iter()
        .map(|f| costs.class_ns(f.class, model))
        .sum();
    let attrs: f64 = g
        .accesses
        .iter()
        .map(|a| {
            f64::from(u8::from(a.acquire)) * costs.acquire_ns
                + f64::from(u8::from(a.release)) * costs.release_ns
        })
        .sum();
    let deps: f64 = g
        .deps
        .iter()
        .map(|&(_, _, k)| {
            if k == DepKind::CtrlIsb {
                costs.fence_ns(FenceKind::Isb)
            } else {
                costs.dep_ns
            }
        })
        .sum();
    fences + attrs + deps
}

/// What the target allows synthesis to place.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Target model.
    pub model: ModelKind,
    /// Offer acquire/release upgrades (`ldar`/`stlr` exist on the target).
    pub upgrades: bool,
    /// Offer artificial address dependencies.
    pub deps: bool,
}

impl SynthConfig {
    /// The natural instrument set per model: ARM-family targets get
    /// `dmb` fences plus acquire/release upgrades; POWER gets
    /// `lwsync`/`sync` plus address dependencies (no `ldar`/`stlr` in the
    /// ISA).
    #[must_use]
    pub fn for_model(model: ModelKind) -> Self {
        match model {
            ModelKind::Power => SynthConfig {
                model,
                upgrades: false,
                deps: true,
            },
            _ => SynthConfig {
                model,
                upgrades: true,
                deps: false,
            },
        }
    }

    /// Fences only — for targets whose strategy hook can only emit fence
    /// sequences (the kernel barrier macros).
    #[must_use]
    pub fn fences_only(model: ModelKind) -> Self {
        SynthConfig {
            model,
            upgrades: false,
            deps: false,
        }
    }

    /// Fence kinds available on the target, weakest first.
    fn fence_kinds(self) -> &'static [FenceKind] {
        match self.model {
            ModelKind::Power => &[FenceKind::LwSync, FenceKind::HwSync],
            _ => &[FenceKind::DmbIshSt, FenceKind::DmbIshLd, FenceKind::DmbIsh],
        }
    }
}

/// A synthesized placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The chosen instruments, sorted by key.
    pub instruments: Vec<Instrument>,
    /// Total priced cost (ns per idiom invocation) of the instruments.
    pub cost_ns: f64,
    /// Hitting-set rounds: 1 when the eager local-cut constraints
    /// sufficed, more when POWER-style lazy constraints were needed,
    /// 0 when the program was already fully protected.
    pub rounds: usize,
}

impl Placement {
    /// The placement as explorer reinforcements (for dynamic validation).
    ///
    /// # Panics
    ///
    /// Panics on a placement holding an unclassed fence (`isb`, compiler
    /// barrier) — synthesis never emits one.
    #[must_use]
    pub fn to_reinforce(&self) -> Vec<Reinforce> {
        self.instruments
            .iter()
            .map(|ins| match *ins {
                Instrument::Fence { thread, slot, kind } => Reinforce::Fence {
                    thread,
                    before: slot,
                    class: FClass::of_fence(kind).expect("synthesized fences are classed"),
                },
                Instrument::Acquire { thread, pos } => Reinforce::Acquire { thread, pos },
                Instrument::Release { thread, pos } => Reinforce::Release { thread, pos },
                Instrument::Dep {
                    thread,
                    from_pos,
                    to_pos,
                    kind,
                } => Reinforce::Dep {
                    thread,
                    from: from_pos,
                    to: to_pos,
                    kind,
                },
            })
            .collect()
    }

    /// One-line description of the placement.
    #[must_use]
    pub fn describe(&self) -> String {
        if self.instruments.is_empty() {
            "(nothing to place)".into()
        } else {
            self.instruments
                .iter()
                .map(Instrument::describe)
                .collect::<Vec<_>>()
                .join("; ")
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// A critical cycle has no candidate instrument that strengthens it —
    /// the configured instrument set cannot protect this program.
    NoCandidate {
        /// Description of the offending cycle.
        cycle: String,
    },
    /// Lazy constraint generation did not converge within the round
    /// budget (indicates a checker/enumeration mismatch, not an input
    /// problem).
    Diverged {
        /// Rounds executed before giving up.
        rounds: usize,
    },
    /// The exact branch-and-bound exhausted its node budget and the
    /// caller required a proven-minimal placement. Distinguishable from
    /// infeasibility: a feasible cover existed, it just was not proven
    /// optimal within budget.
    Timeout {
        /// Branch-and-bound nodes explored before the budget hit.
        nodes: u64,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::NoCandidate { cycle } => {
                write!(f, "no candidate instrument can protect cycle {cycle}")
            }
            SynthError::Diverged { rounds } => {
                write!(
                    f,
                    "lazy constraint generation did not converge in {rounds} rounds"
                )
            }
            SynthError::Timeout { nodes } => {
                write!(
                    f,
                    "branch-and-bound node budget exhausted after {nodes} nodes"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// Apply `instruments` to a copy of `g`. Access ids are preserved: fences
/// append as new [`FenceNode`]s (stream-style mnemonics, so pricing and
/// linting treat them like lowered fences), upgrades set the access
/// attribute, dependencies append unless the pair already has one.
///
/// # Panics
///
/// Panics on an unclassed fence kind or an out-of-range access position.
#[must_use]
pub fn apply_to_graph(g: &ProgramGraph, instruments: &[Instrument]) -> ProgramGraph {
    let mut out = g.clone();
    for ins in instruments {
        match *ins {
            Instrument::Fence { thread, slot, kind } => {
                let class = FClass::of_fence(kind).expect("synthesized fences are classed");
                out.fences.push(FenceNode {
                    thread,
                    slot,
                    class,
                    mnemonic: format!("{kind:?}"),
                });
            }
            Instrument::Acquire { thread, pos } => {
                let id = out.threads[thread][pos];
                out.accesses[id].acquire = true;
            }
            Instrument::Release { thread, pos } => {
                let id = out.threads[thread][pos];
                out.accesses[id].release = true;
            }
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => {
                let from = out.threads[thread][from_pos];
                let to = out.threads[thread][to_pos];
                if out.dep_between(from, to).is_none() {
                    out.deps.push((from, to, kind));
                }
            }
        }
    }
    out
}

/// Apply a placement to platform instruction streams — the inverse of
/// [`ProgramGraph::from_streams`]'s access mapping. Fences insert before
/// the shared-access instruction at their slot (appending at the end of
/// the stream when the slot equals the access count), upgrades rewrite
/// the access's ordering attribute, and dependencies come back as
/// [`StreamDep`] annotations against the *rewritten* streams.
///
/// # Panics
///
/// Panics when an instrument addresses a position the streams do not
/// have, or upgrades an instruction of the wrong role.
#[must_use]
pub fn apply_to_streams(
    threads: &[Vec<Instr>],
    instruments: &[Instrument],
) -> (Vec<Vec<Instr>>, Vec<StreamDep>) {
    let mut out: Vec<Vec<Instr>> = threads.to_vec();

    // Shared-access instruction indices per thread, mirroring the
    // from_streams access mapping (private accesses are not accesses).
    let access_idx = |stream: &[Instr]| -> Vec<usize> {
        stream
            .iter()
            .enumerate()
            .filter(|(_, i)| {
                matches!(
                    i,
                    Instr::Load { loc, .. } | Instr::Store { loc, .. } | Instr::Cas { loc, .. }
                    if !matches!(loc, Loc::Private(_))
                )
            })
            .map(|(j, _)| j)
            .collect()
    };

    // Fences first (descending slot, so earlier insertions don't shift
    // later ones); same-slot fences insert in ascending rank order.
    let mut fences: Vec<(usize, usize, FenceKind)> = instruments
        .iter()
        .filter_map(|ins| match *ins {
            Instrument::Fence { thread, slot, kind } => Some((thread, slot, kind)),
            _ => None,
        })
        .collect();
    fences.sort_by_key(|&(t, slot, kind)| (t, std::cmp::Reverse((slot, fence_rank(kind)))));
    for (t, slot, kind) in fences {
        let idx = access_idx(&out[t]);
        let at = if slot == idx.len() {
            out[t].len()
        } else {
            idx[slot]
        };
        out[t].insert(at, Instr::Fence(kind));
    }

    // Upgrades and dependencies against post-insertion indices.
    let maps: Vec<Vec<usize>> = out.iter().map(|s| access_idx(s)).collect();
    let mut deps: Vec<StreamDep> = vec![];
    for ins in instruments {
        match *ins {
            Instrument::Fence { .. } => {}
            Instrument::Acquire { thread, pos } => match &mut out[thread][maps[thread][pos]] {
                Instr::Load { ord, .. } => *ord = AccessOrd::Acquire,
                other => panic!("acquire upgrade on a non-load: {other:?}"),
            },
            Instrument::Release { thread, pos } => match &mut out[thread][maps[thread][pos]] {
                Instr::Store { ord, .. } => *ord = AccessOrd::Release,
                other => panic!("release upgrade on a non-store: {other:?}"),
            },
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => deps.push(StreamDep {
                thread,
                from: maps[thread][from_pos],
                to: maps[thread][to_pos],
                kind,
            }),
        }
    }
    (out, deps)
}

/// `view` with `extra` applied the way [`apply_to_graph`] applies it, so
/// `overlay(PairView::of(g, a, b, None), extra).cut(model)` equals
/// `PairView::of(&apply_to_graph(g, extra), a, b, None).cut(model)` without
/// building the graph: only fences on the pair's thread inside its slot
/// range, upgrades of its two accesses and a dependency between exactly
/// them can change its cut, and a dependency lands only where the pair
/// has none yet (the graph's, else the first in `extra`).
fn overlay(mut view: PairView, extra: &[Instrument]) -> PairView {
    let (t, a_pos, b_pos) = (view.a.thread, view.a.pos, view.b.pos);
    for ins in extra {
        match *ins {
            Instrument::Fence { thread, slot, kind } => {
                let class = FClass::of_fence(kind).expect("synthesized fences are classed");
                if thread == t && a_pos < slot && slot <= b_pos {
                    view.add_fence(class);
                }
            }
            Instrument::Acquire { thread, pos } if thread == t => {
                if pos == a_pos {
                    view.a.acquire = true;
                } else if pos == b_pos {
                    view.b.acquire = true;
                }
            }
            Instrument::Release { thread, pos } if thread == t => {
                if pos == a_pos {
                    view.a.release = true;
                } else if pos == b_pos {
                    view.b.release = true;
                }
            }
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => {
                if view.dep.is_none() && thread == t && from_pos == a_pos && to_pos == b_pos {
                    view.dep = Some(kind);
                }
            }
            Instrument::Acquire { .. } | Instrument::Release { .. } => {}
        }
    }
    view
}

/// Enumerate the candidate bundles that could strengthen the pair `view`
/// describes, validated against the constraint-check semantics: a bundle
/// is a candidate iff [`overlay`]ing it changes the pair's [`PairCut`]
/// strength. Returned in canonical order (slots ascending, fence kinds
/// weakest first, then upgrades, the `RCsc` pair, dependencies).
fn pair_candidates(view: PairView, cfg: SynthConfig) -> Vec<Vec<Instrument>> {
    let model = cfg.model;
    let base = view.cut(model);
    let (a, b) = (&view.a, &view.b);
    let thread = a.thread;

    let mut bundles: Vec<Vec<Instrument>> = vec![];
    for slot in (a.pos + 1)..=b.pos {
        for &kind in cfg.fence_kinds() {
            bundles.push(vec![Instrument::Fence { thread, slot, kind }]);
        }
    }
    if cfg.upgrades {
        if a.is_load && !a.acquire {
            bundles.push(vec![Instrument::Acquire { thread, pos: a.pos }]);
        }
        if b.is_store && !b.release {
            bundles.push(vec![Instrument::Release { thread, pos: b.pos }]);
        }
        // The RCsc stlr;ldar pair: one bundle, shared-priced with its
        // parts when both ends are reused.
        if a.is_store && !a.release && b.is_load && !b.acquire {
            bundles.push(vec![
                Instrument::Release { thread, pos: a.pos },
                Instrument::Acquire { thread, pos: b.pos },
            ]);
        }
    }
    if cfg.deps && a.is_load && view.dep.is_none() {
        bundles.push(vec![Instrument::Dep {
            thread,
            from_pos: a.pos,
            to_pos: b.pos,
            kind: DepKind::Addr,
        }]);
    }

    bundles.retain(|bundle| overlay(view, bundle).cut(model).stronger_than(base));
    bundles
}

/// The multi-access program-order legs of a cycle.
fn po_legs(cyc: &CriticalCycle) -> Vec<(usize, usize)> {
    cyc.legs.iter().copied().filter(|&(e, x)| e != x).collect()
}

/// Default branch-and-bound node budget: far above anything the litmus
/// suite or the generated corpus needs (the worst in-tree instance
/// explores a few thousand nodes), so [`synthesize`] behaves exactly as
/// the previously unbounded solver on every existing input while still
/// terminating on adversarial ones.
pub(crate) const DEFAULT_NODE_BUDGET: u64 = 1 << 22;

/// How to run the hitting-set solve.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Branch-and-bound node budget (counted once per `branch` entry).
    pub node_budget: u64,
    /// Skip branch-and-bound entirely: take the greedy upper bound as the
    /// solution (the approximate tier). Always feasible, never proven
    /// minimal.
    pub greedy_only: bool,
    /// Reorder bound `k`: per open cycle, only the first `k` multi-access
    /// legs contribute eager constraints. Lazy constraint generation
    /// repairs any cycle a trial placement leaves open, so the result is
    /// still sound — the bound only shrinks the instances handed to the
    /// solver.
    pub reorder_bound: Option<usize>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            node_budget: DEFAULT_NODE_BUDGET,
            greedy_only: false,
            reorder_bound: None,
        }
    }
}

impl SolverOptions {
    /// The exact tier: full eager constraints, branch-and-bound under
    /// `node_budget` nodes.
    #[must_use]
    pub fn exact(node_budget: u64) -> Self {
        SolverOptions {
            node_budget,
            ..SolverOptions::default()
        }
    }

    /// The reorder-bounded approximate tier: `k` eager legs per cycle,
    /// greedy-UB solve only.
    #[must_use]
    pub fn approx(k: usize) -> Self {
        SolverOptions {
            node_budget: 0,
            greedy_only: true,
            reorder_bound: Some(k),
        }
    }
}

/// What a synthesis run produced and how much trust it carries.
#[derive(Debug, Clone)]
pub enum SynthOutcome {
    /// Proven-minimal placement: branch-and-bound completed within budget
    /// on every round.
    Exact {
        /// The minimal-cost placement.
        placement: Placement,
        /// Total branch-and-bound nodes explored across rounds.
        nodes: u64,
    },
    /// Greedy-tier placement: feasible (every cycle protected) but an
    /// upper bound only.
    Approx {
        /// The feasible placement.
        placement: Placement,
    },
    /// The node budget ran out on some round: the placement is feasible
    /// (validated like any other) but not proven minimal.
    Timeout {
        /// Best feasible placement found.
        placement: Placement,
        /// Nodes explored when the budget hit.
        nodes: u64,
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl SynthOutcome {
    /// Consume the outcome, keeping the placement.
    #[must_use]
    pub(crate) fn into_placement(self) -> Placement {
        match self {
            SynthOutcome::Exact { placement, .. }
            | SynthOutcome::Approx { placement }
            | SynthOutcome::Timeout { placement, .. } => placement,
        }
    }
}

/// The candidate bundles on interned instruments: every distinct
/// instrument gets a dense id, and ids follow [`Instrument::key`] order,
/// so a sorted id vector compares exactly as the sorted key vector of the
/// same instruments.
struct Interned {
    /// Instrument of each id, in key order.
    instruments: Vec<Instrument>,
    /// Priced cost of each id.
    price: Vec<f64>,
    /// Each candidate bundle as ids, in bundle order.
    cands: Vec<Vec<usize>>,
}

impl Interned {
    fn new(cands: &[Vec<Instrument>], costs: &CostModel) -> Self {
        let mut instruments: Vec<Instrument> = cands.iter().flatten().copied().collect();
        instruments.sort_unstable();
        instruments.dedup();
        let id = |ins: &Instrument| {
            instruments
                .binary_search(ins)
                .expect("every bundle instrument is interned")
        };
        let cands = cands.iter().map(|c| c.iter().map(id).collect()).collect();
        let price = instruments.iter().map(|i| costs.instrument_ns(i)).collect();
        Interned {
            instruments,
            price,
            cands,
        }
    }
}

/// Exact weighted hitting set by branch-and-bound with a greedy seed.
/// Cost of a solution is the priced sum over its *distinct* instruments.
/// Deterministic: among equal-cost solutions the lexicographically
/// smallest sorted instrument-key vector wins.
///
/// The search state is counted, not searched: `uses` says how many chosen
/// candidates hold each instrument (so an instrument is paid for while it
/// is non-zero) and `hits` how many chosen candidates each constraint
/// holds (so a constraint is unhit while it is zero).
struct HittingSet<'a> {
    inst: &'a Interned,
    constraints: &'a [Vec<usize>],
    /// The constraints each candidate appears in.
    cand_constraints: Vec<Vec<usize>>,
    uses: Vec<u32>,
    hits: Vec<u32>,
    chosen: Vec<usize>,
    best_cost: f64,
    /// Sorted instrument ids of the best solution.
    best_ids: Vec<usize>,
    nodes: u64,
    budget: u64,
    out_of_budget: bool,
}

const EPS: f64 = 1e-9;

impl<'a> HittingSet<'a> {
    fn new(inst: &'a Interned, constraints: &'a [Vec<usize>], budget: u64) -> Self {
        let mut cand_constraints = vec![vec![]; inst.cands.len()];
        for (c, set) in constraints.iter().enumerate() {
            for &ci in set {
                cand_constraints[ci].push(c);
            }
        }
        HittingSet {
            inst,
            constraints,
            cand_constraints,
            uses: vec![0; inst.instruments.len()],
            hits: vec![0; constraints.len()],
            chosen: vec![],
            best_cost: f64::INFINITY,
            best_ids: vec![],
            nodes: 0,
            budget,
            out_of_budget: false,
        }
    }

    /// Price of the instruments of candidate `ci` not yet paid for.
    fn marginal(&self, ci: usize) -> f64 {
        self.inst.cands[ci]
            .iter()
            .filter(|&&id| self.uses[id] == 0)
            .map(|&id| self.inst.price[id])
            .sum()
    }

    fn choose(&mut self, ci: usize) {
        for &id in &self.inst.cands[ci] {
            self.uses[id] += 1;
        }
        for &c in &self.cand_constraints[ci] {
            self.hits[c] += 1;
        }
        self.chosen.push(ci);
    }

    fn unchoose(&mut self) {
        let ci = self.chosen.pop().expect("a chosen candidate");
        for &id in &self.inst.cands[ci] {
            self.uses[id] -= 1;
        }
        for &c in &self.cand_constraints[ci] {
            self.hits[c] -= 1;
        }
    }

    /// Sorted distinct instrument ids of the chosen candidates.
    fn chosen_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .chosen
            .iter()
            .flat_map(|&ci| self.inst.cands[ci].iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Offer the chosen set at `cost` as the incumbent. Its ids are only
    /// gathered when it wins on cost or ties within `EPS`.
    fn offer(&mut self, cost: f64) {
        if cost < self.best_cost - EPS {
            self.best_cost = cost;
            self.best_ids = self.chosen_ids();
        } else if (cost - self.best_cost).abs() <= EPS {
            let ids = self.chosen_ids();
            if ids < self.best_ids {
                self.best_cost = cost;
                self.best_ids = ids;
            }
        }
    }

    /// Greedy cover: repeatedly take the candidate with the best marginal
    /// cost per newly hit constraint. Seeds the branch-and-bound bound.
    fn greedy(&mut self) {
        let mut cost = 0.0;
        while self.hits.contains(&0) {
            let mut pick: Option<(f64, usize)> = None; // (score, ci)
            for ci in 0..self.inst.cands.len() {
                // A chosen candidate hits nothing new: its constraints
                // are all hit.
                let hits = self.cand_constraints[ci]
                    .iter()
                    .filter(|&&c| self.hits[c] == 0)
                    .count();
                if hits == 0 {
                    continue;
                }
                #[allow(clippy::cast_precision_loss)] // hits is tiny
                let score = self.marginal(ci) / hits as f64;
                if pick.is_none_or(|(s, _)| score < s - EPS) {
                    pick = Some((score, ci));
                }
            }
            let Some((_, ci)) = pick else {
                // A constraint with no candidates: infeasible; leave the
                // bound at infinity and let branch-and-bound report it.
                break;
            };
            cost += self.marginal(ci);
            self.choose(ci);
        }
        if !self.hits.contains(&0) {
            self.offer(cost);
        }
        while !self.chosen.is_empty() {
            self.unchoose();
        }
    }

    fn branch(&mut self, cost: f64) {
        // Explicit node budget: without it an adversarial instance keeps
        // the search alive indefinitely; with it the caller gets the best
        // incumbent so far plus a Timeout marker instead of a hang.
        if self.nodes >= self.budget {
            self.out_of_budget = true;
            return;
        }
        self.nodes += 1;
        // Cost-only pruning: suite-scale problems have a handful of
        // constraints, so a nontrivial admissible lower bound is not
        // worth the sharing-aware bookkeeping it would need.
        if cost > self.best_cost + EPS {
            return;
        }
        // Branch on the unhit constraint with the fewest candidates
        // (lowest index on ties).
        let constraints = self.constraints;
        let next = (0..constraints.len())
            .filter(|&c| self.hits[c] == 0)
            .min_by_key(|&c| (constraints[c].len(), c));
        let Some(c) = next else {
            self.offer(cost);
            return;
        };
        for &ci in &constraints[c] {
            let add_cost = self.marginal(ci);
            self.choose(ci);
            self.branch(cost + add_cost);
            self.unchoose();
        }
    }
}

/// One hitting-set solve: the chosen instruments plus how the search went.
struct SolveStats {
    instruments: Vec<Instrument>,
    nodes: u64,
    timed_out: bool,
}

fn solve_hitting_set(
    inst: &Interned,
    constraints: &[Vec<usize>],
    opts: &SolverOptions,
) -> SolveStats {
    let mut solver = HittingSet::new(inst, constraints, opts.node_budget);
    solver.greedy();
    if !opts.greedy_only {
        solver.branch(0.0);
    }
    SolveStats {
        instruments: solver
            .best_ids
            .iter()
            .map(|&id| inst.instruments[id])
            .collect(),
        nodes: solver.nodes,
        timed_out: solver.out_of_budget,
    }
}

/// Synthesize the minimal-cost placement protecting every critical cycle
/// of `g` under `cfg.model`.
///
/// # Errors
///
/// [`SynthError::NoCandidate`] when some unprotected cycle cannot be
/// strengthened by any instrument the configuration allows;
/// [`SynthError::Diverged`] if lazy constraint generation exceeds its
/// round budget (a solver bug, not an input property);
/// [`SynthError::Timeout`] if branch-and-bound exhausts the default node
/// budget (callers of this wrapper require a proven-minimal placement —
/// use [`synthesize_cycles`] to choose the solve tier or accept the
/// incumbent instead).
pub fn synthesize(
    g: &ProgramGraph,
    cfg: SynthConfig,
    costs: &CostModel,
) -> Result<Placement, SynthError> {
    let cycles = critical_cycles(g);
    match synthesize_cycles(g, &cycles, cfg, costs, &SolverOptions::default())? {
        SynthOutcome::Timeout { nodes, .. } => Err(SynthError::Timeout { nodes }),
        outcome => Ok(outcome.into_placement()),
    }
}

/// Synthesize a placement protecting every cycle in `cycles` (which must
/// be `g`'s complete critical-cycle set — e.g. from the parallel
/// whole-program enumerator) under `cfg.model`, with the solve tier
/// chosen by `opts`.
///
/// # Errors
///
/// [`SynthError::NoCandidate`] and [`SynthError::Diverged`] as for
/// [`synthesize`]; this entry never returns [`SynthError::Timeout`] —
/// budget exhaustion is reported as [`SynthOutcome::Timeout`] with the
/// best feasible incumbent.
pub fn synthesize_cycles(
    g: &ProgramGraph,
    cycles: &[CriticalCycle],
    cfg: SynthConfig,
    costs: &CostModel,
    opts: &SolverOptions,
) -> Result<SynthOutcome, SynthError> {
    let open: Vec<&CriticalCycle> = cycles
        .iter()
        .filter(|c| !check_cycle(g, cfg.model, c).protected)
        .collect();
    Instance::new(g, cfg, costs, &open).solve(opts)
}

/// The hitting-set instance of a set of open cycles, shared by both
/// solver tiers: the candidate bundles of every multi-access leg,
/// interned, and per leg the candidates that cut it locally. The tiers
/// differ only in which legs seed eager constraints
/// ([`Instance::solve`]).
pub(crate) struct Instance<'a> {
    g: &'a ProgramGraph,
    cfg: SynthConfig,
    costs: &'a CostModel,
    /// The cycles of `g`'s complete set that `cfg.model` leaves open.
    open: &'a [&'a CriticalCycle],
    /// Candidate bundles, in first-enumeration order.
    cands: Vec<Vec<Instrument>>,
    interned: Interned,
    /// Per distinct pair: the candidates that cut it locally, or `None`
    /// when it is locally cut already.
    locals: Vec<Option<Vec<usize>>>,
    /// Per open cycle, per multi-access leg in order: its pair's index
    /// into `locals`.
    leg_pairs: Vec<Vec<usize>>,
}

impl<'a> Instance<'a> {
    /// Enumerate the candidates of every multi-access leg of every open
    /// cycle. A pair shared by several cycles is enumerated once.
    pub(crate) fn new(
        g: &'a ProgramGraph,
        cfg: SynthConfig,
        costs: &'a CostModel,
        open: &'a [&'a CriticalCycle],
    ) -> Self {
        let model = cfg.model;
        let mut cands: Vec<Vec<Instrument>> = vec![];
        let mut cand_ids: HashMap<Vec<Instrument>, usize> = HashMap::new();
        let mut locals: Vec<Option<Vec<usize>>> = vec![];
        let mut pair_ids: HashMap<(usize, usize), usize> = HashMap::new();
        let leg_pairs = open
            .iter()
            .map(|cyc| {
                po_legs(cyc)
                    .into_iter()
                    .map(|(a_id, b_id)| {
                        *pair_ids.entry((a_id, b_id)).or_insert_with(|| {
                            let view = PairView::of(g, a_id, b_id, None);
                            let mut cut_by = vec![];
                            for bundle in pair_candidates(view, cfg) {
                                let local = overlay(view, &bundle).cut(model).local;
                                let ci = *cand_ids.entry(bundle).or_insert_with_key(|bundle| {
                                    cands.push(bundle.clone());
                                    cands.len() - 1
                                });
                                if local {
                                    cut_by.push(ci);
                                }
                            }
                            locals.push((!view.cut(model).local).then_some(cut_by));
                            locals.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let interned = Interned::new(&cands, costs);
        Instance {
            g,
            cfg,
            costs,
            open,
            cands,
            interned,
            locals,
            leg_pairs,
        }
    }

    /// Distinct multi-access legs across the open cycles.
    pub(crate) fn pairs(&self) -> usize {
        self.locals.len()
    }

    /// Eager constraints: a local cut on each of the first `eager`
    /// multi-access legs of every open cycle that has none (necessary
    /// under every model — a leg without a local cut contributes no edge
    /// that could close the constraint graph across it on the MCA side,
    /// and POWER's cumulative/global strengths imply the local one in this
    /// checker), each distinct constraint once.
    fn eager_constraints(&self, eager: usize) -> Result<Vec<Vec<usize>>, SynthError> {
        let mut constraints: Vec<Vec<usize>> = vec![];
        for (cyc, pairs) in self.open.iter().zip(&self.leg_pairs) {
            for &p in pairs.iter().take(eager) {
                let Some(cut_by) = &self.locals[p] else {
                    continue;
                };
                if cut_by.is_empty() {
                    return Err(SynthError::NoCandidate {
                        cycle: describe_cycle(self.g, cyc),
                    });
                }
                if !constraints.contains(cut_by) {
                    constraints.push(cut_by.clone());
                }
            }
        }
        Ok(constraints)
    }

    /// Solve the instance with the tier `opts` chooses. The reorder bound
    /// `k` limits which legs seed eager constraints; candidates are
    /// registered for every leg, so lazy repair can reach them.
    ///
    /// Each round judges its trial placement on pair views with the
    /// placement [`overlay`]ed, never on an instrumented graph.
    pub(crate) fn solve(&self, opts: &SolverOptions) -> Result<SynthOutcome, SynthError> {
        const MAX_ROUNDS: usize = 32;
        let (g, model) = (self.g, self.cfg.model);
        if self.open.is_empty() {
            let placement = Placement {
                instruments: vec![],
                cost_ns: 0.0,
                rounds: 0,
            };
            return Ok(SynthOutcome::Exact {
                placement,
                nodes: 0,
            });
        }

        let mut constraints = self.eager_constraints(opts.reorder_bound.unwrap_or(usize::MAX))?;
        let mut nodes_total: u64 = 0;
        let mut timed_out = false;
        for round in 1..=MAX_ROUNDS {
            let solve = solve_hitting_set(&self.interned, &constraints, opts);
            nodes_total += solve.nodes;
            timed_out |= solve.timed_out;
            let solution = solve.instruments;
            let trial = |a: usize, b: usize| overlay(PairView::of(g, a, b, None), &solution);
            let failing: Vec<&&CriticalCycle> = self
                .open
                .iter()
                .filter(|c| !check_cycle_cut(g, model, c, |a, b| trial(a, b).cut(model)).protected)
                .collect();
            if failing.is_empty() {
                let cost_ns = solution.iter().map(|i| self.costs.instrument_ns(i)).sum();
                let placement = Placement {
                    instruments: solution,
                    cost_ns,
                    rounds: round,
                };
                return Ok(if opts.greedy_only {
                    SynthOutcome::Approx { placement }
                } else if timed_out {
                    SynthOutcome::Timeout {
                        placement,
                        nodes: nodes_total,
                        budget: opts.node_budget,
                    }
                } else {
                    SynthOutcome::Exact {
                        placement,
                        nodes: nodes_total,
                    }
                });
            }
            // Lazy constraints: for each failing cycle, the unchosen
            // candidates that add any strength bit to one of its legs beyond
            // the trial placement. Per-leg strength is monotone in the
            // instrument set, so every feasible superset of the trial hits
            // this set; and the trial itself does not, so each round strictly
            // excludes the current solution.
            for cyc in failing {
                let legs: Vec<(PairView, PairCut)> = po_legs(cyc)
                    .into_iter()
                    .map(|(a, b)| {
                        let view = trial(a, b);
                        (view, view.cut(model))
                    })
                    .collect();
                let escape: Vec<usize> = (0..self.cands.len())
                    .filter(|&ci| {
                        // Candidates already contained in the trial placement
                        // add nothing beyond it, so they filter out here
                        // naturally — the escape set never contains a chosen
                        // candidate, which is what guarantees each round
                        // strictly excludes the current solution.
                        legs.iter().any(|&(view, cur)| {
                            overlay(view, &self.cands[ci]).cut(model).stronger_than(cur)
                        })
                    })
                    .collect();
                if escape.is_empty() {
                    return Err(SynthError::NoCandidate {
                        cycle: describe_cycle(g, cyc),
                    });
                }
                if !constraints.contains(&escape) {
                    constraints.push(escape);
                }
            }
        }
        Err(SynthError::Diverged { rounds: MAX_ROUNDS })
    }
}

fn describe_cycle(g: &ProgramGraph, cyc: &CriticalCycle) -> String {
    cyc.legs
        .iter()
        .map(|&(e, x)| {
            if e == x {
                g.describe(e)
            } else {
                format!("{}..{}", g.describe(e), g.describe(x))
            }
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
// Exact float equality is deliberate here: the empty placement costs
// exactly 0.0 and the fallback path must return table values unchanged.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use wmm_litmus::suite;
    use ModelKind::{ArmV8, Power, Sc, Tso};

    fn synth_litmus(
        entry: &suite::SuiteEntry,
        model: ModelKind,
    ) -> (ProgramGraph, Result<Placement, SynthError>) {
        let g = ProgramGraph::from_litmus(&entry.test);
        let p = synthesize(
            &g,
            SynthConfig::for_model(model),
            &CostModel::static_table(),
        );
        (g, p)
    }

    fn protected(g: &ProgramGraph, model: ModelKind) -> bool {
        critical_cycles(g)
            .iter()
            .all(|c| check_cycle(g, model, c).protected)
    }

    #[test]
    fn already_protected_program_places_nothing() {
        let (_, p) = synth_litmus(&suite::store_buffering(), Sc);
        let p = p.unwrap();
        assert!(p.instruments.is_empty());
        assert_eq!(p.rounds, 0);
        assert_eq!(p.cost_ns, 0.0);
    }

    #[test]
    fn sb_on_armv8_rediscovers_the_rcsc_pair() {
        // JDK9's insight: stlr;ldar is cheaper than dmb between a volatile
        // store and a volatile load. Synthesis finds it from costs alone.
        let (g, p) = synth_litmus(&suite::store_buffering(), ArmV8);
        let p = p.unwrap();
        assert_eq!(
            p.instruments,
            vec![
                Instrument::Release { thread: 0, pos: 0 },
                Instrument::Acquire { thread: 0, pos: 1 },
                Instrument::Release { thread: 1, pos: 0 },
                Instrument::Acquire { thread: 1, pos: 1 },
            ]
        );
        assert!(protected(&apply_to_graph(&g, &p.instruments), ArmV8));
        assert!((p.cost_ns - 2.0 * (STATIC_ACQUIRE_NS + STATIC_RELEASE_NS)).abs() < 1e-9);
    }

    #[test]
    fn sb_on_tso_needs_full_fences() {
        // No RCsc rule under TSO: only a full barrier cuts store->load.
        let (g, p) = synth_litmus(&suite::store_buffering(), Tso);
        let p = p.unwrap();
        assert_eq!(
            p.instruments,
            vec![
                Instrument::Fence {
                    thread: 0,
                    slot: 1,
                    kind: FenceKind::DmbIsh
                },
                Instrument::Fence {
                    thread: 1,
                    slot: 1,
                    kind: FenceKind::DmbIsh
                },
            ]
        );
        assert!(protected(&apply_to_graph(&g, &p.instruments), Tso));
    }

    #[test]
    fn mp_on_power_uses_lwsync_and_an_address_dependency() {
        // The classic cheap POWER strategy: cumulative lwsync on the
        // writer, a bogus address dependency on the reader.
        let (g, p) = synth_litmus(&suite::message_passing(), Power);
        let p = p.unwrap();
        assert_eq!(
            p.instruments,
            vec![
                Instrument::Fence {
                    thread: 0,
                    slot: 1,
                    kind: FenceKind::LwSync
                },
                Instrument::Dep {
                    thread: 1,
                    from_pos: 0,
                    to_pos: 1,
                    kind: DepKind::Addr
                },
            ]
        );
        assert!(protected(&apply_to_graph(&g, &p.instruments), Power));
    }

    #[test]
    fn mp_on_armv8_prefers_ishst_and_acquire() {
        let (g, p) = synth_litmus(&suite::message_passing(), ArmV8);
        let p = p.unwrap();
        assert_eq!(
            p.instruments,
            vec![
                Instrument::Fence {
                    thread: 0,
                    slot: 1,
                    kind: FenceKind::DmbIshSt
                },
                Instrument::Acquire { thread: 1, pos: 0 },
            ]
        );
        assert!(protected(&apply_to_graph(&g, &p.instruments), ArmV8));
    }

    #[test]
    fn iriw_on_power_forces_global_syncs_via_lazy_constraints() {
        // iriw_lwsyncs: every pair is locally cut, yet the cycle is
        // observable — only the lazy rounds can discover that both
        // readers need the global strength of sync.
        let (g, p) = synth_litmus(&suite::iriw_lwsyncs(), Power);
        let p = p.unwrap();
        assert!(p.rounds > 1, "must have needed lazy constraints");
        assert_eq!(
            p.instruments,
            vec![
                Instrument::Fence {
                    thread: 2,
                    slot: 1,
                    kind: FenceKind::HwSync
                },
                Instrument::Fence {
                    thread: 3,
                    slot: 1,
                    kind: FenceKind::HwSync
                },
            ]
        );
        assert!(protected(&apply_to_graph(&g, &p.instruments), Power));
    }

    #[test]
    fn fences_only_config_never_places_upgrades_or_deps() {
        let g = ProgramGraph::from_litmus(&suite::message_passing().test);
        let p = synthesize(
            &g,
            SynthConfig::fences_only(ArmV8),
            &CostModel::static_table(),
        )
        .unwrap();
        assert!(p
            .instruments
            .iter()
            .all(|i| matches!(i, Instrument::Fence { .. })));
        assert!(protected(&apply_to_graph(&g, &p.instruments), ArmV8));
    }

    #[test]
    fn synthesis_is_deterministic() {
        for entry in suite::full_suite() {
            for model in [Sc, Tso, ArmV8, Power] {
                let g = ProgramGraph::from_litmus(&entry.test);
                let cfg = SynthConfig::for_model(model);
                let costs = CostModel::priced(0.0087);
                let a = synthesize(&g, cfg, &costs).unwrap();
                let b = synthesize(&g, cfg, &costs).unwrap();
                assert_eq!(
                    a.instruments, b.instruments,
                    "{}/{model:?}",
                    entry.test.name
                );
                assert!((a.cost_ns - b.cost_ns).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_to_streams_round_trips_through_from_streams() {
        // Applying a placement to streams then re-deriving the graph must
        // agree with applying it to the graph directly.
        let threads = vec![
            vec![
                Instr::Store {
                    loc: Loc::SharedRw(1),
                    ord: AccessOrd::Plain,
                },
                Instr::Nop,
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
        let placement = [
            Instrument::Fence {
                thread: 0,
                slot: 1,
                kind: FenceKind::DmbIshSt,
            },
            Instrument::Acquire { thread: 1, pos: 0 },
            Instrument::Dep {
                thread: 1,
                from_pos: 0,
                to_pos: 1,
                kind: DepKind::Addr,
            },
        ];
        let (streams, deps) = apply_to_streams(&threads, &placement);
        // The fence landed between the stores, after the Nop.
        assert_eq!(streams[0][2], Instr::Fence(FenceKind::DmbIshSt));
        let via_streams = ProgramGraph::from_streams("x", &streams, &deps);
        let direct = apply_to_graph(&ProgramGraph::from_streams("x", &threads, &[]), &placement);
        for model in [Sc, Tso, ArmV8, Power] {
            assert_eq!(protected(&via_streams, model), protected(&direct, model));
        }
    }

    #[test]
    fn trailing_slot_appends_to_the_stream() {
        let threads = vec![vec![Instr::Store {
            loc: Loc::SharedRw(1),
            ord: AccessOrd::Plain,
        }]];
        let (streams, _) = apply_to_streams(
            &threads,
            &[Instrument::Fence {
                thread: 0,
                slot: 1,
                kind: FenceKind::DmbIsh,
            }],
        );
        assert_eq!(streams[0].len(), 2);
        assert_eq!(streams[0][1], Instr::Fence(FenceKind::DmbIsh));
    }

    #[test]
    fn cost_model_pricing_guards_non_finite_sensitivity() {
        // Eq. 1/Eq. 2 round-trip is the identity for valid k; invalid k
        // falls back to the raw table instead of poisoning weights.
        let sane = CostModel::priced(0.0087);
        assert!((sane.fence_ns(FenceKind::DmbIsh) - 17.0).abs() < 1e-6);
        for bad in [f64::NAN, 0.0, 1.0, 1.5, -0.2] {
            let m = CostModel::priced(bad);
            assert_eq!(m.fence_ns(FenceKind::LwSync), 6.1, "k={bad}");
        }
    }

    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The generated corpus, built once.
    fn corpus() -> &'static [ProgramGraph] {
        static CORPUS: OnceLock<Vec<ProgramGraph>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            crate::gen::generate_all()
                .iter()
                .map(ProgramGraph::from_litmus)
                .collect()
        })
    }

    /// Assert the overlay of `extra` on the pair `(a, b)` of `g` equals the
    /// pair's cut in the instrumented graph, under every model; return the
    /// `ArmV8` cut.
    fn overlay_matches(g: &ProgramGraph, a: usize, b: usize, extra: &[Instrument]) -> PairCut {
        let applied = apply_to_graph(g, extra);
        for model in [Sc, Tso, ArmV8, Power] {
            let fast = overlay(PairView::of(g, a, b, None), extra).cut(model);
            let slow = PairView::of(&applied, a, b, None).cut(model);
            assert_eq!(
                fast, slow,
                "{} ({a}, {b}) {extra:?} under {model:?}",
                g.name
            );
        }
        overlay(PairView::of(g, a, b, None), extra).cut(ArmV8)
    }

    #[test]
    fn overlay_covers_fences_upgrades_and_deps_like_the_instrumented_graph() {
        let fence = |thread, slot, kind| Instrument::Fence { thread, slot, kind };
        // MP's writer pair (t0: Wx; Wy): only a fence of its own thread
        // inside its slot range cuts it.
        let mp = ProgramGraph::from_litmus(&suite::message_passing().test);
        let (a, b) = (mp.threads[0][0], mp.threads[0][1]);
        assert!(overlay_matches(&mp, a, b, &[fence(0, 1, FenceKind::DmbIshSt)]).local);
        for off in [
            fence(1, 1, FenceKind::DmbIsh),
            fence(0, 0, FenceKind::DmbIsh),
            fence(0, 2, FenceKind::DmbIsh),
        ] {
            assert!(!overlay_matches(&mp, a, b, &[off]).local, "{off:?}");
        }
        // Repeated instruments change nothing.
        let twice = [
            fence(0, 1, FenceKind::LwSync),
            fence(0, 1, FenceKind::LwSync),
        ];
        assert!(overlay_matches(&mp, a, b, &twice).cumulative);
        // SB's pair (t0: Wx; Ry): the RCsc stlr;ldar bundle cuts it on ARMv8.
        let sb = ProgramGraph::from_litmus(&suite::store_buffering().test);
        let (a, b) = (sb.threads[0][0], sb.threads[0][1]);
        let rcsc = [
            Instrument::Release { thread: 0, pos: 0 },
            Instrument::Acquire { thread: 0, pos: 1 },
        ];
        assert!(overlay_matches(&sb, a, b, &rcsc).local);
        // A ctrl dependency already on the pair stays: an added address
        // dependency does not replace it, so the load pair stays uncut.
        let ctrl = ProgramGraph::from_litmus(&suite::mp_dmbst_ctrl().test);
        let (a, b) = (ctrl.threads[1][0], ctrl.threads[1][1]);
        assert_eq!(ctrl.dep_between(a, b), Some(DepKind::Ctrl));
        let addr = Instrument::Dep {
            thread: 1,
            from_pos: 0,
            to_pos: 1,
            kind: DepKind::Addr,
        };
        assert!(!overlay_matches(&ctrl, a, b, &[addr]).local);
        // Without a dependency, the first one in the bundle lands.
        let (a, b) = (mp.threads[1][0], mp.threads[1][1]);
        let ctrl_then_addr = [
            Instrument::Dep {
                thread: 1,
                from_pos: 0,
                to_pos: 1,
                kind: DepKind::Ctrl,
            },
            addr,
        ];
        assert!(!overlay_matches(&mp, a, b, &ctrl_then_addr).local);
        assert!(overlay_matches(&mp, a, b, &[addr, ctrl_then_addr[0]]).local);
    }

    /// Fence kinds synthesis can place (every classed one).
    const CLASSED: [FenceKind; 5] = [
        FenceKind::DmbIshSt,
        FenceKind::DmbIshLd,
        FenceKind::LwSync,
        FenceKind::DmbIsh,
        FenceKind::HwSync,
    ];
    const DEPS: [DepKind; 4] = [
        DepKind::Addr,
        DepKind::Data,
        DepKind::Ctrl,
        DepKind::CtrlIsb,
    ];

    /// A program-order pair `(a, b)` of `g` and a random bundle aimed at
    /// it from `raw`: fences on the pair's thread and on others, in and
    /// out of its slot range, upgrades, the `RCsc` pair, dependencies (also
    /// on the pair itself) and repeats. `None` when no thread of `g` has
    /// two accesses.
    fn random_bundle(
        g: &ProgramGraph,
        pair: (usize, usize, usize),
        raw: &[(usize, usize, usize, usize)],
    ) -> Option<(usize, usize, Vec<Instrument>)> {
        let nthreads = g.threads.len();
        let t = (0..nthreads)
            .map(|k| (pair.0 + k) % nthreads)
            .find(|&t| g.threads[t].len() >= 2)?;
        let ids = &g.threads[t];
        let i = pair.1 % (ids.len() - 1);
        let j = i + 1 + pair.2 % (ids.len() - 1 - i);
        let mut extra: Vec<Instrument> = vec![];
        for &(sel, th, p, q) in raw {
            let thread = if th % 2 == 0 { t } else { (th / 2) % nthreads };
            let len = g.threads[thread].len();
            let ins = match sel % 6 {
                0 | 1 => Instrument::Fence {
                    thread,
                    slot: p % (len + 1),
                    kind: CLASSED[q % CLASSED.len()],
                },
                2 if len > 0 => Instrument::Acquire {
                    thread,
                    pos: p % len,
                },
                3 if len > 0 => Instrument::Release {
                    thread,
                    pos: p % len,
                },
                4 if len > 0 => Instrument::Dep {
                    thread,
                    from_pos: p % len,
                    to_pos: q % len,
                    kind: DEPS[(sel / 6) % DEPS.len()],
                },
                // Aimed at the pair itself.
                _ => match (sel / 6) % 4 {
                    0 => {
                        extra.push(Instrument::Release { thread: t, pos: i });
                        Instrument::Acquire { thread: t, pos: j }
                    }
                    1 => Instrument::Dep {
                        thread: t,
                        from_pos: i,
                        to_pos: j,
                        kind: DEPS[q % DEPS.len()],
                    },
                    2 if !extra.is_empty() => extra[p % extra.len()],
                    _ => Instrument::Fence {
                        thread: t,
                        slot: j,
                        kind: CLASSED[q % CLASSED.len()],
                    },
                },
            };
            extra.push(ins);
        }
        Some((ids[i], ids[j], extra))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The overlay equals the cut of the instrumented graph on corpus
        /// graphs and random bundles: fences on the pair's thread and on
        /// others, in and out of its slot range, upgrades, the RCsc pair,
        /// dependencies (also where one exists) and repeats. Overlaying
        /// the bundle's tail on the view of the graph instrumented with
        /// its head (a candidate judged against a trial placement) agrees
        /// too.
        #[test]
        fn overlay_equals_the_cut_of_the_instrumented_graph(
            pick in 0usize..1 << 20,
            pair in (0usize..8, 0usize..8, 0usize..8),
            raw in prop::collection::vec((0usize..64, 0usize..64, 0usize..16, 0usize..16), 0..7),
            split in 0usize..8,
        ) {
            let g = &corpus()[pick % corpus().len()];
            let Some((a, b, extra)) = random_bundle(g, pair, &raw) else {
                return Ok(());
            };
            let applied = apply_to_graph(g, &extra);
            let (head, tail) = extra.split_at(split.min(extra.len()));
            let trial = apply_to_graph(g, head);
            for model in [Sc, Tso, ArmV8, Power] {
                let slow = PairView::of(&applied, a, b, None).cut(model);
                prop_assert_eq!(overlay(PairView::of(g, a, b, None), &extra).cut(model), slow);
                prop_assert_eq!(overlay(PairView::of(&trial, a, b, None), tail).cut(model), slow);
            }
        }

        /// Instruments change whether cycles are protected, never which
        /// cycles exist: the instrumented graph has the same cycles, in
        /// the same order, as the bare one.
        #[test]
        fn instruments_leave_the_critical_cycles_unchanged(
            pick in 0usize..1 << 20,
            pair in (0usize..8, 0usize..8, 0usize..8),
            raw in prop::collection::vec((0usize..64, 0usize..64, 0usize..16, 0usize..16), 0..7),
        ) {
            let g = &corpus()[pick % corpus().len()];
            let Some((_, _, extra)) = random_bundle(g, pair, &raw) else {
                return Ok(());
            };
            let bare = critical_cycles(g);
            let instrumented = critical_cycles(&apply_to_graph(g, &extra));
            prop_assert_eq!(instrumented.len(), bare.len());
            for (x, y) in instrumented.iter().zip(&bare) {
                prop_assert_eq!(&x.legs, &y.legs);
                prop_assert_eq!(&x.comms, &y.comms);
            }
        }

        /// Branch-and-bound finds the brute-force minimum over every
        /// candidate subset, and among equal-cost covers the one whose
        /// sorted instrument-key vector is lexicographically smallest.
        #[test]
        fn branch_and_bound_matches_brute_force_subset_search(
            bundles in prop::collection::vec((0usize..12, 0usize..16), 1..10),
            sets in prop::collection::vec(prop::collection::vec(0usize..16, 1..4), 1..7)
        ) {
            let pool: Vec<Instrument> = (0..12)
                .map(|i| match i % 4 {
                    0 => Instrument::Fence {
                        thread: i % 3,
                        slot: 1 + i % 2,
                        kind: CLASSED[i % CLASSED.len()],
                    },
                    1 => Instrument::Acquire { thread: i % 3, pos: i % 2 },
                    2 => Instrument::Release { thread: i % 3, pos: 1 + i % 2 },
                    _ => Instrument::Dep {
                        thread: i % 3,
                        from_pos: 0,
                        to_pos: 1 + i % 2,
                        kind: DEPS[i % DEPS.len()],
                    },
                })
                .collect();
            let mut cands: Vec<Vec<Instrument>> = vec![];
            for &(x, y) in &bundles {
                let bundle = if y < pool.len() && y != x {
                    vec![pool[x], pool[y]]
                } else {
                    vec![pool[x]]
                };
                if !cands.contains(&bundle) {
                    cands.push(bundle);
                }
            }
            let constraints: Vec<Vec<usize>> = sets
                .iter()
                .map(|set| {
                    let mut c: Vec<usize> = vec![];
                    for &k in set {
                        if !c.contains(&(k % cands.len())) {
                            c.push(k % cands.len());
                        }
                    }
                    c
                })
                .collect();
            let costs = CostModel::priced(0.0087);
            let price = |ins: &[Instrument]| -> f64 { ins.iter().map(|i| costs.instrument_ns(i)).sum() };

            let mut best: Option<(f64, Vec<Instrument>)> = None;
            for mask in 0u32..1 << cands.len() {
                if !constraints.iter().all(|c| c.iter().any(|&ci| mask >> ci & 1 == 1)) {
                    continue;
                }
                let mut ins: Vec<Instrument> = (0..cands.len())
                    .filter(|&ci| mask >> ci & 1 == 1)
                    .flat_map(|ci| cands[ci].iter().copied())
                    .collect();
                ins.sort_unstable();
                ins.dedup();
                let cost = price(&ins);
                let better = best.as_ref().is_none_or(|(c, b)| {
                    cost < c - EPS || ((cost - c).abs() <= EPS && ins < *b)
                });
                if better {
                    best = Some((cost, ins));
                }
            }
            let (best_cost, best_ins) = best.expect("every constraint is non-empty");

            let interned = Interned::new(&cands, &costs);
            let exact = solve_hitting_set(&interned, &constraints, &SolverOptions::default());
            prop_assert!(!exact.timed_out);
            prop_assert_eq!(&exact.instruments, &best_ins);
            prop_assert!((price(&exact.instruments) - best_cost).abs() <= EPS);
            // The greedy tier is a feasible upper bound.
            let greedy = solve_hitting_set(&interned, &constraints, &SolverOptions::approx(2));
            prop_assert!(price(&greedy.instruments) >= best_cost - EPS);
            prop_assert!(constraints.iter().all(|c| c
                .iter()
                .any(|&ci| cands[ci].iter().all(|i| greedy.instruments.contains(i)))));
        }
    }

    #[test]
    fn graph_cost_prices_hand_strategies() {
        let costs = CostModel::static_table();
        let mp = ProgramGraph::from_litmus(&suite::mp_fences().test);
        // Two Full fences: dmb ish on ARM, sync on POWER.
        assert!((graph_cost(&mp, ArmV8, &costs) - 34.0).abs() < 1e-9);
        assert!((graph_cost(&mp, Power, &costs) - 37.8).abs() < 1e-9);
        let rel_acq = ProgramGraph::from_litmus(&suite::mp_rel_acq().test);
        assert!((graph_cost(&rel_acq, ArmV8, &costs) - 4.5).abs() < 1e-9);
    }
}
