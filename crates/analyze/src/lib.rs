//! Static fence-placement analysis for the wmmbench workspace.
//!
//! The paper ("Benchmarking weak memory models") measures what a fencing
//! strategy *costs*; this crate supplies the complementary static view of
//! whether it is *correct*, following "Don't sit on the fence" (Alglave,
//! Kroening, Nimal, Poetzl): a program needs a fence exactly where a
//! Shasha–Snir critical cycle would otherwise admit a non-SC execution.
//!
//! Pipeline:
//!
//! 1. [`graph::ProgramGraph`] — the memory-access skeleton, built from a
//!    litmus test or from platform-lowered instruction streams;
//! 2. [`cycles::critical_cycles`] — every critical cycle, one per
//!    communication-edge orientation;
//! 3. [`check::check_cycle`] — the per-model protection check (a
//!    constraint graph over `exec`/`prop` events mirroring the
//!    operational explorer's semantics);
//! 4. [`report::analyze`] — whole-program verdict: unprotected cycles as
//!    errors, single-fence-removal-invariant fences as redundancy lints
//!    with Eq. 1 / Eq. 2 savings estimates.
//!
//! The static verdict is cross-validated against the dynamic explorer in
//! `tests/differential.rs`: for every litmus-suite entry and every model,
//! "all cycles protected" must coincide with "the explorer cannot reach
//! the weak outcome".
//!
//! 5. [`synth::synthesize`] inverts the check: given a bare program and a
//!    model, find the cheapest instrument placement (fences,
//!    acquire/release upgrades, artificial dependencies) protecting every
//!    critical cycle, priced by the paper's Eq. 1/Eq. 2 cost model.
//! 6. [`gen::generate_all`] runs the cycle vocabulary in reverse,
//!    diy-style: enumerate critical-cycle shapes and decorate them with
//!    each architecture's ordering vocabulary, emitting thousands of
//!    well-formed litmus tests for the `axiom_diff` differential harness.

#![warn(unreachable_pub)]
#![warn(clippy::pedantic)]
// Pedantic relaxations, each with a reason:
// - must_use_candidate: the analysis builders are consumed immediately at
//   every call site; annotating them all is churn without a bug class.
// - missing_panics_doc covers `expect`s on internal invariants (interned
//   ids, enumerated cycles) that callers cannot trigger; public functions
//   whose panics are reachable document them individually.
#![allow(clippy::must_use_candidate, clippy::missing_panics_doc)]

pub mod check;
pub mod cycles;
pub mod gen;
pub mod graph;
pub mod report;
pub mod synth;
pub mod wps;

pub use check::{check_cycle, check_cycle_without, CycleCheck};
pub use cycles::{critical_cycles, CommKind, CriticalCycle};
pub use gen::{differential_corpus, generate_all};
pub use graph::{Access, ProgramGraph, StreamDep};
pub use report::{analyze, Analysis};
pub use synth::{
    apply_to_graph, apply_to_streams, graph_cost, synthesize, synthesize_cycles, CostModel,
    Instrument, Placement, SolverOptions, SynthConfig,
};
pub use wps::{critical_cycles_wps, synthesize_wps, CycleCache, WpsConfig, WpsReport, WpsTier};
