//! # wmm-axiom
//!
//! An **axiomatic second oracle** for the litmus semantics: candidate
//! executions enumerated directly from the program text and judged by
//! relational acyclicity axioms, cat-style ("Herding cats", Alglave et
//! al.) — no machine, no interleavings.
//!
//! The operational explorer in [`wmm_litmus`] *simulates*: it walks every
//! scheduling and propagation order. This crate *solves*: it enumerates
//! every candidate `(rf, co)` communication witness ([`witness`]), derives
//! `fr` and the final state from the witness alone, and asks whether the
//! witness is consistent under a model via four axioms ([`axioms`]):
//! sc-per-location, no-thin-air, propagation and observation. The model
//! vocabulary — fence strengths, dependencies, acquire/release and the
//! `ARMv8` `RCsc` rule — is shared with the explorer through
//! [`wmm_litmus::LitmusTest::ordered`], and POWER's cumulativity mirrors
//! the prerequisite sets of `wmm_litmus::explore`; the axiom instantiation
//! itself follows the exec/prop constraint graphs of `wmm_analyze::check`.
//!
//! Because the final-state fold has the same shape as the explorer's
//! [`wmm_litmus::OutcomeSet`], the two oracles are compared by **set
//! equality** over all reachable `(registers, memory)` states — a much
//! stronger differential than agreeing on one assertion. The `axiom_diff`
//! campaign in `wmm-bench` runs that comparison over the hand suite plus
//! thousands of generated programs under all four models.
//!
//! ```
//! use wmm_axiom::axiomatic_outcomes;
//! use wmm_litmus::{explore, suite, ModelKind};
//!
//! let sb = suite::store_buffering().test;
//! let ax = axiomatic_outcomes(&sb, ModelKind::Tso);
//! let op = explore(&sb, ModelKind::Tso);
//! assert_eq!(ax.finals, op.canonical()); // identical reachable sets
//! assert!(ax.allows(&sb.interesting)); // TSO allows SB's weak outcome
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::missing_panics_doc)]

pub mod axioms;
pub mod events;
pub mod witness;

mod enumerate;
#[cfg(test)]
mod reference;

pub use axioms::Axiom;
pub use enumerate::axiomatic_outcomes;
