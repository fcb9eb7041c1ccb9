//! # wmm-litmus
//!
//! An operational weak-memory **semantics** explorer used to validate that
//! the fence kinds of [`wmm_sim`] mean what the timing model assumes.
//!
//! The paper's methodology leans on the operational models of Sarkar et al.
//! (POWER, PLDI 2011) and Flur et al. (`ARMv8`, POPL 2016) for what fences
//! *do*; a reproduction needs an in-repo ground truth. This crate implements
//! a simplified but exhaustive operational model:
//!
//! * per-thread **out-of-order execution**: an instruction may execute before
//!   an earlier one unless an ordering rule applies (program order on the
//!   same location, fences, acquire/release attributes, address/data/control
//!   dependencies, or the model's baseline strength);
//! * a **store propagation** subsystem: on POWER, committed stores become
//!   visible to other threads one at a time (non-multi-copy-atomicity), with
//!   `lwsync`/`sync` cumulativity enforced through per-store prerequisite
//!   sets; on SC/TSO/ARMv8 propagation is instantaneous (multi-copy atomic);
//! * exhaustive **DFS with memoisation** over all scheduling and propagation
//!   choices, collecting the set of reachable final register states. States
//!   are canonical (see [`explore`](mod@explore)): commits to different
//!   variables commute, and weak fence markers never interleave.
//!
//! Classic litmus tests (SB, MP, LB, WRC, IRIW, `CoRR`, S, R, 2+2W and fenced
//! variants) with per-model allow/forbid expectations live in [`suite`].
//!
//! ## Known approximations
//!
//! Store-to-load forwarding is modelled as program order on the same
//! location, so outcomes that require reading one's own store *before* it is
//! globally visible (e.g. SB+rfi variants such as `n6`) are not produced.
//! None of the paper's conclusions depend on those shapes.
//!
//! ```
//! use wmm_litmus::{explore, ModelKind, suite};
//!
//! let sb = suite::store_buffering();
//! // The weak outcome of SB is forbidden under SC but observable on ARMv8.
//! assert!(!explore(&sb.test, ModelKind::Sc).allows(&sb.test.interesting));
//! assert!(explore(&sb.test, ModelKind::ArmV8).allows(&sb.test.interesting));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod explore;
#[warn(clippy::pedantic)]
pub mod lint;
pub mod ops;
#[warn(clippy::pedantic)]
pub mod rewrite;
pub mod suite;

pub use explore::{explore, OutcomeSet};
pub use ops::{DepKind, FClass, LOp, LitmusTest, ModelKind};
