//! # wmm-dstruct
//!
//! A lock-free **data-structure platform**: concurrent structures with safe
//! memory reclamation as the third strategy-site platform of the
//! *Benchmarking Weak Memory Models* reproduction (after the JVM volatiles
//! of §4.2 and the kernel macros of §4.3).
//!
//! Hazard pointers pay a fence per protected read; epoch-based reclamation
//! amortises its barriers over whole operations; asymmetric (membarrier
//! style) hazard pointers move the cost from every reader onto the rare
//! reclaimer scan. Which scheme wins is exactly an Eq. 1/Eq. 2 question —
//! how often each fence site executes times what the fence costs there —
//! so the platform lowers every protect, retire, scan and epoch site to a
//! named [`wmmbench::image::Segment::Site`] and lets the existing
//! methodology (sensitivity sweeps, strategy ranking, static analysis,
//! fence synthesis, per-site profiling) answer it.
//!
//! * [`sites`] — the reclamation code paths ([`DSite`]) and the four
//!   scheme strategies: `nr` (no reclamation, every site free), `ebr`
//!   (fences at epoch boundaries), `hp-dmb` (`dmb ish` per protect) and
//!   `hp-asym` (readers free, reclaimer scan priced with a heavy
//!   membarrier-style sequence);
//! * [`ops`] — Treiber stack and Harris-Michael list operations as segment
//!   generators emitting those sites at realistic densities (pointer-chase
//!   loads are labeled so profiles join on stable rows);
//! * [`retire`] — the hazard-publication/retire-scan idiom (an SB-shaped
//!   race between a reader announcing a hazard and a reclaimer scanning
//!   for it), the bridge mapping a synthesized fence placement back onto
//!   the protect/scan sites, and the use-after-retire litmus shapes the
//!   explorer checks;
//! * [`stitch`] — multi-operation programs (push+pop, insert+delete+search)
//!   stitched into one graph for whole-program fence synthesis, with the
//!   embedded reclamation race mapped back onto the litmus shapes;
//! * [`workload`] — whole benchmarks composing the operations into
//!   stack-churn, list-search and list-update mixes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ops;
pub mod retire;
pub mod sites;
pub mod stitch;
pub mod workload;

pub use retire::{
    bare_reclaim, ebr_reclaim_idiom, hp_reclaim_idiom, strategy_from_placement, use_after_retire,
};
pub use sites::{hp_asym_strategy, hp_dmb_strategy, nr_strategy, scheme_strategies, DSite};
pub use stitch::StitchedProgram;
pub use workload::dstruct_suite;
