//! # perfbench
//!
//! The repository benchmark: four workloads over the wmmbench pipeline,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate for the
//! workloads, the metrics and the layer map.

#![warn(missing_docs)]

pub mod host;
pub mod layers;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod wps;

/// The workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["sweep_cold", "sweep_warm", "oracle_diff", "wps_synth"];
