//! # wmm-obs
//!
//! Structured observability for the `wmm-sim` execution engine.
//!
//! The simulator's sited runs attribute every core-clock advance to the
//! instruction that caused it, tagged with the stable site id `(thread,
//! stream index)`. This crate is everything built *on top of* those
//! records, plus the harness-wide metrics layer:
//!
//! * [`profile::SiteProfile`] / [`Profile`]: per-site cycles split by cause —
//!   fence-kind stall, store-buffer stall, exposed memory time, residual
//!   compute — folded across the samples of a campaign and keyed by the
//!   stable site *names* [`SiteNames`](wmmbench::image::SiteNames) reads
//!   off each image (images vary with the sample seed, so names, not raw
//!   indices, are the join key).
//! * [`flame`]: collapsed-stack (`site;cause cycles`) export compatible
//!   with the standard flamegraph toolchain.
//! * [`ProfileDiff`]: site-by-site comparison of two profiles, attributing
//!   a campaign-level time delta (e.g. a fencing strategy change) to the
//!   sites whose stall profile moved.
//! * [`metrics`]: the harness-wide metrics layer — a [`MetricsRegistry`]
//!   of counters, gauges and fixed-bucket histograms with deterministic
//!   (name-sorted) snapshots, split into structural (gateable,
//!   byte-identical across worker counts) and observational (timing)
//!   classes, with JSON and Prometheus exporters. A snapshot is every run
//!   manifest's one counts block.
//! * [`span`]: wall-clock [`SpanLog`] intervals that merge into the
//!   harness's Chrome-trace timeline.
//!
//! The determinism contract mirrors the rest of the workspace: folding the
//! same runs in the same order produces bit-identical profiles regardless
//! of worker count, and every export is a pure function of the profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod flame;
pub mod metrics;
pub mod profile;
pub mod span;

pub use flame::collapsed_stacks;
pub use metrics::{
    Class, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{Profile, ProfileDiff};
pub use span::{SpanLog, SpanRecord};
