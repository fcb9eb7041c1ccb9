//! # wmm-harness
//!
//! The execution layer for experiment campaigns: everything `wmmbench`
//! expresses as a batch of independent simulation cells (sweeps, ranking
//! matrices, turnkey evaluations) runs through this crate's
//! [`ParallelExecutor`], which adds — without changing a single output
//! byte — three things the methodology crate deliberately stays out of:
//!
//! 1. **Parallelism** ([`scheduler`]): a keyed job queue drained by scoped
//!    worker threads. Results are collected by job index, so experiment
//!    output is bit-identical regardless of worker count. Worker count
//!    comes from `--threads`, the `WMM_THREADS` environment variable, or
//!    the machine's available parallelism.
//! 2. **Result caching** ([`cache`], [`jobs`]): simulations are
//!    deterministic in `(arch, program, ctx, seed)`, so results are
//!    content-addressed by a stable hash of exactly those inputs. One
//!    in-memory store, [`TaskCache`], serves both the simulation cache
//!    ([`SimCache`], which adds an optional append-only on-disk lane) and
//!    the analysis caches.
//! 3. **Run artifacts and gating** ([`artifact`], [`gate`]): each campaign
//!    writes a schema-versioned JSON manifest (per-cell measurements,
//!    fitted sensitivities, one counts block) under `results/runs/`, and
//!    [`compare`] diffs a manifest against a committed baseline
//!    (`wmm gate`): cells and fits within tolerance, counts and per-site
//!    records exactly.
//! 4. **Simulator totals** ([`artifact::SimTotals`], [`trace`]): every
//!    freshly simulated job's full `ExecStats` flows back through the
//!    executor seam and is folded — in job order, so the totals are
//!    bit-identical across worker counts — into campaign-wide counters
//!    (fence executions and stall cycles by kind, store-buffer stalls,
//!    cache-hierarchy outcomes, cost-loop invocations). Per-batch and
//!    per-job wall timings can additionally be exported as a
//!    `chrome://tracing` timeline.
//! 5. **Metrics** ([`ParallelExecutor::with_metrics`]): a `wmm-obs`
//!    [`MetricsRegistry`](wmm_obs::MetricsRegistry) can be attached to an
//!    executor, which then maintains:
//!    - `harness.exec.batches`, `.jobs`, `.cache_hits` and `.cache_misses`:
//!      the executor's own counts, kept once per batch and shared with
//!      [`Telemetry`] and the run summary. A hit is a cell answered from
//!      the cache; a miss is a cell simulated, sited cells included, so
//!      `cache_hits + cache_misses == jobs`;
//!    - `sim.*` gauges holding the [`SimTotals`] fold, so
//!      `sim.jobs_observed == cache_misses`;
//!    - `harness.exec.queue_depth`, the `harness.exec.job_latency_ns`
//!      histogram and the observational timing gauges (`threads`,
//!      `sim_ms`, `wall_ms`, `max_batch_ms`, `max_batch_jobs`);
//!    - per-worker `harness.worker.<i>.jobs` and `.busy_ns` counters;
//!    - `harness.cache.sim.*` gauges mirroring the cache's [`cache::CacheStats`]:
//!      `entries`, `puts`, `disk_append_bytes` and `lock_wait_ns`.
//!
//!    Structural metrics are byte-identical across worker counts. The
//!    snapshot is the manifest's one counts block, `metrics` (schema v5);
//!    span logs merge into the Chrome trace via
//!    [`trace::span_trace_events`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod artifact;
pub mod cache;
pub mod gate;
pub mod jobs;
pub mod scheduler;
pub mod trace;

pub use artifact::{RunManifest, SimTotals, SiteRecord, Telemetry};
pub use cache::{cell_key, job_key, Fnv128, SimCache, DISK_HEADER};
pub use gate::compare;
pub use jobs::{run_cached_tasks, TaskCache};
pub use scheduler::{resolve_threads, run_keyed, run_keyed_indexed, ParallelExecutor};
pub use trace::{
    instruction_trace_events, merge_chronological, span_trace_events, write_chrome_trace,
    TraceEvent,
};
