//! The traced run's per-layer accounting.
//!
//! A [`Tracer`] wraps each call into a layer's public function in a
//! `wmm_obs` span named after the layer (`sim.run`, `litmus.explore`, …)
//! and keeps counts at the same boundaries. At the end of every traced
//! pass, [`Tracer::end_pass`] folds the pass's spans into `<span>_ms`
//! totals and derives the rates and ratios, so every per-layer metric is a
//! per-pass value; the report takes the median over passes. Span
//! durations are also pooled across passes for the per-call percentiles.

use std::collections::BTreeMap;
use std::sync::Mutex;

use wmm_obs::{SpanLog, SpanRecord};

use crate::stats::{median, percentile};

/// Every per-layer metric with its unit, in report order. Each workload
/// reports all of them; a layer a workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.image_ms", "ms"),
    ("workloads.images", "count"),
    ("costfn.calibrate_ms", "ms"),
    ("image.link_ms", "ms"),
    ("image.programs", "count"),
    ("image.words", "count"),
    ("harness.run_batch_ms", "ms"),
    ("harness.key_ms", "ms"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.cache_hit_ratio", "ratio"),
    ("harness.worker_busy_frac", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.jobs", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.ns_per_event", "ns"),
    ("sim.job_ms_p50", "ms"),
    ("sim.job_ms_p99", "ms"),
    ("sim.simulated_cycles", "cycles"),
    ("model.fit_ms", "ms"),
    ("model.fits", "count"),
    ("model.fits_converged", "count"),
    ("model.k_paper_err", "ratio"),
    ("litmus.explore_ms", "ms"),
    ("litmus.explore_ms_max", "ms"),
    ("litmus.states", "count"),
    ("litmus.states_per_s", "1/s"),
    ("litmus.states.sc", "count"),
    ("litmus.states.tso", "count"),
    ("litmus.states.armv8", "count"),
    ("litmus.states.power", "count"),
    ("axiom.enumerate_ms", "ms"),
    ("axiom.candidates", "count"),
    ("axiom.candidates_per_s", "1/s"),
    ("axiom.consistent_ratio", "ratio"),
    ("analyze.cycles_ms", "ms"),
    ("analyze.cycles", "count"),
    ("analyze.solve_ms", "ms"),
    ("analyze.solver_nodes", "count"),
    ("analyze.exact_solves", "count"),
    ("analyze.recheck_ms", "ms"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Span category of every layer span.
const CAT: &str = "layer";

/// Per-layer recorder for the traced run.
#[derive(Default)]
pub struct Tracer {
    log: SpanLog,
    /// Span records already folded by [`Tracer::end_pass`].
    folded: Mutex<usize>,
    /// The current pass's counts.
    counts: Mutex<BTreeMap<&'static str, f64>>,
    /// Per-pass values of every metric, across traced passes.
    history: Mutex<BTreeMap<String, Vec<f64>>>,
    /// Every span duration (ms) by span name, across traced passes.
    pooled: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Tracer {
    /// A fresh recorder; the trace epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Run `f` inside a span named `layer` on track `tid` (0 = the calling
    /// thread, `worker + 1` for pool workers).
    pub fn time<R>(&self, layer: &'static str, tid: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.log.span_on(layer, CAT, tid);
        f()
    }

    /// Add `v` to the current pass's count `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counts
            .lock()
            .expect("tracer counts poisoned")
            .entry(name)
            .or_default() += v;
    }

    /// Close a traced pass: fold its spans into `<span>_ms` totals and
    /// `<span>_ms_max` maxima, derive rates and ratios, and append every
    /// value to the history. `workers` sizes the busy fraction.
    pub fn end_pass(&self, workers: usize) {
        let records = self.log.records();
        let mut folded = self.folded.lock().expect("tracer fold mark poisoned");
        let new: &[SpanRecord] = &records[*folded..];
        *folded = records.len();
        let mut pass: BTreeMap<String, f64> =
            std::mem::take(&mut *self.counts.lock().expect("tracer counts poisoned"))
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        {
            let mut pooled = self.pooled.lock().expect("tracer pool poisoned");
            for r in new {
                let ms = r.dur_us / 1e3;
                *pass.entry(format!("{}_ms", r.name)).or_default() += ms;
                let max = pass.entry(format!("{}_ms_max", r.name)).or_default();
                *max = max.max(ms);
                pooled.entry(r.name.clone()).or_default().push(ms);
            }
        }
        derive(&mut pass, workers);
        let mut history = self.history.lock().expect("tracer history poisoned");
        for (k, v) in pass {
            history.entry(k).or_default().push(v);
        }
    }

    /// Every catalogued metric: the median of its per-pass values, the
    /// pooled per-call percentiles for `sim.job_ms_*`, 0 where unrecorded.
    #[must_use]
    pub fn report(&self) -> Vec<crate::run::Metric> {
        let history = self.history.lock().expect("tracer history poisoned");
        let pooled = self.pooled.lock().expect("tracer pool poisoned");
        let mut jobs = pooled.get("sim.run").cloned().unwrap_or_default();
        jobs.sort_by(f64::total_cmp);
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "sim.job_ms_p50" if !jobs.is_empty() => percentile(&jobs, 50.0),
                    "sim.job_ms_p99" if !jobs.is_empty() => percentile(&jobs, 99.0),
                    _ => history.get(name).map_or(0.0, |v| {
                        let mut v = v.clone();
                        v.sort_by(f64::total_cmp);
                        median(&v)
                    }),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Completed spans, for the Chrome-trace export.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.log.records()
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Rates and ratios of one pass, from its totals.
fn derive(pass: &mut BTreeMap<String, f64>, workers: usize) {
    let get = |pass: &BTreeMap<String, f64>, k: &str| pass.get(k).copied().unwrap_or(0.0);
    let (events, sim_ms) = (get(pass, "sim.events"), get(pass, "sim.run_ms"));
    let (states, explore_ms) = (get(pass, "litmus.states"), get(pass, "litmus.explore_ms"));
    let (cands, enum_ms) = (
        get(pass, "axiom.candidates"),
        get(pass, "axiom.enumerate_ms"),
    );
    let (hits, misses) = (
        get(pass, "harness.cache_hits"),
        get(pass, "harness.cache_misses"),
    );
    let derived = [
        ("sim.events_per_s", ratio(events, sim_ms / 1e3)),
        ("sim.ns_per_event", ratio(sim_ms * 1e6, events)),
        ("litmus.states_per_s", ratio(states, explore_ms / 1e3)),
        ("axiom.candidates_per_s", ratio(cands, enum_ms / 1e3)),
        (
            "axiom.consistent_ratio",
            ratio(get(pass, "axiom.consistent"), cands),
        ),
        ("harness.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "harness.worker_busy_frac",
            ratio(
                get(pass, "harness.busy_ms"),
                get(pass, "harness.pass_ms") * workers as f64,
            ),
        ),
    ];
    for (k, v) in derived {
        pass.insert(k.to_string(), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for (name, unit) in LAYER_METRICS {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn passes_fold_spans_counts_and_ratios() {
        let t = Tracer::new();
        for _ in 0..3 {
            t.time("sim.run", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.add("sim.events", 1000.0);
            t.add("harness.cache_hits", 3.0);
            t.add("harness.cache_misses", 1.0);
            t.add("harness.busy_ms", 5.0);
            t.add("harness.pass_ms", 10.0);
            t.end_pass(2);
        }
        let report: BTreeMap<&str, f64> = t.report().into_iter().map(|(n, _, v)| (n, v)).collect();
        assert_eq!(report["sim.events"], 1000.0);
        assert_eq!(report["harness.cache_hit_ratio"], 0.75);
        assert_eq!(report["harness.worker_busy_frac"], 0.25);
        assert!(report["sim.run_ms"] >= 2.0);
        assert!(report["sim.job_ms_p99"] >= report["sim.job_ms_p50"]);
        assert!(report["sim.events_per_s"] > 0.0);
        // Layers never called read 0.
        assert_eq!(report["litmus.states"], 0.0);
        assert_eq!(t.spans().len(), 3);
    }
}
