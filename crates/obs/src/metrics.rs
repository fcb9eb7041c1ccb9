//! Harness-wide metrics: a zero-cost-when-disabled registry of counters,
//! gauges and fixed-bucket histograms.
//!
//! Every metric is registered by name in a [`MetricsRegistry`] and carries
//! a [`Class`]:
//!
//! * [`Class::Structural`] metrics are updated only from deterministic
//!   call sites (the executor's calling thread, the solver's merge path),
//!   with values derived from counts, never from clocks. A structural
//!   snapshot ([`MetricsSnapshot::structural`]) is therefore byte-identical
//!   across worker counts — the same contract every manifest section obeys
//!   — and can be gated.
//! * [`Class::Observational`] metrics may be updated from worker threads
//!   and may carry timings (busy nanoseconds, latency histograms). They
//!   vary run to run and are excluded from every determinism comparison.
//!
//! Handles returned by the registry are `Arc`s over lock-free atomics, so
//! hot paths pay one relaxed atomic op per update and nothing at all when
//! no registry is attached (the disabled path is an `Option` check).
//!
//! Snapshots are name-sorted (the registry is a `BTreeMap`), serialise to
//! JSON through the workspace [`Json`] layer, and export to the Prometheus
//! text format for scrape endpoints — the surface ROADMAP item 4's
//! harness-as-a-service needs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wmmbench::json::{Json, ToJson};

/// Determinism class of a metric (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Deterministic across worker counts; gated like manifest content.
    Structural,
    /// Timing- or scheduling-dependent; excluded from determinism checks.
    Observational,
}

impl Class {
    /// Stable label for snapshots (`"structural"` / `"observational"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Class::Structural => "structural",
            Class::Observational => "observational",
        }
    }

    fn from_label(s: &str) -> Option<Class> {
        match s {
            "structural" => Some(Class::Structural),
            "observational" => Some(Class::Observational),
            _ => None,
        }
    }
}

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (stored as bits, so any finite value including
/// `-0.0` round-trips exactly).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the gauge (compare-and-swap loop; bit-exact only when
    /// updates never race, which structural call sites guarantee).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bound histogram: one atomic bucket per upper bound plus an
/// overflow bucket, a total count and a running sum.
///
/// Bounds are set at registration and never change — snapshots of the same
/// registry always agree on layout, which is what makes structural
/// histogram snapshots comparable byte-for-byte.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_by(f64::total_cmp);
        Histogram {
            buckets: (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect(),
            bounds: sorted,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation: bumps the first bucket whose upper bound is
    /// `>= v` (the last bucket is unbounded), the count, and the sum.
    pub fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured (ascending) bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// The shared handle a registry stores per name.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    class: Class,
    metric: Metric,
}

/// A named collection of metrics with deterministic (name-sorted) snapshot
/// order.
///
/// Registration is idempotent: asking for an existing name with the same
/// kind and class returns the existing handle, so independent layers
/// (executor, cache sync, solver) can share metrics without coordination.
/// Cloning a registry shares it: every clone registers into and snapshots
/// the same metrics.
///
/// # Panics
///
/// Re-registering a name with a different kind or class panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Entry>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, class: Class, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(e) = inner.get(name) {
            let fresh = make();
            assert!(
                e.class == class && e.metric.kind() == fresh.kind(),
                "metric `{name}` re-registered as {} {} (was {} {})",
                class.label(),
                fresh.kind(),
                e.class.label(),
                e.metric.kind(),
            );
            return e.metric.clone();
        }
        let metric = make();
        inner.insert(
            name.to_string(),
            Entry {
                class,
                metric: metric.clone(),
            },
        );
        metric
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str, class: Class) -> Arc<Counter> {
        match self.register(name, class, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, class: Class) -> Arc<Gauge> {
        match self.register(name, class, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Register (or fetch) a histogram with the given bucket upper bounds
    /// (an overflow bucket is always appended).
    pub fn histogram(&self, name: &str, class: Class, bounds: &[f64]) -> Arc<Histogram> {
        match self.register(name, class, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// Whether no metric is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot, entries in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            entries: inner
                .iter()
                .map(|(name, e)| MetricEntry {
                    name: name.clone(),
                    class: e.class,
                    value: match &e.metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram {
                            bounds: h.bounds().to_vec(),
                            buckets: h.bucket_counts(),
                            sum: h.sum(),
                            count: h.count(),
                        },
                    },
                })
                .collect(),
        }
    }
}

/// One snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram layout and contents.
    Histogram {
        /// Ascending bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (`bounds.len() + 1`; last is overflow).
        buckets: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Total observations.
        count: u64,
    },
}

impl MetricValue {
    /// The value's kind: `counter`, `gauge` or `histogram`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// One snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Registered name (dotted, e.g. `harness.exec.jobs`).
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time view of a registry: entries sorted by name, so two
/// snapshots of registries holding the same values serialise identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Snapshot entries in name order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// The structural projection: only [`Class::Structural`] entries.
    /// Byte-identical across worker counts by the registry contract.
    #[must_use]
    pub fn structural(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| e.class == Class::Structural)
                .cloned()
                .collect(),
        }
    }

    /// Look up an entry by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// A counter's value by name, if the entry exists and is a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// A gauge's value by name, if the entry exists and is a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// Metric names are sanitised (every non-`[a-zA-Z0-9_:]` byte becomes
    /// `_`); histograms emit cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn sanitise(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        fn num(v: f64) -> String {
            if v == f64::INFINITY {
                "+Inf".to_string()
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        for e in &self.entries {
            let name = sanitise(&e.name);
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", num(*v)));
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, n) in buckets.iter().enumerate() {
                        cumulative += n;
                        let le = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            num(le)
                        ));
                    }
                    out.push_str(&format!("{name}_sum {}\n{name}_count {count}\n", num(*sum)));
                }
            }
        }
        out
    }

    /// Parse a snapshot back from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Describes the first malformed entry.
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        let mut entries = vec![];
        for e in json
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("metrics snapshot missing entries")?
        {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric entry missing name")?
                .to_string();
            let class = e
                .get("class")
                .and_then(Json::as_str)
                .and_then(Class::from_label)
                .ok_or_else(|| format!("metric `{name}`: bad class"))?;
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}`: missing kind"))?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    e.get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric `{name}`: missing value"))?
                        as u64,
                ),
                "gauge" => MetricValue::Gauge(
                    e.get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric `{name}`: missing value"))?,
                ),
                "histogram" => {
                    let floats = |k: &str| -> Result<Vec<f64>, String> {
                        e.get(k)
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("metric `{name}`: missing {k}"))?
                            .iter()
                            .map(|v| {
                                v.as_f64()
                                    .ok_or_else(|| format!("metric `{name}`: bad {k}"))
                            })
                            .collect()
                    };
                    MetricValue::Histogram {
                        bounds: floats("bounds")?,
                        buckets: floats("buckets")?.into_iter().map(|v| v as u64).collect(),
                        sum: e
                            .get("sum")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric `{name}`: missing sum"))?,
                        count: e
                            .get("count")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric `{name}`: missing count"))?
                            as u64,
                    }
                }
                other => return Err(format!("metric `{name}`: unknown kind `{other}`")),
            };
            entries.push(MetricEntry { name, class, value });
        }
        Ok(MetricsSnapshot { entries })
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![(
            "entries",
            Json::Arr(
                self.entries
                    .iter()
                    .map(|e| {
                        let mut pairs = vec![
                            ("name", e.name.to_json()),
                            ("class", e.class.label().to_json()),
                            ("kind", e.value.kind().to_json()),
                        ];
                        match &e.value {
                            MetricValue::Counter(v) => pairs.push(("value", v.to_json())),
                            MetricValue::Gauge(v) => pairs.push(("value", Json::Num(*v))),
                            MetricValue::Histogram {
                                bounds,
                                buckets,
                                sum,
                                count,
                            } => {
                                pairs.push((
                                    "bounds",
                                    Json::Arr(bounds.iter().map(|&b| Json::Num(b)).collect()),
                                ));
                                pairs.push((
                                    "buckets",
                                    Json::Arr(buckets.iter().map(|&b| b.to_json()).collect()),
                                ));
                                pairs.push(("sum", Json::Num(*sum)));
                                pairs.push(("count", count.to_json()));
                            }
                        }
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_and_update() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.jobs", Class::Structural);
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // Idempotent re-registration shares the handle.
        reg.counter("a.jobs", Class::Structural).add(1);
        assert_eq!(c.get(), 5);

        let g = reg.gauge("a.depth", Class::Structural);
        g.set(2.5);
        g.add(-0.5);
        assert_eq!(g.get(), 2.0);

        let h = reg.histogram("a.lat", Class::Observational, &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 65.5);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", Class::Structural);
        let _ = reg.gauge("x", Class::Structural);
    }

    #[test]
    fn snapshot_is_name_sorted_and_structural_filters() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last", Class::Observational).add(9);
        reg.counter("a.first", Class::Structural).add(1);
        reg.gauge("m.mid", Class::Structural).set(1.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        let stru = snap.structural();
        assert_eq!(stru.entries.len(), 2);
        assert!(stru.get("z.last").is_none());
        assert_eq!(snap.counter("a.first"), Some(1));
        assert_eq!(snap.gauge("m.mid"), Some(1.5));
        assert_eq!(snap.counter("m.mid"), None, "kind-checked accessor");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("c", Class::Structural).add(7);
        reg.gauge("g", Class::Observational).set(-2.25);
        reg.histogram("h", Class::Structural, &[10.0, 100.0])
            .observe(42.0);
        let snap = reg.snapshot();
        let text = snap.to_json().to_string_pretty();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, snap);
        // Serialisation is a pure function of the snapshot.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }

    #[test]
    fn histogram_without_count_is_an_error() {
        let reg = MetricsRegistry::new();
        reg.histogram("h", Class::Structural, &[10.0]).observe(4.0);
        let text = reg.snapshot().to_json().to_string();
        for bad in [r#""counted":1"#, r#""count":"1""#] {
            let json = Json::parse(&text.replace(r#""count":1"#, bad)).expect("parse");
            let err = MetricsSnapshot::from_json(&json).unwrap_err();
            assert_eq!(err, "metric `h`: missing count");
        }
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("harness.exec.jobs", Class::Structural).add(12);
        reg.gauge("harness.exec.queue_depth", Class::Structural)
            .set(4.0);
        let h = reg.histogram("wps.gap", Class::Structural, &[1.0, 2.0]);
        h.observe(1.5);
        h.observe(0.5);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE harness_exec_jobs counter"));
        assert!(text.contains("harness_exec_jobs 12"));
        assert!(text.contains("harness_exec_queue_depth 4"));
        // Cumulative buckets with an +Inf overflow.
        assert!(text.contains("wps_gap_bucket{le=\"1\"} 1"));
        assert!(text.contains("wps_gap_bucket{le=\"2\"} 2"));
        assert!(text.contains("wps_gap_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wps_gap_count 2"));
    }
}
