//! Span tracing: named wall-clock intervals that nest into the harness's
//! Chrome-trace export.
//!
//! A [`SpanLog`] is a shared, append-only list of completed
//! [`SpanRecord`]s, timestamped in microseconds since the log's creation
//! (the same epoch convention the executor's batch/job trace uses, so the
//! two streams merge onto one timeline). [`SpanLog::span`] returns a
//! [`SpanGuard`] that records the interval when dropped — callers wrap a
//! phase in a guard and never touch clocks directly:
//!
//! ```
//! let log = wmm_obs::SpanLog::new();
//! {
//!     let _s = log.span("fit", "report");
//!     // ... the phase being timed ...
//! }
//! assert_eq!(log.records().len(), 1);
//! ```
//!
//! Spans are observational by construction (they are wall-clock
//! measurements), so they live with the Chrome trace on the non-gated side
//! of every artifact.

use std::sync::Mutex;
use std::time::Instant;

use wmmbench::json::{Json, ToJson};

/// One completed span: a complete slice on a Chrome-trace timeline. The
/// harness's batch, job and instruction slices are the same type.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span label, e.g. `"campaign fig5-arm"` or `"job 17"`.
    pub name: String,
    /// Category, filterable in the trace viewer (e.g. `"report"`).
    pub cat: &'static str,
    /// Start, microseconds since the log epoch.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Track id the span renders on (0 = the caller's main track).
    pub tid: u64,
}

/// One Trace Event Format complete (`"ph": "X"`) event.
impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("cat", self.cat.to_json()),
            ("ph", "X".to_json()),
            ("ts", Json::Num(self.ts_us)),
            ("dur", Json::Num(self.dur_us)),
            ("pid", 1u64.to_json()),
            ("tid", self.tid.to_json()),
        ])
    }
}

/// A shared log of completed spans with one common epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// A fresh log; the epoch is now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the log epoch.
    #[must_use]
    pub(crate) fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span on track 0; it records itself when the guard drops.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard<'_> {
        self.span_on(name, cat, 0)
    }

    /// Open a span on an explicit track.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span_on(&self, name: impl Into<String>, cat: &'static str, tid: u64) -> SpanGuard<'_> {
        SpanGuard {
            log: self,
            name: name.into(),
            cat,
            tid,
            ts_us: self.now_us(),
            t0: Instant::now(),
        }
    }

    /// Append an already-built record (for spans reconstructed from other
    /// sources rather than timed live).
    pub(crate) fn record(&self, record: SpanRecord) {
        self.spans.lock().expect("span log poisoned").push(record);
    }

    /// Snapshot of the completed spans, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// An open span; records itself into its [`SpanLog`] on drop.
#[derive(Debug)]
pub struct SpanGuard<'l> {
    log: &'l SpanLog,
    name: String,
    cat: &'static str,
    tid: u64,
    ts_us: f64,
    t0: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.log.record(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ts_us: self.ts_us,
            dur_us: self.t0.elapsed().as_secs_f64() * 1e6,
            tid: self.tid,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop_with_nonnegative_interval() {
        let log = SpanLog::new();
        {
            let _outer = log.span("outer", "test");
            let _inner = log.span_on("inner", "test", 3);
        }
        // Inner dropped first.
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].tid, 3);
        assert_eq!(records[1].name, "outer");
        for r in &records {
            assert!(r.ts_us >= 0.0 && r.dur_us >= 0.0, "{r:?}");
        }
        // The outer span opened no later than the inner one.
        assert!(records[1].ts_us <= records[0].ts_us);
    }

    #[test]
    fn explicit_records_append_verbatim() {
        let log = SpanLog::new();
        assert!(log.records().is_empty());
        log.record(SpanRecord {
            name: "synthetic".into(),
            cat: "test",
            ts_us: 10.0,
            dur_us: 0.0,
            tid: 7,
        });
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].dur_us, 0.0, "zero-duration spans kept");
    }

    #[test]
    fn spans_record_across_threads() {
        let log = SpanLog::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = &log;
                scope.spawn(move || {
                    let _s = log.span_on(format!("worker {t}"), "test", t + 1);
                });
            }
        });
        assert_eq!(log.records().len(), 4);
    }
}
