//! Chrome-trace export of a campaign's scheduler timeline.
//!
//! [`ParallelExecutor`](crate::ParallelExecutor) can record one
//! [`TraceEvent`] per batch and per freshly simulated job; this module
//! serialises those events to the Trace Event Format JSON that
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly. Each
//! event is a complete ("ph": "X") slice: batches on track 0, jobs on one
//! track per worker thread, timestamps in microseconds since the executor
//! was created.
//!
//! Trace files are observational by construction — timings vary run to
//! run — so they live outside the manifest/gate path entirely: a campaign
//! only writes one when asked to via `--trace <path>`.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use wmm_obs::SpanRecord;
use wmm_sim::stats::SiteStall;
use wmmbench::json::{Json, ToJson};

/// One complete slice on the trace timeline: a [`SpanRecord`]. Batch
/// slices (`cat` `"batch"`) sit on track 0 and job slices (`"job"`) on
/// track `worker + 1`, timestamped from the executor epoch.
pub type TraceEvent = SpanRecord;

/// Convert one sited run's per-site stall records into an
/// instruction-granular timeline: one complete slice per executed
/// instruction, on one track per simulated thread (`tid = thread`).
///
/// A [`SiteStall`] carries no timestamps, but a thread executes its
/// instructions strictly in stream order and each advances the core's
/// clock by exactly `total_cycles`, so slice starts are the per-thread
/// cumulative sums — an exact reconstruction of the simulated timeline.
/// `label` renders each `(thread, index)` site's name (e.g. through the
/// run's `SiteNames`); `ns_per_cycle` converts the architecture's clock
/// to trace time. The records must be sorted by `(thread, index)`, which is how
/// `Machine::run_sited_with` returns them.
pub fn instruction_trace_events(
    sites: &[SiteStall],
    ns_per_cycle: f64,
    mut label: impl FnMut(u32, u32) -> String,
) -> Vec<TraceEvent> {
    let mut cursor: HashMap<u32, f64> = HashMap::new();
    sites
        .iter()
        .map(|s| {
            let start = cursor.entry(s.thread).or_insert(0.0);
            let ts_us = *start * ns_per_cycle / 1e3;
            *start += s.total_cycles;
            TraceEvent {
                name: label(s.thread, s.index),
                cat: "instr",
                ts_us,
                dur_us: s.total_cycles * ns_per_cycle / 1e3,
                tid: s.thread as u64,
            }
        })
        .collect()
}

/// Completed [`SpanRecord`]s as trace slices, so phase-level spans (a
/// [`wmm_obs::SpanLog`] sharing the executor's epoch convention) render on
/// the same timeline as batch and job slices, each under its own category.
pub fn span_trace_events(spans: &[SpanRecord]) -> Vec<TraceEvent> {
    spans.to_vec()
}

/// Merge several event streams into one chronologically sorted timeline.
///
/// The sort is *stable* on the start timestamp (`f64::total_cmp`), so
/// events that start at the same instant — including zero-duration spans —
/// keep their relative input order, and the merged order is a pure
/// function of the inputs.
pub fn merge_chronological(streams: &[&[TraceEvent]]) -> Vec<TraceEvent> {
    let mut merged: Vec<TraceEvent> = streams.iter().flat_map(|s| s.iter().cloned()).collect();
    merged.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    merged
}

/// Serialise events to a Trace Event Format JSON document.
pub(crate) fn to_chrome_json(events: &[TraceEvent]) -> String {
    let json = Json::obj(vec![
        (
            "traceEvents",
            Json::Arr(events.iter().map(ToJson::to_json).collect()),
        ),
        ("displayTimeUnit", "ms".to_json()),
    ]);
    let mut text = json.to_string_pretty();
    text.push('\n');
    text
}

/// Write events to `path` in Trace Event Format, creating parent
/// directories as needed.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[TraceEvent]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, to_chrome_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_has_required_fields() {
        let events = vec![
            TraceEvent {
                name: "batch 0".into(),
                cat: "batch",
                ts_us: 0.0,
                dur_us: 1500.25,
                tid: 0,
            },
            TraceEvent {
                name: "job 4".into(),
                cat: "job",
                ts_us: 12.5,
                dur_us: 300.0,
                tid: 2,
            },
        ];
        let text = to_chrome_json(&events);
        let json = Json::parse(&text).expect("trace output parses as JSON");
        let arr = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(arr.len(), 2);
        let first = &arr[0];
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(first.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(first.get("dur").and_then(Json::as_f64), Some(1500.25));
        assert_eq!(arr[1].get("tid").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn names_with_quotes_and_backslashes_stay_valid_json() {
        // Regression guard: labels flow from user-visible site names, which
        // can contain characters JSON must escape. The export routes every
        // string through the `Json` layer, so the document stays parseable
        // and the name round-trips exactly.
        let hostile = "site \"q\" \\ back\nline\ttab";
        let events = vec![TraceEvent {
            name: hostile.to_string(),
            cat: "job",
            ts_us: 0.0,
            dur_us: 1.0,
            tid: 1,
        }];
        let text = to_chrome_json(&events);
        let json = Json::parse(&text).expect("escaped output parses");
        let arr = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("name").and_then(Json::as_str), Some(hostile));
    }

    #[test]
    fn instruction_trace_reconstructs_per_thread_timeline() {
        let site = |thread: u32, index: u32, total: f64| SiteStall {
            thread,
            index,
            fence: None,
            fences: 0,
            fence_cycles: 0.0,
            sb_stall_cycles: 0.0,
            mem_cycles: 0.0,
            total_cycles: total,
        };
        let sites = vec![
            site(0, 0, 10.0),
            site(0, 1, 4.0),
            site(1, 0, 2.5),
            site(1, 1, 1.5),
        ];
        // 0.5 ns/cycle: slice starts are per-thread cumulative cycles.
        let events = instruction_trace_events(&sites, 0.5, |t, i| format!("t{t}:i{i}"));
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].ts_us, 0.0);
        assert_eq!(events[1].ts_us, 10.0 * 0.5 / 1e3);
        assert_eq!(events[1].dur_us, 4.0 * 0.5 / 1e3);
        // Thread 1 starts its own track at zero.
        assert_eq!(events[2].ts_us, 0.0);
        assert_eq!(events[3].ts_us, 2.5 * 0.5 / 1e3);
        assert_eq!(events[2].tid, 1);
        assert_eq!(events[0].name, "t0:i0");
        assert!(events.iter().all(|e| e.cat == "instr"));
    }

    #[test]
    fn empty_campaign_exports_a_valid_empty_trace() {
        // An executor that never ran a batch still produces a loadable
        // document: an empty traceEvents array, not malformed JSON.
        let text = to_chrome_json(&[]);
        let json = Json::parse(&text).expect("empty trace parses");
        let arr = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents present");
        assert!(arr.is_empty());
        assert!(merge_chronological(&[&[], &[]]).is_empty());
        assert!(span_trace_events(&[]).is_empty());
    }

    #[test]
    fn zero_duration_spans_survive_export() {
        let spans = vec![
            SpanRecord {
                name: "instant".into(),
                cat: "report",
                ts_us: 5.0,
                dur_us: 0.0,
                tid: 0,
            },
            SpanRecord {
                name: "weird cat".into(),
                cat: "test",
                ts_us: 5.0,
                dur_us: 1.0,
                tid: 2,
            },
        ];
        let events = span_trace_events(&spans);
        assert_eq!(
            events[0].dur_us, 0.0,
            "zero-duration slice kept, not dropped"
        );
        assert_eq!(events[0].cat, "report");
        assert_eq!(events[1].cat, "test", "categories pass through unchanged");
        let text = to_chrome_json(&events);
        let json = Json::parse(&text).expect("parses");
        let arr = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("dur").and_then(Json::as_f64), Some(0.0));
        // Equal timestamps: stable merge keeps input order.
        let merged = merge_chronological(&[&events]);
        assert_eq!(merged[0].name, "instant");
        assert_eq!(merged[1].name, "weird cat");
    }

    #[test]
    fn merged_span_and_instruction_streams_stay_sorted() {
        let site = |thread: u32, index: u32, total: f64| SiteStall {
            thread,
            index,
            fence: None,
            fences: 0,
            fence_cycles: 0.0,
            sb_stall_cycles: 0.0,
            mem_cycles: 0.0,
            total_cycles: total,
        };
        let instr =
            instruction_trace_events(&[site(0, 0, 4000.0), site(0, 1, 4000.0)], 1.0, |t, i| {
                format!("t{t}:i{i}")
            });
        let spans = span_trace_events(&[SpanRecord {
            name: "phase".into(),
            cat: "report",
            ts_us: 1.0,
            dur_us: 10.0,
            tid: 9,
        }]);
        let merged = merge_chronological(&[&instr, &spans]);
        assert_eq!(merged.len(), 3);
        assert!(
            merged.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "merged timeline is chronologically sorted"
        );
        // The span (ts 1.0) lands between instruction starts 0.0 and 4.0.
        assert_eq!(merged[1].name, "phase");
        let text = to_chrome_json(&merged);
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("wmm-harness-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("trace.json");
        write_chrome_trace(&path, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
