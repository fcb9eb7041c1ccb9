//! The measurement loop shared by every workload.
//!
//! A run sets its workload up repeatedly (reporting the median),
//! checks one warm-up pass, then measures back-to-back passes until the
//! time budget is spent. Each pass is timed alone, and its peak resident
//! memory is read alone (the kernel's high-water mark is reset before it);
//! its results are checksummed and checked only after the clock has
//! stopped. Every metric is the median over passes. A pass whose
//! checksum differs from the reference — the value pinned for the default
//! seed, else the warm-up pass's — or that panics counts all its units as
//! failed.
//!
//! With tracing on, the run instead alternates untraced and traced passes:
//! the traced ones feed the per-layer [`Tracer`], and the pair gives the
//! trace overhead. Both kinds are checked against the same reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::host::{peak_rss_mb, process_cpu_s, reset_peak_rss};
use crate::layers::Tracer;
use crate::stats::{Better, Summary};

/// Set-ups per run at the least; `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 5;

/// Set-up repeats while the set-ups so far took less than this, seconds,
/// so a cheap set-up's median rests on many samples.
pub const SETUP_BUDGET_S: f64 = 0.25;

/// Set-ups per run at the most.
pub const SETUP_MAX_REPS: usize = 1000;

/// Timed passes a run always makes, however short its budget.
pub const MIN_PASSES: usize = 3;

/// The end-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("jobs_per_s", "1/s"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The seed whose checksums are pinned.
pub const DEFAULT_SEED: u64 = 0;

/// What checking one pass's output found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Units that failed their own check (oracle split, unprotected
    /// placement, …).
    pub failed: u64,
    /// Order-sensitive checksum over the pass's results.
    pub checksum: u64,
}

/// One benchmark workload, set up once and run pass after pass.
pub trait Workload {
    /// A pass's raw results, checked after the clock stops.
    type Output;

    /// Units of work one pass attempts (the `jobs_per_s` unit).
    fn units(&self) -> u64;

    /// The checksum pinned for [`DEFAULT_SEED`].
    fn pinned(&self) -> u64;

    /// One untraced pass.
    fn pass(&mut self) -> Self::Output;

    /// The same pass rebuilt from the layers' public calls, with each call
    /// in a span. Returns the results and the time spent in probes that
    /// the untraced pass does not make (excluded from traced throughput).
    fn traced_pass(&mut self, tracer: &Tracer) -> (Self::Output, Duration);

    /// Check a pass's results and checksum them.
    fn check(&self, out: &Self::Output) -> Check;

    /// End-to-end facts to print beside the metrics (e.g. `k_paper_err`).
    fn facts(&self, _out: &Self::Output) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Run options from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Where the Chrome trace goes (traced runs only).
    pub trace_path: std::path::PathBuf,
}

/// One reported metric: `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// A finished run: the contract's result line plus human-readable rows.
pub struct Outcome {
    /// Every check passed and no unit failed.
    pub correct: bool,
    /// Units attempted over every checked pass.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Lines to print before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failure bookkeeping across a run's checked passes.
struct Ledger {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Account one pass (`None` = it panicked).
    fn record<W: Workload>(&mut self, w: &W, label: &str, out: Option<&W::Output>) {
        let units = w.units();
        self.attempted += units;
        let Some(out) = out else {
            self.failed += units;
            self.notes.push(format!("{label}: pass panicked"));
            return;
        };
        let check = w.check(out);
        let reference = *self.reference.get_or_insert(check.checksum);
        if check.checksum != reference {
            self.failed += units;
            self.notes.push(format!(
                "{label}: checksum {:016x} != reference {reference:016x}",
                check.checksum
            ));
            return;
        }
        self.failed += check.failed.min(units);
        if check.failed > 0 {
            self.notes
                .push(format!("{label}: {} of {units} units failed", check.failed));
        }
    }
}

/// Run `f`, turning a panic into `None`.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Summary line for one metric's samples.
fn describe(name: &str, unit: &str, s: &Summary) -> String {
    let tail = s.tail.map_or(
        "no tail percentile (too few samples)".to_string(),
        |(p, v)| format!("p{p}={v:.4}"),
    );
    format!(
        "  {name:<16} median {:.4} {unit} (n={}, q1 {:.4}, q3 {:.4}, spread {:.2}%, {tail})",
        s.median,
        s.n,
        s.q1,
        s.q3,
        100.0 * s.spread()
    )
}

/// Set a workload up repeatedly (see [`SETUP_BUDGET_S`]) and keep the
/// last, returning it with the set-up times in seconds.
pub fn set_up<W>(setup: impl Fn() -> W) -> (W, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Measure `w` under `opts` after its set-up took `setup_s` (per rep).
pub fn measure<W: Workload>(mut w: W, setup_s: &[f64], opts: &Options) -> Outcome {
    let mut ledger = Ledger {
        reference: (opts.seed == DEFAULT_SEED).then(|| w.pinned()),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let warm = guarded(|| w.pass());
    ledger.record(&w, "warm-up", warm.as_ref());
    let facts = warm.as_ref().map(|out| w.facts(out)).unwrap_or_default();

    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let (metrics, mut run_notes) = if opts.trace {
        traced(&mut w, &mut ledger, budget, opts)
    } else {
        untraced(&mut w, &mut ledger, budget, setup_s)
    };
    let mut notes = vec![format!(
        "workload {} seed {} on {} worker(s): {} units per pass, {:.1} s measured",
        opts.workload,
        opts.seed,
        crate::host::nproc(),
        w.units(),
        started.elapsed().as_secs_f64()
    )];
    notes.extend(
        facts
            .iter()
            .map(|(name, v)| format!("  {name:<16} {v:.6} (deterministic)")),
    );
    notes.append(&mut run_notes);
    if let Some(reference) = ledger.reference {
        let source = if opts.seed == DEFAULT_SEED {
            "pinned for the default seed"
        } else {
            "taken from the warm-up pass"
        };
        notes.push(format!("  checksum         {reference:016x} ({source})"));
    }
    notes.append(&mut ledger.notes);
    notes.push(format!(
        "  fail_ratio       {:.6} ({} failed of {} attempted units)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    ));
    Outcome {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    }
}

/// The end-to-end run: timed untraced passes until the budget is spent.
fn untraced<W: Workload>(
    w: &mut W,
    ledger: &mut Ledger,
    budget: Duration,
    setup_s: &[f64],
) -> (Vec<Metric>, Vec<String>) {
    let started = Instant::now();
    let (mut rate, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while rate.len() < MIN_PASSES || started.elapsed() < budget {
        reset_peak_rss();
        let (cpu0, t0) = (process_cpu_s(), Instant::now());
        let out = guarded(|| w.pass());
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        rss.push(peak_rss_mb());
        // Clock stopped: now check.
        let label = format!("pass {}", rate.len());
        ledger.record(w, &label, out.as_ref());
        let units = w.units() as f64;
        rate.push(units / wall);
        cpu.push(cpu_s * 1e3 / units);
    }
    let summaries = [
        Summary::of(&rate, Better::Higher),
        Summary::of(&cpu, Better::Lower),
        Summary::of(setup_s, Better::Lower),
        Summary::of(&rss, Better::Lower),
    ];
    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    for ((name, unit), summary) in END_TO_END.into_iter().zip(summaries) {
        let s = summary.expect("every metric has samples");
        notes.push(describe(name, unit, &s));
        metrics.push((name, unit, s.median));
    }
    (metrics, notes)
}

/// The traced run: untraced and traced passes alternate until the budget
/// is spent; per-layer metrics come from the traced ones.
fn traced<W: Workload>(
    w: &mut W,
    ledger: &mut Ledger,
    budget: Duration,
    opts: &Options,
) -> (Vec<Metric>, Vec<String>) {
    let tracer = Tracer::new();
    let workers = crate::host::nproc();
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < MIN_PASSES || started.elapsed() < budget {
        let i = traced.len();
        let t0 = Instant::now();
        let out = guarded(|| w.pass());
        let wall = t0.elapsed().as_secs_f64();
        ledger.record(w, &format!("untraced pass {i}"), out.as_ref());
        plain.push(w.units() as f64 / wall);

        let t0 = Instant::now();
        let out = guarded(|| w.traced_pass(&tracer));
        let probes = out.as_ref().map_or(Duration::ZERO, |(_, p)| *p);
        let wall = t0.elapsed().saturating_sub(probes).as_secs_f64();
        tracer.add("harness.pass_ms", wall * 1e3);
        tracer.end_pass(workers);
        ledger.record(w, &format!("traced pass {i}"), out.as_ref().map(|(o, _)| o));
        traced.push(w.units() as f64 / wall);
    }
    let plain_s = Summary::of(&plain, Better::Higher).expect("untraced samples");
    let traced_s = Summary::of(&traced, Better::Higher).expect("traced samples");
    let mut metrics = tracer.report();
    for (name, _, value) in &mut metrics {
        match *name {
            "trace.jobs_per_s" => *value = traced_s.median,
            "trace.untraced_jobs_per_s" => *value = plain_s.median,
            "trace.overhead_pct" => {
                *value = 100.0 * (plain_s.median - traced_s.median) / plain_s.median;
            }
            _ => {}
        }
    }
    let mut notes = vec![
        describe("untraced jobs/s", "1/s", &plain_s),
        describe("traced jobs/s", "1/s", &traced_s),
    ];
    notes.push(write_trace(&tracer, &opts.trace_path));
    (metrics, notes)
}

/// Export the traced run's spans as a Chrome trace.
fn write_trace(tracer: &Tracer, path: &Path) -> String {
    let events = wmm_harness::span_trace_events(&tracer.spans());
    match wmm_harness::write_chrome_trace(path, &events) {
        Ok(()) => format!("  trace: {} spans -> {}", events.len(), path.display()),
        Err(e) => format!("  trace: not written ({e})"),
    }
}
