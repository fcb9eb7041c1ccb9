//! The regression gate: diff a run manifest against a committed baseline.
//!
//! The gate compares everything a manifest carries, each section by its
//! determinism contract (see [`crate::artifact`]):
//!
//! * fitted sensitivities and per-cell measurements, within a relative
//!   tolerance ([`GateConfig`]);
//! * every structural entry of the `metrics` counts block, exactly and in
//!   both directions — the simulator is deterministic, so a count that
//!   moves at all is a change. A run that read the disk cache
//!   (`disk_cache`) simulated only what the file lacked, so its counts are
//!   skipped, and the report says so;
//! * every `sites` record, exactly, field by field.
//!
//! Observational entries (timings, worker tracks) are never gated: they
//! legitimately vary run to run. A failure names the campaign, the cell,
//! count or site that moved, and its baseline and current values.
//!
//! Two failure modes are handled explicitly rather than silently:
//!
//! * **Non-finite values.** A NaN drift makes every `drift > tol`
//!   comparison false, so a manifest full of NaN fits would sail through a
//!   naive gate. Any non-finite baseline value, current value, or computed
//!   drift is a hard failure.
//! * **Duplicate labels.** Labels are the join key between baseline and
//!   current; if either side repeats a label, only one entry would ever be
//!   compared and the rest would be silently ignored. Duplicates are a
//!   hard failure on whichever side they appear.

use std::collections::HashMap;

use wmm_obs::MetricValue;
use wmm_sim::isa::FenceKind;

use crate::artifact::{RunManifest, SiteRecord};

/// Gate tolerances. Relative drift is `|new - old| / max(|old|, eps)`.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum relative drift of a fitted `k`.
    pub k_rel_tol: f64,
    /// Maximum relative drift of a measurement cell.
    pub cell_rel_tol: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        // Fitted ks move more than individual cells under legitimate noise
        // (the fit amplifies tail points), so they get the wider band.
        GateConfig {
            k_rel_tol: 0.10,
            cell_rel_tol: 0.05,
        }
    }
}

/// One out-of-tolerance value comparison, structured so callers can print
/// a full per-cell diff table instead of only the first offending entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// What kind of value drifted (`"fit k"`, `"cell"` or `"count"`).
    pub kind: &'static str,
    /// The label joining baseline and current.
    pub label: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Absolute delta `current - baseline`.
    pub abs_delta: f64,
    /// Relative drift `|current - baseline| / max(|baseline|, eps)`.
    pub rel_delta: f64,
}

/// The gate verdict: every out-of-tolerance or structural difference found.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human-readable failure descriptions; empty means the gate passes.
    pub failures: Vec<String>,
    /// The fit, cell and count comparisons that moved, in manifest order —
    /// the structured counterpart of the drift entries in `failures`
    /// (structural and site failures have no mismatch record).
    pub mismatches: Vec<Mismatch>,
    /// Number of fits and cells compared within tolerance.
    pub checked: usize,
    /// Number of structural count entries compared exactly.
    pub counts: usize,
    /// Number of site records compared exactly.
    pub sites: usize,
    /// Whether the counts were skipped because a run read the disk cache.
    pub counts_skipped: bool,
}

impl GateReport {
    /// Whether the manifest matches the baseline.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line saying what was compared, and that the counts were skipped
    /// when they were.
    pub fn summary(&self) -> String {
        let line = format!("{} values within tolerance", self.checked);
        if self.counts_skipped {
            format!(
                "{line}, {} sites exact; counts skipped: the run read the disk cache",
                self.sites
            )
        } else {
            format!(
                "{line}, {} counts and {} sites exact",
                self.counts, self.sites
            )
        }
    }

    /// A compact aligned diff table of every drifted value, one row per
    /// mismatch; empty string when no values drifted.
    pub fn diff_table(&self) -> String {
        if self.mismatches.is_empty() {
            return String::new();
        }
        let label_w = self
            .mismatches
            .iter()
            .map(|m| m.label.len())
            .max()
            .unwrap_or(0)
            .max("label".len());
        let mut out = format!(
            "{:<6} {:<label_w$} {:>13} {:>13} {:>13} {:>9}\n",
            "kind", "label", "baseline", "current", "abs delta", "rel"
        );
        for m in &self.mismatches {
            out.push_str(&format!(
                "{:<6} {:<label_w$} {:>13.6e} {:>13.6e} {:>+13.6e} {:>8.2}%\n",
                m.kind.replace(' ', "-"),
                m.label,
                m.baseline,
                m.current,
                m.abs_delta,
                100.0 * m.rel_delta,
            ));
        }
        out
    }
}

fn rel_drift(old: f64, new: f64) -> f64 {
    (new - old).abs() / old.abs().max(1e-12)
}

impl GateReport {
    /// Compare one labelled value pair, appending a failure when the drift
    /// is out of tolerance or any quantity involved is non-finite (NaN
    /// compares false against every tolerance, so it must be rejected
    /// explicitly). Out-of-tolerance drifts also append a structured
    /// [`Mismatch`]. A zero tolerance compares exactly: the drift of two
    /// distinct finite values is never zero.
    ///
    /// Every failure is a single line carrying the offending campaign, the
    /// label, the measured drift (and, within a tolerance, the
    /// current/baseline ratio) and both values — enough to identify and
    /// judge the regression from a CI log without opening the manifests.
    fn check(
        &mut self,
        campaign: &str,
        kind: &'static str,
        label: &str,
        old: f64,
        new: f64,
        tol: f64,
    ) {
        let drift = rel_drift(old, new);
        if !old.is_finite() || !new.is_finite() || !drift.is_finite() {
            self.failures.push(format!(
                "campaign `{campaign}` {kind} `{label}`: non-finite value (baseline {old}, current {new}) — gate cannot pass NaN/inf"
            ));
            return;
        }
        if drift > tol {
            let (moved, bound) = if tol == 0.0 {
                (
                    format!("moved by {drift:.1e} relative"),
                    "compared exactly".into(),
                )
            } else {
                let ratio = new / old.abs().max(1e-12).copysign(old);
                (
                    format!("value drifted {:.1}% — ratio {ratio:.4}", 100.0 * drift),
                    format!("tolerance {:.1}%", 100.0 * tol),
                )
            };
            self.failures.push(format!(
                "campaign `{campaign}` {kind} `{label}`: {moved} (baseline {old}, current {new}, {bound})"
            ));
            self.mismatches.push(Mismatch {
                kind,
                label: label.to_string(),
                baseline: old,
                current: new,
                abs_delta: new - old,
                rel_delta: drift,
            });
        }
    }
}

/// Join `baseline` and `current` records of `kind` by label into matched
/// pairs, in baseline order. A label that either side repeats, or that only
/// one side holds, is a failure: duplicates would make the gate silently
/// compare only one of the entries.
fn join<'a, T>(
    kind: &str,
    baseline: &'a [T],
    current: &'a [T],
    label: impl Fn(&T) -> &str,
    failures: &mut Vec<String>,
) -> Vec<(&'a T, &'a T)> {
    // Index both sides once (the manifests can hold hundreds of sweep
    // cells and thousands of sites; linear scans made the gate O(n²)).
    let mut index = |items: &'a [T], side: &str| {
        let mut map: HashMap<&str, &T> = HashMap::with_capacity(items.len());
        for item in items {
            if map.insert(label(item), item).is_some() {
                failures.push(format!(
                    "{side} {kind} label `{}` is duplicated — ambiguous comparison, fix the manifest",
                    label(item)
                ));
            }
        }
        map
    };
    let (base_idx, cur_idx) = (index(baseline, "baseline"), index(current, "current"));
    let mut pairs = Vec::with_capacity(baseline.len());
    for b in baseline {
        match cur_idx.get(label(b)) {
            None => failures.push(format!("{kind} `{}` missing from current run", label(b))),
            Some(c) => pairs.push((b, *c)),
        }
    }
    for c in current.iter().filter(|c| !base_idx.contains_key(label(c))) {
        failures.push(format!(
            "{kind} `{}` absent from baseline (refresh the baseline manifest)",
            label(c)
        ));
    }
    pairs
}

/// Every field of site `b` that differs in `c`, as `field old -> new`.
fn site_moves(b: &SiteRecord, c: &SiteRecord) -> Vec<String> {
    let mnemonic = |k: Option<FenceKind>| k.map_or("none", FenceKind::mnemonic);
    let mut moved = vec![];
    if b.fence != c.fence {
        moved.push(format!(
            "fence {} -> {}",
            mnemonic(b.fence),
            mnemonic(c.fence)
        ));
    }
    let values = |s: &SiteRecord| {
        [
            ("fences", s.fences as f64),
            ("fence_cycles", s.fence_cycles),
            ("sb_stall_cycles", s.sb_stall_cycles),
            ("mem_cycles", s.mem_cycles),
            ("total_cycles", s.total_cycles),
        ]
    };
    for ((field, old), (_, new)) in values(b).into_iter().zip(values(c)) {
        if old != new || !old.is_finite() {
            moved.push(format!("{field} {old} -> {new}"));
        }
    }
    moved
}

/// Compare `current` against `baseline` under `cfg`.
pub fn compare(baseline: &RunManifest, current: &RunManifest, cfg: GateConfig) -> GateReport {
    let mut r = GateReport::default();
    let campaign = baseline.campaign.as_str();
    if baseline.campaign != current.campaign {
        r.failures.push(format!(
            "campaign mismatch: baseline `{}` vs current `{}`",
            baseline.campaign, current.campaign
        ));
    }
    if baseline.arch != current.arch {
        r.failures.push(format!(
            "arch mismatch: baseline `{}` vs current `{}`",
            baseline.arch, current.arch
        ));
    }
    for (what, base, cur) in [
        (
            "counts block",
            baseline.metrics.is_some(),
            current.metrics.is_some(),
        ),
        ("sites", baseline.sites.is_some(), current.sites.is_some()),
    ] {
        if base != cur {
            let side = if base { "current run" } else { "baseline" };
            r.failures.push(format!("{what} missing from {side}"));
        }
    }

    let fits = join(
        "fit",
        &baseline.fits,
        &current.fits,
        |f| &f.label,
        &mut r.failures,
    );
    let cells = join(
        "cell",
        &baseline.cells,
        &current.cells,
        |c| &c.label,
        &mut r.failures,
    );
    r.checked = fits.len() + cells.len();
    for (b, c) in fits {
        r.check(campaign, "fit k", &b.label, b.k, c.k, cfg.k_rel_tol);
    }
    for (b, c) in cells {
        r.check(
            campaign,
            "cell",
            &b.label,
            b.value,
            c.value,
            cfg.cell_rel_tol,
        );
    }

    // Counts: every structural entry, exactly. Counters and gauges compare
    // as values (counts stay below 2^53, so `f64` holds them exactly);
    // anything else — a histogram, or an entry that changed kind — must be
    // equal as a whole.
    r.counts_skipped = baseline.disk_cache || current.disk_cache;
    if let (Some(b), Some(c), false) = (&baseline.metrics, &current.metrics, r.counts_skipped) {
        let (b, c) = (b.structural(), c.structural());
        let pairs = join(
            "count",
            &b.entries,
            &c.entries,
            |e| &e.name,
            &mut r.failures,
        );
        r.counts = pairs.len();
        for (b, c) in pairs {
            match (&b.value, &c.value) {
                (MetricValue::Counter(old), MetricValue::Counter(new)) => {
                    r.check(campaign, "count", &b.name, *old as f64, *new as f64, 0.0);
                }
                (MetricValue::Gauge(old), MetricValue::Gauge(new)) => {
                    r.check(campaign, "count", &b.name, *old, *new, 0.0);
                }
                (old, new) if old != new => r.failures.push(format!(
                    "campaign `{campaign}` count `{}` moved: baseline {old:?}, current {new:?}",
                    b.name
                )),
                _ => {}
            }
        }
    }

    // Sites: every record, field by field, exactly.
    if let (Some(b), Some(c)) = (&baseline.sites, &current.sites) {
        let pairs = join("site", b, c, |s| &s.name, &mut r.failures);
        r.sites = pairs.len();
        for (b, c) in pairs {
            let moved = site_moves(b, c);
            if !moved.is_empty() {
                r.failures.push(format!(
                    "campaign `{campaign}` site `{}` moved (baseline -> current): {}",
                    b.name,
                    moved.join(", ")
                ));
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_obs::{Class, MetricsRegistry};
    use wmmbench::model::SensitivityFit;

    fn gate(baseline: &RunManifest, current: &RunManifest) -> GateReport {
        compare(baseline, current, GateConfig::default())
    }

    fn any(r: &GateReport, needle: &str) -> bool {
        r.failures.iter().any(|f| f.contains(needle))
    }

    fn manifest(k: f64, cell: f64) -> RunManifest {
        let mut m = RunManifest::new("gate_test", "arm");
        m.push_fit(
            "spark",
            &SensitivityFit {
                k,
                k_std_err: 1e-4,
                r_squared: 0.99,
            },
        );
        m.push_cell("spark/a=16", cell);
        m
    }

    #[test]
    fn identical_manifests_pass() {
        let r = gate(&manifest(0.01, 0.9), &manifest(0.01, 0.9));
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checked, 2);
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let r = gate(&manifest(0.01, 0.9), &manifest(0.0105, 0.91));
        assert!(r.pass(), "{:?}", r.failures);
    }

    #[test]
    fn k_drift_beyond_tolerance_fails() {
        let r = gate(&manifest(0.01, 0.9), &manifest(0.013, 0.9));
        assert!(!r.pass());
        assert!(r.failures[0].contains("drifted"), "{:?}", r.failures);
        // One line per failure, naming the campaign and the measured
        // ratio so CI logs are self-contained.
        assert!(!r.failures[0].contains('\n'));
        assert!(
            r.failures[0].contains("campaign `gate_test`"),
            "{:?}",
            r.failures
        );
        assert!(r.failures[0].contains("ratio 1.3000"), "{:?}", r.failures);
    }

    #[test]
    fn cell_drift_beyond_tolerance_fails() {
        let r = gate(&manifest(0.01, 0.9), &manifest(0.01, 0.8));
        assert!(!r.pass());
    }

    #[test]
    fn nan_values_fail_instead_of_sailing_through() {
        // `drift > tol` is false for NaN, so a naive gate would pass these.
        // A NaN current k or baseline k is fatal, infinite cells too, and
        // NaN == NaN in both manifests is still a failure, not a match.
        let nan = f64::NAN;
        for (base, cur) in [
            (manifest(0.01, 0.9), manifest(nan, 0.9)),
            (manifest(nan, 0.9), manifest(0.01, 0.9)),
            (manifest(0.01, 0.9), manifest(0.01, f64::INFINITY)),
            (manifest(nan, 0.9), manifest(nan, 0.9)),
        ] {
            let r = gate(&base, &cur);
            assert!(any(&r, "non-finite"), "{:?}", r.failures);
        }
    }

    #[test]
    fn duplicate_labels_fail_loudly() {
        let baseline = manifest(0.01, 0.9);
        // Current has the cell label twice: first copy in tolerance, second
        // wildly out. The old find-first gate compared only the first and
        // passed; duplicates must instead be a hard failure.
        let mut current = manifest(0.01, 0.9);
        current.push_cell("spark/a=16", 500.0);
        let r = gate(&baseline, &current);
        assert!(!r.pass(), "duplicate label must fail the gate");
        assert!(any(&r, "duplicated"), "{:?}", r.failures);
        // Duplicates in the baseline are reported symmetrically.
        let mut dup_base = manifest(0.01, 0.9);
        dup_base.push_cell("spark/a=16", 0.9);
        let r = gate(&dup_base, &manifest(0.01, 0.9));
        assert!(!r.pass());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("baseline") && f.contains("duplicated")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn mismatches_record_every_drifted_cell_with_deltas() {
        let mut baseline = manifest(0.01, 0.9);
        baseline.push_cell("spark/a=32", 0.8);
        let mut current = manifest(0.02, 0.7);
        current.push_cell("spark/a=32", 0.8); // within tolerance
        let r = gate(&baseline, &current);
        assert!(!r.pass());
        assert_eq!(r.mismatches.len(), 2, "{:?}", r.mismatches);
        let k = &r.mismatches[0];
        assert_eq!((k.kind, k.label.as_str()), ("fit k", "spark"));
        assert_eq!(k.abs_delta, 0.02 - 0.01);
        assert!((k.rel_delta - 1.0).abs() < 1e-12);
        let c = &r.mismatches[1];
        assert_eq!((c.kind, c.label.as_str()), ("cell", "spark/a=16"));
        assert!(c.abs_delta < 0.0);
        // The diff table renders one aligned row per mismatch.
        let table = r.diff_table();
        assert_eq!(table.lines().count(), 3, "{table}");
        assert!(table.contains("spark/a=16"));
        assert!(!table.contains("spark/a=32"));
        // A passing gate renders nothing.
        let clean = gate(&baseline, &baseline);
        assert!(clean.diff_table().is_empty());
        assert!(clean.mismatches.is_empty());
    }

    #[test]
    fn structural_differences_fail() {
        let baseline = manifest(0.01, 0.9);
        let mut current = manifest(0.01, 0.9);
        current.fits.clear();
        let r = gate(&baseline, &current);
        assert!(any(&r, "missing"));

        let mut extra = manifest(0.01, 0.9);
        extra.push_cell("new/cell", 1.0);
        let r = gate(&baseline, &extra);
        assert!(any(&r, "absent from baseline"));
    }

    /// `manifest(0.01, 0.9)` with a counts block: a structural counter, a
    /// structural gauge at `stall`, a structural histogram and an
    /// observational gauge that moves with `stall`.
    fn counted(stall: f64) -> RunManifest {
        let reg = MetricsRegistry::new();
        reg.counter("harness.exec.jobs", Class::Structural).add(64);
        let gauge = |name, class| reg.gauge(name, class);
        gauge("sim.fence.dmb_ishst.stall_cycles", Class::Structural).set(stall);
        gauge("harness.exec.wall_ms", Class::Observational).set(stall * 7.0);
        reg.histogram("wps.gap", Class::Structural, &[1.0, 2.0])
            .observe(1.5);
        let mut m = manifest(0.01, 0.9);
        m.metrics = Some(reg.snapshot());
        m
    }

    fn sited(sites: &[(&str, f64)]) -> RunManifest {
        let mut m = counted(1000.0);
        let site = |&(name, total_cycles): &(&str, f64)| SiteRecord {
            name: name.to_string(),
            fence: Some(FenceKind::DmbIshSt),
            fences: 3,
            fence_cycles: 12.5,
            sb_stall_cycles: 0.0,
            mem_cycles: 4.0,
            total_cycles,
        };
        m.sites = Some(sites.iter().map(site).collect());
        m
    }

    #[test]
    fn equal_counts_and_sites_pass_and_are_counted() {
        let a = sited(&[("t0:code", 100.0), ("t1:code", 50.0)]);
        let r = gate(&a, &a);
        assert!(r.pass(), "{:?}", r.failures);
        // Three structural entries; the observational one is not gated.
        assert_eq!(
            r.summary(),
            "2 values within tolerance, 3 counts and 2 sites exact"
        );
    }

    #[test]
    fn moved_count_is_named_with_both_values() {
        // A 0.5% move: far inside the cell tolerance, but counts are exact.
        let r = gate(&counted(1000.0), &counted(1005.0));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(any(
            &r,
            "count `sim.fence.dmb_ishst.stall_cycles`: moved by 5.0e-3"
        ));
        assert!(any(&r, "(baseline 1000, current 1005, compared exactly)"));
        assert_eq!(r.mismatches[0].kind, "count");
        // A counter off by one, a histogram that moved, a gauge turned counter.
        let mut cur = counted(1000.0);
        for e in &mut cur.metrics.as_mut().unwrap().entries {
            match &mut e.value {
                MetricValue::Counter(n) => *n += 1,
                MetricValue::Histogram { sum, .. } => *sum = 0.5,
                MetricValue::Gauge(_) if e.class == Class::Structural => {
                    e.value = MetricValue::Counter(1000);
                }
                MetricValue::Gauge(_) => {}
            }
        }
        let r = gate(&counted(1000.0), &cur);
        assert_eq!(r.failures.len(), 3, "{:?}", r.failures);
        assert!(any(&r, "`harness.exec.jobs`: moved by"));
        assert!(any(&r, "(baseline 64, current 65,"));
        assert!(any(&r, "count `wps.gap` moved: baseline Histogram"));
        assert!(any(&r, "baseline Gauge(1000.0), current Counter(1000)"));
    }

    #[test]
    fn count_missing_on_one_side_or_extra_fails() {
        let mut fewer = counted(1000.0);
        let snap = fewer.metrics.as_mut().unwrap();
        snap.entries.retain(|e| e.name != "harness.exec.jobs");
        let r = gate(&counted(1000.0), &fewer);
        assert!(any(&r, "`harness.exec.jobs` missing from current run"));
        let r = gate(&fewer, &counted(1000.0));
        assert!(any(&r, "count `harness.exec.jobs` absent from baseline"));
        let r = gate(&counted(1.0), &manifest(0.01, 0.9));
        assert!(any(&r, "counts block missing from current run"));
    }

    #[test]
    fn non_finite_count_fails() {
        for bad in [f64::NAN, f64::INFINITY] {
            let r = gate(&counted(1000.0), &counted(bad));
            assert!(any(&r, "non-finite"), "{:?}", r.failures);
            // The same non-finite value on both sides is still a failure.
            assert!(!gate(&counted(bad), &counted(bad)).pass());
        }
    }

    #[test]
    fn moved_or_missing_site_is_named() {
        let base = sited(&[("t0:code", 100.0), ("t1:vol.st#0", 50.0)]);
        let mut cur = sited(&[("t0:code", 100.0), ("t1:vol.st#0", 50.25)]);
        cur.sites.as_mut().unwrap()[1].fence = Some(FenceKind::DmbIsh);
        let r = gate(&base, &cur);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(any(&r, "site `t1:vol.st#0` moved (baseline -> current): fence dmb ishst -> dmb ish, total_cycles 50 -> 50.25"));
        let r = gate(&base, &sited(&[("t0:code", 100.0), ("t2:code", 1.0)]));
        assert!(any(&r, "site `t1:vol.st#0` missing from current run"));
        assert!(any(&r, "site `t2:code` absent from baseline"));
        let r = gate(&base, &counted(1000.0));
        assert!(any(&r, "sites missing from current run"));
    }

    #[test]
    fn disk_cached_run_skips_counts_and_still_compares_cells_and_sites() {
        let mut warm = sited(&[("t0:code", 1.0)]);
        warm.metrics = counted(0.0).metrics;
        warm.disk_cache = true;
        let r = gate(&sited(&[("t0:code", 1.0)]), &warm);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.counts_skipped && r.counts == 0);
        assert_eq!(
            r.summary(),
            "2 values within tolerance, 1 sites exact; counts skipped: the run read the disk cache"
        );
        warm.cells[0].value = 0.5;
        warm.sites.as_mut().unwrap()[0].total_cycles = 2.0;
        let r = gate(&sited(&[("t0:code", 1.0)]), &warm);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
        assert!(any(&r, "cell `spark/a=16`") && any(&r, "site `t0:code` moved"));
    }
}
