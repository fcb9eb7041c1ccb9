//! The run-report layer behind the `wmm_report` campaigns: run a profiled
//! campaign with the full `wmm-obs` observability stack attached and join
//! what the individual seams report — executor metrics, per-site stall
//! profiles, cache statistics, solver metrics, span timeline — into one
//! markdown document and one gateable manifest.
//!
//! The report is deliberately two-faced:
//!
//! * the **markdown** rendering ([`markdown`]) is for humans: campaign
//!   summary, the structural metrics table, the hottest sites, cache
//!   traffic, and the per-kind cross-check verdict;
//! * the **manifest** ([`manifest`]) is for the regression gate
//!   (`wmm gate`): every structural metric becomes a cell
//!   (`metrics/<name>`), so CI pins not just the science but the
//!   *accounting* — a refactor that silently stops counting cache hits or
//!   solver nodes drifts a cell and fails the gate. Observational metrics (worker timings, latency
//!   histograms, lock waits) ride along in the manifest's `metrics` block
//!   for inspection but are excluded from the gated cells and from the
//!   deterministic projection's structural entries only by class, never by
//!   hand-maintained lists.
//!
//! Determinism contract: two [`collect_report`] runs of the same campaign
//! at *any* worker counts produce manifests whose deterministic
//! projections are byte-identical (asserted in this module's tests), which
//! is what makes the committed baseline meaningful.

use wmm_analyze::{
    synthesize_wps_metered, CostModel, CycleCache, SynthConfig, WpsConfig, WpsMetrics,
};
use wmm_harness::{CacheStats, ParallelExecutor, RunManifest};
use wmm_obs::{MetricValue, MetricsRegistry, MetricsSnapshot, SpanLog, SpanRecord};
use wmmbench::report::Table;

use crate::profiling::{kind_checks, profile_campaign, site_records, KindCheck};
use crate::wps::{make_bundles, WPS_MODEL};
use crate::ExpConfig;

/// Minimum generated litmus tests the WPS solver stage bundles.
pub const WPS_REPORT_TESTS: usize = 16;

/// Everything one observed campaign run produced, ready for rendering.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Campaign id the profile layer ran.
    pub campaign: String,
    /// Architecture label.
    pub arch: String,
    /// Nanoseconds per simulator cycle on the campaign's machine.
    pub ns_per_cycle: f64,
    /// Per-benchmark `(name, mean wall ns, distinct sites)`.
    pub benches: Vec<(String, f64, usize)>,
    /// Per-`(benchmark, fence kind)` cross-check cells.
    pub checks: Vec<KindCheck>,
    /// Merged site records ranked by total cycles, hottest first.
    pub ranked_sites: Vec<wmm_harness::SiteRecord>,
    /// Simulation-cache statistics at end of run; `hits` and `misses` are
    /// the executor's counts of cells answered and cells simulated.
    pub cache: CacheStats,
    /// Full metrics snapshot (structural and observational) at end of run.
    pub snapshot: MetricsSnapshot,
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Bundles solved by the WPS stage.
    pub wps_bundles: usize,
}

/// Run `campaign` on `exec` (which must report to `registry`) under a
/// span log, follow with a metered WPS solver stage over generated
/// bundles, and collect everything the seams reported. Returns `None` for
/// an unknown campaign id.
pub fn collect_report(
    campaign: &str,
    cfg: ExpConfig,
    exec: &ParallelExecutor,
    registry: &MetricsRegistry,
) -> Option<RunReport> {
    let spans = SpanLog::new();
    let whole = spans.span(format!("report/{campaign}"), "report");
    let cp = {
        let _g = spans.span(campaign.to_string(), "campaign");
        profile_campaign(campaign, cfg, exec)?
    };

    let wps_bundles = {
        let _g = spans.span("wps-solve", "phase");
        let metrics = WpsMetrics::register(registry);
        let cache = CycleCache::in_memory();
        let costs = CostModel::priced(crate::streams::NOMINAL_K);
        let wps = WpsConfig {
            threads: Some(exec.threads()),
            ..WpsConfig::default()
        };
        let bundles = make_bundles(WPS_REPORT_TESTS);
        for b in &bundles {
            synthesize_wps_metered(
                &b.graph,
                SynthConfig::for_model(WPS_MODEL),
                &costs,
                &wps,
                Some(&cache),
                Some(&metrics),
            )
            .expect("bundle synthesis");
        }
        bundles.len()
    };
    drop(whole);

    let mut ranked = site_records(&cp.merged());
    ranked.sort_by(|a, b| {
        b.total_cycles
            .partial_cmp(&a.total_cycles)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    // The cache section reports the executor's counts: sited cells skip
    // the lookup but are still simulated, so they count as misses.
    let counts = exec.telemetry();
    Some(RunReport {
        campaign: cp.campaign.to_string(),
        arch: cp.arch.to_string(),
        ns_per_cycle: cp.ns_per_cycle,
        benches: cp
            .benches
            .iter()
            .map(|b| {
                (
                    b.bench.clone(),
                    b.batch.mean_wall_ns(),
                    b.batch.profile.sites.len(),
                )
            })
            .collect(),
        checks: kind_checks(&cp),
        ranked_sites: ranked,
        cache: CacheStats {
            hits: counts.cache_hits,
            misses: counts.cache_misses,
            ..exec.cache_stats().unwrap_or_default()
        },
        snapshot: registry.snapshot(),
        spans: spans.records(),
        wps_bundles,
    })
}

/// Whether every per-kind cross-check cell passed.
pub fn checks_pass(report: &RunReport) -> bool {
    report.checks.iter().all(KindCheck::pass)
}

fn metric_rows(table: &mut Table, snapshot: &MetricsSnapshot) {
    for e in &snapshot.entries {
        let (kind, value) = match &e.value {
            MetricValue::Counter(v) => ("counter", v.to_string()),
            MetricValue::Gauge(v) => ("gauge", format!("{v}")),
            MetricValue::Histogram { sum, count, .. } => {
                ("histogram", format!("count {count}, sum {sum:.0}"))
            }
        };
        table.row(vec![e.name.clone(), kind.to_string(), value]);
    }
}

/// Render the human-facing markdown document.
pub fn markdown(report: &RunReport) -> String {
    let mut out = String::new();
    let ns = |cycles: f64| cycles * report.ns_per_cycle;
    out.push_str(&format!(
        "# wmm_report — campaign `{}` ({})\n\n",
        report.campaign, report.arch
    ));

    let mut summary = Table::new(&["benchmark", "mean_wall_ns", "sites"]);
    for (name, wall, sites) in &report.benches {
        summary.row(vec![name.clone(), format!("{wall:.0}"), sites.to_string()]);
    }
    out.push_str("## Campaign\n\n");
    out.push_str(&summary.markdown());
    out.push_str(&format!(
        "\nWPS solver stage: {} bundles solved.\n",
        report.wps_bundles
    ));

    out.push_str("\n## Structural metrics\n\n");
    out.push_str("Deterministic accounting — byte-identical at any worker count.\n\n");
    let mut stru = Table::new(&["metric", "kind", "value"]);
    metric_rows(&mut stru, &report.snapshot.structural());
    out.push_str(&stru.markdown());

    out.push_str("\n## Observational metrics\n\n");
    out.push_str("Timing- and worker-dependent; vary run to run, never gated.\n\n");
    let observational = MetricsSnapshot {
        entries: report
            .snapshot
            .entries
            .iter()
            .filter(|e| e.class == wmm_obs::Class::Observational)
            .cloned()
            .collect(),
    };
    let mut obs = Table::new(&["metric", "kind", "value"]);
    metric_rows(&mut obs, &observational);
    out.push_str(&obs.markdown());

    out.push_str("\n## Hottest sites\n\n");
    let mut sites = Table::new(&["site", "fences", "fence_ns", "sb_ns", "total_ns"]);
    for s in report.ranked_sites.iter().take(10) {
        sites.row(vec![
            s.name.clone(),
            s.fences.to_string(),
            format!("{:.0}", ns(s.fence_cycles)),
            format!("{:.0}", ns(s.sb_stall_cycles)),
            format!("{:.0}", ns(s.total_cycles)),
        ]);
    }
    out.push_str(&sites.markdown());

    let c = &report.cache;
    out.push_str(&format!(
        "\n## Cache\n\n{} entries, {} hits / {} misses, {} puts, \
         {} disk appends ({} bytes), {} ns waiting on the append lock.\n",
        c.entries, c.hits, c.misses, c.puts, c.disk_appends, c.disk_append_bytes, c.lock_wait_ns
    ));

    out.push_str(&format!(
        "\n## Cross-check\n\nPer-site vs per-kind accounting over {} cells: {}.\n",
        report.checks.len(),
        if checks_pass(report) { "PASS" } else { "FAIL" }
    ));
    out.push_str(&format!("\n{} spans recorded.\n", report.spans.len()));
    out
}

/// Build the gateable manifest: campaign shape, cross-check verdict, and
/// every structural metric as a `metrics/<name>` cell (histograms
/// contribute `/count` and `/sum`). The full snapshot — observational
/// entries included — rides in the manifest's `metrics` block.
pub fn manifest(report: &RunReport) -> RunManifest {
    let name = if report.campaign == "fig5-arm" {
        "wmm_report".to_string()
    } else {
        format!("wmm_report-{}", report.campaign)
    };
    let mut m = RunManifest::new(name, report.arch.clone());
    m.push_cell("profile/benches", report.benches.len() as f64);
    for (bench, _, sites) in &report.benches {
        m.push_cell(format!("{bench}/sites"), *sites as f64);
    }
    m.push_cell("checks/cells", report.checks.len() as f64);
    m.push_cell("checks/pass", if checks_pass(report) { 1.0 } else { 0.0 });
    m.push_cell("wps/bundles", report.wps_bundles as f64);
    for e in &report.snapshot.structural().entries {
        match &e.value {
            MetricValue::Counter(v) => m.push_cell(format!("metrics/{}", e.name), *v as f64),
            MetricValue::Gauge(v) => m.push_cell(format!("metrics/{}", e.name), *v),
            MetricValue::Histogram { sum, count, .. } => {
                m.push_cell(format!("metrics/{}/count", e.name), *count as f64);
                m.push_cell(format!("metrics/{}/sum", e.name), *sum);
            }
        }
    }
    m.metrics = Some(report.snapshot.clone());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_harness::SimCache;

    fn quick_report(threads: usize) -> RunReport {
        let registry = MetricsRegistry::new();
        let exec = ParallelExecutor::new(Some(threads))
            .with_cache(SimCache::in_memory())
            .with_metrics(&registry);
        collect_report("fig5-arm", ExpConfig::quick(), &exec, &registry).expect("known campaign")
    }

    #[test]
    fn report_joins_metrics_profiles_and_cache_stats() {
        let r = quick_report(2);
        assert!(!r.benches.is_empty());
        assert!(!r.ranked_sites.is_empty());
        assert!(checks_pass(&r), "per-kind cross-check must pass");
        // The executor seam reported through the registry...
        assert!(r.snapshot.counter("harness.exec.jobs").unwrap() > 0);
        // ...and the cache gauges mirror the cache's own stats.
        assert_eq!(
            r.snapshot.gauge("harness.cache.sim.entries").unwrap(),
            r.cache.entries as f64
        );
        // The WPS stage populated the solver metrics.
        assert!(r.wps_bundles > 0);
        assert!(r.snapshot.counter("wps.cycles_enumerated").unwrap() > 0);
        // Spans nested report > campaign > phase, all recorded.
        assert!(r.spans.iter().any(|s| s.cat == "report"));
        assert!(r.spans.iter().any(|s| s.cat == "campaign"));
        assert!(r.spans.iter().any(|s| s.cat == "phase"));

        let md = markdown(&r);
        for section in [
            "## Campaign",
            "## Structural metrics",
            "## Observational metrics",
            "## Hottest sites",
            "## Cache",
            "## Cross-check",
        ] {
            assert!(md.contains(section), "missing {section}");
        }

        let m = manifest(&r);
        assert_eq!(m.campaign, "wmm_report");
        assert!(m
            .cells
            .iter()
            .any(|c| c.label == "metrics/wps.solver.nodes"));
        assert!(m.metrics.is_some());
    }

    #[test]
    fn manifest_deterministic_projection_is_identical_across_worker_counts() {
        let one = manifest(&quick_report(1));
        let four = manifest(&quick_report(4));
        assert_eq!(
            one.deterministic_json().to_string_pretty(),
            four.deterministic_json().to_string_pretty(),
            "gated report content must not depend on worker count"
        );
    }
}
