//! The run report behind `wmm_profile-* --md`: one markdown document
//! joining what the seams of a profiled campaign report — the per-campaign
//! summary, the metrics registry's structural and observational entries,
//! the hottest sites, the simulation cache's traffic and the per-kind
//! cross-check verdict. `--prom` exports the same registry snapshot in the
//! Prometheus text format ([`MetricsSnapshot::to_prometheus`]).
//!
//! The report renders; it gates nothing. The manifest the campaign writes
//! carries the same counts block and site records, and `wmm gate` compares
//! those exactly.

use wmm_harness::ParallelExecutor;
use wmm_obs::{Class, MetricValue, MetricsSnapshot, Profile};
use wmmbench::report::Table;

use crate::profiling::{CampaignProfile, KindCheck};

/// The `n` sites of `merged` (the merged profile of `cp`) with the most
/// total cycles, hottest first (ties in name order), and where their
/// cycles went, in ns.
pub(crate) fn site_table(cp: &CampaignProfile, merged: &Profile, n: usize) -> Table {
    let mut ranked: Vec<_> = merged.sites.iter().collect();
    ranked.sort_by(|a, b| {
        b.1.total_cycles
            .total_cmp(&a.1.total_cycles)
            .then_with(|| a.0.cmp(b.0))
    });
    let ns = |cycles: f64| format!("{:.0}", cycles * cp.ns_per_cycle);
    let mut table = Table::new(&[
        "site",
        "fence",
        "fences",
        "fence_ns",
        "sb_ns",
        "mem_ns",
        "compute_ns",
        "total_ns",
    ]);
    for (name, sp) in ranked.into_iter().take(n) {
        table.row(vec![
            name.clone(),
            sp.fence.map_or("-", |k| k.mnemonic()).to_string(),
            sp.fences.to_string(),
            ns(sp.fence_cycles),
            ns(sp.sb_stall_cycles),
            ns(sp.mem_cycles),
            ns(sp.compute_cycles()),
            ns(sp.total_cycles),
        ]);
    }
    table
}

/// Both accounts of every per-kind cross-check cell of `cp`, in ns.
pub(crate) fn check_table(cp: &CampaignProfile, checks: &[KindCheck]) -> Table {
    let ns = |cycles: f64| format!("{:.2}", cycles * cp.ns_per_cycle);
    let mut table = Table::new(&[
        "benchmark",
        "fence",
        "fences",
        "site_ns",
        "kind_ns",
        "rel_err",
        "ok",
    ]);
    for c in checks {
        table.row(vec![
            c.bench.clone(),
            c.kind.mnemonic().to_string(),
            c.site_fences.to_string(),
            ns(c.site_cycles),
            ns(c.kind_cycles),
            format!("{:.1e}", c.rel_err()),
            if c.pass() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

fn metric_rows(snapshot: &MetricsSnapshot, class: Class) -> Table {
    let mut table = Table::new(&["metric", "kind", "value"]);
    for e in snapshot.entries.iter().filter(|e| e.class == class) {
        let value = match &e.value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => format!("{v}"),
            MetricValue::Histogram { sum, count, .. } => format!("count {count}, sum {sum:.0}"),
        };
        table.row(vec![e.name.clone(), e.value.kind().to_string(), value]);
    }
    table
}

/// Render the markdown report of profile `cp`, cross-checked by `checks`,
/// run on `exec`, whose registry `snapshot` holds.
pub(crate) fn markdown(
    cp: &CampaignProfile,
    checks: &[KindCheck],
    exec: &ParallelExecutor,
    snapshot: &MetricsSnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Run report — campaign `{}` ({})\n\n",
        cp.campaign, cp.arch
    ));

    let mut summary = Table::new(&["benchmark", "mean_wall_ns", "sites"]);
    for b in &cp.benches {
        summary.row(vec![
            b.bench.clone(),
            format!("{:.0}", b.batch.mean_wall_ns()),
            b.batch.profile.sites.len().to_string(),
        ]);
    }
    out.push_str("## Campaign\n\n");
    out.push_str(&summary.markdown());

    out.push_str("\n## Structural metrics\n\n");
    out.push_str(
        "Deterministic accounting — byte-identical at any worker count, gated exactly.\n\n",
    );
    out.push_str(&metric_rows(snapshot, Class::Structural).markdown());

    out.push_str("\n## Observational metrics\n\n");
    out.push_str("Timing- and worker-dependent; vary run to run, never gated.\n\n");
    out.push_str(&metric_rows(snapshot, Class::Observational).markdown());

    out.push_str("\n## Hottest sites\n\n");
    out.push_str(&site_table(cp, &cp.merged(), 10).markdown());

    // Hits and misses are the executor's counts: sited cells skip the
    // lookup but are still simulated, so they count as misses.
    let (t, c) = (exec.telemetry(), exec.cache_stats().unwrap_or_default());
    out.push_str(&format!(
        "\n## Cache\n\n{} entries, {} hits / {} misses, {} puts, \
         {} disk appends ({} bytes), {} ns waiting on the append lock.\n",
        c.entries,
        t.cache_hits,
        t.cache_misses,
        c.puts,
        c.disk_appends,
        c.disk_append_bytes,
        c.lock_wait_ns
    ));

    out.push_str(&format!(
        "\n## Cross-check\n\nPer-site vs per-kind accounting over {} cells: {}.\n\n",
        checks.len(),
        if checks.iter().all(KindCheck::pass) {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    out.push_str(&check_table(cp, checks).markdown());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_harness::SimCache;
    use wmm_obs::MetricsRegistry;

    use crate::profiling::{kind_checks, profile_campaign};
    use crate::ExpConfig;

    /// The quick `fig5-arm` profile on `threads` workers, with the executor
    /// and registry it reported to.
    fn quick_profile(threads: usize) -> (CampaignProfile, ParallelExecutor, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let exec = ParallelExecutor::new(Some(threads))
            .with_cache(SimCache::in_memory())
            .with_metrics(&registry);
        let cp = profile_campaign("fig5-arm", ExpConfig::quick(), &exec).expect("known campaign");
        (cp, exec, registry)
    }

    #[test]
    fn report_joins_metrics_profiles_and_cache_stats() {
        let (cp, exec, registry) = quick_profile(2);
        let checks = kind_checks(&cp);
        assert!(!cp.benches.is_empty());
        assert!(
            checks.iter().all(KindCheck::pass),
            "per-kind cross-check must pass"
        );
        let snapshot = registry.snapshot();
        // The executor seam reported through the registry...
        assert!(snapshot.counter("harness.exec.jobs").unwrap() > 0);
        // ...and the cache gauges mirror the cache's own stats.
        assert_eq!(
            snapshot.gauge("harness.cache.sim.entries").unwrap(),
            exec.cache_stats().unwrap().entries as f64
        );
        // The simulator totals cover exactly the simulated cells.
        assert_eq!(
            snapshot.gauge("sim.jobs_observed").unwrap(),
            exec.telemetry().cache_misses as f64
        );

        let md = markdown(&cp, &checks, &exec, &snapshot);
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
        assert!(md.contains("accounting over") && md.contains(": PASS."));
        assert!(snapshot
            .to_prometheus()
            .contains("# TYPE harness_exec_jobs counter"));
    }

    #[test]
    fn manifest_deterministic_projection_is_identical_across_worker_counts() {
        let manifest = |threads: usize| {
            let (cp, _exec, registry) = quick_profile(threads);
            let mut m = cp.manifest("wmm_profile-fig5-arm");
            m.metrics = Some(registry.snapshot());
            m
        };
        let (one, four) = (manifest(1), manifest(4));
        assert!(one.sites.as_ref().is_some_and(|s| !s.is_empty()));
        assert_eq!(
            one.deterministic_json().to_string_pretty(),
            four.deterministic_json().to_string_pretty(),
            "gated profile content must not depend on worker count"
        );
    }
}
