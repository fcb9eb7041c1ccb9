//! The observability campaigns: fence-cost attribution, per-site stall
//! profiles with their run report, and cross-campaign site diffs.

use std::path::Path;

use wmm_harness::{instruction_trace_events, RunManifest};
use wmm_obs::{Profile, ProfileDiff};
use wmmbench::image::SiteNames;
use wmmbench::report::Table;

use super::Ctx;
use crate::profiling::{kind_checks, profile_campaign, profile_from_records, CampaignProfile};
use crate::report::{check_table, markdown, site_table};
use crate::{fig5_arm_fence_attribution, fig9_fence_attribution, AttributionReport};

/// Site-diff rows printed and pinned.
const TOP: usize = 10;

/// Minimum share of a site diff its expected sites must carry.
const SHARE_THRESHOLD: f64 = 0.90;

/// Fence-cost attribution: the simulator's observed stall cycles per fence
/// execution, printed next to the Eq. 2 inferred cost for the Fig. 5
/// ARMv8 and Fig. 9 kernel campaigns.
///
/// The methodology's central promise (§3) is that a fitted sensitivity `k`
/// turns any measured performance ratio into an equivalent
/// ns-per-invocation cost. The telemetry seam makes that auditable
/// end-to-end: every fence the simulator executes records its stall
/// cycles, so the same fencing change can be costed two independent ways —
///
/// * **observed**: attributed stall cycles / fence executions, straight
///   from the `ExecStats` flowing through `run_batch_stats`;
/// * **Eq. 2**: `estimate_cost(k, p)` from the measured ratio `p` and the
///   benchmark's sweep-fitted `k`.
///
/// The campaign fails if any row disagrees by more than 2×. Each per-kind
/// row is also broken down per *site* (stable `t{thread}:{path}#{occ}`
/// names from the observability layer), so a disagreement can be
/// localised to the code path that caused it.
pub(crate) fn fence_attribution(ctx: &Ctx) -> Result<RunManifest, String> {
    println!("Fence attribution — observed stall cycles vs Eq. 2 inferred cost");
    let fig5 = fig5_arm_fence_attribution(ctx.cfg, &ctx.exec);
    let fig9 = fig9_fence_attribution(ctx.cfg, &ctx.exec);

    let mut table = Table::new(&[
        "campaign",
        "benchmark",
        "fence",
        "k",
        "rel_perf",
        "fences",
        "observed_ns",
        "eq2_ns",
        "agree",
    ]);
    let mut manifest = RunManifest::new(ctx.name, "arm");
    let mut worst: f64 = 1.0;
    for report in [&fig5, &fig9] {
        for (label, fit) in &report.fits {
            manifest.push_fit(label, fit);
        }
        for r in &report.rows {
            let agree = r.agreement();
            worst = worst.max(agree);
            table.row(vec![
                r.campaign.to_string(),
                r.bench.clone(),
                r.fence.to_string(),
                format!("{:.5}", r.k),
                format!("{:.4}", r.rel_perf),
                r.fence_execs.to_string(),
                format!("{:.2}", r.observed_ns),
                format!("{:.2}", r.eq2_ns),
                format!("{agree:.2}x"),
            ]);
            let stem = format!("{}/{}/{}", r.campaign, r.bench, r.fence);
            if r.observed_ns.is_finite() && r.eq2_ns.is_finite() {
                manifest.push_cell(format!("{stem}/observed_ns"), r.observed_ns);
                manifest.push_cell(format!("{stem}/eq2_ns"), r.eq2_ns);
            }
        }
    }
    println!("{}", table.markdown());

    // Per-site drill-down: the same observed-vs-Eq.2 comparison at
    // individual sites, shown for the heaviest ones. Not gated — the
    // per-kind rows above are the gated contract, and the per-site fold is
    // cross-checked against them by the `wmm_profile-*` campaigns.
    let mut site_rows: Vec<_> = [&fig5, &fig9]
        .iter()
        .flat_map(|r| r.site_rows.iter())
        .collect();
    site_rows.sort_by(|a, b| {
        (b.fences as f64 * b.observed_ns)
            .total_cmp(&(a.fences as f64 * a.observed_ns))
            .then_with(|| a.site.cmp(&b.site))
    });
    let mut site_table = Table::new(&[
        "campaign",
        "benchmark",
        "site",
        "fence",
        "fences",
        "observed_ns",
        "eq2_ns",
    ]);
    for r in site_rows.iter().take(12) {
        site_table.row(vec![
            r.campaign.to_string(),
            r.bench.clone(),
            r.site.clone(),
            r.fence.to_string(),
            r.fences.to_string(),
            format!("{:.2}", r.observed_ns),
            format!("{:.2}", r.eq2_ns),
        ]);
    }
    println!(
        "Per-site observed cost vs Eq. 2 (top 12 of {} sites by total stall):",
        site_rows.len()
    );
    println!("{}", site_table.markdown());

    let count = |r: &AttributionReport| r.rows.len();
    println!(
        "{} rows ({} fig5-arm, {} fig9-kernel); worst observed-vs-Eq.2 agreement {worst:.2}x",
        count(&fig5) + count(&fig9),
        count(&fig5),
        count(&fig9)
    );
    if worst > 2.0 {
        return Err(format!(
            "observed and Eq. 2 costs disagree by {worst:.2}x (threshold 2.00x)"
        ));
    }
    println!("agreement threshold 2.00x: PASS");
    Ok(manifest)
}

/// Per-site stall profile of one profile campaign, named by the entry's
/// suffix (`wmm_profile-fig5-arm` profiles `fig5-arm`; see
/// [`profile_campaign`]).
///
/// Every measurement batch goes through `Machine::run_sited_with`; the stall
/// records fold into a per-site profile keyed by stable site names, which
/// reports where the cycles went: fence-kind stall, store-buffer stall,
/// exposed memory time, residual compute. The per-site fold is
/// cross-checked against the per-kind telemetry the attribution campaigns
/// gate: for every `(benchmark, fence kind)` cell, summing per-site fence
/// stall-ns over sites of the kind must reproduce the `ExecStats` per-kind
/// total (exact fence counts, cycles within float reassociation); any
/// disagreement fails the campaign.
///
/// `--flame <path>` writes the collapsed stacks for `flamegraph.pl`;
/// `--md <path>` the run report (see [`crate::report`]); `--prom <path>`
/// the metrics snapshot in the Prometheus text format; `--trace <path>`
/// adds an instruction-granular timeline of one exemplar run. The
/// manifest's `sites` carries the per-site records.
pub(crate) fn wmm_profile(ctx: &Ctx) -> Result<RunManifest, String> {
    let id = ctx.name.trim_start_matches("wmm_profile-");
    let cp = profile_campaign(id, ctx.cfg, &ctx.exec)
        .ok_or_else(|| format!("unknown profile campaign `{id}`"))?;
    println!(
        "Per-site stall profile — campaign {}, {} benchmarks",
        cp.campaign,
        cp.benches.len()
    );

    let merged = cp.merged();
    let ns = |cycles: f64| cycles * cp.ns_per_cycle;

    println!("{}", site_table(&cp, &merged, 15).markdown());
    println!(
        "{} sites, {:.0} ns total ({:.0} ns in fences)",
        merged.sites.len(),
        ns(merged.total_cycles()),
        ns(merged.sites.values().map(|s| s.fence_cycles).sum::<f64>()),
    );

    // Per-kind cross-check: the per-site fold must reproduce the per-kind
    // telemetry totals the attribution campaigns gate.
    let checks = kind_checks(&cp);
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass())
        .map(|c| format!("{}/{}", c.bench, c.kind.mnemonic()))
        .collect();
    println!("{}", check_table(&cp, &checks).markdown());
    println!(
        "per-site vs per-kind cross-check over {} cells: {}",
        checks.len(),
        if failed.is_empty() { "PASS" } else { "FAIL" }
    );

    if let Some(path) = &ctx.out.flame {
        ctx.write_file(path, &wmm_obs::collapsed_stacks(&merged))?;
    }
    if let Some(path) = &ctx.out.md {
        let snapshot = ctx.registry.snapshot();
        ctx.write_file(path, &markdown(&cp, &checks, &ctx.exec, &snapshot))?;
    }
    if let Some(path) = &ctx.out.prom {
        ctx.write_file(path, &ctx.registry.snapshot().to_prometheus())?;
    }
    if ctx.tracing() {
        let Some((stalls, names)) = cp.benches.first().and_then(|b| b.batch.exemplar.as_ref())
        else {
            return Err("no exemplar run captured; nothing to trace".into());
        };
        let bench = &cp.benches[0].bench;
        let events = instruction_trace_events(stalls, cp.ns_per_cycle, |t, i| {
            match names.name(t as usize, i as usize) {
                Some(n) => format!("{bench}/{n}"),
                None => format!("{bench}/t{t}:#{i}"),
            }
        });
        ctx.add_trace(&events);
    }
    if !failed.is_empty() {
        return Err(format!(
            "per-site fold disagrees with the per-kind totals on {}",
            failed.join(", ")
        ));
    }

    Ok(cp.manifest(ctx.name))
}

/// Print the top rows of a diff, values scaled by `scale` into `unit`.
fn print_diff(diff: &ProfileDiff, unit: &str, scale: f64) {
    let mut table = Table::new(&[
        "site",
        &format!("base_{unit}"),
        &format!("test_{unit}"),
        &format!("delta_{unit}"),
        &format!("fence_d_{unit}"),
        &format!("sb_d_{unit}"),
        &format!("mem_d_{unit}"),
    ]);
    for r in diff.top(TOP) {
        table.row(vec![
            r.name.clone(),
            format!("{:.0}", r.base_cycles * scale),
            format!("{:.0}", r.test_cycles * scale),
            format!("{:+.0}", r.delta_cycles * scale),
            format!("{:+.0}", r.fence_delta * scale),
            format!("{:+.0}", r.sb_delta * scale),
            format!("{:+.0}", r.mem_delta * scale),
        ]);
    }
    println!("{}", table.markdown());
}

/// Profile two campaigns on the context's executor and diff them.
fn diff_campaigns(
    ctx: &Ctx,
    base: &str,
    test: &str,
) -> Result<(CampaignProfile, CampaignProfile, ProfileDiff), String> {
    let profile = |id: &str| {
        profile_campaign(id, ctx.cfg, &ctx.exec)
            .ok_or_else(|| format!("unknown profile campaign `{id}`"))
    };
    let (base, test) = (profile(base)?, profile(test)?);
    println!(
        "Per-site diff — {} → {} ({} benchmarks)",
        base.campaign,
        test.campaign,
        base.benches.len()
    );
    let diff = base.merged().diff(&test.merged());
    print_diff(&diff, "ns", base.ns_per_cycle);
    println!(
        "wall: {:.0} ns → {:.0} ns ({:+.0} ns); per-site delta {:+.0} ns ({:.0} ns absolute)",
        base.total_wall_ns(),
        test.total_wall_ns(),
        test.total_wall_ns() - base.total_wall_ns(),
        diff.total_delta() * base.ns_per_cycle,
        diff.abs_delta() * base.ns_per_cycle,
    );
    Ok((base, test, diff))
}

/// Print a share against [`SHARE_THRESHOLD`]; `Err` below it.
fn share_check(what: &str, share: f64) -> Result<(), String> {
    let pass = share >= SHARE_THRESHOLD;
    println!(
        "{what}: {:.1}% (threshold {:.0}%): {}",
        100.0 * share,
        100.0 * SHARE_THRESHOLD,
        if pass { "PASS" } else { "FAIL" }
    );
    if pass {
        Ok(())
    } else {
        Err(format!("{what} is {:.1}%", 100.0 * share))
    }
}

/// Pin the diff's summary and its top rows.
fn push_diff(manifest: &mut RunManifest, diff: &ProfileDiff) {
    manifest.push_cell("abs_delta_cycles", diff.abs_delta());
    for r in diff.top(TOP) {
        manifest.push_cell(format!("delta_cycles/{}", r.name), r.delta_cycles);
    }
}

/// Load the per-site profile out of a `wmm_profile-*` manifest.
fn manifest_profile(path: &Path) -> Result<Profile, String> {
    let sites = RunManifest::load(path)?.sites.ok_or_else(|| {
        format!(
            "{} carries no per-site records (run a wmm_profile-* campaign)",
            path.display()
        )
    })?;
    Ok(profile_from_records(&sites))
}

/// Attribute a campaign-level time delta to the sites whose stall profile
/// changed.
///
/// By default it profiles the §4.2.1 JDK8-barriers and
/// JDK9-`ldar`/`stlr` DaCapo campaigns under the same `ARMv8` strategy
/// and diffs them site by site. The JIT labels every volatile access
/// (`vol.ld`/`vol.st`) in both modes, so the same access joins on the same
/// row across JITs: the diff shows the `dmb` barrier sites of the JDK8
/// image disappearing and the acquire/release surcharge appearing on the
/// access rows, with only scheduling noise left on the pooled `:code` rows.
///
/// With `--base <m.json> --test <m.json>` it diffs the per-site records
/// of two `wmm_profile-*` manifests instead, in cycles, and the manifest
/// records that diff.
///
/// The attribution quality metric is the *barrier-site share*: the
/// fraction of the total absolute per-site delta carried by non-`:code`
/// rows. Below 90% the campaign fails.
pub(crate) fn wmm_tracediff(ctx: &Ctx) -> Result<RunManifest, String> {
    let mut manifest = RunManifest::new(ctx.name, "arm");
    let diff = if let (Some(base), Some(test)) = (&ctx.out.base, &ctx.out.test) {
        println!("Per-site diff — {} → {}", base.display(), test.display());
        let diff = manifest_profile(base)?.diff(&manifest_profile(test)?);
        print_diff(&diff, "cyc", 1.0);
        println!(
            "total delta {:+.0} cycles ({:.0} absolute)",
            diff.total_delta(),
            diff.abs_delta(),
        );
        diff
    } else {
        let (base, test, diff) = diff_campaigns(ctx, "jdk8-arm", "jdk9-arm")?;
        manifest.push_cell("jdk8-arm/wall_ns", base.total_wall_ns());
        manifest.push_cell("jdk9-arm/wall_ns", test.total_wall_ns());
        manifest.push_cell("wall_delta_ns", test.total_wall_ns() - base.total_wall_ns());
        diff
    };
    let share = diff.share(|r| !SiteNames::is_code(&r.name));
    manifest.push_cell("site_share", share);
    push_diff(&mut manifest, &diff);
    share_check("barrier-site share of the delta", share)?;
    Ok(manifest)
}

/// The reclamation site diff: the lock-free data-structure suite under
/// `hp-dmb` (a `dmb ish` per hazard protect) and `hp-asym` (reader-free
/// scheme). The images are identical — only the fences lowered at the
/// reclamation sites move — so the memory-timing ripple on `:code`/`chase`
/// rows is noise, and the metric is the *fence-stall share*: the fraction
/// of the absolute per-site fence-stall delta carried by the `HpProtect`
/// rows whose fences the asymmetric scheme removed. Below 90% the campaign
/// fails.
pub(crate) fn wmm_tracediff_dstruct(ctx: &Ctx) -> Result<RunManifest, String> {
    let (base, test, diff) = diff_campaigns(ctx, "dstruct-hp-dmb", "dstruct-hp-asym")?;
    let share = diff.fence_share(|r| r.name.contains(":HpProtect#"));
    let mut manifest = RunManifest::new(ctx.name, "arm");
    manifest.push_cell("dstruct-hp-dmb/wall_ns", base.total_wall_ns());
    manifest.push_cell("dstruct-hp-asym/wall_ns", test.total_wall_ns());
    manifest.push_cell("wall_delta_ns", test.total_wall_ns() - base.total_wall_ns());
    manifest.push_cell("protect_fence_share", share);
    push_diff(&mut manifest, &diff);
    share_check("protect-site share of the fence-stall delta", share)?;
    Ok(manifest)
}
