//! `fence_synth_wps` — whole-program fence synthesis over stitched
//! multi-operation programs and concatenated generated-test bundles.
//!
//! Where `fence_synth` solves one litmus-sized instance at a time, this
//! campaign drives `wmm_analyze::wps`: conflict-component decomposition,
//! parallel content-addressed cycle enumeration through the harness job
//! seam, and the two-tier solver (exact branch-and-bound oracle under a
//! node budget on instances with at most 30 reorderable legs, the
//! reorder-bounded greedy tier on everything, priced optimality gap where
//! both ran). Three sections, one manifest
//! (`results/runs/fence_synth_wps.json`):
//!
//! 1. **Stitched dstruct hot paths** — Treiber push+pop and Harris-Michael
//!    insert+delete+search as single multi-operation graphs. Each
//!    placement is validated statically (re-analysis reports zero
//!    unprotected cycles) and dynamically (the part of the placement
//!    inside the reclamation-race windows, replayed onto the
//!    use-after-retire litmus, makes the explorer reject the weak
//!    outcome).
//! 2. **Generated bundles** — ≥ 128 tests from the differential corpus
//!    packed into parallel-composition bundles of at most 16 threads / 64
//!    accesses. Static validation per bundle; dynamic validation per
//!    constituent test: the bundle placement is sliced back onto each
//!    part, and both oracles — operational explorer and axiomatic checker
//!    — must reject the weak outcome *and* agree on the full finals set
//!    of the reinforced test.
//! 3. **Determinism** — the whole analysis pass (enumeration, tiering,
//!    pricing, every manifest cell it emits) is recomputed at a different
//!    worker count with a fresh cycle cache; the canonical cell content
//!    must be byte-identical.
//!
//! Any failed validator, oracle disagreement, bundle shortfall or
//! determinism mismatch fails the campaign; the gate then guards the
//! manifest against `results/baselines/fence_synth_wps.json`. `--quick`
//! changes nothing — the run is static.

use wmm_analyze::{
    analyze, apply_to_graph, synthesize_wps, CostModel, CycleCache, Placement, ProgramGraph,
    SynthConfig, WpsConfig, WpsReport, WpsTier,
};
use wmm_axiom::axiomatic_outcomes;
use wmm_dstruct::{use_after_retire, StitchedProgram};
use wmm_harness::RunManifest;
use wmm_litmus::explore::explore;

use super::{check, Ctx};
use crate::streams::NOMINAL_K;
use crate::wps::{make_bundles, slice_placement, Bundle, MIN_BUNDLED_TESTS, WPS_MODEL};

/// Synthesis model for every instance (see [`WPS_MODEL`]).
const MODEL: wmm_litmus::ops::ModelKind = WPS_MODEL;

/// Stable numeric code for a tier, for manifest cells.
fn tier_code(tier: WpsTier) -> f64 {
    match tier {
        WpsTier::Exact => 0.0,
        WpsTier::Approx => 1.0,
        WpsTier::Timeout => 2.0,
    }
}

/// Push one instance's deterministic analysis cells.
fn push_report_cells(manifest: &mut RunManifest, label: &str, r: &WpsReport, static_ok: bool) {
    manifest.push_cell(format!("{label}/cost_ns"), r.placement.cost_ns);
    manifest.push_cell(
        format!("{label}/instruments"),
        r.placement.instruments.len() as f64,
    );
    manifest.push_cell(format!("{label}/tier"), tier_code(r.tier));
    manifest.push_cell(format!("{label}/components"), r.components as f64);
    manifest.push_cell(format!("{label}/cycles"), r.cycles as f64);
    manifest.push_cell(format!("{label}/open_cycles"), r.open_cycles as f64);
    manifest.push_cell(format!("{label}/legs"), r.legs as f64);
    manifest.push_cell(format!("{label}/nodes"), r.nodes as f64);
    manifest.push_cell(format!("{label}/approx_cost_ns"), r.approx_cost_ns);
    if let Some(exact) = r.exact_cost_ns {
        manifest.push_cell(format!("{label}/exact_cost_ns"), exact);
    }
    if let Some(gap) = r.gap {
        manifest.push_cell(format!("{label}/gap"), gap);
    }
    manifest.push_cell(format!("{label}/static_valid"), f64::from(static_ok));
}

/// Everything the worker-parameterized analysis pass produces: the
/// deterministic manifest cells plus the placements the (worker-count
/// independent) dynamic validators consume.
struct AnalysisPass {
    manifest: RunManifest,
    errors: Vec<String>,
    stitched: Vec<(StitchedProgram, WpsReport)>,
    /// Each bundle with its gated report plus, for stress bundles, the
    /// forced greedy-tier report.
    bundles: Vec<(Bundle, WpsReport, Option<WpsReport>)>,
}

/// Synthesize one instance whole-program, re-check its placement on the
/// instrumented graph, and record the report's cells under `label`.
/// Returns the report, or `None` when synthesis failed.
fn solve(
    pass: &mut AnalysisPass,
    label: &str,
    g: &ProgramGraph,
    cfg: SynthConfig,
    wps: &WpsConfig,
    cache: &CycleCache,
    costs: &CostModel,
) -> Option<WpsReport> {
    let r = match synthesize_wps(g, cfg, costs, wps, Some(cache)) {
        Ok(r) => r,
        Err(e) => {
            pass.errors.push(format!("{label}: synthesis failed: {e}"));
            return None;
        }
    };
    let static_ok = analyze(&apply_to_graph(g, &r.placement.instruments), MODEL).protected();
    push_report_cells(&mut pass.manifest, label, &r, static_ok);
    if !static_ok {
        pass.errors
            .push(format!("{label}: unprotected cycles after synthesis"));
    }
    Some(r)
}

/// Run the full static pipeline at one worker count: stitched programs,
/// then bundles, sharing one skeleton cache. Emits only deterministic
/// cells so two passes at different worker counts must agree byte-for-byte.
fn analysis_pass(name: &str, threads: usize, costs: &CostModel) -> AnalysisPass {
    let wps = WpsConfig {
        threads: Some(threads),
        ..WpsConfig::default()
    };
    let cache = CycleCache::in_memory();
    let mut pass = AnalysisPass {
        manifest: RunManifest::new(name, "static"),
        errors: vec![],
        stitched: vec![],
        bundles: vec![],
    };

    for prog in StitchedProgram::all() {
        let label = format!("wps/dstruct/{}", prog.name);
        // Reclamation sites are pure instruction sequences (kernel-macro
        // style), so the stitched tier synthesizes fences only.
        let cfg = SynthConfig::fences_only(MODEL);
        if let Some(r) = solve(&mut pass, &label, &prog.graph(), cfg, &wps, &cache, costs) {
            pass.stitched.push((prog, r));
        }
    }

    for bundle in make_bundles(MIN_BUNDLED_TESTS) {
        let label = format!("wps/gen/{}", bundle.label);
        let cfg = SynthConfig::for_model(MODEL);
        let Some(r) = solve(&mut pass, &label, &bundle.graph, cfg, &wps, &cache, costs) else {
            continue;
        };
        pass.manifest
            .push_cell(format!("{label}/tests"), bundle.parts.len() as f64);
        // Stress bundles also ship the greedy tier's own placement: a
        // zero leg cap skips the oracle, so the reorder-bounded tier is
        // what gets validated.
        let forced = if bundle.stress {
            let flabel = format!("{label}/approx_tier");
            let fwps = WpsConfig {
                exact_leg_cap: 0,
                ..wps
            };
            let fr = solve(&mut pass, &flabel, &bundle.graph, cfg, &fwps, &cache, costs);
            if let Some(fr) = fr.as_ref().filter(|fr| fr.tier != WpsTier::Approx) {
                pass.errors.push(format!(
                    "{flabel}: forced greedy solve reported the {} tier",
                    fr.tier.label()
                ));
            }
            fr
        } else {
            None
        };
        pass.bundles.push((bundle, r, forced));
    }

    let packed: usize = pass.bundles.iter().map(|(b, _, _)| b.parts.len()).sum();
    pass.manifest
        .push_cell("wps/gen/tests_total", packed as f64);
    pass.manifest
        .push_cell("wps/gen/bundles", pass.bundles.len() as f64);
    let cache_stats = cache.stats();
    pass.manifest
        .push_cell("wps/cache/entries", cache_stats.entries as f64);
    pass.manifest
        .push_cell("wps/cache/hits", cache_stats.hits as f64);
    if packed < MIN_BUNDLED_TESTS {
        pass.errors.push(format!(
            "only {packed} generated tests bundled (need >= {MIN_BUNDLED_TESTS})"
        ));
    }
    pass
}

/// Dynamic validation of the stitched placements: replay each placement's
/// reclamation-window slice onto the use-after-retire litmus; the
/// explorer must reject the weak outcome.
fn validate_stitched(pass: &mut AnalysisPass) {
    let stitched = std::mem::take(&mut pass.stitched);
    for (prog, r) in &stitched {
        let label = format!("wps/dstruct/{}", prog.name);
        let items = prog.hazard_race_reinforcement(&r.placement.instruments);
        let reinforced = use_after_retire().reinforced(&items);
        let weak = explore(&reinforced, MODEL)
            .allows_with_memory(&reinforced.interesting, &reinforced.memory);
        pass.manifest
            .push_cell(format!("{label}/dynamic_valid"), f64::from(!weak));
        if weak {
            pass.errors.push(format!(
                "{label}: reclamation race still reachable under the synthesized placement"
            ));
        }
        println!(
            "  {}: {} tier, {:.1} ns, {} instruments, {} cycles, dynamic {}",
            prog.name,
            r.tier.label(),
            r.placement.cost_ns,
            r.placement.instruments.len(),
            r.cycles,
            if weak { "FAIL" } else { "ok" },
        );
    }
    pass.stitched = stitched;
}

/// Dynamic validation of the bundle placements, per constituent: slice
/// the placement back onto each part and require the explorer to reject
/// the weak outcome **and** the axiomatic oracle to agree with it on the
/// reinforced test's full finals set.
fn validate_bundles(pass: &mut AnalysisPass) {
    let bundles = std::mem::take(&mut pass.bundles);
    let (mut parts, mut weak_fails, mut oracle_splits) = (0usize, 0usize, 0usize);
    for (bundle, r, forced) in &bundles {
        let gated = format!("wps/gen/{}", bundle.label);
        let placements: Vec<(String, &Placement)> = std::iter::once((gated.clone(), &r.placement))
            .chain(
                forced
                    .iter()
                    .map(|fr| (format!("{gated}/approx_tier"), &fr.placement)),
            )
            .collect();
        for (label, placement) in placements {
            let mut ok = true;
            for (test, off) in &bundle.parts {
                parts += 1;
                let sliced = slice_placement(placement, *off, test.threads.len());
                let reinforced = test.reinforced(&sliced.to_reinforce());
                let op = explore(&reinforced, MODEL);
                let ax = axiomatic_outcomes(&reinforced, MODEL);
                let op_weak = op.allows_with_memory(&reinforced.interesting, &reinforced.memory);
                let ax_weak = ax.allows_with_memory(&reinforced.interesting, &reinforced.memory);
                if op_weak || ax_weak {
                    weak_fails += 1;
                    ok = false;
                    pass.errors.push(format!(
                        "{label}/{}: weak outcome reachable after synthesis \
                         (op {op_weak}, ax {ax_weak})",
                        test.name
                    ));
                }
                if ax.finals != op.canonical() {
                    oracle_splits += 1;
                    ok = false;
                    pass.errors.push(format!(
                        "{label}/{}: oracles disagree on the reinforced finals set",
                        test.name
                    ));
                }
            }
            pass.manifest
                .push_cell(format!("{label}/dynamic_valid"), f64::from(ok));
        }
    }
    pass.manifest
        .push_cell("wps/gen/parts_validated", parts as f64);
    println!(
        "  {parts} constituent tests dual-oracle validated; \
         {weak_fails} weak-outcome failures, {oracle_splits} oracle splits"
    );
    pass.bundles = bundles;
}

/// Runs the analysis pass twice, then both dynamic validators.
pub(crate) fn fence_synth_wps(ctx: &Ctx) -> Result<RunManifest, String> {
    println!("fence_synth_wps — whole-program synthesis (decompose / enumerate / tier)");
    let costs = CostModel::priced(NOMINAL_K);

    println!("== analysis pass (stitched dstruct + generated bundles) ==");
    let workers = ctx.exec.threads();
    let mut pass = analysis_pass(ctx.name, workers, &costs);
    let exact = pass
        .bundles
        .iter()
        .map(|(_, r, _)| r)
        .chain(pass.stitched.iter().map(|(_, r)| r))
        .filter(|r| r.tier == WpsTier::Exact)
        .count();
    let forced = pass.bundles.iter().filter(|(_, _, f)| f.is_some()).count();
    let total = pass.bundles.len() + pass.stitched.len();
    println!(
        "  {total} gated instances ({} bundles): {exact} exact-tier with priced gap; \
         {forced} stress bundles also ship a forced greedy-tier placement",
        pass.bundles.len(),
    );

    println!("== determinism (re-analysis at a different worker count) ==");
    let alternate = if workers == 1 { 2 } else { 1 };
    let replay = analysis_pass(ctx.name, alternate, &costs);
    let identical = pass.manifest.canonical_json().to_string_pretty()
        == replay.manifest.canonical_json().to_string_pretty();
    println!(
        "  {workers} vs {alternate} workers: manifests {}",
        if identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        pass.errors.push(format!(
            "analysis manifest differs between {workers} and {alternate} workers"
        ));
    }

    println!("== dynamic validation (explorer + axiomatic oracle) ==");
    validate_stitched(&mut pass);
    validate_bundles(&mut pass);
    pass.manifest
        .push_cell("wps/determinism/manifest_identical", f64::from(identical));

    check(ctx.name, &pass.errors)?;
    Ok(pass.manifest)
}
