//! Whole-program fence synthesis (WPS).
//!
//! The per-shape pipeline ([`crate::synth`]) enumerates critical cycles
//! and solves one hitting-set instance per program, serially. That is
//! exact and fast for litmus-sized inputs, but a *whole program* — a
//! stitched multi-operation hot path, or a bundle of generated tests
//! composed in parallel — is bigger on both axes. This module scales the
//! same analysis along the structure of the input:
//!
//! 1. **Decomposition.** Threads that never touch a common shared
//!    location cannot appear on the same critical cycle (every
//!    communication edge joins conflicting accesses). The connected
//!    components of the thread/location conflict graph therefore
//!    partition the cycle set exactly — each component is an independent
//!    enumeration subproblem.
//! 2. **Parallel, incremental enumeration.** Per-component enumeration
//!    runs as content-addressed tasks through the `wmm-harness` job seam
//!    ([`wmm_harness::run_cached_tasks`]): results merge in component
//!    order, so the output is byte-identical at any worker count, and a
//!    component's cycle set is cached under a hash of its *access
//!    skeleton* — fences and dependencies do not change which cycles
//!    exist, only whether they are protected, so fenced variants and
//!    repeated shapes (the same test appearing in many bundles) reuse
//!    each other's enumeration.
//! 3. **Tiered solving.** Instances with at most
//!    [`WpsConfig::exact_leg_cap`] distinct reorderable legs get the
//!    exact branch-and-bound (under an explicit node budget) as the
//!    gated oracle; every instance also gets the reorder-bounded greedy
//!    tier ([`SolverOptions::approx`]), and where both ran the report
//!    carries the priced optimality gap.

use wmm_harness::{resolve_threads, run_cached_tasks, Fnv128, TaskCache};

use crate::check::check_cycle;
use crate::cycles::{critical_cycles, dedup_cycles, CriticalCycle};
use crate::graph::ProgramGraph;
use crate::synth::{
    synthesize_open, CostModel, Placement, SolverOptions, SynthConfig, SynthError, SynthOutcome,
};

/// Content-addressed store of per-component cycle sets, keyed by the
/// component's access skeleton and holding cycles in component-local
/// access ids (so a hit remaps into any parent graph with the same
/// skeleton).
pub type CycleCache = TaskCache<Vec<CriticalCycle>>;

/// Knobs for the whole-program pipeline.
#[derive(Debug, Clone, Copy)]
pub struct WpsConfig {
    /// Worker threads for enumeration (`None`: `WMM_THREADS` or the
    /// machine's available parallelism).
    pub threads: Option<usize>,
    /// Reorder bound `k` for the approximate tier: eager constraints per
    /// cycle come from at most `k` multi-access legs.
    pub reorder_bound: usize,
    /// Instances with at most this many distinct reorderable legs also
    /// run the exact branch-and-bound oracle.
    pub exact_leg_cap: usize,
    /// Node budget for the exact tier.
    pub node_budget: u64,
}

impl Default for WpsConfig {
    fn default() -> Self {
        WpsConfig {
            threads: None,
            reorder_bound: 2,
            exact_leg_cap: 30,
            node_budget: crate::synth::DEFAULT_NODE_BUDGET,
        }
    }
}

/// Which tier produced the placement a [`WpsReport`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WpsTier {
    /// Proven minimal by complete branch-and-bound.
    Exact,
    /// Greedy reorder-bounded tier (instance above the exact cap).
    Approx,
    /// Exact tier attempted but the node budget ran out; the placement
    /// is the feasible incumbent.
    Timeout,
}

impl WpsTier {
    /// Stable label for manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WpsTier::Exact => "exact",
            WpsTier::Approx => "approx",
            WpsTier::Timeout => "timeout",
        }
    }
}

/// Everything a whole-program synthesis run reports.
#[derive(Debug, Clone)]
pub struct WpsReport {
    /// The placement to apply (from the tier in `tier`).
    pub placement: Placement,
    /// Which tier produced `placement`.
    pub tier: WpsTier,
    /// Conflict components of the program (including cycle-free ones).
    pub components: usize,
    /// Critical cycles enumerated.
    pub cycles: usize,
    /// Cycles unprotected before synthesis.
    pub open_cycles: usize,
    /// Distinct reorderable (multi-access) legs across open cycles — the
    /// instance-size measure the exact cap is checked against.
    pub legs: usize,
    /// Branch-and-bound nodes explored by the exact tier (0 if not run).
    pub nodes: u64,
    /// Exact-oracle cost, when the exact tier completed.
    pub exact_cost_ns: Option<f64>,
    /// Approximate-tier cost (always computed).
    pub approx_cost_ns: f64,
    /// Priced optimality gap `approx / exact` when both tiers completed
    /// (1.0 = greedy matched the optimum).
    pub gap: Option<f64>,
}

/// Partition thread indices into conflict components: two threads share a
/// component iff they (transitively) access a common shared location.
/// Components list threads ascending and are ordered by lowest thread.
#[must_use]
pub fn conflict_components(g: &ProgramGraph) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let n = g.threads.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut owner: Vec<Option<usize>> = vec![None; g.loc_names.len()];
    for (t, ids) in g.threads.iter().enumerate() {
        for &id in ids {
            let a = &g.accesses[id];
            if !a.shared {
                continue;
            }
            if let Some(o) = owner[a.loc] {
                let (ra, rb) = (find(&mut parent, o), find(&mut parent, t));
                parent[ra.max(rb)] = ra.min(rb);
            } else {
                owner[a.loc] = Some(t);
            }
        }
    }
    let mut comps: Vec<Vec<usize>> = vec![];
    let mut root_of: Vec<Option<usize>> = vec![None; n];
    for t in 0..n {
        let r = find(&mut parent, t);
        if let Some(c) = root_of[r] {
            comps[c].push(t);
        } else {
            root_of[r] = Some(comps.len());
            comps.push(vec![t]);
        }
    }
    comps
}

/// Content key of a component: a hash of its access skeleton — per thread
/// (ascending), in program order, each access's roles, sharedness and
/// first-occurrence-interned location. Fences, dependencies and
/// acquire/release attributes are deliberately excluded: they never
/// change which critical cycles exist, only whether they are protected,
/// so skeleton-equal components share one cached enumeration.
#[must_use]
pub fn component_key(g: &ProgramGraph, threads: &[usize]) -> u128 {
    let mut h = Fnv128::new();
    let mut locs: Vec<usize> = vec![];
    h.u64(threads.len() as u64);
    for &t in threads {
        h.u64(0xF00D_F00D);
        h.u64(g.threads[t].len() as u64);
        for &id in &g.threads[t] {
            let a = &g.accesses[id];
            let local = locs.iter().position(|&l| l == a.loc).unwrap_or_else(|| {
                locs.push(a.loc);
                locs.len() - 1
            });
            h.u64(u64::from(a.is_load) | u64::from(a.is_store) << 1 | u64::from(a.shared) << 2);
            h.u64(local as u64);
        }
    }
    h.finish()
}

/// The component as a standalone graph (threads/locations renumbered in
/// first-occurrence order, fences and deps dropped — enumeration ignores
/// them). Its access ids number the component's threads' accesses in
/// order, which is what [`component_to_parent`] maps back.
fn component_graph(g: &ProgramGraph, threads: &[usize]) -> ProgramGraph {
    let mut sub = ProgramGraph {
        name: String::new(),
        accesses: vec![],
        threads: vec![],
        fences: vec![],
        deps: vec![],
        loc_names: vec![],
    };
    let mut locs: Vec<usize> = vec![];
    for (local_t, &t) in threads.iter().enumerate() {
        let mut ids: Vec<usize> = vec![];
        for &id in &g.threads[t] {
            let a = &g.accesses[id];
            let local_loc = locs.iter().position(|&l| l == a.loc).unwrap_or_else(|| {
                locs.push(a.loc);
                sub.loc_names.push(g.loc_names[a.loc].clone());
                locs.len() - 1
            });
            let local_id = sub.accesses.len();
            sub.accesses.push(crate::graph::Access {
                thread: local_t,
                pos: ids.len(),
                loc: local_loc,
                ..*a
            });
            ids.push(local_id);
        }
        sub.threads.push(ids);
    }
    sub
}

/// The parent access id of each of [`component_graph`]'s access ids.
fn component_to_parent(g: &ProgramGraph, threads: &[usize]) -> Vec<usize> {
    threads
        .iter()
        .flat_map(|&t| g.threads[t].iter().copied())
        .collect()
}

/// Whole-program critical-cycle enumeration: decompose into conflict
/// components, enumerate each as a content-addressed parallel task, and
/// merge in component order. The result equals [`critical_cycles`] on the
/// same graph (as canonical-key sets *and* as an ordered sequence after
/// both sides' dedup) and is byte-identical at any worker count.
#[must_use]
pub fn critical_cycles_wps(
    g: &ProgramGraph,
    threads: Option<usize>,
    cache: Option<&CycleCache>,
) -> Vec<CriticalCycle> {
    let workers = resolve_threads(threads);
    let comps: Vec<Vec<usize>> = conflict_components(g)
        .into_iter()
        .filter(|c| c.len() >= 2)
        .collect();
    let local_sets = run_cached_tasks(
        &comps,
        workers,
        cache,
        |comp| component_key(g, comp),
        |comp| critical_cycles(&component_graph(g, comp)),
    );
    let mut merged: Vec<CriticalCycle> = vec![];
    for (comp, local) in comps.iter().zip(local_sets) {
        let to_parent = component_to_parent(g, comp);
        for mut cyc in local {
            for leg in &mut cyc.legs {
                *leg = (to_parent[leg.0], to_parent[leg.1]);
            }
            merged.push(cyc);
        }
    }
    dedup_cycles(merged)
}

/// Tiered whole-program synthesis over the parallel-enumerated cycle set.
///
/// Every instance runs the reorder-bounded greedy tier; instances whose
/// open cycles span at most [`WpsConfig::exact_leg_cap`] distinct
/// reorderable legs also run the exact branch-and-bound oracle (under
/// [`WpsConfig::node_budget`] nodes) and the report prices the gap
/// between the tiers. The returned placement comes from the strongest
/// tier that completed: exact when it ran to optimality, its feasible
/// incumbent on timeout, greedy otherwise.
///
/// # Errors
///
/// [`SynthError`] as for [`crate::synthesize`] (no-candidate cycles or
/// lazy-constraint divergence); never `Timeout` — budget exhaustion is
/// reported via [`WpsTier::Timeout`].
pub fn synthesize_wps(
    g: &ProgramGraph,
    cfg: SynthConfig,
    costs: &CostModel,
    wps: &WpsConfig,
    cache: Option<&CycleCache>,
) -> Result<WpsReport, SynthError> {
    let components = conflict_components(g).len();
    let cycles = critical_cycles_wps(g, wps.threads, cache);
    let open: Vec<&CriticalCycle> = cycles
        .iter()
        .filter(|c| !check_cycle(g, cfg.model, c).protected)
        .collect();
    let mut legs: Vec<(usize, usize)> = open
        .iter()
        .flat_map(|c| c.legs.iter().copied().filter(|&(e, x)| e != x))
        .collect();
    legs.sort_unstable();
    legs.dedup();

    let approx = synthesize_open(
        g,
        &open,
        cfg,
        costs,
        &SolverOptions::approx(wps.reorder_bound),
    )?
    .into_placement();
    let mut report = WpsReport {
        placement: approx.clone(),
        tier: WpsTier::Approx,
        components,
        cycles: cycles.len(),
        open_cycles: open.len(),
        legs: legs.len(),
        nodes: 0,
        exact_cost_ns: None,
        approx_cost_ns: approx.cost_ns,
        gap: None,
    };
    if legs.len() > wps.exact_leg_cap {
        return Ok(report);
    }
    let outcome = synthesize_open(g, &open, cfg, costs, &SolverOptions::exact(wps.node_budget))?;
    apply_exact_tier(&mut report, outcome);
    Ok(report)
}

/// Fold the exact oracle's outcome into a report seeded with the approx
/// tier, pricing the optimality gap when the oracle completed.
fn apply_exact_tier(report: &mut WpsReport, outcome: SynthOutcome) {
    match outcome {
        SynthOutcome::Exact { placement, nodes } => {
            debug_assert!(
                report.approx_cost_ns >= placement.cost_ns - 1e-9,
                "approx tier beat the exact oracle: {} < {}",
                report.approx_cost_ns,
                placement.cost_ns
            );
            report.gap = Some(if placement.cost_ns > 1e-9 {
                report.approx_cost_ns / placement.cost_ns
            } else {
                1.0
            });
            report.exact_cost_ns = Some(placement.cost_ns);
            report.nodes = nodes;
            report.placement = placement;
            report.tier = WpsTier::Exact;
        }
        SynthOutcome::Timeout {
            placement, nodes, ..
        } => {
            report.nodes = nodes;
            report.placement = placement;
            report.tier = WpsTier::Timeout;
        }
        SynthOutcome::Approx { .. } => unreachable!("exact options never produce the greedy tier"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{apply_to_graph, synthesize};
    use wmm_litmus::ops::ModelKind;
    use wmm_litmus::suite;

    fn graph_of(entry: &suite::SuiteEntry) -> ProgramGraph {
        ProgramGraph::from_litmus(&entry.test)
    }

    fn canon_keys(cycles: &[CriticalCycle]) -> Vec<Vec<(usize, usize, u8)>> {
        let mut keys: Vec<_> = cycles.iter().map(CriticalCycle::canonical_key).collect();
        keys.sort();
        keys
    }

    #[test]
    fn union_of_independent_tests_decomposes_per_part() {
        let sb = graph_of(&suite::store_buffering());
        let mp = graph_of(&suite::message_passing());
        let u = ProgramGraph::disjoint_union("sb+mp", &[&sb, &mp]);
        let comps = conflict_components(&u);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn sequentially_stitched_threads_stay_one_component() {
        // Threads sharing any location chain into one component.
        let g = graph_of(&suite::iriw_addrs());
        assert_eq!(conflict_components(&g).len(), 1);
    }

    #[test]
    fn wps_enumeration_matches_serial_on_suite_and_unions() {
        let entries = [
            suite::store_buffering(),
            suite::message_passing(),
            suite::iriw_addrs(),
            suite::sb_fences(),
        ];
        let graphs: Vec<ProgramGraph> = entries.iter().map(graph_of).collect();
        let union = ProgramGraph::disjoint_union("all", &graphs.iter().collect::<Vec<_>>());
        for g in graphs.iter().chain([&union]) {
            let serial = critical_cycles(g);
            for workers in [1, 2, 4] {
                let wps = critical_cycles_wps(g, Some(workers), None);
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{wps:?}"),
                    "worker count changed the cycle set of {}",
                    g.name
                );
            }
        }
    }

    #[test]
    fn skeleton_cache_reuses_repeated_and_fenced_shapes() {
        let sb = graph_of(&suite::store_buffering());
        let fenced = graph_of(&suite::sb_fences());
        // Same skeleton: fences don't enter the key.
        assert_eq!(component_key(&sb, &[0, 1]), component_key(&fenced, &[0, 1]));
        let cache = CycleCache::in_memory();
        let u = ProgramGraph::disjoint_union("sb x3", &[&sb, &fenced, &sb]);
        let cycles = critical_cycles_wps(&u, Some(2), Some(&cache));
        assert_eq!(cycles.len(), 3);
        // Three skeleton-equal components: one enumeration, fanned out.
        assert_eq!(cache.len(), 1);
        let again = critical_cycles_wps(&u, Some(4), Some(&cache));
        assert_eq!(format!("{cycles:?}"), format!("{again:?}"));
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn wps_exact_tier_matches_plain_synthesis() {
        let costs = CostModel::static_table();
        for entry in [suite::store_buffering(), suite::message_passing()] {
            let g = graph_of(&entry);
            for model in [ModelKind::Tso, ModelKind::ArmV8, ModelKind::Power] {
                let cfg = SynthConfig::for_model(model);
                let plain = synthesize(&g, cfg, &costs).expect("plain");
                let report =
                    synthesize_wps(&g, cfg, &costs, &WpsConfig::default(), None).expect("wps");
                assert_eq!(report.tier, WpsTier::Exact);
                assert_eq!(
                    format!("{:?}", plain.instruments),
                    format!("{:?}", report.placement.instruments)
                );
                let gap = report.gap.expect("both tiers ran");
                assert!(gap >= 1.0 - 1e-9, "gap {gap}");
                // The approx tier is feasible on its own.
                let approx_ok = report.approx_cost_ns >= report.placement.cost_ns - 1e-9;
                assert!(approx_ok);
            }
        }
    }

    #[test]
    fn wps_fences_a_multi_test_union_and_revalidates() {
        let parts = [
            graph_of(&suite::store_buffering()),
            graph_of(&suite::message_passing()),
            graph_of(&suite::iriw_addrs()),
        ];
        let u = ProgramGraph::disjoint_union("bundle", &parts.iter().collect::<Vec<_>>());
        let costs = CostModel::static_table();
        let cfg = SynthConfig::for_model(ModelKind::ArmV8);
        let report =
            synthesize_wps(&u, cfg, &costs, &WpsConfig::default(), None).expect("bundle synth");
        assert!(report.open_cycles > 0);
        let applied = apply_to_graph(&u, &report.placement.instruments);
        let after = critical_cycles_wps(&applied, Some(2), None);
        assert!(after
            .iter()
            .all(|c| check_cycle(&applied, ModelKind::ArmV8, c).protected));
        // Canonical cycle sets agree before/after (fences change nothing).
        assert_eq!(canon_keys(&critical_cycles(&u)), canon_keys(&after));
    }

    #[test]
    fn approx_tier_above_cap_still_protects_everything() {
        let parts: Vec<ProgramGraph> = (0..4)
            .map(|_| graph_of(&suite::store_buffering()))
            .collect();
        let u = ProgramGraph::disjoint_union("sb x4", &parts.iter().collect::<Vec<_>>());
        let costs = CostModel::static_table();
        let cfg = SynthConfig::for_model(ModelKind::ArmV8);
        let wps = WpsConfig {
            exact_leg_cap: 4, // force the approx tier
            ..WpsConfig::default()
        };
        let report = synthesize_wps(&u, cfg, &costs, &wps, None).expect("approx synth");
        assert_eq!(report.tier, WpsTier::Approx);
        assert!(report.gap.is_none());
        let applied = apply_to_graph(&u, &report.placement.instruments);
        for cyc in critical_cycles(&applied) {
            assert!(check_cycle(&applied, ModelKind::ArmV8, &cyc).protected);
        }
    }

    #[test]
    fn zero_budget_exact_tier_reports_timeout_with_feasible_incumbent() {
        let g = graph_of(&suite::store_buffering());
        let costs = CostModel::static_table();
        let cfg = SynthConfig::for_model(ModelKind::ArmV8);
        let wps = WpsConfig {
            node_budget: 0,
            ..WpsConfig::default()
        };
        let report = synthesize_wps(&g, cfg, &costs, &wps, None).expect("synth");
        assert_eq!(report.tier, WpsTier::Timeout);
        assert!(report.exact_cost_ns.is_none());
        let applied = apply_to_graph(&g, &report.placement.instruments);
        for cyc in critical_cycles(&applied) {
            assert!(check_cycle(&applied, ModelKind::ArmV8, &cyc).protected);
        }
    }
}
