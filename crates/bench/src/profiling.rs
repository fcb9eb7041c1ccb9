//! Per-site stall profiling of whole campaigns — the driver layer behind
//! the `wmm_profile-*` and `wmm_tracediff*` campaigns.
//!
//! Where [`crate::experiments`] answers "what does this strategy cost
//! per *fence kind*", this module answers "which *site* paid it": every
//! measurement batch is a set of image cells run in place through
//! `Machine::run_sited_with`, the per-sample [`SiteStall`] records are folded
//! into a [`Profile`] keyed by the stable site names [`SiteNames`] reads
//! off each image and its site table, and whole campaigns (all DaCapo or
//! kernel benchmarks under one strategy) merge into a single name-prefixed
//! profile ready for flamegraph export or site-by-site diffing.
//!
//! The per-site fold is cross-checked against the per-kind telemetry the
//! attribution campaigns already gate: for every `(benchmark, fence kind)`
//! cell, summing site fence-stall cycles over sites of that kind must
//! reproduce the `ExecStats` per-kind total (to float reassociation,
//! ≈1e-9 relative — see `KindCheck`). No cycle is double-counted and
//! none is lost.

use std::collections::HashMap;
use std::hash::Hash;

use wmm_harness::{RunManifest, SimTotals, SiteRecord};
use wmm_jvm::barrier::Combined;
use wmm_jvm::jit::JitConfig;
use wmm_kernel::rbd::{rbd_strategy, RbdStrategy};
use wmm_obs::Profile;
use wmm_sim::arch::Arch;
use wmm_sim::isa::{FenceKind, Instr};
use wmm_sim::stats::SiteStall;
use wmm_sim::Machine;
use wmm_workloads::dacapo::dacapo_suite;
use wmm_workloads::kernel::{kernel_profile, KernelBench};
use wmmbench::exec::Executor;
use wmmbench::image::{Injection, SiteNames, SiteRewriter};
use wmmbench::runner::{sample_images, Batch, BenchSpec, RunConfig, SampleCode};
use wmmbench::strategy::{FencingStrategy, FnStrategy};

use crate::experiments::{
    dstruct_envelope, jvm_base_strategy, jvm_envelope, kernel_envelope, machine, ExpConfig,
};

/// One sited measurement batch folded over its kept samples: wall times,
/// the aggregated per-kind simulator statistics, and the per-site profile.
#[derive(Debug, Clone)]
pub struct ProfiledBatch {
    /// Sample wall times, ns (warm-ups dropped).
    pub times: Vec<f64>,
    /// Per-kind statistics aggregated over the same samples.
    pub totals: SimTotals,
    /// Per-site stall profile folded over the same samples.
    pub profile: Profile,
    /// The first sample's raw stall records and site names — enough to
    /// reconstruct one run's instruction-granular timeline for trace
    /// export.
    pub exemplar: Option<(Vec<SiteStall>, SiteNames)>,
}

impl ProfiledBatch {
    /// Mean sample wall time, ns.
    pub fn mean_wall_ns(&self) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        self.times.iter().sum::<f64>() / self.times.len() as f64
    }
}

/// Run one measurement batch sited: the per-site counterpart of the
/// attribution campaigns' stats batches, submitted as the same image cells
/// with `sited` set. Wall times and per-kind totals are bit-identical to
/// the unsited batch — the probe observes values the executor already
/// computed — so callers can use them interchangeably.
pub fn batch_with_profile<P: Clone + Eq + Hash + std::fmt::Debug>(
    m: &Machine,
    bench: &dyn BenchSpec<P>,
    rw: &SiteRewriter<'_, P>,
    cfg: RunConfig,
    exec: &dyn Executor,
) -> ProfiledBatch {
    let images = sample_images(bench, cfg);
    let code = SampleCode::new(&images);
    let kept = Batch::new(m, cfg, [(&code, rw)]).run_sited(exec);
    let mut batch = ProfiledBatch {
        times: Vec::with_capacity(cfg.samples),
        totals: SimTotals::default(),
        profile: Profile::new(),
        exemplar: None,
    };
    for (o, names) in kept.into_iter().flatten() {
        batch.times.push(o.wall_ns);
        if let Some(s) = &o.stats {
            batch.totals.merge_stats(s);
            if let Some(per_site) = &s.per_site {
                batch.profile.add_run(per_site, &names);
                if batch.exemplar.is_none() {
                    batch.exemplar = Some((per_site.clone(), names));
                }
            }
        }
    }
    batch
}

/// One benchmark's sited batch within a campaign.
#[derive(Debug, Clone)]
pub(crate) struct BenchProfile {
    /// Benchmark name (the site-name prefix in the merged profile).
    pub bench: String,
    /// The benchmark's sited measurement batch.
    pub batch: ProfiledBatch,
}

/// A whole campaign profiled site by site: one sited batch per benchmark,
/// plus the cycle→ns conversion of the machine it ran on.
#[derive(Debug, Clone)]
pub(crate) struct CampaignProfile {
    /// Campaign id (`fig5-arm`, `fig9-kernel`, `jdk8-arm`, `jdk9-arm`).
    pub campaign: &'static str,
    /// Architecture label for manifests.
    pub arch: &'static str,
    /// Nanoseconds per simulator cycle on the campaign's machine.
    pub ns_per_cycle: f64,
    /// Per-benchmark batches, in suite order.
    pub benches: Vec<BenchProfile>,
}

impl CampaignProfile {
    /// The campaign-wide profile: every benchmark's sites merged under
    /// `benchmark/site` names (prefixing keeps same-shaped benchmarks from
    /// colliding; `SiteNames::is_code` still recognises code rows because it
    /// matches the name's tail).
    pub(crate) fn merged(&self) -> Profile {
        let mut merged = Profile::new();
        for b in &self.benches {
            for (name, sp) in &b.batch.profile.sites {
                merged
                    .sites
                    .insert(format!("{}/{}", b.bench, name), sp.clone());
            }
        }
        merged
    }

    /// Sum of per-benchmark mean wall times, ns — the campaign-level wall
    /// cost whose strategy-to-strategy delta `wmm_tracediff` attributes.
    pub(crate) fn total_wall_ns(&self) -> f64 {
        self.benches.iter().map(|b| b.batch.mean_wall_ns()).sum()
    }

    /// The `wmm_profile-*` manifest `name`: per-benchmark wall time, and
    /// the merged profile as `sites` (deterministic name order, straight
    /// from the `BTreeMap`). Site counts and per-kind fence sums are not
    /// restated as cells: the gate compares every site record exactly.
    pub(crate) fn manifest(&self, name: &str) -> RunManifest {
        let mut manifest = RunManifest::new(name, self.arch);
        for b in &self.benches {
            manifest.push_cell(format!("{}/wall_ns", b.bench), b.batch.mean_wall_ns());
        }
        manifest.sites = Some(site_records(&self.merged()));
        manifest
    }
}

/// Convert a profile to manifest [`SiteRecord`]s (name order).
pub fn site_records(profile: &Profile) -> Vec<SiteRecord> {
    profile
        .sites
        .iter()
        .map(|(name, sp)| SiteRecord {
            name: name.clone(),
            fence: sp.fence,
            fences: sp.fences,
            fence_cycles: sp.fence_cycles,
            sb_stall_cycles: sp.sb_stall_cycles,
            mem_cycles: sp.mem_cycles,
            total_cycles: sp.total_cycles,
        })
        .collect()
}

/// Rebuild a [`Profile`] from manifest site records (the file side of
/// `wmm_tracediff`). Executions are not recorded in manifests and come
/// back as zero; every cycle and fence count round-trips exactly.
pub(crate) fn profile_from_records(records: &[SiteRecord]) -> Profile {
    let mut p = Profile::new();
    for r in records {
        let sp = p.sites.entry(r.name.clone()).or_default();
        if r.fence.is_some() {
            sp.fence = r.fence;
        }
        sp.fences += r.fences;
        sp.fence_cycles += r.fence_cycles;
        sp.sb_stall_cycles += r.sb_stall_cycles;
        sp.mem_cycles += r.mem_cycles;
        sp.total_cycles += r.total_cycles;
    }
    p
}

/// One `(benchmark, fence kind)` cross-check cell: the per-site fold's
/// fence stall cycles against the per-kind `ExecStats` total the
/// attribution campaigns gate. The two sum the same stall events in
/// different orders, so they agree to float reassociation (≈1e-9
/// relative), and the fence *counts* must match exactly.
#[derive(Debug, Clone)]
pub(crate) struct KindCheck {
    /// Benchmark name.
    pub bench: String,
    /// Fence kind.
    pub kind: FenceKind,
    /// Σ fence stall cycles over sites of this kind (per-site account).
    pub site_cycles: f64,
    /// The `ExecStats` per-kind stall cycle total (per-kind account).
    pub kind_cycles: f64,
    /// Σ fence executions over sites of this kind.
    pub site_fences: u64,
    /// The `ExecStats` per-kind execution count.
    pub kind_fences: u64,
}

impl KindCheck {
    /// Relative cycle disagreement between the two accounts.
    pub(crate) fn rel_err(&self) -> f64 {
        (self.site_cycles - self.kind_cycles).abs() / self.kind_cycles.abs().max(1e-12)
    }

    /// Whether the accounts agree: exact fence counts, cycles within
    /// reassociation tolerance.
    pub(crate) fn pass(&self) -> bool {
        self.site_fences == self.kind_fences && self.rel_err() < 1e-6
    }
}

/// Cross-check every `(benchmark, fence kind)` cell of a campaign. Kinds
/// that neither account saw are omitted.
pub(crate) fn kind_checks(cp: &CampaignProfile) -> Vec<KindCheck> {
    let mut checks = vec![];
    for b in &cp.benches {
        for kind in FenceKind::ALL {
            let sites = b
                .batch
                .profile
                .sites
                .values()
                .filter(|s| s.fence == Some(kind));
            let (site_cycles, site_fences) =
                sites.fold((0.0, 0), |(c, n), s| (c + s.fence_cycles, n + s.fences));
            let kind_cycles = *b
                .batch
                .totals
                .counters
                .fence_cycles
                .get(&kind)
                .unwrap_or(&0.0);
            let kind_fences = *b
                .batch
                .totals
                .counters
                .fence_counts
                .get(&kind)
                .unwrap_or(&0);
            if site_fences == 0 && kind_fences == 0 {
                continue;
            }
            checks.push(KindCheck {
                bench: b.bench.clone(),
                kind,
                site_cycles,
                kind_cycles,
                site_fences,
                kind_fences,
            });
        }
    }
    checks
}

/// Profile a campaign by id:
///
/// * `fig5-arm` — the Fig. 5 attribution test side: DaCapo under JDK8
///   lowering with a single `dmb ish` per barrier site, so per-site and
///   per-fence costs coincide and the per-kind cross-check is exact.
/// * `fig9-kernel` — the §4.3 kernels with `read_barrier_depends`
///   strengthened to `dmb ish` over the default ARM strategy.
/// * `jdk8-arm` / `jdk9-arm` — the §4.2.1 comparison sides: the same
///   `arm-jdk8-barriers` strategy over JDK8 (barrier sites) vs JDK9
///   (`ldar`/`stlr`, no volatile sites) images; diffing them attributes
///   the JDK8→JDK9 wall delta to the barrier sites that disappeared.
/// * `dstruct-hp-dmb` / `dstruct-hp-asym` — the reclamation comparison
///   sides: the same data-structure workloads under classic hazard
///   pointers (a `dmb ish` at every protect site) vs the asymmetric
///   scheme (readers free, the rare scan priced heavily); diffing them
///   attributes the scheme delta to the protect sites that went quiet.
pub(crate) fn profile_campaign(
    name: &str,
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> Option<CampaignProfile> {
    match name {
        "fig5-arm" => Some(profile_fig5_arm(cfg, exec)),
        "fig9-kernel" => Some(profile_fig9_kernel(cfg, exec)),
        "jdk8-arm" => Some(profile_jdk8_arm(cfg, exec)),
        "jdk9-arm" => Some(profile_jdk9_arm(cfg, exec)),
        "dstruct-hp-dmb" => Some(profile_dstruct(cfg, exec, "dstruct-hp-dmb")),
        "dstruct-hp-asym" => Some(profile_dstruct(cfg, exec, "dstruct-hp-asym")),
        _ => None,
    }
}

fn jvm_campaign(
    campaign: &'static str,
    jit: JitConfig,
    strategy: &dyn FencingStrategy<Combined>,
    cfg: ExpConfig,
    exec: &dyn Executor,
) -> CampaignProfile {
    let m = machine(Arch::ArmV8);
    let env: HashMap<Combined, u64> = jvm_envelope(Arch::ArmV8);
    let mut benches = vec![];
    for bench in dacapo_suite(jit, cfg.scale) {
        let rw = SiteRewriter::new(strategy, Injection::None, env.clone());
        benches.push(BenchProfile {
            bench: bench.name().to_string(),
            batch: batch_with_profile(&m, &bench, &rw, cfg.run, exec),
        });
    }
    CampaignProfile {
        campaign,
        arch: "arm",
        ns_per_cycle: m.spec().ns(1.0),
        benches,
    }
}

/// The Fig. 5 ARM attribution test side, profiled per site.
pub(crate) fn profile_fig5_arm(cfg: ExpConfig, exec: &dyn Executor) -> CampaignProfile {
    let dmb = FnStrategy::new("dmb-per-site", |_: &Combined| {
        vec![Instr::Fence(FenceKind::DmbIsh)]
    });
    jvm_campaign("fig5-arm", JitConfig::jdk8(Arch::ArmV8), &dmb, cfg, exec)
}

/// §4.2.1 base side: JDK8 barrier images under the stock ARM strategy.
pub(crate) fn profile_jdk8_arm(cfg: ExpConfig, exec: &dyn Executor) -> CampaignProfile {
    let strategy = jvm_base_strategy(Arch::ArmV8);
    jvm_campaign(
        "jdk8-arm",
        JitConfig::jdk8(Arch::ArmV8),
        &strategy,
        cfg,
        exec,
    )
}

/// §4.2.1 test side: JDK9 `ldar`/`stlr` images under the same strategy.
pub(crate) fn profile_jdk9_arm(cfg: ExpConfig, exec: &dyn Executor) -> CampaignProfile {
    let strategy = jvm_base_strategy(Arch::ArmV8);
    jvm_campaign(
        "jdk9-arm",
        JitConfig::jdk9(Arch::ArmV8),
        &strategy,
        cfg,
        exec,
    )
}

/// The Fig. 9 kernels with `read_barrier_depends = dmb ish`, profiled per
/// site.
pub(crate) fn profile_fig9_kernel(cfg: ExpConfig, exec: &dyn Executor) -> CampaignProfile {
    let m = machine(Arch::ArmV8);
    let env = kernel_envelope();
    let strat = rbd_strategy(RbdStrategy::DmbIsh);
    let mut benches = vec![];
    for name in ["ebizzy", "netperf_udp", "lmbench", "netperf_tcp"] {
        let bench = KernelBench::new(kernel_profile(name).expect("profile exists"), cfg.scale);
        let rw = SiteRewriter::new(&strat, Injection::None, env.clone());
        benches.push(BenchProfile {
            bench: bench.name().to_string(),
            batch: batch_with_profile(&m, &bench, &rw, cfg.run, exec),
        });
    }
    CampaignProfile {
        campaign: "fig9-kernel",
        arch: "arm",
        ns_per_cycle: m.spec().ns(1.0),
        benches,
    }
}

/// The data-structure workloads under one hazard-pointer scheme, profiled
/// per reclamation site. `campaign` selects the scheme: `dstruct-hp-dmb`
/// (classic, per-protect fence) or `dstruct-hp-asym` (asymmetric,
/// scan-priced).
pub(crate) fn profile_dstruct(
    cfg: ExpConfig,
    exec: &dyn Executor,
    campaign: &'static str,
) -> CampaignProfile {
    let m = machine(Arch::ArmV8);
    let env = dstruct_envelope();
    let strat = if campaign == "dstruct-hp-asym" {
        wmm_dstruct::hp_asym_strategy()
    } else {
        wmm_dstruct::hp_dmb_strategy()
    };
    let mut benches = vec![];
    for bench in wmm_dstruct::dstruct_suite(cfg.scale) {
        let rw = SiteRewriter::new(&strat, Injection::None, env.clone());
        benches.push(BenchProfile {
            bench: bench.name().to_string(),
            batch: batch_with_profile(&m, &bench, &rw, cfg.run, exec),
        });
    }
    CampaignProfile {
        campaign,
        arch: "arm",
        ns_per_cycle: m.spec().ns(1.0),
        benches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmmbench::exec::SerialExecutor;

    #[test]
    fn fig5_per_site_fold_reproduces_per_kind_totals() {
        let cfg = ExpConfig::quick();
        let cp = profile_fig5_arm(cfg, &SerialExecutor);
        assert_eq!(
            cp.benches.len(),
            dacapo_suite(JitConfig::jdk8(Arch::ArmV8), cfg.scale).len()
        );
        let checks = kind_checks(&cp);
        assert!(!checks.is_empty(), "dmb-per-site must execute fences");
        for c in &checks {
            assert!(
                c.pass(),
                "{}/{:?}: site {} vs kind {} ({} vs {} fences)",
                c.bench,
                c.kind,
                c.site_cycles,
                c.kind_cycles,
                c.site_fences,
                c.kind_fences
            );
        }
        // Fence sites exist and carry stall cycles.
        let merged = cp.merged();
        assert!(merged.fence_stall_cycles(FenceKind::DmbIsh) > 0.0);
    }

    #[test]
    fn site_records_roundtrip_through_profile_reconstruction() {
        let cfg = ExpConfig::quick();
        let cp = profile_fig9_kernel(cfg, &SerialExecutor);
        let merged = cp.merged();
        let records = site_records(&merged);
        assert!(!records.is_empty());
        let back = profile_from_records(&records);
        assert_eq!(back.sites.len(), merged.sites.len());
        for (name, sp) in &merged.sites {
            let b = &back.sites[name];
            assert_eq!(b.fence, sp.fence, "{name}");
            assert_eq!(b.fences, sp.fences, "{name}");
            assert_eq!(
                b.total_cycles.to_bits(),
                sp.total_cycles.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn hp_dmb_vs_hp_asym_delta_lands_on_protect_sites() {
        let cfg = ExpConfig::quick();
        let base = profile_dstruct(cfg, &SerialExecutor, "dstruct-hp-dmb");
        let test = profile_dstruct(cfg, &SerialExecutor, "dstruct-hp-asym");
        let diff = base.merged().diff(&test.merged());
        assert!(diff.abs_delta() > 0.0, "schemes must differ");
        // Whole-wall share is diluted by memory-timing ripple on code and
        // chase rows; the scheme change itself moves fence cost, so that is
        // what gets attributed.
        let share = diff.fence_share(|r| r.name.contains(":HpProtect#"));
        assert!(
            share >= 0.90,
            "protect sites must carry ≥90% of the fence-stall delta, got {share:.3}"
        );
    }

    #[test]
    fn jdk8_vs_jdk9_delta_lands_on_barrier_sites() {
        let cfg = ExpConfig::quick();
        let base = profile_jdk8_arm(cfg, &SerialExecutor);
        let test = profile_jdk9_arm(cfg, &SerialExecutor);
        let diff = base.merged().diff(&test.merged());
        assert!(diff.abs_delta() > 0.0, "strategies must differ");
        let share = diff.share(|r| !SiteNames::is_code(&r.name));
        assert!(
            share >= 0.90,
            "barrier sites must carry ≥90% of the delta, got {share:.3}"
        );
    }
}
