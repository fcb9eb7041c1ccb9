//! The campaign registry: every paper artefact and every check as one
//! [`Campaign`] entry, run and gated by the `wmm` driver ([`crate::cli`]).
//!
//! An entry's run function does the science: it prints the tables, writes
//! the CSVs and returns the run manifest. It returns `Err` when one of the
//! campaign's own checks fails (an oracle disagreement, a cross-check out
//! of tolerance, a shape the paper predicts that did not emerge). Everything
//! around it — the executor, the cache, the counts block, the Chrome trace,
//! the manifest file and the `[wmm-harness]` summary — happens once, in
//! [`run`]. [`gate`] then compares `results/runs/<name>.json` with the
//! committed `results/baselines/<name>.json`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use wmm_harness::{
    compare, merge_chronological, write_chrome_trace, GateConfig, ParallelExecutor, RunManifest,
    SimCache, TraceEvent,
};
use wmm_obs::MetricsRegistry;
use wmmbench::report::Table;

use crate::{results_dir, runs_dir, ExpConfig};

mod axiom_diff;
mod fence_lint;
mod fence_synth;
mod fence_synth_wps;
mod observe;
mod paper;

/// A campaign's run function.
pub type RunFn = fn(&Ctx) -> Result<RunManifest, String>;

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Registry key; also the name of the manifest the campaign writes.
    pub name: &'static str,
    /// Runs the campaign.
    pub run: RunFn,
    /// The campaign reads freshly simulated statistics, so it always runs
    /// on an in-memory cache, whatever `--cache` says.
    pub fresh: bool,
    /// Campaign-specific output flags the entry accepts.
    pub flags: &'static [&'static str],
}

impl Campaign {
    const fn new(name: &'static str, run: RunFn) -> Self {
        Campaign {
            name,
            run,
            fresh: false,
            flags: &[],
        }
    }

    const fn fresh(self) -> Self {
        Campaign {
            fresh: true,
            ..self
        }
    }

    const fn flags(self, flags: &'static [&'static str]) -> Self {
        Campaign { flags, ..self }
    }
}

const PROFILE_FLAGS: &[&str] = &["--flame", "--md", "--prom"];

/// Every campaign, in the order `--all` runs them.
pub const REGISTRY: &[Campaign] = &[
    Campaign::new("fig1_fit", paper::fig1_fit),
    Campaign::new("fig4_costfn", paper::fig4_costfn),
    Campaign::new("fig5_openjdk_sweep", paper::fig5_openjdk_sweep),
    Campaign::new("fig6_spark_barriers", paper::fig6_spark_barriers),
    Campaign::new("fig7_macro_ranking", paper::fig7_macro_ranking),
    Campaign::new("fig9_rbd_sensitivity", paper::fig9_rbd_sensitivity),
    Campaign::new("fig10_rbd_strategies", paper::fig10_rbd_strategies),
    Campaign::new("table_jvm_strategies", paper::table_jvm_strategies),
    Campaign::new("table_kernel_nop", paper::table_kernel_nop),
    Campaign::new("table_rbd_costs", paper::table_rbd_costs),
    Campaign::new("table_sc_strategy", paper::table_sc_strategy),
    Campaign::new("litmus_matrix", paper::litmus_matrix),
    Campaign::new("ext_jit_optsites", paper::ext_jit_optsites),
    Campaign::new("turnkey_netperf_udp", paper::turnkey_netperf_udp),
    Campaign::new("fig_dstruct", paper::fig_dstruct),
    Campaign::new("fence_attribution", observe::fence_attribution).fresh(),
    Campaign::new("fence_lint", fence_lint::fence_lint),
    Campaign::new("fence_synth", fence_synth::fence_synth),
    Campaign::new("fence_synth_wps", fence_synth_wps::fence_synth_wps),
    Campaign::new("axiom_diff", axiom_diff::axiom_diff),
    Campaign::new("wmm_profile-fig5-arm", observe::wmm_profile)
        .fresh()
        .flags(PROFILE_FLAGS),
    Campaign::new("wmm_profile-fig9-kernel", observe::wmm_profile)
        .fresh()
        .flags(PROFILE_FLAGS),
    Campaign::new("wmm_profile-jdk8-arm", observe::wmm_profile)
        .fresh()
        .flags(PROFILE_FLAGS),
    Campaign::new("wmm_profile-jdk9-arm", observe::wmm_profile)
        .fresh()
        .flags(PROFILE_FLAGS),
    Campaign::new("wmm_profile-dstruct-hp-dmb", observe::wmm_profile)
        .fresh()
        .flags(PROFILE_FLAGS),
    Campaign::new("wmm_tracediff", observe::wmm_tracediff)
        .fresh()
        .flags(&["--base", "--test"]),
    Campaign::new("wmm_tracediff-dstruct", observe::wmm_tracediff_dstruct).fresh(),
];

/// The registry entry named `name`.
pub fn find(name: &str) -> Option<&'static Campaign> {
    REGISTRY.iter().find(|c| c.name == name)
}

/// The `results/baselines/` directory holding the committed manifests.
pub fn baselines_dir() -> PathBuf {
    results_dir().join("baselines")
}

/// Output paths of the campaign-specific flags (see [`Campaign`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// `--flame`: collapsed-stack export of a per-site profile.
    pub flame: Option<PathBuf>,
    /// `--md`: a profile's markdown run report.
    pub md: Option<PathBuf>,
    /// `--prom`: a profile's metrics in the Prometheus text exposition.
    pub prom: Option<PathBuf>,
    /// `--base`: base manifest of a per-site diff.
    pub base: Option<PathBuf>,
    /// `--test`: test manifest of a per-site diff.
    pub test: Option<PathBuf>,
}

/// The shared flags of `wmm run`, parsed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Settings {
    /// `--quick`: the reduced smoke protocol the baselines are recorded at.
    pub quick: bool,
    /// `--scale`: image-scale override.
    pub scale: Option<f64>,
    /// `--threads`: worker count (else `WMM_THREADS`, else the host's).
    pub threads: Option<usize>,
    /// `--cache`: persist simulation results under `results/cache/`.
    pub cache: bool,
    /// `--progress`: per-batch ETA lines on stderr.
    pub progress: bool,
    /// `--trace`: Chrome-trace output path.
    pub trace: Option<PathBuf>,
    /// Campaign-specific output paths.
    pub out: Outputs,
}

impl Settings {
    /// The experiment protocol these flags select.
    pub fn config(&self) -> ExpConfig {
        let mut cfg = if self.quick {
            ExpConfig::quick()
        } else {
            ExpConfig::full()
        };
        if let Some(scale) = self.scale {
            cfg.scale = scale;
        }
        cfg
    }
}

/// What a run function sees.
pub struct Ctx {
    /// Registry name of the running campaign.
    pub name: &'static str,
    /// Whether `--quick` was given.
    pub quick: bool,
    /// Image scale and sampling protocol.
    pub cfg: ExpConfig,
    /// The executor every simulation goes through.
    pub exec: ParallelExecutor,
    /// The metrics registry attached to `exec`.
    pub registry: MetricsRegistry,
    /// Campaign-specific output paths.
    pub out: Outputs,
    /// Trace events beyond the executor's own (`None` unless `--trace`).
    trace: Option<Mutex<Vec<TraceEvent>>>,
}

impl Ctx {
    fn new(campaign: &Campaign, s: &Settings) -> Ctx {
        let cache = if s.cache && !campaign.fresh {
            let path = results_dir().join("cache").join("sim.cache");
            SimCache::with_disk(&path).unwrap_or_else(|e| {
                eprintln!("warning: disk cache unavailable ({e}); using in-memory cache");
                SimCache::in_memory()
            })
        } else {
            SimCache::in_memory()
        };
        let registry = MetricsRegistry::new();
        let exec = ParallelExecutor::new(s.threads)
            .with_cache(cache)
            .with_progress(s.progress)
            .with_trace(s.trace.is_some())
            .with_metrics(&registry);
        Ctx {
            name: campaign.name,
            quick: s.quick,
            cfg: s.config(),
            exec,
            registry,
            out: s.out.clone(),
            trace: s.trace.as_ref().map(|_| Mutex::new(Vec::new())),
        }
    }

    /// Whether `--trace` asked for a Chrome trace.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Add events to the Chrome trace (a no-op without `--trace`).
    pub fn add_trace(&self, events: &[TraceEvent]) {
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .expect("trace poisoned")
                .extend_from_slice(events);
        }
    }

    /// Write `table` as `results/<file>` and say so.
    pub fn write_csv(&self, table: &Table, file: &str) -> Result<(), String> {
        let path = results_dir().join(file);
        table
            .write_csv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    }

    /// Write `text` to `path` and say so.
    pub fn write_file(&self, path: &Path, text: &str) -> Result<(), String> {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    }
}

/// The first 40 `errors`, then how many more there were.
fn shown(errors: &[String]) -> Vec<String> {
    const SHOWN: usize = 40;
    let mut lines: Vec<String> = errors.iter().take(SHOWN).cloned().collect();
    if errors.len() > SHOWN {
        lines.push(format!("... and {} more", errors.len() - SHOWN));
    }
    lines
}

/// `Err` listing the first `errors`, or `Ok` after printing `<name>: OK`.
pub fn check(name: &str, errors: &[String]) -> Result<(), String> {
    if errors.is_empty() {
        println!("{name}: OK");
        return Ok(());
    }
    Err(shown(errors).join("\n"))
}

/// Run one campaign and write its manifest (with the registry snapshot as
/// its counts block, marked when the disk cache was open), trace and
/// summary.
pub fn run(campaign: &Campaign, s: &Settings) -> Result<(), String> {
    // A failed run must not leave an earlier manifest for the gate to pass.
    let stale = runs_dir().join(format!("{}.json", campaign.name));
    match std::fs::remove_file(&stale) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", stale.display()));
        }
        _ => {}
    }
    let ctx = Ctx::new(campaign, s);
    let mut manifest = (campaign.run)(&ctx)?;
    if manifest.campaign != campaign.name {
        return Err(format!(
            "wrote manifest `{}`, expected `{}`",
            manifest.campaign, campaign.name
        ));
    }
    manifest.metrics = Some(ctx.registry.snapshot());
    manifest.disk_cache = ctx.exec.disk_cache();
    let path = manifest
        .write(runs_dir())
        .map_err(|e| format!("write manifest: {e}"))?;
    println!("wrote {}", path.display());
    if let (Some(path), Some(extra)) = (&s.trace, ctx.trace) {
        let extra = extra.into_inner().expect("trace poisoned");
        let events = merge_chronological(&[&extra, &ctx.exec.trace_events()]);
        write_chrome_trace(path, &events).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} ({} trace events)", path.display(), events.len());
    }
    println!("[wmm-harness] {}", ctx.exec.summary());
    Ok(())
}

/// Gate one campaign's latest run against its committed baseline: cells
/// and fits within tolerance, counts and sites exactly. `Ok` carries the
/// line saying what was compared.
pub fn gate(campaign: &Campaign) -> Result<String, String> {
    let file = format!("{}.json", campaign.name);
    let baseline = RunManifest::load(baselines_dir().join(&file))?;
    let current = RunManifest::load(runs_dir().join(&file))?;
    let report = compare(&baseline, &current, GateConfig::default());
    if report.pass() {
        return Ok(report.summary());
    }
    let mut msg = format!(
        "{} failure(s) over {}:",
        report.failures.len(),
        report.summary()
    );
    for failure in shown(&report.failures) {
        msg.push_str(&format!("\n  - {failure}"));
    }
    for line in report.diff_table().lines() {
        msg.push_str(&format!("\n  {line}"));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate registry name");
    }

    #[test]
    fn every_baseline_names_an_entry_and_every_entry_has_one() {
        let mut stems = BTreeSet::new();
        for entry in std::fs::read_dir(baselines_dir()).expect("read baselines") {
            let path = entry.expect("baseline entry").path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 stem")
                .to_string();
            assert!(
                find(&stem).is_some(),
                "orphaned baseline {} names no registry entry",
                path.display()
            );
            let manifest = RunManifest::load(&path).expect("baseline loads");
            assert_eq!(
                manifest.campaign,
                stem,
                "{} holds another campaign's manifest",
                path.display()
            );
            stems.insert(stem);
        }
        for c in REGISTRY {
            assert!(
                stems.contains(c.name),
                "campaign `{}` has no baseline",
                c.name
            );
        }
    }
}
