//! Persistent run artifacts.
//!
//! Every campaign writes a schema-versioned JSON manifest under
//! `results/runs/`: the per-cell measurements and fitted sensitivities that
//! define the experiment's outcome, one counts block (`metrics`, the
//! campaign's metrics-registry snapshot) describing how it ran and what the
//! simulator observed while doing so, and, for campaigns that ran sited,
//! per-site stall records (`sites`).
//!
//! The sections have different determinism contracts, and the regression
//! gate compares each by its own:
//!
//! * The *result* section (cells + fits) is a pure function of the
//!   experiment inputs — [`RunManifest::canonical_json`] — byte-identical
//!   across worker counts, cache states and machines. The gate compares it
//!   within tolerance.
//! * The structural entries of `metrics` (executor counts, the `sim.*`
//!   [`SimTotals`] fold, cache gauges) and `sites` are deterministic
//!   *given the cache state*: the simulator totals cover exactly the freshly
//!   simulated jobs, merged in job order, so two runs with the same cache
//!   contents produce identical values regardless of worker count
//!   ([`RunManifest::deterministic_json`] includes them). The gate compares
//!   them exactly. A run whose executor opened the disk cache records that
//!   fact (`disk_cache`), and the gate skips its counts: what it simulated
//!   depends on what the file already held. Sited jobs always simulate, so
//!   `sites` is compared either way.
//! * The observational entries of `metrics` (wall clocks, worker count,
//!   per-worker tracks) are excluded from every determinism comparison and
//!   from the gate.

use std::path::{Path, PathBuf};

use wmm_obs::{Class, MetricsRegistry, MetricsSnapshot};
use wmm_sim::isa::FenceKind;
use wmm_sim::stats::{Counters, ExecStats};
use wmmbench::json::{Json, ToJson};
use wmmbench::model::SensitivityFit;

/// Manifest schema version; bump on any breaking layout change.
///
/// v2: `telemetry` split into deterministic counters (`sim`, aggregated
/// `ExecStats`) and observational `timing`.
///
/// v3: `telemetry` gains an optional `sites` array — per-site stall
/// profiles keyed by stable site name, produced by campaigns that run
/// sited (`wmm_profile`, `wmm_tracediff`). Absent for ordinary campaigns.
///
/// v4: optional top-level `metrics` block — a full
/// [`MetricsSnapshot`] for campaigns run with a metrics registry
/// attached. The file carries every metric; the deterministic projection
/// carries only the structural subset; the canonical (gated) content is
/// unchanged.
///
/// v5: `metrics` is the one counts block, written for every campaign; the
/// `telemetry` block is gone. Its counters and simulator totals are
/// structural `harness.exec.*` and `sim.*` entries, its timings
/// observational ones, and `sites` moved to the top level.
pub const SCHEMA_VERSION: u64 = 5;

/// One scalar measurement cell (e.g. a sweep point's relative performance,
/// a ranking-matrix entry), identified by a stable label.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Stable identifier, e.g. `"spark/volatile-read/a=16"`.
    pub label: String,
    /// The measured value.
    pub value: f64,
}

/// One fitted sensitivity, identified by a stable label.
#[derive(Debug, Clone, PartialEq)]
pub struct FitRecord {
    /// Stable identifier, e.g. `"spark/volatile-read"`.
    pub label: String,
    /// Fitted sensitivity `k` (Eq. 1).
    pub k: f64,
    /// Standard error of `k`.
    pub k_std_err: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Campaign-level aggregate of the simulator's own ground truth: every
/// freshly simulated job's [`ExecStats`], merged in job order.
///
/// Cache hits contribute nothing (the cache stores only wall times), so
/// `jobs_observed` says how many jobs these totals cover. Cycle sums are
/// `f64` and merged in a fixed order, so totals are bit-identical across
/// worker counts for a given cache state.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimTotals {
    /// Simulated jobs contributing to the totals.
    pub jobs_observed: u64,
    /// Event counters summed over those jobs (fence counts and stall
    /// cycles by kind, memory-hierarchy outcomes, cost-loop invocations…).
    pub counters: Counters,
    /// Store-buffer capacity stalls summed over those jobs.
    pub sb_stalls: u64,
    /// Cycles lost to store-buffer capacity stalls.
    pub sb_stall_cycles: f64,
}

impl SimTotals {
    /// Fold one freshly simulated job's statistics into the totals.
    pub fn merge_stats(&mut self, stats: &ExecStats) {
        self.jobs_observed += 1;
        self.counters.merge(&stats.counters);
        self.sb_stalls += stats.sb_stalls;
        self.sb_stall_cycles += stats.sb_stall_cycles;
    }

    /// Total fence executions across all kinds.
    pub fn total_fences(&self) -> u64 {
        FenceKind::ALL
            .iter()
            .map(|&k| self.counters.fence_counts.get(&k).copied().unwrap_or(0))
            .sum()
    }

    /// Total cycles stalled in fences across all kinds, summed in the
    /// stable [`FenceKind::ALL`] order.
    pub fn total_fence_stall_cycles(&self) -> f64 {
        FenceKind::ALL
            .iter()
            .map(|&k| self.counters.fence_cycles.get(&k).copied().unwrap_or(0.0))
            .sum()
    }

    /// Publish the totals into `registry` as structural `sim.*` gauges: one
    /// per counter, plus `sim.fence.<kind>.count` and `.stall_cycles` for
    /// every fence kind that ran. Call it on one thread after an in-order
    /// fold, so the gauges only ever hold deterministic values.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let set = |name: &str, v: f64| registry.gauge(name, Class::Structural).set(v);
        let c = &self.counters;
        for (name, v) in [
            ("sim.jobs_observed", self.jobs_observed),
            ("sim.loads", c.loads),
            ("sim.stores", c.stores),
            ("sim.atomics", c.atomics),
            ("sim.cas_retries", c.cas_retries),
            ("sim.acquires", c.acquires),
            ("sim.releases", c.releases),
            ("sim.mispredicts", c.mispredicts),
            ("sim.l1_hits", c.l1_hits),
            ("sim.llc_hits", c.llc_hits),
            ("sim.dram_accesses", c.dram_accesses),
            ("sim.coherence_transfers", c.coherence_transfers),
            ("sim.cost_loop_invocations", c.cost_loop_invocations),
            ("sim.cost_loop_iters", c.cost_loop_iters),
            ("sim.sb_stalls", self.sb_stalls),
        ] {
            set(name, v as f64);
        }
        set("sim.sb_stall_cycles", self.sb_stall_cycles);
        for kind in FenceKind::ALL {
            let count = c.fence_counts.get(&kind).copied().unwrap_or(0);
            let cycles = c.fence_cycles.get(&kind).copied().unwrap_or(0.0);
            if count == 0 && cycles == 0.0 {
                continue;
            }
            let slug = kind.mnemonic().trim_end_matches("()").replace(' ', "_");
            set(&format!("sim.fence.{slug}.count"), count as f64);
            set(&format!("sim.fence.{slug}.stall_cycles"), cycles);
        }
    }

    /// Observed mean stall cycles per executed fence of `kind`, if any.
    pub fn mean_fence_cycles(&self, kind: FenceKind) -> Option<f64> {
        let n = *self.counters.fence_counts.get(&kind).unwrap_or(&0);
        if n == 0 {
            None
        } else {
            Some(self.counters.fence_cycles.get(&kind).unwrap_or(&0.0) / n as f64)
        }
    }
}

/// One site's stall profile, aggregated over every sited sample of a
/// campaign and keyed by the stable site name the image's `SiteNames`
/// assign (`t{thread}:{path}#{occ}`, or `t{thread}:code` for pooled
/// literal code).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRecord {
    /// Stable site name.
    pub name: String,
    /// Fence kind executed at the site, if any.
    pub fence: Option<FenceKind>,
    /// Fence executions summed over samples.
    pub fences: u64,
    /// Cycles stalled in fences, summed over samples.
    pub fence_cycles: f64,
    /// Store-buffer capacity-stall cycles, summed over samples.
    pub sb_stall_cycles: f64,
    /// Exposed memory-access cycles, summed over samples.
    pub mem_cycles: f64,
    /// Total cycles the site advanced its core's clock by, summed over
    /// samples.
    pub total_cycles: f64,
}

impl SiteRecord {
    /// Cycles not attributed to fence, store-buffer or memory stalls.
    pub fn compute_cycles(&self) -> f64 {
        (self.total_cycles - self.fence_cycles - self.sb_stall_cycles - self.mem_cycles).max(0.0)
    }
}

impl ToJson for SiteRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("name", self.name.to_json())];
        if let Some(k) = self.fence {
            pairs.push(("fence", k.mnemonic().to_json()));
        }
        pairs.push(("fences", self.fences.to_json()));
        pairs.push(("fence_cycles", Json::Num(self.fence_cycles)));
        pairs.push(("sb_stall_cycles", Json::Num(self.sb_stall_cycles)));
        pairs.push(("mem_cycles", Json::Num(self.mem_cycles)));
        pairs.push(("total_cycles", Json::Num(self.total_cycles)));
        Json::obj(pairs)
    }
}

/// Observational run timings: they vary between runs of the same campaign.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Timing {
    /// Worker threads used.
    pub threads: usize,
    /// Sum of per-job simulation wall time, ms.
    pub sim_ms: f64,
    /// Wall time spent inside `run_batch`, ms.
    pub wall_ms: f64,
    /// Wall time of the slowest single batch, ms.
    pub max_batch_ms: f64,
    /// Jobs in the largest batch submitted (queue-depth proxy).
    pub max_batch_jobs: u64,
}

impl Timing {
    /// Publish the timings into `registry` as observational
    /// `harness.exec.*` gauges.
    pub fn publish(&self, registry: &MetricsRegistry) {
        for (name, v) in [
            ("harness.exec.threads", self.threads as f64),
            ("harness.exec.sim_ms", self.sim_ms),
            ("harness.exec.wall_ms", self.wall_ms),
            ("harness.exec.max_batch_ms", self.max_batch_ms),
            ("harness.exec.max_batch_jobs", self.max_batch_jobs as f64),
        ] {
            registry.gauge(name, Class::Observational).set(v);
        }
    }
}

/// An executor's in-process snapshot of how a campaign ran: its counts,
/// the aggregated simulator statistics and run timings. A manifest carries
/// the same numbers as entries of its `metrics` block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Batches submitted.
    pub batches: u64,
    /// Total jobs (including cache hits).
    pub jobs: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs actually simulated, sited ones included:
    /// `cache_hits + cache_misses == jobs`.
    pub cache_misses: u64,
    /// Aggregated simulator ground truth over the simulated jobs.
    pub sim: SimTotals,
    /// Observational timings.
    pub timing: Timing,
}

impl Telemetry {
    /// Fraction of jobs answered from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

/// The per-campaign run artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Campaign name; also the manifest's file stem under `results/runs/`.
    pub campaign: String,
    /// Architecture label(s) the campaign ran on.
    pub arch: String,
    /// Per-cell measurements.
    pub cells: Vec<CellRecord>,
    /// Fitted sensitivities.
    pub fits: Vec<FitRecord>,
    /// Per-site stall profiles, for campaigns that ran sited. Sorted by
    /// site name; deterministic (sited jobs always simulate, so the fold
    /// covers the same samples regardless of cache state). Not part of the
    /// canonical content.
    pub sites: Option<Vec<SiteRecord>>,
    /// The counts block: the campaign's metrics snapshot (not part of the
    /// canonical content; the deterministic projection keeps only the
    /// structural entries).
    pub metrics: Option<MetricsSnapshot>,
    /// Whether the run's executor opened the disk cache, so its counts
    /// depend on what the cache file held. Written only when set, so every
    /// cold manifest's text is unchanged.
    pub disk_cache: bool,
}

impl RunManifest {
    /// An empty manifest for `campaign` on `arch`.
    pub fn new(campaign: impl Into<String>, arch: impl Into<String>) -> Self {
        RunManifest {
            campaign: campaign.into(),
            arch: arch.into(),
            ..RunManifest::default()
        }
    }

    /// Record one measurement cell.
    pub fn push_cell(&mut self, label: impl Into<String>, value: f64) {
        self.cells.push(CellRecord {
            label: label.into(),
            value,
        });
    }

    /// Record one fitted sensitivity.
    pub fn push_fit(&mut self, label: impl Into<String>, fit: &SensitivityFit) {
        self.fits.push(FitRecord {
            label: label.into(),
            k: fit.k,
            k_std_err: fit.k_std_err,
            r_squared: fit.r_squared,
        });
    }

    /// The canonical result content: cells and fits only. Byte-identical
    /// across worker counts and cache states.
    pub fn canonical_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("campaign", self.campaign.to_json()),
            ("arch", self.arch.to_json()),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("label", c.label.to_json()),
                                ("value", Json::Num(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fits",
                Json::Arr(
                    self.fits
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("label", f.label.to_json()),
                                ("k", Json::Num(f.k)),
                                ("k_std_err", Json::Num(f.k_std_err)),
                                ("r_squared", Json::Num(f.r_squared)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The deterministic content: canonical result plus the structural
    /// metrics and the per-site records. For a given cache state this is
    /// byte-identical across worker counts — the contract the
    /// threads-1-vs-N tests assert.
    pub fn deterministic_json(&self) -> Json {
        self.with_counts(
            self.metrics
                .as_ref()
                .map(MetricsSnapshot::structural)
                .as_ref(),
        )
    }

    /// Serialise to the written manifest file's text (canonical content
    /// plus the full metrics snapshot and the per-site records).
    pub fn to_file_text(&self) -> String {
        let mut text = self.with_counts(self.metrics.as_ref()).to_string_pretty();
        text.push('\n');
        text
    }

    /// The canonical content followed by `disk_cache`, `metrics` and
    /// `sites`, when set.
    fn with_counts(&self, metrics: Option<&MetricsSnapshot>) -> Json {
        let mut json = self.canonical_json();
        if let Json::Obj(pairs) = &mut json {
            if self.disk_cache {
                pairs.push(("disk_cache".to_string(), Json::Bool(true)));
            }
            if let Some(m) = metrics {
                pairs.push(("metrics".to_string(), m.to_json()));
            }
            if let Some(sites) = &self.sites {
                pairs.push((
                    "sites".to_string(),
                    Json::Arr(sites.iter().map(ToJson::to_json).collect()),
                ));
            }
        }
        json
    }

    /// Write the manifest to `dir/<campaign>.json`, creating `dir` as
    /// needed, and return the path.
    pub fn write(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.campaign));
        std::fs::write(&path, self.to_file_text())?;
        Ok(path)
    }

    /// Parse a manifest from JSON. Rejects unknown schema versions so the
    /// gate never silently compares incompatible layouts.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "manifest schema version {version} (this build understands {SCHEMA_VERSION})"
            ));
        }
        let field = |k: &str| {
            json.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing {k}"))
        };
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric {k}"))
        };
        let label = |j: &Json| {
            j.get("label")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("missing label")
        };
        let mut cells = vec![];
        for c in json
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells")?
        {
            cells.push(CellRecord {
                label: label(c)?,
                value: num(c, "value")?,
            });
        }
        let mut fits = vec![];
        for f in json
            .get("fits")
            .and_then(Json::as_arr)
            .ok_or("missing fits")?
        {
            fits.push(FitRecord {
                label: label(f)?,
                k: num(f, "k")?,
                k_std_err: num(f, "k_std_err")?,
                r_squared: num(f, "r_squared")?,
            });
        }
        let sites = match json.get("sites") {
            None => None,
            Some(s) => Some(
                s.as_arr()
                    .ok_or("sites is not an array")?
                    .iter()
                    .map(site_from_json)
                    .collect::<Result<_, _>>()?,
            ),
        };
        let metrics = match json.get("metrics") {
            None => None,
            Some(m) => Some(MetricsSnapshot::from_json(m)?),
        };
        let disk_cache = match json.get("disk_cache") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("disk_cache is not a boolean".into()),
        };
        Ok(RunManifest {
            campaign: field("campaign")?.to_string(),
            arch: field("arch")?.to_string(),
            cells,
            fits,
            sites,
            metrics,
            disk_cache,
        })
    }

    /// Load a manifest file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn site_from_json(entry: &Json) -> Result<SiteRecord, String> {
    let name = entry
        .get("name")
        .and_then(Json::as_str)
        .ok_or("site record missing name")?;
    let f = |k: &str| {
        entry
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("site `{name}`: missing numeric {k}"))
    };
    let fence = match entry.get("fence").and_then(Json::as_str) {
        None => None,
        Some(m) => Some(FenceKind::from_mnemonic(m).ok_or("unknown fence kind in site record")?),
    };
    Ok(SiteRecord {
        name: name.to_string(),
        fence,
        fences: f("fences")? as u64,
        fence_cycles: f("fence_cycles")?,
        sb_stall_cycles: f("sb_stall_cycles")?,
        mem_cycles: f("mem_cycles")?,
        total_cycles: f("total_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("fig5_test", "arm");
        m.push_cell("spark/a=1", 0.996);
        m.push_cell("spark/a=2", 0.985);
        m.push_fit(
            "spark",
            &SensitivityFit {
                k: 0.00885,
                k_std_err: 0.0004,
                r_squared: 0.997,
            },
        );
        m
    }

    fn sample_totals() -> SimTotals {
        let mut totals = SimTotals::default();
        let mut counters = Counters {
            loads: 120,
            stores: 60,
            ..Default::default()
        };
        counters.record_fence(FenceKind::DmbIsh);
        counters.record_fence(FenceKind::DmbIsh);
        counters.record_fence(FenceKind::DmbIshSt);
        counters.record_fence_cycles(FenceKind::DmbIsh, 21.5);
        counters.record_fence_cycles(FenceKind::DmbIshSt, 5.25);
        totals.merge_stats(&ExecStats {
            wall_ns: 100.0,
            core_cycles: vec![240.0],
            counters,
            sb_stall_cycles: 3.5,
            sb_stalls: 2,
            per_site: None,
        });
        totals
    }

    /// A counts block as the executor publishes it: the simulator totals
    /// plus the given timings.
    fn counts(totals: &SimTotals, timing: &Timing) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("harness.exec.jobs", Class::Structural)
            .add(totals.jobs_observed);
        totals.publish(&reg);
        timing.publish(&reg);
        reg.snapshot()
    }

    #[test]
    fn canonical_excludes_telemetry_and_deterministic_excludes_timing() {
        let timing = |threads: usize, wall_ms: f64| Timing {
            threads,
            wall_ms,
            ..Timing::default()
        };
        let mut a = sample();
        let mut b = sample();
        a.metrics = Some(counts(&sample_totals(), &timing(1, 123.0)));
        b.metrics = Some(counts(&sample_totals(), &timing(8, 1.0)));
        assert_eq!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string()
        );
        // Same counts, different timing: deterministic text agrees, full
        // file text does not.
        assert_eq!(
            a.deterministic_json().to_string(),
            b.deterministic_json().to_string()
        );
        assert_ne!(a.to_file_text(), b.to_file_text());
        // Different counts: the deterministic text must expose it.
        let mut c = sample();
        let mut sim = sample_totals();
        sim.counters.loads += 1;
        c.metrics = Some(counts(&sim, &timing(1, 123.0)));
        assert_ne!(
            a.deterministic_json().to_string(),
            c.deterministic_json().to_string()
        );
    }

    #[test]
    fn file_roundtrip_is_lossless() {
        let dir = std::env::temp_dir().join("wmm-harness-artifact-test");
        let mut m = sample();
        let timing = Timing {
            threads: 4,
            sim_ms: 10.5,
            wall_ms: 3.25,
            max_batch_ms: 2.125,
            max_batch_jobs: 24,
        };
        let snap = counts(&sample_totals(), &timing);
        assert_eq!(snap.gauge("sim.loads"), Some(120.0));
        assert_eq!(snap.gauge("sim.fence.dmb_ish.count"), Some(2.0));
        assert_eq!(snap.gauge("sim.fence.dmb_ishst.stall_cycles"), Some(5.25));
        assert!(
            snap.get("sim.fence.isb.count").is_none(),
            "kinds that ran only"
        );
        assert_eq!(snap.gauge("harness.exec.max_batch_ms"), Some(2.125));
        m.metrics = Some(snap);
        let path = m.write(&dir).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_totals_aggregate_and_expose_means() {
        let totals = sample_totals();
        assert_eq!(totals.jobs_observed, 1);
        assert_eq!(totals.counters.loads, 120);
        assert_eq!(totals.sb_stalls, 2);
        assert_eq!(
            totals.mean_fence_cycles(FenceKind::DmbIsh),
            Some(21.5 / 2.0)
        );
        assert_eq!(totals.mean_fence_cycles(FenceKind::Isb), None);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let json = Json::parse(
            r#"{"schema_version":99,"campaign":"x","arch":"arm","cells":[],"fits":[]}"#,
        )
        .unwrap();
        assert!(RunManifest::from_json(&json).unwrap_err().contains("99"));
        // v1 (pre-telemetry), v2 (pre-sites), v3 (pre-metrics) and v4
        // (separate telemetry block) manifests are also rejected: the
        // baselines were refreshed when the schema was bumped.
        for version in [1, 2, 3, 4] {
            let json = Json::parse(&format!(
                r#"{{"schema_version":{version},"campaign":"x","arch":"arm","cells":[],"fits":[]}}"#
            ))
            .unwrap();
            assert!(RunManifest::from_json(&json).is_err(), "v{version}");
        }
    }

    #[test]
    fn metrics_block_roundtrips_and_deterministic_keeps_structural_only() {
        let dir = std::env::temp_dir().join("wmm-harness-artifact-metrics-test");
        let reg = MetricsRegistry::new();
        reg.counter("harness.exec.jobs", Class::Structural).add(40);
        reg.counter("harness.worker.0.jobs", Class::Observational)
            .add(40);
        reg.histogram("wps.gap", Class::Structural, &[1.0, 2.0])
            .observe(1.5);
        let mut m = sample();
        m.campaign = "metrics_test".to_string();
        m.metrics = Some(reg.snapshot());
        let path = m.write(&dir).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back, m);
        // Full file carries both classes; the deterministic projection
        // keeps only the structural subset; the gated canonical content
        // ignores metrics entirely.
        assert!(m.to_file_text().contains("harness.worker.0.jobs"));
        let det = m.deterministic_json().to_string();
        assert!(det.contains("harness.exec.jobs"));
        assert!(!det.contains("harness.worker.0.jobs"));
        assert!(m.canonical_json().get("metrics").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn site_records_roundtrip_and_expose_compute_cycles() {
        let dir = std::env::temp_dir().join("wmm-harness-artifact-sites-test");
        let mut m = sample();
        m.campaign = "sited_test".to_string();
        let sites = vec![
            SiteRecord {
                name: "t0:VolatileStore#0".to_string(),
                fence: Some(FenceKind::DmbIsh),
                fences: 12,
                fence_cycles: 226.8,
                sb_stall_cycles: 4.5,
                mem_cycles: 30.25,
                total_cycles: 300.0,
            },
            SiteRecord {
                name: "t0:code".to_string(),
                fence: None,
                fences: 0,
                fence_cycles: 0.0,
                sb_stall_cycles: 0.0,
                mem_cycles: 96.0,
                total_cycles: 1024.0,
            },
        ];
        assert_eq!(sites[0].compute_cycles(), 300.0 - 226.8 - 4.5 - 30.25);
        m.sites = Some(sites);
        let path = m.write(&dir).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back, m);
        // Sites are deterministic content: present in the deterministic
        // projection, so the threads-1-vs-N comparisons cover them.
        assert!(m.deterministic_json().to_string().contains("VolatileStore"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn site_record_missing_a_count_is_an_error() {
        let full = r#"{"name":"t0:code","fences":1,"fence_cycles":2,"sb_stall_cycles":3,"mem_cycles":4,"total_cycles":10}"#;
        assert!(site_from_json(&Json::parse(full).unwrap()).is_ok());
        for field in [
            "fences",
            "fence_cycles",
            "sb_stall_cycles",
            "mem_cycles",
            "total_cycles",
        ] {
            // Missing, and present but not a number: both name the field
            // instead of reading it as zero.
            let missing = full.replace(&format!(r#""{field}":"#), r#""other":"#);
            let text = full.replace(
                &format!(r#""{field}":"#),
                &format!(r#""{field}":"x","was":"#),
            );
            for bad in [missing, text] {
                let err = site_from_json(&Json::parse(&bad).unwrap()).unwrap_err();
                assert!(err.contains(field) && err.contains("t0:code"), "{err}");
            }
        }
    }

    #[test]
    fn disk_cache_is_written_only_when_set_and_roundtrips() {
        let mut m = sample();
        assert!(!m.to_file_text().contains("disk_cache"));
        m.disk_cache = true;
        // Recorded beside the counts: canonical content ignores cache state.
        assert!(m.canonical_json().get("disk_cache").is_none());
        let text = m.to_file_text();
        let parse = |text: &str| RunManifest::from_json(&Json::parse(text).unwrap());
        assert_eq!(parse(&text).unwrap(), m);
        let bad = text.replace(r#""disk_cache": true"#, r#""disk_cache": 1"#);
        assert!(parse(&bad).unwrap_err().contains("disk_cache"));
    }

    /// Every prefix and every single-byte flip of committed baselines — one
    /// with a metrics block, one with per-site records — parses to `Ok` or
    /// `Err` and never panics, through `Json::parse`,
    /// `RunManifest::from_json` and the gate's comparison. The probe is
    /// quadratic in the text's length, so the sited baseline is cut to its
    /// cells and first site records.
    #[test]
    fn truncated_or_bit_flipped_baselines_never_panic() {
        let load = |text: &str| RunManifest::from_json(&Json::parse(text).unwrap()).unwrap();
        let mut sited = load(include_str!(
            "../../../results/baselines/wmm_profile-dstruct-hp-dmb.json"
        ));
        sited.sites.as_mut().expect("sited baseline").truncate(3);
        sited.metrics = None;
        for text in [
            include_str!("../../../results/baselines/fig4_costfn.json").to_string(),
            sited.to_file_text(),
        ] {
            let baseline = load(&text);
            let probe = |bytes: &[u8]| {
                if let Ok(json) = Json::parse(&String::from_utf8_lossy(bytes)) {
                    if let Ok(current) = RunManifest::from_json(&json) {
                        crate::compare(&baseline, &current, crate::GateConfig::default());
                    }
                }
            };
            let bytes = text.as_bytes();
            for cut in 0..bytes.len() {
                probe(&bytes[..cut]);
            }
            let mut flipped = bytes.to_vec();
            // Low bit: a neighbouring digit or letter; 0x20: a structural
            // character turned control byte (or `{` into `[`); high bit:
            // invalid UTF-8.
            for i in 0..bytes.len() {
                for mask in [0x01, 0x20, 0x80] {
                    flipped[i] ^= mask;
                    probe(&flipped);
                    flipped[i] ^= mask;
                }
            }
        }
    }
}
