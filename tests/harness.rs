//! Integration tests for the wmm-harness execution layer: parallel
//! determinism (the headline contract — worker count never changes a byte
//! of experiment output), result caching, run manifests and the regression
//! gate.

use proptest::prelude::*;

use wmm::wmm_bench::profiling::{batch_with_profile, site_records};
use wmm::wmm_bench::{fig5_openjdk_sweeps_with, ExpConfig};
use wmm::wmm_harness::{
    compare, job_key, ParallelExecutor, RunManifest, SimCache, Telemetry, DISK_HEADER,
};
use wmm::wmm_obs::MetricsRegistry;
use wmm::wmm_sim::arch::{armv8_xgene1, Arch};
use wmm::wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc};
use wmm::wmm_sim::machine::{MachineScratch, Program, WorkloadCtx};
use wmm::wmm_sim::Machine;
use wmm::wmmbench::costfn::Calibration;
use wmm::wmmbench::exec::{CellProgram, Executor, JobOutcome, SerialExecutor, SimCell, SimJob};
use wmm::wmmbench::image::{compute_envelope, Image, Injection, Segment, SiteRewriter};
use wmm::wmmbench::json::ToJson;
use wmm::wmmbench::runner::{BenchSpec, RunConfig};
use wmm::wmmbench::sensitivity::{pow2_targets, sweep_with, SweepResult, SweepTarget};
use wmm::wmmbench::strategy::FnStrategy;

// ---------------------------------------------------------------------------
// A small synthetic campaign to drive the executor end to end
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Site;

struct Synthetic {
    sites: usize,
}

impl BenchSpec<Site> for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }
    fn image(&self, seed: u64) -> Image<Site> {
        let mut segs = vec![];
        for i in 0..self.sites {
            segs.push(Segment::Code(vec![Instr::Compute {
                cycles: 500 + ((seed as u32).wrapping_add(i as u32) % 7) * 10,
            }]));
            segs.push(Segment::Site(Site));
        }
        Image {
            threads: vec![segs],
            ctx: WorkloadCtx::default(),
            work_units: self.sites as f64,
        }
    }
}

/// One synthetic sweep through the given executor.
fn campaign_sweep(exec: &dyn Executor) -> SweepResult {
    let machine = Machine::new(armv8_xgene1());
    let strategy = FnStrategy::new("dmb", |_: &Site| vec![Instr::Fence(FenceKind::DmbIsh)]);
    let cal = Calibration::measure(&machine, false, 10);
    let env = compute_envelope(&[Site], &[&strategy], 3);
    sweep_with(
        &machine,
        &Synthetic { sites: 40 },
        &strategy,
        SweepTarget::AllSites,
        &cal,
        &pow2_targets(0, 8),
        env,
        RunConfig::quick(),
        exec,
    )
}

/// Manifest built from a sweep, as the fig binaries do.
fn campaign_manifest(sweep: &SweepResult) -> RunManifest {
    let mut m = RunManifest::new("harness_test_campaign", sweep.arch.clone());
    if let Some(fit) = &sweep.fit {
        m.push_fit(&sweep.benchmark, fit);
    }
    for p in &sweep.points {
        // Label by requested target — distinct small targets can calibrate
        // to the same actual ns, and the gate rejects duplicate labels.
        m.push_cell(
            format!("{}/t={:.0}", sweep.benchmark, p.target_ns),
            p.rel_perf,
        );
    }
    m
}

// ---------------------------------------------------------------------------
// Determinism: worker count never changes a byte
// ---------------------------------------------------------------------------

#[test]
fn manifests_are_byte_identical_across_thread_counts() {
    let baseline = campaign_manifest(&campaign_sweep(&SerialExecutor));
    let canonical = baseline.canonical_json().to_string_pretty();
    assert!(!baseline.fits.is_empty(), "sweep must produce a fit");
    for threads in [1, 2, 4, 8] {
        let exec = ParallelExecutor::new(Some(threads));
        let manifest = campaign_manifest(&campaign_sweep(&exec));
        assert_eq!(
            manifest.canonical_json().to_string_pretty(),
            canonical,
            "threads = {threads}"
        );
    }
}

#[test]
fn fitted_k_is_bitwise_identical_across_thread_counts() {
    let serial_k = campaign_sweep(&SerialExecutor).fit.expect("fit").k;
    for threads in [1, 4] {
        let exec = ParallelExecutor::new(Some(threads));
        let k = campaign_sweep(&exec).fit.expect("fit").k;
        assert_eq!(k.to_bits(), serial_k.to_bits(), "threads = {threads}");
    }
}

/// One synthetic sweep on a metered executor with `threads` workers: the
/// manifest with its counts block, and the executor's totals.
fn metered_manifest(threads: usize) -> (RunManifest, Telemetry) {
    let registry = MetricsRegistry::new();
    let exec = ParallelExecutor::new(Some(threads))
        .with_cache(SimCache::in_memory())
        .with_metrics(&registry);
    let mut manifest = campaign_manifest(&campaign_sweep(&exec));
    manifest.metrics = Some(registry.snapshot());
    (manifest, exec.telemetry())
}

#[test]
fn telemetry_counters_identical_across_thread_counts() {
    // The determinism contract extends to the counts block: everything
    // under `deterministic_json()` — cells, fits, and the structural
    // metrics, executor counts and `sim.*` simulator totals included — is
    // byte-identical whether the campaign ran on one worker or four. Only
    // observational entries (timings, worker tracks) may differ, and they
    // are excluded from that scope.
    let (one, one_t) = metered_manifest(1);
    let (four, four_t) = metered_manifest(4);
    assert!(one_t.sim.jobs_observed > 0, "campaign must simulate jobs");
    assert!(
        one_t.sim.total_fences() > 0,
        "fenced campaign must run fences"
    );
    assert_eq!(one_t.sim, four_t.sim, "sim totals");
    let structural = |m: &RunManifest| m.metrics.as_ref().unwrap().structural();
    assert!(structural(&one).gauge("sim.jobs_observed").unwrap() > 0.0);
    assert!(structural(&one).gauge("sim.fence.dmb_ish.count").unwrap() > 0.0);
    assert_eq!(
        structural(&one).to_json().to_string_pretty(),
        structural(&four).to_json().to_string_pretty()
    );
    assert_eq!(
        one.deterministic_json().to_string_pretty(),
        four.deterministic_json().to_string_pretty()
    );
    let threads = |m: &RunManifest| m.metrics.as_ref().unwrap().gauge("harness.exec.threads");
    assert_eq!(threads(&one), Some(1.0), "timing records worker count");
    assert_eq!(threads(&four), Some(4.0), "timing records worker count");
}

#[test]
fn metrics_registry_never_changes_results() {
    // Attaching a registry only observes: the same sweep with and without
    // one writes byte-identical canonical content and identical totals,
    // and the structural snapshot does not depend on the worker count.
    let bare = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
    let bare_manifest = campaign_manifest(&campaign_sweep(&bare));
    for threads in [1, 4] {
        let (metered, t) = metered_manifest(threads);
        assert_eq!(
            metered.canonical_json().to_string_pretty(),
            bare_manifest.canonical_json().to_string_pretty()
        );
        assert_eq!(t.sim, bare.telemetry().sim, "threads = {threads}");
        let snap = metered.metrics.as_ref().unwrap();
        assert_eq!(
            snap.counter("harness.exec.jobs"),
            Some(bare.telemetry().jobs),
            "the registry must have observed the metered run"
        );
    }
    assert_eq!(
        metered_manifest(1)
            .0
            .deterministic_json()
            .to_string_pretty(),
        metered_manifest(4)
            .0
            .deterministic_json()
            .to_string_pretty()
    );
}

#[test]
fn nan_fit_fails_the_gate() {
    // A fit gone non-finite must be a hard gate failure: every NaN
    // comparison is false, so `drift > tol` would otherwise silently pass.
    let exec = ParallelExecutor::new(Some(2));
    let baseline = campaign_manifest(&campaign_sweep(&exec));
    let mut poisoned = baseline.clone();
    poisoned.fits[0].k = f64::NAN;
    let report = compare(&baseline, &poisoned);
    assert!(!report.pass(), "NaN fit must fail the gate");
    assert!(
        report.failures.iter().any(|f| f.contains("non-finite")),
        "failure must name the non-finite value: {:?}",
        report.failures
    );
}

#[test]
fn warm_cache_changes_nothing() {
    let exec = ParallelExecutor::new(Some(4)).with_cache(SimCache::in_memory());
    let cold = campaign_manifest(&campaign_sweep(&exec));
    let warm = campaign_manifest(&campaign_sweep(&exec));
    assert_eq!(
        cold.canonical_json().to_string_pretty(),
        warm.canonical_json().to_string_pretty()
    );
    let t = exec.telemetry();
    assert!(t.cache_hits > 0, "second campaign must hit the cache");
    assert_eq!(t.cache_hits, t.cache_misses, "warm run is a full replay");
    // The cache's own stats must tell the same story the telemetry does:
    // every miss was inserted once, nothing touched disk.
    let stats = exec.cache_stats().expect("executor has a cache");
    assert_eq!(stats.hits, t.cache_hits);
    assert_eq!(stats.misses, t.cache_misses);
    assert_eq!(
        stats.puts, t.cache_misses,
        "each miss inserted exactly once"
    );
    assert_eq!(stats.entries, stats.puts, "in-memory lane keeps every put");
    assert_eq!(stats.disk_appends, 0);
    assert_eq!(stats.disk_append_bytes, 0);
}

/// Every deterministic field of a set of sweeps, floats by bit pattern.
fn sweep_bits(sweeps: &[SweepResult]) -> Vec<String> {
    let bits = |f: f64| format!("{:016x}", f.to_bits());
    let mut out = vec![];
    for s in sweeps {
        out.extend([s.benchmark.clone(), s.arch.clone(), s.code_path.clone()]);
        for p in &s.points {
            for f in [p.target_ns, p.actual_ns, p.rel_perf, p.rel_min, p.rel_max] {
                out.push(bits(f));
            }
            out.push(p.iters.to_string());
        }
        match &s.fit {
            Some(fit) => out.extend([fit.k, fit.k_std_err, fit.r_squared].map(bits)),
            None => out.push("nofit".to_string()),
        }
    }
    out
}

#[test]
fn warm_fig5_sweep_answers_every_cell_without_linking() {
    let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
    let cold = fig5_openjdk_sweeps_with(Arch::ArmV8, ExpConfig::quick(), &exec);
    let before = exec.telemetry();
    assert!(before.jobs > 0);
    assert_eq!(
        before.sim.jobs_observed, before.cache_misses,
        "a cold pass simulates exactly its misses"
    );
    let warm = fig5_openjdk_sweeps_with(Arch::ArmV8, ExpConfig::quick(), &exec);
    let after = exec.telemetry();
    assert_eq!(sweep_bits(&cold), sweep_bits(&warm));
    assert_eq!(after.jobs - before.jobs, before.jobs);
    assert_eq!(
        after.cache_hits - before.cache_hits,
        after.jobs - before.jobs
    );
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.sim, before.sim, "the warm pass simulates nothing");
}

#[test]
fn disk_cache_survives_processes_and_stays_exact() {
    let dir = std::env::temp_dir().join("wmm-harness-it");
    let path = dir.join("sim.cache");
    let _ = std::fs::remove_file(&path);

    let first = {
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::with_disk(&path).unwrap());
        campaign_manifest(&campaign_sweep(&exec))
    };
    // Fresh executor, reloaded cache: everything answered from disk.
    let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::with_disk(&path).unwrap());
    let second = campaign_manifest(&campaign_sweep(&exec));
    assert_eq!(
        first.canonical_json().to_string_pretty(),
        second.canonical_json().to_string_pretty()
    );
    let t = exec.telemetry();
    assert_eq!(t.cache_misses, 0, "reloaded cache must answer every job");
    // Its counts depend on the file, which the manifest records.
    assert!(exec.disk_cache());
    assert!(!ParallelExecutor::new(Some(2))
        .with_cache(SimCache::in_memory())
        .disk_cache());
    // An all-hits run appends nothing: the disk lane grew only during the
    // first process, by exactly one 50-byte line per inserted key after
    // the key-scheme header line.
    let stats = exec.cache_stats().expect("executor has a cache");
    assert_eq!(stats.puts, 0, "reloaded run has nothing to insert");
    assert_eq!(stats.disk_appends, 0);
    assert_eq!(stats.disk_append_bytes, 0);
    assert_eq!(stats.hits, t.cache_hits);
    let on_disk = std::fs::metadata(&path).expect("cache file exists").len();
    assert_eq!(
        on_disk,
        DISK_HEADER.len() as u64 + 1 + 50 * stats.entries,
        "disk lane holds the header and one 50-byte line per entry"
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Gate: unmodified rerun passes, drift fails
// ---------------------------------------------------------------------------

#[test]
fn gate_passes_unmodified_rerun_and_fails_drift() {
    let exec = ParallelExecutor::new(Some(2));
    let baseline = campaign_manifest(&campaign_sweep(&exec));
    let rerun = campaign_manifest(&campaign_sweep(&exec));
    let report = compare(&baseline, &rerun);
    assert!(
        report.pass(),
        "identical rerun must pass: {:?}",
        report.failures
    );
    assert!(report.checked > 0);

    let mut drifted = rerun.clone();
    drifted.fits[0].k *= 1.5;
    let report = compare(&baseline, &drifted);
    assert!(!report.pass(), "50% k drift must fail the gate");
}

#[test]
fn manifest_roundtrips_through_disk() {
    let (manifest, _) = metered_manifest(2);
    let dir = std::env::temp_dir().join("wmm-harness-it-manifest");
    let path = manifest.write(&dir).unwrap();
    let back = RunManifest::load(&path).unwrap();
    assert_eq!(back, manifest);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manifest_with_counts_and_sites_roundtrips_and_balances() {
    // A warm cached sweep (hits) followed by a sited profiling batch
    // (sited cells skip the lookup and simulate): the counts block read
    // back from the file must balance hits + misses == jobs, and every
    // miss must be a simulated job.
    let registry = MetricsRegistry::new();
    let exec = ParallelExecutor::new(Some(2))
        .with_cache(SimCache::in_memory())
        .with_metrics(&registry);
    let mut manifest = campaign_manifest(&campaign_sweep(&exec));
    campaign_sweep(&exec);
    let machine = Machine::new(armv8_xgene1());
    let strategy = FnStrategy::new("dmb", |_: &Site| vec![Instr::Fence(FenceKind::DmbIsh)]);
    let env = compute_envelope(&[Site], &[&strategy], 0);
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let batch = batch_with_profile(&machine, &Contended, &rw, RunConfig::quick(), &exec);
    manifest.campaign = "counts_and_sites".to_string();
    manifest.sites = Some(site_records(&batch.profile));
    manifest.metrics = Some(registry.snapshot());

    let dir = std::env::temp_dir().join("wmm-harness-it-counts");
    let path = manifest.write(&dir).unwrap();
    let back = RunManifest::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back, manifest);
    assert!(!back.sites.as_ref().unwrap().is_empty());
    let snap = back.metrics.as_ref().unwrap();
    let count = |name: &str| snap.counter(name).unwrap();
    let (jobs, hits, misses) = (
        count("harness.exec.jobs"),
        count("harness.exec.cache_hits"),
        count("harness.exec.cache_misses"),
    );
    assert!(hits > 0, "the second sweep hits the cache");
    assert_eq!(hits + misses, jobs);
    assert_eq!(Some(misses as f64), snap.gauge("sim.jobs_observed"));
    assert_eq!(exec.telemetry().cache_misses, misses);
}

// ---------------------------------------------------------------------------
// Observability: sited runs are free, deterministic, and sum consistently
// ---------------------------------------------------------------------------

/// A two-thread bench with fences and shared stores, so sited runs have
/// cross-thread contention, store-buffer pressure and per-site stalls.
struct Contended;

impl BenchSpec<Site> for Contended {
    fn name(&self) -> &str {
        "contended"
    }
    fn image(&self, seed: u64) -> Image<Site> {
        let thread = |t: u64| {
            let mut segs = vec![];
            for i in 0..12u64 {
                segs.push(Segment::Code(vec![
                    Instr::Compute {
                        cycles: 80 + ((seed ^ t).wrapping_add(i) % 5) as u32 * 9,
                    },
                    Instr::Store {
                        loc: Loc::SharedRw(0x40 + (i % 4)),
                        ord: AccessOrd::Plain,
                    },
                ]));
                segs.push(Segment::Labeled(
                    "ld",
                    vec![Instr::Load {
                        loc: Loc::SharedRw(0x40 + ((i + 1) % 4)),
                        ord: AccessOrd::Plain,
                    }],
                ));
                segs.push(Segment::Site(Site));
            }
            segs
        };
        Image {
            threads: vec![thread(0), thread(1)],
            ctx: WorkloadCtx::default(),
            work_units: 24.0,
        }
    }
}

/// One sited profiling batch of the contended bench through `exec`,
/// rendered as the deterministic manifest text the CI gate consumes.
fn profiled_manifest_text(exec: &dyn Executor) -> String {
    let machine = Machine::new(armv8_xgene1());
    let strategy = FnStrategy::new("dmb", |_: &Site| vec![Instr::Fence(FenceKind::DmbIsh)]);
    let env = compute_envelope(&[Site], &[&strategy], 0);
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let batch = batch_with_profile(&machine, &Contended, &rw, RunConfig::quick(), exec);
    assert!(
        batch.profile.sites.values().any(|s| s.fences > 0),
        "fenced bench must attribute fence stalls to sites"
    );
    let mut manifest = RunManifest::new("obs_determinism", "armv8-xgene1");
    manifest.push_cell("contended/wall_ns", batch.mean_wall_ns());
    manifest.push_cell("contended/sites", batch.profile.sites.len() as f64);
    manifest.sites = Some(site_records(&batch.profile));
    manifest.deterministic_json().to_string_pretty()
}

#[test]
fn sited_profiles_identical_across_thread_counts_and_reruns() {
    // The determinism contract extends to the observability layer: the
    // per-site profile — and the manifest text carrying it, which CI gates
    // against a committed baseline — is byte-identical whether the batch
    // ran serially, on one worker, or on four, and across reruns.
    let reference = profiled_manifest_text(&SerialExecutor);
    for threads in [1, 4] {
        let exec = ParallelExecutor::new(Some(threads));
        assert_eq!(
            profiled_manifest_text(&exec),
            reference,
            "threads = {threads}"
        );
        assert_eq!(
            profiled_manifest_text(&exec),
            reference,
            "rerun, threads = {threads}"
        );
    }
}

/// The serial executor, asserting that every cell it is handed is a sited
/// image cell: a profiling batch links no program.
struct SitedImageCellsOnly;

impl Executor for SitedImageCellsOnly {
    fn run_cells(&self, cells: Vec<SimCell<'_>>) -> Vec<JobOutcome> {
        for c in &cells {
            assert!(c.sited, "profiling cells run sited");
            assert!(matches!(c.program, CellProgram::Image(..)), "linked cell");
        }
        SerialExecutor.run_cells(cells)
    }
}

#[test]
fn sited_image_cells_name_every_stall_record() {
    let machine = Machine::new(armv8_xgene1());
    let strategy = FnStrategy::new("dmb", |_: &Site| vec![Instr::Fence(FenceKind::DmbIsh)]);
    let env = compute_envelope(&[Site], &[&strategy], 0);
    let rw = SiteRewriter::new(&strategy, Injection::None, env);
    let batch = batch_with_profile(
        &machine,
        &Contended,
        &rw,
        RunConfig::quick(),
        &SitedImageCellsOnly,
    );
    // No sample's record fell back to a positional `t{t}:#{i}` name.
    let sites = &batch.profile.sites;
    let fallback: Vec<&String> = sites.keys().filter(|n| n.contains(":#")).collect();
    assert!(fallback.is_empty(), "{fallback:?}");
    // Sites, labeled loads and pooled code are their own rows.
    for name in ["t0:Site#0", "t1:Site#11", "t0:ld#0", "t1:ld#11", "t0:code"] {
        assert!(sites.contains_key(name), "no row {name}");
    }
}

// ---------------------------------------------------------------------------
// Property tests: batch-level determinism and cache-key hygiene
// ---------------------------------------------------------------------------

fn mk_jobs<'m>(machine: &'m Machine, spec: &[(u32, u64)]) -> Vec<SimJob<'m>> {
    spec.iter()
        .map(|&(cycles, seed)| SimJob {
            machine,
            program: Program::new(vec![vec![
                Instr::Compute {
                    cycles: 100 + cycles,
                },
                Instr::Fence(FenceKind::DmbIsh),
            ]]),
            ctx: WorkloadCtx::default(),
            seed,
            sited: false,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any batch and any worker count, the parallel executor returns
    /// exactly the serial executor's results, bit for bit.
    #[test]
    fn parallel_batches_match_serial(
        spec in prop::collection::vec((0u32..5_000, 0u64..1_000), 1..40),
        threads in 1usize..9,
    ) {
        let machine = Machine::new(armv8_xgene1());
        let serial = SerialExecutor.run_batch(mk_jobs(&machine, &spec));
        let par = ParallelExecutor::new(Some(threads)).run_batch(mk_jobs(&machine, &spec));
        prop_assert_eq!(
            par.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Caching a batch never changes its results, for any executor shape.
    #[test]
    fn cached_batches_match_uncached(
        spec in prop::collection::vec((0u32..5_000, 0u64..1_000), 1..40),
        threads in 1usize..9,
    ) {
        let machine = Machine::new(armv8_xgene1());
        let uncached = ParallelExecutor::new(Some(threads)).run_batch(mk_jobs(&machine, &spec));
        let exec = ParallelExecutor::new(Some(threads)).with_cache(SimCache::in_memory());
        let cold = exec.run_batch(mk_jobs(&machine, &spec));
        let warm = exec.run_batch(mk_jobs(&machine, &spec));
        prop_assert_eq!(&cold, &uncached);
        prop_assert_eq!(&warm, &uncached);
    }

    /// Sited execution is observation, not perturbation: for any program,
    /// `run_sited_with` returns byte-identical statistics to `run` (the default
    /// path carries no observability cost), and its per-site fence stalls
    /// partition the per-kind totals — same execution counts exactly, same
    /// cycles within float reassociation.
    #[test]
    fn sited_runs_are_free_and_partition_fence_totals(
        spec in prop::collection::vec((0u32..2_000, 0usize..7, 0u64..4), 2..24),
        seed in 0u64..1_000,
    ) {
        let machine = Machine::new(armv8_xgene1());
        let mut threads = vec![vec![], vec![]];
        for (i, &(cycles, kind, loc)) in spec.iter().enumerate() {
            let t = &mut threads[i % 2];
            t.push(Instr::Compute { cycles: 50 + cycles });
            t.push(Instr::Store {
                loc: Loc::SharedRw(0x80 + loc),
                ord: AccessOrd::Plain,
            });
            t.push(Instr::Fence(FenceKind::ALL[kind]));
        }
        let prog = Program::new(threads);
        let ctx = WorkloadCtx::default();

        let plain = machine.run(&prog, &ctx, seed);
        let sited = machine.run_sited_with(&prog, &ctx, seed, &mut MachineScratch::new());
        prop_assert!(plain.per_site.is_none(), "default path must not observe");
        let mut scrubbed = sited.clone();
        let sites = scrubbed.per_site.take().expect("sited run must observe");
        prop_assert_eq!(&scrubbed, &plain);

        for &kind in &FenceKind::ALL {
            let fences: u64 = sites
                .iter()
                .filter(|s| s.fence == Some(kind))
                .map(|s| s.fences)
                .sum();
            prop_assert_eq!(fences, sited.fences(kind));
            let site_cycles: f64 = sites
                .iter()
                .filter(|s| s.fence == Some(kind))
                .map(|s| s.fence_cycles)
                .sum();
            let kind_cycles = sited.fence_stall_cycles(kind);
            prop_assert!(
                (site_cycles - kind_cycles).abs() <= 1e-9 * kind_cycles.abs().max(1.0),
                "fence cycles, {kind:?}: {site_cycles} vs {kind_cycles}"
            );
        }
        let site_sb: f64 = sites.iter().map(|s| s.sb_stall_cycles).sum();
        prop_assert!(
            (site_sb - sited.sb_stall_cycles).abs()
                <= 1e-9 * sited.sb_stall_cycles.abs().max(1.0),
            "sb cycles: {site_sb} vs {}",
            sited.sb_stall_cycles
        );
    }

    /// For any batch, the structural projection of the attached metrics
    /// registry serialises byte-identically whether the batch ran on one,
    /// two or four workers — the determinism contract extends to the
    /// metrics layer. (Observational entries — per-worker counters, the
    /// latency histogram, lock waits — are excluded by class.)
    #[test]
    fn metrics_structural_snapshot_invariant_under_worker_count(
        spec in prop::collection::vec((0u32..5_000, 0u64..1_000), 1..40),
    ) {
        let machine = Machine::new(armv8_xgene1());
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 4] {
            let registry = MetricsRegistry::new();
            let exec = ParallelExecutor::new(Some(threads))
                .with_cache(SimCache::in_memory())
                .with_metrics(&registry);
            exec.run_batch(mk_jobs(&machine, &spec));
            // Warm replay: hit/miss accounting must stay deterministic too.
            exec.run_batch(mk_jobs(&machine, &spec));
            let text = registry.snapshot().structural().to_json().to_string_pretty();
            match &reference {
                None => reference = Some(text),
                Some(r) => prop_assert!(
                    &text == r,
                    "structural snapshot diverged at threads = {threads}"
                ),
            }
        }
    }

    /// Cache keys separate distinct inputs and are stable for equal ones.
    #[test]
    fn cache_keys_respect_identity(
        cycles in 0u32..10_000,
        seed in 0u64..1_000_000,
    ) {
        let machine = Machine::new(armv8_xgene1());
        let job = |c, s| mk_jobs(&machine, &[(c, s)]).remove(0);
        let base = job_key(&job(cycles, seed));
        prop_assert_eq!(base, job_key(&job(cycles, seed)));
        prop_assert!(base != job_key(&job(cycles + 1, seed)));
        prop_assert!(base != job_key(&job(cycles, seed + 1)));
    }
}
