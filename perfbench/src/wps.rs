//! `wps_synth`: whole-program fence synthesis over the generated-corpus
//! bundles and the two stitched lock-free hot paths (Treiber push+pop,
//! Harris-Michael insert+delete+search).
//!
//! A pass is [`ROUNDS`] rounds. Each round starts from a fresh
//! [`CycleCache`] and hands the programs to the harness's keyed scheduler
//! on the host's worker count; each worker synthesizes its program with
//! `synthesize_wps` and re-checks the placement with `analyze`. A
//! placement that leaves a critical cycle unprotected fails its program.
//!
//! Programs fan out across the workers, not the components inside one
//! program: synthesizing the programs one by one, each call fanning its
//! few tiny components out to the workers, left the CPUs half idle and
//! read between 806 and 1,168 programs/s across ten runs of the same
//! build on a shared 2-CPU host, wider than any bound a metric may have.
//!
//! The programs are fixed and synthesis is deterministic, so the seed
//! changes nothing here.

use std::time::{Duration, Instant};

use wmm_analyze::{
    analyze, apply_to_graph, critical_cycles_wps, synthesize_wps, CostModel, CycleCache,
    ProgramGraph, SynthConfig, WpsConfig, WpsReport, WpsTier,
};
use wmm_bench::streams::NOMINAL_K;
use wmm_bench::wps::{make_bundles, MIN_BUNDLED_TESTS, WPS_MODEL};
use wmm_dstruct::StitchedProgram;
use wmm_harness::{run_keyed, run_keyed_indexed, Fnv128};

use crate::layers::Tracer;
use crate::run::{Check, Workload};

/// Checksum of every program's placement, over a pass's rounds.
pub const PINNED: u64 = 0xe8c3_f2d4_2391_8b85;

/// Rounds per pass. One round takes tens of milliseconds, too short to
/// time steadily on a shared host.
pub const ROUNDS: usize = 8;

/// One program to synthesize.
struct Program {
    name: String,
    graph: ProgramGraph,
    synth: SynthConfig,
}

/// One program's outcome, in program order within each round: its report
/// (or the synthesis error) and whether the re-check found every cycle
/// protected.
pub struct Synthesized {
    /// The report, or the synthesis error's text.
    pub report: Result<WpsReport, String>,
    /// `analyze` found no unprotected cycle after the placement.
    pub protected: bool,
}

/// The `wps_synth` workload.
pub struct WpsSynth {
    programs: Vec<Program>,
    costs: CostModel,
    /// The default tiers, with each program synthesized on one worker.
    wps: WpsConfig,
    /// Scheduler workers over the programs.
    threads: usize,
}

impl WpsSynth {
    /// Pack the bundles and build the stitched programs.
    #[must_use]
    pub fn setup(threads: usize) -> WpsSynth {
        // Reclamation sites are pure instruction sequences, so the
        // stitched programs synthesize fences only.
        let mut programs: Vec<Program> = StitchedProgram::all()
            .into_iter()
            .map(|p| Program {
                name: p.name.to_string(),
                graph: p.graph(),
                synth: SynthConfig::fences_only(WPS_MODEL),
            })
            .collect();
        programs.extend(
            make_bundles(MIN_BUNDLED_TESTS)
                .into_iter()
                .map(|b| Program {
                    name: b.label,
                    graph: b.graph,
                    synth: SynthConfig::for_model(WPS_MODEL),
                }),
        );
        WpsSynth {
            programs,
            costs: CostModel::priced(NOMINAL_K),
            wps: WpsConfig {
                threads: Some(1),
                ..WpsConfig::default()
            },
            threads,
        }
    }

    fn synthesize(&self, p: &Program, cache: &CycleCache) -> Result<WpsReport, String> {
        synthesize_wps(&p.graph, p.synth, &self.costs, &self.wps, Some(cache))
            .map_err(|e| e.to_string())
    }

    fn recheck(p: &Program, report: &WpsReport) -> bool {
        analyze(
            &apply_to_graph(&p.graph, &report.placement.instruments),
            WPS_MODEL,
        )
        .protected()
    }

    /// One untraced round from a fresh cache.
    fn round(&self) -> Vec<Synthesized> {
        let cache = CycleCache::in_memory();
        run_keyed(&self.programs, self.threads, |p| {
            let report = self.synthesize(p, &cache);
            let protected = report.as_ref().is_ok_and(|r| Self::recheck(p, r));
            Synthesized { report, protected }
        })
    }

    /// One traced round from a fresh cache.
    fn traced_round(&self, t: &Tracer) -> Vec<Synthesized> {
        let cache = CycleCache::in_memory();
        let out = run_keyed_indexed(&self.programs, self.threads, |worker, p| {
            let tid = worker as u64 + 1;
            let t0 = Instant::now();
            // Enumerate first, so the solve below runs on a warm cache and
            // its span times the solver alone.
            let cycles = t.time("analyze.cycles", tid, || {
                critical_cycles_wps(&p.graph, self.wps.threads, Some(&cache))
            });
            t.add("analyze.cycles", cycles.len() as f64);
            let report = t.time("analyze.solve", tid, || self.synthesize(p, &cache));
            let protected = report.as_ref().is_ok_and(|r| {
                t.add("analyze.solver_nodes", r.nodes as f64);
                t.add(
                    "analyze.exact_solves",
                    f64::from(u8::from(r.tier == WpsTier::Exact)),
                );
                t.time("analyze.recheck", tid, || Self::recheck(p, r))
            });
            t.add("harness.busy_ms", t0.elapsed().as_secs_f64() * 1e3);
            Synthesized { report, protected }
        });
        t.add("harness.cache_hits", cache.hits() as f64);
        t.add("harness.cache_misses", cache.misses() as f64);
        out
    }
}

impl Workload for WpsSynth {
    type Output = Vec<Synthesized>;

    fn units(&self) -> u64 {
        (self.programs.len() * ROUNDS) as u64
    }

    fn pinned(&self) -> u64 {
        PINNED
    }

    fn pass(&mut self) -> Vec<Synthesized> {
        (0..ROUNDS).flat_map(|_| self.round()).collect()
    }

    fn traced_pass(&mut self, t: &Tracer) -> (Vec<Synthesized>, Duration) {
        let out = (0..ROUNDS).flat_map(|_| self.traced_round(t)).collect();
        (out, Duration::ZERO)
    }

    fn check(&self, out: &Vec<Synthesized>) -> Check {
        let mut h = Fnv128::new();
        for (p, s) in self.programs.iter().cycle().zip(out) {
            h.bytes(p.name.as_bytes());
            match &s.report {
                Ok(r) => {
                    h.bytes(r.tier.label().as_bytes());
                    h.bytes(format!("{:?}", r.placement.instruments).as_bytes());
                    h.f64(r.placement.cost_ns);
                    h.f64(r.approx_cost_ns);
                }
                Err(e) => h.bytes(e.as_bytes()),
            }
        }
        Check {
            failed: out.iter().filter(|s| !s.protected).count() as u64,
            checksum: h.finish() as u64,
        }
    }
}
