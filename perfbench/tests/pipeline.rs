//! The benchmark's own correctness tests: the traced pipeline reproduces
//! the campaign it rebuilds, the warm sweep never simulates, and every
//! pinned checksum and `k_paper_err` is independent of the worker count.

use std::collections::BTreeMap;
use std::path::PathBuf;

use perfbench::host::nproc;
use perfbench::layers::Tracer;
use perfbench::oracle::OracleDiff;
use perfbench::run::Workload;
use perfbench::sweep::{self, Sweep, ARCHES};
use perfbench::wps::WpsSynth;
use wmm_bench::fig5_openjdk_sweeps_with;
use wmm_harness::{ParallelExecutor, SimCache};

/// Two distinct worker counts: serial and the host's (at least 2).
fn worker_counts() -> [usize; 2] {
    [1, nproc().max(2)]
}

/// One traced pass's per-layer report.
fn traced_layers<W: Workload>(w: &mut W) -> (W::Output, BTreeMap<&'static str, f64>) {
    let tracer = Tracer::new();
    let (out, _) = w.traced_pass(&tracer);
    tracer.end_pass(nproc());
    let layers = tracer
        .report()
        .into_iter()
        .map(|(n, _, v)| (n, v))
        .collect();
    (out, layers)
}

#[test]
fn benchmark_json_names_exactly_what_the_runs_report() {
    use wmmbench::json::Json;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str, field: &str| -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            })
            .collect()
    };
    let owned = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
    assert_eq!(listed("workloads", "name"), owned(&perfbench::WORKLOADS));
    let e2e = perfbench::run::END_TO_END;
    assert_eq!(listed("end_to_end", "name"), owned(&e2e.map(|(n, _)| n)));
    assert_eq!(listed("end_to_end", "unit"), owned(&e2e.map(|(_, u)| u)));
    let layers = perfbench::layers::LAYER_METRICS;
    let names: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
    let units: Vec<&str> = layers.iter().map(|(_, u)| *u).collect();
    assert_eq!(listed("per_layer", "name"), owned(&names));
    assert_eq!(listed("per_layer", "unit"), owned(&units));
}

#[test]
fn traced_sweep_reproduces_the_fig5_campaign_bit_for_bit() {
    let exec = ParallelExecutor::new(Some(nproc())).with_cache(SimCache::in_memory());
    let campaign: Vec<_> = ARCHES
        .iter()
        .flat_map(|&arch| fig5_openjdk_sweeps_with(arch, sweep::config(0), &exec))
        .collect();
    assert_eq!(sweep::checksum(&campaign), sweep::PINNED);

    let mut w = Sweep::setup(0, nproc(), None);
    let (out, layers) = traced_layers(&mut w);
    assert_eq!(sweep::checksum(&out.sweeps), sweep::PINNED);
    assert_eq!(w.check(&out).failed, 0);
    // Cold: every job simulated, none answered from the cache.
    assert_eq!(layers["sim.jobs"], w.units() as f64);
    assert_eq!(layers["harness.cache_hit_ratio"], 0.0);
    assert_eq!(layers["model.fits"], 16.0);
    assert!(layers["sim.events"] > 0.0 && layers["sim.simulated_cycles"] > 0.0);
}

#[test]
fn warm_sweep_never_simulates() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("warm-sweep-test.cache");
    Sweep::prime(0, nproc(), &path);
    let mut w = Sweep::setup(0, nproc(), Some(&path));
    let (out, layers) = traced_layers(&mut w);
    assert_eq!(layers["sim.jobs"], 0.0);
    assert_eq!(layers["harness.cache_hit_ratio"], 1.0);
    assert_eq!(layers["harness.cache_hits"], w.units() as f64);
    assert_eq!(sweep::checksum(&out.sweeps), sweep::PINNED);
    let plain = w.pass();
    assert_eq!(w.check(&plain).failed, 0);
    assert_eq!(plain.hits, w.units());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checksums_and_k_paper_err_are_independent_of_worker_count() {
    let mut k_errs = Vec::new();
    for threads in worker_counts() {
        let mut w = Sweep::setup(0, threads, None);
        let out = w.pass();
        assert_eq!(w.check(&out).checksum, sweep::PINNED, "{threads} workers");
        k_errs.push(sweep::k_paper_err(&out.sweeps));

        let mut w = OracleDiff::setup(threads);
        let out = w.pass();
        let check = w.check(&out);
        assert_eq!(
            check.checksum,
            perfbench::oracle::PINNED,
            "{threads} workers"
        );
        assert_eq!(check.failed, 0, "the oracles disagree");

        let mut w = WpsSynth::setup(threads);
        let out = w.pass();
        let check = w.check(&out);
        assert_eq!(check.checksum, perfbench::wps::PINNED, "{threads} workers");
        assert_eq!(check.failed, 0, "a placement left a cycle unprotected");
    }
    assert_eq!(k_errs[0].to_bits(), k_errs[1].to_bits());
    assert!(k_errs[0].is_finite() && k_errs[0] > 0.0);
}

#[test]
fn a_non_default_seed_is_stable_across_passes() {
    fn checksum<W: Workload>(w: &mut W) -> u64 {
        let out = w.pass();
        w.check(&out).checksum
    }
    let mut w = Sweep::setup(7, nproc(), None);
    let first = checksum(&mut w);
    assert_ne!(first, sweep::PINNED, "the seed moves the sample seeds");
    assert_eq!(checksum(&mut w), first);
}

#[test]
fn traced_oracle_and_wps_passes_match_their_pins() {
    let mut w = OracleDiff::setup(nproc());
    let (out, layers) = traced_layers(&mut w);
    assert_eq!(w.check(&out).checksum, perfbench::oracle::PINNED);
    assert!(layers["litmus.states"] > 0.0 && layers["axiom.candidates"] > 0.0);
    assert_eq!(layers["sim.jobs"], 0.0);

    let mut w = WpsSynth::setup(nproc());
    let (out, layers) = traced_layers(&mut w);
    assert_eq!(w.check(&out).checksum, perfbench::wps::PINNED);
    assert!(layers["analyze.cycles"] > 0.0 && layers["analyze.exact_solves"] > 0.0);
}
