//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `<s>` seconds and prints a report whose last line
//! is the JSON result. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a traced run, whose spans are also
//! written as a Chrome trace under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::nproc;
use perfbench::oracle::OracleDiff;
use perfbench::run::{measure, set_up, Options};
use perfbench::sweep::Sweep;
use perfbench::wps::WpsSynth;
use perfbench::WORKLOADS;

const USAGE: &str = "usage: perfbench --workload <sweep_cold|sweep_warm|oracle_diff|wps_synth> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Run-time files (the warm sweep's cache, traces) live here.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let trace_path = out_dir().join(format!("trace-{workload}-seed{seed}.json"));
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        trace_path,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, threads) = (opts.seed, nproc());
    let outcome = match opts.workload.as_str() {
        "sweep_cold" => {
            let (w, setup_s) = set_up(|| Sweep::setup(seed, threads, None));
            measure(w, &setup_s, &opts)
        }
        "sweep_warm" => {
            let path = out_dir().join(format!("sweep_warm-seed{seed}.cache"));
            Sweep::prime(seed, threads, &path);
            let (w, setup_s) = set_up(|| Sweep::setup(seed, threads, Some(&path)));
            let outcome = measure(w, &setup_s, &opts);
            let _ = std::fs::remove_file(&path);
            outcome
        }
        "oracle_diff" => {
            let (w, setup_s) = set_up(|| OracleDiff::setup(threads));
            measure(w, &setup_s, &opts)
        }
        "wps_synth" => {
            let (w, setup_s) = set_up(|| WpsSynth::setup(threads));
            measure(w, &setup_s, &opts)
        }
        _ => unreachable!("parse accepts only known workloads"),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
