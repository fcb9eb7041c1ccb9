//! `wmm` — run and gate the campaign registry (`wmm help` lists it).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    wmm_bench::cli::main(&args)
}
