//! The `wmm` driver: `wmm run <campaign>…|--all` runs registry entries,
//! `wmm gate <campaign>…|--all` compares their manifests with the committed
//! baselines. Flags are parsed once, here; an unknown flag, an unknown
//! campaign or a malformed value is a usage error (exit 2), never a silent
//! fallback to a default.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::campaigns::{self, find, Campaign, Settings, REGISTRY};

/// The usage line printed with every usage error.
pub const USAGE: &str = "\
usage: wmm run <campaign>...|--all [--quick] [--scale F] [--threads N] [--cache]
               [--progress] [--trace PATH] [campaign flags]
       wmm gate <campaign>...|--all
       wmm help";

/// What the command line asked for.
#[derive(Debug)]
pub enum Command {
    /// Print the usage line and the registry.
    Help,
    /// Run these campaigns under these settings.
    Run(Vec<&'static Campaign>, Box<Settings>),
    /// Gate these campaigns' latest runs against their baselines.
    Gate(Vec<&'static Campaign>),
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let run = match it.next().map(String::as_str) {
        Some("run") => true,
        Some("gate") => false,
        Some("help" | "-h" | "--help") => return Ok(Command::Help),
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
        None => return Err("no subcommand given".into()),
    };
    let mut s = Settings::default();
    let mut all = false;
    let mut names: Vec<&'static Campaign> = vec![];
    let mut flags: Vec<&str> = vec![];
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg {
            "--all" => all = true,
            "--quick" => s.quick = true,
            "--cache" => s.cache = true,
            "--progress" => s.progress = true,
            "--scale" => {
                let v = value()?;
                s.scale = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .ok_or_else(|| format!("`--scale {v}`: expected a positive number"))?,
                );
            }
            "--threads" => {
                let v = value()?;
                s.threads = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("`--threads {v}`: expected a positive integer"))?,
                );
            }
            "--trace" => s.trace = Some(PathBuf::from(value()?)),
            "--flame" => s.out.flame = Some(PathBuf::from(value()?)),
            "--md" => s.out.md = Some(PathBuf::from(value()?)),
            "--prom" => s.out.prom = Some(PathBuf::from(value()?)),
            "--base" => s.out.base = Some(PathBuf::from(value()?)),
            "--test" => s.out.test = Some(PathBuf::from(value()?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => names.push(find(name).ok_or_else(|| format!("unknown campaign `{name}`"))?),
        }
        if arg.starts_with('-') && arg != "--all" {
            flags.push(arg);
        }
    }

    let campaigns: Vec<&'static Campaign> = match (all, names.is_empty()) {
        (true, true) => REGISTRY.iter().collect(),
        (false, false) => names,
        (true, false) => return Err("give campaign names or `--all`, not both".into()),
        (false, true) => return Err("no campaign given".into()),
    };
    if !run {
        return match flags.first() {
            Some(flag) => Err(format!("`{flag}` does not apply to `gate`")),
            None => Ok(Command::Gate(campaigns)),
        };
    }
    // A flag some registry entry declares must be declared by every selected one.
    for flag in flags
        .iter()
        .filter(|f| REGISTRY.iter().any(|c| c.flags.contains(f)))
    {
        if let Some(c) = campaigns.iter().find(|c| !c.flags.contains(flag)) {
            return Err(format!("`{flag}` does not apply to `{}`", c.name));
        }
    }
    if s.trace.is_some() && campaigns.len() > 1 {
        return Err("`--trace` writes one file: give one campaign".into());
    }
    if s.out.base.is_some() != s.out.test.is_some() {
        return Err("`--base` and `--test` go together".into());
    }
    Ok(Command::Run(campaigns, Box::new(s)))
}

/// Print `err` once per line, each prefixed by `name`.
fn print_error(name: &str, err: &str) {
    for line in err.lines() {
        eprintln!("{name} ERROR: {line}");
    }
}

/// Print the verdict over `total` campaigns; exit 1 if any failed.
fn verdict(what: &str, total: usize, failed: &[&str]) -> ExitCode {
    if failed.is_empty() {
        println!("wmm {what}: {total} campaign(s) OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "wmm {what}: {} of {total} campaign(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Run the driver on the arguments after the program name.
pub fn main(args: &[String]) -> ExitCode {
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wmm: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut failed = vec![];
    match command {
        Command::Help => {
            println!("{USAGE}\n\ncampaigns:");
            for c in REGISTRY {
                let line = format!("  {:<30} {}", c.name, c.flags.join(" "));
                println!("{}", line.trim_end());
            }
            ExitCode::SUCCESS
        }
        Command::Run(list, settings) => {
            for c in &list {
                println!("== {} ==", c.name);
                if let Err(e) = campaigns::run(c, &settings) {
                    print_error(c.name, &e);
                    failed.push(c.name);
                }
            }
            verdict("run", list.len(), &failed)
        }
        Command::Gate(list) => {
            for c in &list {
                match campaigns::gate(c) {
                    Ok(summary) => println!("{}: PASS — {summary}", c.name),
                    Err(e) => {
                        eprintln!("{}: FAIL", c.name);
                        print_error(c.name, &e);
                        failed.push(c.name);
                    }
                }
            }
            verdict("gate", list.len(), &failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn err(line: &str) -> String {
        parse_str(line).expect_err(line)
    }

    #[test]
    fn parses_shared_flags_once() {
        let Ok(Command::Run(list, s)) =
            parse_str("run fig5_openjdk_sweep --quick --scale 0.5 --threads 3 --cache --progress")
        else {
            panic!("expected a run command");
        };
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "fig5_openjdk_sweep");
        assert!(s.quick && s.cache && s.progress);
        assert_eq!(s.scale, Some(0.5));
        assert_eq!(s.threads, Some(3));
        assert_eq!(s.config().scale, 0.5);
    }

    #[test]
    fn all_selects_the_whole_registry() {
        let Ok(Command::Gate(list)) = parse_str("gate --all") else {
            panic!("expected a gate command");
        };
        assert_eq!(list.len(), REGISTRY.len());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(err("run fig5_openjdk_sweep --quik").contains("unknown flag `--quik`"));
        // Every manifest carries the metrics snapshot; there is no separate export.
        assert!(err("run wmm_profile-fig5-arm --metrics-json m.json").contains("unknown flag"));
    }

    #[test]
    fn rejects_unknown_campaign() {
        assert!(err("run fig5_openjdk --quick").contains("unknown campaign `fig5_openjdk`"));
        assert!(err("gate fig8_bench_ranking").contains("unknown campaign"));
    }

    #[test]
    fn rejects_malformed_threads() {
        assert!(err("run fig1_fit --threads abc").contains("--threads abc"));
        assert!(err("run fig1_fit --threads 0").contains("positive integer"));
        assert!(err("run fig1_fit --threads").contains("needs a value"));
    }

    #[test]
    fn rejects_malformed_scale() {
        assert!(err("run fig1_fit --scale x").contains("--scale x"));
        assert!(err("run fig1_fit --scale -1").contains("positive number"));
    }

    #[test]
    fn rejects_unknown_subcommand_and_empty_selection() {
        assert!(err("bench --all").contains("unknown subcommand"));
        assert!(err("run --quick").contains("no campaign given"));
        assert!(err("run --all fig1_fit").contains("not both"));
    }

    #[test]
    fn rejects_flags_that_do_not_apply() {
        assert!(err("gate --all --quick").contains("does not apply to `gate`"));
        assert!(err("run fig1_fit --flame f.txt").contains("does not apply to `fig1_fit`"));
        assert!(err("run --all --trace t.json").contains("one campaign"));
        assert!(err("run wmm_tracediff --base a.json").contains("go together"));
        assert!(parse_str("run wmm_profile-fig5-arm --flame f.txt --trace t.json").is_ok());
        // The run report renders any profile campaign, and only those.
        let both = "wmm_profile-fig9-kernel wmm_profile-jdk8-arm --md r.md --prom r.prom";
        assert!(parse_str(&format!("run {both}")).is_ok());
        assert!(err("run fig5_openjdk_sweep --md r.md").contains("does not apply"));
        assert!(err("run wmm_tracediff --prom r.prom").contains("does not apply"));
    }
}
