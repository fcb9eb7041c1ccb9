//! `axiom_diff` — dual-oracle differential over the generated litmus corpus.
//!
//! Two independent deciders exist for "which final states can this litmus
//! test reach under this model": the operational explorer
//! (`wmm_litmus::explore`, every interleaving and propagation order) and
//! the axiomatic checker (`wmm_axiom`, every communication witness judged
//! by relational axioms). This campaign runs **both** over the 30-shape hand
//! suite plus the diy-style generated corpus
//! (`wmm_analyze::gen::differential_corpus`, ≥ 1,000 tests up to 4
//! threads / 8 accesses) under all four models, and hard-fails on any
//! disagreement — not just on a single assertion, but on **exact equality
//! of the reachable final-state sets**.
//!
//! Sections, one run manifest (`results/runs/axiom_diff.json`):
//!
//! 1. **Lint** — the well-formedness lint over the hand suite and the
//!    *entire* generated corpus (not just the differential slice): any
//!    finding is an error.
//! 2. **Differential** — per test: the axiomatic allowed-mask over the
//!    four models (bit 0 = SC … bit 3 = POWER, from the test's own
//!    interesting outcome + memory pin) and an agreement flag (finals-set
//!    equality under all four models). Tests run in parallel via the
//!    deterministic keyed scheduler; the manifest is byte-identical
//!    across `--threads` values because results are re-keyed into
//!    submission order and every cell is an exact count.
//!
//! Disagreement policy: any finals-set mismatch, any lint finding, or a
//! differential corpus below 1,000 tests (full mode) fails the campaign.
//! A mismatch's error names the first final state only the axiomatic side
//! reaches and the first only the operational side reaches. The gate then
//! guards the quick manifest against drift. `--quick` runs the full hand
//! suite plus a pinned 1-in-8 stride of the generated corpus.

use std::collections::BTreeSet;

use wmm_analyze::gen::differential_corpus;
use wmm_axiom::{axiomatic_outcomes, Axiom};
use wmm_harness::{run_keyed, RunManifest};
use wmm_litmus::explore::explore;
use wmm_litmus::lint::lint_corpus;
use wmm_litmus::ops::LitmusTest;
use wmm_litmus::suite::full_suite;

use super::{check, Ctx};
use crate::streams::MODELS;

/// One test's dual-oracle verdict, produced on a worker.
struct DiffRow {
    name: String,
    /// Axiomatic allowed-mask: bit i set iff MODELS\[i\] allows the
    /// test's interesting outcome (with its memory pin).
    ax_mask: u32,
    /// Finals-set equality between the oracles under every model.
    agree: bool,
    /// First-rejecting-axiom tallies summed over the four models.
    rejected_by: [usize; 4],
    /// Human-readable mismatch reports (empty when `agree`).
    mismatches: Vec<String>,
}

/// Final `(registers, memory)` states, in canonical order.
type Finals = BTreeSet<(Vec<Vec<u32>>, Vec<u32>)>;

/// A final state in litmus notation: `thread:rN=value` for every register,
/// then `[var]=value` for every variable, e.g. `0:r0=1 1:r0=0 [0]=1 [1]=1`.
fn show_final((regs, mem): &(Vec<Vec<u32>>, Vec<u32>)) -> String {
    let regs = regs.iter().enumerate().flat_map(|(t, file)| {
        file.iter()
            .enumerate()
            .map(move |(r, v)| format!("{t}:r{r}={v}"))
    });
    let mem = mem
        .iter()
        .enumerate()
        .map(|(var, v)| format!("[{var}]={v}"));
    let parts: Vec<String> = regs.chain(mem).collect();
    if parts.is_empty() {
        "(no registers or memory)".to_string()
    } else {
        parts.join(" ")
    }
}

/// The mismatch report for one test under one model, or `None` when the
/// oracles reach the same final states. It counts each side's extra finals
/// and names the first (in canonical order) that only the axiomatic side
/// reaches and the first that only the operational side reaches.
fn disagreement(context: &str, ax: &Finals, op: &Finals) -> Option<String> {
    if ax == op {
        return None;
    }
    let first = |only: &Finals, other: &Finals| {
        only.difference(other)
            .next()
            .map_or_else(|| "none".to_string(), show_final)
    };
    Some(format!(
        "{context}: axiomatic {} finals vs operational {} \
         ({} axiomatic-only, {} operational-only); \
         first axiomatic-only: {}; first operational-only: {}",
        ax.len(),
        op.len(),
        ax.difference(op).count(),
        op.difference(ax).count(),
        first(ax, op),
        first(op, ax),
    ))
}

fn diff_one(test: &LitmusTest) -> DiffRow {
    let mut ax_mask = 0u32;
    let mut rejected_by = [0usize; 4];
    let mut mismatches = vec![];
    for (i, model) in MODELS.into_iter().enumerate() {
        let ax = axiomatic_outcomes(test, model);
        let op = explore(test, model);
        if ax.allows_with_memory(&test.interesting, &test.memory) {
            ax_mask |= 1 << i;
        }
        for (slot, n) in rejected_by.iter_mut().zip(ax.rejected_by) {
            *slot += n;
        }
        let context = format!("{} under {}", test.name, model.label());
        mismatches.extend(disagreement(&context, &ax.finals, &op.canonical()));
    }
    DiffRow {
        name: test.name.clone(),
        ax_mask,
        agree: mismatches.is_empty(),
        rejected_by,
        mismatches,
    }
}

fn lint_section(
    manifest: &mut RunManifest,
    errors: &mut Vec<String>,
    hand: &[LitmusTest],
    generated: &[LitmusTest],
) {
    println!("== well-formedness lint ==");
    for (label, corpus) in [("hand", hand), ("generated", generated)] {
        let findings = lint_corpus(corpus.iter());
        println!(
            "  {label}: {} tests, {} findings",
            corpus.len(),
            findings.len()
        );
        manifest.push_cell(format!("lint/{label}/tests"), corpus.len() as f64);
        manifest.push_cell(format!("lint/{label}/issues"), findings.len() as f64);
        for (name, issue) in findings {
            errors.push(format!("lint: {name}: {issue}"));
        }
    }
}

/// Lints both corpora, then diffs the two oracles test by test.
pub fn axiom_diff(ctx: &Ctx) -> Result<RunManifest, String> {
    let quick = ctx.quick;
    let threads = ctx.exec.threads();
    println!(
        "axiom_diff — axiomatic vs operational oracle differential{}",
        if quick { " (quick)" } else { "" }
    );
    let mut manifest = RunManifest::new(ctx.name, "oracle");
    let mut errors: Vec<String> = vec![];

    let hand: Vec<LitmusTest> = full_suite().into_iter().map(|e| e.test).collect();
    let generated_all = wmm_analyze::generate_all();
    lint_section(&mut manifest, &mut errors, &hand, &generated_all);
    drop(generated_all);

    let corpus = differential_corpus();
    if !quick && corpus.len() < 1000 {
        errors.push(format!(
            "differential corpus has {} tests, below the 1,000-test floor",
            corpus.len()
        ));
    }
    // Quick mode: the pinned subset is a fixed 1-in-8 stride — a property
    // of the deterministic generation order, not of this process.
    let generated: Vec<LitmusTest> = if quick {
        corpus.iter().step_by(8).cloned().collect()
    } else {
        corpus
    };
    let mut tests = hand;
    tests.extend(generated);

    println!(
        "== differential: {} tests x {} models on {} worker(s) ==",
        tests.len(),
        MODELS.len(),
        threads
    );
    let rows = run_keyed(&tests, threads, diff_one);

    let mut agree = 0usize;
    let mut allowed = [0usize; 4];
    let mut rejected_by = [0usize; 4];
    for row in &rows {
        manifest.push_cell(format!("diff/{}/ax_mask", row.name), f64::from(row.ax_mask));
        manifest.push_cell(format!("diff/{}/agree", row.name), f64::from(row.agree));
        agree += usize::from(row.agree);
        for (i, slot) in allowed.iter_mut().enumerate() {
            *slot += usize::from(row.ax_mask & (1 << i) != 0);
        }
        for (slot, n) in rejected_by.iter_mut().zip(row.rejected_by) {
            *slot += n;
        }
        errors.extend(row.mismatches.iter().cloned());
    }
    println!(
        "  {agree}/{} tests: finals-set equality under all models",
        rows.len()
    );
    for (i, model) in MODELS.into_iter().enumerate() {
        println!(
            "  {:>6}: {} tests allow their outcome",
            model.label(),
            allowed[i]
        );
    }

    manifest.push_cell("summary/tests", rows.len() as f64);
    manifest.push_cell("summary/agree", agree as f64);
    for (i, model) in MODELS.into_iter().enumerate() {
        manifest.push_cell(
            format!("summary/allowed/{}", model.label()),
            allowed[i] as f64,
        );
    }
    for (i, axiom) in [
        Axiom::ScPerLocation,
        Axiom::NoThinAir,
        Axiom::Propagation,
        Axiom::Observation,
    ]
    .into_iter()
    .enumerate()
    {
        manifest.push_cell(
            format!("summary/rejected/{}", axiom.label()),
            rejected_by[i] as f64,
        );
    }

    check(ctx.name, &errors)?;
    println!("the oracles agree exactly");
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finals(states: &[(&[&[u32]], &[u32])]) -> Finals {
        states
            .iter()
            .map(|&(regs, mem)| (regs.iter().map(|r| r.to_vec()).collect(), mem.to_vec()))
            .collect()
    }

    #[test]
    fn equal_finals_report_nothing() {
        let a = finals(&[(&[&[0], &[1]], &[1, 1]), (&[&[1], &[1]], &[1, 1])]);
        assert_eq!(disagreement("SB under SC", &a, &a.clone()), None);
    }

    #[test]
    fn disagreement_names_the_first_final_only_each_side_reaches() {
        let shared: (&[&[u32]], &[u32]) = (&[&[1], &[1]], &[1, 1]);
        let ax = finals(&[shared, (&[&[0], &[0]], &[1, 1]), (&[&[1], &[0]], &[1, 1])]);
        let op = finals(&[shared, (&[&[0, 2], &[]], &[2])]);
        assert_eq!(
            disagreement("SB under POWER", &ax, &op).as_deref(),
            Some(
                "SB under POWER: axiomatic 3 finals vs operational 2 \
                 (2 axiomatic-only, 1 operational-only); \
                 first axiomatic-only: 0:r0=0 1:r0=0 [0]=1 [1]=1; \
                 first operational-only: 0:r0=0 0:r1=2 [0]=2"
            )
        );
    }

    #[test]
    fn a_one_sided_disagreement_says_none_for_the_other_side() {
        let op = finals(&[(&[&[1]], &[1])]);
        let ax = finals(&[(&[&[1]], &[1]), (&[], &[])]);
        let report = disagreement("t under TSO", &ax, &op).expect("sets differ");
        assert!(
            report.ends_with(
                "first axiomatic-only: (no registers or memory); first operational-only: none"
            ),
            "{report}"
        );
    }
}
