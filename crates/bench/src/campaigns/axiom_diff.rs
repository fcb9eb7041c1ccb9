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
//! differential corpus below 1,000 tests (full mode) fails the campaign;
//! the gate then guards the quick manifest against drift. `--quick` runs the full hand suite plus a
//! pinned 1-in-8 stride of the generated corpus.

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
        let op_finals = op.canonical();
        if ax.finals != op_finals {
            let only_ax = ax.finals.difference(&op_finals).count();
            let only_op = op_finals.difference(&ax.finals).count();
            mismatches.push(format!(
                "{} under {}: axiomatic {} finals vs operational {} \
                 ({only_ax} axiomatic-only, {only_op} operational-only)",
                test.name,
                model.label(),
                ax.finals.len(),
                op_finals.len(),
            ));
        }
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
