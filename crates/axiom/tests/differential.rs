//! Differential: the axiomatic oracle against the operational explorer.
//!
//! The strongest form — exact equality of the reachable final-state sets —
//! over every hand-suite shape under every model, plus per-assertion
//! agreement (which equality subsumes, asserted separately so a failure
//! names the weaker property too).

use wmm_axiom::axiomatic_outcomes;
use wmm_litmus::suite::full_suite;
use wmm_litmus::{explore, ModelKind};

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

#[test]
fn finals_sets_identical_on_the_hand_suite() {
    for entry in full_suite() {
        for model in MODELS {
            let op = explore(&entry.test, model);
            let ax = axiomatic_outcomes(&entry.test, model);
            assert_eq!(
                ax.finals,
                op.canonical(),
                "{} under {}: axiomatic and operational final-state sets differ",
                entry.test.name,
                model.label()
            );
        }
    }
}

#[test]
fn interesting_outcome_verdicts_agree_on_the_hand_suite() {
    for entry in full_suite() {
        for model in MODELS {
            let op = explore(&entry.test, model)
                .allows_with_memory(&entry.test.interesting, &entry.test.memory);
            let ax = axiomatic_outcomes(&entry.test, model)
                .allows_with_memory(&entry.test.interesting, &entry.test.memory);
            assert_eq!(
                ax,
                op,
                "{} under {}: axiomatic allows={ax}, explorer allows={op}",
                entry.test.name,
                model.label()
            );
        }
    }
}

#[test]
fn suite_expectations_hold_axiomatically() {
    // The hand-recorded per-model expectations are a third voice: the
    // axiomatic oracle must reproduce them without consulting the explorer.
    for entry in full_suite() {
        for &(model, expected) in &entry.expect {
            let ax = axiomatic_outcomes(&entry.test, model)
                .allows_with_memory(&entry.test.interesting, &entry.test.memory);
            assert_eq!(
                ax,
                expected,
                "{} under {}: expectation says allowed={expected}",
                entry.test.name,
                model.label()
            );
        }
    }
}
