//! Model-strength monotonicity over the *generated* corpus, as a property
//! test: on the plain + fence + dependency fragment (no acquire/release —
//! PR 2 established that `ARMv8`'s RCsc rule makes the models incomparable
//! once release/acquire pairs appear), the reachable final-state sets must
//! nest along the strength order:
//!
//! - `finals(Sc) ⊆ finals(Tso)`
//! - `finals(Sc) ⊆ finals(ArmV8) ⊆ finals(Power)`
//!
//! (TSO vs `ARMv8` stay unordered either way: TSO's implicit store
//! atomicity and `ARMv8`'s reordering freedom cut across each other.)
//!
//! Checked on the axiomatic oracle for every sampled test and
//! cross-checked on the operational explorer for a smaller deterministic
//! stride — both oracles must exhibit the same nesting.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wmm_axiom::axiomatic_outcomes;
use wmm_litmus::explore;
use wmm_litmus::ops::{LOp, LitmusTest, ModelKind};

/// Plain + fence + dependency fragment: no acquire loads, no release
/// stores. Generated once — proptest re-enters per case.
fn plain_fragment() -> &'static [LitmusTest] {
    static FRAGMENT: std::sync::OnceLock<Vec<LitmusTest>> = std::sync::OnceLock::new();
    FRAGMENT.get_or_init(|| {
        wmm_analyze::differential_corpus()
            .into_iter()
            .filter(|t| {
                t.threads.iter().flatten().all(|op| match *op {
                    LOp::Store { release, .. } => !release,
                    LOp::Load { acquire, .. } => !acquire,
                    LOp::Fence(_) => true,
                })
            })
            .collect()
    })
}

type Finals = BTreeSet<(Vec<Vec<u32>>, Vec<u32>)>;

fn assert_nested(name: &str, weak_label: &str, strong: &Finals, weak: &Finals) {
    assert!(
        strong.is_subset(weak),
        "{name}: a final state reachable under the stronger model vanished under {weak_label}"
    );
}

fn check_nesting(test: &LitmusTest, mut finals_of: impl FnMut(ModelKind) -> Finals) {
    let sc = finals_of(ModelKind::Sc);
    let tso = finals_of(ModelKind::Tso);
    let arm = finals_of(ModelKind::ArmV8);
    let power = finals_of(ModelKind::Power);
    assert_nested(&test.name, "TSO", &sc, &tso);
    assert_nested(&test.name, "ARMv8", &sc, &arm);
    assert_nested(&test.name, "POWER", &arm, &power);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Axiomatic oracle: strength nesting on a property-sampled test.
    #[test]
    fn axiomatic_finals_nest_by_model_strength(idx in 0usize..10_000) {
        let corpus = plain_fragment();
        let test = &corpus[idx % corpus.len()];
        check_nesting(test, |m| axiomatic_outcomes(test, m).finals);
    }
}

/// Operational explorer: same nesting on a fixed deterministic stride of
/// the 2–3-thread slice. The explorer pays per interleaving, not per
/// witness, so the 4-thread tests are left to `axiom_diff`, whose
/// finals-set equality check transfers the axiomatic nesting result to
/// the operational oracle wholesale.
#[test]
fn operational_finals_nest_by_model_strength() {
    let corpus: Vec<&LitmusTest> = plain_fragment()
        .iter()
        .filter(|t| t.threads.len() <= 3)
        .collect();
    for test in corpus.iter().step_by(corpus.len().div_ceil(48)) {
        check_nesting(test, |m| explore(test, m).canonical());
    }
}
