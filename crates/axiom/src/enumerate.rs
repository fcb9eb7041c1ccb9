//! The axiomatic oracle's outcome enumeration: every consistent candidate
//! execution folded into a final-state set with the same shape as the
//! operational explorer's [`wmm_litmus::OutcomeSet`], so the two oracles
//! compare exactly (set equality, not just per-assertion agreement).

use std::collections::BTreeSet;

use wmm_litmus::ops::{LitmusTest, ModelKind, Outcome};

use crate::axioms::{Axiom, Checker};
use crate::events::EventGraph;
use crate::witness::{Witness, Witnesses};

/// The axiomatically-allowed final states of a test under one model.
#[derive(Debug, Clone)]
pub struct AxOutcomeSet {
    /// Final `(registers, memory)` pairs of every consistent candidate —
    /// ordered, so comparison and iteration are deterministic.
    pub finals: BTreeSet<(Vec<Vec<u32>>, Vec<u32>)>,
    /// Candidate executions enumerated.
    pub candidates: usize,
    /// Candidates that passed every axiom.
    pub consistent: usize,
    /// How often each axiom was the first to reject a candidate, in
    /// [`Axiom`] diagnostic order.
    pub rejected_by: [usize; 4],
}

impl AxOutcomeSet {
    /// Is the conjunctive register assertion reachable?
    #[must_use]
    pub fn allows(&self, outcome: &Outcome) -> bool {
        self.finals
            .iter()
            .any(|(f, _)| outcome.iter().all(|&(t, r, v)| f[t][r] == v))
    }

    /// Is the combined register + final-memory assertion reachable?
    #[must_use]
    pub fn allows_with_memory(&self, outcome: &Outcome, memory: &[(usize, u32)]) -> bool {
        self.finals.iter().any(|(regs, mem)| {
            outcome.iter().all(|&(t, r, v)| regs[t][r] == v)
                && memory
                    .iter()
                    .all(|&(var, v)| mem.get(var).copied().unwrap_or(0) == v)
        })
    }
}

/// Enumerate candidates, check axioms, fold consistent finals.
#[must_use]
pub fn axiomatic_outcomes(test: &LitmusTest, model: ModelKind) -> AxOutcomeSet {
    let g = EventGraph::new(test);
    let mut checker = Checker::new(&g, model);
    let mut witnesses = Witnesses::new(&g);
    let mut fin = Witness::blank_final(&g);
    let mut finals = BTreeSet::new();
    let mut candidates = 0;
    let mut consistent = 0;
    let mut rejected_by = [0usize; 4];
    while let Some(w) = witnesses.next() {
        candidates += 1;
        let verdict = checker.check(w);
        if verdict.allowed {
            consistent += 1;
            w.write_final(&g, &mut fin);
            if !finals.contains(&fin) {
                finals.insert(fin.clone());
            }
        } else {
            let idx = match verdict.violated.expect("forbidden names an axiom") {
                Axiom::ScPerLocation => 0,
                Axiom::NoThinAir => 1,
                Axiom::Propagation => 2,
                Axiom::Observation => 3,
            };
            rejected_by[idx] += 1;
        }
    }
    AxOutcomeSet {
        finals,
        candidates,
        consistent,
        rejected_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::suite;
    use ModelKind::{ArmV8, Power, Sc, Tso};

    #[test]
    fn sb_allow_forbid_matches_the_textbook() {
        let sb = suite::store_buffering().test;
        assert!(!axiomatic_outcomes(&sb, Sc).allows(&sb.interesting));
        assert!(axiomatic_outcomes(&sb, Tso).allows(&sb.interesting));
        assert!(axiomatic_outcomes(&sb, ArmV8).allows(&sb.interesting));
        assert!(axiomatic_outcomes(&sb, Power).allows(&sb.interesting));
    }

    #[test]
    fn corr_forbidden_everywhere_by_sc_per_location() {
        let t = suite::corr().test;
        for model in [Sc, Tso, ArmV8, Power] {
            let out = axiomatic_outcomes(&t, model);
            assert!(!out.allows(&t.interesting), "{model:?}");
            assert!(out.rejected_by[0] > 0, "coherence must do the rejecting");
        }
    }

    #[test]
    fn iriw_splits_on_multi_copy_atomicity() {
        let t = suite::iriw_addrs().test;
        assert!(axiomatic_outcomes(&t, Power).allows(&t.interesting));
        assert!(!axiomatic_outcomes(&t, ArmV8).allows(&t.interesting));
        let s = suite::iriw_syncs().test;
        assert!(!axiomatic_outcomes(&s, Power).allows(&s.interesting));
    }
}
