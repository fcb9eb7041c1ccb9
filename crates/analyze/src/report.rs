//! Whole-program analysis: protection verdict plus fence lints
//! (redundant fences and over-strong, downgradable ones).

use wmm_litmus::ops::{FClass, ModelKind};
use wmmbench::model::{estimate_cost, predicted_performance};

use crate::check::{check_cycle, check_cycle_edited, FenceEdit};
use crate::cycles::{critical_cycles, CriticalCycle};
use crate::graph::ProgramGraph;

/// An unprotected critical cycle: an execution the model allows that a
/// fencing strategy presumably meant to forbid.
#[derive(Debug, Clone)]
pub struct UnprotectedCycle {
    /// Rendering of the cycle (`t0:Wx ->po t0:Wy ->rf …`).
    pub cycle: String,
    /// The program-order pairs with no ordering mechanism — where a fence
    /// or dependency is missing, as `(from, to)` descriptions.
    pub missing: Vec<(String, String)>,
}

/// A fence whose removal changes no cycle's verdict under the model.
#[derive(Debug, Clone)]
pub struct RedundantFence {
    /// Owning thread.
    pub thread: usize,
    /// Fence slot (between access positions `slot - 1` and `slot`).
    pub slot: usize,
    /// Mnemonic (`dmb ish`, `lwsync`, …).
    pub mnemonic: String,
    /// Whether the fence lies between some cycle's leg pair at all. A
    /// fence off every cycle is dead weight; one *on* a cycle is covered
    /// by another mechanism (doubled fences flag each other).
    pub on_cycle: bool,
    /// Estimated per-invocation saving (ns) if removed, when the caller
    /// supplied a fence cost — the Eq. 1/Eq. 2 round-trip.
    pub saving_ns: Option<f64>,
    /// Estimated relative speedup (`1/p - 1`) at the given sensitivity.
    pub speedup_frac: Option<f64>,
    /// Set by [`Analysis::with_savings`] when pricing was requested but
    /// failed the finiteness guard (non-finite/non-positive cost, or a
    /// sensitivity outside `(0, 1)`): the lint stands, its price does not.
    pub unpriced: bool,
}

/// A needed fence that is over-strong: reclassifying it to `to_class`
/// (e.g. `dmb ish` → `dmb ishst`, `sync` → `lwsync`) changes no cycle's
/// verdict, so the weaker, cheaper encoding suffices.
#[derive(Debug, Clone)]
pub struct DowngradableFence {
    /// Owning thread.
    pub thread: usize,
    /// Fence slot (between access positions `slot - 1` and `slot`).
    pub slot: usize,
    /// Current mnemonic.
    pub mnemonic: String,
    /// The weakest sufficient class.
    pub to_class: FClass,
    /// Stream-style mnemonic of the replacement on this model
    /// (`DmbIshSt`, `LwSync`, …) — the key pricing cost functions use.
    pub to_mnemonic: String,
    /// Estimated per-invocation saving (ns) of the downgrade: the priced
    /// difference between the current and replacement fence.
    pub saving_ns: Option<f64>,
    /// Estimated relative speedup (`1/p - 1`) at the given sensitivity.
    pub speedup_frac: Option<f64>,
    /// Set when pricing was requested but failed the finiteness guard.
    pub unpriced: bool,
}

/// Full analysis of one program under one model.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Program name.
    pub program: String,
    /// Model checked.
    pub model: ModelKind,
    /// Number of critical cycles found.
    pub cycles: usize,
    /// Cycles the model can realise despite the program's fences.
    pub unprotected: Vec<UnprotectedCycle>,
    /// Fences that cut nothing the rest of the program doesn't already cut.
    pub redundant: Vec<RedundantFence>,
    /// Needed fences a weaker class would serve equally well.
    pub downgrade: Vec<DowngradableFence>,
}

impl Analysis {
    /// No unprotected cycles: every weak-execution scenario is forbidden.
    #[must_use]
    pub fn protected(&self) -> bool {
        self.unprotected.is_empty()
    }

    /// Attach Eq. 1 / Eq. 2 savings estimates to the redundancy and
    /// downgrade lints: `cost_ns(mnemonic)` is the measured per-fence cost
    /// and `k` the workload's fence sensitivity. The predicted saving
    /// round-trips through the performance model (Eq. 1 forward, Eq. 2
    /// back), the inversion the property test in `tests/properties.rs`
    /// guards. A redundant fence saves its whole cost; a downgrade saves
    /// the difference to its replacement.
    ///
    /// Pricing is guarded: a non-finite or non-positive cost, a `k`
    /// outside `(0, 1)`, or a non-finite round-trip result leaves the
    /// lint standing but `unpriced` — NaN must never masquerade as a
    /// savings estimate (the same failure class the regression gate
    /// rejects manifests for).
    #[must_use]
    pub fn with_savings(mut self, k: f64, cost_ns: impl Fn(&str) -> f64) -> Self {
        let price = |a: f64| -> Option<(f64, f64)> {
            if !(a.is_finite() && a > 0.0 && k.is_finite() && k > 0.0 && k < 1.0) {
                return None;
            }
            let p = predicted_performance(k, a);
            let saving = estimate_cost(k, p);
            let speedup = 1.0 / p - 1.0;
            (saving.is_finite() && speedup.is_finite()).then_some((saving, speedup))
        };
        for lint in &mut self.redundant {
            match price(cost_ns(&lint.mnemonic)) {
                Some((saving, speedup)) => {
                    lint.saving_ns = Some(saving);
                    lint.speedup_frac = Some(speedup);
                    lint.unpriced = false;
                }
                None => lint.unpriced = true,
            }
        }
        for lint in &mut self.downgrade {
            let delta = cost_ns(&lint.mnemonic) - cost_ns(&lint.to_mnemonic);
            match price(delta) {
                Some((saving, speedup)) => {
                    lint.saving_ns = Some(saving);
                    lint.speedup_frac = Some(speedup);
                    lint.unpriced = false;
                }
                None => lint.unpriced = true,
            }
        }
        self
    }
}

/// Stream-style mnemonic of a fence class on `model` — the key the
/// binaries' cost functions price by.
fn class_mnemonic(class: FClass, model: ModelKind) -> &'static str {
    match (class, model) {
        (FClass::Full, ModelKind::Power) => "HwSync",
        (FClass::Full, _) => "DmbIsh",
        (FClass::LwSync, _) => "LwSync",
        (FClass::StSt, _) => "DmbIshSt",
        (FClass::LdLdSt, _) => "DmbIshLd",
    }
}

/// Does fence `f` sit between the legs' entry and exit of `cyc`?
fn fence_on_cycle(g: &ProgramGraph, f: usize, cyc: &CriticalCycle) -> bool {
    let fence = &g.fences[f];
    cyc.legs.iter().any(|&(entry, exit)| {
        entry != exit
            && g.accesses[entry].thread == fence.thread
            && g.accesses[entry].pos < fence.slot
            && fence.slot <= g.accesses[exit].pos
    })
}

/// Analyse `g` under `model`: enumerate critical cycles, check each, and
/// probe every fence for redundancy (removal flips no verdict) and, if it
/// is a needed full barrier, for a downgrade (a weaker class flips none).
///
/// A probe re-checks only the cycles the fence lies on: a fence off every
/// leg of a cycle takes part in none of its pair cuts, so editing it
/// cannot change that cycle's verdict.
#[must_use]
pub fn analyze(g: &ProgramGraph, model: ModelKind) -> Analysis {
    let cycles = critical_cycles(g);
    let verdicts: Vec<_> = cycles.iter().map(|c| check_cycle(g, model, c)).collect();

    let unprotected = cycles
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| !v.protected)
        .map(|(c, v)| UnprotectedCycle {
            cycle: c.describe(g),
            missing: v
                .uncut
                .iter()
                .map(|&(a, b)| (g.describe(a), g.describe(b)))
                .collect(),
        })
        .collect();

    // Does every cycle fence `f` lies on keep its verdict under `edit`?
    let keeps_verdicts = |f: usize, edit: FenceEdit| {
        cycles
            .iter()
            .zip(&verdicts)
            .filter(|(c, _)| fence_on_cycle(g, f, c))
            .all(|(c, v)| check_cycle_edited(g, model, c, Some(edit)).protected == v.protected)
    };

    let mut redundant = vec![];
    let mut redundant_idx = vec![false; g.fences.len()];
    for (f, marked) in redundant_idx.iter_mut().enumerate() {
        if keeps_verdicts(
            f,
            FenceEdit {
                fence: f,
                class: None,
            },
        ) {
            *marked = true;
            redundant.push(RedundantFence {
                thread: g.fences[f].thread,
                slot: g.fences[f].slot,
                mnemonic: g.fences[f].mnemonic.clone(),
                on_cycle: cycles.iter().any(|c| fence_on_cycle(g, f, c)),
                saving_ns: None,
                speedup_frac: None,
                unpriced: false,
            });
        }
    }

    // Downgrade probe: a *needed* full barrier re-classed to the weakest
    // class that still preserves every cycle's verdict. Redundant fences
    // are skipped — the lint there is "remove it", not "weaken it".
    let mut downgrade = vec![];
    for (f, &is_redundant) in redundant_idx.iter().enumerate() {
        if is_redundant || g.fences[f].class != FClass::Full {
            continue;
        }
        // Weakest first, so the lint names the cheapest sufficient class.
        let options: &[FClass] = if model == ModelKind::Power {
            &[FClass::LwSync]
        } else {
            &[FClass::StSt, FClass::LdLdSt]
        };
        for &to in options {
            if keeps_verdicts(
                f,
                FenceEdit {
                    fence: f,
                    class: Some(to),
                },
            ) {
                downgrade.push(DowngradableFence {
                    thread: g.fences[f].thread,
                    slot: g.fences[f].slot,
                    mnemonic: g.fences[f].mnemonic.clone(),
                    to_class: to,
                    to_mnemonic: class_mnemonic(to, model).into(),
                    saving_ns: None,
                    speedup_frac: None,
                    unpriced: false,
                });
                break;
            }
        }
    }

    Analysis {
        program: g.name.clone(),
        model,
        cycles: cycles.len(),
        unprotected,
        redundant,
        downgrade,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::suite;
    use ModelKind::{ArmV8, Power, Sc};

    #[test]
    fn fenced_sb_is_protected_with_no_lints() {
        let g = ProgramGraph::from_litmus(&suite::sb_fences().test);
        let a = analyze(&g, ArmV8);
        assert!(a.protected());
        assert!(a.redundant.is_empty(), "{:?}", a.redundant);
    }

    #[test]
    fn bare_mp_reports_the_missing_pairs() {
        let g = ProgramGraph::from_litmus(&suite::message_passing().test);
        let a = analyze(&g, Power);
        assert!(!a.protected());
        assert_eq!(a.unprotected.len(), 1);
        assert_eq!(a.unprotected[0].missing.len(), 2);
    }

    #[test]
    fn fences_are_redundant_under_sc() {
        // SC needs no fences at all: every marker is pure overhead there.
        let g = ProgramGraph::from_litmus(&suite::mp_fences().test);
        let a = analyze(&g, Sc);
        assert!(a.protected());
        assert_eq!(a.redundant.len(), 2);
        assert!(a.redundant.iter().all(|r| r.on_cycle));
    }

    #[test]
    fn savings_round_trip_through_eq2() {
        let g = ProgramGraph::from_litmus(&suite::mp_fences().test);
        let a = analyze(&g, Sc).with_savings(0.05, |_| 17.3);
        for lint in &a.redundant {
            let ns = lint.saving_ns.expect("cost supplied");
            assert!((ns - 17.3).abs() < 1e-6, "{ns}");
            assert!(
                lint.speedup_frac.expect("priced lint has a speedup") > 0.0,
                "redundant fence should predict a positive speedup"
            );
            assert!(!lint.unpriced);
        }
    }

    #[test]
    fn non_finite_costs_flag_the_lint_instead_of_poisoning_it() {
        let g = ProgramGraph::from_litmus(&suite::mp_fences().test);
        // Infinite cost: Eq. 1 would predict p → 0 and Eq. 2 a NaN/∞
        // saving. The guard must leave the lint standing but unpriced.
        for bad in [f64::INFINITY, f64::NAN, -3.0, 0.0] {
            let a = analyze(&g, Sc).with_savings(0.05, |_| bad);
            assert!(!a.redundant.is_empty());
            for lint in &a.redundant {
                assert!(lint.saving_ns.is_none(), "cost {bad} must not price");
                assert!(lint.speedup_frac.is_none());
                assert!(lint.unpriced, "cost {bad} must flag the lint");
            }
        }
        // Invalid sensitivity is just as fatal for pricing.
        for bad_k in [f64::NAN, 0.0, 1.0, 2.0] {
            let a = analyze(&g, Sc).with_savings(bad_k, |_| 17.3);
            assert!(a.redundant.iter().all(|l| l.unpriced), "k={bad_k}");
        }
        // A later valid pricing run clears the flag.
        let a = analyze(&g, Sc)
            .with_savings(0.05, |_| f64::INFINITY)
            .with_savings(0.05, |_| 17.3);
        assert!(a.redundant.iter().all(|l| !l.unpriced));
    }

    #[test]
    fn over_strong_full_fence_is_downgradable() {
        // MP with full fences on ARMv8: the writer side only needs
        // store->store order and the reader side only load->load, so both
        // fences downgrade (to ishst and ishld respectively).
        let g = ProgramGraph::from_litmus(&suite::mp_fences().test);
        let a = analyze(&g, ArmV8);
        assert!(a.protected());
        assert_eq!(a.downgrade.len(), 2, "{:?}", a.downgrade);
        let to: Vec<&str> = a.downgrade.iter().map(|d| d.to_mnemonic.as_str()).collect();
        assert_eq!(to, vec!["DmbIshSt", "DmbIshLd"]);

        // Same program on POWER: sync where lwsync suffices, both sides.
        let a = analyze(&g, Power);
        assert!(a.downgrade.iter().all(|d| d.to_mnemonic == "LwSync"));
        assert_eq!(a.downgrade.len(), 2);
    }

    #[test]
    fn needed_full_strength_is_not_downgradable() {
        // SB needs store->load order: no weaker class suffices, and the
        // downgrade lint must stay silent.
        let g = ProgramGraph::from_litmus(&suite::sb_fences().test);
        for model in [ArmV8, Power] {
            let a = analyze(&g, model);
            assert!(a.protected());
            assert!(a.downgrade.is_empty(), "{model:?}: {:?}", a.downgrade);
        }
    }

    #[test]
    fn downgrade_savings_price_the_difference() {
        let g = ProgramGraph::from_litmus(&suite::mp_fences().test);
        let cost = |m: &str| match m {
            "dmb ish/sync" => 17.0,
            "DmbIshSt" => 2.3,
            "DmbIshLd" => 4.1,
            _ => 0.0,
        };
        let a = analyze(&g, ArmV8).with_savings(0.05, cost);
        let writer = &a.downgrade[0];
        let ns = writer.saving_ns.expect("priced");
        assert!((ns - (17.0 - 2.3)).abs() < 1e-6, "{ns}");
        assert!(!writer.unpriced);
    }
}
