//! The explorers' state spaces, pinned.
//!
//! Equal final-state sets do not prove two state encodings equivalent: an
//! encoding that merged distinct states (or split one state in two) could
//! still reach the same finals while visiting a different number of states.
//! [`REFERENCE`] pins the test-only reference explorer (`reference/mod.rs`);
//! its counts were recorded from the nested-`Vec` explorer that preceded
//! the packed encoding. [`CANONICAL`] pins the library explorer, whose
//! states merge commits to different variables and never run weak fence
//! markers. Any change to either table is a change of semantics or of
//! state identity, not of speed; the canonical explorer may never visit
//! more states than the reference.

mod reference;

use wmm_litmus::suite::full_suite;
use wmm_litmus::{explore, LitmusTest, ModelKind, OutcomeSet};

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// Reference `states_visited` per hand-suite test under SC, TSO, ARMv8 and
/// POWER.
const REFERENCE: [(&str, [usize; 4]); 30] = [
    ("SB", [17, 34, 34, 72]),
    ("SB+dmbs", [31, 31, 31, 53]),
    ("SB+lwsyncs", [68, 136, 136, 296]),
    ("MP", [13, 13, 34, 72]),
    ("MP+dmbs", [22, 22, 22, 30]),
    ("MP+dmb.st+addr", [26, 26, 26, 58]),
    ("MP+lwsync+addr", [26, 26, 26, 46]),
    ("MP+rel+acq", [13, 13, 13, 22]),
    ("MP+dmb.st+ctrl", [26, 26, 38, 78]),
    ("MP+dmb.st+ctrlisb", [26, 26, 26, 58]),
    ("MP+dmb.st+dmb.ld", [52, 52, 52, 116]),
    ("LB", [14, 14, 34, 72]),
    ("LB+datas", [14, 14, 14, 20]),
    ("WRC+data+addr", [42, 42, 42, 220]),
    ("WRC+sync+addr", [53, 53, 53, 225]),
    ("IRIW+addrs", [133, 133, 133, 3049]),
    ("IRIW+syncs", [230, 230, 230, 3968]),
    ("IRIW+lwsyncs", [532, 532, 532, 12484]),
    ("CoRR", [9, 9, 9, 11]),
    ("S", [14, 14, 43, 175]),
    ("S+dmb+data", [18, 18, 18, 34]),
    ("2+2W", [19, 19, 65, 441]),
    ("2+2W+dmb.sts", [76, 76, 76, 660]),
    ("R", [17, 25, 43, 175]),
    ("R+dmbs", [31, 31, 31, 64]),
    ("ISA2", [69, 69, 314, 7280]),
    ("ISA2+dmbs", [141, 141, 141, 681]),
    ("ISA2+sync+data+addr", [90, 90, 90, 536]),
    ("SB+rel+acq", [17, 34, 17, 72]),
    ("CoWW", [3, 3, 3, 3]),
];

/// Canonical (library) `states_visited`, same tests and models.
const CANONICAL: [(&str, [usize; 4]); 30] = [
    ("SB", [13, 25, 25, 48]),
    ("SB+dmbs", [22, 22, 22, 31]),
    ("SB+lwsyncs", [13, 25, 25, 48]),
    ("MP", [13, 13, 25, 48]),
    ("MP+dmbs", [22, 22, 22, 30]),
    ("MP+dmb.st+addr", [13, 13, 13, 27]),
    ("MP+lwsync+addr", [13, 13, 13, 22]),
    ("MP+rel+acq", [13, 13, 13, 22]),
    ("MP+dmb.st+ctrl", [13, 13, 19, 38]),
    ("MP+dmb.st+ctrlisb", [13, 13, 13, 27]),
    ("MP+dmb.st+dmb.ld", [13, 13, 13, 27]),
    ("LB", [13, 13, 25, 48]),
    ("LB+datas", [13, 13, 13, 19]),
    ("WRC+data+addr", [36, 36, 36, 156]),
    ("WRC+sync+addr", [47, 47, 47, 161]),
    ("IRIW+addrs", [97, 97, 97, 1641]),
    ("IRIW+syncs", [166, 166, 166, 2164]),
    ("IRIW+lwsyncs", [97, 97, 97, 1641]),
    ("CoRR", [9, 9, 9, 11]),
    ("S", [13, 13, 25, 87]),
    ("S+dmb+data", [17, 17, 17, 33]),
    ("2+2W", [13, 13, 25, 153]),
    ("2+2W+dmb.sts", [13, 13, 13, 77]),
    ("R", [13, 19, 25, 87]),
    ("R+dmbs", [22, 22, 22, 41]),
    ("ISA2", [51, 51, 125, 1720]),
    ("ISA2+dmbs", [109, 109, 109, 400]),
    ("ISA2+sync+data+addr", [66, 66, 66, 303]),
    ("SB+rel+acq", [13, 25, 13, 48]),
    ("CoWW", [3, 3, 3, 3]),
];

/// Every pin of `pins` that `explore` no longer visits.
fn drift(
    explore: fn(&LitmusTest, ModelKind) -> OutcomeSet,
    pins: &[(&str, [usize; 4])],
) -> Vec<String> {
    let suite = full_suite();
    let names: Vec<&str> = suite.iter().map(|e| e.test.name.as_str()).collect();
    let pinned: Vec<&str> = pins.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "the hand suite changed: re-pin its states");
    let mut drift = vec![];
    for (entry, &(name, want)) in suite.iter().zip(pins) {
        let got = MODELS.map(|m| explore(&entry.test, m).states_visited);
        if got != want {
            drift.push(format!("{name}: pinned {want:?}, visited {got:?}"));
        }
    }
    drift
}

#[test]
fn hand_suite_state_counts_are_pinned() {
    let drift = drift(reference::explore, &REFERENCE);
    assert!(
        drift.is_empty(),
        "reference state space moved:\n{}",
        drift.join("\n")
    );
}

#[test]
fn canonical_state_counts_are_pinned() {
    let drift = drift(explore, &CANONICAL);
    assert!(
        drift.is_empty(),
        "canonical state space moved:\n{}",
        drift.join("\n")
    );
}

#[test]
fn canonical_never_visits_more_states_than_reference() {
    for (&(name, canonical), &(_, reference)) in CANONICAL.iter().zip(&REFERENCE) {
        for (m, model) in MODELS.iter().enumerate() {
            assert!(
                canonical[m] <= reference[m],
                "{name} under {model:?}: canonical {} > reference {}",
                canonical[m],
                reference[m]
            );
        }
    }
}
