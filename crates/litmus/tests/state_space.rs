//! The explorer's state space, pinned.
//!
//! Equal final-state sets do not prove two state encodings equivalent: an
//! encoding that merged distinct states (or split one state in two) could
//! still reach the same finals while visiting a different number of states.
//! These counts were recorded from the nested-`Vec` explorer that preceded
//! the packed encoding; any change to them is a change of semantics or of
//! state identity, not of speed.

use wmm_litmus::suite::full_suite;
use wmm_litmus::{explore, ModelKind};

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// `states_visited` per hand-suite test under SC, TSO, ARMv8 and POWER.
const STATES: [(&str, [usize; 4]); 30] = [
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

#[test]
fn hand_suite_state_counts_are_pinned() {
    let suite = full_suite();
    let names: Vec<&str> = suite.iter().map(|e| e.test.name.as_str()).collect();
    let pinned: Vec<&str> = STATES.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "the hand suite changed: re-pin its states");
    let mut drift = vec![];
    for (entry, &(name, want)) in suite.iter().zip(&STATES) {
        let got = MODELS.map(|m| explore(&entry.test, m).states_visited);
        if got != want {
            drift.push(format!("{name}: pinned {want:?}, visited {got:?}"));
        }
    }
    assert!(drift.is_empty(), "state space moved:\n{}", drift.join("\n"));
}
