//! The library's cycle enumerator and cycle check equal the reference
//! kernels they replaced (`reference/mod.rs`): the same cycles in the same
//! order, and the same verdict and uncut pairs for every cycle, under all
//! four models. Checked on the hand suite, the stitched lock-free
//! programs, the generated corpus, and disjoint unions of corpus graphs
//! (some past 64 threads), with every fence removed and re-classed in
//! turn on the hand suite, the stitched programs and the corpus.

mod reference;

use std::sync::OnceLock;

use wmm_analyze::{
    check_cycle, check_cycle_without, critical_cycles, generate_all, CommKind, CriticalCycle,
    ProgramGraph,
};
use wmm_dstruct::StitchedProgram;
use wmm_litmus::ops::{FClass, ModelKind};
use wmm_litmus::suite::full_suite;

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

const CLASSES: [FClass; 4] = [FClass::Full, FClass::LwSync, FClass::StSt, FClass::LdLdSt];

/// The generated corpus, built once.
fn corpus() -> &'static [ProgramGraph] {
    static CORPUS: OnceLock<Vec<ProgramGraph>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        generate_all()
            .iter()
            .map(ProgramGraph::from_litmus)
            .collect()
    })
}

type Shape = (Vec<(usize, usize)>, Vec<CommKind>);

fn shape(cycles: &[CriticalCycle]) -> Vec<Shape> {
    cycles
        .iter()
        .map(|c| (c.legs.clone(), c.comms.clone()))
        .collect()
}

/// `g`'s cycles, asserted equal to the reference enumerator's, in order.
fn cycles_equal_the_reference(g: &ProgramGraph) -> Vec<CriticalCycle> {
    let cycles = critical_cycles(g);
    assert_eq!(
        shape(&cycles),
        shape(&reference::critical_cycles(g)),
        "{}",
        g.name
    );
    cycles
}

/// Assert every check of `cycles` on `g` under every model equals the
/// reference check; with `probes`, also with each fence of `g` removed
/// and re-classed to each class.
fn checks_equal_the_reference(g: &ProgramGraph, cycles: &[CriticalCycle], probes: bool) {
    for model in MODELS {
        for (i, c) in cycles.iter().enumerate() {
            let same = |lib: wmm_analyze::CycleCheck, probe: reference::Probe| {
                let refc = reference::check_cycle(g, model, c, probe);
                assert_eq!(
                    (lib.protected, &lib.uncut),
                    (refc.protected, &refc.uncut),
                    "{} cycle {i} under {model:?}, probe {probe:?}",
                    g.name
                );
            };
            same(check_cycle(g, model, c), None);
            if !probes {
                continue;
            }
            for f in 0..g.fences.len() {
                same(check_cycle_without(g, model, c, Some(f)), Some((f, None)));
                for class in CLASSES {
                    let mut edited = g.clone();
                    edited.fences[f].class = class;
                    same(check_cycle(&edited, model, c), Some((f, Some(class))));
                }
            }
        }
    }
}

#[test]
fn hand_suite_and_stitched_programs_equal_the_reference() {
    let graphs = full_suite()
        .iter()
        .map(|e| ProgramGraph::from_litmus(&e.test))
        .chain(StitchedProgram::all().iter().map(StitchedProgram::graph))
        .collect::<Vec<_>>();
    for g in graphs {
        let cycles = cycles_equal_the_reference(&g);
        checks_equal_the_reference(&g, &cycles, true);
    }
}

#[test]
fn corpus_equals_the_reference() {
    for g in corpus() {
        let cycles = cycles_equal_the_reference(g);
        checks_equal_the_reference(g, &cycles, true);
    }
}

#[test]
fn corpus_bundles_equal_the_reference() {
    // Bundles of 24 consecutive corpus graphs run to 48–96 threads.
    let mut past_64 = 0;
    for (k, chunk) in corpus().chunks(24).enumerate().step_by(5) {
        let parts: Vec<&ProgramGraph> = chunk.iter().collect();
        let u = ProgramGraph::disjoint_union(format!("bundle{k}"), &parts);
        past_64 += usize::from(u.threads.len() > 64);
        let cycles = cycles_equal_the_reference(&u);
        checks_equal_the_reference(&u, &cycles, false);
    }
    assert!(past_64 > 0, "no bundle numbers a thread past 63");
}
