//! The fence-lint probes of `analyze` re-check only the cycles a fence
//! lies on. These tests hold the result equal to the exhaustive probe,
//! which re-checks every cycle with the fence removed or re-classed, on
//! the hand suite, the stitched lock-free programs (bare and with a
//! synthesized placement applied) and a stride of the generated corpus,
//! under all four models.

use wmm_analyze::{
    analyze, apply_to_graph, check_cycle, check_cycle_without, critical_cycles, generate_all,
    synthesize, CostModel, ProgramGraph, SynthConfig,
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

/// Redundant fences and downgrades, probed over every cycle.
fn exhaustive_lints(g: &ProgramGraph, model: ModelKind) -> (Vec<usize>, Vec<(usize, FClass)>) {
    let cycles = critical_cycles(g);
    let verdicts: Vec<bool> = cycles
        .iter()
        .map(|c| check_cycle(g, model, c).protected)
        .collect();
    let redundant: Vec<usize> = (0..g.fences.len())
        .filter(|&f| {
            cycles
                .iter()
                .zip(&verdicts)
                .all(|(c, &v)| check_cycle_without(g, model, c, Some(f)).protected == v)
        })
        .collect();
    let mut downgrade = vec![];
    for f in 0..g.fences.len() {
        if redundant.contains(&f) || g.fences[f].class != FClass::Full {
            continue;
        }
        let options: &[FClass] = if model == ModelKind::Power {
            &[FClass::LwSync]
        } else {
            &[FClass::StSt, FClass::LdLdSt]
        };
        for &to in options {
            let mut weaker = g.clone();
            weaker.fences[f].class = to;
            if cycles
                .iter()
                .zip(&verdicts)
                .all(|(c, &v)| check_cycle(&weaker, model, c).protected == v)
            {
                downgrade.push((f, to));
                break;
            }
        }
    }
    (redundant, downgrade)
}

fn assert_probes_exhaustive(g: &ProgramGraph, model: ModelKind) {
    let a = analyze(g, model);
    let (redundant, downgrade) = exhaustive_lints(g, model);
    let at = |f: usize| {
        (
            g.fences[f].thread,
            g.fences[f].slot,
            g.fences[f].mnemonic.clone(),
        )
    };
    let got: Vec<_> = a
        .redundant
        .iter()
        .map(|r| (r.thread, r.slot, r.mnemonic.clone()))
        .collect();
    let want: Vec<_> = redundant.iter().map(|&f| at(f)).collect();
    assert_eq!(got, want, "{} under {model:?}: redundant fences", g.name);
    let got: Vec<_> = a
        .downgrade
        .iter()
        .map(|d| (d.thread, d.slot, d.mnemonic.clone(), d.to_class))
        .collect();
    let want: Vec<_> = downgrade
        .iter()
        .map(|&(f, to)| {
            let (t, s, m) = at(f);
            (t, s, m, to)
        })
        .collect();
    assert_eq!(got, want, "{} under {model:?}: downgrades", g.name);
}

#[test]
fn hand_suite_lints_equal_the_exhaustive_probe() {
    for entry in full_suite() {
        let g = ProgramGraph::from_litmus(&entry.test);
        for model in MODELS {
            assert_probes_exhaustive(&g, model);
        }
    }
}

#[test]
fn stitched_program_lints_equal_the_exhaustive_probe() {
    let costs = CostModel::static_table();
    for p in StitchedProgram::all() {
        let g = p.graph();
        let mut graphs = vec![g.clone()];
        // A synthesized placement puts fences on the programs' cycles.
        let placement = synthesize(&g, SynthConfig::fences_only(ModelKind::ArmV8), &costs)
            .expect("ARMv8 fence synthesis");
        graphs.push(apply_to_graph(&g, &placement.instruments));
        assert!(
            graphs[1].fences.len() > graphs[0].fences.len(),
            "{}",
            p.name
        );
        for g in &graphs {
            for model in MODELS {
                assert_probes_exhaustive(g, model);
            }
        }
    }
}

#[test]
fn corpus_stride_lints_equal_the_exhaustive_probe() {
    for t in generate_all().iter().step_by(37) {
        let g = ProgramGraph::from_litmus(t);
        for model in MODELS {
            assert_probes_exhaustive(&g, model);
        }
    }
}
