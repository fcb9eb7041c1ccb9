//! Shared workload for whole-program synthesis: generated-corpus bundles.
//!
//! `fence_synth_wps` (the validating campaign) and the repository
//! benchmark drive the same inputs — parallel-composition bundles packed
//! from the differential corpus under whole-program size caps — so the
//! bundle builder and the placement-slicing helper live here.

use wmm_analyze::{
    check_cycle, critical_cycles, differential_corpus, Instrument, Placement, ProgramGraph,
};
use wmm_litmus::ops::ModelKind;
use wmm_litmus::LitmusTest;

/// Synthesis model for every whole-program instance. ARMv8 keeps all
/// fence classes and upgrade candidates live, so it exercises the solver
/// hardest.
pub const WPS_MODEL: ModelKind = ModelKind::ArmV8;

/// Bundle packing caps (whole-program scale: up to 16 threads / 64
/// accesses per stitched program).
pub const MAX_BUNDLE_THREADS: usize = 16;
/// Access cap per bundle.
pub const MAX_BUNDLE_ACCESSES: usize = 64;
/// Generated-test floor the validating run must clear.
pub const MIN_BUNDLED_TESTS: usize = 128;

/// Open-leg floor for the stress bundles: packed from the leg-heaviest
/// corpus tests so the greedy tier's constraint bound actually bites.
pub const STRESS_LEG_TARGET: usize = 14;
/// Number of stress bundles packed after the corpus-ordered head.
pub const STRESS_BUNDLES: usize = 3;

/// A parallel-composition bundle: the union graph plus each constituent
/// test with its thread offset inside the union.
pub struct Bundle {
    /// Stable bundle label (`bundle{NNN}` in packing order).
    pub label: String,
    /// The union graph the whole-program pipeline runs on.
    pub graph: ProgramGraph,
    /// Constituent tests with their thread offsets inside the union.
    pub parts: Vec<(LitmusTest, usize)>,
    /// Stress bundles additionally run (and validate) a forced
    /// greedy-tier solve.
    pub stress: bool,
}

/// Pack the head of the differential corpus into bundles under the
/// thread/access caps until at least `min_tests` tests are in, then
/// append [`STRESS_BUNDLES`] leg-heavy stress bundles.
#[must_use]
pub fn make_bundles(min_tests: usize) -> Vec<Bundle> {
    let mut bundles: Vec<Bundle> = vec![];
    let mut cur: Vec<(LitmusTest, ProgramGraph)> = vec![];
    let (mut threads, mut accesses, mut packed) = (0usize, 0usize, 0usize);
    let flush = |cur: &mut Vec<(LitmusTest, ProgramGraph)>, bundles: &mut Vec<Bundle>, stress| {
        if cur.is_empty() {
            return;
        }
        let label = format!("bundle{:03}", bundles.len());
        let graphs: Vec<&ProgramGraph> = cur.iter().map(|(_, g)| g).collect();
        let graph = ProgramGraph::disjoint_union(&label, &graphs);
        let mut off = 0usize;
        let parts = cur
            .drain(..)
            .map(|(t, g)| {
                let part = (t, off);
                off += g.threads.len();
                part
            })
            .collect();
        bundles.push(Bundle {
            label,
            graph,
            parts,
            stress,
        });
    };
    let corpus = differential_corpus();
    for test in &corpus {
        if packed >= min_tests {
            break;
        }
        let g = ProgramGraph::from_litmus(test);
        let (nt, na) = (g.threads.len(), g.accesses.len());
        if threads + nt > MAX_BUNDLE_THREADS || accesses + na > MAX_BUNDLE_ACCESSES {
            flush(&mut cur, &mut bundles, false);
            threads = 0;
            accesses = 0;
        }
        threads += nt;
        accesses += na;
        packed += 1;
        cur.push((test.clone(), g));
    }
    flush(&mut cur, &mut bundles, false);

    // Stress bundles: pack the leg-heaviest corpus tests together so the
    // reorder bound has the most constraints to drop. These bundles also
    // run a forced greedy-tier solve whose placement ships through the
    // same static + dual-oracle dynamic validation as every other.
    let mut ranked: Vec<(usize, usize)> = corpus
        .iter()
        .enumerate()
        .map(|(i, test)| (i, open_leg_count(&ProgramGraph::from_litmus(test))))
        .collect();
    ranked.sort_by_key(|&(i, legs)| (std::cmp::Reverse(legs), i));
    let (mut legs_sum, mut made) = (0usize, 0usize);
    (threads, accesses) = (0, 0);
    for &(i, legs) in &ranked {
        if made >= STRESS_BUNDLES {
            break;
        }
        let g = ProgramGraph::from_litmus(&corpus[i]);
        let (nt, na) = (g.threads.len(), g.accesses.len());
        if threads + nt > MAX_BUNDLE_THREADS || accesses + na > MAX_BUNDLE_ACCESSES {
            flush(&mut cur, &mut bundles, true);
            (threads, accesses, legs_sum) = (0, 0, 0);
            made += 1;
            continue;
        }
        threads += nt;
        accesses += na;
        legs_sum += legs;
        cur.push((corpus[i].clone(), g));
        if legs_sum >= STRESS_LEG_TARGET {
            flush(&mut cur, &mut bundles, true);
            (threads, accesses, legs_sum) = (0, 0, 0);
            made += 1;
        }
    }
    cur.clear();
    bundles
}

/// Distinct reorderable (multi-access) legs across a graph's open cycles
/// under [`WPS_MODEL`] — the same instance-size measure the exact cap
/// checks.
#[must_use]
pub fn open_leg_count(g: &ProgramGraph) -> usize {
    let mut legs: Vec<(usize, usize)> = critical_cycles(g)
        .iter()
        .filter(|c| !check_cycle(g, WPS_MODEL, c).protected)
        .flat_map(|c| c.legs.iter().copied().filter(|&(e, x)| e != x))
        .collect();
    legs.sort_unstable();
    legs.dedup();
    legs.len()
}

/// The slice of a bundle placement owned by the part whose threads start
/// at `off` (bundle parts share no locations, so every cycle — and every
/// instrument covering one — lives inside a single part).
#[must_use]
pub fn slice_placement(p: &Placement, off: usize, nthreads: usize) -> Placement {
    let shift = |thread: usize| thread - off;
    let instruments = p
        .instruments
        .iter()
        .filter(|ins| {
            let t = match **ins {
                Instrument::Fence { thread, .. }
                | Instrument::Acquire { thread, .. }
                | Instrument::Release { thread, .. }
                | Instrument::Dep { thread, .. } => thread,
            };
            (off..off + nthreads).contains(&t)
        })
        .map(|ins| match *ins {
            Instrument::Fence { thread, slot, kind } => Instrument::Fence {
                thread: shift(thread),
                slot,
                kind,
            },
            Instrument::Acquire { thread, pos } => Instrument::Acquire {
                thread: shift(thread),
                pos,
            },
            Instrument::Release { thread, pos } => Instrument::Release {
                thread: shift(thread),
                pos,
            },
            Instrument::Dep {
                thread,
                from_pos,
                to_pos,
                kind,
            } => Instrument::Dep {
                thread: shift(thread),
                from_pos,
                to_pos,
                kind,
            },
        })
        .collect();
    Placement {
        instruments,
        cost_ns: 0.0,
        rounds: p.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_respect_caps_and_floor() {
        let bundles = make_bundles(MIN_BUNDLED_TESTS);
        let packed: usize = bundles.iter().map(|b| b.parts.len()).sum();
        assert!(packed >= MIN_BUNDLED_TESTS);
        assert!(bundles.iter().any(|b| b.stress));
        for b in &bundles {
            assert!(b.graph.threads.len() <= MAX_BUNDLE_THREADS, "{}", b.label);
            assert!(b.graph.accesses.len() <= MAX_BUNDLE_ACCESSES, "{}", b.label);
            let total: usize = b.parts.iter().map(|(t, _)| t.threads.len()).sum();
            assert_eq!(total, b.graph.threads.len());
        }
    }

    #[test]
    fn slicing_partitions_a_bundle_placement() {
        use wmm_analyze::{synthesize, CostModel, SynthConfig};
        let bundles = make_bundles(8);
        let b = &bundles[0];
        let p = synthesize(
            &b.graph,
            SynthConfig::for_model(WPS_MODEL),
            &CostModel::static_table(),
        )
        .expect("bundle synth");
        let sliced: usize = b
            .parts
            .iter()
            .map(|(t, off)| slice_placement(&p, *off, t.threads.len()).instruments.len())
            .sum();
        assert_eq!(sliced, p.instruments.len());
    }
}
