//! `oracle_diff`: both litmus oracles — the operational explorer and the
//! axiomatic checker — decide every test of a pinned slice under SC, TSO,
//! ARMv8 and POWER, and their final-state sets must be equal.
//!
//! The slice is the hand suite plus every [`STRIDE`]-th differential-corpus
//! test within [`MAX_SHAPE`] (threads × stores ≤ 9, at most 8
//! operations). It keeps a heavy tail: most tests visit a few hundred
//! explorer states, while the 3- and 4-thread POWER shapes reach 10^4 and
//! take a few hundred milliseconds each. Larger shapes (10^5–10^6 states,
//! up to 15 s and a gigabyte each) would let one test decide a pass's
//! length and memory, so they are left out. Tests are submitted heaviest
//! shape first, so the pass's length does not hang on where a heavy test
//! lands.
//!
//! The slice is pinned and both oracles are deterministic, so the seed
//! changes nothing here: every seed runs the same inputs in the same
//! order and has the same checksum.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use wmm_analyze::differential_corpus;
use wmm_axiom::axiomatic_outcomes;
use wmm_bench::streams::MODELS;
use wmm_harness::{run_keyed, run_keyed_indexed, Fnv128};
use wmm_litmus::explore::explore;
use wmm_litmus::ops::LitmusTest;
use wmm_litmus::suite::full_suite;

use crate::layers::Tracer;
use crate::run::{Check, Workload};

/// Per-model state-count metric names, in the order of the four models
/// every test is decided under ([`MODELS`]: SC, TSO, ARMv8, POWER).
const STATE_METRICS: [&str; 4] = [
    "litmus.states.sc",
    "litmus.states.tso",
    "litmus.states.armv8",
    "litmus.states.power",
];

/// Largest `(threads × stores, operations)` of a generated test in the
/// slice.
pub const MAX_SHAPE: (usize, usize) = (9, 8);

/// Stride over the generated tests within [`MAX_SHAPE`].
pub const STRIDE: usize = 4;

/// Checksum of the slice's axiomatic final-state sets.
pub const PINNED: u64 = 0x3497_9660_3144_3e8f;

/// Final `(registers, memory)` states.
type Finals = BTreeSet<(Vec<Vec<u32>>, Vec<u32>)>;

/// One test's verdict.
pub struct Verdict {
    /// Position of the test in corpus order.
    pub index: usize,
    /// Axiomatic final states per model.
    pub finals: [Finals; 4],
    /// The two oracles' final-state sets are equal under every model.
    pub agree: bool,
}

/// The `oracle_diff` workload.
pub struct OracleDiff {
    /// The slice in corpus order.
    tests: Vec<LitmusTest>,
    /// Submission order: heaviest shape first.
    order: Vec<usize>,
    threads: usize,
}

/// Static size of a test's state space: (threads × stores, operations).
fn shape(t: &LitmusTest) -> (usize, usize) {
    let stores = t.threads.iter().flatten().filter(|o| o.is_store()).count();
    let ops = t.threads.iter().map(Vec::len).sum();
    (t.threads.len() * stores, ops)
}

impl OracleDiff {
    /// Build the slice: the hand suite, then the corpus stride.
    #[must_use]
    pub fn setup(threads: usize) -> OracleDiff {
        let mut tests: Vec<LitmusTest> = full_suite().into_iter().map(|e| e.test).collect();
        tests.extend(
            differential_corpus()
                .into_iter()
                .filter(|t| {
                    let (size, ops) = shape(t);
                    size <= MAX_SHAPE.0 && ops <= MAX_SHAPE.1
                })
                .step_by(STRIDE),
        );
        let mut order: Vec<usize> = (0..tests.len()).collect();
        // Stable: corpus order survives within each shape.
        order.sort_by_key(|&i| std::cmp::Reverse(shape(&tests[i])));
        OracleDiff {
            tests,
            order,
            threads,
        }
    }

    /// Decide one test under every model, untraced.
    fn decide(&self, index: usize) -> Verdict {
        let test = &self.tests[index];
        let mut agree = true;
        let finals = MODELS.map(|model| {
            let ax = axiomatic_outcomes(test, model);
            agree &= ax.finals == explore(test, model).canonical();
            ax.finals
        });
        Verdict {
            index,
            finals,
            agree,
        }
    }

    /// [`Self::decide`] with each oracle call in a span on `worker`'s track.
    fn decide_traced(&self, t: &Tracer, worker: usize, index: usize) -> Verdict {
        let test = &self.tests[index];
        let tid = worker as u64 + 1;
        let mut agree = true;
        let mut m = 0;
        let finals = MODELS.map(|model| {
            let op = t.time("litmus.explore", tid, || explore(test, model));
            let ax = t.time("axiom.enumerate", tid, || axiomatic_outcomes(test, model));
            t.add("litmus.states", op.states_visited as f64);
            t.add(STATE_METRICS[m], op.states_visited as f64);
            t.add("axiom.candidates", ax.candidates as f64);
            t.add("axiom.consistent", ax.consistent as f64);
            m += 1;
            agree &= ax.finals == op.canonical();
            ax.finals
        });
        Verdict {
            index,
            finals,
            agree,
        }
    }
}

impl Workload for OracleDiff {
    type Output = Vec<Verdict>;

    fn units(&self) -> u64 {
        self.tests.len() as u64
    }

    fn pinned(&self) -> u64 {
        PINNED
    }

    fn pass(&mut self) -> Vec<Verdict> {
        run_keyed(&self.order, self.threads, |&i| self.decide(i))
    }

    fn traced_pass(&mut self, t: &Tracer) -> (Vec<Verdict>, Duration) {
        let verdicts = t.time("harness.run_batch", 0, || {
            run_keyed_indexed(&self.order, self.threads, |worker, &i| {
                let t0 = Instant::now();
                let v = self.decide_traced(t, worker, i);
                t.add("harness.busy_ms", t0.elapsed().as_secs_f64() * 1e3);
                v
            })
        });
        (verdicts, Duration::ZERO)
    }

    fn check(&self, out: &Vec<Verdict>) -> Check {
        let mut sorted: Vec<&Verdict> = out.iter().collect();
        sorted.sort_by_key(|v| v.index);
        let mut h = Fnv128::new();
        for v in &sorted {
            h.bytes(self.tests[v.index].name.as_bytes());
            for finals in &v.finals {
                h.u64(finals.len() as u64);
                for (regs, mem) in finals {
                    for values in regs.iter().chain([mem]) {
                        h.u64(values.len() as u64);
                        for &v in values {
                            h.u64(u64::from(v));
                        }
                    }
                }
            }
        }
        Check {
            failed: out.iter().filter(|v| !v.agree).count() as u64,
            checksum: h.finish() as u64,
        }
    }
}
