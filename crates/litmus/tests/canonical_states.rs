//! The canonical explorer reaches exactly the reference explorer's final
//! states.
//!
//! The library explorer merges states that differ only in the commit order
//! of stores to different variables, and never runs weak fence markers.
//! Both merges must leave the reachable final states, registers and
//! memory, unchanged: this file checks that against the unreduced
//! reference explorer (`reference/mod.rs`) on the hand suite and on random
//! small tests, under all four models.

mod reference;

use proptest::prelude::*;
use wmm_litmus::suite::full_suite;
use wmm_litmus::{explore, DepKind, FClass, LOp, LitmusTest, ModelKind};

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// Largest `threads × stores` of a random test: the reference explorer's
/// POWER state space grows with that product (and with each weak marker),
/// and at 8 its slowest cases already take seconds in a test build.
const MAX_PRODUCT: usize = 8;

/// The first model under which the two explorers' final states differ.
fn first_difference(test: &LitmusTest) -> Option<String> {
    MODELS.into_iter().find_map(|model| {
        let canonical = explore(test, model).canonical();
        let reference = reference::explore(test, model).canonical();
        (canonical != reference).then(|| {
            format!(
                "{} under {model:?}: canonical-only {:?}, reference-only {:?}",
                test.name,
                canonical.difference(&reference).collect::<Vec<_>>(),
                reference.difference(&canonical).collect::<Vec<_>>(),
            )
        })
    })
}

#[test]
fn hand_suite_finals_equal_the_reference() {
    let diffs: Vec<String> = full_suite()
        .iter()
        .filter_map(|e| first_difference(&e.test))
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

/// One random op: `(kind, var, attribute)`. Kinds 0–2 are loads, 3–5
/// stores, 6–9 the four fence classes. A load's attribute makes it plain,
/// acquire, or address-, control- or ctrl+isb-dependent on the thread's
/// previous load; a store's makes it plain, release, or data- or
/// control-dependent on it.
type OpSpec = (u32, usize, u32);

fn dep_kind(attr: u32) -> DepKind {
    match attr {
        2 => DepKind::Addr,
        3 => DepKind::Ctrl,
        4 => DepKind::CtrlIsb,
        _ => DepKind::Data,
    }
}

/// Build a well-formed test from `spec`: registers numbered per thread,
/// distinct non-zero store values, dependencies only on an earlier load of
/// the same thread, and stores past [`MAX_PRODUCT`] turned into loads.
fn build(spec: &[Vec<OpSpec>]) -> LitmusTest {
    let nthreads = spec.len();
    let (mut threads, mut store_deps, mut stores) = (vec![], vec![], 0);
    for (t, ops) in spec.iter().enumerate() {
        let (mut thread, mut last_load, mut regs) = (vec![], None, 0);
        for (j, &(kind, var, attr)) in ops.iter().enumerate() {
            let store = (3..6).contains(&kind) && nthreads * (stores + 1) <= MAX_PRODUCT;
            let op = match kind {
                6 => LOp::Fence(FClass::Full),
                7 => LOp::Fence(FClass::LwSync),
                8 => LOp::Fence(FClass::StSt),
                9 => LOp::Fence(FClass::LdLdSt),
                _ if store => {
                    stores += 1;
                    if let (Some(src), 2 | 3) = (last_load, attr) {
                        let kind = if attr == 2 {
                            DepKind::Data
                        } else {
                            DepKind::Ctrl
                        };
                        store_deps.push((t, j, src, kind));
                    }
                    LOp::Store {
                        var,
                        val: stores as u32,
                        release: attr == 1,
                    }
                }
                _ => {
                    let dep = last_load
                        .filter(|_| attr >= 2)
                        .map(|src| (src, dep_kind(attr)));
                    last_load = Some(j);
                    regs += 1;
                    LOp::Load {
                        var,
                        reg: regs - 1,
                        acquire: attr == 1,
                        dep,
                    }
                }
            };
            thread.push(op);
        }
        threads.push(thread);
    }
    LitmusTest {
        name: format!("random {spec:?}"),
        threads,
        interesting: vec![],
        store_deps,
        memory: vec![],
    }
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u32..10, 0usize..3, 0u32..5)
}

proptest! {
    #[test]
    fn random_small_tests_reach_the_reference_finals(
        spec in prop::collection::vec(prop::collection::vec(op_spec(), 1..5), 1..5),
    ) {
        let test = build(&spec);
        prop_assert!(first_difference(&test).is_none(), "{}", first_difference(&test).unwrap());
    }
}
