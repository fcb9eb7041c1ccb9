//! The litmus-test suite with per-model allow/forbid expectations.
//!
//! Shapes follow the standard naming convention of the Herd/litmus
//! literature (Alglave et al., "Herding cats"): SB, MP, LB, WRC, IRIW, `CoRR`,
//! plus fenced and dependency-carrying variants. Each entry records, for
//! every model, whether the *interesting* (weak) outcome must be observable.
//!
//! These expectations are the semantic contract that `wmm-sim`'s fence
//! kinds are priced against: e.g. if `dmb ishst` + an address dependency is
//! enough to forbid message passing on `ARMv8`, then a fencing strategy that
//! replaces a full `dmb ish` with `dmb ishst` at a store-store code path is
//! *correct*, and the paper's question — is it *faster*? — becomes the
//! interesting one.

use crate::explore::explore;
use crate::ops::{DepKind, FClass, LOp, LitmusTest, ModelKind, Outcome};

/// A suite entry: a test plus its expected verdict per model.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// The litmus test.
    pub test: LitmusTest,
    /// `(model, weak outcome observable?)` for each model with a known verdict.
    pub expect: Vec<(ModelKind, bool)>,
}

// --- construction helpers -------------------------------------------------

fn st(var: usize, val: u32) -> LOp {
    LOp::Store {
        var,
        val,
        release: false,
    }
}

fn strel(var: usize, val: u32) -> LOp {
    LOp::Store {
        var,
        val,
        release: true,
    }
}

fn ld(var: usize, reg: usize) -> LOp {
    LOp::Load {
        var,
        reg,
        acquire: false,
        dep: None,
    }
}

fn ldacq(var: usize, reg: usize) -> LOp {
    LOp::Load {
        var,
        reg,
        acquire: true,
        dep: None,
    }
}

fn lddep(var: usize, reg: usize, src: usize, kind: DepKind) -> LOp {
    LOp::Load {
        var,
        reg,
        acquire: false,
        dep: Some((src, kind)),
    }
}

fn test(
    name: &str,
    threads: Vec<Vec<LOp>>,
    interesting: Outcome,
    store_deps: Vec<(usize, usize, usize, DepKind)>,
) -> LitmusTest {
    LitmusTest {
        name: name.to_string(),
        threads,
        interesting,
        store_deps,
        memory: vec![],
    }
}

use ModelKind::{ArmV8, Power, Sc, Tso};

// --- the suite ------------------------------------------------------------

/// SB: Dekker's store buffering. Weak outcome observable everywhere but SC.
#[must_use]
pub fn store_buffering() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "SB",
            vec![vec![st(0, 1), ld(1, 0)], vec![st(1, 1), ld(0, 0)]],
            vec![(0, 0, 0), (1, 0, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, true), (ArmV8, true), (Power, true)],
    }
}

/// SB with full fences (`dmb ish` / `sync`): forbidden everywhere.
#[must_use]
pub fn sb_fences() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "SB+dmbs",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::Full), ld(0, 0)],
            ],
            vec![(0, 0, 0), (1, 0, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// SB with `lwsync`s: still observable on POWER — `lwsync` does not order
/// store→load, the whole reason `sync` exists (and costs 18.9 ns).
#[must_use]
pub fn sb_lwsyncs() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "SB+lwsyncs",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::LwSync), ld(0, 0)],
            ],
            vec![(0, 0, 0), (1, 0, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Power, true)],
    }
}

/// MP: message passing with no ordering. Observable on ARM/POWER.
#[must_use]
pub fn message_passing() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP",
            vec![vec![st(0, 1), st(1, 1)], vec![ld(1, 0), ld(0, 1)]],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, true), (Power, true)],
    }
}

/// MP with full fences on both sides: forbidden everywhere.
#[must_use]
pub fn mp_fences() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+dmbs",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), st(1, 1)],
                vec![ld(1, 0), LOp::Fence(FClass::Full), ld(0, 1)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// MP with `dmb ishst` on the writer and an address dependency on the
/// reader: forbidden on (multi-copy-atomic) `ARMv8` — the cheap fencing
/// strategy is sound there. Observable on POWER, where `ishst`-class
/// ordering is not cumulative.
#[must_use]
pub fn mp_dmbst_addr() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+dmb.st+addr",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::StSt), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Addr)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (ArmV8, false), (Power, true)],
    }
}

/// MP with `lwsync` on the writer and an address dependency on the reader:
/// forbidden on POWER thanks to `lwsync` cumulativity — the reason `lwsync`
/// (6.1 ns) suffices where `sync` (18.9 ns) is not needed.
#[must_use]
pub fn mp_lwsync_addr() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+lwsync+addr",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Addr)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (ArmV8, false), (Power, false)],
    }
}

/// MP with release store / acquire load (JDK9's `ARMv8` volatile strategy):
/// forbidden on both weak models.
#[must_use]
pub fn mp_rel_acq() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+rel+acq",
            vec![vec![st(0, 1), strel(1, 1)], vec![ldacq(1, 0), ld(0, 1)]],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// MP with a *control* dependency on the reader's second load: still
/// observable — control dependencies do not order load→load (loads are
/// speculated past branches). This is the semantic core of the
/// `read_barrier_depends` investigation in §4.3.
#[must_use]
pub fn mp_dmbst_ctrl() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+dmb.st+ctrl",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::StSt), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Ctrl)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(ArmV8, true)],
    }
}

/// MP with `ctrl+isb` on the reader: forbidden on `ARMv8` — the `ctrl+isb`
/// strategy of Fig. 10 is sound, at the cost of the pipeline flush the
/// paper measures at ~24.5 ns.
#[must_use]
pub fn mp_dmbst_ctrlisb() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+dmb.st+ctrlisb",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::StSt), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::CtrlIsb)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(ArmV8, false)],
    }
}

/// MP with `dmb ishld` on the reader (and `ishst` on the writer): forbidden
/// on `ARMv8` — `dmb ishld` is a sound `read_barrier_depends`, the paper's
/// "particularly positive result" (§4.3.1).
#[must_use]
pub(crate) fn mp_dmbst_dmbld() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "MP+dmb.st+dmb.ld",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::StSt), st(1, 1)],
                vec![ld(1, 0), LOp::Fence(FClass::LdLdSt), ld(0, 1)],
            ],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (ArmV8, false)],
    }
}

/// LB: load buffering. Observable on relaxed models, forbidden on TSO.
#[must_use]
pub(crate) fn load_buffering() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "LB",
            vec![vec![ld(0, 0), st(1, 1)], vec![ld(1, 0), st(0, 1)]],
            vec![(0, 0, 1), (1, 0, 1)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, true), (Power, true)],
    }
}

/// LB with data dependencies: forbidden everywhere (no out-of-thin-air).
#[must_use]
pub fn lb_deps() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "LB+datas",
            vec![vec![ld(0, 0), st(1, 1)], vec![ld(1, 0), st(0, 1)]],
            vec![(0, 0, 1), (1, 0, 1)],
            vec![(0, 1, 0, DepKind::Data), (1, 1, 0, DepKind::Data)],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// WRC with dependencies: forbidden on multi-copy-atomic `ARMv8`, observable
/// on POWER — the cleanest register-observable MCA/non-MCA split.
#[must_use]
pub(crate) fn wrc_deps() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "WRC+data+addr",
            vec![
                vec![st(0, 1)],
                vec![ld(0, 0), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Addr)],
            ],
            vec![(1, 0, 1), (2, 0, 1), (2, 1, 0)],
            vec![(1, 1, 0, DepKind::Data)],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, true)],
    }
}

/// WRC with a `sync` in the middle thread: cumulativity restores order on
/// POWER.
#[must_use]
pub(crate) fn wrc_sync_addr() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "WRC+sync+addr",
            vec![
                vec![st(0, 1)],
                vec![ld(0, 0), LOp::Fence(FClass::Full), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Addr)],
            ],
            vec![(1, 0, 1), (2, 0, 1), (2, 1, 0)],
            vec![],
        ),
        expect: vec![(Power, false), (ArmV8, false)],
    }
}

/// IRIW with address dependencies: the canonical non-MCA witness —
/// observable on POWER only.
#[must_use]
pub fn iriw_addrs() -> SuiteEntry {
    let reader =
        |first: usize, second: usize| vec![ld(first, 0), lddep(second, 1, 0, DepKind::Addr)];
    SuiteEntry {
        test: test(
            "IRIW+addrs",
            vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, true)],
    }
}

/// IRIW with `sync`s between the reads: forbidden even on POWER. This is
/// what a heavyweight `sync` buys over `lwsync` — at 3x the cost (§4.4).
#[must_use]
pub fn iriw_syncs() -> SuiteEntry {
    let reader =
        |first: usize, second: usize| vec![ld(first, 0), LOp::Fence(FClass::Full), ld(second, 1)];
    SuiteEntry {
        test: test(
            "IRIW+syncs",
            vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// IRIW with `lwsync`s: still observable on POWER — `lwsync` is not
/// strong enough to restore write atomicity.
#[must_use]
pub fn iriw_lwsyncs() -> SuiteEntry {
    let reader =
        |first: usize, second: usize| vec![ld(first, 0), LOp::Fence(FClass::LwSync), ld(second, 1)];
    SuiteEntry {
        test: test(
            "IRIW+lwsyncs",
            vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            vec![],
        ),
        expect: vec![(Power, true)],
    }
}

/// `CoRR`: per-location coherence of reads. Forbidden on every model.
#[must_use]
pub fn corr() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "CoRR",
            vec![vec![st(0, 1)], vec![ld(0, 0), ld(0, 1)]],
            vec![(1, 0, 1), (1, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// S: `Wx=2; Wy=1 || Ry=1; Wx=1` with the final condition `x=2 ∧ r=1` —
/// requires the second thread's store to be coherence-ordered *before* the
/// first thread's, against both program orders. With a full fence on the
/// writer and a data dependency on the reader it is forbidden everywhere.
#[must_use]
pub(crate) fn s_shape() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "S".into(),
            threads: vec![vec![st(0, 2), st(1, 1)], vec![ld(1, 0), st(0, 1)]],
            interesting: vec![(1, 0, 1)],
            store_deps: vec![],
            memory: vec![(0, 2)],
        },
        expect: vec![(Sc, false), (Tso, false), (ArmV8, true), (Power, true)],
    }
}

/// S with a full fence and a data dependency: forbidden everywhere.
#[must_use]
pub(crate) fn s_fenced() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "S+dmb+data".into(),
            threads: vec![
                vec![st(0, 2), LOp::Fence(FClass::Full), st(1, 1)],
                vec![ld(1, 0), st(0, 1)],
            ],
            interesting: vec![(1, 0, 1)],
            store_deps: vec![(1, 1, 0, DepKind::Data)],
            memory: vec![(0, 2)],
        },
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// 2+2W: both threads write both variables in opposite orders; the weak
/// final state has each thread's *first* write surviving. Observable on the
/// relaxed models, forbidden with store-store fences.
#[must_use]
pub fn two_plus_two_w() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "2+2W".into(),
            threads: vec![vec![st(0, 2), st(1, 1)], vec![st(1, 2), st(0, 1)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![(0, 2), (1, 2)],
        },
        expect: vec![(Sc, false), (Tso, false), (ArmV8, true), (Power, true)],
    }
}

/// 2+2W with `dmb ishst` on both threads: forbidden on `ARMv8` — the cheapest
/// fence suffices for pure write-write shapes.
#[must_use]
pub(crate) fn two_plus_two_w_ishst() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "2+2W+dmb.sts".into(),
            threads: vec![
                vec![st(0, 2), LOp::Fence(FClass::StSt), st(1, 1)],
                vec![st(1, 2), LOp::Fence(FClass::StSt), st(0, 1)],
            ],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![(0, 2), (1, 2)],
        },
        expect: vec![(Sc, false), (ArmV8, false)],
    }
}

/// R: `Wx=1; Wy=1 || Wy=2; Rx` with final `y=2 ∧ r=0` — one coherence
/// edge and one from-read edge against both program orders. Forbidden
/// only under SC: even TSO lets the second thread's load overtake its
/// store.
#[must_use]
pub(crate) fn r_shape() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "R".into(),
            threads: vec![vec![st(0, 1), st(1, 1)], vec![st(1, 2), ld(0, 0)]],
            interesting: vec![(1, 0, 0)],
            store_deps: vec![],
            memory: vec![(1, 2)],
        },
        expect: vec![(Sc, false), (Tso, true), (ArmV8, true), (Power, true)],
    }
}

/// R with full fences on both threads: forbidden everywhere — like SB,
/// the store→load leg needs full-fence strength.
#[must_use]
pub(crate) fn r_fences() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "R+dmbs".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), st(1, 1)],
                vec![st(1, 2), LOp::Fence(FClass::Full), ld(0, 0)],
            ],
            interesting: vec![(1, 0, 0)],
            store_deps: vec![],
            memory: vec![(1, 2)],
        },
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// ISA2: a three-thread MP chain — writer, forwarder, reader. Bare, the
/// weak outcome shows on both relaxed models.
#[must_use]
pub(crate) fn isa2() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "ISA2",
            vec![
                vec![st(0, 1), st(2, 1)],
                vec![ld(2, 0), st(1, 1)],
                vec![ld(1, 0), ld(0, 1)],
            ],
            vec![(1, 0, 1), (2, 0, 1), (2, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, true), (Power, true)],
    }
}

/// ISA2 with full fences in all three threads: forbidden everywhere.
#[must_use]
pub(crate) fn isa2_fences() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "ISA2+dmbs",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), st(2, 1)],
                vec![ld(2, 0), LOp::Fence(FClass::Full), st(1, 1)],
                vec![ld(1, 0), LOp::Fence(FClass::Full), ld(0, 1)],
            ],
            vec![(1, 0, 1), (2, 0, 1), (2, 1, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// ISA2 with `sync` at the writer and dependencies downstream: the
/// `sync`'s A-cumulativity carries the first store through the chain, so
/// the outcome is forbidden even on POWER.
#[must_use]
pub(crate) fn isa2_sync_deps() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "ISA2+sync+data+addr",
            vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), st(2, 1)],
                vec![ld(2, 0), st(1, 1)],
                vec![ld(1, 0), lddep(0, 1, 0, DepKind::Addr)],
            ],
            vec![(1, 0, 1), (2, 0, 1), (2, 1, 0)],
            vec![(1, 1, 0, DepKind::Data)],
        ),
        expect: vec![(Sc, false), (ArmV8, false), (Power, false)],
    }
}

/// SB with release stores and acquire loads: forbidden on `ARMv8`, whose
/// release/acquire is `RCsc` (`stlr; ldar` stay ordered — what lets JDK9
/// drop the trailing `dmb` from volatile stores). Still observable on
/// POWER, whose release is `lwsync`-flavoured, and on TSO, where the
/// markers add nothing.
#[must_use]
pub fn sb_rel_acq() -> SuiteEntry {
    SuiteEntry {
        test: test(
            "SB+rel+acq",
            vec![
                vec![strel(0, 1), ldacq(1, 0)],
                vec![strel(1, 1), ldacq(0, 0)],
            ],
            vec![(0, 0, 0), (1, 0, 0)],
            vec![],
        ),
        expect: vec![(Sc, false), (Tso, true), (ArmV8, false), (Power, true)],
    }
}

/// `CoWW`: two stores by one thread to the same location must commit in
/// program order on every model — the final value is always the second.
#[must_use]
pub fn coww() -> SuiteEntry {
    SuiteEntry {
        test: LitmusTest {
            name: "CoWW".into(),
            threads: vec![vec![st(0, 1), st(0, 2)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![(0, 1)],
        },
        expect: vec![(Sc, false), (Tso, false), (ArmV8, false), (Power, false)],
    }
}

/// The complete suite.
#[must_use]
pub fn full_suite() -> Vec<SuiteEntry> {
    vec![
        store_buffering(),
        sb_fences(),
        sb_lwsyncs(),
        message_passing(),
        mp_fences(),
        mp_dmbst_addr(),
        mp_lwsync_addr(),
        mp_rel_acq(),
        mp_dmbst_ctrl(),
        mp_dmbst_ctrlisb(),
        mp_dmbst_dmbld(),
        load_buffering(),
        lb_deps(),
        wrc_deps(),
        wrc_sync_addr(),
        iriw_addrs(),
        iriw_syncs(),
        iriw_lwsyncs(),
        corr(),
        s_shape(),
        s_fenced(),
        two_plus_two_w(),
        two_plus_two_w_ishst(),
        r_shape(),
        r_fences(),
        isa2(),
        isa2_fences(),
        isa2_sync_deps(),
        sb_rel_acq(),
        coww(),
    ]
}

/// Run the whole suite under every model with expectations; returns
/// `(test name, model, expected, observed)` rows.
#[must_use]
pub fn run_full_suite() -> Vec<(String, ModelKind, bool, bool)> {
    let mut rows = vec![];
    for entry in full_suite() {
        for &(model, expected) in &entry.expect {
            let observed = explore(&entry.test, model)
                .allows_with_memory(&entry.test.interesting, &entry.test.memory);
            rows.push((entry.test.name.clone(), model, expected, observed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_expectation_holds() {
        let rows = run_full_suite();
        assert!(
            rows.len() >= 50,
            "suite should be substantial: {}",
            rows.len()
        );
        let failures: Vec<_> = rows.iter().filter(|(_, _, exp, obs)| exp != obs).collect();
        assert!(
            failures.is_empty(),
            "litmus expectations violated: {failures:?}"
        );
    }

    #[test]
    fn suite_covers_all_models() {
        let rows = run_full_suite();
        for model in [Sc, Tso, ArmV8, Power] {
            assert!(
                rows.iter().any(|(_, m, _, _)| *m == model),
                "{model:?} uncovered"
            );
        }
    }
}
