//! Exhaustive state-space exploration.
//!
//! The executor enumerates every interleaving of *eligible* operations (an
//! operation is eligible when every earlier same-thread operation that the
//! model orders before it has executed) and, on non-multi-copy-atomic
//! models, every store-propagation schedule. Depth-first search with
//! memoisation keeps the search finite.
//!
//! States are canonical: interleavings that differ only in ways no later
//! step can observe reach one state, not several.
//!
//! * **Stores have fixed slots.** Each store op has a static id, its rank
//!   among the test's store ops, and the state holds one record per static
//!   store whatever order the stores committed in. Coherence is kept per
//!   variable, as each committed store's position among its variable's
//!   stores — the per-location `co` of Herding Cats. Commits to different
//!   variables commute onto the same state; the order of commits to one
//!   variable stays exact.
//! * **Weak fence markers never run.** `lwsync`, `dmb ishst` and
//!   `dmb ishld` order the access pairs around them
//!   ([`LitmusTest::ordered`]) and mark where a store's cumulativity begins;
//!   executing one would change nothing, so they start executed and are
//!   never scheduled. Full fences stay transitions: on POWER a `sync` waits
//!   for its group-A stores to propagate everywhere.
//!
//! Neither choice changes the reachable final states. The crate's tests
//! keep the explorer that tells those states apart as a reference, check
//! final-state equality against it, and pin both explorers' state counts.
//! The reduction is largest where POWER's per-thread propagation multiplies
//! states: IRIW+lwsyncs visits 1,641 POWER states instead of 12,484, and
//! the generated differential corpus 6.5×10^6 instead of 4.5×10^7. Each
//! state is one flat word slice, hashed with a cheap word hasher, and the
//! per-op ordering rules are resolved to bitmasks before the search starts.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ops::{DepKind, FClass, LOp, LitmusTest, ModelKind, Outcome};

/// Search state, packed into one flat slice of words:
///
/// | words | content |
/// |---|---|
/// | one per thread | bitmask of executed ops (weak fence markers set from the start) |
/// | one per register | register files, thread after thread |
/// | one per op | static id of the store the op read or wrote (its group-A contribution), or [`NONE`] |
/// | three per store op, in static-id order | propagation mask (bit per thread), prerequisites (bit per static id), coherence position within its variable or [`NONE`] while uncommitted |
///
/// A store's variable and value come from its op. Its prerequisites are
/// the stores that must be visible to a thread before it may propagate
/// there (`lwsync`/`sync` cumulativity on POWER). A store is committed
/// exactly when its propagation mask is non-empty: committing makes it
/// visible to its own thread, or to every thread on multi-copy-atomic
/// models.
type State = Box<[u32]>;

/// Sentinel: an op's touched word when it has not executed, is a fence or
/// read the initial value; a store's position while it is uncommitted.
const NONE: u32 = u32::MAX;

/// Words per store record, and each field's offset in it.
const REC: usize = 3;
const MASK: usize = 0;
const PREREQS: usize = 1;
const POS: usize = 2;
/// Seen-set hasher for packed states: an `FxHash`-style rotate-xor-multiply
/// over 8-byte words. States are short runs of small integers, where
/// `SipHash`'s `DoS` resistance buys nothing and costs most of a lookup.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the high bits best mixed; the table indexes
        // by the low ones.
        self.0.rotate_left(26)
    }
}

type Words = BuildHasherDefault<WordHasher>;

/// The low `n` bits set (`n ≤ 32`).
fn low_bits(n: usize) -> u32 {
    u32::MAX.checked_shr(32 - n as u32).unwrap_or(0)
}

/// The set of reachable final states of a litmus test: register files plus
/// the final memory value of every variable (the last store in coherence
/// order; variables never stored keep their initial 0).
#[derive(Debug, Clone)]
pub struct OutcomeSet {
    /// Final `(registers, memory)` pairs: registers are one inner vec per
    /// thread indexed by register; memory is indexed by variable.
    pub finals: HashSet<(Vec<Vec<u32>>, Vec<u32>)>,
    /// Number of distinct states visited (for curiosity/diagnostics).
    pub states_visited: usize,
}

impl OutcomeSet {
    /// Is the conjunctive register assertion reachable?
    #[must_use]
    pub fn allows(&self, outcome: &Outcome) -> bool {
        self.finals
            .iter()
            .any(|(f, _)| outcome.iter().all(|&(t, r, v)| f[t][r] == v))
    }

    /// Iterate over the final `(registers, memory)` states in unspecified
    /// order. For deterministic consumption use [`OutcomeSet::sorted`].
    pub fn iter(&self) -> impl Iterator<Item = &(Vec<Vec<u32>>, Vec<u32>)> {
        self.finals.iter()
    }

    /// The final states in a canonical (lexicographic) order — the stable
    /// view used for manifests, witness extraction and cross-oracle
    /// comparison, so no caller needs to re-run `explore` just to walk the
    /// same outcome set deterministically.
    #[must_use]
    pub fn sorted(&self) -> Vec<&(Vec<Vec<u32>>, Vec<u32>)> {
        let mut v: Vec<_> = self.finals.iter().collect();
        v.sort();
        v
    }

    /// The final states as an owned ordered set, for set-algebra against
    /// another oracle (equality, inclusion).
    #[must_use]
    pub fn canonical(&self) -> std::collections::BTreeSet<(Vec<Vec<u32>>, Vec<u32>)> {
        self.finals.iter().cloned().collect()
    }

    /// Is the combined register + final-memory assertion reachable?
    /// `memory` entries are `(var, value)` conjuncts — the classic
    /// final-state conditions of the S, R and 2+2W shapes.
    #[must_use]
    pub fn allows_with_memory(&self, outcome: &Outcome, memory: &[(usize, u32)]) -> bool {
        self.finals.iter().any(|(regs, mem)| {
            outcome.iter().all(|&(t, r, v)| regs[t][r] == v)
                && memory
                    .iter()
                    .all(|&(var, v)| mem.get(var).copied().unwrap_or(0) == v)
        })
    }

    /// Number of distinct final states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.finals.len()
    }

    /// True if no execution completed (cannot happen for well-formed tests).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.finals.is_empty()
    }
}

/// [`ExploreCache`] key: a test's threads, store dependencies and memory
/// conjuncts, and the model.
type CacheKey = (
    Vec<Vec<LOp>>,
    Vec<(usize, usize, usize, DepKind)>,
    Vec<(usize, u32)>,
    ModelKind,
);

/// Memoising front-end for [`explore`]: callers that query the same test
/// under the same model repeatedly (suite sweeps, differential audits, the
/// `allows`-per-question pattern in `crates/bench`) share one exploration
/// instead of re-running the state-space search per query.
///
/// Keys are *structural* — two tests with identical threads, dependencies
/// and memory conjuncts share an entry even if their names differ — and
/// results are handed out as [`std::sync::Arc`] clones, so a cached outcome
/// set can be kept across further cache use or shipped to another thread.
#[derive(Default)]
pub struct ExploreCache {
    map: std::collections::HashMap<CacheKey, std::sync::Arc<OutcomeSet>>,
    hits: usize,
    misses: usize,
}

impl ExploreCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Structural identity of a test: everything that determines the
    /// outcome set (name excluded on purpose).
    fn key(test: &LitmusTest, model: ModelKind) -> CacheKey {
        (
            test.threads.clone(),
            test.store_deps.clone(),
            test.memory.clone(),
            model,
        )
    }

    /// The outcome set of `test` under `model`, exploring at most once per
    /// structural key.
    pub fn outcomes(&mut self, test: &LitmusTest, model: ModelKind) -> std::sync::Arc<OutcomeSet> {
        let key = Self::key(test, model);
        if let Some(hit) = self.map.get(&key) {
            self.hits += 1;
            return std::sync::Arc::clone(hit);
        }
        self.misses += 1;
        let out = std::sync::Arc::new(explore(test, model));
        self.map.insert(key, std::sync::Arc::clone(&out));
        out
    }

    /// Cache hits served so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Explorations actually run (cache misses).
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of cached outcome sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

struct Explorer<'t> {
    test: &'t LitmusTest,
    mca: bool,
    all_mask: u32,
    num_vars: usize,
    /// Word offset of each thread's register file; the last entry is the
    /// end of the register files.
    reg_base: Vec<usize>,
    /// Flat index of each thread's first op; the last entry is the op count.
    op_base: Vec<usize>,
    /// Word offset of the touched ids (indexed by flat op index).
    touched: usize,
    /// Word offset of the first store record.
    stores: usize,
    /// Executed mask of each thread in the initial state: its weak markers.
    start: Vec<u32>,
    /// Executed mask of each finished thread.
    done: Vec<u32>,
    /// Per flat op: the earlier ops of its thread the model orders before
    /// it ([`LitmusTest::ordered`]).
    must_precede: Vec<u32>,
    /// Per flat op: the earlier ops whose touched stores form its group-A
    /// set — for a `Full` fence, every earlier op (the stores it waits
    /// for); for a store on a non-multi-copy-atomic model, the ops before
    /// its last cumulative barrier, or before itself if it is a release
    /// (its prerequisites); empty otherwise.
    group: Vec<u32>,
    /// Per flat op: its static store id, or [`NONE`] if it is no store.
    store_id: Vec<u32>,
    /// Per static store id: the store's variable and value.
    store_op: Vec<(usize, u32)>,
    /// Per variable: the static ids of its stores.
    var_stores: Vec<u32>,
    seen: HashSet<State, Words>,
    /// Final register files followed by final memory.
    finals: HashSet<Box<[u32]>, Words>,
    /// Spare successor buffers, so a revisited state allocates nothing.
    spare: Vec<Vec<u32>>,
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl<'t> Explorer<'t> {
    fn new(test: &'t LitmusTest, model: ModelKind) -> Self {
        let nthreads = test.threads.len();
        let mca = model.multi_copy_atomic();
        let num_vars = test.num_vars();
        let (mut reg_base, mut op_base) = (vec![nthreads], vec![0]);
        let (mut start, mut done, mut must_precede, mut group) = (vec![], vec![], vec![], vec![]);
        let (mut store_id, mut store_op, mut var_stores) = (vec![], vec![], vec![0; num_vars]);
        for (t, ops) in test.threads.iter().enumerate() {
            let nregs = ops
                .iter()
                .filter_map(|o| match o {
                    LOp::Load { reg, .. } => Some(*reg + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            reg_base.push(reg_base[t] + nregs);
            op_base.push(op_base[t] + ops.len());
            done.push(low_bits(ops.len()));
            start.push(
                ops.iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_weak_marker())
                    .fold(0, |m, (j, _)| m | 1 << j),
            );
            for (j, op) in ops.iter().enumerate() {
                must_precede.push(
                    (0..j)
                        .filter(|&i| test.ordered(model, t, i, j))
                        .fold(0, |m, i| m | 1 << i),
                );
                // Cumulative barriers: a store after an lwsync/sync may
                // propagate to a thread only after everything its thread
                // knew before the barrier has. A release store (lowered as
                // `lwsync; st` on POWER) is cumulative over everything
                // program-before itself. Barriers count by position: a
                // weak marker's executed bit carries nothing.
                let upto = match *op {
                    LOp::Fence(FClass::Full) => j,
                    LOp::Store { .. } if mca => 0,
                    LOp::Store { release: true, .. } => j,
                    LOp::Store { .. } => (0..j)
                        .rev()
                        .find(|&i| matches!(ops[i], LOp::Fence(FClass::Full | FClass::LwSync)))
                        .unwrap_or(0),
                    _ => 0,
                };
                group.push(low_bits(upto));
                if let LOp::Store { var, val, .. } = *op {
                    var_stores[var] |= 1 << store_op.len();
                    store_id.push(store_op.len() as u32);
                    store_op.push((var, val));
                } else {
                    store_id.push(NONE);
                }
            }
        }
        let touched = reg_base[nthreads];
        Explorer {
            test,
            mca,
            all_mask: low_bits(nthreads),
            num_vars,
            stores: touched + op_base[nthreads],
            reg_base,
            op_base,
            touched,
            start,
            done,
            must_precede,
            group,
            store_id,
            store_op,
            var_stores,
            seen: HashSet::default(),
            finals: HashSet::default(),
            spare: vec![],
        }
    }

    /// Word offset of static store `sid`'s record.
    fn rec(&self, sid: usize) -> usize {
        self.stores + REC * sid
    }

    /// The initial state: nothing run but the weak markers, every register
    /// 0, every store uncommitted.
    fn initial(&self) -> Vec<u32> {
        let mut init = self.start.clone();
        init.resize(self.touched, 0);
        init.resize(self.stores, NONE);
        for _ in &self.store_op {
            init.extend_from_slice(&[0, 0, NONE]);
        }
        init
    }

    /// The coherence-latest store of `var` visible to `thread`, if any.
    fn latest_visible(&self, st: &[u32], thread: usize, var: usize) -> Option<usize> {
        bits(self.var_stores[var])
            .filter(|&sid| st[self.rec(sid) + MASK] & (1 << thread) != 0)
            .max_by_key(|&sid| st[self.rec(sid) + POS])
    }

    /// Group-A store set (a static-id bitmask) of thread `t` over the ops
    /// in `ops`: every store those of them that executed read or wrote.
    fn group_a(&self, st: &[u32], t: usize, ops: u32) -> u32 {
        bits(st[t] & ops)
            .map(|i| st[self.touched + self.op_base[t] + i])
            .filter(|&sid| sid != NONE)
            .fold(0, |ids, sid| ids | 1 << sid)
    }

    /// Does every store in `ids` have all of `threads` in its propagation
    /// mask?
    fn visible(&self, st: &[u32], ids: u32, threads: u32) -> bool {
        bits(ids).all(|sid| st[self.rec(sid) + MASK] & threads == threads)
    }

    /// A copy of `st` to mutate into a successor.
    fn successor(&mut self, st: &[u32]) -> Vec<u32> {
        let mut next = self.spare.pop().unwrap_or_default();
        next.clear();
        next.extend_from_slice(st);
        next
    }

    /// Explore `next` unless it was seen before.
    fn visit(&mut self, next: Vec<u32>) {
        if !self.seen.contains(next.as_slice()) {
            self.seen.insert(next.as_slice().into());
            self.step(&next);
        }
        self.spare.push(next);
    }

    fn step(&mut self, st: &[u32]) {
        let nthreads = self.done.len();
        if st[..nthreads] == self.done[..] {
            // Final registers, then memory: each variable's store with the
            // highest coherence position (all stores have committed).
            let mut fin = st[nthreads..self.touched].to_vec();
            let mem = fin.len();
            fin.resize(mem + self.num_vars, 0);
            for (sid, &(var, val)) in self.store_op.iter().enumerate() {
                if st[self.rec(sid) + POS] + 1 == self.var_stores[var].count_ones() {
                    fin[mem + var] = val;
                }
            }
            self.finals.insert(fin.into());
            return;
        }

        // 1. Execute any eligible op of any thread.
        let test = self.test;
        for (t, ops) in test.threads.iter().enumerate() {
            for (j, &op) in ops.iter().enumerate() {
                let k = self.op_base[t] + j;
                if st[t] & (1 << j) != 0 || self.must_precede[k] & !st[t] != 0 {
                    continue;
                }
                let mut next = match op {
                    LOp::Fence(FClass::Full) => {
                        // On POWER a sync waits until its group-A stores have
                        // propagated everywhere (cumulativity). Elsewhere the
                        // condition is vacuous.
                        let ids = self.group_a(st, t, self.group[k]);
                        if !self.visible(st, ids, self.all_mask) {
                            continue;
                        }
                        self.successor(st)
                    }
                    LOp::Fence(_) => unreachable!("weak markers start executed"),
                    LOp::Load { var, reg, .. } => {
                        let sid = self.latest_visible(st, t, var);
                        let mut next = self.successor(st);
                        next[self.reg_base[t] + reg] = sid.map_or(0, |s| self.store_op[s].1);
                        next[self.touched + k] = sid.map_or(NONE, |s| s as u32);
                        next
                    }
                    LOp::Store { var, .. } => {
                        let sid = self.store_id[k];
                        let r = self.rec(sid as usize);
                        let pos = bits(self.var_stores[var])
                            .filter(|&s| st[self.rec(s) + MASK] != 0)
                            .count();
                        let mut next = self.successor(st);
                        next[r + MASK] = if self.mca { self.all_mask } else { 1 << t };
                        next[r + PREREQS] = self.group_a(st, t, self.group[k]);
                        next[r + POS] = pos as u32;
                        next[self.touched + k] = sid;
                        next
                    }
                };
                next[t] |= 1 << j;
                self.visit(next);
            }
        }

        // 2. Propagate a committed store to one more thread (non-MCA
        // models only).
        if !self.mca {
            for sid in 0..self.store_op.len() {
                let r = self.rec(sid);
                let (mask, prereqs) = (st[r + MASK], st[r + PREREQS]);
                if mask == 0 {
                    continue;
                }
                for u in 0..nthreads {
                    if mask & (1 << u) != 0 || !self.visible(st, prereqs, 1 << u) {
                        continue;
                    }
                    let mut next = self.successor(st);
                    next[r + MASK] |= 1 << u;
                    self.visit(next);
                }
            }
        }
    }
}

/// Enumerate all final register states of `test` under `model`.
///
/// # Panics
///
/// Panics if the test has more than 32 threads, more than 32 ops on any
/// thread, or more than 32 stores in all — all three are bitmask-width
/// limits of the state encoding (propagation masks, executed-op masks and
/// static-id prerequisite sets).
#[must_use]
pub fn explore(test: &LitmusTest, model: ModelKind) -> OutcomeSet {
    let nthreads = test.threads.len();
    assert!(nthreads <= 32, "thread count limited by bitmask width");
    for t in &test.threads {
        assert!(
            t.len() <= 32,
            "per-thread op count limited by bitmask width"
        );
    }
    let stores = test
        .threads
        .iter()
        .flatten()
        .filter(|o| o.is_store())
        .count();
    assert!(
        stores <= 32,
        "store count limited by bitmask width: {stores} stores in `{}`, at most 32",
        test.name
    );
    let mut ex = Explorer::new(test, model);
    let init = ex.initial();
    ex.seen.insert(init.as_slice().into());
    ex.step(&init);
    let finals = ex
        .finals
        .iter()
        .map(|fin| {
            let regs = ex
                .reg_base
                .windows(2)
                .map(|w| fin[w[0] - nthreads..w[1] - nthreads].to_vec());
            (regs.collect(), fin[ex.touched - nthreads..].to_vec())
        })
        .collect();
    OutcomeSet {
        states_visited: ex.seen.len(),
        finals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DepKind;

    fn st(var: usize, val: u32) -> LOp {
        LOp::Store {
            var,
            val,
            release: false,
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

    #[test]
    fn single_thread_reads_own_store() {
        let t = LitmusTest {
            name: "self".into(),
            threads: vec![vec![st(0, 1), ld(0, 0)]],
            interesting: vec![(0, 0, 1)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            let out = explore(&t, model);
            assert_eq!(out.len(), 1, "{model:?}");
            assert!(out.allows(&t.interesting), "{model:?}");
        }
    }

    #[test]
    fn sb_weak_outcome_per_model() {
        // SB: both threads store then read the other's variable.
        let t = LitmusTest {
            name: "SB".into(),
            threads: vec![vec![st(0, 1), ld(1, 0)], vec![st(1, 1), ld(0, 0)]],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            !explore(&t, ModelKind::Sc).allows(&t.interesting),
            "SC forbids SB"
        );
        assert!(
            explore(&t, ModelKind::Tso).allows(&t.interesting),
            "TSO allows SB"
        );
        assert!(explore(&t, ModelKind::ArmV8).allows(&t.interesting));
        assert!(explore(&t, ModelKind::Power).allows(&t.interesting));
    }

    #[test]
    fn sb_with_full_fences_forbidden_everywhere() {
        let t = LitmusTest {
            name: "SB+fences".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::Full), ld(0, 0)],
            ],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            assert!(
                !explore(&t, model).allows(&t.interesting),
                "{model:?} must forbid SB+fences"
            );
        }
    }

    #[test]
    fn mp_weak_outcome_needs_relaxed_model() {
        let t = LitmusTest {
            name: "MP".into(),
            threads: vec![vec![st(0, 1), st(1, 1)], vec![ld(1, 0), ld(0, 1)]],
            // Observer sees the flag but not the data.
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(!explore(&t, ModelKind::Sc).allows(&t.interesting));
        assert!(!explore(&t, ModelKind::Tso).allows(&t.interesting));
        assert!(explore(&t, ModelKind::ArmV8).allows(&t.interesting));
        assert!(explore(&t, ModelKind::Power).allows(&t.interesting));
    }

    #[test]
    fn mp_with_lwsync_and_addr_dep_forbidden_on_power() {
        let t = LitmusTest {
            name: "MP+lwsync+addr".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), st(1, 1)],
                vec![
                    ld(1, 0),
                    LOp::Load {
                        var: 0,
                        reg: 1,
                        acquire: false,
                        dep: Some((0, DepKind::Addr)),
                    },
                ],
            ],
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(!explore(&t, ModelKind::Power).allows(&t.interesting));
        assert!(!explore(&t, ModelKind::ArmV8).allows(&t.interesting));
    }

    #[test]
    fn lwsync_does_not_forbid_sb() {
        let t = LitmusTest {
            name: "SB+lwsyncs".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::LwSync), ld(0, 0)],
            ],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            explore(&t, ModelKind::Power).allows(&t.interesting),
            "lwsync leaves store->load unordered"
        );
    }

    #[test]
    fn iriw_with_addr_deps_power_only() {
        // Two writers, two readers that disagree about the order of the
        // writes — the canonical non-multi-copy-atomicity witness.
        let reader = |first: usize, second: usize| {
            vec![
                ld(first, 0),
                LOp::Load {
                    var: second,
                    reg: 1,
                    acquire: false,
                    dep: Some((0, DepKind::Addr)),
                },
            ]
        };
        let t = LitmusTest {
            name: "IRIW+addrs".into(),
            threads: vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            interesting: vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            explore(&t, ModelKind::Power).allows(&t.interesting),
            "POWER is non-MCA: IRIW+addrs observable"
        );
        assert!(
            !explore(&t, ModelKind::ArmV8).allows(&t.interesting),
            "ARMv8 is MCA: IRIW+addrs forbidden"
        );
        assert!(!explore(&t, ModelKind::Tso).allows(&t.interesting));
    }

    #[test]
    fn iriw_with_syncs_forbidden_on_power() {
        let reader = |first: usize, second: usize| {
            vec![ld(first, 0), LOp::Fence(FClass::Full), ld(second, 1)]
        };
        let t = LitmusTest {
            name: "IRIW+syncs".into(),
            threads: vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            interesting: vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            !explore(&t, ModelKind::Power).allows(&t.interesting),
            "sync restores IRIW order on POWER"
        );
    }

    #[test]
    fn coherence_corr() {
        // CoRR: reads of the same variable by one thread may not go backwards.
        let t = LitmusTest {
            name: "CoRR".into(),
            threads: vec![vec![st(0, 1)], vec![ld(0, 0), ld(0, 1)]],
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            assert!(
                !explore(&t, model).allows(&t.interesting),
                "{model:?} must preserve per-location coherence"
            );
        }
    }

    #[test]
    #[should_panic(expected = "store count limited by bitmask width")]
    fn more_than_32_stores_panics() {
        let t = LitmusTest {
            name: "33 stores".into(),
            threads: vec![
                (0..17).map(|i| st(0, i + 1)).collect(),
                (0..16).map(|i| st(1, i + 1)).collect(),
            ],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        let _ = explore(&t, ModelKind::Sc);
    }

    /// LB with one store-side dependency on thread 0.
    fn lb_dep(name: &str, dep: DepKind) -> LitmusTest {
        LitmusTest {
            name: name.into(),
            threads: vec![vec![ld(0, 0), st(1, 1)], vec![ld(1, 0), st(0, 1)]],
            interesting: vec![(0, 0, 1), (1, 0, 1)],
            store_deps: vec![(0, 1, 0, dep)],
            memory: vec![],
        }
    }

    #[test]
    fn cache_shares_tests_differing_only_in_name() {
        let mut cache = ExploreCache::new();
        let a = cache.outcomes(&lb_dep("LB-a", DepKind::Data), ModelKind::Power);
        let b = cache.outcomes(&lb_dep("LB-b", DepKind::Data), ModelKind::Power);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, 1, 1));
    }

    #[test]
    fn cache_separates_tests_differing_in_one_dependency() {
        let mut cache = ExploreCache::new();
        cache.outcomes(&lb_dep("LB", DepKind::Data), ModelKind::Power);
        cache.outcomes(&lb_dep("LB", DepKind::Ctrl), ModelKind::Power);
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 0, 2));
    }
}
