//! The reference explorer: the unreduced state space, kept for tests only.
//!
//! This is the explorer as it was before states became canonical (see the
//! `wmm_litmus::explore` module doc). It numbers stores in commit order,
//! keeps one record per *committed* store in that order, and runs every
//! weak fence marker as a transition of its own. Two interleavings that
//! commit stores to different variables in different orders, or that run a
//! marker at different times, therefore reach distinct states here. It
//! visits more states than the library explorer but must reach exactly the
//! same final states; `state_space.rs` pins its state counts and
//! `canonical_states.rs` checks the final-state equality.
//!
//! One line differs from the code it was moved from: [`LitmusTest::ordered`]
//! no longer orders a full fence against a weak marker, so
//! [`ordered_with_markers`] restores that rule here.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use wmm_litmus::{FClass, LOp, LitmusTest, ModelKind, OutcomeSet};

/// Search state, packed into one flat slice of words:
///
/// | words | content |
/// |---|---|
/// | one per thread | bitmask of executed ops |
/// | one per register | register files, thread after thread |
/// | one per op | the store id the op read or wrote (its group-A contribution), or [`NONE`] |
/// | four per committed store, in coherence (commit) order | var, val, propagation mask (bit per thread), prerequisites (bit per store id) |
///
/// A store's prerequisites are the stores that must be visible to a thread
/// before it may propagate there (`lwsync`/`sync` cumulativity on POWER).
/// Its owner thread is not stored: the op whose touched word holds its id
/// determines it.
type State = Box<[u32]>;

/// Touched-word sentinel: the op has not executed, is a fence, or read the
/// initial value.
const NONE: u32 = u32::MAX;

/// Words per committed-store record.
const REC: usize = 4;

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

/// The per-thread ordering relation the reference explorer was written
/// against: [`LitmusTest::ordered`], plus a full fence ordered against every
/// weak marker of its thread, so that markers run between the full fences
/// around them.
fn ordered_with_markers(test: &LitmusTest, model: ModelKind, t: usize, i: usize, j: usize) -> bool {
    let (a, b) = (&test.threads[t][i], &test.threads[t][j]);
    let fence_pair = matches!(a, LOp::Fence(_)) && matches!(b, LOp::Fence(_));
    let full = matches!(a, LOp::Fence(FClass::Full)) || matches!(b, LOp::Fence(FClass::Full));
    (fence_pair && full) || test.ordered(model, t, i, j)
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
    /// Word offset of the first committed-store record.
    stores: usize,
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
    seen: HashSet<State, Words>,
    /// Final register files followed by final memory.
    finals: HashSet<Box<[u32]>, Words>,
    /// Spare successor buffers, so a revisited state allocates nothing.
    spare: Vec<Vec<u32>>,
}

impl<'t> Explorer<'t> {
    fn new(test: &'t LitmusTest, model: ModelKind) -> Self {
        let nthreads = test.threads.len();
        let mca = model.multi_copy_atomic();
        let (mut reg_base, mut op_base) = (vec![nthreads], vec![0]);
        let (mut done, mut must_precede, mut group) = (vec![], vec![], vec![]);
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
            for (j, op) in ops.iter().enumerate() {
                must_precede.push(
                    (0..j)
                        .filter(|&i| ordered_with_markers(test, model, t, i, j))
                        .fold(0, |m, i| m | 1 << i),
                );
                // Cumulative barriers: a store after an lwsync/sync may
                // propagate to a thread only after everything its thread
                // knew before the barrier has. A release store (lowered as
                // `lwsync; st` on POWER) is cumulative over everything
                // program-before itself.
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
            }
        }
        let touched = reg_base[nthreads];
        Explorer {
            test,
            mca,
            all_mask: low_bits(nthreads),
            num_vars: test.num_vars(),
            stores: touched + op_base[nthreads],
            reg_base,
            op_base,
            touched,
            done,
            must_precede,
            group,
            seen: HashSet::default(),
            finals: HashSet::default(),
            spare: vec![],
        }
    }

    /// Word offset of store `sid`'s record.
    fn rec(&self, sid: usize) -> usize {
        self.stores + REC * sid
    }

    /// Latest visible store id for `var` as seen by `thread`, if any.
    fn latest_visible(&self, st: &[u32], thread: usize, var: usize) -> Option<usize> {
        (0..(st.len() - self.stores) / REC).rev().find(|&sid| {
            let r = self.rec(sid);
            st[r] as usize == var && st[r + 2] & (1 << thread) != 0
        })
    }

    /// Group-A store set (a store-id bitmask) of thread `t` over the ops
    /// in `ops`: every store those of them that executed read or wrote.
    fn group_a(&self, st: &[u32], t: usize, ops: u32) -> u32 {
        let mut ids = 0;
        let mut left = st[t] & ops;
        while left != 0 {
            let i = left.trailing_zeros() as usize;
            left &= left - 1;
            let sid = st[self.touched + self.op_base[t] + i];
            if sid != NONE {
                ids |= 1 << sid;
            }
        }
        ids
    }

    /// Does every store in `ids` have all of `threads` in its propagation
    /// mask?
    fn visible(&self, st: &[u32], mut ids: u32, threads: u32) -> bool {
        while ids != 0 {
            let sid = ids.trailing_zeros() as usize;
            ids &= ids - 1;
            if st[self.rec(sid) + 2] & threads != threads {
                return false;
            }
        }
        true
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
            // Final registers, then memory: the last store per variable in
            // coherence order.
            let mut fin = st[nthreads..self.touched].to_vec();
            let mem = fin.len();
            fin.resize(mem + self.num_vars, 0);
            for r in (self.stores..st.len()).step_by(REC) {
                fin[mem + st[r] as usize] = st[r + 1];
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
                    // Weak markers are ordering annotations only.
                    LOp::Fence(_) => self.successor(st),
                    LOp::Load { var, reg, .. } => {
                        let sid = self.latest_visible(st, t, var);
                        let mut next = self.successor(st);
                        next[self.reg_base[t] + reg] = sid.map_or(0, |s| st[self.rec(s) + 1]);
                        next[self.touched + k] = sid.map_or(NONE, |s| s as u32);
                        next
                    }
                    LOp::Store { var, val, .. } => {
                        let prereqs = self.group_a(st, t, self.group[k]);
                        let mask = if self.mca { self.all_mask } else { 1 << t };
                        let sid = (st.len() - self.stores) / REC;
                        let mut next = self.successor(st);
                        next.extend_from_slice(&[var as u32, val, mask, prereqs]);
                        next[self.touched + k] = sid as u32;
                        next
                    }
                };
                next[t] |= 1 << j;
                self.visit(next);
            }
        }

        // 2. Propagate a store to one more thread (non-MCA models only).
        if !self.mca {
            for r in (self.stores..st.len()).step_by(REC) {
                let (mask, prereqs) = (st[r + 2], st[r + 3]);
                for u in 0..nthreads {
                    if mask & (1 << u) != 0 || !self.visible(st, prereqs, 1 << u) {
                        continue;
                    }
                    let mut next = self.successor(st);
                    next[r + 2] |= 1 << u;
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
/// store-id prerequisite sets).
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
    let mut init = vec![0; ex.stores];
    init[ex.touched..].fill(NONE);
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
