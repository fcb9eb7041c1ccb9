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
//! the generated differential corpus 6.5×10^6 instead of 4.5×10^7.
//!
//! Every state of a test has the same width, so the seen set is a
//! `StateStore`: states sit back to back in chunks whose state counts are
//! powers of two, behind an open-addressing table of `(index, fingerprint)`
//! slots. A successor is written straight into the store's free slot,
//! hashed once, and kept only if it is new; the search allocates nothing
//! per state. The per-op ordering rules are resolved to bitmasks before the
//! search starts.

use std::collections::HashSet;

use crate::ops::{FClass, LOp, LitmusTest, ModelKind, Outcome};

/// Sentinel: an op's touched word when it has not executed, is a fence or
/// read the initial value; a store's position while it is uncommitted.
const NONE: u32 = u32::MAX;

/// Words per store record, and each field's offset in it.
const REC: usize = 3;
const MASK: usize = 0;
const PREREQS: usize = 1;
const POS: usize = 2;

/// The low `n` bits set (`n ≤ 32`).
fn low_bits(n: usize) -> u32 {
    u32::MAX.checked_shr(32 - n as u32).unwrap_or(0)
}

/// An `FxHash`-style rotate-xor-multiply over the words of a state, two
/// at a time. States are short runs of small integers, where `SipHash`'s
/// `DoS` resistance buys nothing and costs most of a lookup. The multiply
/// leaves the high bits best mixed, so the store reads those.
fn hash_words(words: &[u32]) -> u64 {
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut pairs = words.chunks_exact(2);
    let h = (&mut pairs).fold(0, |h, p| mix(h, u64::from(p[0]) | u64::from(p[1]) << 32));
    pairs
        .remainder()
        .iter()
        .fold(h, |h, &w| mix(h, u64::from(w)))
}

/// A set of fixed-width word states, each stored once and numbered in
/// insertion order.
///
/// States sit back to back in chunks of `2^shift` states each, about
/// [`CHUNK_WORDS`](Self::CHUNK_WORDS) words, so the store grows by adding a
/// chunk: it never moves a state, and never holds more than one chunk it
/// has not filled. The table is open-addressed with linear probing. A
/// slot holds a state's index plus one (0 marks an empty slot) in its low
/// 32 bits and the state's fingerprint, the high 32 bits of its hash, in
/// its high 32 bits. A state's home slot is its fingerprint's top bits, so
/// the table grows without rehashing a state, and a probe compares a
/// state's words only on a fingerprint match.
///
/// To add a state, write it into [`free`](Self::free) (or let
/// [`successor`](Self::successor) copy one there) and [`commit`](Self::commit)
/// it: the free slot becomes the next state only if no equal state is
/// stored.
struct StateStore {
    width: usize,
    /// log2 of the state count of a chunk.
    shift: u32,
    chunks: Vec<Vec<u32>>,
    len: usize,
    table: Vec<u64>,
    /// log2 of the table's slot count.
    bits: u32,
}

impl StateStore {
    /// Words a chunk holds at most. Kept to a page: a freed chunk is heap
    /// that later allocations spread into, and 16 KiB chunks raised the
    /// `oracle_diff` benchmark's peak RSS by about 4% where 4 KiB ones
    /// left it level with a set of boxed states.
    const CHUNK_WORDS: usize = 1024;

    /// An empty store of `width`-word states.
    fn new(width: usize) -> Self {
        let bits = 6;
        StateStore {
            width,
            shift: (Self::CHUNK_WORDS / width.max(1)).max(1).ilog2(),
            chunks: vec![],
            len: 0,
            table: vec![0; 1 << bits],
            bits,
        }
    }

    /// Number of distinct states stored.
    fn len(&self) -> usize {
        self.len
    }

    /// The chunk of state `i`, and the word offset of `i` in it.
    fn locate(&self, i: usize) -> (usize, usize) {
        (i >> self.shift, (i & ((1 << self.shift) - 1)) * self.width)
    }

    /// The words of state `i` (`i` may be the free slot once written).
    fn get(&self, i: usize) -> &[u32] {
        let (c, o) = self.locate(i);
        &self.chunks[c][o..o + self.width]
    }

    /// Where the free slot lies, adding its chunk and words if needed.
    fn free_slot(&mut self) -> (usize, usize) {
        let (c, o) = self.locate(self.len);
        if c == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(self.width << self.shift));
        }
        let chunk = &mut self.chunks[c];
        if chunk.len() == o {
            chunk.resize(o + self.width, 0);
        }
        (c, o)
    }

    /// The free slot, holding whatever was last written there.
    fn free(&mut self) -> &mut [u32] {
        let (c, o) = self.free_slot();
        &mut self.chunks[c][o..o + self.width]
    }

    /// The free slot, holding a copy of stored state `cur`: a successor to
    /// edit before [`commit`](Self::commit).
    fn successor(&mut self, cur: usize) -> &mut [u32] {
        let w = self.width;
        let (c, o) = self.locate(cur);
        let (fc, fo) = self.free_slot();
        // `cur` is stored, so it lies before the free slot.
        let (src, next) = if c == fc {
            let (lo, hi) = self.chunks[fc].split_at_mut(fo);
            (&lo[o..o + w], &mut hi[..w])
        } else {
            let (lo, hi) = self.chunks.split_at_mut(fc);
            (&lo[c][o..o + w], &mut hi[0][fo..fo + w])
        };
        next.copy_from_slice(src);
        next
    }

    /// Keep the free slot's state if it is new: its index, or `None` when
    /// an equal state is already stored.
    fn commit(&mut self) -> Option<usize> {
        let fresh = self.len;
        let state = self.get(fresh);
        let fp = (hash_words(state) >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut i = (fp >> (32 - self.bits)) as usize;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                break;
            }
            if (slot >> 32) as u32 == fp && self.get((slot as u32 - 1) as usize) == state {
                return None;
            }
            i = (i + 1) & mask;
        }
        assert!(fresh < u32::MAX as usize, "state index limited to 32 bits");
        self.table[i] = u64::from(fp) << 32 | (fresh as u64 + 1);
        self.len += 1;
        if self.len * 4 > self.table.len() * 3 {
            self.grow();
        }
        Some(fresh)
    }

    /// `state` copied into the free slot and committed.
    #[cfg(test)]
    fn insert(&mut self, state: &[u32]) -> Option<usize> {
        self.free().copy_from_slice(state);
        self.commit()
    }

    /// Double the table, placing every slot by its fingerprint.
    fn grow(&mut self) {
        self.bits += 1;
        let old = std::mem::replace(&mut self.table, vec![0; 1 << self.bits]);
        let mask = self.table.len() - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = ((slot >> 32) as u32 >> (32 - self.bits)) as usize;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = slot;
        }
    }
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
}

/// A test's transition rules under one model, resolved before the search.
///
/// Search state, packed into one flat run of words:
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
}

/// What a search accumulates: every state visited, and every final state
/// (register files followed by memory).
struct Search {
    seen: StateStore,
    finals: StateStore,
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
        }
    }

    /// Word offset of static store `sid`'s record.
    fn rec(&self, sid: usize) -> usize {
        self.stores + REC * sid
    }

    /// Words per state.
    fn width(&self) -> usize {
        self.rec(self.store_op.len())
    }

    /// Words per final state: registers, then memory.
    fn final_width(&self) -> usize {
        self.touched - self.done.len() + self.num_vars
    }

    /// Write the initial state into `init`: nothing run but the weak
    /// markers, every register 0, every store uncommitted.
    fn initial(&self, init: &mut [u32]) {
        let nthreads = self.done.len();
        init[..nthreads].copy_from_slice(&self.start);
        init[nthreads..self.touched].fill(0);
        init[self.touched..self.stores].fill(NONE);
        for rec in init[self.stores..].chunks_exact_mut(REC) {
            rec.copy_from_slice(&[0, 0, NONE]);
        }
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

    /// Record the final state of finished state `cur`: its registers, then
    /// each variable's store with the highest coherence position (all
    /// stores have committed).
    fn record_final(&self, s: &mut Search, cur: usize) {
        let nthreads = self.done.len();
        let st = s.seen.get(cur);
        let fin = s.finals.free();
        let mem = self.touched - nthreads;
        fin[..mem].copy_from_slice(&st[nthreads..self.touched]);
        fin[mem..].fill(0);
        for (sid, &(var, val)) in self.store_op.iter().enumerate() {
            if st[self.rec(sid) + POS] + 1 == self.var_stores[var].count_ones() {
                fin[mem + var] = val;
            }
        }
        s.finals.commit();
    }

    /// Explore every successor of stored state `cur` not seen before.
    fn step(&self, s: &mut Search, cur: usize) {
        let nthreads = self.done.len();
        if s.seen.get(cur)[..nthreads] == self.done[..] {
            self.record_final(s, cur);
            return;
        }

        // 1. Execute any eligible op of any thread.
        for (t, ops) in self.test.threads.iter().enumerate() {
            for (j, &op) in ops.iter().enumerate() {
                let k = self.op_base[t] + j;
                let st = s.seen.get(cur);
                if st[t] & (1 << j) != 0 || self.must_precede[k] & !st[t] != 0 {
                    continue;
                }
                match op {
                    LOp::Fence(FClass::Full) => {
                        // On POWER a sync waits until its group-A stores have
                        // propagated everywhere (cumulativity). Elsewhere the
                        // condition is vacuous.
                        let ids = self.group_a(st, t, self.group[k]);
                        if !self.visible(st, ids, self.all_mask) {
                            continue;
                        }
                        s.seen.successor(cur)[t] |= 1 << j;
                    }
                    LOp::Fence(_) => unreachable!("weak markers start executed"),
                    LOp::Load { var, reg, .. } => {
                        let sid = self.latest_visible(st, t, var);
                        let next = s.seen.successor(cur);
                        next[self.reg_base[t] + reg] = sid.map_or(0, |s| self.store_op[s].1);
                        next[self.touched + k] = sid.map_or(NONE, |s| s as u32);
                        next[t] |= 1 << j;
                    }
                    LOp::Store { var, .. } => {
                        let sid = self.store_id[k];
                        let r = self.rec(sid as usize);
                        let pos = bits(self.var_stores[var])
                            .filter(|&s| st[self.rec(s) + MASK] != 0)
                            .count();
                        let prereqs = self.group_a(st, t, self.group[k]);
                        let next = s.seen.successor(cur);
                        next[r + MASK] = if self.mca { self.all_mask } else { 1 << t };
                        next[r + PREREQS] = prereqs;
                        next[r + POS] = pos as u32;
                        next[self.touched + k] = sid;
                        next[t] |= 1 << j;
                    }
                }
                if let Some(next) = s.seen.commit() {
                    self.step(s, next);
                }
            }
        }

        // 2. Propagate a committed store to one more thread (non-MCA
        // models only).
        if !self.mca {
            for sid in 0..self.store_op.len() {
                let r = self.rec(sid);
                let st = s.seen.get(cur);
                let (mask, prereqs) = (st[r + MASK], st[r + PREREQS]);
                if mask == 0 {
                    continue;
                }
                for u in 0..nthreads {
                    if mask & (1 << u) != 0 || !self.visible(s.seen.get(cur), prereqs, 1 << u) {
                        continue;
                    }
                    s.seen.successor(cur)[r + MASK] |= 1 << u;
                    if let Some(next) = s.seen.commit() {
                        self.step(s, next);
                    }
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
    let ex = Explorer::new(test, model);
    let mut s = Search {
        seen: StateStore::new(ex.width()),
        finals: StateStore::new(ex.final_width()),
    };
    ex.initial(s.seen.free());
    let init = s.seen.commit().expect("the first state is new");
    ex.step(&mut s, init);
    let mem = ex.touched - nthreads;
    let finals = (0..s.finals.len())
        .map(|i| {
            let fin = s.finals.get(i);
            let regs = ex
                .reg_base
                .windows(2)
                .map(|w| fin[w[0] - nthreads..w[1] - nthreads].to_vec());
            (regs.collect(), fin[mem..].to_vec())
        })
        .collect();
    OutcomeSet {
        states_visited: s.seen.len(),
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
            assert_eq!(out.finals.len(), 1, "{model:?}");
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

    /// A distinct `width`-word state per `i`, varying in every word.
    fn state(i: u32, width: usize) -> Vec<u32> {
        (0..width as u32)
            .map(|w| i.wrapping_mul(w + 1) ^ w)
            .collect()
    }

    #[test]
    fn store_rejects_duplicates_across_chunks_and_table_growth() {
        // 3,000 five-word states fill 24 chunks of 128 states and grow
        // the table from 64 to 4,096 slots.
        let width = 5;
        let mut store = StateStore::new(width);
        for i in 0..3_000 {
            assert_eq!(
                store.insert(&state(i, width)),
                Some(i as usize),
                "state {i}"
            );
            // Every earlier state, including those of earlier chunks and
            // those placed before the last growth, is still found.
            if i % 97 == 0 {
                for j in (0..=i).step_by(13) {
                    assert_eq!(store.insert(&state(j, width)), None, "state {j} at {i}");
                }
            }
        }
        assert_eq!((store.chunks.len(), store.bits), (24, 12));
        for i in 0..3_000 {
            assert_eq!(store.insert(&state(i, width)), None, "state {i}");
            assert_eq!(store.get(i as usize), state(i, width));
        }
        assert_eq!(store.len(), 3_000);
    }

    #[test]
    fn store_len_counts_distinct_inserts() {
        let mut store = StateStore::new(3);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..1_000u32 {
            let s = [i % 7, i % 11, i % 5];
            assert_eq!(store.insert(&s).is_some(), distinct.insert(s), "{s:?}");
        }
        assert_eq!(store.len(), distinct.len());
    }

    #[test]
    fn store_holds_one_word_states() {
        let mut store = StateStore::new(1);
        for round in 0..2 {
            for w in 0..200u32 {
                let new = store.insert(&[w * 3]);
                assert_eq!(new.is_some(), round == 0, "word {w}, round {round}");
            }
        }
        assert_eq!(store.len(), 200);
        assert_eq!(store.get(199), [597]);
    }

    #[test]
    fn successor_copies_its_source_within_and_across_chunks() {
        let mut store = StateStore::new(2);
        store.insert(&[1, 2]);
        // The free slot is in the same chunk as state 0.
        store.successor(0)[1] = 9;
        assert_eq!(store.commit(), Some(1));
        for i in 2..512 {
            store.insert(&[i, i]);
        }
        // The free slot (state 512) is in chunk 1, state 1 in chunk 0.
        assert_eq!(store.successor(1), [1, 9]);
        assert_eq!(store.commit(), None);
        store.successor(1)[0] = 5;
        assert_eq!(store.commit(), Some(512));
        assert_eq!(store.get(512), [5, 9]);
        assert_eq!(store.chunks.len(), 2);
    }
}
