//! The shared memory system: a coherence directory over read-write shared
//! lines plus a probabilistic locality model for private and read-only data.
//!
//! Read-write shared lines ([`crate::isa::Loc::SharedRw`]) are tracked
//! exactly: the directory knows which core owns a line dirty and which cores
//! hold clean copies, so cross-core communication (the thing fencing
//! strategies exist to order) pays real transfer and invalidation latencies
//! that depend on the interleaving.
//!
//! Private and read-only lines do not generate coherence traffic; their hit
//! rates are a property of the *workload* (its working-set size and access
//! pattern), so they are sampled from the workload context's miss rates with
//! the run's seeded RNG.
//!
//! `is_shared` names the instructions whose effect another core can
//! observe; the run loop orders only those in global time and lets each
//! core run ahead through the rest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::arch::ArchSpec;
use crate::isa::{Instr, Loc};
use crate::rng::SplitMix64;

/// Whether executing `instr` touches state shared across cores, so that
/// the run loop must execute it in `(clock, core)` order:
///
/// * a `Load` of a `SharedRw` line, a `Store` to a `SharedRo` or `SharedRw`
///   line and every `Cas` read or write the coherence directory;
/// * every `Fence` adds its cycles into the run-wide
///   `Counters::fence_cycles` float sums, whose bits depend on the order
///   the cores' fences retire in.
///
/// Every other instruction reads and writes only its own core's clock,
/// credit, store buffer and RNG stream (a `Private` or `SharedRo` load
/// draws its hit or miss from that stream alone), the workload context and
/// order-free integer counters, so it may run ahead of other cores.
pub(crate) fn is_shared(instr: &Instr) -> bool {
    match *instr {
        Instr::Load { loc, .. } => matches!(loc, Loc::SharedRw(_)),
        Instr::Store { loc, .. } => !matches!(loc, Loc::Private(_)),
        Instr::Cas { .. } | Instr::Fence(_) => true,
        Instr::Nop
        | Instr::MovImm
        | Instr::Alu
        | Instr::CmpImm
        | Instr::CondBranch(_)
        | Instr::StackPush
        | Instr::StackPop
        | Instr::CostLoop { .. }
        | Instr::Compute { .. } => false,
    }
}

/// A fast, deterministic hasher for 64-bit line keys: the SplitMix64
/// finalizer. Line-map lookups happen on nearly every memory instruction,
/// and the default SipHash (keyed, DoS-resistant) is wasted on keys the
/// simulator itself constructs. No map is ever iterated, so the hash
/// function cannot influence results — only lookup speed.
#[derive(Debug, Default)]
pub struct LineKeyHasher(u64);

impl Hasher for LineKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        // Derived `Hash` for fieldless enums (e.g. `FenceKind`) hashes the
        // discriminant as an `isize`; route it through the word mixer.
        self.write_u64(i as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Line keys always hash through `write_u64`; keep a sound fallback
        // (FNV-1a) for any other key type.
        let mut h = self.0 ^ 0xCBF2_9CE4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineKeyHasher>>;

/// Sharing state of one read-write line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LineState {
    /// Dirty in exactly one core's cache.
    Modified(usize),
    /// Clean copies in the given cores (bitmask over core ids).
    Shared(u64),
}

/// Outcome of a memory access, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Served from the local L1.
    L1Hit,
    /// Served from the shared last-level cache.
    LlcHit,
    /// Served from DRAM.
    Dram,
    /// Required a dirty-line transfer from another core.
    CoherenceTransfer,
}

/// The memory system shared by all cores of a [`crate::machine::Machine`].
///
/// The directory doubles as the warmth record: every tracked-line operation
/// inserts into it and nothing ever removes, so "line absent from the
/// directory" is exactly "never touched" and the first access to a line is
/// the one that comes from DRAM.
#[derive(Debug)]
pub(crate) struct MemSys {
    directory: LineMap<LineState>,
}

/// Key used to disambiguate the address spaces of the three [`Loc`] classes
/// (and, for private lines, of each core).
pub(crate) fn line_key(core: usize, loc: Loc) -> u64 {
    match loc {
        // Private lines are per-core: fold the core id into the key.
        Loc::Private(l) => 0x1000_0000_0000_0000 | ((core as u64) << 48) | l,
        Loc::SharedRo(l) => 0x2000_0000_0000_0000 | l,
        Loc::SharedRw(l) => 0x3000_0000_0000_0000 | l,
    }
}

impl MemSys {
    /// A cold memory system.
    pub(crate) fn new() -> Self {
        MemSys {
            directory: LineMap::default(),
        }
    }

    /// Forget all line state, keeping the map allocations: equivalent to a
    /// cold [`MemSys::new`] for the next run.
    pub(crate) fn clear(&mut self) {
        self.directory.clear();
    }

    /// Cycle cost and classification of a **load** by `core` from `loc`.
    ///
    /// `miss_rate`/`dram_frac` describe the workload's locality for
    /// non-coherent data; `rng` supplies the seeded randomness.
    pub(crate) fn load(
        &mut self,
        core: usize,
        loc: Loc,
        spec: &ArchSpec,
        miss_rate: f64,
        dram_frac: f64,
        rng: &mut SplitMix64,
    ) -> (f64, AccessOutcome) {
        match loc {
            Loc::Private(_) | Loc::SharedRo(_) => {
                if rng.chance(miss_rate) {
                    if rng.chance(dram_frac) {
                        (spec.dram, AccessOutcome::Dram)
                    } else {
                        (spec.llc_hit, AccessOutcome::LlcHit)
                    }
                } else {
                    (spec.l1_hit, AccessOutcome::L1Hit)
                }
            }
            Loc::SharedRw(_) => {
                let key = line_key(core, loc);
                match self.directory.get_mut(&key) {
                    Some(LineState::Modified(owner)) => {
                        if *owner == core {
                            (spec.l1_hit, AccessOutcome::L1Hit)
                        } else {
                            // Dirty remote: transfer, both end up sharing.
                            let prev = *owner;
                            self.directory
                                .insert(key, LineState::Shared((1 << prev) | (1 << core)));
                            (spec.coherence_transfer, AccessOutcome::CoherenceTransfer)
                        }
                    }
                    Some(LineState::Shared(mask)) => {
                        if *mask & (1 << core) != 0 {
                            (spec.l1_hit, AccessOutcome::L1Hit)
                        } else {
                            *mask |= 1 << core;
                            (spec.llc_hit, AccessOutcome::LlcHit)
                        }
                    }
                    None => {
                        // Absent from the directory means never touched by
                        // any operation: this is the line's first access.
                        self.directory.insert(key, LineState::Shared(1 << core));
                        (spec.dram, AccessOutcome::Dram)
                    }
                }
            }
        }
    }

    /// Cycle cost of **draining a store** by `core` to `loc` out of the store
    /// buffer (the store itself retires into the buffer for free; this is
    /// the background cost the buffer model charges).
    pub(crate) fn store_drain(&mut self, core: usize, loc: Loc, spec: &ArchSpec) -> f64 {
        match loc {
            Loc::Private(_) => spec.sb_drain_local,
            // Writing read-only-classified data is allowed but behaves like
            // shared-rw for the drain (e.g. lazy init of interned data).
            Loc::SharedRo(_) | Loc::SharedRw(_) => {
                let key = line_key(core, loc);
                match self.directory.insert(key, LineState::Modified(core)) {
                    Some(LineState::Modified(owner)) if owner == core => spec.sb_drain_local,
                    Some(LineState::Shared(mask)) if mask == (1 << core) => {
                        // Sole sharer upgrading to exclusive: cheap.
                        spec.sb_drain_local
                    }
                    Some(_) => spec.sb_drain_remote + spec.invalidate,
                    None => spec.sb_drain_remote,
                }
            }
        }
    }

    /// Cycle cost for `core` to gain exclusive ownership for an atomic
    /// read-modify-write.
    pub(crate) fn rmw(&mut self, core: usize, loc: Loc, spec: &ArchSpec) -> (f64, AccessOutcome) {
        let key = line_key(core, loc);
        match self.directory.insert(key, LineState::Modified(core)) {
            Some(LineState::Modified(owner)) if owner == core => {
                (spec.l1_hit, AccessOutcome::L1Hit)
            }
            Some(_) => (spec.coherence_transfer, AccessOutcome::CoherenceTransfer),
            None => (spec.llc_hit, AccessOutcome::LlcHit),
        }
    }
}

impl Default for MemSys {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::armv8_xgene1;

    fn rng() -> SplitMix64 {
        SplitMix64::new(1)
    }

    #[test]
    fn private_load_hits_l1_when_miss_rate_zero() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        let (c, o) = m.load(0, Loc::Private(1), &spec, 0.0, 0.0, &mut rng());
        assert_eq!(o, AccessOutcome::L1Hit);
        assert_eq!(c, spec.l1_hit);
    }

    #[test]
    fn cold_shared_load_comes_from_dram() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        let (c, o) = m.load(0, Loc::SharedRw(5), &spec, 0.0, 0.0, &mut rng());
        assert_eq!(o, AccessOutcome::Dram);
        assert_eq!(c, spec.dram);
        // Second load from the same core now hits.
        let (c2, o2) = m.load(0, Loc::SharedRw(5), &spec, 0.0, 0.0, &mut rng());
        assert_eq!(o2, AccessOutcome::L1Hit);
        assert_eq!(c2, spec.l1_hit);
    }

    #[test]
    fn dirty_remote_load_transfers() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        // Core 0 writes the line (drain makes it Modified(0)).
        m.store_drain(0, Loc::SharedRw(9), &spec);
        // Core 1 reading pays a coherence transfer.
        let (c, o) = m.load(1, Loc::SharedRw(9), &spec, 0.0, 0.0, &mut rng());
        assert_eq!(o, AccessOutcome::CoherenceTransfer);
        assert_eq!(c, spec.coherence_transfer);
        // Both now share it: core 0 reads hit.
        let (_, o0) = m.load(0, Loc::SharedRw(9), &spec, 0.0, 0.0, &mut rng());
        assert_eq!(o0, AccessOutcome::L1Hit);
    }

    #[test]
    fn store_to_owned_line_is_cheap() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        let first = m.store_drain(0, Loc::SharedRw(3), &spec);
        let second = m.store_drain(0, Loc::SharedRw(3), &spec);
        assert!(first > second, "first {first} second {second}");
        assert_eq!(second, spec.sb_drain_local);
    }

    #[test]
    fn store_to_shared_line_invalidates() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        m.load(0, Loc::SharedRw(4), &spec, 0.0, 0.0, &mut rng());
        m.load(1, Loc::SharedRw(4), &spec, 0.0, 0.0, &mut rng());
        // Core 1 stores: other copies must die.
        let c = m.store_drain(1, Loc::SharedRw(4), &spec);
        assert_eq!(c, spec.sb_drain_remote + spec.invalidate);
    }

    #[test]
    fn rmw_ping_pong_costs_transfers() {
        let spec = armv8_xgene1();
        let mut m = MemSys::new();
        let (a, _) = m.rmw(0, Loc::SharedRw(7), &spec);
        let (b, ob) = m.rmw(1, Loc::SharedRw(7), &spec);
        let (c, oc) = m.rmw(0, Loc::SharedRw(7), &spec);
        assert!(a <= b && b == c);
        assert_eq!(ob, AccessOutcome::CoherenceTransfer);
        assert_eq!(oc, AccessOutcome::CoherenceTransfer);
        // Repeated rmw by the same core is cheap.
        let (d, od) = m.rmw(0, Loc::SharedRw(7), &spec);
        assert_eq!(od, AccessOutcome::L1Hit);
        assert!(d < c);
    }

    /// Every variant of `Instr` over every `Loc` class, ordering,
    /// `Mispredict` and `FenceKind`.
    fn every_instr() -> Vec<Instr> {
        use crate::isa::{AccessOrd, FenceKind, Mispredict};
        let mut all = vec![
            Instr::Nop,
            Instr::MovImm,
            Instr::Alu,
            Instr::CmpImm,
            Instr::CondBranch(Mispredict::Never),
            Instr::CondBranch(Mispredict::Rate(0.5)),
            Instr::CondBranch(Mispredict::Workload),
            Instr::StackPush,
            Instr::StackPop,
            Instr::Compute { cycles: 0 },
            Instr::Compute { cycles: 40 },
        ];
        for stack_spill in [false, true] {
            all.push(Instr::CostLoop {
                iters: 64,
                stack_spill,
            });
        }
        all.extend(FenceKind::ALL.map(Instr::Fence));
        for line in [1, 9] {
            for loc in [Loc::Private(line), Loc::SharedRo(line), Loc::SharedRw(line)] {
                for ord in [AccessOrd::Plain, AccessOrd::Acquire, AccessOrd::Release] {
                    all.push(Instr::Load { loc, ord });
                    all.push(Instr::Store { loc, ord });
                }
                all.push(Instr::Cas {
                    loc,
                    success_prob: 0.5,
                });
            }
        }
        all
    }

    #[test]
    fn local_instructions_leave_the_directory_unchanged() {
        use crate::exec::CoreState;
        use crate::machine::WorkloadCtx;
        use crate::probe::NullProbe;
        use crate::stats::Counters;

        let spec = armv8_xgene1();
        // Misses on private and read-only data, so every sampled path runs.
        let ctx = WorkloadCtx {
            l1_miss_rate: 0.5,
            dram_frac: 0.5,
            bp_pressure: 0.5,
            ..WorkloadCtx::default()
        };
        // Line 1 of every class (core 0's private key included) is shared
        // by cores 1 and 2, so any directory write by core 0 changes it;
        // line 9 is absent, so any insert adds it.
        let mut warm = MemSys::new();
        for loc in [Loc::Private(1), Loc::SharedRo(1), Loc::SharedRw(1)] {
            warm.directory
                .insert(line_key(0, loc), LineState::Shared(0b110));
        }
        let mut local = 0;
        for instr in every_instr() {
            let mut mem = MemSys {
                directory: warm.directory.clone(),
            };
            let mut core = CoreState::new(0, &spec);
            let mut counters = Counters::default();
            let mut rng = rng();
            for _ in 0..8 {
                core.step_probed(
                    &instr,
                    &spec,
                    &ctx,
                    &mut mem,
                    &mut rng,
                    &mut counters,
                    &mut NullProbe,
                );
            }
            if !is_shared(&instr) {
                local += 1;
                assert_eq!(mem.directory, warm.directory, "{instr:?} is local");
            }
        }
        // 13 register, stack and compute forms, 12 loads of private and
        // read-only lines, 6 stores to private lines.
        assert_eq!(local, 31);
    }

    #[test]
    fn private_lines_are_per_core() {
        assert_ne!(line_key(0, Loc::Private(1)), line_key(1, Loc::Private(1)));
        assert_eq!(line_key(0, Loc::SharedRw(1)), line_key(5, Loc::SharedRw(1)));
    }
}
