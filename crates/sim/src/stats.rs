//! Execution statistics collected by a simulation run.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::isa::FenceKind;
use crate::mem::{AccessOutcome, LineKeyHasher};

/// Per-fence-kind counter map. Updated on every fence retirement, so it
/// uses the simulator's fast deterministic hasher instead of SipHash; all
/// reads are point lookups (aggregation iterates [`FenceKind::ALL`], never
/// the map), so the hash function cannot influence results.
pub(crate) type FenceMap<V> = HashMap<FenceKind, V, BuildHasherDefault<LineKeyHasher>>;

/// Raw event counters, shared by all cores of a run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Atomic read-modify-writes executed.
    pub atomics: u64,
    /// Failed reservation retries inside atomics.
    pub cas_retries: u64,
    /// Load-acquires.
    pub acquires: u64,
    /// Store-releases.
    pub releases: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Dirty-line transfers between cores.
    pub coherence_transfers: u64,
    /// Cost-function invocations.
    pub cost_loop_invocations: u64,
    /// Total cost-function loop iterations.
    pub cost_loop_iters: u64,
    /// Fence executions by kind.
    pub fence_counts: FenceMap<u64>,
    /// Cycles spent stalled in fences, by kind.
    pub fence_cycles: FenceMap<f64>,
}

impl Counters {
    /// Record a memory-access outcome.
    pub(crate) fn record_access(&mut self, outcome: AccessOutcome) {
        match outcome {
            AccessOutcome::L1Hit => self.l1_hits += 1,
            AccessOutcome::LlcHit => self.llc_hits += 1,
            AccessOutcome::Dram => self.dram_accesses += 1,
            AccessOutcome::CoherenceTransfer => self.coherence_transfers += 1,
        }
    }

    /// Record a fence execution.
    pub fn record_fence(&mut self, kind: FenceKind) {
        *self.fence_counts.entry(kind).or_insert(0) += 1;
    }

    /// Record cycles spent in a fence.
    pub fn record_fence_cycles(&mut self, kind: FenceKind, cycles: f64) {
        *self.fence_cycles.entry(kind).or_insert(0.0) += cycles;
    }

    /// Accumulate another run's counters into this one — the campaign-level
    /// aggregation primitive the telemetry layer is built on.
    ///
    /// Summation order over fence kinds is fixed by [`FenceKind::ALL`], so
    /// aggregating the same multiset of runs always produces bit-identical
    /// totals regardless of worker count or arrival order... provided the
    /// *caller* merges runs in a deterministic order (float addition is not
    /// commutative-associative in general).
    pub fn merge(&mut self, other: &Counters) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.atomics += other.atomics;
        self.cas_retries += other.cas_retries;
        self.acquires += other.acquires;
        self.releases += other.releases;
        self.mispredicts += other.mispredicts;
        self.l1_hits += other.l1_hits;
        self.llc_hits += other.llc_hits;
        self.dram_accesses += other.dram_accesses;
        self.coherence_transfers += other.coherence_transfers;
        self.cost_loop_invocations += other.cost_loop_invocations;
        self.cost_loop_iters += other.cost_loop_iters;
        for kind in FenceKind::ALL {
            if let Some(&n) = other.fence_counts.get(&kind) {
                *self.fence_counts.entry(kind).or_insert(0) += n;
            }
            if let Some(&c) = other.fence_cycles.get(&kind) {
                *self.fence_cycles.entry(kind).or_insert(0.0) += c;
            }
        }
    }
}

/// Stall attribution of one executed instruction site, identified by its
/// stable site id `(thread, stream index)`. Produced by
/// `Machine::run_sited_with` through the [`crate::probe`] seam; `None` causes are
/// compute time (`total_cycles` minus the attributed stalls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteStall {
    /// Thread (core) index.
    pub thread: u32,
    /// Instruction index within the thread's stream.
    pub index: u32,
    /// Fence kind executed at this site, if any.
    pub fence: Option<FenceKind>,
    /// Fence executions at this site.
    pub fences: u64,
    /// Cycles stalled in fences at this site.
    pub fence_cycles: f64,
    /// Cycles lost to store-buffer capacity stalls at this site.
    pub sb_stall_cycles: f64,
    /// Memory-access cycles exposed on the critical path at this site.
    pub mem_cycles: f64,
    /// Total cycles the site advanced its core's clock by.
    pub total_cycles: f64,
}

/// Result of one full program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Wall-clock time: the slowest core's finish time, in nanoseconds.
    pub wall_ns: f64,
    /// Per-core finish times, cycles.
    pub core_cycles: Vec<f64>,
    /// Event counters.
    pub counters: Counters,
    /// Cycles lost to store-buffer capacity stalls, summed over cores.
    pub sb_stall_cycles: f64,
    /// Number of store-buffer capacity stalls.
    pub sb_stalls: u64,
    /// Per-site stall attribution, sorted by `(thread, index)`. `None`
    /// unless the run was driven through `Machine::run_sited_with` — the
    /// default path carries no observability cost.
    pub per_site: Option<Vec<SiteStall>>,
}

impl ExecStats {
    /// Number of fences of `kind` executed.
    pub fn fences(&self, kind: FenceKind) -> u64 {
        self.counters.fence_counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total cycles spent stalled in fences of `kind`.
    pub fn fence_stall_cycles(&self, kind: FenceKind) -> f64 {
        self.counters
            .fence_cycles
            .get(&kind)
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_accounting() {
        let mut c = Counters::default();
        c.record_fence(FenceKind::DmbIsh);
        c.record_fence(FenceKind::DmbIsh);
        c.record_fence_cycles(FenceKind::DmbIsh, 10.0);
        c.record_fence_cycles(FenceKind::DmbIsh, 14.0);
        let stats = ExecStats {
            wall_ns: 1.0,
            core_cycles: vec![],
            counters: c,
            sb_stall_cycles: 0.0,
            sb_stalls: 0,
            per_site: None,
        };
        assert_eq!(stats.fences(FenceKind::DmbIsh), 2);
        assert_eq!(stats.fence_stall_cycles(FenceKind::DmbIsh), 24.0);
        assert_eq!(stats.fences(FenceKind::Isb), 0);
        assert_eq!(stats.fence_stall_cycles(FenceKind::Isb), 0.0);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = Counters {
            loads: 1,
            stores: 2,
            cost_loop_invocations: 3,
            cost_loop_iters: 300,
            ..Counters::default()
        };
        a.record_fence(FenceKind::DmbIsh);
        a.record_fence_cycles(FenceKind::DmbIsh, 7.0);
        let mut b = Counters {
            loads: 10,
            mispredicts: 4,
            ..Counters::default()
        };
        b.record_fence(FenceKind::DmbIsh);
        b.record_fence(FenceKind::Isb);
        b.record_fence_cycles(FenceKind::DmbIsh, 5.0);
        b.record_fence_cycles(FenceKind::Isb, 48.0);
        a.merge(&b);
        assert_eq!(a.loads, 11);
        assert_eq!(a.stores, 2);
        assert_eq!(a.mispredicts, 4);
        assert_eq!(a.cost_loop_invocations, 3);
        assert_eq!(a.fence_counts[&FenceKind::DmbIsh], 2);
        assert_eq!(a.fence_counts[&FenceKind::Isb], 1);
        assert_eq!(a.fence_cycles[&FenceKind::DmbIsh], 12.0);
        assert_eq!(a.fence_cycles[&FenceKind::Isb], 48.0);
    }

    #[test]
    fn access_outcomes_tallied() {
        let mut c = Counters::default();
        c.record_access(AccessOutcome::L1Hit);
        c.record_access(AccessOutcome::L1Hit);
        c.record_access(AccessOutcome::Dram);
        c.record_access(AccessOutcome::CoherenceTransfer);
        assert_eq!(c.l1_hits, 2);
        assert_eq!(c.dram_accesses, 1);
        assert_eq!(c.coherence_transfers, 1);
        assert_eq!(c.llc_hits, 0);
    }
}
