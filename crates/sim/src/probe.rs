//! The observation seam of the simulator: typed execution events.
//!
//! A [`Probe`] receives the executor's structured events — instruction
//! begin/retire, fence stalls, store-buffer capacity stalls, memory-access
//! outcomes — tagged with the *site id* `(thread, stream index)` of the
//! instruction that caused them. Every event reports values the simulator
//! has already computed; a probe can only observe, never perturb, so a run
//! driven through any probe produces bit-identical [`ExecStats`] to a run
//! without one (`NullProbe`, the default, discards everything).
//!
//! `SiteStallProbe` is the in-crate collector that folds the event stream
//! into the optional per-site stall map of [`ExecStats`]
//! ([`crate::stats::SiteStall`]) — the ground truth the `wmm-obs` crate
//! builds profiles, flamegraphs and campaign diffs on.
//!
//! [`ExecStats`]: crate::stats::ExecStats

use crate::isa::{FenceKind, Instr};
use crate::mem::AccessOutcome;
use crate::stats::SiteStall;

/// Receiver of the simulator's execution events.
///
/// All methods default to no-ops so probes implement only what they need.
/// Events between a [`Probe::begin`] and the matching [`Probe::retire`]
/// belong to that instruction's site; `begin`/`retire` always come in
/// non-nested pairs, in the machine's deterministic interleave order:
/// each thread's instructions in program order, shared instructions in
/// global `(clock, core)` order, and local ones as their core runs ahead.
pub trait Probe {
    /// An instruction at `(thread, index)` is about to execute.
    fn begin(&mut self, thread: usize, index: usize, instr: &Instr) {
        let _ = (thread, index, instr);
    }

    /// A fence of `kind` retired after stalling for `cycles` (0 for the
    /// free compiler barrier).
    fn fence_retired(&mut self, kind: FenceKind, cycles: f64) {
        let _ = (kind, cycles);
    }

    /// The store buffer was at capacity and stalled the core for `cycles`.
    fn sb_stall(&mut self, cycles: f64) {
        let _ = cycles;
    }

    /// A memory access resolved as `outcome`, exposing `cycles` on the
    /// core's critical path (after out-of-order overlap).
    fn access(&mut self, outcome: AccessOutcome, cycles: f64) {
        let _ = (outcome, cycles);
    }

    /// The instruction begun at `(thread, index)` retired, having advanced
    /// the core's clock by `cycles` to `now`.
    fn retire(&mut self, thread: usize, index: usize, cycles: f64, now: f64) {
        let _ = (thread, index, cycles, now);
    }
}

/// The default probe: discards every event. `Machine::run` drives the
/// executor through this, so the disabled-observability path is the same
/// code path as the enabled one — there is nothing to keep in sync.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullProbe;

impl Probe for NullProbe {}

/// Folds the event stream into one [`SiteStall`] record per executed
/// `(thread, index)` site — the collector behind `Machine::run_sited_with`.
///
/// Each site executes exactly once per run (per-thread program counters
/// only advance), so the fold is a plain append; [`SiteStallProbe::finish`]
/// sorts by `(thread, index)` for a canonical order.
#[derive(Debug, Default)]
pub(crate) struct SiteStallProbe {
    current: Option<SiteStall>,
    sites: Vec<SiteStall>,
}

impl SiteStallProbe {
    /// A fresh collector.
    pub(crate) fn new() -> Self {
        SiteStallProbe::default()
    }

    /// The collected per-site records, sorted by `(thread, index)`.
    pub(crate) fn finish(mut self) -> Vec<SiteStall> {
        self.sites.sort_by_key(|s| (s.thread, s.index));
        self.sites
    }
}

impl Probe for SiteStallProbe {
    fn begin(&mut self, thread: usize, index: usize, _instr: &Instr) {
        self.current = Some(SiteStall {
            thread: thread as u32,
            index: index as u32,
            fence: None,
            fences: 0,
            fence_cycles: 0.0,
            sb_stall_cycles: 0.0,
            mem_cycles: 0.0,
            total_cycles: 0.0,
        });
    }

    fn fence_retired(&mut self, kind: FenceKind, cycles: f64) {
        if let Some(site) = &mut self.current {
            site.fence = Some(kind);
            site.fences += 1;
            site.fence_cycles += cycles;
        }
    }

    fn sb_stall(&mut self, cycles: f64) {
        if let Some(site) = &mut self.current {
            site.sb_stall_cycles += cycles;
        }
    }

    fn access(&mut self, _outcome: AccessOutcome, cycles: f64) {
        if let Some(site) = &mut self.current {
            site.mem_cycles += cycles;
        }
    }

    fn retire(&mut self, _thread: usize, _index: usize, cycles: f64, _now: f64) {
        if let Some(mut site) = self.current.take() {
            site.total_cycles = cycles;
            self.sites.push(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_probe_folds_one_record_per_site() {
        let mut p = SiteStallProbe::new();
        p.begin(1, 0, &Instr::Alu);
        p.retire(1, 0, 0.25, 10.0);
        p.begin(0, 0, &Instr::Fence(FenceKind::DmbIsh));
        p.fence_retired(FenceKind::DmbIsh, 12.0);
        p.retire(0, 0, 12.0, 22.0);
        let sites = p.finish();
        assert_eq!(sites.len(), 2);
        // Canonical order: sorted by (thread, index), not arrival order.
        assert_eq!((sites[0].thread, sites[0].index), (0, 0));
        assert_eq!(sites[0].fence, Some(FenceKind::DmbIsh));
        assert_eq!(sites[0].fences, 1);
        assert_eq!(sites[0].fence_cycles, 12.0);
        assert_eq!(sites[1].total_cycles, 0.25);
        assert_eq!(sites[1].fence, None);
    }

    #[test]
    fn events_outside_a_site_are_ignored() {
        let mut p = SiteStallProbe::new();
        p.sb_stall(5.0);
        p.fence_retired(FenceKind::Isb, 1.0);
        assert!(p.finish().is_empty());
    }
}
