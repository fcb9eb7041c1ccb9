//! Memory-event extraction: the accesses of a [`LitmusTest`] as flat,
//! indexable events, with the per-location store groups candidate
//! executions are built over.

use wmm_litmus::ops::{LOp, LitmusTest};

/// One memory access event.
#[derive(Debug, Clone)]
pub(crate) struct Event {
    /// Thread index.
    pub thread: usize,
    /// Op index within the thread (the index [`LitmusTest::ordered`]
    /// speaks about).
    pub op: usize,
    /// Is this a store?
    pub is_store: bool,
    /// Variable accessed.
    pub loc: usize,
    /// Value written (stores; 0 for loads).
    pub val: u32,
    /// Destination register (loads).
    pub reg: Option<usize>,
}

/// The event view of a litmus test: every access as an [`Event`], plus the
/// indices needed to enumerate candidate executions — loads in a fixed
/// order and stores grouped per location.
#[derive(Debug)]
pub(crate) struct EventGraph<'t> {
    /// The underlying test (ppo queries go through
    /// [`LitmusTest::ordered`], so the axiomatic per-thread order is the
    /// explorer's by construction).
    pub test: &'t LitmusTest,
    /// All access events, in `(thread, op)` order.
    pub events: Vec<Event>,
    /// Event ids of loads, in `(thread, op)` order — the rf-choice slots.
    pub loads: Vec<usize>,
    /// Event ids of stores per location — the co-permutation groups.
    pub stores_by_loc: Vec<Vec<usize>>,
    /// Number of variables (mirrors [`LitmusTest::num_vars`]).
    pub num_vars: usize,
    /// Register-file widths per thread, mirroring the explorer's layout
    /// (max load register + 1).
    pub reg_widths: Vec<usize>,
}

impl<'t> EventGraph<'t> {
    /// Extract the events of `test`.
    #[must_use]
    pub(crate) fn new(test: &'t LitmusTest) -> Self {
        let num_vars = test.num_vars();
        let mut events = vec![];
        let mut loads = vec![];
        let mut stores_by_loc = vec![vec![]; num_vars];
        let mut reg_widths = vec![];
        for (t, ops) in test.threads.iter().enumerate() {
            let mut width = 0;
            for (j, op) in ops.iter().enumerate() {
                match *op {
                    LOp::Store { var, val, .. } => {
                        stores_by_loc[var].push(events.len());
                        events.push(Event {
                            thread: t,
                            op: j,
                            is_store: true,
                            loc: var,
                            val,
                            reg: None,
                        });
                    }
                    LOp::Load { var, reg, .. } => {
                        width = width.max(reg + 1);
                        loads.push(events.len());
                        events.push(Event {
                            thread: t,
                            op: j,
                            is_store: false,
                            loc: var,
                            val: 0,
                            reg: Some(reg),
                        });
                    }
                    LOp::Fence(_) => {}
                }
            }
            reg_widths.push(width);
        }
        EventGraph {
            test,
            events,
            loads,
            stores_by_loc,
            num_vars,
            reg_widths,
        }
    }

    /// Same-location stores as `ev` (including itself if a store).
    #[must_use]
    pub(crate) fn co_group(&self, ev: usize) -> &[usize] {
        &self.stores_by_loc[self.events[ev].loc]
    }
}
