//! The per-core store buffer.
//!
//! Stores retire into a bounded FIFO and drain to the memory system in the
//! background; the cost of draining each entry depends on whether the line is
//! already exclusively owned. Fences that must wait for visibility pay the
//! *residual* drain time, which is what makes their cost context-dependent:
//! in a tight microbenchmark loop the buffer is empty and every full fence
//! costs its base latency, while in a store-heavy macrobenchmark the same
//! fence waits for the buffer to empty. This is the central mechanism behind
//! the paper's micro/macro divergences.

use std::collections::VecDeque;

/// One buffered store: the line key it writes and the absolute time (cycles)
/// at which its drain completes.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line_key: u64,
    completes: f64,
}

/// A bounded FIFO store buffer with background drain.
#[derive(Debug, Clone)]
pub(crate) struct StoreBuffer {
    entries: VecDeque<Entry>,
    capacity: usize,
    /// Completion time of the most recently enqueued entry (the drain point
    /// for a full fence). Monotonically non-decreasing.
    back_completes: f64,
    /// Cumulative cycles lost to capacity stalls, for statistics.
    pub stall_cycles: f64,
    /// Number of capacity stalls.
    pub stalls: u64,
}

impl StoreBuffer {
    /// An empty buffer with the given capacity.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer needs at least one entry");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            back_completes: 0.0,
            stall_cycles: 0.0,
            stalls: 0,
        }
    }

    /// Empty the buffer and zero its statistics, keeping the backing
    /// allocation: equivalent to `StoreBuffer::new(capacity)`.
    pub(crate) fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "store buffer needs at least one entry");
        self.entries.clear();
        self.capacity = capacity;
        self.back_completes = 0.0;
        self.stall_cycles = 0.0;
        self.stalls = 0;
    }

    /// Drop entries whose drain completed at or before `now`.
    pub(crate) fn expire(&mut self, now: f64) {
        while let Some(front) = self.entries.front() {
            if front.completes <= now {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Enqueue a store at time `now` whose drain takes `drain_cycles` once it
    /// reaches the head of coherence order. Returns the new current time: if
    /// the buffer was full, the core stalls until the oldest entry drains.
    ///
    /// FIFO order is preserved: a store's completion time is never earlier
    /// than its predecessor's (total store order per core — this is also what
    /// makes `dmb ishst` nearly free when the buffer is draining anyway).
    pub(crate) fn push(&mut self, now: f64, line_key: u64, drain_cycles: f64) -> f64 {
        self.expire(now);
        let mut now = now;
        if self.entries.len() >= self.capacity {
            // Stall until the head completes.
            let head = self.entries.front().expect("capacity > 0").completes;
            debug_assert!(head > now);
            self.stall_cycles += head - now;
            self.stalls += 1;
            now = head;
            self.expire(now);
        }
        let start = self.back_completes.max(now);
        let completes = start + drain_cycles;
        self.back_completes = completes;
        self.entries.push_back(Entry {
            line_key,
            completes,
        });
        now
    }

    /// Residual cycles until the buffer is fully drained, as seen at `now`.
    /// Zero when empty — the microbenchmark case.
    pub(crate) fn pending_wait(&mut self, now: f64) -> f64 {
        self.expire(now);
        if self.entries.is_empty() {
            0.0
        } else {
            (self.back_completes - now).max(0.0)
        }
    }

    /// Whether a load from `line_key` can be satisfied by forwarding from the
    /// buffer (a younger store to the same line is still buffered).
    pub(crate) fn forwards(&mut self, now: f64, line_key: u64) -> bool {
        self.expire(now);
        self.entries.iter().any(|e| e.line_key == line_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_has_no_wait() {
        let mut sb = StoreBuffer::new(4);
        assert_eq!(sb.pending_wait(0.0), 0.0);
        assert!(sb.entries.is_empty());
    }

    #[test]
    fn drain_times_are_fifo() {
        let mut sb = StoreBuffer::new(8);
        sb.push(0.0, 1, 10.0);
        sb.push(0.0, 2, 5.0);
        // Second store completes after the first despite a shorter drain.
        assert_eq!(sb.pending_wait(0.0), 15.0);
        sb.expire(12.0);
        assert_eq!(sb.entries.len(), 1);
        sb.expire(15.0);
        assert!(sb.entries.is_empty());
    }

    #[test]
    fn capacity_stall_advances_time() {
        let mut sb = StoreBuffer::new(2);
        sb.push(0.0, 1, 10.0); // completes 10
        sb.push(0.0, 2, 10.0); // completes 20
        let t = sb.push(0.0, 3, 10.0); // must wait for entry 1
        assert_eq!(t, 10.0);
        assert_eq!(sb.stalls, 1);
        assert_eq!(sb.stall_cycles, 10.0);
    }

    #[test]
    fn forwarding_sees_buffered_lines() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0.0, 42, 50.0);
        assert!(sb.forwards(1.0, 42));
        assert!(!sb.forwards(1.0, 43));
        // After the drain completes the line is no longer forwarded.
        assert!(!sb.forwards(51.0, 42));
    }

    #[test]
    fn pending_wait_decreases_with_time() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0.0, 1, 30.0);
        assert_eq!(sb.pending_wait(0.0), 30.0);
        assert_eq!(sb.pending_wait(10.0), 20.0);
        assert_eq!(sb.pending_wait(40.0), 0.0);
    }
}
