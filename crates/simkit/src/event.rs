//! Timestamped event queue with deterministic ordering.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-break via a monotone sequence number). This
//! makes whole-simulation behaviour a pure function of the inputs and the
//! RNG seed.
//!
//! Two backends implement the same contract:
//!
//! * a binary heap ([`EventQueue::new`]) — the reference implementation,
//!   `O(log n)` per operation;
//! * a two-level ladder/calendar queue ([`EventQueue::with_horizon`]) —
//!   near-future events bucketed into reusable rings, far-future events
//!   in an overflow heap, `O(1)` amortized per operation and
//!   allocation-free in steady state (see [`crate::wheel`]).
//!
//! The pop order of both backends is **bit-identical**: the smallest
//! `(time, seq)` pair always pops first, so swapping backends can never
//! change a simulation's output.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};
use crate::wheel::LadderQueue;

/// An event plus the instant it fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// Selects an [`EventQueue`] backend; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventQueueKind {
    /// The reference `BinaryHeap` backend.
    Heap,
    /// The ladder/calendar backend with the given near-future horizon.
    Ladder {
        /// Width of the bucketed near-future window. Pick a few multiples
        /// of the typical event-scheduling lookahead; events beyond it
        /// spill to the overflow heap (correct but slower).
        horizon: SimDuration,
    },
}

impl EventQueueKind {
    /// The ladder backend with the default horizon used by the
    /// full-system simulator. 16 µs keeps the overflow heap cold even
    /// against the *tail* of a sub-µs RPC workload's lookahead: an
    /// exponential 600 ns service exceeds a 4 µs window ~e⁻⁶ of the
    /// time (hundreds of spills per million requests) but exceeds 16 µs
    /// with probability ~e⁻²⁷ — never, at any realistic request count.
    /// Since every backend pops in bit-identical order, the horizon
    /// trades speed only, and the wider window also wins on raw
    /// throughput (fewer ring-skip scans per pop).
    pub fn default_ladder() -> Self {
        EventQueueKind::Ladder {
            horizon: SimDuration::from_us(16),
        }
    }
}

impl Default for EventQueueKind {
    fn default() -> Self {
        EventQueueKind::default_ladder()
    }
}

#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

// Order entries so the *smallest* (time, seq) pops first from a max-heap.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Backend telemetry counters, exported into the harness timing sidecar.
///
/// Only the ladder backend produces non-zero values: `overflow_pushes`
/// counts events that missed the rolling near window and landed in the
/// overflow heap, `overflow_migrations` counts events later pulled back
/// into rings. Both are **zero in steady state** when the scheduling
/// lookahead fits the configured horizon — the property that makes the
/// ladder allocation-free and O(1); a non-zero count on a steady
/// workload means the horizon is mis-sized.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Events routed to the far-future overflow heap on push.
    pub overflow_pushes: u64,
    /// Events migrated from the overflow heap back into near rings.
    pub overflow_migrations: u64,
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Ladder(LadderQueue<E>),
}

/// A deterministic priority queue of timestamped events.
///
/// # Example
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(10), "late");
/// q.push(SimTime::from_ns(1), "early");
/// q.push(SimTime::from_ns(10), "late-second");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert_eq!(q.pop().unwrap().event, "late-second");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the reference heap backend.
    pub fn new() -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            seq: 0,
        }
    }

    /// Creates an empty heap-backed queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::with_capacity(capacity)),
            seq: 0,
        }
    }

    /// Creates an empty queue on the ladder/calendar backend with the
    /// given near-future `horizon` (see [`EventQueueKind::Ladder`]).
    ///
    /// # Panics
    /// Panics if `horizon` is zero.
    pub fn with_horizon(horizon: SimDuration) -> Self {
        EventQueue {
            backend: Backend::Ladder(LadderQueue::new(horizon)),
            seq: 0,
        }
    }

    /// Creates an empty queue on the given backend.
    pub fn with_kind(kind: EventQueueKind) -> Self {
        match kind {
            EventQueueKind::Heap => Self::new(),
            EventQueueKind::Ladder { horizon } => Self::with_horizon(horizon),
        }
    }

    /// Schedules `event` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(entry),
            Backend::Ladder(ladder) => ladder.push(entry),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = match &mut self.backend {
            Backend::Heap(heap) => heap.pop(),
            Backend::Ladder(ladder) => ladder.pop(),
        };
        entry.map(|e| Scheduled {
            time: e.time,
            event: e.event,
        })
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.time),
            Backend::Ladder(ladder) => ladder.peek_time(),
        }
    }

    /// Backend telemetry counters (all-zero for the heap backend; see
    /// [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        match &self.backend {
            Backend::Heap(_) => QueueStats::default(),
            Backend::Ladder(ladder) => {
                let (overflow_pushes, overflow_migrations) = ladder.stats();
                QueueStats {
                    overflow_pushes,
                    overflow_migrations,
                }
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Ladder(ladder) => ladder.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, retaining allocated capacity so a reused
    /// queue stays allocation-free.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Ladder(ladder) => ladder.clear(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every contract test runs against both backends.
    fn both_backends<E>() -> Vec<EventQueue<E>> {
        vec![
            EventQueue::new(),
            EventQueue::with_horizon(SimDuration::from_ns(4)),
        ]
    }

    #[test]
    fn orders_by_time() {
        for mut q in both_backends() {
            q.push(SimTime::from_ns(3), 3u32);
            q.push(SimTime::from_ns(1), 1);
            q.push(SimTime::from_ns(2), 2);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        }
    }

    #[test]
    fn fifo_tie_break_for_equal_times() {
        for mut q in both_backends() {
            for i in 0..100u32 {
                q.push(SimTime::from_ns(7), i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        for mut q in both_backends() {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_ns(9), ());
            q.push(SimTime::from_ns(4), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(4)));
            let popped = q.pop().unwrap();
            assert_eq!(popped.time, SimTime::from_ns(4));
        }
    }

    #[test]
    fn len_and_clear() {
        let mut queues = both_backends();
        queues.push(EventQueue::with_capacity(8));
        for mut q in queues {
            assert!(q.is_empty());
            q.push(SimTime::ZERO, 1);
            q.push(SimTime::ZERO, 2);
            assert_eq!(q.len(), 2);
            q.clear();
            assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        for mut q in both_backends() {
            q.push(SimTime::from_ns(10), "a");
            q.push(SimTime::from_ns(5), "b");
            assert_eq!(q.pop().unwrap().event, "b");
            q.push(SimTime::from_ns(7), "c");
            q.push(SimTime::from_ns(10), "d");
            assert_eq!(q.pop().unwrap().event, "c");
            assert_eq!(q.pop().unwrap().event, "a");
            assert_eq!(q.pop().unwrap().event, "d");
        }
    }

    #[test]
    fn backend_selection_by_kind() {
        let heap: EventQueue<()> = EventQueue::with_kind(EventQueueKind::Heap);
        let ladder: EventQueue<()> = EventQueue::with_kind(EventQueueKind::default_ladder());
        assert!(matches!(heap.backend, Backend::Heap(_)));
        assert!(matches!(ladder.backend, Backend::Ladder(_)));
    }
}
