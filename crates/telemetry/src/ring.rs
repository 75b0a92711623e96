//! The allocation-free trace transport: a bounded lock-free event ring
//! plus a background flusher thread.
//!
//! The live server's hot path (TCP readers, worker threads) must never
//! block on trace I/O — a slow disk must cost *drops*, not latency. So
//! producers [`try_push`](EventRing::try_push) into a Vyukov-style
//! bounded MPMC ring (the shared [`ring`] crate's [`SlotRing`],
//! instantiated with [`TraceEvent`] slots), and a single [`RingFlusher`]
//! thread drains the ring into an [`EventSink`] — an in-memory `Vec` for
//! harness-driven runs, a streaming [`TraceWriter`] for
//! `valetd --trace`. When the ring is full the event is counted as
//! dropped and the producer returns immediately.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ::ring::SlotRing;

use crate::event::TraceEvent;
use crate::store::TraceWriter;

/// A lock-free bounded MPMC ring of [`TraceEvent`]s that counts, rather
/// than blocks on, overflow.
pub struct EventRing {
    ring: SlotRing<TraceEvent>,
    dropped: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding at least `capacity` events (rounded up to
    /// the next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            ring: SlotRing::with_capacity(capacity),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Enqueues an event without ever blocking; a full ring drops the
    /// event (counted) and returns `false`.
    pub fn try_push(&self, event: TraceEvent) -> bool {
        if self.ring.push(event) {
            true
        } else {
            // Never block the hot path — record the loss and move on.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Dequeues the oldest event, or `None` if the ring is empty.
    pub fn try_pop(&self) -> Option<TraceEvent> {
        self.ring.pop()
    }

    /// Events lost to a full ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Where the flusher delivers drained events.
pub trait EventSink: Send {
    /// Accepts one drained event, in ring (arrival) order.
    fn accept(&mut self, event: TraceEvent);
}

impl EventSink for Vec<TraceEvent> {
    fn accept(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

impl EventSink for TraceWriter {
    fn accept(&mut self, event: TraceEvent) {
        // A failed disk write must not panic the flusher mid-run; the
        // seal (count vs lines) exposes the truncation on load.
        let _ = self.append(&event);
    }
}

/// Background thread draining an [`EventRing`] into an [`EventSink`].
pub struct RingFlusher<S: EventSink + 'static> {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<S>,
}

impl<S: EventSink + 'static> RingFlusher<S> {
    /// Spawns the flusher. It polls the ring, sleeping briefly when the
    /// ring is empty, until [`finish`](RingFlusher::finish).
    pub fn spawn(ring: Arc<EventRing>, mut sink: S) -> RingFlusher<S> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            loop {
                let mut drained = false;
                while let Some(event) = ring.try_pop() {
                    sink.accept(event);
                    drained = true;
                }
                if stop_flag.load(Ordering::Acquire) {
                    // Producers are done: one final drain above saw an
                    // empty ring, so nothing more can appear.
                    if !drained {
                        break;
                    }
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            sink
        });
        RingFlusher { stop, handle }
    }

    /// Stops the flusher after a final full drain and returns the sink.
    /// Call only after every producer has quiesced, so no event races
    /// the last drain.
    pub fn finish(self) -> S {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("trace flusher panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Hop;

    fn ev(req: u64) -> TraceEvent {
        TraceEvent {
            req,
            hop: Hop::Completed,
            t_ps: req * 10,
            src: 1,
            core: 2,
        }
    }

    #[test]
    fn fifo_order_single_threaded() {
        let ring = EventRing::with_capacity(8);
        for r in 0..5 {
            assert!(ring.try_push(ev(r)));
        }
        for r in 0..5 {
            assert_eq!(ring.try_pop(), Some(ev(r)));
        }
        assert_eq!(ring.try_pop(), None);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let ring = EventRing::with_capacity(4);
        for r in 0..4 {
            assert!(ring.try_push(ev(r)));
        }
        assert!(!ring.try_push(ev(99)));
        assert!(!ring.try_push(ev(100)));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.try_pop(), Some(ev(0)), "existing events intact");
    }

    #[test]
    fn flusher_delivers_everything_from_many_producers() {
        let ring = Arc::new(EventRing::with_capacity(1024));
        let flusher = RingFlusher::spawn(Arc::clone(&ring), Vec::new());
        let producers = 4;
        let per_producer = 500u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        while !ring.try_push(ev(p * per_producer + i)) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = flusher.finish();
        assert_eq!(events.len(), (producers * per_producer) as usize);
        let mut reqs: Vec<u64> = events.iter().map(|e| e.req).collect();
        reqs.sort_unstable();
        reqs.dedup();
        assert_eq!(reqs.len(), events.len(), "no event duplicated or lost");
    }
}
