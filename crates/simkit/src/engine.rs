//! The simulation engine: a clock plus an event queue.
//!
//! [`Engine`] advances simulated time monotonically as events are popped.
//! Models drive the loop themselves, which keeps the kernel free of any
//! callback or trait-object machinery:
//!
//! ```
//! use simkit::{Engine, SimDuration};
//!
//! enum Ev { Tick(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule_in(SimDuration::from_ns(1), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some(scheduled) = engine.pop() {
//!     let Ev::Tick(n) = scheduled.event;
//!     ticks += 1;
//!     if n < 9 {
//!         engine.schedule_in(SimDuration::from_ns(1), Ev::Tick(n + 1));
//!     }
//! }
//! assert_eq!(ticks, 10);
//! assert_eq!(engine.now().as_ns(), 10);
//! ```

use crate::event::{EventQueue, QueueStats, Scheduled};
use crate::time::{SimDuration, SimTime};

/// A simulation clock and event queue.
///
/// Time only moves when events are popped, and never backwards; scheduling
/// an event in the past is a logic error and panics in debug builds.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`], on the
    /// reference heap-backed queue.
    pub fn new() -> Self {
        Self::on(EventQueue::new())
    }

    /// Creates an engine on the allocation-free ladder queue with the
    /// given near-future horizon (see [`EventQueue::with_horizon`]).
    pub fn with_horizon(horizon: SimDuration) -> Self {
        Self::on(EventQueue::with_horizon(horizon))
    }

    fn on(queue: EventQueue<E>) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue,
            processed: 0,
        }
    }

    /// Rewinds the clock to zero and drops pending events, retaining the
    /// queue's allocated capacity — lets one engine be reused across a
    /// sweep's load points without reallocating its rings.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.processed = 0;
        self.queue.clear();
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Queue-backend telemetry counters (see [`QueueStats`]); all-zero on
    /// the heap backend.
    #[inline]
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Schedules `event` to fire `delay` after the current instant.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    /// Panics in debug builds if `time` is before the current instant.
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, event);
    }

    /// Takes the sequence number of an event the caller holds outside the
    /// queue (see [`EventQueue::reserve_seq`]).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules `event` at the absolute instant `time` under `seq`, a
    /// number taken earlier with [`Engine::reserve_seq`].
    ///
    /// # Panics
    /// Panics in debug builds if `time` is before the current instant.
    #[inline]
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: now={:?} target={:?}",
            self.now,
            time
        );
        self.queue.push_reserved(time, seq, event);
    }

    /// Pops the earliest event and advances the clock to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let scheduled = self.queue.pop()?;
        debug_assert!(scheduled.time >= self.now, "event queue went backwards");
        self.now = scheduled.time;
        self.processed += 1;
        Some(scheduled)
    }

    /// Pops the earliest event if its `(time, seq)` is below the key and
    /// advances the clock to it. Otherwise pops nothing, advances the
    /// clock to `time` and returns `None`: the caller fires the event it
    /// holds under that key (its number from [`Engine::reserve_seq`])
    /// there. Either way one event fires, and it is counted in
    /// [`Engine::events_processed`]. Always inlined, like
    /// [`EventQueue::pop_before`].
    #[inline(always)]
    pub fn pop_before(&mut self, time: SimTime, seq: u64) -> Option<Scheduled<E>> {
        self.processed += 1;
        let scheduled = self.queue.pop_before(time, seq);
        let fires_at = scheduled.as_ref().map_or(time, |s| s.time);
        debug_assert!(fires_at >= self.now, "event queue went backwards");
        self.now = fires_at;
        scheduled
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_ns(10), "b");
        e.schedule_in(SimDuration::from_ns(5), "a");
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.pop().unwrap().event, "a");
        assert_eq!(e.now().as_ns(), 5);
        assert_eq!(e.pop().unwrap().event, "b");
        assert_eq!(e.now().as_ns(), 10);
        assert!(e.pop().is_none());
        assert_eq!(e.events_processed(), 2);
    }

    #[test]
    fn schedule_relative_to_advanced_clock() {
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_ns(5), 1u8);
        e.pop();
        e.schedule_in(SimDuration::from_ns(5), 2u8);
        let s = e.pop().unwrap();
        assert_eq!(s.time.as_ns(), 10);
    }

    #[test]
    fn schedule_at_absolute() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ns(42), ());
        assert_eq!(e.pop().map(|s| s.time), Some(SimTime::from_ns(42)));
        assert_eq!(e.now(), SimTime::from_ns(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn schedule_into_past_panics() {
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_ns(10), ());
        e.pop();
        e.schedule_at(SimTime::from_ns(1), ());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_ns(3);
        e.schedule_at(t, 1u8);
        e.schedule_at(t, 2u8);
        e.schedule_at(t, 3u8);
        let order: Vec<u8> = std::iter::from_fn(|| e.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ladder_engine_matches_heap_engine() {
        let mut heap = Engine::new();
        let mut ladder = Engine::with_horizon(SimDuration::from_ns(2));
        for e in [&mut heap, &mut ladder] {
            e.schedule_in(SimDuration::from_ns(30), 0u8);
            e.schedule_in(SimDuration::from_ns(7), 1);
            e.schedule_in(SimDuration::from_ns(7), 2);
        }
        loop {
            let (a, b) = (heap.pop(), ladder.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            // Self-scheduling chains advance identically.
            if heap.events_processed() < 10 {
                heap.schedule_in(SimDuration::from_ns(3), 9);
                ladder.schedule_in(SimDuration::from_ns(3), 9);
            }
        }
        assert_eq!(heap.now(), ladder.now());
        assert_eq!(heap.events_processed(), ladder.events_processed());
    }

    #[test]
    fn pop_before_fires_the_held_event_at_its_key_on_a_miss() {
        for mut e in [Engine::new(), Engine::with_horizon(SimDuration::from_ns(2))] {
            let held = e.reserve_seq();
            e.schedule_at(SimTime::from_ns(10), "queued");
            e.schedule_at(SimTime::from_ns(4), "early");
            // The queued head precedes the held key: it pops.
            let s = e.pop_before(SimTime::from_ns(7), held).unwrap();
            assert_eq!((s.event, e.now()), ("early", SimTime::from_ns(4)));
            // A miss advances the clock to the key and counts one event.
            assert!(e.pop_before(SimTime::from_ns(7), held).is_none());
            assert_eq!(e.now(), SimTime::from_ns(7));
            assert_eq!(e.events_processed(), 2);
            // Pushed later under its older number, the held event pops
            // before the one queued at the same instant.
            e.schedule_reserved(SimTime::from_ns(10), held, "held");
            assert_eq!(e.pop().unwrap().event, "held");
            assert_eq!(e.pop().unwrap().event, "queued");
            assert_eq!(e.events_processed(), 4);
        }
    }

    #[test]
    fn reset_rewinds_clock_and_queue() {
        let mut e = Engine::with_horizon(SimDuration::from_ns(100));
        e.schedule_in(SimDuration::from_ns(5), ());
        e.pop();
        e.schedule_in(SimDuration::from_ns(5), ());
        e.reset();
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.events_processed(), 0);
        assert!(e.pop().is_none());
    }
}
