//! # ring — the workspace's one lock-free bounded MPMC ring
//!
//! A Vyukov-style bounded multi-producer multi-consumer queue of `Copy`
//! slots. `telemetry::EventRing` (the never-block trace transport)
//! instantiates it, and the benchmark ledger times it bare; the unsafe
//! reasoning below is written — and audited by `detlint` — exactly once.
//!
//! ## The Vyukov discipline
//!
//! Each slot carries a sequence number that encodes whether it is ready
//! to be written (producers) or read (consumers):
//!
//! * `seq == index` ⇒ the slot is free for the producer claiming
//!   position `index`;
//! * `seq == index + 1` ⇒ the slot holds a value for the consumer
//!   claiming position `index`;
//! * after a pop the slot's `seq` jumps a full lap ahead
//!   (`index + capacity`), handing it to the producer of the next lap.
//!
//! Neither path takes a lock; the common case is one CAS plus one
//! release store.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    /// Vyukov sequence: `== index` ⇒ free for the producer claiming
    /// `index`; `== index + 1` ⇒ holds a value for the consumer claiming
    /// `index`.
    seq: AtomicUsize,
    value: UnsafeCell<T>,
}

/// A lock-free bounded multi-producer multi-consumer ring of `Copy`
/// payloads.
///
/// # Example
/// ```
/// let ring = ring::SlotRing::<usize>::with_capacity(4);
/// assert!(ring.push(7));
/// assert_eq!(ring.pop(), Some(7));
/// assert_eq!(ring.pop(), None);
/// ```
pub struct SlotRing<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: sharing a `&SlotRing<T>` across threads exposes only the
// atomics and the `UnsafeCell` slot values. A slot value is touched
// exclusively by the single producer or consumer that won the CAS on
// `enqueue_pos`/`dequeue_pos` for that position, and ownership of the
// slot is handed over only through its `seq` Release store, which a
// claimant's Acquire load observes before touching the value — so no
// two threads ever access one slot value concurrently. `T: Send` is
// required because values pushed on one thread are read (moved by copy)
// on another.
unsafe impl<T: Copy + Send> Sync for SlotRing<T> {}

// SAFETY: a `SlotRing<T>` owns its buffer outright (no thread-affine
// state, no interior references into the sending thread); moving it to
// another thread moves the contained `T` values with it, which
// `T: Send` permits.
unsafe impl<T: Copy + Send> Send for SlotRing<T> {}

impl<T: Copy + Default> SlotRing<T> {
    /// Creates a ring holding at least `capacity` entries (rounded up to
    /// the next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf: Vec<Slot<T>> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(T::default()),
            })
            .collect();
        SlotRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }
}

impl<T: Copy> SlotRing<T> {
    /// Number of slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Enqueues `value`; returns `false` if the ring is full.
    pub fn push(&self, value: T) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot free for this position: claim it.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the `enqueue_pos` CAS for a
                        // slot whose `seq == pos` (Acquire above) makes
                        // this thread the slot's sole owner until the
                        // Release store below publishes it to the
                        // consumer side; no other producer can claim
                        // `pos` again and no consumer reads before
                        // `seq == pos + 1`.
                        unsafe { *slot.value.get() = value };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // A full lap behind: ring is full.
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest value, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the `dequeue_pos` CAS for a
                        // slot whose `seq == pos + 1` (Acquire above —
                        // which also makes the producer's write to the
                        // value visible) makes this thread the slot's
                        // sole owner until the Release store below hands
                        // the slot to the next lap's producer.
                        let value = unsafe { *slot.value.get() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask).wrapping_add(1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate number of queued entries (racy under concurrency;
    /// exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Relaxed);
        let head = self.dequeue_pos.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no entries are queued (subject to the same racing caveat
    /// as [`SlotRing::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_threaded() {
        let ring = SlotRing::with_capacity(8);
        for v in 0..5 {
            assert!(ring.push(v));
        }
        for v in 0..5 {
            assert_eq!(ring.pop(), Some(v));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn capacity_rounds_up_and_full_ring_rejects() {
        let ring = SlotRing::with_capacity(3);
        assert_eq!(ring.capacity(), 4);
        for v in 0..4 {
            assert!(ring.push(v));
        }
        assert!(!ring.push(99), "full ring must reject");
        assert_eq!(ring.pop(), Some(0));
        assert!(ring.push(99), "one free slot after a pop");
    }

    #[test]
    fn wraparound_many_laps() {
        let ring = SlotRing::with_capacity(4);
        for lap in 0..1_000usize {
            assert!(ring.push(lap));
            assert!(ring.push(lap + 1));
            assert_eq!(ring.pop(), Some(lap));
            assert_eq!(ring.pop(), Some(lap + 1));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn non_usize_payloads_round_trip() {
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Wide {
            a: u64,
            b: u16,
        }
        let ring = SlotRing::with_capacity(2);
        assert!(ring.push(Wide { a: 7, b: 9 }));
        assert_eq!(ring.pop(), Some(Wide { a: 7, b: 9 }));
    }

    #[test]
    fn concurrent_producers_preserve_every_value() {
        let ring = Arc::new(SlotRing::with_capacity(1024));
        let producers = 4;
        let per_producer = 200usize;
        let mut handles = Vec::new();
        for p in 0..producers {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    let v = p * per_producer + i;
                    while !ring.push(v) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let want = producers * per_producer;
                let mut seen = vec![false; want];
                let mut got = 0;
                while got < want {
                    match ring.pop() {
                        Some(v) => {
                            assert!(!seen[v], "value {v} popped twice");
                            seen[v] = true;
                            got += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let seen = consumer.join().unwrap();
        assert!(seen.iter().all(|&s| s), "every pushed value popped once");
    }
}
