//! A deterministic two-level ladder/calendar event queue with a
//! *rolling* near-future window.
//!
//! A general event queue holds every pending event of a simulation in
//! one structure. A binary heap costs `O(log n)` comparisons and entry
//! moves per operation; this ladder exploits the structure of
//! discrete-event workloads — events are almost always scheduled a short,
//! bounded lookahead past the current clock — to make both operations
//! `O(1)` amortized with **zero allocation in steady state**:
//!
//! * **Near level**: a window of `NUM_BUCKETS` (512) FIFO rings covering the
//!   `NUM_BUCKETS` time slots starting at the cursor's slot. Slots map to
//!   rings *modulo* `NUM_BUCKETS`, so the window **rolls forward with the
//!   cursor**: as the live ring drains, the slot one window ahead becomes
//!   schedulable in the ring just vacated. A push appends to the ring
//!   indexed by the event's absolute slot (shift + mask); rings are plain
//!   `Vec`s whose capacity is retained forever, so steady-state pushes
//!   never allocate — and, unlike an anchored window, steady-state pushes
//!   with lookahead under the horizon *never* spill to overflow no matter
//!   how far the clock has advanced.
//! * **Far level**: events beyond the rolling window land in an overflow
//!   binary heap. At the top of each pop, any overflow entries that the
//!   rolled window has since caught up with are migrated into rings (each
//!   entry overflows and migrates at most once); when the rings are empty
//!   the window re-anchors at the earliest overflow event in O(1) — no
//!   ring is drained or refilled by the re-anchor itself.
//!
//! The [`stats`](crate::EventQueue::stats) counters record how many entries
//! took the overflow path and how many were migrated back; on a
//! steady-state workload whose scheduling lookahead fits the horizon both
//! stay zero.
//!
//! **Exact determinism.** Pop returns the minimum `(time, seq)` entry,
//! bit-identical to the heap backend, under *any* interleaving of pushes
//! and pops. The argument hinges on four invariants:
//!
//! 1. Every occupied ring holds events of exactly one absolute slot in
//!    `[cursor_slot, cursor_slot + NUM_BUCKETS)`; the cursor's own ring
//!    additionally absorbs "late" pushes (time at or below the cursor
//!    slot — legal through the raw `EventQueue` API), so no pending entry
//!    ever maps behind the cursor.
//! 2. Because each in-window slot owns a distinct ring, the circular
//!    occupancy-bitmap scan starting at the cursor's ring visits rings in
//!    ascending slot order — the first occupied ring contains the global
//!    near-minimum. On first touch that ring is sorted once (descending
//!    `(time, seq)`) and drained from the back; a push landing inside the
//!    live ring binary-inserts to keep it exact.
//! 3. Overflow entries migrate into rings *before* the cursor scan of the
//!    pop that could need them, so a far event the window has rolled over
//!    can never be bypassed by a younger near event.
//! 4. After migration, every overflow entry lies at least one full window
//!    past the cursor slot, strictly after every near entry, so the two
//!    levels never race.
//!
//! Property tests in `tests/ladder_properties.rs` check pop-order
//! equivalence against the heap backend over arbitrary interleavings,
//! including same-instant FIFO ties and window-boundary straddles.

use std::collections::BinaryHeap;

use crate::event::Entry;
use crate::time::{SimDuration, SimTime};

/// Rings per window. 512 keeps the per-queue footprint small (a few KiB)
/// while making each ring cover `horizon/512` — a handful of events for a
/// well-chosen horizon.
pub(crate) const NUM_BUCKETS: usize = 512;

/// Occupancy-bitmap words (power of two, so the circular word scan is a
/// mask, not a modulo).
const WORDS: usize = NUM_BUCKETS / 64;

#[derive(Debug)]
pub(crate) struct LadderQueue<E> {
    /// The near-future rings; the ring for absolute slot `s` is
    /// `s & (NUM_BUCKETS - 1)` — indexing is modular, so the window rolls
    /// instead of draining.
    buckets: Vec<Vec<Entry<E>>>,
    /// Ring-occupancy bitmap (bit `i` ⇔ ring `i` non-empty). The cursor
    /// advance is a masked `trailing_zeros` over these dense words
    /// instead of a pointer-chasing walk over 512 scattered ring
    /// headers — the ladder's hottest load.
    occupied: [u64; WORDS],
    /// Ring width as a power-of-two shift (width = `1 << width_shift`
    /// ps), so the per-push slot is a shift, not a divide. The requested
    /// horizon is rounded up to the next power-of-two multiple of
    /// [`NUM_BUCKETS`]; any width is order-correct, this one is fast.
    width_shift: u32,
    /// Absolute slot of the live edge (`time >> width_shift`); the window
    /// covers slots `[cursor_slot, cursor_slot + NUM_BUCKETS)` and never
    /// moves backwards while entries are pending.
    cursor_slot: u64,
    /// Whether the cursor ring has been sorted for draining (descending
    /// `(time, seq)`, so the exact minimum pops from the back in O(1)).
    cursor_sorted: bool,
    /// Entries currently in rings.
    near_len: usize,
    /// Far-future entries, beyond `cursor_slot + NUM_BUCKETS` slots.
    overflow: BinaryHeap<Entry<E>>,
    /// Entries that ever took the overflow path (telemetry; zero in
    /// steady state when lookahead fits the horizon).
    overflow_pushes: u64,
    /// Entries migrated overflow → rings (telemetry; each overflowed
    /// entry migrates at most once).
    overflow_migrations: u64,
}

impl<E> LadderQueue<E> {
    /// Creates an empty ladder whose near window spans `horizon`.
    ///
    /// # Panics
    /// Panics if `horizon` is zero.
    pub(crate) fn new(horizon: SimDuration) -> Self {
        assert!(!horizon.is_zero(), "ladder horizon must be positive");
        let width = (horizon.as_ps() / NUM_BUCKETS as u64)
            .max(1)
            .next_power_of_two();
        LadderQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            width_shift: width.trailing_zeros(),
            cursor_slot: 0,
            cursor_sorted: false,
            near_len: 0,
            overflow: BinaryHeap::new(),
            overflow_pushes: 0,
            overflow_migrations: 0,
        }
    }

    /// Re-anchors the window start at `slot` in O(1): with modular ring
    /// indexing there is nothing to drain or refill — only the cursor
    /// moves. Callers guarantee the rings are empty.
    #[inline]
    fn re_anchor(&mut self, slot: u64) {
        debug_assert_eq!(self.near_len, 0);
        self.cursor_slot = slot;
        self.cursor_sorted = false;
    }

    /// `(overflow pushes, overflow migrations)` since construction or the
    /// last [`clear`](Self::clear).
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.overflow_pushes, self.overflow_migrations)
    }

    /// Files `entry` (whose absolute slot is `slot`, already clamped into
    /// the window) into its ring, preserving the live ring's sorted drain
    /// order.
    #[inline]
    fn insert_near(&mut self, entry: Entry<E>, slot: u64) {
        let idx = slot as usize & (NUM_BUCKETS - 1);
        if slot == self.cursor_slot && self.cursor_sorted {
            // The cursor ring is mid-drain in descending order; a binary
            // insert keeps it exact. Rare: only events landing within one
            // ring width of the live edge take this path.
            let ring = &mut self.buckets[idx];
            let key = (entry.time, entry.seq);
            let pos = ring.partition_point(|e| (e.time, e.seq) > key);
            ring.insert(pos, entry);
        } else {
            self.buckets[idx].push(entry);
        }
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.near_len += 1;
    }

    #[inline]
    pub(crate) fn push(&mut self, entry: Entry<E>) {
        let slot = entry.time.as_ps() >> self.width_shift;
        if self.near_len == 0 && self.overflow.is_empty() {
            // Whole queue empty: re-anchor the window on this event so an
            // idle-then-busy simulation never routes through overflow.
            self.re_anchor(slot);
        }
        if slot > self.cursor_slot && slot - self.cursor_slot >= NUM_BUCKETS as u64 {
            self.overflow_pushes += 1;
            self.overflow.push(entry);
        } else {
            // The max clamp keeps late pushes (time at/below the cursor
            // slot) poppable — the sorted drain of the cursor ring
            // restores their exact order.
            self.insert_near(entry, slot.max(self.cursor_slot));
        }
    }

    /// First occupied ring at or after ring index `from`, searching
    /// circularly (rings before `from` hold the window's wrapped tail, so
    /// circular index order *is* ascending slot order). Caller guarantees
    /// one exists (`near_len > 0`).
    #[inline]
    fn first_occupied(&self, from: usize) -> usize {
        let mut w = from >> 6;
        let mut word = self.occupied[w] & (!0u64 << (from & 63));
        while word == 0 {
            w = (w + 1) & (WORDS - 1);
            word = self.occupied[w];
        }
        (w << 6) + word.trailing_zeros() as usize
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        if !self.overflow.is_empty() {
            if self.near_len == 0 {
                // O(1) re-anchor at the earliest far event; migration
                // below pulls the window's worth in.
                let slot = self
                    .overflow
                    .peek()
                    .expect("overflow checked non-empty")
                    .time
                    .as_ps()
                    >> self.width_shift;
                self.re_anchor(slot);
            }
            // Invariant 3: any far event the rolled window caught up with
            // must be ringed *before* the cursor scan, or a younger near
            // event could pop past it.
            self.migrate_overflow();
        } else if self.near_len == 0 {
            return None;
        }
        let cursor_idx = self.cursor_slot as usize & (NUM_BUCKETS - 1);
        // Amortized O(1): the cursor never moves backwards.
        let next = self.first_occupied(cursor_idx);
        if next != cursor_idx {
            let advance = next.wrapping_sub(cursor_idx) & (NUM_BUCKETS - 1);
            self.cursor_slot += advance as u64;
            self.cursor_sorted = false;
        }
        let ring = &mut self.buckets[next];
        if !self.cursor_sorted {
            // First touch of this ring: one sort serves its whole drain
            // (descending, so the exact (time, seq) minimum is at the
            // back and each pop is O(1)).
            ring.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            self.cursor_sorted = true;
        }
        self.near_len -= 1;
        let entry = ring.pop();
        if ring.is_empty() {
            self.occupied[next >> 6] &= !(1 << (next & 63));
        }
        entry
    }

    /// Moves every overflow entry the rolling window now covers into its
    /// ring. Entries behind the cursor cannot exist here: overflow
    /// entries lie a full window past the cursor slot at push time, and
    /// the cursor advances by less than a window between migrations.
    fn migrate_overflow(&mut self) {
        while let Some(e) = self.overflow.peek() {
            let slot = e.time.as_ps() >> self.width_shift;
            debug_assert!(slot >= self.cursor_slot, "overflow entry behind cursor");
            if slot - self.cursor_slot >= NUM_BUCKETS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry exists");
            self.overflow_migrations += 1;
            self.insert_near(e, slot);
        }
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let far = self.overflow.peek().map(|e| e.time);
        if self.near_len == 0 {
            return far;
        }
        let cursor_idx = self.cursor_slot as usize & (NUM_BUCKETS - 1);
        let c = self.first_occupied(cursor_idx);
        let near = if c == cursor_idx && self.cursor_sorted {
            self.buckets[c].last().map(|e| e.time)
        } else {
            self.buckets[c].iter().map(|e| e.time).min()
        };
        // Migration is lazy (top of pop), so an un-migrated overflow
        // entry may precede every near entry; peek must consider both.
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.near_len + self.overflow.len()
    }

    /// Empties the ladder, retaining every ring's capacity; telemetry
    /// counters reset so a reused queue reports per-run numbers.
    pub(crate) fn clear(&mut self) {
        for ring in &mut self.buckets {
            ring.clear();
        }
        self.overflow.clear();
        self.occupied = [0; WORDS];
        self.near_len = 0;
        self.cursor_slot = 0;
        self.cursor_sorted = false;
        self.overflow_pushes = 0;
        self.overflow_migrations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time_ps: u64, seq: u64) -> Entry<u64> {
        Entry {
            time: SimTime::from_ps(time_ps),
            seq,
            event: seq,
        }
    }

    #[test]
    fn far_events_overflow_and_migrate() {
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        // width = 1 ps, window anchors at the first push: slots [5, 517).
        q.push(entry(5, 0));
        q.push(entry(10_000, 1)); // beyond the window: overflow
        q.push(entry(20_000, 2)); // overflow
        q.push(entry(10_000, 3)); // same instant as seq 1, later push
        assert_eq!(q.len(), 4);
        assert_eq!(q.overflow.len(), 3);
        // Draining the window re-anchors at 10_000 and migrates the two
        // now-covered events, preserving the same-instant FIFO order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
        assert!(q.pop().is_none());
        assert_eq!(q.stats(), (3, 3));
    }

    #[test]
    fn late_push_into_drained_window_pops_in_order() {
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        q.push(entry(100, 0));
        q.push(entry(300, 1));
        assert_eq!(q.pop().unwrap().seq, 0); // cursor at slot 100
        q.push(entry(50, 2)); // before the cursor slot: clamped, still next
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn equal_times_keep_fifo_across_cursor_positions() {
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        q.push(entry(200, 0));
        q.push(entry(64, 1));
        assert_eq!(q.pop().unwrap().seq, 1); // cursor at slot 64
        q.push(entry(200, 2)); // same instant as seq 0, later push
        q.push(entry(200, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 2, 3]);
    }

    #[test]
    fn idle_requeue_re_anchors_without_overflow() {
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_us(1));
        q.push(entry(1_000, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Queue idle; a push far past the original window must re-anchor
        // instead of spilling to overflow.
        q.push(entry(50_000_000, 1));
        assert_eq!(q.overflow.len(), 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.stats(), (0, 0));
    }

    #[test]
    fn rolling_window_absorbs_bounded_lookahead_without_overflow() {
        // The headline property of the rolling window: a self-scheduling
        // chain whose lookahead stays under the horizon crosses thousands
        // of window boundaries without a single overflow push — the
        // anchored design re-routed roughly every event near the window
        // end through the overflow heap.
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        q.push(entry(0, 0));
        let mut last = 0u64;
        for i in 1..20_000u64 {
            let e = q.pop().expect("chain is never empty");
            assert!(e.time.as_ps() >= last, "pop went backwards");
            last = e.time.as_ps();
            // Lookahead sweeps the whole window width, boundary included.
            q.push(entry(last + 1 + (i % (NUM_BUCKETS as u64 - 1)), i));
        }
        assert_eq!(q.stats(), (0, 0));
    }

    #[test]
    fn wrapped_rings_pop_in_slot_order() {
        // Cursor deep in the index space, pending slots straddling the
        // ring-index wrap: circular scan order must equal slot order.
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        q.push(entry(500, 0)); // anchors at slot 500, ring 500
        q.push(entry(700, 1)); // ring (700 & 511) = 188: wrapped
        q.push(entry(510, 2)); // ring 510: before the wrap
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(q.stats(), (0, 0));
    }

    #[test]
    fn migration_beats_younger_near_events() {
        // An overflow event the window rolls over must pop before a
        // younger event pushed directly into a ring.
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_ps(NUM_BUCKETS as u64));
        q.push(entry(0, 0)); // anchors at slot 0
        q.push(entry(900, 1)); // a full window ahead: overflow
        q.push(entry(400, 2)); // ring 400
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2); // cursor rolls to slot 400
        // The window now covers 900; a direct push of a younger time must
        // not pop before the pending overflow entry.
        q.push(entry(910, 3));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.stats(), (1, 1));
    }

    #[test]
    fn clear_retains_ring_capacity_and_resets_stats() {
        let mut q: LadderQueue<u64> = LadderQueue::new(SimDuration::from_us(1));
        for i in 0..64 {
            q.push(entry(i * 10, i));
        }
        q.push(entry(u64::MAX / 2, 99)); // force an overflow push
        let cap_before: usize = q.buckets.iter().map(Vec::capacity).sum();
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.stats(), (0, 0));
        let cap_after: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(cap_before, cap_after);
    }
}
