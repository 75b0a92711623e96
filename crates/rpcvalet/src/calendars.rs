//! The simulator's pending events: one sorted calendar per event kind,
//! merged at the heads.
//!
//! The NI dispatcher of §4.3 never sorts all pending work in one
//! structure: it keeps small per-entity queues and decides by looking
//! at their heads. [`Calendars`] does the same for the simulator's own
//! events. Each event kind (see [`Kind`]) has one `VecDeque` sorted by
//! the key `(time, seq)`, and the set caches each calendar's head key,
//! so a pop is an argmin over [`KINDS`] cached keys and one
//! `pop_front`. Most kinds are pushed almost in key order — a
//! completion at a fixed latency after the event that schedules it —
//! so a push appends and swaps back past the few later keys, as
//! `queueing::model`'s completion calendar does.
//!
//! **Keys.** Every push takes the next number of the one `seq` counter,
//! and [`Calendars::take_seq`] takes one without pushing: the key of an
//! event the caller holds outside the set (the next arrival, a send-slot
//! release nothing waits on). Pushed later under that number with
//! [`Calendars::push_taken`], the event lands exactly where a push at
//! the moment the number was taken would have, because an insert
//! compares the whole key, not the time alone. The pop order is
//! therefore the one the general event queue gives for the same pushes:
//! smallest `(time, seq)` first, simultaneous events in scheduling
//! order. The kind decides only which calendar holds an event; an
//! event filed under the wrong kind costs swaps, never order.
//!
//! **Held events.** [`Calendars::pop_before`] pops the smallest pending
//! event only if its key precedes a held event's key; otherwise the
//! clock moves to the held key and the caller fires its event there.
//! Either way one event fires and is counted.

use std::collections::VecDeque;

use simkit::{Scheduled, SimTime};

/// Number of calendars: one per event [`Kind`].
pub(crate) const KINDS: usize = 8;

/// An event that names its calendar.
pub(crate) trait Kind {
    /// The calendar this event is filed in, below [`KINDS`].
    fn kind(&self) -> usize;
}

/// The key of an empty calendar's head: above every real key, since no
/// taken number reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

#[inline(always)]
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_ps()) << 64) | u128::from(seq)
}

#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

/// The pending events of one run, the clock, and the event count.
#[derive(Debug)]
pub(crate) struct Calendars<E> {
    /// Per kind, the pending events sorted by key.
    calendars: [VecDeque<Entry<E>>; KINDS],
    /// Per kind, the key of the calendar's front entry, or [`EMPTY`].
    heads: [u128; KINDS],
    /// The next sequence number.
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Calendars<E> {
    fn default() -> Self {
        Calendars {
            calendars: std::array::from_fn(|_| VecDeque::new()),
            heads: [EMPTY; KINDS],
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }
}

impl<E: Kind> Calendars<E> {
    /// Drops every pending event and rewinds the clock, the counter and
    /// the event count, keeping the calendars' capacity for the next
    /// run.
    pub(crate) fn reset(&mut self) {
        self.calendars.iter_mut().for_each(VecDeque::clear);
        self.heads = [EMPTY; KINDS];
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.processed = 0;
    }

    /// The current simulated instant.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Events fired so far.
    pub(crate) fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Takes the sequence number a push right now would use, without
    /// pushing anything.
    #[inline(always)]
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `time` under the next sequence number.
    #[inline(always)]
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.push_taken(time, seq, event);
    }

    /// Schedules `event` at `time` under `seq`, a number taken earlier
    /// with [`Calendars::take_seq`] and not pushed since.
    #[inline(always)]
    pub(crate) fn push_taken(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: now={:?} target={time:?}",
            self.now
        );
        debug_assert!(seq < self.seq, "sequence number {seq} was never taken");
        let key = key(time, seq);
        let kind = event.kind();
        let calendar = &mut self.calendars[kind];
        let mut at = calendar.len();
        calendar.push_back(Entry { key, event });
        while at > 0 && calendar[at - 1].key > key {
            calendar.swap(at - 1, at);
            at -= 1;
        }
        if at == 0 {
            self.heads[kind] = key;
        }
    }

    /// Pops the earliest pending event if its `(time, seq)` precedes the
    /// held key `(time, seq)`, and moves the clock to it. Otherwise pops
    /// nothing, moves the clock to the held key's `time` and returns
    /// `None`: the caller fires the event it holds under that key.
    /// Either way one event fires, and it is counted.
    ///
    /// Always inlined, like [`Calendars::pop`]: the run loop reaches the
    /// body from both, and on the general queue an out-of-line copy
    /// returning its `Option` through memory cost the loop a fifth of
    /// its speed.
    #[inline(always)]
    pub(crate) fn pop_before(&mut self, time: SimTime, seq: u64) -> Option<Scheduled<E>> {
        self.processed += 1;
        let popped = self.pop_below(key(time, seq));
        let fires_at = popped.as_ref().map_or(time, |s| s.time);
        debug_assert!(fires_at >= self.now, "the calendars went backwards");
        self.now = fires_at;
        popped
    }

    /// Pops the earliest pending event and moves the clock to it; `None`
    /// (counting nothing) when no event is pending. The same pop as
    /// [`Calendars::pop_before`] the greatest key.
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        let popped = self.pop_below(EMPTY)?;
        debug_assert!(popped.time >= self.now, "the calendars went backwards");
        self.processed += 1;
        self.now = popped.time;
        Some(popped)
    }

    /// Pops the entry with the smallest key if that key is below `bound`.
    ///
    /// The argmin is a three-level tournament of pairwise minima, which
    /// compiles to conditional moves: a chain three compares deep
    /// instead of seven, and no branch to mispredict. A linear scan with
    /// a branch per compare made the simulator slower than the ladder it
    /// replaced.
    #[inline(always)]
    fn pop_below(&mut self, bound: u128) -> Option<Scheduled<E>> {
        const _: () = assert!(KINDS == 8, "the tournament below has eight leaves");
        #[inline(always)]
        fn min((a, i): (u128, usize), (b, j): (u128, usize)) -> (u128, usize) {
            if b < a {
                (b, j)
            } else {
                (a, i)
            }
        }
        let h = &self.heads;
        let (head, kind) = min(
            min(min((h[0], 0), (h[1], 1)), min((h[2], 2), (h[3], 3))),
            min(min((h[4], 4), (h[5], 5)), min((h[6], 6), (h[7], 7))),
        );
        if head >= bound {
            return None;
        }
        let calendar = &mut self.calendars[kind];
        let entry = calendar.pop_front().expect("a head key has an entry");
        self.heads[kind] = calendar.front().map_or(EMPTY, |e| e.key);
        Some(Scheduled {
            time: SimTime::from_ps((head >> 64) as u64),
            event: entry.event,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use rand::Rng;
    use simkit::rng::stream_rng;

    use super::*;

    /// A test event: its kind, and its own sequence number as payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ev {
        kind: usize,
        seq: u64,
    }

    impl Kind for Ev {
        fn kind(&self) -> usize {
            self.kind
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// A set driven as the simulator drives it, checked against a sorted
    /// reference of the pending `(time, seq)` pairs at every step.
    struct Checked {
        cal: Calendars<Ev>,
        pending: BTreeSet<(u64, u64)>,
        /// Numbers taken and not yet pushed, oldest first.
        held: VecDeque<u64>,
        next_seq: u64,
        now_ps: u64,
        processed: u64,
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                cal: Calendars::default(),
                pending: BTreeSet::new(),
                held: VecDeque::new(),
                next_seq: 0,
                now_ps: 0,
                processed: 0,
            }
        }

        fn push(&mut self, kind: usize, time_ps: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.cal.push(SimTime::from_ps(time_ps), Ev { kind, seq });
            self.pending.insert((time_ps, seq));
        }

        fn take(&mut self) {
            assert_eq!(self.cal.take_seq(), self.next_seq);
            self.held.push_back(self.next_seq);
            self.next_seq += 1;
        }

        fn push_taken(&mut self, pick: usize, kind: usize, time_ps: u64) {
            if self.held.is_empty() {
                return;
            }
            let seq = self
                .held
                .remove(pick % self.held.len())
                .expect("index below len");
            self.cal
                .push_taken(SimTime::from_ps(time_ps), seq, Ev { kind, seq });
            self.pending.insert((time_ps, seq));
        }

        /// `pop_before` at `(time_ps, seq)`, or `pop` for `None`.
        fn pop(&mut self, key: Option<(u64, u64)>, ctx: &str) {
            let (popped, bound) = match key {
                Some((t, s)) => {
                    let popped = self.cal.pop_before(SimTime::from_ps(t), s);
                    (popped, (t, s))
                }
                None => (self.cal.pop(), (u64::MAX, u64::MAX)),
            };
            let expected = self.pending.first().copied().filter(|&head| head < bound);
            let got = popped.map(|s| (s.time.as_ps(), s.event.seq));
            assert_eq!(got, expected, "pop before {bound:?}: {ctx}");
            match (expected, key) {
                (Some(head), _) => {
                    self.pending.remove(&head);
                    self.now_ps = head.0;
                    self.processed += 1;
                }
                (None, Some((t, _))) => {
                    self.now_ps = t;
                    self.processed += 1;
                }
                (None, None) => {}
            }
            assert_eq!(self.cal.now().as_ps(), self.now_ps, "clock: {ctx}");
            assert_eq!(self.cal.events_processed(), self.processed, "count: {ctx}");
        }

        fn drain(&mut self, ctx: &str) {
            while !self.pending.is_empty() {
                self.pop(None, ctx);
            }
            self.pop(None, ctx);
        }
    }

    /// One seeded random schedule: pushes to random kinds at random
    /// offsets from the clock (out of order within a kind; a narrow
    /// `span_ps` forces same-instant ties), numbers taken now and pushed
    /// later, `pop_before` at keys on and ±1 around pending pairs, and
    /// pops that find the set empty.
    fn random_schedule(seed: u64, steps: usize, span_ps: u64) {
        let mut rng = stream_rng(seed, 0);
        let mut c = Checked::new();
        for step in 0..steps {
            let ctx = format!("seed {seed}, span {span_ps}, step {step}");
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let kind = rng.gen_range(0..KINDS);
                    let dt = rng.gen_range(0..span_ps);
                    c.push(kind, c.now_ps + dt);
                }
                2 => c.take(),
                3 => {
                    let (pick, kind) = (rng.gen_range(0..64usize), rng.gen_range(0..KINDS));
                    let dt = rng.gen_range(0..span_ps);
                    c.push_taken(pick, kind, c.now_ps + dt);
                }
                4 => c.pop(None, &ctx),
                _ => {
                    let (t, s) = match c.pending.len() {
                        0 => (c.now_ps, c.next_seq),
                        n => {
                            let pick = rng.gen_range(0..n);
                            *c.pending.iter().nth(pick).expect("index below len")
                        }
                    };
                    let dt = rng.gen_range(0..3u64);
                    let ds = rng.gen_range(0..3u64);
                    // Keys never precede the clock: a held event is due
                    // no earlier than the last one fired.
                    let t = (t + dt).saturating_sub(1).max(c.now_ps);
                    let s = (s + ds).saturating_sub(1);
                    c.pop(Some((t, s)), &ctx);
                }
            }
        }
        c.drain(&format!("seed {seed}, span {span_ps}, drain"));
    }

    #[test]
    fn taken_numbers_and_keyed_pops_match_a_sorted_reference() {
        for seed in 0..3_000 {
            let span_ps = [4, 64, 5_000, 1_000_000][seed as usize % 4];
            random_schedule(seed, 300, span_ps);
        }
    }

    #[test]
    fn pop_before_fires_the_held_event_at_its_key_on_a_miss() {
        let mut cal: Calendars<Ev> = Calendars::default();
        let held = cal.take_seq();
        cal.push(at(10), Ev { kind: 0, seq: 1 });
        cal.push(at(4), Ev { kind: 1, seq: 2 });
        // The queued head precedes the held key: it pops.
        let s = cal
            .pop_before(at(7), held)
            .expect("a head precedes the key");
        assert_eq!((s.event.seq, cal.now()), (2, at(4)));
        // A miss moves the clock to the key and counts one event.
        assert!(cal.pop_before(at(7), held).is_none());
        assert_eq!(cal.now(), at(7));
        assert_eq!(cal.events_processed(), 2);
        // Pushed later under its older number, the held event pops
        // before the one queued at the same instant.
        cal.push_taken(at(10), held, Ev { kind: 0, seq: held });
        assert_eq!(cal.pop().map(|s| s.event.seq), Some(held));
        assert_eq!(cal.pop().map(|s| s.event.seq), Some(1));
        assert_eq!(cal.events_processed(), 4);
        // An empty set pops nothing and counts nothing.
        assert!(cal.pop().is_none());
        assert_eq!((cal.now(), cal.events_processed()), (at(10), 4));
    }

    #[test]
    fn reset_rewinds_the_clock_the_counter_and_the_count() {
        let mut cal: Calendars<Ev> = Calendars::default();
        cal.push(at(5), Ev { kind: 3, seq: 0 });
        cal.pop();
        cal.push(at(9), Ev { kind: 5, seq: 1 });
        cal.reset();
        assert_eq!((cal.now(), cal.events_processed()), (SimTime::ZERO, 0));
        assert!(cal.pop().is_none());
        assert_eq!(cal.take_seq(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn a_push_before_the_clock_panics() {
        let mut cal: Calendars<Ev> = Calendars::default();
        cal.push(at(10), Ev { kind: 0, seq: 0 });
        cal.pop();
        cal.push(at(1), Ev { kind: 0, seq: 1 });
    }
}
