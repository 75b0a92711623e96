//! The live tier's one dispatch core: passive, pull-based, and run in
//! the arrival path.
//!
//! RPCValet's claim (§4.2) is that the NI makes the single-queue
//! decision *as the message arrives*: no software hop, no
//! synchronisation between "request is here" and "this core takes it".
//! The live tier re-enacts that with the reader thread as the NI
//! front-end. [`Dispatcher::submit`] runs on the reader: it locks the
//! request's queue and either hands the item straight to the
//! longest-parked worker (unlock, then exactly one wake) or appends it.
//! [`Dispatcher::recv`] runs on the worker: it takes what waits, or
//! registers itself idle *under the same lock* (so no arrival can be
//! missed) and parks on its private mailbox. There is no dispatch
//! thread, and nothing to join at shutdown.
//!
//! Idle workers asking for work and the dispatcher parking those it
//! cannot serve is the pull shape of chroma's task dispatcher (see
//! SNIPPETS.md); here it is one `MatchQueue` per queue, and the
//! paper's queuing configurations (§2.2, Fig. 1) differ only in which
//! queue a request joins and which queue a worker serves:
//!
//! | policy | queues | a request joins | a worker serves |
//! |---|---|---|---|
//! | [`LivePolicy::SingleQueue`] (software 1×N) | 1 | the one | the one |
//! | [`LivePolicy::Partitioned`] (G×N/G) | G | `hash(seq) % G` — the paper's `uni[0, Q−1]` | its group's |
//! | [`LivePolicy::RssStatic`] (N×1) | N | `hash(conn) % N` — flow affinity | its own |
//! | [`LivePolicy::Replenish`] (RPCValet) | 1 | the one | the one |
//!
//! A worker is handed one request at a time, as the paper's NI hands a
//! core one (§4.3), so `Replenish` runs the single-queue code path by
//! construction and keeps only its own label and report key.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::{Condvar, Mutex, MutexGuard};

use simkit::rng::split_seed;

/// Salt for the connection-hash route (RSS).
const RSS_SALT: u64 = 0x5255_5353; // "RSS"
/// Salt for the uniform per-request spread (partitioned).
const UNI_SALT: u64 = 0x554E_4931;

/// The dispatch discipline a live server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivePolicy {
    /// One shared queue for all workers (software 1×N).
    SingleQueue,
    /// `groups` queues, each feeding `workers / groups` workers.
    Partitioned {
        /// Number of queue groups (must divide the worker count).
        groups: usize,
    },
    /// One queue per worker, routed by connection hash (N×1, RSS-like).
    RssStatic,
    /// RPCValet-style: one queue, each arrival matched to the first free
    /// worker in the arrival path, one request per hand-off. Dispatches
    /// exactly as [`LivePolicy::SingleQueue`]; only the label and report
    /// key differ.
    Replenish,
}

impl LivePolicy {
    /// The paper-style `QxU` figure label for this policy at a given
    /// worker count (e.g. `"1x16"`, `"4x4"`, `"16x1"`, `"replenish"`).
    pub fn label(&self, workers: usize) -> String {
        match self {
            LivePolicy::SingleQueue => format!("1x{workers}"),
            LivePolicy::Partitioned { groups } => {
                let g = (*groups).max(1);
                format!("{g}x{}", workers / g)
            }
            LivePolicy::RssStatic => format!("{workers}x1"),
            LivePolicy::Replenish => "replenish".to_owned(),
        }
    }

    /// Unique grouping key (stable across worker counts).
    pub fn key(&self) -> String {
        match self {
            LivePolicy::SingleQueue => "live-single".to_owned(),
            LivePolicy::Partitioned { groups } => format!("live-part{groups}"),
            LivePolicy::RssStatic => "live-rss".to_owned(),
            LivePolicy::Replenish => "live-replenish".to_owned(),
        }
    }
}

impl fmt::Display for LivePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivePolicy::SingleQueue => f.write_str("single"),
            LivePolicy::Partitioned { groups } => write!(f, "partitioned:{groups}"),
            LivePolicy::RssStatic => f.write_str("rss"),
            LivePolicy::Replenish => f.write_str("replenish"),
        }
    }
}

/// Error from parsing a [`LivePolicy`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
    hint: &'static str,
}

impl ParsePolicyError {
    fn new(input: &str) -> Self {
        ParsePolicyError {
            input: input.to_owned(),
            hint: "expected single|partitioned:G|rss|replenish",
        }
    }
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown policy `{}` ({})", self.input, self.hint)
    }
}

impl std::error::Error for ParsePolicyError {}

/// Parsing accepts the canonical names [`LivePolicy`]'s `Display` emits
/// (`single`, `partitioned:G`, `rss`, `replenish`) plus a few spelled-out
/// aliases (`single-queue`, `rss-static`, `static`, `rpcvalet`) for CLI
/// ergonomics. The round-trip `parse(policy.to_string()) == policy` is
/// proptest-pinned below. A bare `partitioned` is an error — it used to
/// silently mean 4 groups, which made `valetd --policy partitioned
/// --workers 2` fail validation far from the typo.
impl FromStr for LivePolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "single" | "single-queue" | "singlequeue" => Ok(LivePolicy::SingleQueue),
            "rss" | "rss-static" | "static" => Ok(LivePolicy::RssStatic),
            "replenish" | "rpcvalet" => Ok(LivePolicy::Replenish),
            "partitioned" | "partitioned:" => Err(ParsePolicyError {
                input: s.to_owned(),
                hint: "partitioned needs an explicit group count, e.g. partitioned:4",
            }),
            other => {
                if let Some(g) = other
                    .strip_prefix("partitioned")
                    .map(|rest| rest.trim_start_matches(':'))
                {
                    if let Ok(groups) = g.parse::<usize>() {
                        if groups > 0 {
                            return Ok(LivePolicy::Partitioned { groups });
                        }
                    }
                }
                Err(ParsePolicyError::new(s))
            }
        }
    }
}

/// Routing inputs a dispatcher may use: which connection the request came
/// in on, and its arrival sequence number.
#[derive(Debug, Clone, Copy)]
pub struct RouteKey {
    /// Server-assigned connection index.
    pub conn: u64,
    /// Server-wide arrival sequence number.
    pub seq: u64,
}

/// Occupancy gauges a dispatcher accumulates while serving, reported
/// through the wire protocol's `STATS` verb. All three are kept under
/// the queue lock the hot path already holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchGauges {
    /// Deepest any pending FIFO ever got (max over the policy's queues —
    /// the live analogue of the simulator's `dispatcher_high_water`).
    /// Counts only requests that had to wait: an arrival handed straight
    /// to a parked worker never enters the FIFO.
    pub queue_high_water: u64,
    /// Most workers ever parked idle on one queue at once (the
    /// availability "ring" of the replenish discipline).
    pub ring_high_water: u64,
    /// Deliveries made: one per item handed to a worker.
    pub replenish_batches: u64,
}

/// What `MatchQueue::offer` did with an arrival.
enum Offer<T> {
    /// The longest-parked worker takes the item; the caller delivers it.
    Handoff(usize, T),
    /// No worker was idle; the item waits in the FIFO.
    Queued,
}

/// What `MatchQueue::request` answered a worker asking for work.
#[derive(Debug, PartialEq, Eq)]
enum Pull<T> {
    /// The oldest waiting item.
    Item(T),
    /// Nothing waits: the worker is now registered idle and must park
    /// until an `Offer::Handoff` names it.
    Parked,
    /// Closed *and* drained: no item will ever come.
    Closed,
}

/// The match step of one queue as a pure state machine — no lock, no
/// thread, no clock: arrivals meet idle workers first-come-first-served
/// on both sides. Invariant: `pending` and `idle` are never both
/// non-empty (work conservation).
struct MatchQueue<T> {
    pending: VecDeque<T>,
    idle: VecDeque<usize>,
    open: bool,
    gauges: DispatchGauges,
}

impl<T> MatchQueue<T> {
    fn new() -> Self {
        MatchQueue {
            pending: VecDeque::new(),
            idle: VecDeque::new(),
            open: true,
            gauges: DispatchGauges::default(),
        }
    }

    /// An arrival: straight to the longest-parked worker, else queued.
    fn offer(&mut self, item: T) -> Offer<T> {
        match self.idle.pop_front() {
            Some(worker) => {
                self.gauges.replenish_batches += 1;
                Offer::Handoff(worker, item)
            }
            None => {
                self.pending.push_back(item);
                self.gauges.queue_high_water =
                    self.gauges.queue_high_water.max(self.pending.len() as u64);
                Offer::Queued
            }
        }
    }

    /// A worker asking for work: the oldest waiting item, or the worker
    /// is registered idle.
    fn request(&mut self, worker: usize) -> Pull<T> {
        match self.pending.pop_front() {
            Some(first) => {
                self.gauges.replenish_batches += 1;
                Pull::Item(first)
            }
            None if !self.open => Pull::Closed,
            None => {
                self.idle.push_back(worker);
                self.gauges.ring_high_water =
                    self.gauges.ring_high_water.max(self.idle.len() as u64);
                Pull::Parked
            }
        }
    }

    /// Closes the queue and returns the workers parked on it, which the
    /// caller must wake. Waiting items stay and still drain.
    fn close(&mut self) -> VecDeque<usize> {
        self.open = false;
        std::mem::take(&mut self.idle)
    }
}

/// A worker's private parking spot: the one item a hand-off gave it
/// while it was parked, held until its `wait` takes it.
struct Mailbox<T> {
    slot: Mutex<Slot<T>>,
    wake: Condvar,
}

struct Slot<T> {
    item: Option<T>,
    /// Set by shutdown on a parked worker: wake up empty-handed.
    closed: bool,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            slot: Mutex::new(Slot {
                item: None,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot.lock().expect("mailbox lock")
    }

    /// Parks until a hand-off or shutdown.
    fn wait(&self) -> Option<T> {
        let mut slot = self.lock();
        loop {
            if let Some(item) = slot.item.take() {
                return Some(item);
            }
            if slot.closed {
                return None;
            }
            slot = self.wake.wait(slot).expect("mailbox wait");
        }
    }
}

/// The one dispatch core: a `MatchQueue` behind a lock per queue, a
/// `Mailbox` per worker, and the policy as two functions — `queue_of`
/// a request, `queue_for` a worker. Passive: every step runs on the
/// thread that caused it.
pub struct Dispatcher<T> {
    policy: LivePolicy,
    queues: Vec<Mutex<MatchQueue<T>>>,
    mailboxes: Vec<Mailbox<T>>,
}

/// Builds the dispatcher for a policy.
///
/// # Panics
/// Panics if `workers == 0`, or for [`LivePolicy::Partitioned`] when
/// `groups` is 0, exceeds the worker count, or does not divide it.
pub fn make_dispatcher<T>(policy: LivePolicy, workers: usize) -> Dispatcher<T> {
    assert!(workers > 0, "need at least one worker");
    let queues = match policy {
        LivePolicy::SingleQueue | LivePolicy::Replenish => 1,
        LivePolicy::Partitioned { groups } => {
            assert!(
                groups > 0 && groups <= workers && workers.is_multiple_of(groups),
                "groups ({groups}) must divide workers ({workers})"
            );
            groups
        }
        LivePolicy::RssStatic => workers,
    };
    Dispatcher {
        policy,
        queues: (0..queues).map(|_| Mutex::new(MatchQueue::new())).collect(),
        mailboxes: (0..workers).map(|_| Mailbox::new()).collect(),
    }
}

impl<T> Dispatcher<T> {
    /// The queue a request joins: the shared one, a uniform spread by
    /// sequence-number hash (the paper's `uni[0, Q−1]`), or the
    /// connection's (RSS flow affinity).
    fn queue_of(&self, route: RouteKey) -> usize {
        let n = self.queues.len() as u64;
        match self.policy {
            LivePolicy::SingleQueue | LivePolicy::Replenish => 0,
            LivePolicy::Partitioned { .. } => (split_seed(route.seq, UNI_SALT) % n) as usize,
            LivePolicy::RssStatic => (split_seed(route.conn, RSS_SALT) % n) as usize,
        }
    }

    /// The queue a worker serves: workers split evenly, in order.
    fn queue_for(&self, worker: usize) -> usize {
        worker * self.queues.len() / self.mailboxes.len()
    }

    fn queue(&self, index: usize) -> MutexGuard<'_, MatchQueue<T>> {
        self.queues[index].lock().expect("dispatch queue lock")
    }

    /// Enqueues one item with its routing key: handed to a parked
    /// worker with exactly one wake (after the queue lock is released),
    /// or left waiting for the next worker to ask.
    pub fn submit(&self, route: RouteKey, item: T) {
        let offer = self.queue(self.queue_of(route)).offer(item);
        if let Offer::Handoff(worker, item) = offer {
            let mailbox = &self.mailboxes[worker];
            let held = mailbox.lock().item.replace(item);
            debug_assert!(held.is_none(), "worker {worker} handed a second item");
            mailbox.wake.notify_one();
        }
    }

    /// [`Dispatcher::recv`] without the parking: on `Pull::Parked` the
    /// caller must take its next item from its mailbox's `wait`, never
    /// ask again first. Registration happens under the queue lock
    /// `submit` takes, so no arrival can slip between "nothing waits"
    /// and "I am idle".
    fn poll(&self, worker: usize) -> Pull<T> {
        self.queue(self.queue_for(worker)).request(worker)
    }

    /// Blocks for the next item for `worker`; `None` once shut down
    /// *and* drained (then forever).
    pub fn recv(&self, worker: usize) -> Option<T> {
        match self.poll(worker) {
            Pull::Item(item) => Some(item),
            Pull::Parked => self.mailboxes[worker].wait(),
            Pull::Closed => None,
        }
    }

    /// Wakes every parked worker empty-handed and makes `recv` return
    /// `None` as soon as the items already submitted are drained.
    /// Idempotent; nothing to join.
    pub fn shutdown(&self) {
        for index in 0..self.queues.len() {
            let parked = self.queue(index).close();
            for worker in parked {
                let mailbox = &self.mailboxes[worker];
                mailbox.lock().closed = true;
                mailbox.wake.notify_one();
            }
        }
    }

    /// Current occupancy gauges (advisory; safe to call while serving).
    pub fn gauges(&self) -> DispatchGauges {
        let mut total = DispatchGauges::default();
        for index in 0..self.queues.len() {
            let g = self.queue(index).gauges;
            total.queue_high_water = total.queue_high_water.max(g.queue_high_water);
            total.ring_high_water = total.ring_high_water.max(g.ring_high_water);
            total.replenish_batches += g.replenish_batches;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const POLICIES: [LivePolicy; 4] = [
        LivePolicy::SingleQueue,
        LivePolicy::Partitioned { groups: 2 },
        LivePolicy::RssStatic,
        LivePolicy::Replenish,
    ];

    #[test]
    fn policy_labels_and_parsing() {
        assert_eq!(LivePolicy::SingleQueue.label(16), "1x16");
        assert_eq!(LivePolicy::Partitioned { groups: 4 }.label(16), "4x4");
        assert_eq!(LivePolicy::RssStatic.label(16), "16x1");
        assert_eq!(LivePolicy::Replenish.label(16), "replenish");
        assert_eq!("single".parse::<LivePolicy>().unwrap(), LivePolicy::SingleQueue);
        assert_eq!(
            "partitioned:8".parse::<LivePolicy>().unwrap(),
            LivePolicy::Partitioned { groups: 8 }
        );
        assert_eq!("rss".parse::<LivePolicy>().unwrap(), LivePolicy::RssStatic);
        assert_eq!(
            "RPCValet".parse::<LivePolicy>().unwrap(),
            LivePolicy::Replenish
        );
        assert!("bogus".parse::<LivePolicy>().is_err());
        assert!("partitioned:0".parse::<LivePolicy>().is_err());
        // A bare `partitioned` used to silently mean 4 groups; it is now
        // a usage error with a hint toward the explicit form.
        let err = "partitioned".parse::<LivePolicy>().unwrap_err();
        assert!(err.to_string().contains("explicit group count"), "{err}");
        assert!("partitioned:".parse::<LivePolicy>().is_err());
    }

    #[test]
    fn policy_keys_are_pinned() {
        // Stored trajectory/report keys — must never change (BENCH
        // stores and report summaries group by them).
        assert_eq!(LivePolicy::SingleQueue.key(), "live-single");
        assert_eq!(LivePolicy::Partitioned { groups: 4 }.key(), "live-part4");
        assert_eq!(LivePolicy::RssStatic.key(), "live-rss");
        assert_eq!(LivePolicy::Replenish.key(), "live-replenish");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn partitioned_rejects_nondivisor_groups() {
        make_dispatcher::<u64>(LivePolicy::Partitioned { groups: 3 }, 4);
    }

    /// The same discipline over plain `VecDeque`s and no locks: what
    /// waits per queue, who is idle per queue, what each worker's
    /// mailbox holds — and the paper's routing written out again, so
    /// that `queue_of` and `queue_for` are checked rather than trusted.
    struct Oracle {
        policy: LivePolicy,
        waiting: Vec<VecDeque<u64>>,
        idle: Vec<VecDeque<usize>>,
        held: Vec<Option<u64>>,
    }

    impl Oracle {
        fn new(policy: LivePolicy, workers: usize) -> Self {
            let queues = match policy {
                LivePolicy::SingleQueue | LivePolicy::Replenish => 1,
                LivePolicy::Partitioned { groups } => groups,
                LivePolicy::RssStatic => workers,
            };
            Oracle {
                policy,
                waiting: vec![VecDeque::new(); queues],
                idle: vec![VecDeque::new(); queues],
                held: vec![None; workers],
            }
        }

        fn queue_of(&self, route: RouteKey) -> usize {
            let n = self.waiting.len() as u64;
            match self.policy {
                LivePolicy::SingleQueue | LivePolicy::Replenish => 0,
                LivePolicy::Partitioned { .. } => (split_seed(route.seq, UNI_SALT) % n) as usize,
                LivePolicy::RssStatic => (split_seed(route.conn, RSS_SALT) % n) as usize,
            }
        }

        /// Consecutive workers share a group: `workers / queues` each.
        fn queue_for(&self, worker: usize) -> usize {
            worker / (self.held.len() / self.waiting.len())
        }
    }

    /// Drives the real dispatcher from one thread through a seeded
    /// sequence of arrivals and worker requests, taking each step the
    /// way `recv` would without ever blocking: a worker with mail takes
    /// it through its mailbox's `wait`, any other one `poll`s. Checks
    /// every answer against the [`Oracle`] and the invariants after
    /// every step, then shuts down and drains. Returns the delivery log
    /// `(worker, item)`; an item is `conn << 32 | seq`.
    fn run_model(
        policy: LivePolicy,
        workers: usize,
        seed: u64,
    ) -> Result<Vec<(usize, u64)>, TestCaseError> {
        let d = make_dispatcher::<u64>(policy, workers);
        let mut o = Oracle::new(policy, workers);
        let queues = o.waiting.len();
        prop_assert_eq!(d.queues.len(), queues);
        let mut log = Vec::new();
        let mut submitted = 0u64;
        let mut deepest = 0;
        for step in 0..160u64 {
            let r = split_seed(seed, step);
            let worker = (r >> 8) as usize % workers;
            let parked = o.idle[o.queue_for(worker)].contains(&worker);
            if r % 5 < 2 {
                let route = RouteKey {
                    conn: (r >> 8) % 5,
                    seq: submitted,
                };
                let (q, item) = (o.queue_of(route), route.conn << 32 | submitted);
                submitted += 1;
                d.submit(route, item);
                match o.idle[q].pop_front() {
                    Some(w) => {
                        let earlier = o.held[w].replace(item);
                        prop_assert!(earlier.is_none(), "worker {} handed two items", w);
                    }
                    None => o.waiting[q].push_back(item),
                }
                deepest = deepest.max(o.waiting[q].len() as u64);
            } else if parked {
                // A parked worker is blocked in `recv` until a hand-off
                // fills its mailbox.
            } else if let Some(item) = o.held[worker].take() {
                // That hand-off came: `recv` returns the mail.
                prop_assert_eq!(d.mailboxes[worker].wait(), Some(item), "step {}", step);
                log.push((worker, item));
            } else {
                let q = o.queue_for(worker);
                let expected = match o.waiting[q].pop_front() {
                    Some(first) => Pull::Item(first),
                    None => {
                        o.idle[q].push_back(worker);
                        Pull::Parked
                    }
                };
                prop_assert_eq!(d.poll(worker), expected, "step {}", step);
                if let Pull::Item(item) = expected {
                    log.push((worker, item));
                }
            }
            // Invariants, on the dispatcher's own state.
            for (q, queue) in d.queues.iter().enumerate() {
                let queue = queue.lock().unwrap();
                prop_assert_eq!(&queue.pending, &o.waiting[q], "FCFS per queue");
                prop_assert_eq!(&queue.idle, &o.idle[q], "longest-idle first");
                prop_assert!(
                    queue.pending.is_empty() || queue.idle.is_empty(),
                    "work conservation: queue {} holds items beside idle workers",
                    q
                );
                prop_assert!(queue.idle.len() <= workers / queues);
                for &w in &queue.idle {
                    prop_assert!(o.held[w].is_none(), "parked with mail: worker {}", w);
                }
            }
            for (w, mailbox) in d.mailboxes.iter().enumerate() {
                prop_assert_eq!(mailbox.lock().item, o.held[w], "mailbox {}", w);
            }
        }
        let gauges = d.gauges();
        prop_assert_eq!(gauges.queue_high_water, deepest);
        prop_assert!(gauges.ring_high_water <= (workers / queues) as u64);
        let in_hand = o.held.iter().flatten().count();
        prop_assert_eq!(gauges.replenish_batches, (log.len() + in_hand) as u64);
        // Closed *and* drained: every parked worker wakes empty-handed,
        // a worker with mail takes it, and each then gets what is left
        // before its `None`.
        d.shutdown();
        for worker in 0..workers {
            let parked = o.idle[o.queue_for(worker)].contains(&worker);
            prop_assert_eq!(d.mailboxes[worker].lock().closed, parked);
            let mail = o.held[worker].take();
            if parked || mail.is_some() {
                prop_assert_eq!(d.mailboxes[worker].wait(), mail);
            }
            log.extend(mail.map(|item| (worker, item)));
            while let Some(item) = d.recv(worker) {
                log.push((worker, item));
            }
        }
        // Each item exactly once (an RSS queue whose worker was parked
        // at shutdown is empty by work conservation).
        let mut seen: Vec<u64> = log.iter().map(|&(_, item)| item & 0xFFFF_FFFF).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..submitted).collect::<Vec<_>>());
        if policy == LivePolicy::RssStatic {
            // One worker per connection, in arrival order.
            for conn in 0..5u64 {
                let of_conn = log.iter().filter(|&&(_, item)| item >> 32 == conn);
                let (ws, items): (Vec<_>, Vec<_>) = of_conn.copied().unzip();
                prop_assert!(ws.windows(2).all(|w| w[0] == w[1]), "conn {} moved", conn);
                prop_assert!(items.is_sorted(), "conn {} reordered", conn);
            }
        }
        Ok(log)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn core_matches_the_oracle_on_random_schedules(
            seed in any::<u64>(),
            which in 0usize..4,
            workers in prop_oneof![Just(2usize), Just(4usize), Just(6usize)],
        ) {
            let log = run_model(POLICIES[which], workers, seed)?;
            // Replenish *is* the single queue: same schedule, same worker
            // for every request.
            if POLICIES[which] == LivePolicy::SingleQueue {
                let replenish = run_model(LivePolicy::Replenish, workers, seed)?;
                prop_assert_eq!(log, replenish);
            }
        }

        /// `Display` and `FromStr` are a pinned round-trip: every
        /// policy parses back from its canonical rendering, so CLI
        /// flags, scenario specs, and report labels can move through
        /// strings without drifting.
        #[test]
        fn display_from_str_roundtrip(which in 0usize..4, groups in 1usize..64) {
            let policy = match POLICIES[which] {
                LivePolicy::Partitioned { .. } => LivePolicy::Partitioned { groups },
                other => other,
            };
            let rendered = policy.to_string();
            let back: LivePolicy = rendered.parse().map_err(
                |e: ParsePolicyError| TestCaseError::fail(e.to_string()),
            )?;
            prop_assert_eq!(back, policy, "via `{}`", rendered);
        }
    }

    /// What each of `workers` workers gets of `routes` once the
    /// dispatcher is shut down and drained.
    fn drained_by_worker(
        policy: LivePolicy,
        workers: usize,
        routes: impl Iterator<Item = RouteKey>,
    ) -> Vec<Vec<u64>> {
        let d = make_dispatcher::<u64>(policy, workers);
        for route in routes {
            d.submit(route, route.seq);
        }
        d.shutdown();
        let drain = |worker| std::iter::from_fn(|| d.recv(worker)).collect();
        (0..workers).map(drain).collect()
    }

    #[test]
    fn partitioned_spreads_across_groups() {
        let routes = (0..400).map(|seq| RouteKey { conn: 0, seq });
        let got = drained_by_worker(LivePolicy::Partitioned { groups: 2 }, 4, routes);
        let g0 = got[0].len() + got[1].len();
        let g1 = got[2].len() + got[3].len();
        assert_eq!(g0 + g1, 400);
        // One connection, yet both groups see traffic, about evenly.
        assert!(g0.abs_diff(g1) < 100, "group counts {g0}/{g1}");
    }

    #[test]
    fn rss_pins_connections_to_workers() {
        let routes = (0..400).map(|seq| RouteKey { conn: seq % 40, seq });
        let got = drained_by_worker(LivePolicy::RssStatic, 4, routes);
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 400);
        for (worker, items) in got.iter().enumerate() {
            // Forty flows land on every worker, and none on two.
            assert!(!items.is_empty(), "worker {worker} got no flow");
            assert!(items.is_sorted(), "worker {worker} reordered a flow");
            let elsewhere = got.iter().enumerate().filter(|&(w, _)| w != worker);
            for (_, other) in elsewhere {
                let shared = items.iter().any(|a| other.iter().any(|b| a % 40 == b % 40));
                assert!(!shared, "a connection reached two workers");
            }
        }
    }

    #[test]
    fn shutdown_delivers_every_pending_item_before_none() {
        for policy in POLICIES {
            let d = make_dispatcher::<u64>(policy, 4);
            for seq in 0..23 {
                d.submit(RouteKey { conn: seq % 7, seq }, seq);
            }
            d.shutdown();
            d.shutdown(); // idempotent
            let mut got = Vec::new();
            for worker in 0..4 {
                got.extend(std::iter::from_fn(|| d.recv(worker)));
                assert_eq!(d.recv(worker), None, "{policy}: None is forever");
            }
            got.sort_unstable();
            assert_eq!(got, (0..23).collect::<Vec<_>>(), "{policy}");
        }
    }

    #[test]
    fn shutdown_wakes_a_parked_worker_empty_handed() {
        for policy in POLICIES {
            let d = make_dispatcher::<u64>(policy, 2);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| d.recv(0));
                // Shut down only once the worker has registered idle.
                while d.gauges().ring_high_water == 0 {
                    std::thread::yield_now();
                }
                d.shutdown();
                assert_eq!(waiter.join().unwrap(), None, "{policy}");
            });
        }
    }

    #[test]
    fn gauges_count_waiting_depth_parked_workers_and_deliveries() {
        let d = make_dispatcher::<u64>(LivePolicy::SingleQueue, 2);
        for seq in 0..5 {
            d.submit(RouteKey { conn: 0, seq }, seq);
        }
        assert_eq!(d.recv(0), Some(0));
        d.submit(RouteKey { conn: 0, seq: 9 }, 9);
        let g = d.gauges();
        assert_eq!(g.queue_high_water, 5, "peak, not current depth");
        assert_eq!(g.ring_high_water, 0, "nobody ever parked");
        assert_eq!(g.replenish_batches, 1);
    }
}
