//! The dispatch core under real threads: every policy × {1, 3}
//! submitters, checked at quiescence for what the deterministic model
//! test (`dispatch.rs`) checks step by step — each item delivered
//! exactly once, nothing left waiting beside an idle worker (the run
//! would never quiesce), per-queue FIFO as far as one worker can see it,
//! every group served under partitioning, per-connection affinity under
//! RSS, and one delivery counted per item.
//! The schedule is seeded; a failure prints the seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use live::{make_dispatcher, LivePolicy, RouteKey};
use simkit::rng::split_seed;

const WORKERS: usize = 4;
const PER_SUBMITTER: u64 = 3_000;
const CONNS: u64 = 5;

/// An item is `submitter << 48 | conn << 32 | n`, with `n` counting up
/// per submitter and connections private to their submitter, so both
/// "in submission order" and "same connection" are readable off it.
fn stress(policy: LivePolicy, submitters: u64, seed: u64) {
    let context = format!("{policy} submitters {submitters} seed {seed}");
    let dispatcher = make_dispatcher::<u64>(policy, WORKERS);
    let total = submitters * PER_SUBMITTER;
    let received = AtomicU64::new(0);
    let start = Barrier::new(WORKERS + submitters as usize + 1);
    let logs: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (dispatcher, received, start) = (&dispatcher, &received, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut log = Vec::new();
                    while let Some(item) = dispatcher.recv(w) {
                        log.push(item);
                        received.fetch_add(1, Ordering::Release);
                        // Some workers dawdle, so queues build and drain.
                        if split_seed(seed, item).is_multiple_of(16) {
                            std::thread::yield_now();
                        }
                    }
                    log
                })
            })
            .collect();
        for s in 0..submitters {
            let (dispatcher, start) = (&dispatcher, &start);
            scope.spawn(move || {
                start.wait();
                for n in 0..PER_SUBMITTER {
                    let r = split_seed(seed ^ s << 56, n);
                    let conn = s * CONNS + r % CONNS;
                    let route = RouteKey {
                        conn,
                        seq: s * PER_SUBMITTER + n,
                    };
                    dispatcher.submit(route, s << 48 | conn << 32 | n);
                    // Bursts and lulls, so workers both park and queue.
                    if r >> 8 & 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        start.wait();
        // Quiescence: a lost wake-up or a stranded item stalls here.
        let deadline = Instant::now() + Duration::from_secs(60);
        while received.load(Ordering::Acquire) < total {
            assert!(Instant::now() < deadline, "never quiesced: {context}");
            std::thread::yield_now();
        }
        dispatcher.shutdown();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect()
    });

    let mut all: Vec<u64> = logs.iter().flatten().copied().collect();
    assert_eq!(all.len() as u64, total, "delivered once each: {context}");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, total, "no duplicates: {context}");
    for (w, log) in logs.iter().enumerate() {
        // One worker drains one FIFO, so each submitter's items reach it
        // in submission order.
        for s in 0..submitters {
            let of_s = log.iter().filter(|&&item| item >> 48 == s);
            let ns: Vec<u64> = of_s.map(|item| item & 0xFFFF_FFFF).collect();
            assert!(
                ns.is_sorted(),
                "worker {w}, submitter {s} reordered: {context}"
            );
        }
    }
    if let LivePolicy::Partitioned { groups } = policy {
        // Requests spread by sequence number: no group of workers idles.
        for (g, group) in logs.chunks(WORKERS / groups).enumerate() {
            let served: usize = group.iter().map(Vec::len).sum();
            assert!(served > 0, "group {g} never got work: {context}");
        }
    }
    if policy == LivePolicy::RssStatic {
        for conn in 0..submitters * CONNS {
            let holders = logs
                .iter()
                .filter(|log| log.iter().any(|item| item >> 32 & 0xFFFF == conn));
            assert!(holders.count() <= 1, "connection {conn} moved: {context}");
        }
    }
    let gauges = dispatcher.gauges();
    assert!(gauges.ring_high_water <= WORKERS as u64, "{context}");
    assert!(gauges.queue_high_water <= total, "{context}");
    assert_eq!(gauges.replenish_batches, total, "{context}");
}

#[test]
fn every_policy_survives_concurrent_submitters_and_workers() {
    let policies = [
        LivePolicy::SingleQueue,
        LivePolicy::Partitioned { groups: 2 },
        LivePolicy::RssStatic,
        LivePolicy::Replenish,
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        for submitters in [1, 3] {
            for round in 0..3 {
                stress(policy, submitters, 1_000 * i as u64 + round);
            }
        }
    }
}
