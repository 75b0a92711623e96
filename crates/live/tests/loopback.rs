//! End-to-end loopback runs: the live system must reproduce the
//! simulator's qualitative policy ordering.
//!
//! These run with [`BurnMode::Sleep`] and µs-scale service times so
//! worker "cores" overlap even on the 1-CPU CI container (sleeping
//! workers cost no CPU; see `server.rs`). Loads and tolerances are chosen
//! so the single-queue vs RSS gap — ~2× in p99 for 2 workers at 85 %
//! load under exponential service — dwarfs scheduler noise.

use std::sync::Mutex;

use live::{run_loopback, LivePolicy, LiveRunConfig};

/// Wall-clock runs must own the machine (the same reason the harness
/// clamps live matrices to one worker thread): on a 1-CPU container,
/// concurrently running loopback servers steal each other's sleeps and
/// inflate p99 several-fold. Each test holds this for its whole body so
/// the harness's default parallelism can't interleave them.
static MACHINE: Mutex<()> = Mutex::new(());

fn spec(policy: LivePolicy, load: f64, requests: u64, seed: u64) -> LiveRunConfig {
    // The builder's defaults are exactly this test rig: 2 sleep-burn
    // workers and the exponential 600 ns profile scaled 500× -> mean
    // 300 µs sleeps — long enough to dominate sleep-granularity jitter,
    // short enough for a sub-second run.
    LiveRunConfig::new(policy)
        .requests(requests, requests / 10)
        .load(load)
        .seed(seed)
}

#[test]
fn single_queue_beats_rss_at_high_load() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let load = 0.85;
    let requests = 2_500;
    let single = run_loopback(&spec(LivePolicy::SingleQueue, load, requests, 42)).unwrap();
    let rss = run_loopback(&spec(LivePolicy::RssStatic, load, requests, 42)).unwrap();

    assert_eq!(single.received, single.sent, "single-queue run drained");
    assert_eq!(rss.received, rss.sent, "rss run drained");
    assert!(single.measured > 0 && rss.measured > 0);

    // The paper's headline ordering (Fig. 2a, Fig. 7): the shared queue's
    // tail is no worse than static flow partitioning under load. 10 %
    // slack absorbs run-to-run scheduler noise; the real gap is ~2×.
    assert!(
        single.p99_latency_ns <= rss.p99_latency_ns * 1.10,
        "single-queue p99 {:.0} µs should be <= rss p99 {:.0} µs",
        single.p99_latency_ns / 1e3,
        rss.p99_latency_ns / 1e3
    );
    // And the shared queue balances while RSS's static hash does not
    // react to imbalance at all.
    assert!(
        single.load_balance_jain >= rss.load_balance_jain - 0.05,
        "jain: single {:.3} vs rss {:.3}",
        single.load_balance_jain,
        rss.load_balance_jain
    );
}

#[test]
fn replenish_drains_and_starves_no_worker() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    // That replenish dispatches exactly like the single queue
    // is pinned without a clock by the model test in `dispatch.rs`;
    // here only what needs real sockets: the run drains, and free-worker
    // matching keeps both workers busy.
    let replenish = run_loopback(&spec(LivePolicy::Replenish, 0.7, 1_500, 7)).unwrap();
    assert_eq!(replenish.received, replenish.sent, "replenish run drained");
    assert!(
        replenish.worker_completions.iter().all(|&c| c > 0),
        "replenish starved a worker: {:?}",
        replenish.worker_completions
    );
}

#[test]
fn partitioned_sits_between_single_and_rss_in_drain_and_balance() {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let load = 0.6;
    let requests = 1_200;
    let part = run_loopback(&spec(
        LivePolicy::Partitioned { groups: 2 },
        load,
        requests,
        11,
    ))
    .unwrap();
    assert_eq!(part.received, part.sent, "partitioned run drained");
    assert!(part.measured > 0);
    assert!(part.p50_latency_ns > 0.0);
}
