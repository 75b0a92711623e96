//! Property tests: the ladder/calendar queue pops in the exact order the
//! reference heap backend does, for arbitrary `(time, seq)` interleavings
//! — including same-instant FIFO ties, interleaved push/pop sequences,
//! and horizons small enough to force constant overflow traffic.

use proptest::prelude::*;
use simkit::{EventQueue, SimDuration, SimTime};

/// One step of an interleaved workload: push an event at a time offset,
/// or pop once.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
}

fn op_strategy(max_time_ps: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        // Bias toward pushes so queues grow deep enough to stress rings;
        // a small time range forces many same-instant ties.
        (0..max_time_ps).prop_map(Op::Push),
        (0..max_time_ps).prop_map(Op::Push),
        Just(Op::Pop),
    ]
}

/// Rewrites raw push offsets so they cluster at the horizon boundary:
/// half land within `±8` of the horizon, the rest spread over
/// `[0, 2·horizon)` — monotone schedules then constantly straddle the
/// rolling window's far edge.
fn cluster_at_boundary(ops: &[Op], horizon_ps: u64) -> Vec<Op> {
    ops.iter()
        .map(|&op| match op {
            Op::Push(raw) if raw % 2 == 0 => {
                Op::Push(horizon_ps.saturating_sub(8) + raw % 16)
            }
            Op::Push(raw) => Op::Push(raw % (2 * horizon_ps)),
            Op::Pop => Op::Pop,
        })
        .collect()
}

/// Runs `ops` against both backends in lockstep, asserting every pop
/// matches. Pushed payloads are the push indices, so a mismatch pinpoints
/// the offending interleaving. Times are offsets from the latest popped
/// time (simulation-style monotone scheduling) when `monotone`, or raw
/// absolute times (raw queue API) otherwise.
fn check_equivalence(ops: &[Op], horizon_ps: u64, monotone: bool) -> Result<(), TestCaseError> {
    let mut heap = EventQueue::new();
    let mut ladder = EventQueue::with_horizon(SimDuration::from_ps(horizon_ps));
    let mut now_ps = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Push(t) => {
                let at = if monotone { now_ps + t } else { t };
                heap.push(SimTime::from_ps(at), i);
                ladder.push(SimTime::from_ps(at), i);
            }
            Op::Pop => {
                prop_assert_eq!(heap.peek_time(), ladder.peek_time());
                let (a, b) = (heap.pop(), ladder.pop());
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(x.time, y.time, "pop time diverged at step {}", i);
                        prop_assert_eq!(x.event, y.event, "pop order diverged at step {}", i);
                        now_ps = x.time.as_ps();
                    }
                    (None, None) => {}
                    _ => return Err(TestCaseError::fail(format!(
                        "one backend empty at step {i}: heap={a:?} ladder={b:?}"
                    ))),
                }
            }
        }
        prop_assert_eq!(heap.len(), ladder.len());
    }
    // Drain: the full residual order must match too.
    while let Some(x) = heap.pop() {
        let y = ladder.pop();
        prop_assert_eq!(Some(x.event), y.map(|s| s.event));
    }
    prop_assert!(ladder.pop().is_none());
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_interleavings_match_heap(
        ops in prop::collection::vec(op_strategy(2_000), 1..400),
        horizon_ps in 1u64..4_000,
    ) {
        check_equivalence(&ops, horizon_ps, false)?;
    }

    #[test]
    fn monotone_simulation_schedules_match_heap(
        ops in prop::collection::vec(op_strategy(5_000), 1..400),
        horizon_ps in 1u64..100_000,
    ) {
        check_equivalence(&ops, horizon_ps, true)?;
    }

    #[test]
    fn same_instant_bursts_keep_fifo(
        burst in prop::collection::vec(0u64..4, 1..200),
        horizon_ps in 1u64..64,
    ) {
        // Heavy tie pressure: all times drawn from {0..3}.
        let ops: Vec<Op> = burst.iter().map(|&t| Op::Push(t)).collect();
        check_equivalence(&ops, horizon_ps, false)?;
    }

    #[test]
    fn tiny_horizon_forces_overflow_and_still_matches(
        ops in prop::collection::vec(op_strategy(1_000_000), 1..200),
    ) {
        // Horizon of 1 ps: every ring is one picosecond wide, so almost
        // every push overflows and pops run through constant refills.
        check_equivalence(&ops, 1, false)?;
    }

    #[test]
    fn window_boundary_interleavings_match_heap(
        raw_ops in prop::collection::vec(op_strategy(1_000_000), 1..400),
        horizon_ps in 64u64..4_096,
    ) {
        // Monotone schedules whose offsets cluster around the window
        // boundary: pushes land alternately just inside the rolling
        // window and just past it, so every pop interleaves direct ring
        // hits with overflow migrations across a wrapping cursor.
        let ops = cluster_at_boundary(&raw_ops, horizon_ps);
        check_equivalence(&ops, horizon_ps, true)?;
    }

    #[test]
    fn bounded_lookahead_never_overflows(
        ops in prop::collection::vec(op_strategy(500), 1..400),
    ) {
        // The rolling-window guarantee: any monotone schedule whose
        // lookahead stays below the horizon keeps the overflow counters
        // at exactly zero, no matter how many window widths the clock
        // crosses.
        let mut ladder = EventQueue::with_horizon(SimDuration::from_ps(600 * 512));
        let mut now_ps = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Push(t) => ladder.push(SimTime::from_ps(now_ps + t), i),
                Op::Pop => {
                    if let Some(s) = ladder.pop() {
                        now_ps = s.time.as_ps();
                    }
                }
            }
        }
        let stats = ladder.stats();
        prop_assert_eq!(stats.overflow_pushes, 0);
        prop_assert_eq!(stats.overflow_migrations, 0);
    }
}
