//! Property-based tests over the full-system simulator: conservation,
//! measurement sanity, and trace invariants under randomized
//! configurations.

use proptest::prelude::*;

use rpcvalet_repro::dist::ServiceDist;
use rpcvalet_repro::rpcvalet::{Policy, PreemptionParams, ServerSim, SystemConfig};
use rpcvalet_repro::simkit::SimDuration;

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        (1u32..4).prop_map(|t| Policy::HwSingleQueue {
            outstanding_per_core: t
        }),
        (1u32..4).prop_map(|t| Policy::HwPartitioned {
            outstanding_per_core: t
        }),
        Just(Policy::HwStatic),
        Just(Policy::sw_single_queue()),
    ]
}

fn any_service() -> impl Strategy<Value = ServiceDist> {
    prop_oneof![
        (100.0f64..2_000.0).prop_map(ServiceDist::fixed_ns),
        (100.0f64..2_000.0).prop_map(ServiceDist::exponential_mean_ns),
        ((100.0f64..500.0), (1_000.0f64..3_000.0))
            .prop_map(|(lo, hi)| ServiceDist::uniform_ns(lo, hi)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated request completes exactly once, regardless of
    /// policy, service distribution, load, or slot pressure.
    #[test]
    fn conservation_of_requests(
        policy in any_policy(),
        service in any_service(),
        rate_mrps in 0.5f64..25.0,
        slots in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let cfg = SystemConfig::builder()
            .policy(policy)
            .service(service)
            .rate_rps(rate_mrps * 1e6)
            .send_slots_per_node(slots)
            .cluster_nodes(20)
            .requests(4_000)
            .warmup(400)
            .seed(seed)
            .build();
        let r = ServerSim::new(cfg).run();
        prop_assert_eq!(r.measured, 3_600, "measured = requests - warmup");
        prop_assert_eq!(r.core_completions.iter().sum::<u64>(), 4_000);
    }

    /// Latency is bounded below by the drawn processing time's floor:
    /// no request finishes faster than the fixed overhead allows.
    #[test]
    fn latency_floor_respected(
        policy in any_policy(),
        fixed_ns in 200.0f64..2_000.0,
        seed in 0u64..500,
    ) {
        let cfg = SystemConfig::builder()
            .policy(policy)
            .service(ServiceDist::fixed_ns(fixed_ns))
            .rate_rps(1.0e6)
            .requests(2_000)
            .warmup(100)
            .seed(seed)
            .build();
        let r = ServerSim::new(cfg).run();
        // Floor: fixed service + 220 ns overhead; NI costs only add.
        let floor = fixed_ns + 220.0;
        prop_assert!(
            r.latency.min_ns() >= floor - 1.0,
            "min latency {} below floor {}",
            r.latency.min_ns(),
            floor
        );
    }

    /// Traces always decompose the measured latency exactly and their
    /// timelines are monotone — under preemption too.
    #[test]
    fn trace_decomposition_holds(
        quantum_us in 1u64..10,
        seed in 0u64..200,
    ) {
        let service = ServiceDist::mixture(vec![
            (0.9, ServiceDist::fixed_ns(800.0)),
            (0.1, ServiceDist::fixed_ns(20_000.0)),
        ]);
        let cfg = SystemConfig::builder()
            .service(service)
            .rate_rps(3.0e6)
            .requests(3_000)
            .warmup(300)
            .seed(seed)
            .preemption(PreemptionParams {
                quantum: SimDuration::from_us(quantum_us),
                overhead: SimDuration::from_ns(300),
            })
            .trace_capacity(2_700)
            .build();
        let r = ServerSim::new(cfg).run();
        prop_assert_eq!(r.traces.records().len(), 2_700);
        for t in r.traces.records() {
            let sum = t.reassembly_ns() + t.dispatch_ns() + t.core_queue_ns() + t.processing_ns();
            prop_assert!((sum - t.total_ns()).abs() < 1e-6);
            prop_assert!(t.arrival_ps <= t.reassembled_ps && t.reassembled_ps <= t.dispatched_ps);
            prop_assert!(t.started_ps <= t.completed_ps);
        }
    }

    /// Throughput never exceeds the offered rate (open-loop sanity) and
    /// the Jain index is a valid fraction.
    #[test]
    fn measurement_sanity(
        policy in any_policy(),
        rate_mrps in 1.0f64..30.0,
        seed in 0u64..300,
    ) {
        let cfg = SystemConfig::builder()
            .policy(policy)
            .service(ServiceDist::exponential_mean_ns(600.0))
            .rate_rps(rate_mrps * 1e6)
            .requests(5_000)
            .warmup(500)
            .seed(seed)
            .build();
        let r = ServerSim::new(cfg).run();
        prop_assert!(r.throughput_rps <= rate_mrps * 1e6 * 1.15,
            "throughput {} cannot exceed offered {} by >15%", r.throughput_rps, rate_mrps * 1e6);
        prop_assert!(r.load_balance_jain > 0.0 && r.load_balance_jain <= 1.0 + 1e-9);
        prop_assert!(r.p99_latency_ns >= r.p50_latency_ns);
        prop_assert!(r.latency.max_ns() >= r.p99_latency_ns);
    }
}
