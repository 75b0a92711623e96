//! Cross-crate integration tests: the full pipeline from workload model
//! through the soNUMA substrate to SLO extraction, checked against both
//! the paper's claims and the theoretical queueing models.

use rpcvalet_repro::dist::{ServiceDist, SyntheticKind};
use rpcvalet_repro::harness::{
    default_threads, run_matrix, PolicySummary, RateGrid, ScenarioMatrix,
};
use rpcvalet_repro::metrics::{throughput_under_slo, SloSpec};
use rpcvalet_repro::queueing::{QueueingModel, QxU, RunParams};
use rpcvalet_repro::rpcvalet::{Policy, ServerSim, SystemConfig};
use rpcvalet_repro::workloads::{scenario_config, Workload};

/// One summary per policy, in `policies` order: each swept over `rates`
/// at 50 000 requests per point.
fn quick_sweep(
    workload: Workload,
    policies: Vec<Policy>,
    rates: Vec<f64>,
    seed: u64,
) -> Vec<PolicySummary> {
    let matrix = ScenarioMatrix::new("end-to-end", seed)
        .workloads(vec![workload])
        .policies(policies)
        .rates(RateGrid::Shared(rates))
        .requests(50_000, 5_000);
    run_matrix(&matrix, default_threads()).0.summaries()
}

#[test]
fn herd_policy_ordering_matches_fig7a() {
    let comparisons = quick_sweep(
        Workload::Herd,
        vec![
            Policy::hw_static(),
            Policy::hw_partitioned(),
            Policy::hw_single_queue(),
        ],
        (1..=6).map(|i| i as f64 * 4.8e6).collect(),
        1,
    );
    let find = |l: &str| {
        comparisons
            .iter()
            .find(|c| c.policy == l)
            .map(|c| c.throughput_under_slo_rps)
            .unwrap()
    };
    let (t16, t44, t1) = (find("16x1"), find("4x4"), find("1x16"));
    assert!(
        t1 >= t44 * 0.98 && t44 >= t16 * 0.98,
        "Fig. 7a ordering violated: 1x16 {t1}, 4x4 {t44}, 16x1 {t16}"
    );
    assert!(
        t1 / t16 > 1.05,
        "1x16 should beat 16x1 by a clear margin, got {:.3}",
        t1 / t16
    );
    // HERD's S̄ lands near the paper's 550 ns.
    let s = comparisons[0].mean_service_ns;
    assert!((s - 550.0).abs() < 25.0, "HERD S̄ = {s}");
    for c in &comparisons {
        let (first, last) = (&c.curve.points[0], &c.curve.points[5]);
        assert!(
            last.p99_latency_ns > first.p99_latency_ns,
            "{}: p99 must grow with load",
            c.policy
        );
    }
}

#[test]
fn fixed_synthetic_policy_ordering_matches_fig7c() {
    // Fig. 7c's headline: 1x16 ≥ 4x4 ≥ 16x1 in throughput under SLO.
    let t: Vec<f64> = quick_sweep(
        Workload::Synthetic(SyntheticKind::Fixed),
        vec![
            Policy::hw_single_queue(),
            Policy::hw_partitioned(),
            Policy::hw_static(),
        ],
        vec![2.0e6, 8.0e6, 13.0e6, 16.0e6],
        1,
    )
    .iter()
    .map(|c| c.throughput_under_slo_rps)
    .collect();
    assert!(
        t[0] >= t[1] * 0.98 && t[1] >= t[2] * 0.98,
        "SLO throughput ordering violated: {t:?}"
    );
    assert!(t[0] > t[2], "1x16 must strictly beat 16x1: {t:?}");
}

#[test]
fn masstree_static_violates_slo_at_low_load_but_rpcvalet_meets_it() {
    // Fig. 7b: "16x1 cannot meet the SLO even for the lowest arrival
    // rate of 2 MRPS" while 1x16 sustains ~4.1 MRPS.
    let slo = SloSpec::absolute_us(12.5);

    let mut static_cfg = scenario_config(Workload::Masstree, Policy::hw_static(), 2.0e6, 2);
    static_cfg.requests = 120_000;
    static_cfg.warmup = 12_000;
    let static_r = ServerSim::new(static_cfg).run();
    assert!(
        static_r.p99_critical_ns > slo.p99_limit_ns,
        "16x1 get p99 {:.1} us should violate the 12.5 us SLO at 2 Mrps",
        static_r.p99_critical_ns / 1e3
    );

    let mut valet_cfg = scenario_config(Workload::Masstree, Policy::hw_single_queue(), 4.0e6, 2);
    valet_cfg.requests = 120_000;
    valet_cfg.warmup = 12_000;
    let valet_r = ServerSim::new(valet_cfg).run();
    assert!(
        valet_r.p99_critical_ns <= slo.p99_limit_ns,
        "1x16 get p99 {:.1} us should meet the SLO even at 4 Mrps",
        valet_r.p99_critical_ns / 1e3
    );
}

#[test]
fn software_baseline_loses_2_to_3x_under_slo() {
    // Fig. 8's headline: hardware 1x16 delivers 2.3-2.7x the software
    // throughput under SLO. Allow a generous band around it.
    let comparisons = quick_sweep(
        Workload::Synthetic(SyntheticKind::Exponential),
        vec![Policy::hw_single_queue(), Policy::sw_single_queue()],
        (1..=10).map(|i| i as f64 * 1.95e6).collect(),
        3,
    );
    let hw = comparisons[0].throughput_under_slo_rps;
    let sw = comparisons[1].throughput_under_slo_rps;
    let gain = hw / sw;
    assert!(
        (1.8..4.0).contains(&gain),
        "hw/sw SLO-throughput ratio {gain:.2} outside the expected band (paper: 2.3-2.7x)"
    );
}

#[test]
fn rpcvalet_tracks_theoretical_single_queue_model() {
    // Fig. 9's comparison at one mid-load point: the full-system p99 (in
    // S̄ multiples) stays within ~20 % of the pure queueing model.
    let kind = SyntheticKind::Exponential;
    let requests = 150_000;

    // Measure S̄ at light load.
    let light = ServerSim::new(
        SystemConfig::builder()
            .service(kind.processing_time())
            .rate_rps(1.0e6)
            .requests(30_000)
            .warmup(3_000)
            .seed(4)
            .build(),
    )
    .run();
    let s_bar = light.mean_service_ns;

    let load = 0.7;
    let model = QueueingModel::new(
        QxU::SINGLE_16,
        ServiceDist::shifted((s_bar - 600.0).max(0.0), kind.processing_time()),
    )
    .run(&RunParams {
        load,
        requests,
        warmup: requests / 10,
        seed: 4,
    });

    let sim = ServerSim::new(
        SystemConfig::builder()
            .service(kind.processing_time())
            .rate_rps(load * 16.0 / (s_bar * 1e-9))
            .requests(requests)
            .warmup(requests / 10)
            .seed(5)
            .build(),
    )
    .run();

    let model_p99 = model.p99_sojourn_ns / s_bar;
    let sim_p99 = sim.p99_latency_ns / s_bar;
    let gap = ((sim_p99 - model_p99) / model_p99).abs();
    assert!(
        gap < 0.20,
        "sim p99 {sim_p99:.2}xS vs model {model_p99:.2}xS: gap {:.0}% (paper: 3-15%)",
        gap * 100.0
    );
}

#[test]
fn tail_ordering_across_service_distributions() {
    // §2.2: TL_fixed < TL_uni < TL_exp < TL_gev at equal load, for the
    // full system just as for the models.
    let mut p99 = Vec::new();
    for kind in SyntheticKind::ALL {
        let cfg = SystemConfig::builder()
            .service(kind.processing_time())
            .rate_rps(14.0e6) // ~72 % load
            .requests(80_000)
            .warmup(8_000)
            .seed(6)
            .build();
        p99.push((kind.label(), ServerSim::new(cfg).run().p99_latency_ns));
    }
    for pair in p99.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1 * 1.05,
            "tail ordering violated: {p99:?}"
        );
    }
    assert!(
        p99[3].1 > p99[0].1 * 1.5,
        "GEV tail should clearly exceed fixed: {p99:?}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let cfg = scenario_config(Workload::Herd, Policy::hw_partitioned(), 12.0e6, 99);
        let mut cfg = cfg;
        cfg.requests = 40_000;
        cfg.warmup = 4_000;
        ServerSim::new(cfg).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.p99_latency_ns, b.p99_latency_ns);
    assert_eq!(a.throughput_rps, b.throughput_rps);
    assert_eq!(a.measured, b.measured);
    assert_eq!(a.dispatcher_high_water, b.dispatcher_high_water);
}

#[test]
fn slo_extraction_consistency() {
    // throughput_under_slo of a curve equals the last passing point when
    // the curve never violates.
    let comparisons = quick_sweep(
        Workload::Synthetic(SyntheticKind::Fixed),
        vec![Policy::hw_single_queue()],
        vec![2.0e6, 4.0e6],
        7,
    );
    let c = &comparisons[0];
    let slo = SloSpec::ten_times_mean(c.mean_service_ns);
    let direct = throughput_under_slo(&c.curve, slo);
    assert!(
        (direct - c.throughput_under_slo_rps).abs() < 1.0,
        "the summary must use the same SLO extraction"
    );
    // Both operating points are far below saturation: the SLO throughput
    // is the highest measured throughput.
    assert!((direct - c.curve.peak_throughput_rps()).abs() / direct < 0.01);
}
