//! The harness's central guarantees, checked end to end:
//!
//! 1. a matrix's report JSON is **byte-identical** for any worker-thread
//!    count;
//! 2. per-job seed derivation matches the convention the old sequential
//!    figure binaries used (`split_seed(master, point index)` fed through
//!    `scenario_config` + `ServerSim`), so harness runs reproduce their
//!    numbers bit for bit.

use dist::ServiceDist;
use harness::{run_matrix, RateGrid, ScenarioMatrix};
use queueing::QxU;
use rpcvalet::{Policy, ServerSim};
use simkit::rng::split_seed;
use workloads::{scenario_config, Workload};

fn small_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("determinism", 20_260_729)
        .workloads(vec![
            Workload::Synthetic(dist::SyntheticKind::Exponential),
            Workload::Herd,
        ])
        .policies(vec![Policy::hw_single_queue(), Policy::hw_static()])
        .rates(RateGrid::Shared(vec![3.0e6, 9.0e6, 15.0e6]))
        .requests(6_000, 600)
}

#[test]
fn two_and_eight_threads_produce_identical_json() {
    let (report_2, _) = run_matrix(&small_matrix(), 2);
    let (report_8, _) = run_matrix(&small_matrix(), 8);
    let json_2 = report_2.to_json_pretty();
    let json_8 = report_8.to_json_pretty();
    assert_eq!(
        json_2, json_8,
        "report JSON must be byte-identical across thread counts"
    );
    // And equal to the no-pool inline path.
    let (report_1, _) = run_matrix(&small_matrix(), 1);
    assert_eq!(report_1.to_json_pretty(), json_2);
}

#[test]
fn wall_clock_lives_only_in_the_timing_sidecar() {
    let (report, timing) = run_matrix(&small_matrix(), 4);
    let json = report.to_json_pretty();
    assert!(!json.contains("wall"), "no wall-clock fields in the report");
    assert_eq!(timing.job_wall_ms.len(), report.jobs.len());
    assert!(timing.total_wall_ms > 0.0);
}

#[test]
fn job_seeds_match_the_legacy_sequential_convention() {
    let matrix = small_matrix();
    for (i, job) in matrix.jobs().iter().enumerate() {
        let point_idx = (i % 3) as u64;
        assert_eq!(
            job.seed,
            split_seed(matrix.master_seed, point_idx),
            "job {i}: seed must be split_seed(master, point index)"
        );
    }
}

#[test]
fn harness_reproduces_a_direct_sequential_run() {
    let matrix = small_matrix();
    let (report, _) = run_matrix(&matrix, 4);
    // Re-run one mid-matrix job exactly as the old binaries did:
    // scenario_config + explicit seed, no harness involved.
    let job = &report.jobs[4]; // exp workload, 16x1, second rate
    assert_eq!(job.policy, "16x1");
    let mut cfg = scenario_config(
        Workload::Synthetic(dist::SyntheticKind::Exponential),
        Policy::hw_static(),
        job.rate_rps,
        job.seed,
    );
    cfg.requests = job.requests;
    cfg.warmup = job.warmup;
    let direct = ServerSim::new(cfg).run();
    assert_eq!(direct.p99_latency_ns, job.p99_latency_ns);
    assert_eq!(direct.throughput_rps, job.throughput_rps);
    assert_eq!(direct.measured, job.measured);
    assert_eq!(direct.load_balance_jain, job.load_balance_jain);
}

fn small_queueing_matrix() -> ScenarioMatrix {
    // The fig2 construction at test scale: service distributions on the
    // workload axis, Q×U configurations on the policy axis, loads as
    // capacity fractions.
    ScenarioMatrix::new("determinism-queueing", 2019)
        .service_workloads(vec![
            ("exp".to_owned(), ServiceDist::exponential_mean_ns(1.0)),
            ("fixed".to_owned(), ServiceDist::fixed_ns(1.0)),
        ])
        .model_policies(vec![QxU::SINGLE_16, QxU::PARTITIONED_16])
        .rates(RateGrid::Shared(vec![0.3, 0.6, 0.9]))
        .requests(10_000, 1_000)
}

#[test]
fn queueing_jobs_identical_across_thread_counts() {
    let (report_1, _) = run_matrix(&small_queueing_matrix(), 1);
    let (report_8, _) = run_matrix(&small_queueing_matrix(), 8);
    assert_eq!(
        report_1.to_json_pretty(),
        report_8.to_json_pretty(),
        "queueing-kind reports must be byte-identical across thread counts"
    );
}

#[test]
fn report_json_roundtrip_preserves_everything() {
    let (report, _) = run_matrix(&small_matrix(), 2);
    let back = harness::SweepReport::from_json(&report.to_json_pretty()).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.to_json_pretty(), report.to_json_pretty());
}
