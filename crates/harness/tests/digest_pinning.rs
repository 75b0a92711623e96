//! Byte-compare pin on the measurement-digest path.
//!
//! This PR's D002 sweep converted several hash maps on and around the
//! report path to ordered containers. The conversion must be a pure
//! refactor: `digest_reports` over a stored report has to produce the
//! same 16 hex chars it produced before the sweep — otherwise every
//! stored trajectory digest (BENCH/*.json) would silently stop matching
//! and `harness bench --check` would flag phantom drift.
//!
//! The pin needs no simulation: it digests the checked-in fig8 report
//! fixture and compares against the digest literal recorded in
//! `BENCH/fig8.json` by a pre-sweep binary.

use harness::report::SweepReport;
use harness::trajectory::{digest_reports, TrajectoryStore};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The digest of the stored fig8 report, as recorded by the pre-sweep
/// binary in `BENCH/fig8.json`.
const FIG8_DIGEST: &str = "312be3a3d58dad9c";

#[test]
fn stored_fig8_report_digest_is_unchanged() {
    let report = SweepReport::from_json(&fixture("legacy_fig8_quick.json")).unwrap();
    assert_eq!(
        digest_reports(&[report]),
        FIG8_DIGEST,
        "digest drift: the D002 ordered-container sweep changed measurement bytes"
    );
}

#[test]
fn stored_digest_matches_the_bench_trajectory_entry() {
    // The same constant must be what BENCH/fig8.json actually stores,
    // so the pin cannot rot while the trajectory gate moves on.
    let (_, store) = bench_store("fig8");
    let latest = store.latest().expect("BENCH/fig8.json has entries");
    assert_eq!(latest.measurement_digest, FIG8_DIGEST);
}

/// `digest_reports` of `harness run --matrix fig2a|fig2b|fig2c
/// --requests 20000` at the catalogue seed, recorded on the commit
/// before `QueueingModel::run` left `simkit::Engine` (PR 16).
const FIG2_DIGESTS: [(&str, &str); 3] = [
    ("fig2a", "70c2af89ecb85c36"),
    ("fig2b", "3216c9cef08b77a7"),
    ("fig2c", "472ecaaf1f1002e6"),
];

#[test]
fn fig2_matrices_reproduce_their_pinned_digests_on_any_thread_count() {
    for (name, pinned) in FIG2_DIGESTS {
        let matrix = harness::ScenarioMatrix::named(name)
            .expect("catalogued matrix")
            .requests(20_000, 2_000);
        for threads in [1, 8] {
            let digest = digest_reports(&[harness::run_matrix(&matrix, threads).0]);
            assert_eq!(digest, pinned, "{name}, {threads} threads");
        }
    }
}

/// `digest_reports` of the hardware-path sim matrices at reduced request
/// counts and the catalogue seed: the partitioned and static policies
/// (`fig7a|b|c`), the Masstree scans whose 60–120 µs completions queue
/// behind sub-µs ones in one calendar (`fig7b`), outstanding-request depth,
/// the 16- and 64-core dispatcher, and preemption's same-instant
/// requeue pushes (`ablation_preemption`). Recorded on the commit before
/// `ServerSim` took send-slot releases and arrivals out of the general
/// event queue.
const SIM_MATRIX_DIGESTS: [(&str, u64, &str); 7] = [
    ("fig7a", 8_000, "c56b1b15531409c0"),
    ("fig7b", 8_000, "5b231c211f204a53"),
    ("fig7c", 8_000, "4eb8405b83b92383"),
    ("ablation_outstanding", 8_000, "0ff3c21448756c37"),
    ("ablation_dispatcher", 8_000, "91496a411c82ec87"),
    ("ablation_dispatcher64", 8_000, "8fe39e433265846b"),
    ("ablation_preemption", 8_000, "fc846585f244b781"),
];

/// A predefined matrix, or one the `ablation_dispatcher` scenario builds
/// itself (its 64-core scale-up), at `requests` per job.
fn sim_matrix(name: &str, requests: u64) -> harness::ScenarioMatrix {
    let params = harness::ScenarioParams {
        requests: Some(requests),
        ..harness::ScenarioParams::default()
    };
    match harness::ScenarioMatrix::named(name) {
        Some(matrix) => matrix.requests(requests, requests / 10),
        None => harness::build_matrices(
            harness::find_scenario("ablation_dispatcher").unwrap(),
            &params,
        )
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no matrix `{name}`")),
    }
}

#[test]
fn sim_matrices_reproduce_their_pinned_digests_on_any_thread_count() {
    for (name, requests, pinned) in SIM_MATRIX_DIGESTS {
        let matrix = sim_matrix(name, requests);
        for threads in [1, 8] {
            let digest = digest_reports(&[harness::run_matrix(&matrix, threads).0]);
            assert_eq!(digest, pinned, "{name}, {threads} threads");
        }
    }
}

/// The sealed series-store digest (`telemetry::digest_series`, what
/// `harness run --matrix <name> --timeseries <path>
/// --series-window-us 1` prints and seals) at 6 000 requests per job
/// and the catalogue seed. The windows see every completion's instant
/// and the occupancy between events, so these pin event timing, not
/// only the aggregate report. Recorded on the commit before `ServerSim`
/// left the general event queue.
const SERIES_DIGESTS: [(&str, &str); 2] = [
    ("fig8", "ff134ec877b55e82"),
    ("sens_slots", "b0d8c3e063850a1f"),
];

#[test]
fn sim_series_stores_reproduce_their_pinned_digests() {
    for (name, pinned) in SERIES_DIGESTS {
        let matrix = sim_matrix(name, 6_000);
        let (_, _, observed) =
            harness::run_matrix_observed(&matrix, harness::default_threads(), 0, 1_000_000);
        let digest = telemetry::digest_series(&observed.series).hex();
        assert_eq!(digest, pinned, "{name}");
    }
}

/// `SweepTiming::total_events` at 8 000 requests per job and the
/// catalogue seed: the simulator's own work count. No report or digest
/// includes it, so only this pin holds a change of event structure —
/// an event added, dropped, or merged — to account for itself.
/// Recorded on the commit before `ServerSim` left the general event
/// queue.
const SIM_EVENT_COUNTS: [(&str, u64); 4] = [
    ("fig8", 5_025_661),
    ("fig7b", 1_664_000),
    ("ablation_preemption", 539_855),
    ("sens_slots", 308_626),
];

#[test]
fn sim_matrices_fire_their_pinned_event_counts() {
    for (name, pinned) in SIM_EVENT_COUNTS {
        let matrix = sim_matrix(name, 8_000);
        let (_, timing) = harness::run_matrix(&matrix, harness::default_threads());
        assert_eq!(timing.total_events(), pinned, "{name}");
    }
}

fn bench_store(scenario: &str) -> (String, TrajectoryStore) {
    let path = format!("{}/../../BENCH/{scenario}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let store = TrajectoryStore::from_json(&text).unwrap();
    (text, store)
}

#[test]
fn resimulating_the_stored_fig8_entry_reproduces_its_digest() {
    // What `harness bench --scenario fig8 --check` does, under `cargo
    // test`: the stored entry was recorded by a scalar-sampling binary
    // that predates blocked variate generation, so reproducing its
    // digest is the system-level check that the blocked sampler, the
    // ladder queue, the event calendars and every later refactor changed
    // no measured bit.
    let (_, store) = bench_store("fig8");
    let baseline = store.latest().expect("BENCH/fig8.json has entries");
    let params = harness::params_for_entry(baseline);
    let scenario = harness::find_scenario("fig8").unwrap();
    let (run, _) = harness::run_scenario(scenario, &params, harness::default_threads());
    let current = harness::entry_from_run("fig8", &params, &run.reports, &run.timings, "test");
    assert_eq!(current.jobs, 112);
    assert_eq!(current.measurement_digest, FIG8_DIGEST);
    let outcome = harness::check_entry(baseline, &current, None);
    assert!(outcome.clean(), "{}", outcome.render());
}

#[test]
fn stored_fig8_entry_is_the_stored_report_carried_over() {
    // BENCH/fig8.json's one entry was carried over from the pre-store
    // report fixture: every field must be what that report implies.
    let report = SweepReport::from_json(&fixture("legacy_fig8_quick.json")).unwrap();
    let (_, store) = bench_store("fig8");
    let expected = harness::TrajectoryEntry {
        commit: "4eabb76".to_owned(),
        scenario: "fig8".to_owned(),
        schema_version: 3,
        quick: false,
        requests: 20_000,
        master_seed: 88,
        jobs: 112,
        measurement_digest: FIG8_DIGEST.to_owned(),
        metrics: harness::trajectory::scenario_metrics(&[report]),
        sidecar: harness::SidecarStats::unknown(),
    };
    assert_eq!(store.entries, vec![expected]);
    // Spot-pinned values come from the fixture's job records, so a bug
    // that rebuilt both sides identically-wrong would still show.
    let entry = &store.entries[0];
    assert_eq!(entry.metrics.len(), 16, "8 (workload, policy) groups x 2");
    let metric = |name: &str| entry.metrics.iter().find(|m| m.name == name).unwrap();
    let hw_slo = metric("fig8/fixed/hw-single-t2/slo_tput_rps");
    assert_eq!(hw_slo.value.to_bits(), 19448328.623819716f64.to_bits());
    assert_eq!(hw_slo.gate, "higher");
    let hw_p99 = metric("fig8/fixed/hw-single-t2/p99_top_ns");
    assert_eq!(hw_p99.value.to_bits(), 7717.468f64.to_bits());
    assert_eq!(hw_p99.gate, "lower");
}

#[test]
fn committed_stores_reserialize_to_their_own_bytes() {
    // Append-only stability: loading and re-saving a committed store is
    // a no-op, so future appends produce minimal diffs.
    for scenario in ["fig8", "live_smoke"] {
        let (text, store) = bench_store(scenario);
        assert_eq!(store.to_json_pretty(), text, "BENCH/{scenario}.json");
    }
}

/// `metrics::Digest64` over the bytes of each scenario's deterministic
/// artifacts (length-prefixed, in derive order; `fig6` emits three) at
/// the given per-job request override, recorded at commit a6afa9e while
/// the hand-rebuilt legacy-binary constructions of
/// `tests/scenario_migration.rs` still passed against them.
const ARTIFACT_DIGESTS: [(&str, Option<u64>, &str); 5] = [
    ("ablation_emulated", Some(6_000), "d6c205d98bc9b071"),
    ("latency_breakdown", Some(6_000), "5b907eb1e3b7e831"),
    ("ablation_sensitivity", Some(6_000), "07e7f2bd1f5d8609"),
    ("fig6", Some(40_000), "60d78715f042e7e0"),
    ("table1", None, "bfcf4144ddfa5d02"),
];

#[test]
fn scenario_artifacts_reproduce_their_pinned_digests() {
    for (name, requests, pinned) in ARTIFACT_DIGESTS {
        let scenario = harness::find_scenario(name).expect("registered scenario");
        let params = harness::ScenarioParams {
            requests,
            ..harness::ScenarioParams::default()
        };
        // Live matrices measure wall clock; only `ablation_sensitivity`
        // has one, and its derive step treats that report as optional.
        let (reports, timings) = harness::build_matrices(scenario, &params)
            .iter()
            .filter(|m| m.jobs().iter().all(|j| j.kind() != harness::JobKind::Live))
            .map(|m| harness::run_matrix(m, harness::default_threads()))
            .unzip();
        let derived = (scenario.derive)(&harness::ScenarioRun {
            params,
            reports,
            timings,
        });
        assert!(!derived.items.is_empty(), "{name} emits artifacts");
        let mut digest = metrics::Digest64::new();
        for artifact in &derived.items {
            digest.write_str(artifact.body.bytes());
        }
        assert_eq!(digest.hex(), pinned, "{name}");
    }
}

#[test]
fn scenario_reports_stamp_scenario_and_schema_version() {
    let scenario = harness::find_scenario("latency_breakdown").unwrap();
    let params = harness::ScenarioParams {
        requests: Some(2_000),
        ..harness::ScenarioParams::default()
    };
    let (run, _) = harness::run_scenario(scenario, &params, 2);
    let report = &run.reports[0];
    assert_eq!(report.version, harness::REPORT_VERSION);
    assert_eq!(report.scenario, "latency_breakdown");
    assert_eq!(report.matrix, "latency_breakdown");
    // Every traced sim job carries its 4-component decomposition.
    assert!(report
        .jobs
        .iter()
        .all(|j| j.breakdown_ns.len() == 4 && j.breakdown().is_some()));
    // The v3 envelope round-trips.
    let back = SweepReport::from_json(&report.to_json_pretty()).unwrap();
    assert_eq!(&back, report);
}
