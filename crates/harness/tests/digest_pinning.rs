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
    let bench_path = format!("{}/../../BENCH/fig8.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&bench_path).unwrap_or_else(|e| panic!("{bench_path}: {e}"));
    let store = TrajectoryStore::from_json(&text).unwrap();
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
