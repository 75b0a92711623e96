//! The benchmark-trajectory store: per-scenario performance over commits.
//!
//! A [`TrajectoryStore`] is a versioned, append-only JSON file
//! (`BENCH/<name>.json`) holding one [`TrajectoryEntry`] per recorded
//! run of one scenario: the commit it was recorded at, the scenario's
//! report schema version, a [`metrics::Digest64`] fingerprint of every
//! measurement value, the headline metrics carried bit-exact, and the
//! wall-clock sidecar stats (events/sec) that make the file a
//! performance trajectory. `harness bench --scenario <name> --record`
//! appends; `--check` replays the latest entry's parameters and gates.
//!
//! Each [`TrajectoryMetric`] carries its own gate direction, so one
//! generic checker serves both deterministic scenario stores (digest +
//! `exact` metrics — any drift fails; `higher`/`lower` metrics strict or
//! under a tolerance) and wall-clock ones like `live_smoke` (`info`
//! rows, recorded but never gated).
//!
//! The committed `BENCH/fig8.json` entry was carried over from a full
//! [`SweepReport`] recorded before this store existed (preserved as
//! `crates/harness/tests/fixtures/legacy_fig8_quick.json`);
//! `crates/harness/tests/digest_pinning.rs` pins its digest and metrics
//! against that fixture and re-simulates it.

use std::path::{Path, PathBuf};

use metrics::Digest64;
use serde::{Deserialize, Serialize};

use crate::report::{SweepReport, SweepTiming};
use crate::scenario::ScenarioParams;

/// Store format version stamped into every `BENCH/<name>.json`.
pub const STORE_VERSION: u32 = 1;

/// Default store directory at the repo root.
pub const STORE_DIR: &str = "BENCH";

/// Gate direction: any drift from the recorded bits fails (deterministic
/// measurements).
pub const GATE_EXACT: &str = "exact";
/// Gate direction: current value must not fall more than the tolerance
/// below the recorded one (speedups, throughput).
pub const GATE_HIGHER: &str = "higher";
/// Gate direction: current value must not rise more than the tolerance
/// above the recorded one (latency).
pub const GATE_LOWER: &str = "lower";
/// Recorded for the trajectory but never gated (machine-specific rates,
/// warmup-noisy microbenchmarks).
pub const GATE_INFO: &str = "info";

/// One named scalar measurement in a trajectory entry, carried with the
/// exact bits of the run that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryMetric {
    /// Hierarchical name, e.g. `"fig8/fixed/hw-single-t2/slo_tput_rps"`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Gate direction: one of [`GATE_EXACT`], [`GATE_HIGHER`],
    /// [`GATE_LOWER`], [`GATE_INFO`].
    pub gate: String,
}

/// Wall-clock sidecar statistics of the recorded run. Machine-specific
/// by nature: recorded so the store doubles as an events/sec trajectory,
/// never gated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SidecarStats {
    /// Worker threads the run used (0 when unknown, e.g. migrated
    /// legacy entries).
    pub threads: u64,
    /// Elapsed wall-clock milliseconds for the whole run.
    pub total_wall_ms: f64,
    /// Summed per-job wall-clock milliseconds.
    pub cpu_ms: f64,
    /// Total simulator events popped.
    pub events: u64,
    /// Aggregate simulator throughput (events over worker-busy seconds).
    pub events_per_sec: f64,
}

impl SidecarStats {
    /// An all-zero sidecar, for entries whose run predates the sidecar
    /// (legacy migrations).
    pub fn unknown() -> SidecarStats {
        SidecarStats {
            threads: 0,
            total_wall_ms: 0.0,
            cpu_ms: 0.0,
            events: 0,
            events_per_sec: 0.0,
        }
    }

    /// Aggregates the per-matrix timing sidecars of one scenario run.
    pub fn from_timings(timings: &[SweepTiming]) -> SidecarStats {
        let threads = timings.iter().map(|t| t.threads).max().unwrap_or(0);
        let total_wall_ms: f64 = timings.iter().map(|t| t.total_wall_ms).sum();
        let cpu_ms: f64 = timings.iter().map(|t| t.cpu_ms).sum();
        let events: u64 = timings.iter().map(|t| t.total_events()).sum();
        SidecarStats {
            threads,
            total_wall_ms,
            cpu_ms,
            events,
            events_per_sec: if cpu_ms > 0.0 && events > 0 {
                events as f64 / (cpu_ms / 1e3)
            } else {
                0.0
            },
        }
    }
}

/// One recorded run of a scenario (or bench suite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Commit id the entry was recorded at (`"unknown"` outside git).
    pub commit: String,
    /// The owning scenario's registry name.
    pub scenario: String,
    /// Schema version of the reports the entry was computed from
    /// ([`crate::REPORT_VERSION`] for scenario entries).
    pub schema_version: u32,
    /// Whether the run used `--quick` resolution.
    pub quick: bool,
    /// Explicit per-job request override the run used (0 = the
    /// scenario's full default). `--check` replays with the same value.
    pub requests: u64,
    /// Master seed of the run's (first) matrix.
    pub master_seed: u64,
    /// Total jobs (or bench rows) the entry covers.
    pub jobs: u64,
    /// [`digest_reports`] over every measurement value, as 16 hex chars;
    /// empty for stores whose measurements are wall-clock-dependent.
    pub measurement_digest: String,
    /// Headline measurements, carried bit-exact.
    pub metrics: Vec<TrajectoryMetric>,
    /// Wall-time statistics of the recorded run.
    pub sidecar: SidecarStats,
}

/// The append-only per-scenario store (`BENCH/<name>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryStore {
    /// Store format version ([`STORE_VERSION`]).
    pub version: u32,
    /// The scenario every entry belongs to.
    pub scenario: String,
    /// Recorded runs, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

impl TrajectoryStore {
    /// An empty store for one scenario.
    pub fn new(scenario: impl Into<String>) -> TrajectoryStore {
        TrajectoryStore {
            version: STORE_VERSION,
            scenario: scenario.into(),
            entries: Vec::new(),
        }
    }

    /// The default on-disk location for a scenario's store, relative to
    /// the working directory: `BENCH/<scenario>.json`.
    pub fn default_path(scenario: &str) -> PathBuf {
        PathBuf::from(STORE_DIR).join(format!("{scenario}.json"))
    }

    /// Parses a store from JSON.
    pub fn from_json(text: &str) -> Result<TrajectoryStore, String> {
        let store: TrajectoryStore =
            serde_json::from_str(text).map_err(|e| format!("parse trajectory store: {e}"))?;
        if store.version != STORE_VERSION {
            return Err(format!(
                "trajectory store version {} (this binary reads {STORE_VERSION})",
                store.version
            ));
        }
        Ok(store)
    }

    /// Serializes the store as pretty JSON with a trailing newline (the
    /// committed, diffable form).
    pub fn to_json_pretty(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("store serializes");
        text.push('\n');
        text
    }

    /// Loads a store from disk.
    pub fn load(path: &Path) -> Result<TrajectoryStore, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        TrajectoryStore::from_json(&text)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the store, creating the parent directory if needed.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.to_json_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// The most recent entry.
    pub fn latest(&self) -> Option<&TrajectoryEntry> {
        self.entries.last()
    }

    /// Appends a recorded run. The store is append-only: entries are
    /// never rewritten, so the file is a monotone trajectory over
    /// commits (repeated records at one commit are allowed — e.g.
    /// before/after within a PR).
    pub fn append(&mut self, entry: TrajectoryEntry) -> Result<(), String> {
        if entry.scenario != self.scenario {
            return Err(format!(
                "entry for `{}` cannot be appended to the `{}` store",
                entry.scenario, self.scenario
            ));
        }
        self.entries.push(entry);
        Ok(())
    }
}

/// Fingerprints every deterministic measurement in a scenario run's
/// reports (job identity + every measured value, in order). Two runs
/// digest equally iff their measurement content is bit-identical.
///
/// Live jobs (policy key `live-*`) contribute only their *identity*
/// fields: their measured values are wall clock, so folding them in
/// would make every digest of a live scenario unique. Identity alone
/// still pins the job list's shape, so `live_smoke` gets a stable,
/// checkable digest while its timing-dependent values are gated `info`
/// (see [`scenario_metrics`]).
pub fn digest_reports(reports: &[SweepReport]) -> String {
    let mut d = Digest64::new();
    d.write_u64(reports.len() as u64);
    for report in reports {
        d.write_str(&report.matrix);
        d.write_u64(report.master_seed);
        d.write_u64(report.jobs.len() as u64);
        for job in &report.jobs {
            d.write_u64(job.index);
            d.write_str(&job.workload);
            d.write_str(&job.policy);
            d.write_str(&job.policy_key);
            d.write_f64(job.rate_rps);
            d.write_u64(job.requests);
            d.write_u64(job.warmup);
            d.write_u64(job.seed);
            d.write_u64(job.replication);
            if job.policy_key.starts_with("live-") {
                continue;
            }
            d.write_f64(job.throughput_rps);
            d.write_f64(job.mean_latency_ns);
            d.write_f64(job.p50_latency_ns);
            d.write_f64(job.p99_latency_ns);
            d.write_f64(job.p99_critical_ns);
            d.write_u64(job.measured);
            d.write_f64(job.mean_service_ns);
            d.write_f64(job.load_balance_jain);
            d.write_u64(job.flow_control_deferrals);
            d.write_u64(job.dispatcher_high_water);
            d.write_u64(job.preemptions);
            d.write_u64(job.breakdown_ns.len() as u64);
            for &b in &job.breakdown_ns {
                d.write_f64(b);
            }
        }
    }
    d.hex()
}

/// The headline metrics of a scenario run: per (matrix, workload,
/// policy) group, the paper's throughput-under-SLO (gate `higher`) and
/// the p99 at the heaviest load point (gate `lower`).
///
/// Live groups (policy key `live-*`) are gated `info`: their values are
/// wall-clock measurements on whatever machine ran them (a 1-CPU CI
/// container included), so directional gates would flake — the
/// trajectory still records them for trend reading.
pub fn scenario_metrics(reports: &[SweepReport]) -> Vec<TrajectoryMetric> {
    let mut metrics = Vec::new();
    for report in reports {
        for summary in report.summaries() {
            let prefix = format!(
                "{}/{}/{}",
                report.matrix, summary.workload, summary.policy_key
            );
            let live = summary.policy_key.starts_with("live-");
            metrics.push(TrajectoryMetric {
                name: format!("{prefix}/slo_tput_rps"),
                value: summary.throughput_under_slo_rps,
                gate: if live { GATE_INFO } else { GATE_HIGHER }.to_owned(),
            });
            if let Some(top) = summary.curve.points.last() {
                metrics.push(TrajectoryMetric {
                    name: format!("{prefix}/p99_top_ns"),
                    value: top.p99_latency_ns,
                    gate: if live { GATE_INFO } else { GATE_LOWER }.to_owned(),
                });
            }
        }
    }
    metrics
}

/// Builds a trajectory entry from one completed scenario run.
pub fn entry_from_run(
    scenario: &str,
    params: &ScenarioParams,
    reports: &[SweepReport],
    timings: &[SweepTiming],
    commit: &str,
) -> TrajectoryEntry {
    TrajectoryEntry {
        commit: commit.to_owned(),
        scenario: scenario.to_owned(),
        schema_version: crate::REPORT_VERSION,
        quick: params.quick,
        requests: params.requests.unwrap_or(0),
        master_seed: reports.first().map(|r| r.master_seed).unwrap_or(0),
        jobs: reports.iter().map(|r| r.jobs.len() as u64).sum(),
        measurement_digest: digest_reports(reports),
        metrics: scenario_metrics(reports),
        sidecar: SidecarStats::from_timings(timings),
    }
}

/// The replay parameters a recorded entry implies (`--check` runs the
/// scenario with exactly these).
pub fn params_for_entry(entry: &TrajectoryEntry) -> ScenarioParams {
    ScenarioParams {
        quick: entry.quick,
        part: None,
        requests: (entry.requests > 0).then_some(entry.requests),
        seed: None,
        replications: None,
    }
}

/// The outcome of checking a fresh run against a recorded entry.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Gate failures (empty = clean).
    pub failures: Vec<String>,
    /// Non-gating observations (digest drift under a tolerance,
    /// schema-version changes).
    pub notes: Vec<String>,
    /// Gated metrics compared.
    pub gated: usize,
    /// `info` metrics skipped.
    pub skipped: usize,
}

impl CheckReport {
    /// True when no gate tripped.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human rendering `harness bench --check` prints: notes, the
    /// compared/skipped tally, then either "no regressions" or one line
    /// per failure.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        let _ = writeln!(
            out,
            "  {} gated metric(s) compared, {} info metric(s) recorded-only",
            self.gated, self.skipped
        );
        if self.clean() {
            let _ = writeln!(out, "  no regressions");
        } else {
            for failure in &self.failures {
                let _ = writeln!(out, "  REGRESSION {failure}");
            }
        }
        out
    }
}

/// Appends `entry` to the store at `path`, creating a fresh store for
/// `scenario` when the file does not exist yet. Returns the entry count
/// after the append (`harness bench --record`).
pub fn record_into_store(
    path: &Path,
    scenario: &str,
    entry: TrajectoryEntry,
) -> Result<usize, String> {
    let mut store = if path.exists() {
        TrajectoryStore::load(path)?
    } else {
        TrajectoryStore::new(scenario)
    };
    store.append(entry)?;
    store.save(path)?;
    Ok(store.entries.len())
}

/// Gates a fresh entry against a recorded baseline.
///
/// With `tolerance_pct = None` the check is **strict**: the measurement
/// digests must match bit for bit (the CI determinism gate) and
/// `higher`/`lower` metrics gate at 0 % slack. With a tolerance, digest
/// drift is reported as a note and each `higher`/`lower` metric may move
/// adversely by up to the tolerance. `exact` metrics must match bits in
/// both modes — they fingerprint deterministic values, so any drift is a
/// behaviour change that warrants a fresh `--record`.
pub fn check_entry(
    baseline: &TrajectoryEntry,
    current: &TrajectoryEntry,
    tolerance_pct: Option<f64>,
) -> CheckReport {
    let mut out = CheckReport::default();
    let tol = tolerance_pct.unwrap_or(0.0);

    if baseline.schema_version != current.schema_version {
        out.notes.push(format!(
            "schema version changed: {} -> {}",
            baseline.schema_version, current.schema_version
        ));
    }
    if !baseline.measurement_digest.is_empty() && !current.measurement_digest.is_empty() {
        if baseline.measurement_digest == current.measurement_digest {
            out.notes.push(format!(
                "measurement digest {} reproduced exactly",
                baseline.measurement_digest
            ));
        } else {
            let line = format!(
                "measurement digest drifted: {} -> {} (some measured value changed bits)",
                baseline.measurement_digest, current.measurement_digest
            );
            if tolerance_pct.is_none() {
                out.failures.push(line);
            } else {
                out.notes.push(line);
            }
        }
    }

    for base in &baseline.metrics {
        if base.gate == GATE_INFO {
            out.skipped += 1;
            continue;
        }
        let Some(cur) = current.metrics.iter().find(|m| m.name == base.name) else {
            out.failures
                .push(format!("metric `{}` disappeared", base.name));
            continue;
        };
        out.gated += 1;
        match base.gate.as_str() {
            GATE_EXACT => {
                if cur.value.to_bits() != base.value.to_bits() {
                    out.failures.push(format!(
                        "`{}`: {} -> {} (exact-gated value changed)",
                        base.name, base.value, cur.value
                    ));
                }
            }
            GATE_HIGHER => {
                let floor = base.value * (1.0 - tol / 100.0);
                if cur.value < floor {
                    out.failures.push(format!(
                        "`{}`: {:.4} fell below baseline {:.4} - {tol}%",
                        base.name, cur.value, base.value
                    ));
                }
            }
            GATE_LOWER => {
                let ceiling = base.value * (1.0 + tol / 100.0);
                if cur.value > ceiling {
                    out.failures.push(format!(
                        "`{}`: {:.4} rose above baseline {:.4} + {tol}%",
                        base.name, cur.value, base.value
                    ));
                }
            }
            other => {
                out.failures
                    .push(format!("`{}`: unknown gate `{other}`", base.name));
            }
        }
    }
    out
}

/// The current commit's short id, from `git rev-parse`; `"unknown"`
/// outside a git checkout (recorded entries stay useful either way).
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=7", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: &str, metrics: Vec<TrajectoryMetric>) -> TrajectoryEntry {
        TrajectoryEntry {
            commit: "abc1234".to_owned(),
            scenario: "t".to_owned(),
            schema_version: crate::REPORT_VERSION,
            quick: false,
            requests: 1000,
            master_seed: 7,
            jobs: 2,
            measurement_digest: digest.to_owned(),
            metrics,
            sidecar: SidecarStats::unknown(),
        }
    }

    fn metric(name: &str, value: f64, gate: &str) -> TrajectoryMetric {
        TrajectoryMetric {
            name: name.to_owned(),
            value,
            gate: gate.to_owned(),
        }
    }

    #[test]
    fn live_rows_digest_by_identity_and_gate_info() {
        use crate::{JobOutcome, Measurement, ScenarioMatrix, SweepReport};
        let matrix = ScenarioMatrix::named("live_smoke").unwrap();
        let report = |p99: f64| {
            let outcomes: Vec<JobOutcome> = matrix
                .jobs()
                .into_iter()
                .enumerate()
                .map(|(index, spec)| JobOutcome {
                    index,
                    spec,
                    result: Measurement {
                        label: "replenish".to_owned(),
                        throughput_rps: 1_000.0,
                        mean_latency_ns: 5_000.0,
                        p50_latency_ns: 4_000.0,
                        p99_latency_ns: p99,
                        p99_critical_ns: p99,
                        measured: 100,
                        mean_service_ns: 600.0,
                        load_balance_jain: 1.0,
                        flow_control_deferrals: 0,
                        sim_events: 0,
                        queue_overflow_pushes: 0,
                        queue_overflow_migrations: 0,
                        dispatcher_high_water: 3,
                        preemptions: 0,
                        trace_dropped: 0,
                        breakdown: None,
                    },
                    wall_ms: 1.0,
                })
                .collect();
            SweepReport::from_outcomes(&matrix, &outcomes)
        };
        // Two runs with different wall-clock values digest identically:
        // only live-job identity is fingerprinted.
        let (a, b) = (report(9_000.0), report(12_000.0));
        assert_eq!(
            digest_reports(std::slice::from_ref(&a)),
            digest_reports(&[b])
        );
        // ... and every live metric is informational, never a gate.
        let metrics = scenario_metrics(&[a]);
        assert!(!metrics.is_empty());
        assert!(metrics.iter().all(|m| m.gate == GATE_INFO), "{metrics:?}");
    }

    #[test]
    fn strict_check_requires_digest_match() {
        let base = entry("aaaa", vec![]);
        let same = entry("aaaa", vec![]);
        let drifted = entry("bbbb", vec![]);
        assert!(check_entry(&base, &same, None).clean());
        assert!(!check_entry(&base, &drifted, None).clean());
        // Under a tolerance the drift is a note, not a failure.
        let tolerant = check_entry(&base, &drifted, Some(5.0));
        assert!(tolerant.clean());
        assert!(tolerant.notes.iter().any(|n| n.contains("drifted")));
    }

    #[test]
    fn gate_directions() {
        let base = entry(
            "",
            vec![
                metric("speedup", 2.0, GATE_HIGHER),
                metric("p99", 100.0, GATE_LOWER),
                metric("events", 5.0, GATE_EXACT),
                metric("noise", 1.0, GATE_INFO),
            ],
        );
        // Within tolerance on both directions.
        let ok = entry(
            "",
            vec![
                metric("speedup", 1.9, GATE_HIGHER),
                metric("p99", 104.0, GATE_LOWER),
                metric("events", 5.0, GATE_EXACT),
                metric("noise", 99.0, GATE_INFO),
            ],
        );
        let r = check_entry(&base, &ok, Some(10.0));
        assert!(r.clean(), "{:?}", r.failures);
        assert_eq!(r.gated, 3);
        assert_eq!(r.skipped, 1);

        // Each direction trips independently.
        let slow = entry("", vec![metric("speedup", 1.7, GATE_HIGHER)]);
        assert!(!check_entry(&base, &slow, Some(10.0)).clean());
        let tail = entry("", vec![metric("p99", 120.0, GATE_LOWER)]);
        assert!(!check_entry(&base, &tail, Some(10.0)).clean());
        let drift = entry("", vec![metric("events", 5.0000001, GATE_EXACT)]);
        assert!(
            !check_entry(&base, &drift, Some(10.0)).clean(),
            "exact gates ignore tolerance"
        );
        let gone = entry("", vec![]);
        assert!(!check_entry(&base, &gone, Some(10.0)).clean());
    }

    #[test]
    fn store_appends_and_rejects_cross_scenario_entries() {
        let mut store = TrajectoryStore::new("t");
        assert!(store.latest().is_none());
        store.append(entry("aaaa", vec![])).unwrap();
        assert_eq!(store.latest().unwrap().measurement_digest, "aaaa");
        let mut foreign = entry("bbbb", vec![]);
        foreign.scenario = "other".to_owned();
        assert!(store.append(foreign).is_err());
        assert_eq!(store.entries.len(), 1, "rejected entry not appended");
    }

    #[test]
    fn store_roundtrips_through_json() {
        let mut store = TrajectoryStore::new("t");
        store
            .append(entry("cafe", vec![metric("m", 1.25, GATE_HIGHER)]))
            .unwrap();
        let json = store.to_json_pretty();
        assert!(json.ends_with('\n'));
        let back = TrajectoryStore::from_json(&json).unwrap();
        assert_eq!(back, store);
        // Append-only stability: re-serializing reproduces the bytes.
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn future_store_versions_are_rejected() {
        let mut store = TrajectoryStore::new("t");
        store.version = STORE_VERSION + 1;
        let json = store.to_json_pretty();
        assert!(TrajectoryStore::from_json(&json).is_err());
    }
}
