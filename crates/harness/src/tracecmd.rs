//! The `harness trace` verbs: capture a matrix's request-lifecycle
//! trace into a store, summarize a store's per-hop anatomy, diff two
//! stores (the sim↔live divergence report), and replay a recorded
//! arrival trace through the simulator.
//!
//! Captures ride the same matrix/pool/report machinery as `harness
//! run`: the measurement report of a traced run is byte-identical to
//! the untraced run's, and for sim/model matrices the event stream —
//! hence the store digest — is bit-identical for every worker-thread
//! count (events are concatenated in job order, request ids namespaced
//! `job_index << 40 | id`). Live captures stamp wall-clock hops and are
//! exempt, like every other live measurement.

use std::path::Path;
use std::sync::Arc;

use rpcvalet::{Policy, RequestSchedule};
use telemetry::{
    assemble_timelines, diff_summaries, summarize, write_store, TraceEvent, TraceMeta, TraceStore,
};

use crate::report::{SweepReport, SweepTiming};
use crate::spec::{ExperimentSpec, JobKind, Measurement, PolicySpec, ScenarioMatrix, WorkloadSpec};

/// What one `--capture` run produced.
#[derive(Debug)]
pub struct CaptureOutcome {
    /// The measurement report — byte-identical to an untraced
    /// [`crate::run_matrix`] of the same matrix.
    pub report: SweepReport,
    /// The wall-clock sidecar.
    pub timing: SweepTiming,
    /// The sealed store digest.
    pub digest: String,
    /// Events written to the store.
    pub events: u64,
    /// Events lost to a full live trace ring (0 for sim matrices).
    pub dropped: u64,
}

/// Runs `matrix` with tracing on, capturing each job's first `capture`
/// requests, and writes the sealed store to `out`.
pub fn capture_matrix(
    matrix: &ScenarioMatrix,
    threads: usize,
    capture: usize,
    out: &Path,
) -> std::io::Result<CaptureOutcome> {
    let (report, timing, observed) = crate::run_matrix_observed(matrix, threads, capture, 0);
    let jobs = report.jobs.len() as u64;
    let live = matrix.policies.iter().any(|p| p.kind() == JobKind::Live);
    let meta = if live {
        TraceMeta::live(&matrix.name, jobs)
    } else {
        TraceMeta::sim(&matrix.name, jobs)
    };
    let digest = write_store(out, &meta, &observed.events, observed.dropped)?;
    Ok(CaptureOutcome {
        report,
        timing,
        digest,
        events: observed.events.len() as u64,
        dropped: observed.dropped,
    })
}

/// Loads a store and renders its per-hop summary (`--summarize`).
pub fn summarize_store(path: &Path) -> Result<String, String> {
    let store = TraceStore::load(path)?;
    let summary = summarize(&assemble_timelines(&store.events));
    let title = format!(
        "{} `{}` — {} events over {} job(s), {} dropped",
        store.meta.source,
        store.meta.label,
        store.events.len(),
        store.meta.jobs,
        store.dropped
    );
    Ok(summary.render(&title))
}

/// Loads two stores and renders their per-hop divergence report
/// (`--diff`, the sim↔live comparison). Shares — not absolute times —
/// are what the total-variation metric compares, so a 500×-scaled live
/// capture diffs meaningfully against a ns-scale sim capture.
pub fn diff_stores(a_path: &Path, b_path: &Path) -> Result<String, String> {
    let a = TraceStore::load(a_path)?;
    let b = TraceStore::load(b_path)?;
    let a_summary = summarize(&assemble_timelines(&a.events));
    let b_summary = summarize(&assemble_timelines(&b.events));
    // Column labels: the sources when they differ (the sim-vs-live
    // case), the capture labels otherwise.
    let (a_label, b_label) = if a.meta.source != b.meta.source {
        (a.meta.source, b.meta.source)
    } else {
        (a.meta.label, b.meta.label)
    };
    Ok(diff_summaries(&a_label, &a_summary, &b_label, &b_summary).render())
}

/// Folds a raw event stream into a replayable [`RequestSchedule`]:
/// complete timelines sorted by arrival, arrivals normalized to the
/// first one, service demand = each request's recorded processing time.
/// Also returns how many requests were too incomplete to replay.
pub fn schedule_from_events(events: &[TraceEvent]) -> (RequestSchedule, u64) {
    let assembled = assemble_timelines(events);
    let mut rows: Vec<(u64, u16, f64)> = assembled
        .timelines
        .iter()
        .map(|t| (t.arrival_ps, t.src, t.processing_ns()))
        .collect();
    rows.sort_by_key(|r| (r.0, r.1));
    let first = rows.first().map_or(0, |r| r.0);
    let schedule = RequestSchedule::new(
        rows.iter().map(|r| r.0 - first).collect(),
        rows.iter().map(|r| r.1).collect(),
        // A zero-length recorded service (clock granularity) would make
        // the simulated core complete in the same instant it starts;
        // floor at 1 ps.
        rows.iter().map(|r| r.2.max(0.001)).collect(),
    );
    (schedule, assembled.incomplete)
}

/// What one `--replay` run produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The simulated measurement of the replayed arrivals.
    pub measurement: Measurement,
    /// Requests replayed (complete recorded timelines).
    pub replayed: u64,
    /// Recorded requests skipped for missing hops.
    pub incomplete: u64,
    /// The implied offered rate of the recorded arrivals (rps).
    pub implied_rate_rps: f64,
    /// Sealed digest of the replay's own capture, when requested.
    pub trace_digest: Option<String>,
}

/// Replays a recorded arrival trace through the simulator
/// (`--replay`): every arrival instant, source, and service demand is
/// pinned to the recording — the run touches no generator RNG. With
/// `trace_out`, the replay itself is captured into a sim store, ready
/// to `--diff` against the recording it came from.
pub fn replay_store(
    path: &Path,
    policy: Policy,
    trace_out: Option<&Path>,
) -> Result<ReplayOutcome, String> {
    let store = TraceStore::load(path)?;
    let (schedule, incomplete) = schedule_from_events(&store.events);
    if schedule.len() < 10 {
        return Err(format!(
            "{}: only {} complete request timeline(s) — nothing worth replaying",
            path.display(),
            schedule.len()
        ));
    }
    let implied_rate_rps = schedule.implied_rate_rps();
    let requests = schedule.len() as u64;
    let label = format!("replay-{}", store.meta.label);
    let spec = ExperimentSpec {
        workload: WorkloadSpec::Trace {
            label: label.clone(),
            schedule: Arc::new(schedule),
        },
        policy: PolicySpec::Sim(policy),
        rate_rps: implied_rate_rps,
        requests,
        warmup: requests / 10,
        // Replay arrivals consume no generator randomness; the seed only
        // feeds ancillary streams, fixed so replays are reproducible.
        seed: 1,
        replication: 0,
        chip: None,
        trace_capacity: 0,
    };
    let capture = if trace_out.is_some() { requests as usize } else { 0 };
    let observed = spec.run_observed_series(capture, 0, 0);
    let trace_digest = match trace_out {
        Some(out) => Some(
            write_store(out, &TraceMeta::sim(&label, 1), &observed.events, observed.dropped)
                .map_err(|e| format!("{}: {e}", out.display()))?,
        ),
        None => None,
    };
    Ok(ReplayOutcome {
        measurement: observed.measurement,
        replayed: requests,
        incomplete,
        implied_rate_rps,
        trace_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist::SyntheticKind;
    use telemetry::Hop;
    use workloads::Workload;

    fn dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "harness-tracecmd-{}-{:?}",
            std::process::id(),
            std::thread::current().id() // detlint: allow(D003, reason = "test scratch-dir uniqueness only")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sim_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new("trace-test", 9)
            .workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .policies(vec![Policy::hw_single_queue()])
            .rates(crate::RateGrid::Shared(vec![4.0e6]))
            .requests(3_000, 300)
    }

    #[test]
    fn capture_report_is_byte_identical_to_untraced_run() {
        let out = dir().join("byte-identity.trace");
        let matrix = sim_matrix();
        let (plain, _) = crate::run_matrix(&matrix, 2);
        let captured = capture_matrix(&matrix, 2, 500, &out).unwrap();
        assert_eq!(
            plain.to_json_pretty(),
            captured.report.to_json_pretty(),
            "tracing must not change a single report byte"
        );
        assert!(captured.events > 0);
        assert_eq!(captured.dropped, 0);
    }

    #[test]
    fn capture_digest_is_thread_count_invariant() {
        let d = dir();
        let (a, b) = (d.join("t1.trace"), d.join("t8.trace"));
        let one = capture_matrix(&sim_matrix(), 1, 400, &a).unwrap();
        let eight = capture_matrix(&sim_matrix(), 8, 400, &b).unwrap();
        assert_eq!(one.digest, eight.digest);
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "whole store files match byte for byte"
        );
    }

    #[test]
    fn summarize_and_diff_render() {
        let d = dir();
        let out = d.join("summarize.trace");
        capture_matrix(&sim_matrix(), 2, 400, &out).unwrap();
        let text = summarize_store(&out).unwrap();
        assert!(text.contains("processing"), "summary lists hops: {text}");
        let diff = diff_stores(&out, &out).unwrap();
        assert!(
            diff.contains("total-variation distance of hop shares: 0.000"),
            "a store diffed against itself diverges nowhere: {diff}"
        );
    }

    #[test]
    fn replay_reproduces_the_recorded_anatomy() {
        let d = dir();
        let recorded = d.join("recorded.trace");
        let replayed = d.join("replayed.trace");
        capture_matrix(&sim_matrix(), 1, 2_000, &recorded).unwrap();
        let outcome =
            replay_store(&recorded, Policy::hw_single_queue(), Some(&replayed)).unwrap();
        assert!(outcome.replayed >= 2_000, "one traced job, 2 000 captures");
        assert_eq!(outcome.incomplete, 0);
        assert!(outcome.measurement.throughput_rps > 0.0);
        assert!(outcome.trace_digest.is_some());
        let diff = diff_stores(&recorded, &replayed).unwrap();
        assert!(diff.contains("total-variation"));
    }

    #[test]
    fn schedule_skips_incomplete_timelines() {
        let full = [
            (Hop::Arrival, 100),
            (Hop::Reassembled, 200),
            (Hop::Dispatched, 300),
            (Hop::Started, 400),
            (Hop::Completed, 900),
        ];
        let mut events: Vec<TraceEvent> = full
            .iter()
            .map(|&(hop, t_ps)| TraceEvent {
                req: 1,
                hop,
                t_ps,
                src: 3,
                core: 0,
            })
            .collect();
        events.push(TraceEvent {
            req: 2,
            hop: Hop::Arrival,
            t_ps: 50,
            src: 4,
            core: 0,
        });
        let (schedule, incomplete) = schedule_from_events(&events);
        assert_eq!(schedule.len(), 1);
        assert_eq!(incomplete, 1);
        assert!((schedule.mean_service_ns() - 0.5).abs() < 1e-9, "900-400 ps");
    }
}
