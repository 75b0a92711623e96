//! The dispatcher + worker pool that runs a job list across OS threads.
//!
//! Pull-based, in the style of chroma's execution engine: a central
//! dispatcher owns the queue of pending jobs, and each worker thread
//! *requests* its next job when it becomes free (rather than the
//! dispatcher pushing pre-partitioned shards). Whichever worker finishes
//! early pulls the next heavy job, so stragglers — e.g. a saturated
//! operating point that simulates far more events than a light one —
//! don't idle the rest of the pool. A fitting shape for this repo: the
//! harness load-balances simulations of a load balancer.
//!
//! The engine itself lives in [`simkit::pool`] — the one implementation
//! of the "index-keyed, scheduling-independent" determinism contract.
//! This module binds it to [`ExperimentSpec`] jobs and adds per-job
//! wall-clock capture for the timing sidecar.

use std::time::Instant;

use simkit::pool::{run_indexed, TaskQueue};
use telemetry::TraceEvent;

use crate::spec::{ExperimentSpec, Measurement};

/// The central job queue workers pull [`ExperimentSpec`]s from.
pub type JobDispatcher = TaskQueue<ExperimentSpec>;

/// The outcome of one job, with its position in the original job list.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Index into the job list the pool was started with.
    pub index: usize,
    /// The job that ran.
    pub spec: ExperimentSpec,
    /// The run's measurements (whichever [`crate::JobKind`] produced
    /// them).
    pub result: Measurement,
    /// Wall-clock milliseconds this job took on its worker.
    pub wall_ms: f64,
}

/// Runs every job on `threads` worker threads, returning outcomes in job
/// order — bit-identical for every `threads` value.
///
/// `threads = 0` is clamped to 1; `threads = 1` runs inline on the
/// calling thread with no pool at all.
pub fn run_jobs(jobs: Vec<ExperimentSpec>, threads: usize) -> Vec<JobOutcome> {
    run_indexed(jobs, threads, |index, spec| {
        let start = Instant::now();
        let result = spec.run();
        JobOutcome {
            index,
            spec,
            result,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
}

/// [`run_jobs`], with request-lifecycle tracing: every job also captures
/// its first `capture` requests' hop events, namespaced by
/// `job-index << 40` so ids never collide across jobs.
///
/// Returns `(outcomes, events, dropped)`. Events are concatenated in
/// **job order** (not completion order), so for sim/model jobs the event
/// stream — and hence the trace store's digest — is bit-identical for
/// every `threads` value, exactly like the measurement report.
pub fn run_jobs_observed(
    jobs: Vec<ExperimentSpec>,
    threads: usize,
    capture: usize,
) -> (Vec<JobOutcome>, Vec<TraceEvent>, u64) {
    let (outcomes, events, dropped, _series) = run_jobs_series(jobs, threads, capture, 0);
    (outcomes, events, dropped)
}

/// [`run_jobs_observed`], also recording a windowed telemetry series per
/// job when `series_interval_ps > 0` (see
/// [`ExperimentSpec::run_observed_series`]). Series come back in **job
/// order**, one [`telemetry::JobSeries`] per job that produced one —
/// for sim matrices the collection is bit-identical for every `threads`
/// value, same contract as the report and the event stream.
pub fn run_jobs_series(
    jobs: Vec<ExperimentSpec>,
    threads: usize,
    capture: usize,
    series_interval_ps: u64,
) -> (Vec<JobOutcome>, Vec<TraceEvent>, u64, Vec<telemetry::JobSeries>) {
    let observed = run_indexed(jobs, threads, move |index, spec| {
        let start = Instant::now();
        let run = spec.run_observed_series(capture, (index as u64) << 40, series_interval_ps);
        let outcome = JobOutcome {
            index,
            spec,
            result: run.measurement,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        (outcome, run.events, run.dropped, run.series)
    });
    let mut outcomes = Vec::with_capacity(observed.len());
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut series = Vec::new();
    for (outcome, job_events, job_dropped, job_series) in observed {
        outcomes.push(outcome);
        events.extend(job_events);
        dropped += job_dropped;
        series.extend(job_series);
    }
    (outcomes, events, dropped, series)
}

pub use simkit::pool::default_threads;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RateGrid, ScenarioMatrix};
    use dist::SyntheticKind;
    use rpcvalet::Policy;
    use workloads::Workload;

    fn small_jobs() -> Vec<ExperimentSpec> {
        ScenarioMatrix::new("pool-test", 5)
            .workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .policies(vec![Policy::hw_single_queue(), Policy::hw_static()])
            .rates(RateGrid::Shared(vec![4.0e6, 10.0e6, 16.0e6]))
            .requests(4_000, 400)
            .jobs()
    }

    #[test]
    fn dispatcher_hands_out_jobs_in_order_once() {
        let jobs = small_jobs();
        let n = jobs.len();
        let d = JobDispatcher::new(jobs);
        let mut seen = Vec::new();
        while let Some((i, _)) = d.request() {
            seen.push(i);
        }
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(d.pending(), 0);
        assert!(d.request().is_none());
    }

    #[test]
    fn parallel_equals_sequential() {
        let sequential = run_jobs(small_jobs(), 1);
        let parallel = run_jobs(small_jobs(), 4);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.result.p99_latency_ns, p.result.p99_latency_ns);
            assert_eq!(s.result.throughput_rps, p.result.throughput_rps);
            assert_eq!(s.result.measured, p.result.measured);
            assert_eq!(s.result.load_balance_jain, p.result.load_balance_jain);
        }
    }

    #[test]
    fn oversized_thread_count_is_fine() {
        let outcomes = run_jobs(small_jobs(), 64);
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.result.measured == 3_600));
    }

    #[test]
    fn empty_job_list() {
        assert!(run_jobs(Vec::new(), 8).is_empty());
    }
}
