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

use simkit::pool::run_indexed;
use telemetry::TraceEvent;

use crate::spec::{ExperimentSpec, Measurement};

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

/// What an observed pool run recorded beyond the outcomes, all in
/// **job order** (not completion order): for sim/model jobs the event
/// stream — hence a trace store's digest — and the series collection are
/// bit-identical for every `threads` value, exactly like the report.
#[derive(Debug, Default)]
pub struct Observations {
    /// Every job's captured hop events, request ids namespaced by
    /// `job-index << 40` so they never collide across jobs.
    pub events: Vec<TraceEvent>,
    /// Events lost to full live trace rings (0 for sim matrices).
    pub dropped: u64,
    /// One windowed series per job that produced one.
    pub series: Vec<telemetry::JobSeries>,
}

/// [`run_jobs`], observed: every job also captures its first `capture`
/// requests' hop events and, when `series_interval_ps > 0`, records a
/// windowed telemetry series (see
/// [`ExperimentSpec::run_observed_series`]).
pub fn run_jobs_series(
    jobs: Vec<ExperimentSpec>,
    threads: usize,
    capture: usize,
    series_interval_ps: u64,
) -> (Vec<JobOutcome>, Observations) {
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
    let mut all = Observations::default();
    for (outcome, events, dropped, series) in observed {
        outcomes.push(outcome);
        all.events.extend(events);
        all.dropped += dropped;
        all.series.extend(series);
    }
    (outcomes, all)
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
