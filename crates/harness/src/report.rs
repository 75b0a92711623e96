//! The artifact layer: versioned JSON sweep reports.
//!
//! A [`SweepReport`] is the deterministic record of one matrix run —
//! byte-identical for any worker-thread count, because job seeds and job
//! order are pure functions of the matrix. (Live-kind jobs are the one
//! exception: they record wall-clock measurements by design.) Wall-clock
//! data lives in the separate [`SweepTiming`] artifact so timing noise
//! never perturbs the comparable file (and the `BENCH/<scenario>.json`
//! trajectory stores — [`crate::trajectory`] — can digest and gate
//! reports across commits).
//!
//! When a matrix runs `replications > 1`, aggregation collapses the
//! replicated rows into one mean value per load point with a Student-t
//! 95 % confidence half-width per metric ([`PolicySummary::ci95`]) —
//! the raw per-replication rows stay in [`SweepReport::jobs`].

use metrics::{throughput_under_slo, CurvePoint, LatencyCurve};
use serde::{Deserialize, Serialize};
use workloads::Workload;

use crate::pool::JobOutcome;
use crate::spec::ScenarioMatrix;

/// Format version stamped into every report.
///
/// Version history: 1 = PR 1 (ServerSim-only jobs); 2 = job-kind
/// generalization (adds [`JobRecord::replication`]); 3 = the Scenario
/// registry (adds [`SweepReport::scenario`] and
/// [`JobRecord::breakdown_ns`]). Job *measurement values* are
/// bit-identical across 2 → 3 — only the envelope grew.
pub const REPORT_VERSION: u32 = 3;

/// One job's deterministic record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Position in the matrix's job list.
    pub index: u64,
    /// Workload label (parseable by `Workload::from_str` for named
    /// workloads; a free-form distribution label otherwise).
    pub workload: String,
    /// Policy figure label (e.g. `"1x16"`, `"sw-1x16"`).
    pub policy: String,
    /// Unique policy grouping key (distinguishes same-label variants,
    /// e.g. `"hw-single-t1"` vs `"hw-single-t2"` vs `"model-1x16"`).
    pub policy_key: String,
    /// Offered load: requests/second for sim jobs, a capacity fraction
    /// for queueing and live jobs.
    pub rate_rps: f64,
    /// Arrivals simulated/sent.
    pub requests: u64,
    /// Warm-up completions discarded.
    pub warmup: u64,
    /// The job's derived RNG seed.
    pub seed: u64,
    /// Replication index (0 = the legacy-seeded run).
    pub replication: u64,
    /// Achieved throughput (requests/second).
    pub throughput_rps: f64,
    /// Mean latency (ns).
    pub mean_latency_ns: f64,
    /// Median latency (ns).
    pub p50_latency_ns: f64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// 99th-percentile latency of the latency-critical class (ns); equals
    /// `p99_latency_ns` when the workload defines no class split.
    pub p99_critical_ns: f64,
    /// Completions measured after warm-up.
    pub measured: u64,
    /// Mean measured service time S̄ (ns).
    pub mean_service_ns: f64,
    /// Jain fairness index over per-core completions.
    pub load_balance_jain: f64,
    /// Arrivals deferred by send-slot flow control.
    pub flow_control_deferrals: u64,
    /// Peak shared-CQ depth across dispatchers (sim jobs; 0 otherwise).
    pub dispatcher_high_water: u64,
    /// Preemption events (sim jobs with preemption enabled; 0 otherwise).
    pub preemptions: u64,
    /// Mean per-component latency decomposition in pipeline order
    /// (reassembly, dispatch, core queue, processing; ns). Empty unless
    /// the job ran with tracing enabled — see
    /// [`crate::Measurement::breakdown`]. A flat vector (not an
    /// `Option`) keeps the serialized shape identical for every row.
    pub breakdown_ns: Vec<f64>,
}

/// The deterministic result artifact of one matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Owning scenario's registry name (equals `matrix` for standalone
    /// matrices run outside a scenario).
    pub scenario: String,
    /// Matrix name.
    pub matrix: String,
    /// Master seed the job seeds derive from.
    pub master_seed: u64,
    /// Per-job records, in matrix job order.
    pub jobs: Vec<JobRecord>,
}

/// Wall-clock sidecar for a sweep (never part of the comparable report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepTiming {
    /// Matrix name.
    pub matrix: String,
    /// Worker threads used.
    pub threads: u64,
    /// Total wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
    /// Per-job wall-clock milliseconds, in job order.
    pub job_wall_ms: Vec<f64>,
    /// Sum of per-job wall time; `/ total_wall_ms` estimates achieved
    /// parallel speedup.
    pub cpu_ms: f64,
    /// Per-job simulator events popped, in job order (0 for live jobs).
    pub job_events: Vec<u64>,
    /// Aggregate simulator throughput: total events over total
    /// worker-busy seconds.
    pub events_per_sec: f64,
}

impl SweepTiming {
    /// Achieved speedup: total worker-busy time over elapsed time.
    pub fn speedup(&self) -> f64 {
        if self.total_wall_ms > 0.0 {
            self.cpu_ms / self.total_wall_ms
        } else {
            0.0
        }
    }

    /// Total simulator events across the sweep.
    pub fn total_events(&self) -> u64 {
        self.job_events.iter().sum()
    }

    /// The one-line run summary the figure binaries and the CLI print.
    pub fn summary_line(&self) -> String {
        let events = if self.events_per_sec > 0.0 {
            format!(", {:.1} Mevents/s", self.events_per_sec / 1e6)
        } else {
            String::new()
        };
        format!(
            "[{} jobs in {:.1} s on {} threads, {:.2}x speedup{events}]",
            self.job_wall_ms.len(),
            self.total_wall_ms / 1e3,
            self.threads,
            self.speedup()
        )
    }
}

/// Student-t 95 % confidence half-widths for one aggregated load point
/// (all zero when the point has a single replication).
#[derive(Debug, Clone, Serialize)]
pub struct PointCi {
    /// The load point's offered load.
    pub offered_load: f64,
    /// Replications aggregated into this point.
    pub replications: u64,
    /// ± half-width on achieved throughput (rps).
    pub throughput_ci95_rps: f64,
    /// ± half-width on mean latency (ns).
    pub mean_latency_ci95_ns: f64,
    /// ± half-width on p99 latency (ns).
    pub p99_ci95_ns: f64,
}

/// Per-(workload, policy) aggregation of a report: the latency curve and
/// the paper's headline throughput-under-SLO metric.
#[derive(Debug, Clone, Serialize)]
pub struct PolicySummary {
    /// Workload label.
    pub workload: String,
    /// Policy figure label.
    pub policy: String,
    /// Unique policy grouping key.
    pub policy_key: String,
    /// The latency/throughput curve in increasing-rate order, one point
    /// per load point (replications collapsed into their mean). For
    /// workloads with a latency-critical class (Masstree) the p99 values
    /// are the critical class's, matching §6.1's SLO accounting.
    pub curve: LatencyCurve,
    /// 95 % confidence half-widths per curve point; empty when the sweep
    /// ran a single replication (then the means are exact records).
    pub ci95: Vec<PointCi>,
    /// Mean measured S̄ (ns) at the lightest load point.
    pub mean_service_ns: f64,
    /// Throughput under the workload's SLO (requests/second).
    pub throughput_under_slo_rps: f64,
}

/// Two-sided 97.5 % Student-t quantile for `df` degrees of freedom
/// (the 95 % CI multiplier), clamped to the normal 1.96 beyond df 30.
fn t_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Student-t 95 % confidence half-width of the mean of `values`
/// (0.0 for fewer than two samples).
fn ci95_half_width(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64;
    t_975((n - 1) as u64) * (var / n as f64).sqrt()
}

impl JobRecord {
    /// The one Measurement→record mapping. `index` is the job's position
    /// in the matrix being assembled.
    pub fn from_outcome(index: u64, o: &JobOutcome) -> JobRecord {
        JobRecord {
            index,
            workload: o.spec.workload.label(),
            policy: o.result.label.clone(),
            policy_key: o.spec.policy_key(),
            rate_rps: o.spec.rate_rps,
            requests: o.spec.requests,
            warmup: o.spec.warmup,
            seed: o.spec.seed,
            replication: o.spec.replication as u64,
            throughput_rps: o.result.throughput_rps,
            mean_latency_ns: o.result.mean_latency_ns,
            p50_latency_ns: o.result.p50_latency_ns,
            p99_latency_ns: o.result.p99_latency_ns,
            p99_critical_ns: o.result.p99_critical_ns,
            measured: o.result.measured,
            mean_service_ns: o.result.mean_service_ns,
            load_balance_jain: o.result.load_balance_jain,
            flow_control_deferrals: o.result.flow_control_deferrals,
            dispatcher_high_water: o.result.dispatcher_high_water as u64,
            preemptions: o.result.preemptions,
            breakdown_ns: o
                .result
                .breakdown
                .map(|b| b.as_array().to_vec())
                .unwrap_or_default(),
        }
    }

    /// The per-component latency decomposition, when the job recorded
    /// one.
    pub fn breakdown(&self) -> Option<metrics::LatencyBreakdown> {
        metrics::LatencyBreakdown::from_slice(&self.breakdown_ns)
    }
}

impl SweepReport {
    /// Assembles the deterministic report from pool outcomes.
    pub fn from_outcomes(matrix: &ScenarioMatrix, outcomes: &[JobOutcome]) -> SweepReport {
        let jobs = outcomes
            .iter()
            .map(|o| JobRecord::from_outcome(o.index as u64, o))
            .collect();
        SweepReport {
            version: REPORT_VERSION,
            scenario: matrix.scenario.clone(),
            matrix: matrix.name.clone(),
            master_seed: matrix.master_seed,
            jobs,
        }
    }

    /// Serializes the report as pretty JSON — the byte-comparable form.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back from JSON.
    pub fn from_json(text: &str) -> Result<SweepReport, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Aggregates per-(workload, policy) summaries, preserving first-seen
    /// order. Replicated points are collapsed to their mean, with 95 %
    /// confidence half-widths in [`PolicySummary::ci95`].
    pub fn summaries(&self) -> Vec<PolicySummary> {
        let mut order: Vec<(String, String)> = Vec::new();
        for job in &self.jobs {
            let key = (job.workload.clone(), job.policy_key.clone());
            if !order.contains(&key) {
                order.push(key);
            }
        }
        order
            .into_iter()
            .map(|(workload, policy_key)| {
                let group: Vec<&JobRecord> = self
                    .jobs
                    .iter()
                    .filter(|j| j.workload == workload && j.policy_key == policy_key)
                    .collect();
                let policy = group
                    .first()
                    .map(|j| j.policy.clone())
                    .unwrap_or_else(|| policy_key.clone());
                let parsed: Option<Workload> = workload.parse().ok();
                let critical = parsed.and_then(|w| w.critical_threshold_ns()).is_some();

                // Partition the group into load points: replication 0
                // starts a point, higher indices extend it (expansion
                // order keeps a point's replications adjacent).
                let mut points: Vec<Vec<&JobRecord>> = Vec::new();
                for job in &group {
                    if job.replication == 0 || points.is_empty() {
                        points.push(vec![job]);
                    } else {
                        points.last_mut().expect("non-empty").push(job);
                    }
                }

                let replicated = points.iter().any(|reps| reps.len() > 1);
                let mut curve = LatencyCurve::new(policy.clone());
                let mut ci95 = Vec::new();
                for reps in &points {
                    let first = reps[0];
                    let p99_of = |j: &JobRecord| {
                        if critical {
                            j.p99_critical_ns
                        } else {
                            j.p99_latency_ns
                        }
                    };
                    if reps.len() == 1 {
                        curve.push(CurvePoint {
                            offered_load: first.rate_rps,
                            throughput_rps: first.throughput_rps,
                            mean_latency_ns: first.mean_latency_ns,
                            p99_latency_ns: p99_of(first),
                            completed: first.measured,
                        });
                        if replicated {
                            ci95.push(PointCi {
                                offered_load: first.rate_rps,
                                replications: 1,
                                throughput_ci95_rps: 0.0,
                                mean_latency_ci95_ns: 0.0,
                                p99_ci95_ns: 0.0,
                            });
                        }
                    } else {
                        let tputs: Vec<f64> = reps.iter().map(|j| j.throughput_rps).collect();
                        let means: Vec<f64> = reps.iter().map(|j| j.mean_latency_ns).collect();
                        let p99s: Vec<f64> = reps.iter().map(|j| p99_of(j)).collect();
                        let completed: u64 = reps.iter().map(|j| j.measured).sum::<u64>()
                            / reps.len() as u64;
                        curve.push(CurvePoint {
                            offered_load: first.rate_rps,
                            throughput_rps: mean(&tputs),
                            mean_latency_ns: mean(&means),
                            p99_latency_ns: mean(&p99s),
                            completed,
                        });
                        ci95.push(PointCi {
                            offered_load: first.rate_rps,
                            replications: reps.len() as u64,
                            throughput_ci95_rps: ci95_half_width(&tputs),
                            mean_latency_ci95_ns: ci95_half_width(&means),
                            p99_ci95_ns: ci95_half_width(&p99s),
                        });
                    }
                }

                let mean_service_ns = group
                    .first()
                    .map(|j| j.mean_service_ns)
                    .unwrap_or_default();
                let throughput_under_slo_rps = parsed
                    .map(|w| throughput_under_slo(&curve, w.slo(mean_service_ns)))
                    .unwrap_or_default();
                PolicySummary {
                    workload,
                    policy,
                    policy_key,
                    curve,
                    ci95,
                    mean_service_ns,
                    throughput_under_slo_rps,
                }
            })
            .collect()
    }
}

/// Builds the timing sidecar from pool outcomes — the single place
/// `cpu_ms` and `events_per_sec` are defined.
pub fn timing_from_outcomes(
    matrix: &ScenarioMatrix,
    outcomes: &[JobOutcome],
    threads: usize,
    total_wall_ms: f64,
) -> SweepTiming {
    let job_wall_ms: Vec<f64> = outcomes.iter().map(|o| o.wall_ms).collect();
    let job_events: Vec<u64> = outcomes.iter().map(|o| o.result.sim_events).collect();
    let cpu_ms: f64 = job_wall_ms.iter().sum();
    let total_events: u64 = job_events.iter().sum();
    SweepTiming {
        matrix: matrix.name.clone(),
        threads: threads as u64,
        total_wall_ms,
        job_wall_ms,
        cpu_ms,
        job_events,
        events_per_sec: if cpu_ms > 0.0 && total_events > 0 {
            total_events as f64 / (cpu_ms / 1e3)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_jobs;
    use crate::spec::RateGrid;
    use dist::{ServiceDist, SyntheticKind};
    use queueing::QxU;
    use rpcvalet::Policy;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new("report-test", 3)
            .workloads(vec![Workload::Synthetic(SyntheticKind::Fixed)])
            .policies(vec![Policy::hw_single_queue(), Policy::hw_static()])
            .rates(RateGrid::Shared(vec![2.0e6, 8.0e6]))
            .requests(3_000, 300)
    }

    fn tiny_report() -> SweepReport {
        let m = tiny_matrix();
        let outcomes = run_jobs(m.jobs(), 2);
        SweepReport::from_outcomes(&m, &outcomes)
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = tiny_report();
        let json = report.to_json_pretty();
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.version, REPORT_VERSION);
        assert_eq!(back.jobs.len(), 4);
    }

    #[test]
    fn summaries_group_and_order() {
        let report = tiny_report();
        let summaries = report.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].policy, "1x16");
        assert_eq!(summaries[1].policy, "16x1");
        for s in &summaries {
            assert_eq!(s.curve.len(), 2);
            assert!(s.ci95.is_empty(), "single replication has no CI rows");
            assert!(s.mean_service_ns > 700.0, "S̄ {}", s.mean_service_ns);
            assert!(s.throughput_under_slo_rps > 0.0);
        }
    }

    #[test]
    fn timing_sidecar_sums() {
        let m = tiny_matrix();
        let outcomes = run_jobs(m.jobs(), 2);
        let timing = timing_from_outcomes(&m, &outcomes, 2, 100.0);
        assert_eq!(timing.job_wall_ms.len(), 4);
        assert!(timing.cpu_ms >= 0.0);
        assert_eq!(timing.threads, 2);
        assert!(timing.speedup() >= 0.0);
    }

    #[test]
    fn masstree_summary_uses_critical_p99() {
        let m = ScenarioMatrix::new("masstree-crit", 4)
            .workloads(vec![Workload::Masstree])
            .policies(vec![Policy::hw_single_queue()])
            .rates(RateGrid::Shared(vec![1.0e6]))
            .requests(20_000, 2_000);
        let outcomes = run_jobs(m.jobs(), 2);
        let report = SweepReport::from_outcomes(&m, &outcomes);
        let s = &report.summaries()[0];
        // Get-class p99 at light load is far below the 60 µs+ scans that
        // dominate the all-requests p99.
        assert!(
            s.curve.points[0].p99_latency_ns < 60_000.0,
            "critical p99 {}",
            s.curve.points[0].p99_latency_ns
        );
        assert!(report.jobs[0].p99_latency_ns > s.curve.points[0].p99_latency_ns);
    }

    #[test]
    fn replications_collapse_to_mean_with_ci() {
        // A queueing matrix keeps this test fast; aggregation is
        // kind-agnostic.
        let m = ScenarioMatrix::new("rep-test", 5)
            .service_workloads(vec![(
                "exp".to_owned(),
                ServiceDist::exponential_mean_ns(1.0),
            )])
            .model_policies(vec![QxU::SINGLE_16])
            .rates(RateGrid::Shared(vec![0.5, 0.8]))
            .requests(8_000, 800)
            .replications(4);
        let outcomes = run_jobs(m.jobs(), 4);
        let report = SweepReport::from_outcomes(&m, &outcomes);
        assert_eq!(report.jobs.len(), 8, "raw rows keep every replication");

        let s = &report.summaries()[0];
        assert_eq!(s.curve.len(), 2, "one curve point per load point");
        assert_eq!(s.ci95.len(), 2, "one CI row per load point");
        for (point, ci) in s.curve.points.iter().zip(&s.ci95) {
            assert_eq!(ci.replications, 4);
            assert!(
                ci.p99_ci95_ns > 0.0,
                "independent replications must spread: {ci:?}"
            );
            assert!(ci.p99_ci95_ns < point.p99_latency_ns, "CI below the mean");
        }
        // The collapsed mean sits inside the replication range.
        let p99s: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.rate_rps == 0.8)
            .map(|j| j.p99_latency_ns)
            .collect();
        let lo = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = p99s.iter().cloned().fold(0.0f64, f64::max);
        let mean_p99 = s.curve.points[1].p99_latency_ns;
        assert!(lo <= mean_p99 && mean_p99 <= hi, "{lo} <= {mean_p99} <= {hi}");
    }

    #[test]
    fn t_quantiles_are_sane() {
        assert!(t_975(1) > 12.0);
        assert!((t_975(10) - 2.228).abs() < 1e-9);
        assert!((t_975(100) - 1.96).abs() < 1e-9);
        assert_eq!(ci95_half_width(&[1.0]), 0.0);
        let hw = ci95_half_width(&[1.0, 2.0, 3.0]);
        // sd = 1, n = 3 -> 4.303 / sqrt(3).
        assert!((hw - 4.303 / 3f64.sqrt()).abs() < 1e-9);
    }
}
