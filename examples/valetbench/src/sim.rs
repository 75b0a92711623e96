//! The two simulator workloads: `sim_fig8` (full-system simulation) and
//! `model_fig2` (the Q×U queueing models on the same engine).
//!
//! One operation is one operating point: one `ExperimentSpec::run()`,
//! timed on the host. A run repeats the workload's matrices, one
//! replication after another with fresh seeds, until the measuring time
//! is up. A replication holds the same mix of points every time, so a
//! point's host time is taken per *class* — the point's position in the
//! replication — as the median over the replications, and every
//! end-to-end number is built from those class medians: they mean the
//! same on every run and on both commits, however many replications
//! fitted into the time.

use std::time::Instant;

use harness::{ExperimentSpec, Measurement, PolicySpec, ScenarioMatrix};
use rpcvalet::Policy;
use simkit::rng::split_seed;

use crate::estim::{median, quantile_sorted, WindowStat};
use crate::proc;
use crate::spans::{SpanLog, NONE};

/// Set-ups per run; `setup_s` is their median. The first comes before
/// the measured interval, the others at even distances inside it: the
/// box is slow for seconds at a time, and five set-ups back to back all
/// land in the same seconds.
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Fig8,
    Fig2,
}

impl SimKind {
    /// The named matrices at the benchmark's request counts: fewer
    /// requests per point than the figures use, so that a run pools
    /// thousands of points (the unit `p50_us`/`p99_us` are taken over).
    pub fn matrices(self) -> Vec<ScenarioMatrix> {
        let named = |name: &str| ScenarioMatrix::named(name).expect("catalogued matrix");
        match self {
            SimKind::Fig8 => vec![named("fig8").requests(16_000, 1_600)],
            SimKind::Fig2 => vec![
                named("fig2a").requests(32_000, 3_200),
                named("fig2b").requests(32_000, 3_200),
            ],
        }
    }
}

/// A workload's matrices plus the run's seed: everything a replication
/// is expanded from.
pub struct Plan {
    kind: SimKind,
    matrices: Vec<ScenarioMatrix>,
    seed: u64,
}

impl Plan {
    pub fn new(kind: SimKind, seed: u64) -> Self {
        Plan {
            kind,
            matrices: kind.matrices(),
            seed,
        }
    }

    /// The jobs of replication `rep`, each matrix re-seeded from
    /// `(seed, matrix, rep)`; goes through `ScenarioMatrix::jobs()`.
    pub fn replication(&self, rep: u64) -> Vec<ExperimentSpec> {
        let mut jobs = Vec::new();
        for (i, matrix) in self.matrices.iter().enumerate() {
            let mut matrix = matrix.clone();
            matrix.master_seed = split_seed(split_seed(self.seed, i as u64), rep);
            jobs.extend(matrix.jobs());
        }
        jobs
    }
}

/// One set-up: builds the plan and warms the process up on a quarter of
/// replication 0 (which is never measured) — thread-local scratch
/// buffers sized, the allocator's arenas grown, code paged in. Returns
/// the plan and the time it took.
pub fn set_up(kind: SimKind, seed: u64) -> (Plan, f64) {
    let start = Instant::now();
    let plan = Plan::new(kind, seed);
    for job in plan.replication(0).iter().step_by(4) {
        std::hint::black_box(job.run());
    }
    (plan, start.elapsed().as_secs_f64())
}

/// Host time, simulator events and simulated requests of a class of
/// points — `ns_per_event` and `events_per_req` in the ledger.
#[derive(Default, Clone, Copy)]
pub struct Class {
    pub points: u64,
    pub wall_ns: u64,
    pub events: u64,
    pub requests: u64,
}

impl Class {
    fn add(&mut self, wall_ns: u64, job: &ExperimentSpec, m: &Measurement) {
        self.points += 1;
        self.wall_ns += wall_ns;
        self.events += m.sim_events;
        self.requests += job.requests;
    }

    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events.max(1) as f64
    }

    pub fn events_per_req(&self) -> f64 {
        self.events as f64 / self.requests.max(1) as f64
    }
}

pub struct SimOutcome {
    /// Points run, and points whose `measured != requests − warmup`.
    pub points: u64,
    pub failed: u64,
    /// Wall time of the measured interval, job expansion included.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The set-ups repeated inside the measured interval, between
    /// replications (their time is in `wall_s` and in no window).
    pub setups: Vec<f64>,
    /// One window per replication, for the report: its rate and the
    /// quantiles of the host time of its points.
    pub replications: Vec<WindowStat>,
    /// Simulated requests in one replication.
    pub requests_per_replication: u64,
    /// The typical host time (µs) of each class of point — the median
    /// over replications of the point at that position — in ascending
    /// order. `p50_us` and `p99_us` are quantiles of this list and
    /// `req_per_s` is a replication's requests over its sum. The box
    /// runs 10–15 % faster or slower for seconds at a time and stalls
    /// for hundreds of milliseconds; that lands in a few replications of
    /// each class and moves no class's median. Over ten runs the pooled
    /// p99 of all points repeated within 10.5 %, this one within 3.4 %.
    pub class_us: Vec<f64>,
    /// Points under a hardware dispatch policy or a queueing model.
    pub hw: Class,
    /// Points under the software (MCS-locked) single queue.
    pub sw: Class,
}

impl SimOutcome {
    pub fn requests(&self) -> u64 {
        self.hw.requests + self.sw.requests
    }

    /// Simulated requests per host second of the typical replication:
    /// every class of point at its median host time.
    pub fn req_per_s(&self) -> f64 {
        self.requests_per_replication as f64 / (self.class_us.iter().sum::<f64>() / 1e6)
    }
}

fn is_software(job: &ExperimentSpec) -> bool {
    matches!(job.policy, PolicySpec::Sim(Policy::SwSingleQueue { .. }))
}

/// Runs whole replications (1, 2, …) for about `seconds`: stops after
/// the replication that brings the elapsed time within half a
/// replication of the target. Between replications it repeats the
/// set-up [`SETUPS`] − 1 times, at even distances.
pub fn run(plan: &Plan, seconds: f64, log: &mut SpanLog) -> SimOutcome {
    let (mut points, mut failed) = (0, 0);
    let (mut hw, mut sw) = (Class::default(), Class::default());
    let mut windows: Vec<WindowStat> = Vec::new();
    let mut point_us: Vec<f64> = Vec::new();
    let mut by_class: Vec<Vec<f64>> = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let cpu_start = proc::cpu_seconds();
    let start = Instant::now();
    let wall_s = loop {
        let rep = windows.len() as u64 + 1;
        let rep_start = Instant::now();
        point_us.clear();
        let rep_span = log.begin("replication", NONE, rep);
        let jobs = log.within("harness.jobs", rep_span, rep, || plan.replication(rep));
        for (i, job) in jobs.iter().enumerate() {
            let span = log.begin("harness.run", rep_span, rep << 16 | i as u64);
            let point_start = Instant::now();
            let m = job.run();
            let wall_ns = point_start.elapsed().as_nanos() as u64;
            log.end(span);
            points += 1;
            failed += (m.measured != job.requests - job.warmup) as u64;
            point_us.push(wall_ns as f64 / 1e3);
            if by_class.len() == i {
                by_class.push(Vec::new());
            }
            by_class[i].push(wall_ns as f64 / 1e3);
            let class = if is_software(job) { &mut sw } else { &mut hw };
            class.add(wall_ns, job, &m);
        }
        log.end(rep_span);
        let rep_s = rep_start.elapsed().as_secs_f64();
        let requests: u64 = jobs.iter().map(|j| j.requests).sum();
        point_us.sort_by(f64::total_cmp);
        windows.push(WindowStat {
            req_per_s: requests as f64 / rep_s,
            p50_us: quantile_sorted(&point_us, 0.50),
            p99_us: quantile_sorted(&point_us, 0.99),
            samples: point_us.len() as u64,
        });
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + rep_s / 2.0 >= seconds {
            break elapsed;
        }
        if setups.len() + 1 < SETUPS
            && elapsed >= seconds * (setups.len() + 1) as f64 / SETUPS as f64
        {
            setups.push(log.within("set_up", NONE, rep, || set_up(plan.kind, plan.seed).1));
        }
    };
    let mut class_us: Vec<f64> = by_class.iter().map(|times| median(times)).collect();
    class_us.sort_by(f64::total_cmp);
    SimOutcome {
        points,
        failed,
        class_us,
        setups,
        wall_s,
        cpu_s: proc::cpu_seconds() - cpu_start,
        // Every replication holds the same points.
        requests_per_replication: (hw.requests + sw.requests) / windows.len() as u64,
        replications: windows,
        hw,
        sw,
    }
}

/// Every field of two measurements, bit for bit.
fn identical(a: &Measurement, b: &Measurement) -> bool {
    let floats = |m: &Measurement| {
        [
            m.throughput_rps,
            m.mean_latency_ns,
            m.p50_latency_ns,
            m.p99_latency_ns,
            m.p99_critical_ns,
            m.mean_service_ns,
            m.load_balance_jain,
        ]
        .map(f64::to_bits)
    };
    let counts = |m: &Measurement| {
        [
            m.measured,
            m.flow_control_deferrals,
            m.sim_events,
            m.queue_overflow_pushes,
            m.queue_overflow_migrations,
            m.dispatcher_high_water as u64,
            m.preemptions,
            m.trace_dropped,
        ]
    };
    a.label == b.label && floats(a) == floats(b) && counts(a) == counts(b)
}

/// The determinism check: the first point of each matrix, run twice,
/// must agree in every `Measurement` field. Returns `(checked, failed)`.
pub fn verify_determinism(plan: &Plan) -> (u64, u64) {
    let mut failed = 0;
    for (i, matrix) in plan.matrices.iter().enumerate() {
        let mut matrix = matrix.clone();
        matrix.master_seed = split_seed(split_seed(plan.seed, i as u64), 1);
        let job = &matrix.jobs()[0];
        failed += !identical(&job.run(), &job.run()) as u64;
    }
    (plan.matrices.len() as u64, failed)
}

/// fig8's hardware single queue at the top load of the exponential
/// sweep, at the catalogue's own seed: a simulated number, the same on
/// every run and machine until the model changes.
pub fn fig8_top_load_point() -> (ExperimentSpec, Measurement) {
    let jobs = SimKind::Fig8.matrices().remove(0).jobs();
    let job = jobs
        .into_iter()
        .filter(|j| j.workload.label() == "exp" && !is_software(j))
        .max_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps))
        .expect("fig8 has an exponential hardware sweep");
    let m = job.run();
    (job, m)
}
