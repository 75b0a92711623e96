//! The job model: one experiment point, and the matrix builder that
//! expands (workload × policy × load point × replication) into a job
//! list.
//!
//! A job's execution path is its [`JobKind`]:
//!
//! * [`JobKind::ServerSim`] — the full-system `rpcvalet::ServerSim`
//!   (Figs. 7–8); rates are absolute requests/second.
//! * [`JobKind::Queueing`] — a `queueing::QueueingModel` Q×U run
//!   (Figs. 2, 9 model lines); rates are load *fractions* of capacity.
//! * [`JobKind::Live`] — a real loopback TCP run (`live::run_loopback`):
//!   actual threads on actual queues; rates are load fractions. Live
//!   jobs measure wall-clock behaviour and are therefore **exempt from
//!   the harness's byte-identical determinism contract** — everything
//!   else keeps it.

use std::sync::Arc;

use dist::{ServiceDist, SyntheticKind};
use live::{BurnMode, ClusterPlan, LivePolicy, LiveRunConfig};
use metrics::LatencyBreakdown;
use queueing::{QueueingModel, QxU, RunParams};
use rpcvalet::{McsParams, Policy, PreemptionParams, RequestSchedule, ServerSim, SystemConfig};
use simkit::rng::split_seed;
use simkit::SimDuration;
use sonuma::ChipParams;
use telemetry::TraceEvent;
use workloads::{scenario_config, Workload};

/// Tag mixed into the master seed for replications beyond the first, so
/// replication 0 reproduces the legacy single-run seeds bit-for-bit.
const REPLICATION_SEED_TAG: u64 = 0x5EED_0000_0000;

/// The execution path of a job (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Full-system simulation (`rpcvalet::ServerSim`).
    ServerSim,
    /// Theoretical Q×U queueing model (`queueing::QueueingModel`).
    Queueing,
    /// Live loopback serving (`live::run_loopback`).
    Live,
}

impl JobKind {
    /// Short lowercase label (`"sim"`, `"queueing"`, `"live"`).
    pub fn label(self) -> &'static str {
        match self {
            JobKind::ServerSim => "sim",
            JobKind::Queueing => "queueing",
            JobKind::Live => "live",
        }
    }
}

/// The workload axis of a matrix: either one of the paper's named
/// workload families, or a raw service distribution (what the queueing
/// figures sweep).
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A §5 workload family (service profile + SLO + default load grid).
    Named(Workload),
    /// A bare service distribution under an explicit label — no SLO or
    /// default grid attached (used by Fig. 2's normalized sweeps and
    /// Fig. 9's hybrid model distributions).
    Service {
        /// Label recorded in reports.
        label: String,
        /// The service-time distribution (ns).
        dist: ServiceDist,
    },
    /// A recorded arrival trace replayed verbatim (`harness trace
    /// --replay`): the schedule pins every arrival instant, source, and
    /// service demand, so sim jobs touch no generator RNG. Needs an
    /// explicit [`RateGrid::Shared`] grid — typically the schedule's
    /// [`RequestSchedule::implied_rate_rps`].
    Trace {
        /// Label recorded in reports (e.g. the trace store's label).
        label: String,
        /// The recorded arrivals.
        schedule: Arc<RequestSchedule>,
    },
}

impl WorkloadSpec {
    /// The label recorded in reports.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Named(w) => w.label(),
            WorkloadSpec::Service { label, .. } | WorkloadSpec::Trace { label, .. } => {
                label.clone()
            }
        }
    }

    /// The service-time distribution. For trace replays the per-request
    /// demands come from the schedule itself; this returns a fixed
    /// distribution at the schedule's mean so kind-agnostic callers
    /// (live jobs, capacity math) still get a sensible profile.
    pub fn service_dist(&self) -> ServiceDist {
        match self {
            WorkloadSpec::Named(w) => w.service_dist(),
            WorkloadSpec::Service { dist, .. } => dist.clone(),
            WorkloadSpec::Trace { schedule, .. } => {
                ServiceDist::fixed_ns(schedule.mean_service_ns())
            }
        }
    }

    /// The named workload, when this is one.
    pub fn named(&self) -> Option<Workload> {
        match self {
            WorkloadSpec::Named(w) => Some(*w),
            WorkloadSpec::Service { .. } | WorkloadSpec::Trace { .. } => None,
        }
    }
}

impl From<Workload> for WorkloadSpec {
    fn from(w: Workload) -> Self {
        WorkloadSpec::Named(w)
    }
}

/// Parameters of a live job shared across the policy axis.
#[derive(Debug, Clone)]
pub struct LiveParams {
    /// Server worker threads.
    pub workers: usize,
    /// How workers burn service time.
    pub burn: BurnMode,
    /// Load-generator connections.
    pub connections: usize,
    /// Service-time multiplier (ns-scale profiles × this; see
    /// [`live::BalancerConfig::scale`]).
    pub scale: f64,
    /// `Some` runs the job as a multi-node cluster
    /// ([`live::cluster::run_cluster`]), with the plan's failure mode
    /// injected mid-run; `None` is one loopback server. Both run the
    /// same client, so every live job asserts the zero-lost accounting
    /// invariant and reports redirect frames in
    /// [`Measurement::flow_control_deferrals`].
    pub cluster: Option<ClusterPlan>,
}

impl Default for LiveParams {
    fn default() -> Self {
        LiveParams {
            workers: 2,
            burn: BurnMode::Sleep,
            connections: 8,
            // 600 ns synthetic profiles -> 300 µs sleeps.
            scale: 500.0,
            cluster: None,
        }
    }
}

/// Simulator knobs a policy-axis entry may override — the
/// `ablation_sensitivity`, `ablation_preemption` and `ablation_emulated`
/// axes. Each knob is `None`/`false` = keep the scenario/builder
/// default; every set knob is encoded into [`policy_spec_key`] so
/// variants can never collide in reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimTune {
    /// Cluster size including the server (§5 default: 200).
    pub cluster_nodes: Option<usize>,
    /// Messaging-domain send slots per node pair `S` (§4.2).
    pub send_slots_per_node: Option<usize>,
    /// On-chip MTU in bytes (Table 1 default: 64 B).
    pub mtu_bytes: Option<u64>,
    /// Request payload size in bytes (§5 default: 64 B).
    pub request_bytes: Option<u64>,
    /// Shinjuku-style preemption — the §7 extension study's axis.
    pub preemption: Option<PreemptionParams>,
    /// Software-*emulated* messaging (§3.3): each remote source is
    /// pinned to one core by the memory location its RPCs land in, i.e.
    /// per-flow instead of per-message assignment (sets
    /// [`rpcvalet::SystemConfig::rss_per_flow`]).
    pub rss_per_flow: bool,
}

impl SimTune {
    /// The key suffix encoding every set knob (empty when nothing is
    /// overridden), e.g. `"-n8-s4"`, `"-mtu256-req1024"` or
    /// `"-perflow"`.
    pub fn key_suffix(&self) -> String {
        let mut suffix = String::new();
        if let Some(nodes) = self.cluster_nodes {
            suffix.push_str(&format!("-n{nodes}"));
        }
        if let Some(slots) = self.send_slots_per_node {
            suffix.push_str(&format!("-s{slots}"));
        }
        if let Some(mtu) = self.mtu_bytes {
            suffix.push_str(&format!("-mtu{mtu}"));
        }
        if let Some(bytes) = self.request_bytes {
            suffix.push_str(&format!("-req{bytes}"));
        }
        if let Some(p) = self.preemption {
            suffix.push_str(&format!("-preempt-q{}-o{}", p.quantum.as_ps(), p.overhead.as_ps()));
        }
        if self.rss_per_flow {
            suffix.push_str("-perflow");
        }
        suffix
    }

    /// Applies the set knobs onto a built config.
    fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(nodes) = self.cluster_nodes {
            cfg.cluster_nodes = nodes;
        }
        if let Some(slots) = self.send_slots_per_node {
            cfg.send_slots_per_node = slots;
        }
        if let Some(mtu) = self.mtu_bytes {
            cfg.chip.mtu_bytes = mtu;
        }
        if let Some(bytes) = self.request_bytes {
            cfg.request_bytes = bytes;
        }
        if let Some(preemption) = self.preemption {
            cfg.preemption = Some(preemption);
        }
        cfg.rss_per_flow |= self.rss_per_flow;
    }
}

/// The policy axis of a matrix; the variant selects the [`JobKind`].
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// A `rpcvalet` dispatch policy, run through [`ServerSim`].
    Sim(Policy),
    /// A dispatch policy with simulator knobs overridden ([`SimTune`]:
    /// send slots, MTU, payload size, cluster size, preemption,
    /// per-flow affinity). Shares the plain variant's figure label; the
    /// policy key gains one suffix per set knob.
    SimTuned {
        /// The dispatch policy.
        policy: Policy,
        /// The overridden knobs.
        tune: SimTune,
    },
    /// A theoretical Q×U configuration, run through [`QueueingModel`].
    Model(QxU),
    /// A live dispatch discipline, run over loopback TCP.
    Live(LivePolicy, LiveParams),
}

impl PolicySpec {
    /// The job kind this policy executes as.
    pub fn kind(&self) -> JobKind {
        match self {
            PolicySpec::Sim(_) | PolicySpec::SimTuned { .. } => JobKind::ServerSim,
            PolicySpec::Model(_) => JobKind::Queueing,
            PolicySpec::Live(..) => JobKind::Live,
        }
    }
}

impl From<Policy> for PolicySpec {
    fn from(p: Policy) -> Self {
        PolicySpec::Sim(p)
    }
}

impl From<QxU> for PolicySpec {
    fn from(c: QxU) -> Self {
        PolicySpec::Model(c)
    }
}

/// The unified result of one job, whichever path ran it.
///
/// For queueing jobs, `load_balance_jain` is 1.0 (the model splits
/// arrivals uniformly by construction) and `flow_control_deferrals` is 0
/// (models have no send slots).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Figure-legend label of the policy (e.g. `"1x16"`, `"replenish"`).
    pub label: String,
    /// Achieved throughput over the measurement window (requests/s).
    pub throughput_rps: f64,
    /// Mean latency (ns).
    pub mean_latency_ns: f64,
    /// Median latency (ns).
    pub p50_latency_ns: f64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// p99 of the latency-critical class (equals `p99_latency_ns` when
    /// the workload defines no class split).
    pub p99_critical_ns: f64,
    /// Completions measured after warm-up.
    pub measured: u64,
    /// Mean measured service time S̄ (ns).
    pub mean_service_ns: f64,
    /// Jain fairness index over per-core/worker completions.
    pub load_balance_jain: f64,
    /// Arrivals deferred by send-slot flow control.
    pub flow_control_deferrals: u64,
    /// Simulator events popped (0 for live jobs, which have no event
    /// loop). Recorded in the timing sidecar, never in the report.
    pub sim_events: u64,
    /// Always 0: the simulator's event calendars have no overflow path.
    /// The field stays while the benchmark reads it; it is never part of
    /// the comparable report.
    pub queue_overflow_pushes: u64,
    /// Always 0, like [`Measurement::queue_overflow_pushes`].
    pub queue_overflow_migrations: u64,
    /// Peak shared-CQ depth across dispatchers (sim jobs; 0 otherwise).
    pub dispatcher_high_water: usize,
    /// Preemption events (sim jobs with preemption; 0 otherwise).
    pub preemptions: u64,
    /// Trace events lost to a full live ring during this job (always 0
    /// for sim/model jobs — the simulator's trace log is sized to the
    /// capture). Like `sim_events`, never serialized into the report:
    /// it is a capture-health indicator, not a measurement.
    pub trace_dropped: u64,
    /// Mean per-component latency decomposition (§4.2/§4.3 pipeline).
    /// `Some` only for sim jobs run with a matrix-level
    /// [`ScenarioMatrix::trace`] capacity — the `latency_breakdown` /
    /// `fig6` channel.
    pub breakdown: Option<LatencyBreakdown>,
}

/// Everything one observed job run produces
/// ([`ExperimentSpec::run_observed_series`]): the measurement plus the
/// request-lifecycle trace events it captured.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The job's measurement — byte-identical to what
    /// [`ExperimentSpec::run`] returns (live jobs excepted; they measure
    /// wall clock).
    pub measurement: Measurement,
    /// Captured hop events, request ids namespaced by the caller's
    /// `req_base` (empty when `capture` was 0).
    pub events: Vec<TraceEvent>,
    /// Events lost to a full live trace ring (always 0 for sim jobs:
    /// the simulator's trace log is sized to the capture).
    pub dropped: u64,
    /// Windowed telemetry series (`None` unless the run asked for one
    /// via [`ExperimentSpec::run_observed_series`]; always `None` for
    /// model jobs, which have no timeline).
    pub series: Option<telemetry::JobSeries>,
}

/// One fully specified experiment to run: the unit of work the harness
/// dispatcher hands to worker threads.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// The workload.
    pub workload: WorkloadSpec,
    /// The policy under test (also selects the [`JobKind`]).
    pub policy: PolicySpec,
    /// Offered load: requests/second for [`JobKind::ServerSim`], a
    /// fraction of capacity for [`JobKind::Queueing`] and
    /// [`JobKind::Live`].
    pub rate_rps: f64,
    /// Arrivals to simulate/send.
    pub requests: u64,
    /// Warm-up completions to discard.
    pub warmup: u64,
    /// The job's fully derived RNG seed. Depends only on the matrix's
    /// master seed, the load-point index, and the replication index —
    /// never on worker scheduling — so parallel runs are bit-identical to
    /// sequential ones.
    pub seed: u64,
    /// Replication index (0 = the legacy-seeded run).
    pub replication: usize,
    /// Chip override for sim jobs (`None` = the Table 1 default chip);
    /// lets matrices sweep e.g. the 64-core scale-up of §4.3.
    pub chip: Option<ChipParams>,
    /// Per-request timeline traces to keep for sim jobs (0 = tracing
    /// off). When on, [`Measurement::breakdown`] carries the
    /// per-component latency means.
    pub trace_capacity: usize,
}

impl ExperimentSpec {
    /// The execution path this job takes.
    pub fn kind(&self) -> JobKind {
        self.policy.kind()
    }

    /// The simulator configuration a ServerSim-kind job runs: the §5
    /// scenario config for named workloads, or the builder defaults
    /// around the bare distribution for `Service` workloads (what the
    /// sensitivity sweeps and `latency_breakdown` use), with the policy
    /// variant's overrides applied on top.
    ///
    /// # Panics
    /// Panics when `self.policy` is not a ServerSim-kind variant.
    pub fn sim_config(&self) -> SystemConfig {
        let (policy, tune) = match &self.policy {
            PolicySpec::Sim(p) => (p.clone(), None),
            PolicySpec::SimTuned { policy, tune } => (policy.clone(), Some(tune)),
            other => panic!("not a ServerSim policy: {other:?}"),
        };
        let mut cfg = match &self.workload {
            WorkloadSpec::Named(workload) => {
                scenario_config(*workload, policy, self.rate_rps, self.seed)
            }
            WorkloadSpec::Service { dist, .. } => SystemConfig::builder()
                .policy(policy)
                .service(dist.clone())
                .rate_rps(self.rate_rps)
                .seed(self.seed)
                .build(),
            // Replay: the schedule supplies arrivals/sources/services, so
            // the generator knobs (rate, service dist) are informational.
            WorkloadSpec::Trace { schedule, .. } => SystemConfig::builder()
                .policy(policy)
                .service(self.workload.service_dist())
                .rate_rps(schedule.implied_rate_rps())
                .seed(self.seed)
                .requests(self.requests)
                .warmup(self.warmup)
                .schedule(Arc::clone(schedule))
                .build(),
        };
        cfg.requests = self.requests;
        cfg.warmup = self.warmup;
        cfg.trace_capacity = self.trace_capacity;
        if let Some(chip) = &self.chip {
            cfg.chip = chip.clone();
        }
        if let Some(tune) = tune {
            tune.apply(&mut cfg);
        }
        cfg
    }

    /// The run a Live-kind job drives: its [`LiveParams`] (cluster plan
    /// included) at this job's load, request count, service profile and
    /// seed — untraced and unwindowed.
    ///
    /// # Panics
    /// Panics when `self.policy` is not a Live-kind variant.
    pub fn live_config(&self) -> LiveRunConfig {
        let PolicySpec::Live(policy, params) = &self.policy else {
            panic!("not a live policy: {:?}", self.policy);
        };
        LiveRunConfig {
            cluster: params.cluster,
            ..LiveRunConfig::new(*policy)
                .workers(params.workers)
                .burn(params.burn)
                .connections(params.connections)
                .requests(self.requests, self.warmup)
                .load(self.rate_rps)
                .service(self.workload.service_dist())
                .scale(params.scale)
                .seed(self.seed)
        }
    }

    /// Runs the job to completion on the calling thread.
    ///
    /// # Panics
    /// Panics on invalid combinations and on live I/O failures — both
    /// mean the matrix itself is broken, not the job.
    pub fn run(&self) -> Measurement {
        self.run_observed_series(0, 0, 0).measurement
    }

    /// [`ExperimentSpec::run`], with unified request-lifecycle tracing:
    /// also returns the first `capture` requests' hop events
    /// (`req_base | request-id` namespaces them in multi-job stores).
    ///
    /// The measurement is **byte-identical** to [`ExperimentSpec::run`]
    /// for sim and model jobs at any `capture`: sim jobs enlarge the
    /// trace ring to `max(trace_capacity, capture)` — the simulator's
    /// event flow never consults the ring — and
    /// [`Measurement::breakdown`] is still computed over the first
    /// `trace_capacity` completions only. Live jobs measure wall clock
    /// and are exempt (tracing on also folds nothing extra in: the
    /// `STATS` snapshot is always queried).
    ///
    /// With `series_interval_ps > 0` (0 records none) the run also
    /// records a windowed telemetry series. Sim jobs sample off
    /// simulated time at the top of the event loop — the measurement
    /// stays byte-identical to the unwindowed run for any thread count.
    /// Live jobs window both sides: the server runs a metrics sampler and
    /// the load generator buckets client-side latency; the returned
    /// series is the client-side one (the paper's measurement
    /// convention). Model jobs have no timeline and return `None`.
    ///
    /// # Panics
    /// Same contract as [`ExperimentSpec::run`].
    pub fn run_observed_series(
        &self,
        capture: usize,
        req_base: u64,
        series_interval_ps: u64,
    ) -> ObservedRun {
        match &self.policy {
            PolicySpec::Sim(_) | PolicySpec::SimTuned { .. } => {
                let baked = self.trace_capacity;
                let mut cfg = self.sim_config();
                cfg.trace_capacity = baked.max(capture);
                if series_interval_ps > 0 {
                    cfg.series_interval = Some(SimDuration::from_ps(series_interval_ps));
                }
                let mut r = ServerSim::new(cfg).run();
                let series = r.series.take();
                let mut events = Vec::new();
                for trace in r.traces.records().iter().take(capture) {
                    trace.append_events(req_base | trace.req, &mut events);
                }
                let measurement = Measurement {
                    label: r.label,
                    throughput_rps: r.throughput_rps,
                    mean_latency_ns: r.mean_latency_ns,
                    p50_latency_ns: r.p50_latency_ns,
                    p99_latency_ns: r.p99_latency_ns,
                    p99_critical_ns: r.p99_critical_ns,
                    measured: r.measured,
                    mean_service_ns: r.mean_service_ns,
                    load_balance_jain: r.load_balance_jain,
                    flow_control_deferrals: r.flow_control_deferrals,
                    sim_events: r.events_processed,
                    queue_overflow_pushes: 0,
                    queue_overflow_migrations: 0,
                    dispatcher_high_water: r.dispatcher_high_water,
                    preemptions: r.preemptions,
                    trace_dropped: 0,
                    breakdown: (baked > 0).then(|| {
                        LatencyBreakdown::from_means(r.traces.component_means_first_ns(baked))
                    }),
                };
                ObservedRun {
                    measurement,
                    events,
                    dropped: 0,
                    series,
                }
            }
            PolicySpec::Model(config) => {
                let model = QueueingModel::new(*config, self.workload.service_dist());
                let r = model.run(&RunParams {
                    load: self.rate_rps,
                    requests: self.requests,
                    warmup: self.warmup,
                    seed: self.seed,
                });
                // The Q×U model has no hop pipeline to trace: arrival
                // *is* dispatch. Observed runs return no events.
                let measurement = Measurement {
                    label: config.label(),
                    throughput_rps: r.throughput_rps,
                    mean_latency_ns: r.sojourn.mean_ns(),
                    p50_latency_ns: r.p50_sojourn_ns,
                    p99_latency_ns: r.p99_sojourn_ns,
                    p99_critical_ns: r.p99_sojourn_ns,
                    measured: r.measured,
                    mean_service_ns: r.mean_service_ns,
                    load_balance_jain: 1.0,
                    flow_control_deferrals: 0,
                    sim_events: r.events,
                    queue_overflow_pushes: 0,
                    queue_overflow_migrations: 0,
                    dispatcher_high_water: 0,
                    preemptions: 0,
                    trace_dropped: 0,
                    breakdown: None,
                };
                ObservedRun {
                    measurement,
                    events: Vec::new(),
                    dropped: 0,
                    series: None,
                }
            }
            PolicySpec::Live(policy, params) => {
                let config = self
                    .live_config()
                    .trace_requests(capture as u64)
                    .series_interval((series_interval_ps > 0).then(|| {
                        std::time::Duration::from_nanos((series_interval_ps / 1_000).max(1))
                    }));
                let mut label = policy.label(params.workers);
                // One client drives every live job, so every job is held
                // to the accounting identity; redirect frames land in
                // `flow_control_deferrals` (the live analogue of send-slot
                // deferrals: arrivals the tier made the client re-route).
                let (mut events, mut dropped) = (Vec::new(), 0);
                let run = match params.cluster {
                    Some(plan) => {
                        label = format!("{label}-c{}{}", plan.nodes, plan.failure.key_suffix());
                        live::cluster::run_cluster(&config)
                            .unwrap_or_else(|e| panic!("live cluster job failed: {e}"))
                    }
                    // One server is a one-node cluster with no failure plan.
                    None => {
                        let o = live::run_loopback_observed(&config)
                            .unwrap_or_else(|e| panic!("live loopback job failed: {e}"));
                        (events, dropped) = (o.events, o.dropped);
                        live::ClusterOutcome {
                            stats: o.stats,
                            accounting: o.accounting,
                            redirects: o.redirects,
                            node_stats: vec![o.server],
                        }
                    }
                };
                run.accounting.assert_balanced(&format!("live job {label}"));
                let measurement = Measurement {
                    label,
                    throughput_rps: run.stats.throughput_rps,
                    mean_latency_ns: run.stats.mean_latency_ns,
                    p50_latency_ns: run.stats.p50_latency_ns,
                    p99_latency_ns: run.stats.p99_latency_ns,
                    p99_critical_ns: run.stats.p99_latency_ns,
                    measured: run.stats.measured,
                    mean_service_ns: run.stats.mean_service_ns,
                    load_balance_jain: run.stats.load_balance_jain,
                    flow_control_deferrals: run.redirects,
                    sim_events: 0,
                    queue_overflow_pushes: 0,
                    queue_overflow_migrations: 0,
                    // The live analogue of the sim's peak shared-CQ depth:
                    // each server's own high-water gauge (requests
                    // waiting, or workers parked idle, whichever side
                    // of the match ran deeper), from its `STATS`
                    // snapshot; the worst node's for a cluster.
                    dispatcher_high_water: run
                        .node_stats
                        .iter()
                        .map(|s| s.queue_high_water.max(s.ring_high_water))
                        .max()
                        .unwrap_or(0) as usize,
                    preemptions: 0,
                    trace_dropped: run
                        .node_stats
                        .iter()
                        .map(|s| s.trace_dropped)
                        .fold(dropped, u64::max),
                    breakdown: None,
                };
                if req_base != 0 {
                    for event in &mut events {
                        event.req |= req_base;
                    }
                }
                ObservedRun {
                    measurement,
                    events,
                    dropped,
                    series: run.stats.series,
                }
            }
        }
    }

    /// A grouping key that, unlike the figure label, distinguishes policy
    /// variants sharing a label (e.g. 1×16 at outstanding threshold 1 vs
    /// 2 in the §4.3 ablation, the model 1×16 vs the simulated 1×16, or
    /// software baselines with different MCS lock timings).
    pub fn policy_key(&self) -> String {
        policy_spec_key(&self.policy)
    }
}

/// The unique grouping key for a simulated policy (see
/// [`ExperimentSpec::policy_key`]).
pub fn policy_key(policy: &Policy) -> String {
    match policy {
        Policy::HwSingleQueue {
            outstanding_per_core,
        } => format!("hw-single-t{outstanding_per_core}"),
        Policy::HwPartitioned {
            outstanding_per_core,
        } => format!("hw-partitioned-t{outstanding_per_core}"),
        Policy::HwStatic => "hw-static".to_owned(),
        Policy::SwSingleQueue { lock } => format!(
            "sw-single-a{}-h{}-c{}",
            lock.acquire_uncontended.as_ps(),
            lock.handoff.as_ps(),
            lock.critical_section.as_ps()
        ),
    }
}

/// The unique grouping key for any policy spec.
///
/// Keys are collision-proof across variants *and* stable: a spec that
/// existed before the sensitivity-knob variants keeps its exact v2 key
/// (regenerated reports stay comparable against each other group for
/// group), and every new knob appends its own suffix so
/// no two distinct specs can share a key. (The v3 *envelope* is not
/// parseable-compatible with v2 files — the offline serde stand-in has
/// no `#[serde(default)]` — so v2 report files themselves must be
/// regenerated once; their measurement values come back bit-identical.)
pub fn policy_spec_key(policy: &PolicySpec) -> String {
    match policy {
        PolicySpec::Sim(p) => policy_key(p),
        PolicySpec::SimTuned { policy, tune } => {
            let suffix = tune.key_suffix();
            if suffix.is_empty() {
                // An all-default tune runs identically to the plain
                // variant but is still a distinct spec; without a
                // suffix the two would share a key and their report
                // groups would merge.
                format!("{}-tuned", policy_key(policy))
            } else {
                format!("{}{suffix}", policy_key(policy))
            }
        }
        PolicySpec::Model(c) => format!("model-{}", c.label()),
        PolicySpec::Live(p, params) => {
            let mut key = p.key();
            if let Some(plan) = params.cluster {
                // Node count + failure mode; single-node keys (the
                // pinned v2 set) are untouched because `cluster` is
                // `None` for them.
                key.push_str(&format!("-c{}{}", plan.nodes, plan.failure.key_suffix()));
            }
            key
        }
    }
}

/// How a matrix picks its offered-load grid.
#[derive(Debug, Clone)]
pub enum RateGrid {
    /// One explicit grid shared by every workload.
    Shared(Vec<f64>),
    /// Each workload sweeps its own
    /// [`Workload::default_rate_grid`] (10 points to ~capacity).
    WorkloadDefault,
}

/// How a matrix derives per-job seeds from its master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// `split_seed(master, load-point index)` — the paired-seed
    /// convention of the legacy sweep loops (every policy sees the same
    /// seed at the same point index).
    #[default]
    PerPoint,
    /// Every job gets the master seed verbatim — what the hand-rolled
    /// parameter sweeps (`latency_breakdown`, `ablation_sensitivity`)
    /// always did: the axis under study is a config knob, not the load,
    /// so all points share one arrival stream.
    Fixed,
}

/// A cartesian experiment matrix: workloads × policies × load points ×
/// replications, expanded in a deterministic order.
///
/// # Example
/// ```
/// use harness::{RateGrid, ScenarioMatrix};
/// use rpcvalet::Policy;
/// use workloads::Workload;
///
/// let matrix = ScenarioMatrix::new("demo", 71)
///     .workloads(vec![Workload::Herd])
///     .policies(vec![Policy::hw_static(), Policy::hw_single_queue()])
///     .rates(RateGrid::Shared(vec![2.0e6, 8.0e6]))
///     .requests(20_000, 2_000);
/// let jobs = matrix.jobs();
/// assert_eq!(jobs.len(), 4);
/// // The same load-point index gets the same seed across policies
/// // (paired common random numbers, as the figure binaries always did).
/// assert_eq!(jobs[0].seed, jobs[2].seed);
/// assert_ne!(jobs[0].seed, jobs[1].seed);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Name recorded in reports (e.g. `"fig7a"`).
    pub name: String,
    /// The owning scenario's registry name, recorded in report headers
    /// (defaults to the matrix name for standalone matrices).
    pub scenario: String,
    /// Workloads to sweep.
    pub workloads: Vec<WorkloadSpec>,
    /// Policies to compare.
    pub policies: Vec<PolicySpec>,
    /// The load grid.
    pub rates: RateGrid,
    /// Arrivals per job.
    pub requests: u64,
    /// Warm-up completions per job.
    pub warmup: u64,
    /// Master seed; per-job seeds derive from it.
    pub master_seed: u64,
    /// How per-job seeds derive from the master seed.
    pub seed_mode: SeedMode,
    /// Independent repetitions per operating point (≥ 1).
    pub replications: usize,
    /// Chip override applied to every sim job (`None` = Table 1 chip).
    pub chip: Option<ChipParams>,
    /// Per-request timeline traces per sim job (0 = off); enables
    /// [`Measurement::breakdown`].
    pub trace_capacity: usize,
}

impl ScenarioMatrix {
    /// Starts a matrix with defaults: no workloads/policies yet, the
    /// workload-default rate grid, 100 k requests with 10 % warm-up, one
    /// replication.
    pub fn new(name: impl Into<String>, master_seed: u64) -> Self {
        let name = name.into();
        ScenarioMatrix {
            scenario: name.clone(),
            name,
            workloads: Vec::new(),
            policies: Vec::new(),
            rates: RateGrid::WorkloadDefault,
            requests: 100_000,
            warmup: 10_000,
            master_seed,
            seed_mode: SeedMode::PerPoint,
            replications: 1,
            chip: None,
            trace_capacity: 0,
        }
    }

    /// Overrides the chip for every sim job (e.g. the 64-core §4.3
    /// scale-up).
    pub fn chip(mut self, chip: ChipParams) -> Self {
        self.chip = Some(chip);
        self
    }

    /// Tags the matrix with its owning scenario's registry name.
    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = scenario.into();
        self
    }

    /// Gives every job the master seed verbatim ([`SeedMode::Fixed`]).
    pub fn fixed_seed(mut self) -> Self {
        self.seed_mode = SeedMode::Fixed;
        self
    }

    /// Keeps per-request timeline traces for the first `capacity`
    /// measured requests of every sim job (fills
    /// [`Measurement::breakdown`]).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the workloads from named workload families.
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads.into_iter().map(WorkloadSpec::Named).collect();
        self
    }

    /// Sets the workloads from raw `(label, service distribution)` pairs
    /// (the queueing figures' axis).
    pub fn service_workloads(mut self, services: Vec<(String, ServiceDist)>) -> Self {
        self.workloads = services
            .into_iter()
            .map(|(label, dist)| WorkloadSpec::Service { label, dist })
            .collect();
        self
    }

    /// Sets the policies from simulated dispatch policies.
    pub fn policies(mut self, policies: Vec<Policy>) -> Self {
        self.policies = policies.into_iter().map(PolicySpec::Sim).collect();
        self
    }

    /// Sets the policies from theoretical Q×U configurations
    /// ([`JobKind::Queueing`]).
    pub fn model_policies(mut self, configs: Vec<QxU>) -> Self {
        self.policies = configs.into_iter().map(PolicySpec::Model).collect();
        self
    }

    /// Sets the policies from live dispatch disciplines sharing one
    /// [`LiveParams`] shape ([`JobKind::Live`]).
    pub fn live_policies(mut self, policies: Vec<LivePolicy>, params: LiveParams) -> Self {
        self.policies = policies
            .into_iter()
            .map(|p| PolicySpec::Live(p, params.clone()))
            .collect();
        self
    }

    /// Sets fully explicit policy specs (mixing kinds is allowed).
    pub fn policy_specs(mut self, policies: Vec<PolicySpec>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the rate grid.
    pub fn rates(mut self, rates: RateGrid) -> Self {
        self.rates = rates;
        self
    }

    /// Sets per-job request and warm-up counts.
    pub fn requests(mut self, requests: u64, warmup: u64) -> Self {
        self.requests = requests;
        self.warmup = warmup;
        self
    }

    /// Sets the replication count.
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Scales request/warm-up counts down for smoke runs (the figure
    /// binaries' `--quick` flag). A matrix of live jobs only keeps its
    /// size: live matrices are already tiny (real wall-clock seconds per
    /// job), and the 5 000-request floor would inflate them.
    pub fn quick(mut self) -> Self {
        if self.policies.iter().all(|p| p.kind() == JobKind::Live) {
            return self;
        }
        self.requests = (self.requests / 8).max(5_000);
        self.warmup = self.requests / 10;
        self
    }

    /// The rate grid for one workload.
    ///
    /// # Panics
    /// Panics when the matrix uses [`RateGrid::WorkloadDefault`] and the
    /// workload is a bare service distribution (no capacity is defined
    /// for it — give the matrix an explicit shared grid).
    pub fn grid_for(&self, workload: &WorkloadSpec) -> Vec<f64> {
        match &self.rates {
            RateGrid::Shared(rates) => rates.clone(),
            RateGrid::WorkloadDefault => workload
                .named()
                .unwrap_or_else(|| {
                    panic!(
                        "workload `{}` has no default rate grid; use RateGrid::Shared",
                        workload.label()
                    )
                })
                .default_rate_grid(),
        }
    }

    /// Expands the cartesian product into the deterministic job list.
    ///
    /// Expansion order is workload-major, then policy, then load point,
    /// then replication. Seeds depend only on `(master_seed, load-point
    /// index, replication)`: every policy and workload sees the same seed
    /// at the same load-point index — the paired-seed convention the
    /// sequential figure binaries used (`split_seed(seed, i)` per sweep
    /// point), so replication 0 reproduces their runs exactly.
    ///
    /// # Panics
    /// Panics if the matrix has no workloads, no policies, an empty
    /// shared grid, or `warmup ≥ requests`.
    pub fn jobs(&self) -> Vec<ExperimentSpec> {
        assert!(!self.workloads.is_empty(), "matrix needs at least one workload");
        assert!(!self.policies.is_empty(), "matrix needs at least one policy");
        assert!(
            self.warmup < self.requests,
            "warmup ({}) must be below requests ({})",
            self.warmup,
            self.requests
        );
        if let RateGrid::Shared(rates) = &self.rates {
            assert!(!rates.is_empty(), "shared rate grid must not be empty");
        }
        let mut jobs = Vec::new();
        for workload in &self.workloads {
            let grid = self.grid_for(workload);
            for policy in &self.policies {
                for (point_idx, &rate_rps) in grid.iter().enumerate() {
                    for rep in 0..self.replications {
                        jobs.push(ExperimentSpec {
                            workload: workload.clone(),
                            policy: policy.clone(),
                            rate_rps,
                            requests: self.requests,
                            warmup: self.warmup,
                            seed: self.job_seed(point_idx, rep),
                            replication: rep,
                            chip: self.chip.clone(),
                            trace_capacity: self.trace_capacity,
                        });
                    }
                }
            }
        }
        jobs
    }

    /// The seed for (load-point index, replication).
    pub fn job_seed(&self, point_idx: usize, replication: usize) -> u64 {
        let base = if replication == 0 {
            self.master_seed
        } else {
            split_seed(self.master_seed, REPLICATION_SEED_TAG + replication as u64)
        };
        match self.seed_mode {
            SeedMode::PerPoint => split_seed(base, point_idx as u64),
            SeedMode::Fixed => base,
        }
    }

    /// Looks up a predefined matrix by name at full paper resolution.
    ///
    /// The definitions are shared with the scenario catalog (`fig2`,
    /// `fig7`, `fig8`, `ablation_outstanding` resolve their matrices
    /// here), so `--matrix` runs reproduce the scenarios' numbers
    /// exactly — same seeds, grids, and request counts.
    ///
    /// | name | kind | contents |
    /// |---|---|---|
    /// | `fig2a` | queueing | five Q×U configurations × normalized exponential service (Fig. 2a) |
    /// | `fig2b` | queueing | model 1×16 × four normalized service distributions (Fig. 2b) |
    /// | `fig2c` | queueing | model 16×1 × the same four distributions (Fig. 2c) |
    /// | `fig6` | sim | the Fig. 6 workload families (4 synthetics, HERD, Masstree) under RPCValet's 1×16, each over its default load grid |
    /// | `fig7a` | sim | HERD × the three hardware policies (Fig. 7a) |
    /// | `fig7b` | sim | Masstree × the three hardware policies, with extra low-rate points to resolve the 16×1 SLO violation (Fig. 7b) |
    /// | `fig7c` | sim | synthetic fixed + GEV × the three hardware policies (Fig. 7c) |
    /// | `fig8` | sim | the four synthetic families × hardware vs software 1×16 (Fig. 8) |
    /// | `ablation_outstanding` | sim | HERD + synthetic-fixed × outstanding-per-core 1 vs 2 (§4.3/§6.1) |
    /// | `ablation_dispatcher` | sim | synthetic exponential × 1×16 at near-/at-saturation rates on the 16-core Table 1 chip (§4.3 dispatcher headroom; the binary adds a 64-core matrix via [`ScenarioMatrix::chip`]) |
    /// | `ablation_preemption` | sim | Masstree × the three hardware policies, plain vs Shinjuku-preempted (§7), at 2 and 4 Mrps |
    /// | `ablation_emulated` | sim | §3.3 emulated messaging: per-message 16×1 vs per-flow affinity ([`SimTune::rss_per_flow`]) over a 10-point rate grid |
    /// | `latency_breakdown` | sim | exp-600 ns service × the three hardware policies at 20/50/80 % load, traced ([`ScenarioMatrix::trace`]) for the per-component means |
    /// | `sens_slots` | sim | send slots S ∈ {1…32} on the policy axis ([`PolicySpec::SimTuned`]), 8-node cluster at 18 Mrps |
    /// | `sens_mtu` | sim | MTU ∈ {64…4096} B × 1 KB requests at light load |
    /// | `sens_mcs` | sim | software 1×16 × MCS handoff ∈ {30…250} ns at 12 Mrps |
    /// | `sens_threshold` | sim | outstanding-per-core ∈ {1,2,4,8} at 17 Mrps |
    /// | `sens_live` | live | partitioned group counts {1,2} beside replenish over loopback TCP (the live sensitivity knob) |
    /// | `live_smoke` | live | exponential service × single-queue/RSS/replenish over loopback TCP, 2 sleep-burn workers |
    /// | `live_cluster` | live | 3-node cluster behind the client-side balancer with a mid-run flow migration, × single-queue/partitioned/RSS |
    /// | `live_churn` | live | 2-node cluster under a reconnect storm (half the flows severed twice mid-run), × single-queue/partitioned/RSS |
    /// | `live_drain` | live | 3-node cluster where one node drains, restarts, and rejoins mid-run with zero lost requests, × single-queue/partitioned/RSS |
    pub fn named(name: &str) -> Option<ScenarioMatrix> {
        NAMED_MATRICES
            .iter()
            .find(|&&(known, ..)| known == name)
            .map(|&(name, seed, build)| build(ScenarioMatrix::new(name, seed)))
    }

    /// Names accepted by [`ScenarioMatrix::named`], in table order.
    pub fn known_names() -> Vec<&'static str> {
        NAMED_MATRICES.iter().map(|&(name, ..)| name).collect()
    }
}

/// The `sens_slots` grid: send slots per node pair.
pub(crate) const SENS_SLOTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// The `sens_mtu` grid: on-chip MTUs in bytes.
pub(crate) const SENS_MTUS: [u64; 4] = [64, 256, 1024, 4096];
/// The `sens_mcs` grid: MCS lock handoff latencies in ns.
pub(crate) const SENS_HANDOFFS_NS: [u64; 5] = [30, 60, 90, 150, 250];
/// The `sens_threshold` grid: outstanding requests per core.
pub(crate) const SENS_THRESHOLDS: [u32; 4] = [1, 2, 4, 8];

/// Shapes a fresh `ScenarioMatrix::new(name, seed)` into a predefined
/// matrix.
type Build = fn(ScenarioMatrix) -> ScenarioMatrix;

/// Every predefined matrix as `(name, master seed, builder)`: the one
/// table behind both [`ScenarioMatrix::named`] and
/// [`ScenarioMatrix::known_names`].
const NAMED_MATRICES: &[(&str, u64, Build)] = &[
    ("fig2a", 2019, |m| {
        m.service_workloads(fig2_services(&[SyntheticKind::Exponential]))
            .model_policies(QxU::FIG2A_CONFIGS.to_vec())
            .rates(fig2_loads())
            .requests(400_000, 40_000)
    }),
    ("fig2b", 2019, |m| {
        m.service_workloads(fig2_services(&SyntheticKind::ALL))
            .model_policies(vec![QxU::SINGLE_16])
            .rates(fig2_loads())
            .requests(400_000, 40_000)
    }),
    ("fig2c", 2019, |m| {
        m.service_workloads(fig2_services(&SyntheticKind::ALL))
            .model_policies(vec![QxU::PARTITIONED_16])
            .rates(fig2_loads())
            .requests(400_000, 40_000)
    }),
    ("fig6", 66, |m| {
        m.workloads(vec![
            Workload::Synthetic(SyntheticKind::Fixed),
            Workload::Synthetic(SyntheticKind::Uniform),
            Workload::Synthetic(SyntheticKind::Exponential),
            Workload::Synthetic(SyntheticKind::Gev),
            Workload::Herd,
            Workload::Masstree,
        ])
        .policies(vec![Policy::hw_single_queue()])
        .requests(100_000, 10_000)
    }),
    ("fig7a", 71, |m| {
        m.workloads(vec![Workload::Herd])
            .policies(hw_policies())
            .requests(250_000, 25_000)
    }),
    ("fig7b", 72, |m| {
        m.workloads(vec![Workload::Masstree])
            .policies(hw_policies())
            .rates(RateGrid::Shared(
                (1..=13).map(|i| i as f64 * 0.5e6).collect(),
            ))
            .requests(250_000, 25_000)
    }),
    ("fig7c", 73, |m| {
        m.workloads(vec![
            Workload::Synthetic(SyntheticKind::Fixed),
            Workload::Synthetic(SyntheticKind::Gev),
        ])
        .policies(hw_policies())
        .requests(250_000, 25_000)
    }),
    ("fig8", 88, |m| {
        m.workloads(
            SyntheticKind::ALL
                .iter()
                .map(|&k| Workload::Synthetic(k))
                .collect(),
        )
        .policies(vec![Policy::hw_single_queue(), Policy::sw_single_queue()])
        .rates(RateGrid::Shared(
            (1..=14).map(|i| i as f64 * 1.4e6).collect(),
        ))
        .requests(250_000, 25_000)
    }),
    ("ablation_outstanding", 95, |m| {
        m.workloads(vec![
            Workload::Herd,
            Workload::Synthetic(SyntheticKind::Fixed),
        ])
        .policies(vec![
            Policy::HwSingleQueue {
                outstanding_per_core: 1,
            },
            Policy::HwSingleQueue {
                outstanding_per_core: 2,
            },
        ])
        .requests(250_000, 25_000)
    }),
    ("ablation_dispatcher", 96, |m| {
        m.workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .policies(vec![Policy::hw_single_queue()])
            .rates(RateGrid::Shared(vec![10.0e6, 18.0e6]))
            .requests(150_000, 15_000)
    }),
    ("ablation_preemption", 77, |m| {
        m.workloads(vec![Workload::Masstree])
            .policy_specs(
                hw_policies()
                    .into_iter()
                    .flat_map(|p| {
                        [
                            PolicySpec::Sim(p.clone()),
                            PolicySpec::SimTuned {
                                policy: p,
                                tune: SimTune {
                                    preemption: Some(PreemptionParams::shinjuku_5us()),
                                    ..SimTune::default()
                                },
                            },
                        ]
                    })
                    .collect(),
            )
            .rates(RateGrid::Shared(vec![2.0e6, 4.0e6]))
            .requests(200_000, 20_000)
    }),
    ("ablation_emulated", 78, |m| {
        m.workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .policy_specs(vec![
                PolicySpec::Sim(Policy::hw_static()),
                PolicySpec::SimTuned {
                    policy: Policy::hw_static(),
                    tune: SimTune {
                        rss_per_flow: true,
                        ..SimTune::default()
                    },
                },
            ])
            .rates(RateGrid::Shared(
                (1..=10).map(|i| i as f64 * 1.95e6).collect(),
            ))
            .requests(250_000, 25_000)
    }),
    ("latency_breakdown", 111, |m| {
        m.service_workloads(vec![(
            "exp600".to_owned(),
            ServiceDist::exponential_mean_ns(600.0),
        )])
        .policies(vec![
            Policy::hw_single_queue(),
            Policy::hw_partitioned(),
            Policy::hw_static(),
        ])
        .rates(RateGrid::Shared(
            [20u32, 50, 80]
                .iter()
                .map(|&pct| pct as f64 / 100.0 * 19.5e6)
                .collect(),
        ))
        .requests(100_000, 10_000)
        .fixed_seed()
        .trace(50_000)
    }),
    ("sens_slots", 101, |m| {
        m.service_workloads(vec![(
            "exp600".to_owned(),
            ServiceDist::exponential_mean_ns(600.0),
        )])
        .policy_specs(
            SENS_SLOTS
                .iter()
                .map(|&slots| PolicySpec::SimTuned {
                    policy: Policy::hw_single_queue(),
                    tune: SimTune {
                        send_slots_per_node: Some(slots),
                        cluster_nodes: Some(8),
                        ..SimTune::default()
                    },
                })
                .collect(),
        )
        .rates(RateGrid::Shared(vec![18.0e6]))
        .requests(120_000, 12_000)
        .fixed_seed()
    }),
    ("sens_mtu", 102, |m| {
        m.service_workloads(vec![(
            "fixed600".to_owned(),
            ServiceDist::fixed_ns(600.0),
        )])
        .policy_specs(
            SENS_MTUS
                .iter()
                .map(|&mtu| PolicySpec::SimTuned {
                    policy: Policy::hw_single_queue(),
                    tune: SimTune {
                        mtu_bytes: Some(mtu),
                        request_bytes: Some(1024),
                        ..SimTune::default()
                    },
                })
                .collect(),
        )
        .rates(RateGrid::Shared(vec![1.0e6]))
        .requests(30_000, 3_000)
        .fixed_seed()
    }),
    ("sens_mcs", 103, |m| {
        m.service_workloads(vec![(
            "exp600".to_owned(),
            ServiceDist::exponential_mean_ns(600.0),
        )])
        .policies(
            SENS_HANDOFFS_NS
                .iter()
                .map(|&handoff_ns| Policy::SwSingleQueue {
                    lock: McsParams {
                        acquire_uncontended: SimDuration::from_ns(15),
                        handoff: SimDuration::from_ns(handoff_ns),
                        critical_section: SimDuration::from_ns(45),
                    },
                })
                .collect(),
        )
        .rates(RateGrid::Shared(vec![12.0e6]))
        .requests(120_000, 12_000)
        .fixed_seed()
    }),
    ("sens_threshold", 104, |m| {
        m.service_workloads(vec![(
            "exp600".to_owned(),
            ServiceDist::exponential_mean_ns(600.0),
        )])
        .policies(
            SENS_THRESHOLDS
                .iter()
                .map(|&threshold| Policy::HwSingleQueue {
                    outstanding_per_core: threshold,
                })
                .collect(),
        )
        .rates(RateGrid::Shared(vec![17.0e6]))
        .requests(120_000, 12_000)
        .fixed_seed()
    }),
    ("sens_live", 105, |m| {
        m.workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .policy_specs(vec![
                PolicySpec::Live(
                    LivePolicy::Partitioned { groups: 1 },
                    LiveParams::default(),
                ),
                PolicySpec::Live(
                    LivePolicy::Partitioned { groups: 2 },
                    LiveParams::default(),
                ),
                PolicySpec::Live(LivePolicy::Replenish, LiveParams::default()),
            ])
            .rates(RateGrid::Shared(vec![0.85]))
            .requests(1_000, 100)
    }),
    ("live_smoke", 7, |m| {
        m.workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
            .live_policies(
                vec![
                    LivePolicy::SingleQueue,
                    LivePolicy::RssStatic,
                    LivePolicy::Replenish,
                ],
                LiveParams::default(),
            )
            .rates(RateGrid::Shared(vec![0.5, 0.85]))
            .requests(1_200, 120)
    }),
    // The cluster serving tier (§6's live analogue, grown to N nodes):
    // the same policy axis as `live_smoke` — the paper's p99 ordering
    // single ≤ partitioned ≤ RSS should survive each failure mode —
    // behind the client-side balancer with a failure injected mid-run.
    // Every job asserts zero lost requests; redirect frames show up in
    // the `flow_control_deferrals` column.
    ("live_cluster", 205, |m| {
        live_cluster(m, ClusterPlan::new(3).failure(live::FailureMode::Migrate))
    }),
    ("live_churn", 206, |m| {
        live_cluster(m, ClusterPlan::new(2).failure(live::FailureMode::Churn))
    }),
    ("live_drain", 207, |m| {
        live_cluster(m, ClusterPlan::new(3).failure(live::FailureMode::Drain))
    }),
];

/// The three hardware dispatch policies, in the figures' legend order.
fn hw_policies() -> Vec<Policy> {
    vec![
        Policy::hw_static(),
        Policy::hw_partitioned(),
        Policy::hw_single_queue(),
    ]
}

/// Fig. 2's grid: loads from 5 % to 95 % in 5 % steps.
fn fig2_loads() -> RateGrid {
    RateGrid::Shared((1..=19).map(|i| i as f64 * 0.05).collect())
}

/// Fig. 2's workload axis: each kind's normalized distribution.
fn fig2_services(kinds: &[SyntheticKind]) -> Vec<(String, ServiceDist)> {
    kinds
        .iter()
        .map(|&k| (k.label().to_owned(), k.normalized()))
        .collect()
}

/// The shared shape of the three cluster scenarios (`live_cluster`,
/// `live_churn`, `live_drain`): one exponential workload, the
/// single-queue/partitioned/RSS policy axis under `plan`, 70 % of total
/// tier capacity. Only the node count, failure mode, and seed differ.
fn live_cluster(m: ScenarioMatrix, plan: ClusterPlan) -> ScenarioMatrix {
    // 4 sleep-burn workers per node so the policy axis gets distinct
    // shapes (1x4 / 2x2 / 4x1) — with the default 2, partitioned:2
    // degenerates into RSS. Sleeping workers cost no CPU, but the
    // *balancer's* send loop and the per-request reader/dispatcher work
    // are real: a 1-CPU CI box sustains ~15 krps across the whole
    // tier, so the load fraction is chosen to land under that
    // (0.35 x 12 workers / 300 µs = 14 krps), not at the paper's 0.7 —
    // an overdriven open-loop client measures its own backlog, not the
    // policies. 24 flows give every node a few flows to hash.
    let params = |cluster| LiveParams {
        workers: 4,
        connections: 24,
        cluster: Some(cluster),
        ..LiveParams::default()
    };
    m.workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
        .policy_specs(vec![
            PolicySpec::Live(LivePolicy::SingleQueue, params(plan)),
            PolicySpec::Live(LivePolicy::Partitioned { groups: 2 }, params(plan)),
            PolicySpec::Live(LivePolicy::RssStatic, params(plan)),
        ])
        .rates(RateGrid::Shared(vec![0.35]))
        .requests(6_000, 600)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioMatrix {
        ScenarioMatrix::new("t", 7)
            .workloads(vec![
                Workload::Synthetic(SyntheticKind::Fixed),
                Workload::Herd,
            ])
            .policies(vec![Policy::hw_single_queue(), Policy::hw_static()])
            .rates(RateGrid::Shared(vec![1.0e6, 2.0e6, 3.0e6]))
            .requests(1_000, 100)
    }

    #[test]
    fn cartesian_expansion_shape() {
        let jobs = tiny().jobs();
        assert_eq!(jobs.len(), 2 * 2 * 3);
        // Workload-major, policy, then rate.
        assert_eq!(
            jobs[0].workload.named(),
            Some(Workload::Synthetic(SyntheticKind::Fixed))
        );
        assert_eq!(jobs[0].rate_rps, 1.0e6);
        assert_eq!(jobs[2].rate_rps, 3.0e6);
        assert_eq!(jobs[11].workload.named(), Some(Workload::Herd));
        assert!(jobs.iter().all(|j| j.kind() == JobKind::ServerSim));
    }

    #[test]
    fn seeds_follow_legacy_sweep_convention() {
        let m = tiny();
        for (i, job) in m.jobs().iter().enumerate() {
            let point_idx = i % 3;
            assert_eq!(job.seed, split_seed(7, point_idx as u64));
        }
    }

    #[test]
    fn replications_get_fresh_seeds() {
        let m = tiny().replications(2);
        let jobs = m.jobs();
        assert_eq!(jobs.len(), 24);
        assert_eq!(jobs[0].seed, split_seed(7, 0), "rep 0 keeps legacy seeds");
        assert_eq!(jobs[0].replication, 0);
        assert_eq!(jobs[1].replication, 1);
        assert_ne!(jobs[1].seed, jobs[0].seed, "rep 1 differs");
        assert_eq!(jobs[1].seed, m.job_seed(0, 1));
    }

    #[test]
    fn named_matrices_expand() {
        for name in ScenarioMatrix::known_names() {
            let m = ScenarioMatrix::named(name).unwrap();
            assert_eq!(m.name, name);
            assert!(!m.jobs().is_empty(), "{name} expands to jobs");
        }
        assert!(ScenarioMatrix::named("fig99").is_none());
    }

    #[test]
    fn quick_scales_requests_down() {
        let m = ScenarioMatrix::named("fig7a").unwrap().quick();
        assert_eq!(m.requests, 31_250);
        assert_eq!(m.warmup, 3_125);
        // Live matrices are already tiny: `--quick` must not inflate
        // them to the 5 000-request floor.
        let live = ScenarioMatrix::named("live_smoke").unwrap().quick();
        assert_eq!((live.requests, live.warmup), (1_200, 120));
    }

    #[test]
    fn sw_policy_keys_distinguish_lock_timings() {
        use rpcvalet::McsParams;
        use simkit::SimDuration;
        let default_key = policy_key(&Policy::sw_single_queue());
        let tuned = Policy::SwSingleQueue {
            lock: McsParams {
                acquire_uncontended: SimDuration::from_ns(15),
                handoff: SimDuration::from_ns(250),
                critical_section: SimDuration::from_ns(45),
            },
        };
        assert_ne!(policy_key(&tuned), default_key);
        assert_eq!(default_key, policy_key(&Policy::sw_single_queue()));
    }

    #[test]
    fn workload_default_grid_matches_workload() {
        let m = ScenarioMatrix::new("t", 0)
            .workloads(vec![Workload::Herd])
            .policies(vec![Policy::hw_single_queue()]);
        assert_eq!(
            m.grid_for(&WorkloadSpec::Named(Workload::Herd)),
            Workload::Herd.default_rate_grid()
        );
    }

    #[test]
    #[should_panic(expected = "no default rate grid")]
    fn service_workload_needs_shared_grid() {
        ScenarioMatrix::new("t", 0)
            .service_workloads(vec![(
                "exp".to_owned(),
                ServiceDist::exponential_mean_ns(1.0),
            )])
            .model_policies(vec![QxU::SINGLE_16])
            .jobs();
    }

    #[test]
    fn queueing_jobs_run_the_model() {
        let m = ScenarioMatrix::new("q", 3)
            .service_workloads(vec![(
                "exp".to_owned(),
                ServiceDist::exponential_mean_ns(1.0),
            )])
            .model_policies(vec![QxU::SINGLE_16, QxU::PARTITIONED_16])
            .rates(RateGrid::Shared(vec![0.5, 0.8]))
            .requests(20_000, 2_000);
        let jobs = m.jobs();
        assert_eq!(jobs.len(), 4);
        assert!(jobs.iter().all(|j| j.kind() == JobKind::Queueing));
        let single = jobs[1].run(); // 1x16 at 0.8
        let part = jobs[3].run(); // 16x1 at 0.8
        assert_eq!(single.label, "1x16");
        assert_eq!(part.label, "16x1");
        assert!(
            single.p99_latency_ns < part.p99_latency_ns,
            "1x16 {} vs 16x1 {}",
            single.p99_latency_ns,
            part.p99_latency_ns
        );
        assert_eq!(single.load_balance_jain, 1.0);
    }

    #[test]
    fn queueing_job_matches_direct_model_run() {
        let spec = ExperimentSpec {
            workload: WorkloadSpec::Service {
                label: "exp".to_owned(),
                dist: ServiceDist::exponential_mean_ns(1.0),
            },
            policy: PolicySpec::Model(QxU::Q4X4),
            rate_rps: 0.7,
            requests: 15_000,
            warmup: 1_500,
            seed: 99,
            replication: 0,
            chip: None,
            trace_capacity: 0,
        };
        let via_harness = spec.run();
        let direct = QueueingModel::new(QxU::Q4X4, ServiceDist::exponential_mean_ns(1.0))
            .run(&RunParams {
                load: 0.7,
                requests: 15_000,
                warmup: 1_500,
                seed: 99,
            });
        assert_eq!(via_harness.p99_latency_ns, direct.p99_sojourn_ns);
        assert_eq!(via_harness.throughput_rps, direct.throughput_rps);
        assert_eq!(via_harness.measured, direct.measured);
    }

    #[test]
    fn kind_labels_and_keys() {
        assert_eq!(JobKind::ServerSim.label(), "sim");
        assert_eq!(JobKind::Queueing.label(), "queueing");
        assert_eq!(JobKind::Live.label(), "live");
        assert_eq!(
            policy_spec_key(&PolicySpec::Model(QxU::SINGLE_16)),
            "model-1x16"
        );
        assert_eq!(
            policy_spec_key(&PolicySpec::Live(LivePolicy::Replenish, LiveParams::default())),
            "live-replenish"
        );
    }

    #[test]
    fn fixed_seed_mode_gives_every_job_the_master_seed() {
        let m = tiny().fixed_seed();
        assert!(m.jobs().iter().all(|j| j.seed == 7));
        // Replications still diverge so they stay independent samples.
        let m = tiny().fixed_seed().replications(2);
        let jobs = m.jobs();
        assert_eq!(jobs[0].seed, 7);
        assert_ne!(jobs[1].seed, jobs[0].seed);
    }

    #[test]
    fn new_policy_variant_keys_are_distinct_and_stable() {
        let base = Policy::hw_single_queue();
        let plain = policy_spec_key(&PolicySpec::Sim(base.clone()));
        assert_eq!(plain, "hw-single-t2", "v2 keys must not drift");
        let perflow = PolicySpec::SimTuned {
            policy: Policy::hw_static(),
            tune: SimTune {
                rss_per_flow: true,
                ..SimTune::default()
            },
        };
        assert_eq!(policy_spec_key(&perflow), "hw-static-perflow");
        let tuned = |tune: SimTune| policy_spec_key(&PolicySpec::SimTuned {
            policy: base.clone(),
            tune,
        });
        assert_eq!(
            tuned(SimTune {
                send_slots_per_node: Some(4),
                cluster_nodes: Some(8),
                ..SimTune::default()
            }),
            "hw-single-t2-n8-s4"
        );
        assert_eq!(
            tuned(SimTune {
                mtu_bytes: Some(256),
                request_bytes: Some(1024),
                ..SimTune::default()
            }),
            "hw-single-t2-mtu256-req1024"
        );
        assert_eq!(
            tuned(SimTune {
                preemption: Some(PreemptionParams::shinjuku_5us()),
                ..SimTune::default()
            }),
            "hw-single-t2-preempt-q5000000-o500000"
        );
        assert_eq!(tuned(SimTune::default()), "hw-single-t2-tuned");
    }

    #[test]
    fn emulated_nic_jobs_enable_per_flow_affinity() {
        let m = ScenarioMatrix::named("ablation_emulated").unwrap();
        let jobs = m.jobs();
        assert_eq!(jobs.len(), 20);
        let per_message = &jobs[0];
        let per_flow = &jobs[10];
        assert!(!per_message.sim_config().rss_per_flow);
        assert!(per_flow.sim_config().rss_per_flow);
        // Paired seeds: same point index, same seed across the two axes.
        assert_eq!(per_message.seed, per_flow.seed);
    }

    #[test]
    fn tuned_jobs_apply_their_knobs() {
        let m = ScenarioMatrix::named("sens_slots").unwrap();
        let cfgs: Vec<_> = m.jobs().iter().map(|j| j.sim_config()).collect();
        assert_eq!(
            cfgs.iter().map(|c| c.send_slots_per_node).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16, 32]
        );
        assert!(cfgs.iter().all(|c| c.cluster_nodes == 8));
        assert!(cfgs.iter().all(|c| c.seed == 101), "fixed-seed sweep");

        let mtu = ScenarioMatrix::named("sens_mtu").unwrap();
        let cfgs: Vec<_> = mtu.jobs().iter().map(|j| j.sim_config()).collect();
        assert_eq!(
            cfgs.iter().map(|c| c.chip.mtu_bytes).collect::<Vec<_>>(),
            vec![64, 256, 1024, 4096]
        );
        assert!(cfgs.iter().all(|c| c.request_bytes == 1024));

        // The derive step labels rows by position in these grids, so
        // each sweep runs exactly one job per grid point.
        for (name, grid_len) in [
            ("sens_slots", SENS_SLOTS.len()),
            ("sens_mtu", SENS_MTUS.len()),
            ("sens_mcs", SENS_HANDOFFS_NS.len()),
            ("sens_threshold", SENS_THRESHOLDS.len()),
        ] {
            let jobs = ScenarioMatrix::named(name).unwrap().jobs();
            assert_eq!(jobs.len(), grid_len, "{name}");
        }
    }

    #[test]
    fn traced_matrix_fills_the_breakdown_channel() {
        let m = ScenarioMatrix::new("breakdown-test", 9)
            .service_workloads(vec![(
                "exp600".to_owned(),
                ServiceDist::exponential_mean_ns(600.0),
            )])
            .policies(vec![Policy::hw_single_queue()])
            .rates(RateGrid::Shared(vec![4.0e6]))
            .requests(4_000, 400)
            .trace(2_000);
        let traced = m.jobs()[0].run();
        let b = traced.breakdown.expect("traced job has a breakdown");
        assert!(b.processing_ns > 500.0, "processing dominates: {b:?}");
        assert!(b.reassembly_ns > 0.0 && b.dispatch_ns > 0.0);
        // Breakdown is a decomposition of the mean, so its total must
        // sit near the measured mean latency (trace capacity covers a
        // prefix, hence "near").
        assert!(
            (b.total_ns() - traced.mean_latency_ns).abs() / traced.mean_latency_ns < 0.25,
            "breakdown total {} vs mean {}",
            b.total_ns(),
            traced.mean_latency_ns
        );
        // The same job untraced records no breakdown.
        let mut untraced_spec = m.jobs()[0].clone();
        untraced_spec.trace_capacity = 0;
        assert!(untraced_spec.run().breakdown.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_matrix_panics() {
        ScenarioMatrix::new("t", 0)
            .policies(vec![Policy::hw_static()])
            .jobs();
    }
}
