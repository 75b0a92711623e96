//! End-to-end server simulation (§5's methodology).
//!
//! One [`ServerSim`] run models the paper's experiment: a 16-core soNUMA
//! chip with a Manycore NI receives `send` RPCs from a 200-node cluster
//! (Poisson arrivals, random sources), each RPC occupying a core for an
//! emulated processing time plus the microbenchmark's fixed overhead
//! (reply `send` of 512 B + `replenish`). Request latency is measured
//! exactly as the paper does: *"from the reception of a send message
//! until the thread that services the request posts a replenish
//! operation."*
//!
//! The same event loop hosts all four load-balancing implementations
//! (§6): RPCValet's 1×16, the partitioned 4×4, the RSS-like 16×1, and
//! the software MCS-lock 1×16 — only the dispatch path differs.
//!
//! Pending events wait in one sorted calendar per event kind (the
//! private `calendars` module), merged at the heads under the
//! `(time, seq)` keys a general event queue would give the same pushes.
//! Two kinds of event never enter them: the next arrival, held under
//! its taken number and fired when no calendar head precedes it, and a
//! send-slot release nothing waits on, applied when its source next
//! needs a slot.

use std::cell::RefCell;

use dist::ServiceDist;
use metrics::{quantiles_unsorted, Summary};
use rand::Rng;
use simkit::rng::stream_rng;
use simkit::{SimDuration, SimTime};
use sonuma::{packets_for, Arrival, ChipParams, NiBackend, TrafficGenerator};

use crate::calendars::{Calendars, Kind};
use crate::dispatch::{rss_core_for_source, Dispatcher, Policy};
use crate::domain::MessagingDomain;
use crate::mcs::McsLock;
use crate::reassembly::ReassemblyTable;
use crate::slab::{MsgList, MsgSlab, MsgState, NIL};
use crate::trace::{PendingTrace, TraceLog};

/// Parameters for Shinjuku-style preemptive scheduling (§7 sketches the
/// combination: "A system combining Shinjuku and RPCValet would
/// rigorously handle RPCs of a broad runtime range").
///
/// A request whose remaining processing time exceeds `quantum` runs for
/// one quantum, pays `overhead` (context save + requeue), and re-enters
/// the dispatch path at the back of the queue. Requests shorter than the
/// quantum are never preempted, so sub-µs workloads are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionParams {
    /// Maximum uninterrupted processing slice (Shinjuku uses 5–15 µs).
    pub quantum: SimDuration,
    /// Per-preemption cost charged to the core (interrupt + state save +
    /// requeue; sub-µs in Shinjuku).
    pub overhead: SimDuration,
}

impl PreemptionParams {
    /// Shinjuku's lower-bound configuration: 5 µs quantum, 500 ns
    /// preemption cost.
    pub fn shinjuku_5us() -> Self {
        PreemptionParams {
            quantum: SimDuration::from_us(5),
            overhead: SimDuration::from_ns(500),
        }
    }
}

/// Variates generated per refill of the arrival/service stream: the
/// next `PREFETCH_BLOCK` draws go into a reused buffer in tight
/// per-distribution loops and are handed out one arrival at a time, so
/// the ln/exp transforms vectorize and the event loop touches no RNG
/// state between refills. Each RNG stream (arrivals on one, service
/// draws on another) is still consumed in the scalar order with the
/// scalar per-sample arithmetic — blocking moves *when* the draws
/// happen, never *what* they compute.
pub const PREFETCH_BLOCK: usize = 256;

/// A recorded arrival schedule: the replay input for
/// `harness trace --replay`, where a captured trace (typically a live
/// run's) is fed back through the simulator instead of drawing Poisson
/// arrivals and sampled service times. Rows are parallel arrays, one
/// entry per request, sorted by arrival time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestSchedule {
    /// Arrival times in picoseconds since run start (non-decreasing).
    pub arrivals_ps: Vec<u64>,
    /// Recorded source id per arrival (mapped into the simulated
    /// cluster's remote-node range `1..cluster_nodes` modulo its size).
    pub sources: Vec<u16>,
    /// Recorded service time per arrival (ns).
    pub service_ns: Vec<f64>,
}

impl RequestSchedule {
    /// Builds a schedule from parallel rows.
    ///
    /// # Panics
    /// Panics if the arrays disagree in length or arrivals decrease.
    pub fn new(arrivals_ps: Vec<u64>, sources: Vec<u16>, service_ns: Vec<f64>) -> Self {
        assert_eq!(arrivals_ps.len(), sources.len(), "parallel arrays");
        assert_eq!(arrivals_ps.len(), service_ns.len(), "parallel arrays");
        assert!(
            arrivals_ps.windows(2).all(|w| w[0] <= w[1]),
            "replay arrivals must be sorted"
        );
        RequestSchedule {
            arrivals_ps,
            sources,
            service_ns,
        }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.arrivals_ps.len()
    }

    /// True when the schedule holds no requests.
    pub fn is_empty(&self) -> bool {
        self.arrivals_ps.is_empty()
    }

    /// Mean recorded service time (ns); 0 when empty.
    pub fn mean_service_ns(&self) -> f64 {
        if self.service_ns.is_empty() {
            0.0
        } else {
            self.service_ns.iter().sum::<f64>() / self.service_ns.len() as f64
        }
    }

    /// The offered rate the recorded arrivals imply (requests/second);
    /// 0 when fewer than two arrivals.
    pub fn implied_rate_rps(&self) -> f64 {
        match (self.arrivals_ps.first(), self.arrivals_ps.last()) {
            (Some(&first), Some(&last)) if last > first => {
                (self.len() as f64 - 1.0) / ((last - first) as f64 * 1e-12)
            }
            _ => 0.0,
        }
    }
}

/// Configuration of one full-system simulation.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The simulated chip.
    pub chip: ChipParams,
    /// Load-balancing implementation under test.
    pub policy: Policy,
    /// Emulated RPC processing-time distribution (the `D` part of §6.3).
    pub service: ServiceDist,
    /// Cluster size including the server (§5: 200).
    pub cluster_nodes: usize,
    /// Messaging-domain send slots per node pair `S` (§4.2: "a few tens").
    pub send_slots_per_node: usize,
    /// Incoming request payload size in bytes.
    pub request_bytes: u64,
    /// RPC reply payload size (§5: 512 B).
    pub reply_bytes: u64,
    /// Offered aggregate load in requests per second.
    pub rate_rps: f64,
    /// Total arrivals to simulate.
    pub requests: u64,
    /// Completions discarded as warm-up.
    pub warmup: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Optional Shinjuku-style preemption (RPCValet extension, §7).
    pub preemption: Option<PreemptionParams>,
    /// Per-request timeline traces to keep (0 disables tracing). Traces
    /// are recorded for the first N *measured* (post-warm-up) requests.
    ///
    /// Enabling tracing switches the message slab to monotone ids (no
    /// slot recycling — see `Runner::new`), so a traced run's peak
    /// memory grows with `requests` instead of staying bounded by the
    /// in-flight count. It changes no output bits: all measurements are
    /// identical with tracing on or off.
    pub trace_capacity: usize,
    /// Replay a recorded arrival schedule instead of generating Poisson
    /// traffic: arrival times, sources, and service times come from the
    /// schedule (the first [`SystemConfig::requests`] rows), and
    /// [`SystemConfig::service`] / [`SystemConfig::rate_rps`] are
    /// ignored for generation (the rate is still reported as offered
    /// load).
    pub schedule: Option<std::sync::Arc<RequestSchedule>>,
    /// Fixed-interval occupancy sampling cadence for the full
    /// [`telemetry::SeriesRecorder`] series (`None` disables). The
    /// sampler is driven off simulated time at the top of the event
    /// loop — it schedules no simulator events — so enabling it changes no
    /// output bits, keeps [`RunResult::events_processed`] identical,
    /// and the recorded series is byte-identical for any worker-thread
    /// count.
    pub series_interval: Option<SimDuration>,
    /// Latency-class split: requests whose drawn processing time is below
    /// this threshold (ns) form the *latency-critical* class, reported
    /// separately. The paper's Masstree experiment (Fig. 7b) sets its SLO
    /// on `get`s only, treating 60–120 µs `scan`s as non-critical.
    pub critical_threshold_ns: Option<f64>,
    /// For [`Policy::HwStatic`]: pin each *source* to a core (true RSS
    /// flow affinity) instead of assigning each *message* uniformly at
    /// random (the paper's 16×1 queueing abstraction). Default `false`.
    pub rss_per_flow: bool,
}

impl SystemConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }
}

/// Builder for [`SystemConfig`] with the paper's §5 defaults.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    config: SystemConfig,
}

impl SystemConfigBuilder {
    /// Creates a builder seeded with the paper's defaults: Table 1 chip,
    /// RPCValet 1×16 policy, fixed 600 ns service, 200-node cluster,
    /// 32 slots, 64 B requests, 512 B replies, 4 Mrps, 100 k requests.
    pub fn new() -> Self {
        SystemConfigBuilder {
            config: SystemConfig {
                chip: ChipParams::table1(),
                policy: Policy::hw_single_queue(),
                service: ServiceDist::fixed_ns(600.0),
                cluster_nodes: sonuma::params::CLUSTER_NODES,
                send_slots_per_node: 32,
                request_bytes: 64,
                reply_bytes: 512,
                rate_rps: 4.0e6,
                requests: 100_000,
                warmup: 10_000,
                seed: 0,
                preemption: None,
                trace_capacity: 0,
                schedule: None,
                series_interval: None,
                critical_threshold_ns: None,
                rss_per_flow: false,
            },
        }
    }

    /// Sets the chip parameters.
    pub fn chip(mut self, chip: ChipParams) -> Self {
        self.config.chip = chip;
        self
    }

    /// Sets the load-balancing policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the processing-time distribution.
    pub fn service(mut self, service: ServiceDist) -> Self {
        self.config.service = service;
        self
    }

    /// Sets the offered load in requests per second.
    pub fn rate_rps(mut self, rate: f64) -> Self {
        self.config.rate_rps = rate;
        self
    }

    /// Sets the number of arrivals to simulate.
    pub fn requests(mut self, requests: u64) -> Self {
        self.config.requests = requests;
        self
    }

    /// Sets the warm-up completion count to discard.
    pub fn warmup(mut self, warmup: u64) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets the RNG master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the cluster size (nodes, including the server).
    pub fn cluster_nodes(mut self, nodes: usize) -> Self {
        self.config.cluster_nodes = nodes;
        self
    }

    /// Sets the per-node-pair send-slot count `S`.
    pub fn send_slots_per_node(mut self, slots: usize) -> Self {
        self.config.send_slots_per_node = slots;
        self
    }

    /// Sets the request payload size in bytes.
    pub fn request_bytes(mut self, bytes: u64) -> Self {
        self.config.request_bytes = bytes;
        self
    }

    /// Sets the reply payload size in bytes.
    pub fn reply_bytes(mut self, bytes: u64) -> Self {
        self.config.reply_bytes = bytes;
        self
    }

    /// Enables Shinjuku-style preemption.
    pub fn preemption(mut self, params: PreemptionParams) -> Self {
        self.config.preemption = Some(params);
        self
    }

    /// Keeps per-request timeline traces for the first `capacity`
    /// measured requests (see [`crate::trace`]). Note the slab-recycling
    /// tradeoff documented on [`SystemConfig::trace_capacity`].
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = capacity;
        self
    }

    /// Replays a recorded arrival schedule (see
    /// [`SystemConfig::schedule`]).
    pub fn schedule(mut self, schedule: std::sync::Arc<RequestSchedule>) -> Self {
        self.config.schedule = Some(schedule);
        self
    }

    /// Records a full occupancy/queue-depth series sampled every
    /// `interval` of simulated time (see
    /// [`SystemConfig::series_interval`]).
    pub fn series_interval(mut self, interval: SimDuration) -> Self {
        self.config.series_interval = Some(interval);
        self
    }

    /// Sets the latency-critical class threshold (ns); see
    /// [`SystemConfig::critical_threshold_ns`].
    pub fn critical_threshold_ns(mut self, threshold: f64) -> Self {
        self.config.critical_threshold_ns = Some(threshold);
        self
    }

    /// Pins sources to cores for [`Policy::HwStatic`] (flow affinity).
    pub fn rss_per_flow(mut self, per_flow: bool) -> Self {
        self.config.rss_per_flow = per_flow;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    /// Panics on invalid combinations (zero requests, warmup ≥ requests,
    /// non-positive rate, tiny cluster).
    pub fn build(self) -> SystemConfig {
        let c = &self.config;
        assert!(c.requests > 0, "need at least one request");
        assert!(
            c.warmup < c.requests,
            "warmup ({}) must be below requests ({})",
            c.warmup,
            c.requests
        );
        assert!(
            c.rate_rps.is_finite() && c.rate_rps > 0.0,
            "rate must be positive"
        );
        assert!(c.cluster_nodes >= 2, "cluster needs a remote node");
        assert!(c.send_slots_per_node > 0, "need at least one send slot");
        if let Some(schedule) = &c.schedule {
            assert!(
                c.requests as usize <= schedule.len(),
                "replay needs {} scheduled arrivals, schedule holds {}",
                c.requests,
                schedule.len()
            );
        }
        self.config
    }
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Measured outcome of one full-system run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Figure-legend label of the simulated policy.
    pub label: String,
    /// Offered load (requests/second).
    pub offered_rps: f64,
    /// Achieved throughput over the measurement window (requests/second).
    pub throughput_rps: f64,
    /// Mean request latency (ns), reception → replenish post.
    pub mean_latency_ns: f64,
    /// Exact 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// Exact median latency (ns).
    pub p50_latency_ns: f64,
    /// Latency summary statistics.
    pub latency: Summary,
    /// Mean measured service time S̄ (ns): total core occupancy per RPC,
    /// the quantity the paper's SLO (10×S̄) is defined against.
    pub mean_service_ns: f64,
    /// Completions measured (after warm-up).
    pub measured: u64,
    /// Exact p99 latency (ns) of the latency-critical class; equals
    /// [`RunResult::p99_latency_ns`] when no threshold is configured.
    pub p99_critical_ns: f64,
    /// Latency-critical completions measured.
    pub measured_critical: u64,
    /// Peak depth of the dispatcher shared CQ(s) (hardware policies).
    pub dispatcher_high_water: usize,
    /// Fraction of MCS acquisitions that were contended (software policy).
    pub lock_contention: f64,
    /// Arrivals that found their source's send slots exhausted and were
    /// deferred by flow control.
    pub flow_control_deferrals: u64,
    /// Preemption events (0 unless [`SystemConfig::preemption`] is set
    /// and some request exceeded the quantum).
    pub preemptions: u64,
    /// Completions per core over the whole run — the raw balance data.
    pub core_completions: Vec<u64>,
    /// Jain fairness index over per-core completions (1.0 = perfectly
    /// balanced; 1/16 = one core took everything).
    pub load_balance_jain: f64,
    /// Per-request timelines, when tracing was enabled.
    pub traces: TraceLog,
    /// Full fixed-interval telemetry series (windowed counters, latency
    /// histograms, core occupancy, queue depths), when
    /// [`SystemConfig::series_interval`] is set. Completions are
    /// recorded from the first request — warm-up transients included —
    /// which is the point of the trajectory view.
    pub series: Option<telemetry::JobSeries>,
    /// Total simulator events fired over the whole run — the denominator
    /// of the events/sec throughput the harness timing sidecar reports.
    /// Each arrival counts as one event although it is merged with the
    /// calendars' heads instead of pushed; a send-slot release nothing waited
    /// on counts as none, because it is applied lazily and never becomes
    /// an event (see `Ev::SlotFreed`). A count of work done, not a
    /// measurement: no report or digest includes it.
    pub events_processed: u64,
    /// Peak live message records: the slab's footprint. Bounded by the
    /// in-flight request count (not the total request count) whenever
    /// tracing is off and slots recycle.
    pub slab_high_water: usize,
}

impl RunResult {
    /// Throughput in millions of requests per second.
    pub fn throughput_mrps(&self) -> f64 {
        self.throughput_rps / 1e6
    }

    /// p99 latency in microseconds.
    pub fn p99_latency_us(&self) -> f64 {
        self.p99_latency_ns / 1e3
    }
}

/// Event payloads use `u32` ids (message slab slots, cores, dispatchers,
/// sources all fit easily): a 12-byte `Ev` keeps a calendar entry at
/// 32 bytes.
///
/// Arrivals are not queued: the runner holds the next one under its
/// taken sequence number and fires it when no calendar holds anything
/// earlier (`Runner::arrival`).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A message's final packet has been written and counted (§4.2).
    MsgComplete { msg: u32 },
    /// A message-completion packet reaches dispatcher `d` (§4.3).
    AtDispatcher { msg: u32, d: u32 },
    /// A CQE lands in `core`'s private CQ.
    CqeDelivered { msg: u32, core: u32 },
    /// `core` finished an RPC end-to-end (service + posts).
    ServiceDone { core: u32, msg: u32 },
    /// A replenish notification reaches dispatcher `d`.
    ReplenishAtDispatcher { core: u32, d: u32 },
    /// A send slot frees at the remote source while an arrival from it
    /// waits (flow control): the release injects the waiter. A release
    /// nothing waits on is only a counter update at the source, so it is
    /// recorded instead (`RunScratch::releases`) and applied, in
    /// `(time, seq)` order, when the source next needs a slot; it becomes
    /// this event, under the number it took, only if an arrival from the
    /// source is deferred before it falls due.
    SlotFreed { src: u32, slot: u32 },
    /// A core's preemption timer fires: the request is requeued.
    Preempted { core: u32, msg: u32 },
    /// Software baseline: `core` requests the MCS lock to dequeue.
    SwTryDequeue { core: u32 },
    /// Software baseline: `core` holds the lock and pops the queue head.
    SwGranted { core: u32 },
}

/// The calendars, one per kind of event (see [`crate::calendars`]).
/// An event is pushed at `now` plus a delay, so a calendar stays short
/// and nearly sorted when its kind's delays vary little: a push then
/// swaps past few later keys. `ServiceDone` and `Preempted` share one
/// (both end a core's slice; at most one per core is pending), and
/// each software event has its own, because `SwTryDequeue` lands 4 ns
/// ahead while `SwGranted` queues behind the lock's backlog.
impl Kind for Ev {
    #[inline(always)]
    fn kind(&self) -> usize {
        match self {
            Ev::MsgComplete { .. } => 0,
            Ev::AtDispatcher { .. } => 1,
            Ev::CqeDelivered { .. } => 2,
            Ev::ServiceDone { .. } | Ev::Preempted { .. } => 3,
            Ev::ReplenishAtDispatcher { .. } => 4,
            Ev::SlotFreed { .. } => 5,
            Ev::SwTryDequeue { .. } => 6,
            Ev::SwGranted { .. } => 7,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Idle,
    /// Software baseline: waiting for a lock grant.
    Acquiring,
    Busy,
}

/// The full-system simulator. Construct with [`ServerSim::new`], run with
/// [`ServerSim::run`].
#[derive(Debug)]
pub struct ServerSim {
    config: SystemConfig,
}

impl ServerSim {
    /// Creates a simulator for `config`.
    pub fn new(config: SystemConfig) -> Self {
        ServerSim { config }
    }

    /// Runs the simulation to completion and returns the measurements.
    ///
    /// Big per-run buffers (the message slab, latency sample vectors,
    /// trace staging) come from a thread-local scratch pool, so a worker
    /// thread sweeping many load points reuses the same allocations and
    /// the steady-state hot path allocates nothing.
    pub fn run(&self) -> RunResult {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            Runner::new(&self.config, &mut scratch).run()
        })
    }
}

/// Reusable per-thread buffers; see [`ServerSim::run`].
#[derive(Default)]
struct RunScratch {
    msgs: MsgSlab,
    latency_samples: Vec<f64>,
    critical_samples: Vec<f64>,
    pending_traces: Vec<PendingTrace>,
    /// The previous run's calendars, so a sweep's later load points
    /// reuse their capacity.
    calendars: Calendars<Ev>,
    /// Per source, the lazy send-slot releases still in flight, sorted
    /// by `(time, seq)` (see `Ev::SlotFreed`). Applied ones are dropped
    /// as soon as they are due, so each list holds at most the source's
    /// `S` slots.
    releases: Vec<Vec<Release>>,
}

/// A send-slot release recorded instead of queued as `Ev::SlotFreed`.
struct Release {
    time: SimTime,
    /// The sequence number taken when the release was scheduled.
    seq: u64,
    slot: u32,
}

thread_local! {
    static SCRATCH: RefCell<RunScratch> = RefCell::new(RunScratch::default());
}

/// Per-run cache of the chip's pure-function latencies. The mesh math
/// (tile coords, Manhattan hops, flit serialization) is exact but costs
/// several divides and asserts per call, and the hot path asks for the
/// same handful of values millions of times.
struct LatencyCache {
    cores: usize,
    /// `backend_to_core(b, c)` at `[b * cores + c]` (also serves
    /// `core_to_backend`, which is defined as its transpose).
    b2c: Vec<SimDuration>,
    /// `backend_to_backend(b, 0)` — the single-queue forward path.
    b2b0: Vec<SimDuration>,
    /// `fixed_service_overhead()`.
    fixed_overhead: SimDuration,
    /// `packets_for(request_bytes, mtu)`.
    request_packets: u64,
    /// `edge_packet_gap()`.
    packet_gap: SimDuration,
}

impl LatencyCache {
    fn new(cfg: &SystemConfig) -> Self {
        let chip = &cfg.chip;
        LatencyCache {
            cores: chip.cores,
            b2c: (0..chip.backends)
                .flat_map(|b| (0..chip.cores).map(move |c| (b, c)))
                .map(|(b, c)| chip.backend_to_core(b, c))
                .collect(),
            b2b0: (0..chip.backends)
                .map(|b| chip.backend_to_backend(b, 0))
                .collect(),
            fixed_overhead: chip.fixed_service_overhead(),
            request_packets: packets_for(cfg.request_bytes, chip.mtu_bytes),
            packet_gap: chip.edge_packet_gap(),
        }
    }

    #[inline]
    fn backend_to_core(&self, b: usize, c: usize) -> SimDuration {
        self.b2c[b * self.cores + c]
    }

    #[inline]
    fn core_to_backend(&self, c: usize, b: usize) -> SimDuration {
        self.backend_to_core(b, c)
    }
}

/// Dispatch-group count the telemetry series is shaped for: one per
/// dispatcher for the dispatched policies, one per core for RSS (each
/// private CQ is its own "group"), one shared queue for the software
/// baseline.
fn series_groups(cfg: &SystemConfig) -> usize {
    match &cfg.policy {
        Policy::HwSingleQueue { .. } | Policy::SwSingleQueue { .. } => 1,
        Policy::HwPartitioned { .. } => cfg.chip.backends,
        Policy::HwStatic => cfg.chip.cores,
    }
}

/// One pre-generated chunk of the arrival/service variate stream.
struct VariateBlock {
    arrivals: Vec<Arrival>,
    service_ns: Vec<f64>,
}

impl VariateBlock {
    fn empty() -> Self {
        VariateBlock {
            arrivals: Vec::new(),
            service_ns: Vec::new(),
        }
    }

    /// Draws the next `n` variates of both streams into this block. The
    /// two streams live on separate RNGs, so generating all arrivals and
    /// then all service times consumes each stream in exactly the scalar
    /// interleaved order.
    fn refill(
        &mut self,
        n: usize,
        traffic: &mut TrafficGenerator,
        service: &ServiceDist,
        service_rng: &mut rand::rngs::SmallRng,
    ) {
        const FILLER: Arrival = Arrival {
            time: SimTime::ZERO,
            source: sonuma::NodeId(0),
        };
        self.arrivals.clear();
        self.arrivals.resize(n, FILLER);
        traffic.next_arrival_block(&mut self.arrivals);
        self.service_ns.clear();
        self.service_ns.resize(n, 0.0);
        service.sample_block(service_rng, &mut self.service_ns);
    }

    fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// The `i`-th (arrival time, source, service) triple. The ns → tick
    /// conversion here is the same `from_ns_f64` the scalar
    /// [`ServiceDist::sample`] applies, so deferring it to consumption
    /// changes no bits.
    #[inline]
    fn get(&self, i: usize) -> (SimTime, usize, SimDuration) {
        let a = self.arrivals[i];
        (
            a.time,
            a.source.index(),
            SimDuration::from_ns_f64(self.service_ns[i]),
        )
    }
}

/// The generated-traffic variate producer behind
/// [`Runner::schedule_next_arrival`]: blocked inline generation,
/// [`PREFETCH_BLOCK`] variates per refill. Replay runs read the recorded
/// schedule, draw nothing, and construct no source.
struct VariateSource {
    traffic: TrafficGenerator,
    service_rng: rand::rngs::SmallRng,
    block: VariateBlock,
    cursor: usize,
    /// Requests not yet drawn into any block; refills clamp to this so
    /// the RNG streams are consumed exactly as far as scalar draws
    /// would.
    left: u64,
}

impl VariateSource {
    fn new(cfg: &SystemConfig) -> Self {
        VariateSource {
            traffic: TrafficGenerator::new(cfg.cluster_nodes, cfg.rate_rps, cfg.seed),
            service_rng: stream_rng(cfg.seed, 1),
            block: VariateBlock::empty(),
            cursor: 0,
            left: cfg.requests,
        }
    }

    /// The next (arrival time, source, service time) triple.
    fn next(&mut self, service: &ServiceDist) -> (SimTime, usize, SimDuration) {
        if self.cursor == self.block.len() {
            let n = (self.left as usize).min(PREFETCH_BLOCK);
            debug_assert!(n > 0, "the caller never draws past cfg.requests");
            self.block
                .refill(n, &mut self.traffic, service, &mut self.service_rng);
            self.left -= n as u64;
            self.cursor = 0;
        }
        let i = self.cursor;
        self.cursor = i + 1;
        self.block.get(i)
    }
}

/// Internal mutable simulation state.
struct Runner<'a> {
    cfg: &'a SystemConfig,
    lat: LatencyCache,
    /// The message slab and sample buffers, reused across runs.
    scratch: &'a mut RunScratch,
    /// Pending events, the clock and the event count.
    calendars: Calendars<Ev>,
    /// Arrival/service variate stream; `None` under replay.
    variates: Option<VariateSource>,
    static_rng: rand::rngs::SmallRng,
    domain: MessagingDomain,
    reassembly: ReassemblyTable,
    backends: Vec<NiBackend>,
    /// Dispatch-decision pipelines, one per dispatcher unit.
    dispatch_units: Vec<sonuma::SerialResource>,
    dispatchers: Vec<Dispatcher>,
    /// Owning dispatcher per core (`None` for undispatched policies),
    /// precomputed from [`Dispatcher::owns`].
    dispatcher_by_core: Vec<Option<usize>>,
    /// Core private CQs (hardware paths), as intrusive lists through the
    /// slab.
    core_cq: Vec<MsgList>,
    core_state: Vec<CoreState>,
    /// Slab id of the lazily pre-generated arrival (generation is
    /// one-ahead: the record is allocated when the arrival is scheduled).
    next_msg: usize,
    /// `(time, seq)` of that arrival, `None` once every request has
    /// arrived. It never enters the calendars: the run loop pops only
    /// events that precede this key and fires the arrival when none does
    /// — the merge `queueing::QueueingModel::run` does with its open-loop
    /// arrival stream, here at the calendars' own tie order, since `seq`
    /// is taken exactly where a push would have taken it.
    arrival: Option<(SimTime, u64)>,
    /// Arrivals deferred by exhausted send slots, per source.
    pending_by_src: Vec<MsgList>,
    generated: u64,
    completions: u64,
    /// Software baseline state.
    sw_queue: MsgList,
    lock: McsLock,
    // measurement
    latency: Summary,
    service_occupancy: Summary,
    window_start: SimTime,
    window_end: SimTime,
    deferrals: u64,
    preemptions: u64,
    core_completions: Vec<u64>,
    traces: TraceLog,
    /// Fixed-interval telemetry sampler state. The recorder is fed at
    /// the top of the event loop (never via simulator events), so it is
    /// pure observation: every counter below tracks state the runner
    /// already mutates, and sampling changes no simulation outcome.
    series: Option<telemetry::SeriesRecorder>,
    series_interval_ps: u64,
    series_next_ps: u64,
    /// Reused sample buffers (no allocation per tick).
    series_core_busy: Vec<bool>,
    series_group_queues: Vec<u64>,
    /// Injected (first packet on the wire) but not yet completed.
    inflight: u64,
    /// Arrivals parked by flow control across all sources.
    pending_total: u64,
    /// Depth of the software baseline's shared queue.
    sw_len: u64,
    /// Depth of each core's private CQ ([`MsgList`] carries no length).
    core_cq_len: Vec<u32>,
}

impl<'a> Runner<'a> {
    fn new(cfg: &'a SystemConfig, scratch: &'a mut RunScratch) -> Self {
        let chip = &cfg.chip;
        let dispatchers = match &cfg.policy {
            Policy::HwSingleQueue {
                outstanding_per_core,
            } => vec![Dispatcher::new(
                (0..chip.cores).collect(),
                *outstanding_per_core,
            )],
            Policy::HwPartitioned {
                outstanding_per_core,
            } => {
                let per = chip.cores / chip.backends;
                (0..chip.backends)
                    .map(|d| {
                        Dispatcher::new(
                            (d * per..(d + 1) * per).collect(),
                            *outstanding_per_core,
                        )
                    })
                    .collect()
            }
            Policy::HwStatic | Policy::SwSingleQueue { .. } => Vec::new(),
        };
        let n_units = dispatchers.len();
        let dispatcher_by_core = (0..chip.cores)
            .map(|core| dispatchers.iter().position(|d| d.owns(core)))
            .collect();
        let tracing = cfg.trace_capacity > 0;
        // Tracing runs keep monotone message ids (no slot recycling) so
        // emitted traces stay identical to the pre-slab implementation:
        // `pending_traces` is indexed by message id, and a recycled slot
        // would splice two requests' hop stamps into one record. The
        // cost is peak slab memory proportional to `requests` instead of
        // the in-flight count — the `harness run --trace N` docs point
        // here. Measured outputs are unaffected either way.
        scratch.msgs.reset(
            if tracing { cfg.requests as usize } else { 4096 },
            !tracing,
        );
        scratch.latency_samples.clear();
        scratch
            .latency_samples
            .reserve((cfg.requests - cfg.warmup) as usize);
        scratch.critical_samples.clear();
        scratch.pending_traces.clear();
        for releases in &mut scratch.releases {
            releases.clear();
        }
        scratch.releases.resize_with(cfg.cluster_nodes, Vec::new);
        let mut calendars = std::mem::take(&mut scratch.calendars);
        calendars.reset();
        Runner {
            lat: LatencyCache::new(cfg),
            cfg,
            scratch,
            calendars,
            variates: cfg.schedule.is_none().then(|| VariateSource::new(cfg)),
            static_rng: stream_rng(cfg.seed, 2),
            domain: MessagingDomain::new(
                cfg.cluster_nodes,
                cfg.send_slots_per_node,
                cfg.request_bytes.max(cfg.reply_bytes),
            ),
            reassembly: ReassemblyTable::with_domain(cfg.cluster_nodes, cfg.send_slots_per_node),
            backends: (0..chip.backends)
                .map(|b| NiBackend::new(chip.backend_tile(b)))
                .collect(),
            dispatch_units: vec![sonuma::SerialResource::new(); n_units],
            dispatchers,
            dispatcher_by_core,
            core_cq: vec![MsgList::EMPTY; chip.cores],
            core_state: vec![CoreState::Idle; chip.cores],
            next_msg: usize::MAX,
            arrival: None,
            pending_by_src: vec![MsgList::EMPTY; cfg.cluster_nodes],
            generated: 0,
            completions: 0,
            sw_queue: MsgList::EMPTY,
            lock: McsLock::new(),
            latency: Summary::new(),
            service_occupancy: Summary::new(),
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO,
            deferrals: 0,
            preemptions: 0,
            core_completions: vec![0; chip.cores],
            traces: TraceLog::with_capacity(cfg.trace_capacity),
            series: cfg.series_interval.map(|interval| {
                telemetry::SeriesRecorder::new(interval.as_ps(), chip.cores, series_groups(cfg))
            }),
            series_interval_ps: cfg.series_interval.map_or(0, |d| d.as_ps()),
            series_next_ps: cfg.series_interval.map_or(0, |d| d.as_ps()),
            series_core_busy: vec![false; chip.cores],
            series_group_queues: Vec::new(),
            inflight: 0,
            pending_total: 0,
            sw_len: 0,
            core_cq_len: vec![0; chip.cores],
        }
    }

    fn run(mut self) -> RunResult {
        self.schedule_next_arrival();
        loop {
            // The pending arrival fires when no calendar holds anything
            // that precedes its key (`event` is `None`).
            let (now, event) = match self.arrival {
                Some((time, seq)) => match self.calendars.pop_before(time, seq) {
                    Some(s) => (s.time, Some(s.event)),
                    None => (time, None),
                },
                None => match self.calendars.pop() {
                    Some(s) => (s.time, Some(s.event)),
                    None => break,
                },
            };
            // System state is piecewise-constant between events, so a
            // tick that falls between the previous event and this one
            // observes exactly the state at its nominal instant —
            // without ever entering the calendars (events_processed
            // and every measurement are bit-identical with the sampler
            // on or off).
            if self.series.is_some() && self.series_next_ps <= now.as_ps() {
                self.sample_series_until(now);
            }
            let Some(event) = event else {
                let (_, seq) = self.arrival.take().expect("a miss fires the arrival");
                self.on_arrival(now, seq);
                continue;
            };
            match event {
                Ev::MsgComplete { msg } => self.on_msg_complete(now, msg as usize),
                Ev::AtDispatcher { msg, d } => {
                    self.dispatchers[d as usize].enqueue(msg as u64);
                    self.drain_dispatcher(now, d as usize);
                }
                Ev::CqeDelivered { msg, core } => {
                    self.on_cqe(now, msg as usize, core as usize)
                }
                Ev::ServiceDone { core, msg } => {
                    self.on_service_done(now, core as usize, msg as usize)
                }
                Ev::ReplenishAtDispatcher { core, d } => {
                    self.dispatchers[d as usize].on_replenish(core as usize);
                    self.drain_dispatcher(now, d as usize);
                }
                Ev::SlotFreed { src, slot } => {
                    self.on_slot_freed(now, src as usize, slot as usize)
                }
                Ev::Preempted { core, msg } => {
                    self.on_preempted(now, core as usize, msg as usize)
                }
                Ev::SwTryDequeue { core } => self.on_sw_try_dequeue(now, core as usize),
                Ev::SwGranted { core } => self.on_sw_granted(now, core as usize),
            }
        }
        // Each release never applied would have been the run's last
        // events; the sampler's ticks up to them see the final state.
        if self.series.is_some() {
            let last = self.scratch.releases.iter().flatten().map(|r| r.time).max();
            if let Some(last) = last {
                self.sample_series_until(last);
            }
        }
        self.finish()
    }

    fn schedule_next_arrival(&mut self) {
        if self.generated >= self.cfg.requests {
            return;
        }
        // Generated traffic draws (arrival, then service) in this exact
        // order for determinism across policies; replay reads the
        // recorded schedule instead and touches no RNG stream.
        let (time, src, service) = match &self.cfg.schedule {
            Some(schedule) => {
                let i = self.generated as usize;
                // Recorded sources (live connection ids) fold into the
                // simulated cluster's remote-node range 1..nodes.
                let remotes = self.cfg.cluster_nodes - 1;
                (
                    SimTime::from_ps(schedule.arrivals_ps[i]),
                    1 + schedule.sources[i] as usize % remotes,
                    SimDuration::from_ns_f64(schedule.service_ns[i]),
                )
            }
            None => self
                .variates
                .as_mut()
                .expect("generated-traffic runs construct a variate source")
                .next(&self.cfg.service),
        };
        self.generated += 1;
        self.next_msg = self.scratch.msgs.alloc(MsgState {
            src: src as u32,
            slot: NIL,
            service,
            remaining: service,
            first_pkt: SimTime::MAX,
            next: NIL,
        });
        if self.traces.is_enabled() {
            // Monotone ids in tracing mode keep this table id-indexed.
            self.scratch.pending_traces.push(PendingTrace::default());
        }
        debug_assert!(time >= self.calendars.now(), "arrivals are time-ordered");
        self.arrival = Some((time, self.calendars.take_seq()));
    }

    /// The arrival keyed `(now, seq)` fires.
    fn on_arrival(&mut self, now: SimTime, seq: u64) {
        // Generation is lazy one-ahead, so the firing arrival always
        // corresponds to the most recently allocated message record.
        let msg = self.next_msg;
        let src = self.scratch.msgs[msg].src as usize;
        if let Some(series) = &mut self.series {
            // Offered arrival, counted before flow control so overload
            // windows show the offered-vs-completed gap.
            series.note_arrival(now.as_ps());
        }
        // The source's releases that precede this arrival were due
        // before it: applied in their own order, they leave the free
        // stack — and so every slot id — as eager events would have.
        self.apply_releases(src, (now, seq));
        if let Some(slot) = self.domain.try_acquire(src) {
            self.inject_message(now, msg, slot);
        } else {
            self.deferrals += 1;
            self.pending_total += 1;
            self.pending_by_src[src].push_back(&mut self.scratch.msgs, msg);
            // The source has a waiter now: each release still in flight
            // becomes the event that injects it, under its own number.
            for r in self.scratch.releases[src].drain(..) {
                let freed = Ev::SlotFreed {
                    src: src as u32,
                    slot: r.slot,
                };
                self.calendars.push_taken(r.time, r.seq, freed);
            }
        }
        self.schedule_next_arrival();
    }

    /// Applies `src`'s recorded releases whose `(time, seq)` precede
    /// `key`, in that order.
    fn apply_releases(&mut self, src: usize, key: (SimTime, u64)) {
        let releases = &mut self.scratch.releases[src];
        let due = releases.partition_point(|r| (r.time, r.seq) < key);
        for r in releases.drain(..due) {
            self.domain.release(src, r.slot as usize);
        }
    }

    /// Injects a message's packets into the arrival backend's receive
    /// pipeline and schedules its reassembly completion.
    fn inject_message(&mut self, now: SimTime, msg: usize, slot: usize) {
        let chip = &self.cfg.chip;
        let src = self.scratch.msgs[msg].src as usize;
        let b = chip.backend_for_source(src);
        let packets = self.lat.request_packets;
        let gap = self.lat.packet_gap;
        self.scratch.msgs[msg].slot = slot as u32;
        self.scratch.msgs[msg].first_pkt = now;
        self.inflight += 1;
        if self.traces.is_enabled() {
            self.scratch.pending_traces[msg].arrival = Some(now);
        }
        // One message's packets drain back-to-back: a fused burst through
        // the rx pipeline plus a single whole-message counter update are
        // exactly equivalent to the per-packet loop.
        let occ =
            self.backends[b]
                .rx
                .schedule_many(now, gap, chip.backend_rx_per_packet, packets);
        let done = self.reassembly.on_message((src, slot), packets);
        debug_assert!(done, "a full message always completes reassembly");
        let reassembled = occ.end + chip.reassembly_update;
        if self.traces.is_enabled() {
            self.scratch.pending_traces[msg].reassembled = Some(reassembled);
        }
        self.calendars
            .push(reassembled, Ev::MsgComplete { msg: msg as u32 });
    }

    fn on_msg_complete(&mut self, now: SimTime, msg: usize) {
        let chip = &self.cfg.chip;
        let src = self.scratch.msgs[msg].src as usize;
        let b = chip.backend_for_source(src);
        match &self.cfg.policy {
            Policy::HwSingleQueue { .. } => {
                // Forward the completion packet to the NI dispatcher
                // (backend 0) over the mesh (§4.3).
                let delay = self.lat.b2b0[b];
                self.calendars.push(
                    now + delay,
                    Ev::AtDispatcher {
                        msg: msg as u32,
                        d: 0,
                    },
                );
            }
            Policy::HwPartitioned { .. } => {
                // The arrival backend is its own dispatcher.
                self.calendars.push(
                    now,
                    Ev::AtDispatcher {
                        msg: msg as u32,
                        d: b as u32,
                    },
                );
            }
            Policy::HwStatic => {
                let core = if self.cfg.rss_per_flow {
                    rss_core_for_source(src, chip.cores)
                } else {
                    self.static_rng.gen_range(0..chip.cores)
                };
                let delay = self.lat.backend_to_core(b, core) + chip.cq_notify;
                self.calendars.push(
                    now + delay,
                    Ev::CqeDelivered {
                        msg: msg as u32,
                        core: core as u32,
                    },
                );
            }
            Policy::SwSingleQueue { .. } => {
                // The NI appends to the shared in-memory queue (an LLC
                // write) and a spinning idle core notices after the
                // coherence transfer.
                if self.traces.is_enabled() {
                    self.scratch.pending_traces[msg].dispatched = Some(now);
                }
                self.sw_queue.push_back(&mut self.scratch.msgs, msg);
                self.sw_len += 1;
                if let Some(core) = self.first_core_in(CoreState::Idle) {
                    self.core_state[core] = CoreState::Acquiring;
                    self.calendars
                        .push(now + chip.cq_notify, Ev::SwTryDequeue { core: core as u32 });
                }
            }
        }
    }

    fn drain_dispatcher(&mut self, now: SimTime, d: usize) {
        let chip = &self.cfg.chip;
        while let Some((msg, core)) = self.dispatchers[d].try_dispatch() {
            let occ = self.dispatch_units[d].schedule(now, chip.dispatch_decision);
            // The dispatcher lives at backend `d` for partitioned mode and
            // backend 0 for single-queue mode; `d` indexes correctly in
            // both cases because single-queue mode has exactly one unit.
            let backend = if self.dispatchers.len() == 1 { 0 } else { d };
            let delay = self.lat.backend_to_core(backend, core) + chip.cq_notify;
            self.calendars.push(
                occ.end + delay,
                Ev::CqeDelivered {
                    msg: msg as u32,
                    core: core as u32,
                },
            );
        }
    }

    fn on_cqe(&mut self, now: SimTime, msg: usize, core: usize) {
        if self.traces.is_enabled() && self.scratch.pending_traces[msg].dispatched.is_none() {
            self.scratch.pending_traces[msg].dispatched = Some(now);
        }
        self.core_cq[core].push_back(&mut self.scratch.msgs, msg);
        self.core_cq_len[core] += 1;
        if self.core_state[core] == CoreState::Idle {
            self.start_processing(now, core);
        }
    }

    /// Pops the next CQE and occupies the core for the next slice of the
    /// RPC (the whole RPC unless preemption cuts it short).
    fn start_processing(&mut self, now: SimTime, core: usize) {
        let Some(msg) = self.core_cq[core].pop_front(&mut self.scratch.msgs) else {
            self.core_state[core] = CoreState::Idle;
            return;
        };
        self.core_cq_len[core] -= 1;
        self.run_slice(now, core, msg);
    }

    /// Occupies `core` with `msg`, honoring the preemption quantum.
    fn run_slice(&mut self, now: SimTime, core: usize, msg: usize) {
        self.core_state[core] = CoreState::Busy;
        let remaining = self.scratch.msgs[msg].remaining;
        match self.cfg.preemption {
            Some(p) if remaining > p.quantum => {
                self.scratch.msgs[msg].remaining = remaining - p.quantum;
                self.preemptions += 1;
                if self.traces.is_enabled() {
                    self.scratch.pending_traces[msg].preemptions += 1;
                }
                self.service_occupancy.record(p.quantum + p.overhead);
                self.calendars.push(
                    now + p.quantum + p.overhead,
                    Ev::Preempted {
                        core: core as u32,
                        msg: msg as u32,
                    },
                );
            }
            _ => {
                if self.traces.is_enabled() {
                    self.scratch.pending_traces[msg].started = Some(now);
                }
                let occupancy = self.lat.fixed_overhead + remaining;
                self.service_occupancy.record(occupancy);
                self.calendars.push(
                    now + occupancy,
                    Ev::ServiceDone {
                        core: core as u32,
                        msg: msg as u32,
                    },
                );
            }
        }
    }

    /// A preempted request re-enters the dispatch path at the back of the
    /// queue; the core moves on to its next assignment.
    fn on_preempted(&mut self, now: SimTime, core: usize, msg: usize) {
        match &self.cfg.policy {
            Policy::HwSingleQueue { .. } | Policy::HwPartitioned { .. } => {
                let d = self
                    .dispatcher_of(core)
                    .expect("dispatched policies own every core");
                let backend = if self.dispatchers.len() == 1 { 0 } else { d };
                let delay = self.lat.core_to_backend(core, backend);
                // The requeue notification releases the core's outstanding
                // slot and re-enqueues the message at the CQ tail.
                self.calendars.push(
                    now + delay,
                    Ev::ReplenishAtDispatcher {
                        core: core as u32,
                        d: d as u32,
                    },
                );
                self.calendars.push(
                    now + delay,
                    Ev::AtDispatcher {
                        msg: msg as u32,
                        d: d as u32,
                    },
                );
            }
            Policy::HwStatic => {
                // No rebalancing available: round-robin on the same core.
                self.core_cq[core].push_back(&mut self.scratch.msgs, msg);
                self.core_cq_len[core] += 1;
            }
            Policy::SwSingleQueue { .. } => {
                self.sw_queue.push_back(&mut self.scratch.msgs, msg);
                self.sw_len += 1;
            }
        }
        match &self.cfg.policy {
            Policy::SwSingleQueue { .. } => {
                self.core_state[core] = CoreState::Acquiring;
                self.calendars
                    .push(now, Ev::SwTryDequeue { core: core as u32 });
            }
            _ => self.start_processing(now, core),
        }
    }

    fn on_service_done(&mut self, now: SimTime, core: usize, msg: usize) {
        let chip = &self.cfg.chip;
        let state = self.scratch.msgs[msg];
        let src = state.src as usize;
        let b = chip.backend_for_source(src);

        // Latency: reception of the send → replenish posted (now).
        self.completions += 1;
        self.core_completions[core] += 1;
        self.inflight -= 1;
        if let Some(series) = &mut self.series {
            // Warm-up completions included: the trajectory view exists
            // to show the transient the aggregate report discards.
            let group = match &self.cfg.policy {
                Policy::HwStatic => core,
                Policy::SwSingleQueue { .. } => 0,
                _ => self.dispatcher_by_core[core].unwrap_or(0),
            };
            let lat_ps = now.duration_since(state.first_pkt).as_ps();
            series.note_completion(now.as_ps(), lat_ps, group);
        }
        if self.completions == self.cfg.warmup {
            self.window_start = now;
        }
        if self.completions > self.cfg.warmup && self.traces.is_enabled() {
            let p = self.scratch.pending_traces[msg];
            self.traces.push(telemetry::RequestTimeline {
                req: msg as u64,
                src: state.src as u16,
                core: core as u16,
                arrival_ps: p.arrival.expect("traced request was injected").as_ps(),
                reassembled_ps: p.reassembled.expect("traced request reassembled").as_ps(),
                dispatched_ps: p.dispatched.expect("traced request dispatched").as_ps(),
                started_ps: p.started.expect("traced request started").as_ps(),
                completed_ps: now.as_ps(),
                preemptions: p.preemptions,
            });
        }
        if self.completions > self.cfg.warmup {
            let lat = now.duration_since(state.first_pkt);
            self.latency.record(lat);
            self.scratch.latency_samples.push(lat.as_ns_f64());
            if let Some(threshold) = self.cfg.critical_threshold_ns {
                if state.service.as_ns_f64() < threshold {
                    self.scratch.critical_samples.push(lat.as_ns_f64());
                }
            }
            self.window_end = now;
        }

        // The message's lifecycle ends here; its slab slot recycles (the
        // release carries src/slot by value).
        self.scratch.msgs.free(msg);

        // Replenish propagates to the source (frees its send slot) …
        let slot_free = now + self.lat.core_to_backend(core, b) + chip.wire_latency;
        let seq = self.calendars.take_seq();
        if self.pending_by_src[src].is_empty() {
            // … a counter update nothing waits on: record it (see
            // `Ev::SlotFreed`), after applying the ones due before now so
            // the list holds only releases still in flight. The new
            // number is the list's largest, so it sorts after every
            // record due at or before its time.
            self.apply_releases(src, (now, 0));
            let releases = &mut self.scratch.releases[src];
            let at = releases.partition_point(|r| r.time <= slot_free);
            let release = Release {
                time: slot_free,
                seq,
                slot: state.slot,
            };
            releases.insert(at, release);
        } else {
            let freed = Ev::SlotFreed {
                src: src as u32,
                slot: state.slot,
            };
            self.calendars.push_taken(slot_free, seq, freed);
        }

        // … and, for dispatched policies, to the owning NI dispatcher.
        if let Some(d) = self.dispatcher_of(core) {
            let backend = if self.dispatchers.len() == 1 { 0 } else { d };
            let delay = self.lat.core_to_backend(core, backend);
            self.calendars.push(
                now + delay,
                Ev::ReplenishAtDispatcher {
                    core: core as u32,
                    d: d as u32,
                },
            );
        }

        // The core moves on: hardware paths pull from the private CQ;
        // the software path re-contends for the lock.
        match &self.cfg.policy {
            Policy::SwSingleQueue { .. } => {
                if self.sw_queue.is_empty() {
                    self.core_state[core] = CoreState::Idle;
                } else {
                    self.core_state[core] = CoreState::Acquiring;
                    self.calendars
                        .push(now, Ev::SwTryDequeue { core: core as u32 });
                }
            }
            _ => self.start_processing(now, core),
        }
    }

    fn on_slot_freed(&mut self, now: SimTime, src: usize, slot: usize) {
        // A recorded release of this source was scheduled after this one
        // (records are only made while nothing waits, and a release in
        // flight as an event predates them), so it precedes this event
        // exactly when it falls due strictly earlier.
        self.apply_releases(src, (now, 0));
        self.domain.release(src, slot);
        if let Some(msg) = self.pending_by_src[src].pop_front(&mut self.scratch.msgs) {
            self.pending_total -= 1;
            let slot = self
                .domain
                .try_acquire(src)
                .expect("slot was just released");
            self.inject_message(now, msg, slot);
        }
    }

    fn on_sw_try_dequeue(&mut self, now: SimTime, core: usize) {
        let Policy::SwSingleQueue { lock } = &self.cfg.policy else {
            unreachable!("SwTryDequeue outside software policy");
        };
        let grant = self.lock.acquire(now, lock);
        self.calendars
            .push(grant.released, Ev::SwGranted { core: core as u32 });
    }

    fn on_sw_granted(&mut self, now: SimTime, core: usize) {
        // The core exits the critical section holding the head message,
        // or empty-handed if another core drained the queue first.
        match self.sw_queue.pop_front(&mut self.scratch.msgs) {
            Some(msg) => {
                self.sw_len -= 1;
                self.run_slice(now, core, msg);
                // Keep the pipeline full: if messages remain and another
                // core is idle, it will have observed the non-empty queue.
                if !self.sw_queue.is_empty() {
                    if let Some(next) = self.first_core_in(CoreState::Idle) {
                        self.core_state[next] = CoreState::Acquiring;
                        self.calendars.push(
                            now + self.cfg.chip.cq_notify,
                            Ev::SwTryDequeue { core: next as u32 },
                        );
                    }
                }
            }
            None => {
                self.core_state[core] = CoreState::Idle;
            }
        }
    }

    /// Fires every pending sampler tick up to and including `now`
    /// (multiple ticks when the event gap spans several intervals).
    fn sample_series_until(&mut self, now: SimTime) {
        let now_ps = now.as_ps();
        while self.series_next_ps <= now_ps {
            let t = self.series_next_ps;
            self.series_next_ps += self.series_interval_ps;
            for (busy, &state) in self.series_core_busy.iter_mut().zip(&self.core_state) {
                *busy = state == CoreState::Busy;
            }
            self.series_group_queues.clear();
            match &self.cfg.policy {
                Policy::HwSingleQueue { .. } | Policy::HwPartitioned { .. } => self
                    .series_group_queues
                    .extend(self.dispatchers.iter().map(|d| d.pending() as u64)),
                Policy::HwStatic => self
                    .series_group_queues
                    .extend(self.core_cq_len.iter().map(|&l| l as u64)),
                Policy::SwSingleQueue { .. } => self.series_group_queues.push(self.sw_len),
            }
            let group_sum: u64 = self.series_group_queues.iter().sum();
            // Core private CQs queue *behind* the dispatcher CQ for the
            // dispatched policies; for RSS they are the group queues
            // themselves and must not be counted twice.
            let extra_cq: u64 = match &self.cfg.policy {
                Policy::HwSingleQueue { .. } | Policy::HwPartitioned { .. } => {
                    self.core_cq_len.iter().map(|&l| l as u64).sum()
                }
                _ => 0,
            };
            let queued_total = self.pending_total + group_sum + extra_cq;
            let series = self.series.as_mut().expect("sampling only runs when enabled");
            series.sample(
                t,
                &self.series_core_busy,
                &self.series_group_queues,
                queued_total,
                self.inflight,
            );
        }
    }

    fn first_core_in(&self, state: CoreState) -> Option<usize> {
        self.core_state.iter().position(|&s| s == state)
    }

    #[inline]
    fn dispatcher_of(&self, core: usize) -> Option<usize> {
        self.dispatcher_by_core[core]
    }

    fn finish(mut self) -> RunResult {
        // Hand the (now empty) calendars back for the next run on this
        // thread.
        let events_processed = self.calendars.events_processed();
        self.scratch.calendars = std::mem::take(&mut self.calendars);
        let measured = self.latency.count();
        let span_ns = self
            .window_end
            .saturating_duration_since(self.window_start)
            .as_ns_f64();
        let throughput_rps = if span_ns > 0.0 {
            measured as f64 / span_ns * 1e9
        } else {
            0.0
        };
        // O(n) selection serves every quantile (the pre-refactor path
        // cloned and fully sorted the 90 %-of-requests sample vector per
        // quantile); values are identical to the sort-based extraction.
        let (p99, p50) = if self.scratch.latency_samples.is_empty() {
            (0.0, 0.0)
        } else {
            let qs = quantiles_unsorted(&mut self.scratch.latency_samples, &[0.99, 0.50]);
            (qs[0], qs[1])
        };
        let (p99_critical, measured_critical) = match self.cfg.critical_threshold_ns {
            None => (p99, measured),
            Some(_) if self.scratch.critical_samples.is_empty() => (0.0, 0),
            Some(_) => (
                quantiles_unsorted(&mut self.scratch.critical_samples, &[0.99])[0],
                self.scratch.critical_samples.len() as u64,
            ),
        };
        RunResult {
            events_processed,
            slab_high_water: self.scratch.msgs.high_water(),
            label: self
                .cfg
                .policy
                .label(self.cfg.chip.cores, self.cfg.chip.backends),
            offered_rps: self.cfg.rate_rps,
            throughput_rps,
            mean_latency_ns: self.latency.mean_ns(),
            p99_latency_ns: p99,
            p50_latency_ns: p50,
            latency: self.latency,
            mean_service_ns: self.service_occupancy.mean_ns(),
            measured,
            p99_critical_ns: p99_critical,
            measured_critical,
            dispatcher_high_water: self
                .dispatchers
                .iter()
                .map(|d| d.high_water())
                .max()
                .unwrap_or(0),
            lock_contention: self.lock.contention_ratio(),
            flow_control_deferrals: self.deferrals,
            preemptions: self.preemptions,
            traces: self.traces,
            series: self.series.map(|recorder| {
                recorder.into_job(
                    &self
                        .cfg
                        .policy
                        .label(self.cfg.chip.cores, self.cfg.chip.backends),
                )
            }),
            load_balance_jain: metrics::fairness::jain_index(
                &self
                    .core_completions
                    .iter()
                    .map(|&c| c as f64)
                    .collect::<Vec<_>>(),
            ),
            core_completions: self.core_completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(policy: Policy, rate: f64, seed: u64) -> SystemConfig {
        SystemConfig::builder()
            .policy(policy)
            .service(ServiceDist::exponential_mean_ns(600.0))
            .rate_rps(rate)
            .requests(60_000)
            .warmup(10_000)
            .seed(seed)
            .build()
    }

    #[test]
    fn low_load_latency_near_service_floor() {
        let r = ServerSim::new(base(Policy::hw_single_queue(), 1.0e6, 1)).run();
        // At ~5 % utilization the mean latency is service + small NI cost.
        assert!(
            r.mean_latency_ns < r.mean_service_ns + 100.0,
            "mean latency {} vs service {}",
            r.mean_latency_ns,
            r.mean_service_ns
        );
        assert!(r.measured > 0);
    }

    #[test]
    fn measured_service_time_matches_calibration() {
        let r = ServerSim::new(base(Policy::hw_single_queue(), 1.0e6, 2)).run();
        // S̄ = 220 ns overhead + 600 ns mean processing ≈ 820 ns.
        assert!(
            (r.mean_service_ns - 820.0).abs() < 15.0,
            "S̄ = {}",
            r.mean_service_ns
        );
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let r = ServerSim::new(base(Policy::hw_single_queue(), 8.0e6, 3)).run();
        assert!(
            (r.throughput_rps - 8.0e6).abs() / 8.0e6 < 0.05,
            "throughput {} at 8 Mrps offered",
            r.throughput_rps
        );
    }

    #[test]
    fn single_queue_beats_static_at_high_load() {
        let rate = 14.0e6; // ~72 % of the ~19.5 Mrps capacity
        let single = ServerSim::new(base(Policy::hw_single_queue(), rate, 4)).run();
        let stat = ServerSim::new(base(Policy::hw_static(), rate, 4)).run();
        assert!(
            single.p99_latency_ns < stat.p99_latency_ns,
            "1x16 p99 {} must beat 16x1 p99 {}",
            single.p99_latency_ns,
            stat.p99_latency_ns
        );
    }

    #[test]
    fn partitioned_sits_between_extremes() {
        let rate = 14.0e6;
        let single = ServerSim::new(base(Policy::hw_single_queue(), rate, 5)).run();
        let part = ServerSim::new(base(Policy::hw_partitioned(), rate, 5)).run();
        let stat = ServerSim::new(base(Policy::hw_static(), rate, 5)).run();
        assert!(
            single.p99_latency_ns <= part.p99_latency_ns * 1.10,
            "1x16 {} ≤ 4x4 {}",
            single.p99_latency_ns,
            part.p99_latency_ns
        );
        assert!(
            part.p99_latency_ns <= stat.p99_latency_ns * 1.10,
            "4x4 {} ≤ 16x1 {}",
            part.p99_latency_ns,
            stat.p99_latency_ns
        );
    }

    #[test]
    fn software_lock_caps_throughput() {
        // Offer 10 Mrps: above the ~7.4 Mrps lock ceiling. The software
        // system must saturate below the offered rate while the hardware
        // system keeps up.
        let sw = ServerSim::new(base(Policy::sw_single_queue(), 10.0e6, 6)).run();
        let hw = ServerSim::new(base(Policy::hw_single_queue(), 10.0e6, 6)).run();
        assert!(
            sw.throughput_rps < 8.0e6,
            "software throughput {} should cap near the lock ceiling",
            sw.throughput_rps
        );
        assert!(
            (hw.throughput_rps - 10.0e6).abs() / 10.0e6 < 0.05,
            "hardware keeps up: {}",
            hw.throughput_rps
        );
        assert!(sw.lock_contention > 0.5, "lock is contended at overload");
    }

    #[test]
    fn software_competitive_at_low_load() {
        let sw = ServerSim::new(base(Policy::sw_single_queue(), 1.0e6, 7)).run();
        let hw = ServerSim::new(base(Policy::hw_single_queue(), 1.0e6, 7)).run();
        // §6.2: "The software implementation is competitive with the
        // hardware implementation at low load".
        assert!(
            sw.p99_latency_ns < hw.p99_latency_ns * 1.25,
            "sw p99 {} vs hw p99 {}",
            sw.p99_latency_ns,
            hw.p99_latency_ns
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ServerSim::new(base(Policy::hw_single_queue(), 6.0e6, 42)).run();
        let b = ServerSim::new(base(Policy::hw_single_queue(), 6.0e6, 42)).run();
        assert_eq!(a.p99_latency_ns, b.p99_latency_ns);
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn slab_recycling_bounds_live_state() {
        // 60 k requests at 40 % load: live messages are the in-flight
        // handful, so the recycled slab must stay orders of magnitude
        // below the request count.
        let r = ServerSim::new(base(Policy::hw_single_queue(), 8.0e6, 11)).run();
        assert!(
            r.slab_high_water < 2_000,
            "slab grew to {} slots for 60k requests",
            r.slab_high_water
        );
        assert!(r.events_processed > 60_000 * 4, "events {}", r.events_processed);
    }

    #[test]
    fn multi_packet_requests_reassemble() {
        let cfg = SystemConfig::builder()
            .policy(Policy::hw_single_queue())
            .service(ServiceDist::fixed_ns(600.0))
            .request_bytes(512) // 8 packets per request
            .rate_rps(2.0e6)
            .requests(20_000)
            .warmup(2_000)
            .seed(8)
            .build();
        let r = ServerSim::new(cfg).run();
        assert_eq!(r.measured, 18_000);
        assert!(r.p99_latency_ns > 0.0);
    }

    #[test]
    fn flow_control_defers_on_tiny_slot_budget() {
        let cfg = SystemConfig::builder()
            .policy(Policy::hw_single_queue())
            .service(ServiceDist::fixed_ns(600.0))
            .cluster_nodes(3) // two sources only
            .send_slots_per_node(1)
            .rate_rps(10.0e6)
            .requests(5_000)
            .warmup(500)
            .seed(9)
            .build();
        let r = ServerSim::new(cfg).run();
        assert!(
            r.flow_control_deferrals > 0,
            "1 slot × 2 sources at 10 Mrps must defer"
        );
        assert_eq!(r.measured, 4_500, "deferred arrivals still complete");
    }

    #[test]
    fn series_sampling_changes_no_output_bits() {
        let plain = ServerSim::new(base(Policy::hw_single_queue(), 8.0e6, 17)).run();
        let sampled = {
            let mut cfg = base(Policy::hw_single_queue(), 8.0e6, 17);
            cfg.series_interval = Some(simkit::SimDuration::from_us(50));
            ServerSim::new(cfg).run()
        };
        // Bit-exact: the sampler schedules no events and touches no RNG.
        assert_eq!(plain.events_processed, sampled.events_processed);
        assert_eq!(plain.measured, sampled.measured);
        assert_eq!(plain.mean_latency_ns.to_bits(), sampled.mean_latency_ns.to_bits());
        assert_eq!(plain.p99_latency_ns.to_bits(), sampled.p99_latency_ns.to_bits());
        assert_eq!(plain.throughput_rps.to_bits(), sampled.throughput_rps.to_bits());
        assert_eq!(plain.core_completions, sampled.core_completions);
        assert!(plain.series.is_none());

        let series = sampled.series.expect("sampling was enabled");
        assert_eq!(series.cores, 16);
        assert_eq!(series.groups, 1, "1x16 has one dispatch group");
        assert!(!series.windows.is_empty());
        // Every generated request's completion lands in some window.
        let total: u64 = series.windows.iter().map(|w| w.completions).sum();
        assert_eq!(total, 60_000);
        let arrivals: u64 = series.windows.iter().map(|w| w.arrivals).sum();
        assert_eq!(arrivals, 60_000);

        // And two identical runs record identical series.
        let again = {
            let mut cfg = base(Policy::hw_single_queue(), 8.0e6, 17);
            cfg.series_interval = Some(simkit::SimDuration::from_us(50));
            ServerSim::new(cfg).run()
        };
        assert_eq!(
            telemetry::digest_series(&[series]).hex(),
            telemetry::digest_series(&[again.series.unwrap()]).hex()
        );
    }

    #[test]
    fn series_littles_law_holds_in_steady_state() {
        let mut cfg = base(Policy::hw_single_queue(), 10.0e6, 23);
        let interval = simkit::SimDuration::from_us(100);
        cfg.series_interval = Some(interval);
        let r = ServerSim::new(cfg).run();
        let series = r.series.unwrap();
        let derived = telemetry::derive_series(&series.windows, interval.as_ps(), series.cores);
        // Skip warm-up and the partial tail; average the residual over
        // the steady middle. Per-window residuals are noisy (sampled L
        // vs exact λW), but their steady-state mean must be ≈ 0.
        let steady: Vec<&telemetry::DerivedPoint> = derived
            .iter()
            .skip(8)
            .take(derived.len().saturating_sub(12))
            .filter(|p| !p.littles_residual.is_nan())
            .collect();
        assert!(steady.len() >= 10, "need steady windows, got {}", steady.len());
        let mean_l: f64 =
            steady.iter().map(|p| p.mean_inflight).sum::<f64>() / steady.len() as f64;
        let mean_residual: f64 =
            steady.iter().map(|p| p.littles_residual).sum::<f64>() / steady.len() as f64;
        assert!(
            mean_residual.abs() <= 0.15 * mean_l + 0.2,
            "Little's law: mean residual {mean_residual} vs mean L {mean_l}"
        );
        // Occupancy at 10 Mrps × ~820 ns ≈ 51 % of 16 cores.
        let mean_occ: f64 = steady.iter().map(|p| p.occupancy).sum::<f64>() / steady.len() as f64;
        assert!(
            (0.35..0.70).contains(&mean_occ),
            "occupancy {mean_occ} at ~51 % utilization"
        );
    }

    #[test]
    fn traces_decompose_latency_exactly() {
        let mut cfg = base(Policy::hw_single_queue(), 8.0e6, 40);
        cfg.trace_capacity = 500;
        let r = ServerSim::new(cfg).run();
        assert_eq!(r.traces.records().len(), 500);
        for t in r.traces.records() {
            // Components sum to the total.
            let total = t.reassembly_ns() + t.dispatch_ns() + t.core_queue_ns() + t.processing_ns();
            assert!((total - t.total_ns()).abs() < 1e-6);
            // Monotone timeline.
            assert!(t.arrival_ps <= t.reassembled_ps);
            assert!(t.reassembled_ps <= t.dispatched_ps);
            assert!(t.started_ps <= t.completed_ps);
        }
        let (re, di, _cq, pr) = r.traces.component_means_ns();
        assert!(re < 20.0, "reassembly of a 1-packet request is a few ns: {re}");
        assert!(di < 100.0, "dispatch path is tens of ns at 40% load: {di}");
        assert!(pr > 700.0, "processing dominates: {pr}");
    }

    #[test]
    fn dynamic_dispatch_balances_cores() {
        let r = ServerSim::new(base(Policy::hw_single_queue(), 10.0e6, 30)).run();
        assert!(
            r.load_balance_jain > 0.99,
            "1x16 should balance near-perfectly, Jain {}",
            r.load_balance_jain
        );
        assert_eq!(r.core_completions.len(), 16);
        assert_eq!(r.core_completions.iter().sum::<u64>(), 60_000);
    }

    #[test]
    fn per_flow_static_is_less_balanced_than_per_message() {
        let mut flow_cfg = base(Policy::hw_static(), 10.0e6, 31);
        flow_cfg.rss_per_flow = true;
        let per_flow = ServerSim::new(flow_cfg).run();
        let per_msg = ServerSim::new(base(Policy::hw_static(), 10.0e6, 31)).run();
        assert!(
            per_flow.load_balance_jain < per_msg.load_balance_jain,
            "per-flow Jain {} should trail per-message Jain {}",
            per_flow.load_balance_jain,
            per_msg.load_balance_jain
        );
    }

    #[test]
    fn preemption_never_triggers_for_short_rpcs() {
        // Fixed 600 ns service: strictly below the quantum, so preemption
        // must be a no-op (exponential service *would* occasionally
        // exceed 5 us and legitimately preempt).
        let mk = |preempt: bool| {
            let mut cfg = base(Policy::hw_single_queue(), 6.0e6, 20);
            cfg.service = ServiceDist::fixed_ns(600.0);
            if preempt {
                cfg.preemption = Some(PreemptionParams::shinjuku_5us());
            }
            ServerSim::new(cfg).run()
        };
        let with = mk(true);
        let without = mk(false);
        assert_eq!(with.preemptions, 0, "600 ns RPCs never hit a 5 us quantum");
        assert_eq!(with.p99_latency_ns, without.p99_latency_ns);
    }

    #[test]
    fn preemption_caps_long_request_monopoly() {
        // A bimodal workload: mostly 1 us requests plus rare 100 us hogs.
        let service = ServiceDist::mixture(vec![
            (0.99, ServiceDist::fixed_ns(1_000.0)),
            (0.01, ServiceDist::fixed_ns(100_000.0)),
        ]);
        let mk = |preempt: bool, policy: Policy| {
            let mut b = SystemConfig::builder()
                .policy(policy)
                .service(service.clone())
                .critical_threshold_ns(50_000.0)
                .rate_rps(4.0e6)
                .requests(80_000)
                .warmup(8_000)
                .seed(21);
            if preempt {
                b = b.preemption(PreemptionParams::shinjuku_5us());
            }
            ServerSim::new(b.build()).run()
        };
        // The static 16x1 system suffers most from hogs; preemption must
        // slash the critical-class tail there.
        let plain = mk(false, Policy::hw_static());
        let preempted = mk(true, Policy::hw_static());
        assert!(preempted.preemptions > 0, "hogs must be preempted");
        assert!(
            preempted.p99_critical_ns < plain.p99_critical_ns / 2.0,
            "preemption should slash the 16x1 critical tail: {} -> {}",
            plain.p99_critical_ns,
            preempted.p99_critical_ns
        );
        // And requests still all complete.
        assert_eq!(preempted.measured, 72_000);
    }

    #[test]
    fn preemption_composes_with_rpcvalet_dispatch() {
        let service = ServiceDist::mixture(vec![
            (0.99, ServiceDist::fixed_ns(1_000.0)),
            (0.01, ServiceDist::fixed_ns(100_000.0)),
        ]);
        let mut cfg = SystemConfig::builder()
            .policy(Policy::hw_single_queue())
            .service(service)
            .critical_threshold_ns(50_000.0)
            .rate_rps(4.0e6)
            .requests(60_000)
            .warmup(6_000)
            .seed(22)
            .preemption(PreemptionParams::shinjuku_5us())
            .build();
        cfg.requests = 60_000;
        let r = ServerSim::new(cfg).run();
        assert!(r.preemptions > 0);
        assert_eq!(r.measured, 54_000, "preempted requests complete exactly once");
    }

    #[test]
    fn dispatcher_high_water_grows_at_saturation() {
        let r = ServerSim::new(base(Policy::hw_single_queue(), 25.0e6, 10)).run();
        assert!(
            r.dispatcher_high_water > 10,
            "overload must queue in the shared CQ, high water {}",
            r.dispatcher_high_water
        );
    }

    fn synthetic_schedule(n: usize, gap_ns: u64, service_ns: f64) -> RequestSchedule {
        RequestSchedule::new(
            (0..n as u64).map(|i| i * gap_ns * 1_000).collect(),
            (0..n as u16).collect(),
            vec![service_ns; n],
        )
    }

    fn replay_cfg(schedule: std::sync::Arc<RequestSchedule>, requests: u64) -> SystemConfig {
        SystemConfig::builder()
            .policy(Policy::hw_single_queue())
            .service(ServiceDist::exponential_mean_ns(600.0))
            .rate_rps(1.0) // ignored under replay: arrivals come from the schedule
            .requests(requests)
            .warmup(100)
            .seed(13)
            .schedule(schedule)
            .build()
    }

    #[test]
    fn replay_respects_recorded_schedule() {
        // 2 000 arrivals at a fixed 500 ns spacing (2 Mrps), fixed 600 ns
        // service. Replay must complete them all, at the implied rate,
        // with the scheduled service time (plus the 220 ns overhead).
        let schedule = std::sync::Arc::new(synthetic_schedule(2_000, 500, 600.0));
        assert_eq!(schedule.implied_rate_rps(), 2.0e6);
        let r = ServerSim::new(replay_cfg(schedule, 2_000)).run();
        assert_eq!(r.measured, 1_900, "every scheduled request completes");
        assert!(
            (r.mean_service_ns - 820.0).abs() < 1.0,
            "scheduled 600 ns service + 220 ns overhead, got {}",
            r.mean_service_ns
        );
        // Low load, fixed everything: latency is flat at the floor.
        assert!(
            (r.p99_latency_ns - r.p50_latency_ns).abs() < 50.0,
            "deterministic schedule at 10% load has no tail: p50 {} p99 {}",
            r.p50_latency_ns,
            r.p99_latency_ns
        );
    }

    #[test]
    fn replay_is_deterministic_and_ignores_generator_config() {
        let schedule = std::sync::Arc::new(synthetic_schedule(1_000, 300, 700.0));
        let a = ServerSim::new(replay_cfg(schedule.clone(), 1_000)).run();
        let mut other = replay_cfg(schedule, 1_000);
        other.rate_rps = 99.0e6; // generator params must be dead code under replay
        other.seed = 999;
        let b = ServerSim::new(other).run();
        assert_eq!(a.p99_latency_ns, b.p99_latency_ns);
        assert_eq!(a.mean_latency_ns, b.mean_latency_ns);
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn replay_can_take_a_prefix_of_the_schedule() {
        let schedule = std::sync::Arc::new(synthetic_schedule(5_000, 400, 600.0));
        let r = ServerSim::new(replay_cfg(schedule, 1_500)).run();
        assert_eq!(r.measured, 1_400);
    }

    #[test]
    #[should_panic(expected = "replay needs")]
    fn replay_rejects_short_schedule() {
        let schedule = std::sync::Arc::new(synthetic_schedule(10, 500, 600.0));
        let _ = replay_cfg(schedule, 500);
    }

    /// One replayed request: arrival ps, recorded source, service ns.
    type Row = (u64, u16, f64);

    /// A replay of `rows` on a `nodes`-node cluster with one send slot
    /// per source, so every second request from a source waits on the
    /// first one's release.
    fn one_slot_replay(policy: &Policy, nodes: usize, rows: &[Row]) -> RunResult {
        let schedule = RequestSchedule::new(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
            rows.iter().map(|r| r.2).collect(),
        );
        let cfg = SystemConfig::builder()
            .policy(policy.clone())
            .cluster_nodes(nodes)
            .send_slots_per_node(1)
            .requests(rows.len() as u64)
            .warmup(0)
            .trace_capacity(rows.len())
            .schedule(std::sync::Arc::new(schedule))
            .build();
        ServerSim::new(cfg).run()
    }

    /// The instant request 0 of a probe run (one 600 ns request from
    /// cluster node 1 at t = 0) frees its send slot, and the instant its
    /// service completed.
    fn probe_release(policy: &Policy) -> (u64, u64) {
        let probe = one_slot_replay(policy, 2, &[(0, 0, 600.0)]);
        let t = probe.traces.records()[0];
        let chip = ChipParams::table1();
        let back = chip.core_to_backend(t.core as usize, chip.backend_for_source(1));
        let release = SimTime::from_ps(t.completed_ps) + back + chip.wire_latency;
        (t.completed_ps, release.as_ps())
    }

    /// Exact `(time, seq)` ties between an arrival and its source's slot
    /// release, under every policy. An arrival's sequence number is taken
    /// when the arrival before it fires, a release's when the service it
    /// ends completes, so the row that precedes the tied arrival decides
    /// which of the two fires first at the shared picosecond: the
    /// deferral counts below prove each tie is hit, and the digest pins
    /// every measured field. `events_processed` describes how the run
    /// was executed, not what it measured, and is left out. (The pinned
    /// value was recorded while `RunResult` still carried two queue
    /// overflow counters, with their fields cut from the `Debug` text.)
    #[test]
    fn same_picosecond_arrival_and_slot_release_pin_their_digest() {
        let mut digest = metrics::Digest64::new();
        for policy in [
            Policy::hw_single_queue(),
            Policy::hw_partitioned(),
            Policy::hw_static(),
            Policy::sw_single_queue(),
        ] {
            let (done, release) = probe_release(&policy);
            // (cluster nodes, rows, expected deferrals)
            let cases: [(usize, Vec<Row>, u64); 6] = [
                // The tied arrival's number predates the release's: it
                // fires first, finds no slot, and the release injects it.
                (2, vec![(0, 0, 600.0), (release, 0, 600.0)], 1),
                // One picosecond either side of the tie.
                (2, vec![(0, 0, 600.0), (release - 1, 0, 600.0)], 1),
                (2, vec![(0, 0, 600.0), (release + 1, 0, 600.0)], 0),
                // Another source's arrival just after the service ends
                // takes the tied arrival's number after the release's:
                // the release fires first and the arrival finds its slot.
                (
                    3,
                    vec![(0, 0, 600.0), (done + 1, 1, 600.0), (release, 0, 600.0)],
                    0,
                ),
                // The same arrival on the service's own picosecond fires
                // before the service ends (its number is older), so the
                // tied arrival's number predates the release again.
                (
                    3,
                    vec![(0, 0, 600.0), (done, 1, 600.0), (release, 0, 600.0)],
                    1,
                ),
                // A same-instant burst from one source queues behind its
                // one slot and drains release by release; the later
                // arrivals from both sources find their slots held.
                (
                    3,
                    vec![
                        (0, 0, 600.0),
                        (0, 0, 300.0),
                        (0, 1, 900.0),
                        (0, 0, 600.0),
                        (release, 0, 600.0),
                        (release, 1, 600.0),
                    ],
                    4,
                ),
            ];
            for (nodes, rows, deferrals) in cases {
                let r = one_slot_replay(&policy, nodes, &rows);
                let label = format!("{policy:?} {rows:?}");
                assert_eq!(r.flow_control_deferrals, deferrals, "{label}");
                assert_eq!(r.measured, rows.len() as u64, "{label}");
                let measured = RunResult {
                    events_processed: 0,
                    ..r
                };
                digest.write_str(&format!("{measured:?}"));
            }
        }
        assert_eq!(digest.hex(), "9ec07bab81825b9e");
    }
}
