//! The Q×U discrete-event queueing simulation of §2.2.
//!
//! Arrivals form a Poisson process of rate `λ = load · servers / S̄`.
//! Each arrival is assigned uniformly at random to one of `Q` FIFOs
//! (`uni[0, Q-1]` in the paper's Fig. 1); each FIFO feeds `U` serving
//! units. Sojourn time (wait + service) is recorded per completion.
//!
//! The model is open loop, so it needs no general event queue: a run is
//! a two-way merge of the arrival stream (one pending arrival, a scalar)
//! with one **calendar** of the requests in service — at most `Q·U`
//! entries, sorted by completion time. Arrival gaps, routes and service
//! times are drawn 256 (`BLOCK`) at a time from their three RNG streams and
//! consumed by the merge loop.
//!
//! Every scheduled event (arrival or completion) also takes the next
//! value of a `seq` counter, and ties on time are broken by it — the
//! first-scheduled-first rule of `simkit`'s event queue. At Fig. 2's
//! 1 ns mean service on a picosecond clock an arrival and a completion
//! share a tick routinely, and the Welford summary and the warm-up cut
//! depend on which goes first, so `seq` is what keeps results
//! bit-identical to the event-queue loop this replaced (kept as the
//! oracle in this file's tests).

use std::cell::RefCell;
use std::collections::VecDeque;

use dist::ServiceDist;
use metrics::{quantiles_unsorted, Summary};
use rand::Rng;
use simkit::rng::stream_rng;
use simkit::{SimDuration, SimTime};

/// A queueing configuration: `queues × servers_per_queue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QxU {
    /// Number of input FIFOs.
    pub queues: usize,
    /// Serving units attached to each FIFO.
    pub servers_per_queue: usize,
}

impl QxU {
    /// The ideal single-queue 16-server system (paper's best case).
    pub const SINGLE_16: QxU = QxU {
        queues: 1,
        servers_per_queue: 16,
    };
    /// 2 queues × 8 servers.
    pub const Q2X8: QxU = QxU {
        queues: 2,
        servers_per_queue: 8,
    };
    /// 4 queues × 4 servers (the intermediate design point of §4.3/§6.1).
    pub const Q4X4: QxU = QxU {
        queues: 4,
        servers_per_queue: 4,
    };
    /// 8 queues × 2 servers.
    pub const Q8X2: QxU = QxU {
        queues: 8,
        servers_per_queue: 2,
    };
    /// The fully partitioned 16×1 system (paper's worst case; RSS-like).
    pub const PARTITIONED_16: QxU = QxU {
        queues: 16,
        servers_per_queue: 1,
    };

    /// The five configurations plotted in Fig. 2a.
    pub const FIG2A_CONFIGS: [QxU; 5] = [
        QxU::SINGLE_16,
        QxU::Q2X8,
        QxU::Q4X4,
        QxU::Q8X2,
        QxU::PARTITIONED_16,
    ];

    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(queues: usize, servers_per_queue: usize) -> Self {
        assert!(
            queues > 0 && servers_per_queue > 0,
            "QxU dimensions must be positive"
        );
        QxU {
            queues,
            servers_per_queue,
        }
    }

    /// Total serving units `Q × U`.
    pub fn total_servers(&self) -> usize {
        self.queues * self.servers_per_queue
    }

    /// The paper's "QxU" label, e.g. `"1x16"`.
    pub fn label(&self) -> String {
        format!("{}x{}", self.queues, self.servers_per_queue)
    }
}

impl std::fmt::Display for QxU {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.queues, self.servers_per_queue)
    }
}

/// A queueing model: a configuration plus a service-time distribution.
#[derive(Debug, Clone)]
pub struct QueueingModel {
    config: QxU,
    service: ServiceDist,
}

/// Parameters for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Offered load as a fraction of total capacity, `λ·S̄ / servers`.
    /// Values ≥ 1 are allowed (the system saturates).
    pub load: f64,
    /// Number of arrivals to generate.
    pub requests: u64,
    /// Completions to discard from the front of the run (warm-up).
    pub warmup: u64,
    /// RNG master seed; identical seeds give identical results.
    pub seed: u64,
}

/// Measured outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration simulated.
    pub config: QxU,
    /// Offered load requested.
    pub offered_load: f64,
    /// Mean of the service distribution (ns).
    pub mean_service_ns: f64,
    /// Sojourn-time statistics (wait + service) over measured completions.
    pub sojourn: Summary,
    /// Exact 99th-percentile sojourn time (ns).
    pub p99_sojourn_ns: f64,
    /// Exact median sojourn time (ns).
    pub p50_sojourn_ns: f64,
    /// Mean waiting time (ns) — sojourn minus service, averaged.
    pub mean_wait_ns: f64,
    /// Achieved throughput over the measurement window (requests/sec).
    pub throughput_rps: f64,
    /// Completions measured (after warm-up).
    pub measured: u64,
    /// Total simulator events popped (arrivals + completions) — feeds
    /// the harness timing sidecar's events/sec accounting.
    pub events: u64,
}

impl RunResult {
    /// p99 sojourn in multiples of the mean service time — the unit of
    /// Fig. 2's and Fig. 9's Y axes.
    pub fn p99_over_mean_service(&self) -> f64 {
        self.p99_sojourn_ns / self.mean_service_ns
    }
}

/// Variates drawn per refill of the gap / route / service buffers.
const BLOCK: usize = 256;

/// A request in service: one calendar entry.
#[derive(Debug, Clone, Copy)]
struct InService {
    /// Completion time, and the `seq` the completion was scheduled with.
    end: SimTime,
    seq: u64,
    queue: usize,
    arrived: SimTime,
    waited_ns: f64,
}

/// The state of one run. Lives once per thread and is reset, not
/// rebuilt, so a sweep's later points reuse the first one's buffers.
#[derive(Default)]
struct Merge {
    /// Sojourn time of every measured completion, in completion order.
    samples: Vec<f64>,
    /// The calendar: requests in service across all queues (≤ Q·U),
    /// sorted by `(end, seq)`.
    calendar: VecDeque<InService>,
    /// Per queue: `(arrival time, service time)` of the requests waiting.
    waiting: Vec<VecDeque<(SimTime, SimDuration)>>,
    /// Per queue: serving units in use.
    busy: Vec<usize>,
    warmup: u64,
    completions: u64,
    wait_sum: f64,
    window_start: SimTime,
    window_end: SimTime,
    /// The next scheduling sequence number.
    seq: u64,
}

thread_local! {
    static MERGE: RefCell<Merge> = RefCell::new(Merge::default());
}

impl QueueingModel {
    /// Creates a model from a configuration and service distribution.
    ///
    /// # Panics
    /// Panics if the service distribution's mean is not finite/positive.
    pub fn new(config: QxU, service: ServiceDist) -> Self {
        let m = service.mean_ns();
        assert!(
            m.is_finite() && m > 0.0,
            "service distribution mean must be positive and finite, got {m}"
        );
        QueueingModel { config, service }
    }

    /// The configuration.
    pub fn config(&self) -> QxU {
        self.config
    }

    /// The service-time distribution.
    pub fn service(&self) -> &ServiceDist {
        &self.service
    }

    /// Runs the simulation and gathers sojourn-time statistics.
    ///
    /// # Panics
    /// Panics if `params.requests == 0`, `warmup >= requests`, or `load`
    /// is not positive and finite — before anything is drawn or borrowed.
    pub fn run(&self, params: &RunParams) -> RunResult {
        assert!(params.requests > 0, "need at least one request");
        assert!(
            params.warmup < params.requests,
            "warmup ({}) must be below requests ({})",
            params.warmup,
            params.requests
        );
        assert!(
            params.load > 0.0 && params.load.is_finite(),
            "load must be positive, got {}",
            params.load
        );

        let lambda_per_ns =
            params.load * self.config.total_servers() as f64 / self.service.mean_ns();
        let gaps = ServiceDist::exponential_mean_ns(1.0 / lambda_per_ns);
        MERGE.with(|merge| merge.borrow_mut().run(self, params, &gaps))
    }
}

impl Merge {
    /// Per arrival: first every completion that precedes it in
    /// `(time, seq)` order, then the arrival itself; after the last
    /// arrival the calendar is drained.
    fn run(&mut self, model: &QueueingModel, params: &RunParams, gaps: &ServiceDist) -> RunResult {
        let (queues, servers_per_queue) = (model.config.queues, model.config.servers_per_queue);
        let service = &model.service;
        self.samples.clear();
        self.samples
            .reserve((params.requests - params.warmup) as usize);
        self.calendar.clear();
        self.waiting.iter_mut().for_each(VecDeque::clear);
        if self.waiting.len() < queues {
            self.waiting.resize_with(queues, VecDeque::new);
        }
        self.busy.clear();
        self.busy.resize(queues, 0);
        self.warmup = params.warmup;
        (self.completions, self.wait_sum) = (0, 0.0);
        (self.window_start, self.window_end) = (SimTime::ZERO, SimTime::ZERO);

        let mut arrival_rng = stream_rng(params.seed, 0);
        let mut route_rng = stream_rng(params.seed, 1);
        let mut service_rng = stream_rng(params.seed, 2);
        let (mut gap_ns, mut route, mut service_ns) = ([0.0; BLOCK], [0; BLOCK], [0.0; BLOCK]);
        // The first arrival is scheduled with seq 0.
        let (mut now, mut arrival_seq) = (SimTime::ZERO, 0);
        self.seq = 1;
        let mut arrivals_left = params.requests;
        while arrivals_left > 0 {
            // Refills are clamped to the run: no stream is read further
            // than its one draw per request.
            let n = arrivals_left.min(BLOCK as u64) as usize;
            gaps.sample_block(&mut arrival_rng, &mut gap_ns[..n]);
            route[..n].fill_with(|| route_rng.gen_range(0..queues));
            service.sample_block(&mut service_rng, &mut service_ns[..n]);
            for i in 0..n {
                now += SimDuration::from_ns_f64(gap_ns[i]);
                self.complete_before(now, arrival_seq);
                let (queue, svc) = (route[i], SimDuration::from_ns_f64(service_ns[i]));
                if self.busy[queue] < servers_per_queue {
                    self.busy[queue] += 1;
                    self.start(now + svc, queue, now, 0.0);
                } else {
                    self.waiting[queue].push_back((now, svc));
                }
                arrivals_left -= 1;
                // The next arrival is scheduled now (after the last one
                // the number goes unused, which shifts no order).
                arrival_seq = self.seq;
                self.seq += 1;
            }
        }
        self.complete_before(SimTime::MAX, u64::MAX);
        self.result(model, params)
    }

    /// The statistics of a finished run, from `samples` (in completion
    /// order), `wait_sum`, `window_*` and `completions`.
    fn result(&mut self, model: &QueueingModel, params: &RunParams) -> RunResult {
        // Welford in completion order, then O(n) selection (which
        // reorders the samples) for both quantiles.
        let mut sojourn = Summary::new();
        sojourn.record_block(&self.samples);
        let measured = sojourn.count();
        let qs = quantiles_unsorted(&mut self.samples, &[0.99, 0.50]);
        let span = self.window_end.saturating_duration_since(self.window_start);
        RunResult {
            config: model.config,
            offered_load: params.load,
            mean_service_ns: model.service.mean_ns(),
            sojourn,
            p99_sojourn_ns: qs[0],
            p50_sojourn_ns: qs[1],
            mean_wait_ns: self.wait_sum / measured as f64,
            throughput_rps: if span > SimDuration::ZERO {
                measured as f64 / span.as_ns_f64() * 1e9
            } else {
                0.0
            },
            measured,
            // One (virtual) pop per arrival and per completion.
            events: params.requests + self.completions,
        }
    }

    /// Puts a request into service until `end`: appended, then moved
    /// forward past every later `end`. `seq` only grows, so stopping at
    /// an equal `end` keeps the calendar sorted by `(end, seq)`. (On ≤ 16
    /// entries this measured ~8 ns per request faster than
    /// `partition_point` + `insert`.)
    fn start(&mut self, end: SimTime, queue: usize, arrived: SimTime, waited_ns: f64) {
        let mut at = self.calendar.len();
        self.calendar.push_back(InService {
            end,
            seq: self.seq,
            queue,
            arrived,
            waited_ns,
        });
        self.seq += 1;
        while at > 0 && self.calendar[at - 1].end > end {
            self.calendar.swap(at - 1, at);
            at -= 1;
        }
    }

    /// Completes, in order, every request whose `(end, seq)` precedes
    /// `(time, seq)`; each completion promotes its queue's next waiter.
    fn complete_before(&mut self, time: SimTime, seq: u64) {
        while let Some(&done) = self.calendar.front() {
            if (done.end, done.seq) >= (time, seq) {
                break;
            }
            self.calendar.pop_front();
            let now = done.end;
            self.completions += 1;
            if self.completions == self.warmup {
                self.window_start = now;
            }
            if self.completions > self.warmup {
                self.samples
                    .push(now.duration_since(done.arrived).as_ns_f64());
                self.wait_sum += done.waited_ns;
                self.window_end = now;
            }
            if let Some((arrived, svc)) = self.waiting[done.queue].pop_front() {
                let waited_ns = now.duration_since(arrived).as_ns_f64();
                self.start(now + svc, done.queue, arrived, waited_ns);
            } else {
                self.busy[done.queue] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist::SyntheticKind;
    use simkit::EventQueue;

    /// The oracle: a loop on the general `simkit::EventQueue`,
    /// statistics tail included — two event-queue push+pops and two
    /// scalar draws per request, one sorted in-service deque per queue,
    /// one `Summary::record` per completion. Shares nothing with
    /// [`Merge`]. Returns the `RunResult`'s `Debug` text (shortest
    /// round-trip floats: equal text, equal bits) and two counts of how
    /// often the tie rule decided: pops that shared their tick with the
    /// pop before them while being of the other kind, and, of those,
    /// completions popped after an arrival of their own tick (scheduled
    /// later than it: the order only `seq` knows). An event is `None`
    /// for an arrival, `Some(queue)` for a completion.
    fn engine_run(model: &QueueingModel, params: &RunParams) -> (String, u64, u64) {
        fn exp_gap(rng: &mut impl Rng, mean_ns: f64) -> SimDuration {
            let u: f64 = rng.gen();
            SimDuration::from_ns_f64(-mean_ns * (1.0 - u).ln())
        }
        // (end, arrival, wait_ns), kept sorted by end.
        type InService = VecDeque<(SimTime, SimTime, f64)>;
        fn insert_by_end(dq: &mut InService, item: (SimTime, SimTime, f64)) {
            dq.insert(dq.partition_point(|&(end, _, _)| end <= item.0), item);
        }
        let (queues, servers_per_queue) = (model.config.queues, model.config.servers_per_queue);
        let mean_service_ns = model.service.mean_ns();
        let mean_gap_ns =
            1.0 / (params.load * model.config.total_servers() as f64 / mean_service_ns);
        let mut arrival_rng = stream_rng(params.seed, 0);
        let mut route_rng = stream_rng(params.seed, 1);
        let mut service_rng = stream_rng(params.seed, 2);
        let horizon =
            SimDuration::from_ns_f64(mean_service_ns * 8.0).max(SimDuration::from_ps(512));
        let mut events: EventQueue<Option<usize>> = EventQueue::with_horizon(horizon);
        let mut fired = 0;
        let mut waiting: Vec<VecDeque<(SimTime, SimDuration)>> = vec![VecDeque::new(); queues];
        let mut busy = vec![0; queues];
        let mut in_service: Vec<InService> = vec![VecDeque::new(); queues];

        let mut arrivals_left = params.requests - 1;
        let (mut completions, mut wait_sum) = (0, 0.0);
        let (mut sojourn, mut samples) = (Summary::new(), Vec::new());
        let (mut window_start, mut window_end) = (SimTime::ZERO, SimTime::ZERO);
        let (mut same_tick, mut arrival_first) = (0, 0);
        let (mut last, mut last_arrival) = (None, None);
        events.push(SimTime::ZERO + exp_gap(&mut arrival_rng, mean_gap_ns), None);
        while let Some(scheduled) = events.pop() {
            let now = scheduled.time;
            fired += 1;
            let is_arrival = scheduled.event.is_none();
            same_tick += (last == Some((now, !is_arrival))) as u64;
            last = Some((now, is_arrival));
            match scheduled.event {
                None => {
                    last_arrival = Some(now);
                    let queue = route_rng.gen_range(0..queues);
                    let svc = model.service.sample(&mut service_rng);
                    if busy[queue] < servers_per_queue {
                        busy[queue] += 1;
                        insert_by_end(&mut in_service[queue], (now + svc, now, 0.0));
                        events.push(now + svc, Some(queue));
                    } else {
                        waiting[queue].push_back((now, svc));
                    }
                    if arrivals_left > 0 {
                        arrivals_left -= 1;
                        events.push(now + exp_gap(&mut arrival_rng, mean_gap_ns), None);
                    }
                }
                Some(queue) => {
                    arrival_first += (last_arrival == Some(now)) as u64;
                    let (_end, arrived, waited_ns) = in_service[queue].pop_front().unwrap();
                    completions += 1;
                    if completions == params.warmup {
                        window_start = now;
                    }
                    if completions > params.warmup {
                        let s = now.duration_since(arrived);
                        sojourn.record(s);
                        samples.push(s.as_ns_f64());
                        wait_sum += waited_ns;
                        window_end = now;
                    }
                    if let Some((arr, svc)) = waiting[queue].pop_front() {
                        let waited = now.duration_since(arr).as_ns_f64();
                        insert_by_end(&mut in_service[queue], (now + svc, arr, waited));
                        events.push(now + svc, Some(queue));
                    } else {
                        busy[queue] -= 1;
                    }
                }
            }
        }

        let measured = sojourn.count();
        let span_ns = window_end
            .saturating_duration_since(window_start)
            .as_ns_f64();
        let qs = quantiles_unsorted(&mut samples, &[0.99, 0.50]);
        let result = RunResult {
            config: model.config,
            offered_load: params.load,
            mean_service_ns,
            sojourn,
            p99_sojourn_ns: qs[0],
            p50_sojourn_ns: qs[1],
            mean_wait_ns: wait_sum / measured as f64,
            throughput_rps: if span_ns > 0.0 {
                measured as f64 / span_ns * 1e9
            } else {
                0.0
            },
            measured,
            events: fired,
        };
        (format!("{result:?}"), same_tick, arrival_first)
    }

    #[test]
    fn merge_matches_the_engine_oracle_bit_for_bit() {
        for config in QxU::FIG2A_CONFIGS {
            for kind in SyntheticKind::ALL {
                let model = QueueingModel::new(config, kind.normalized());
                for load in [0.05, 0.3, 0.7, 0.95, 1.1] {
                    // Request counts straddle the variate block size.
                    for requests in [1, 2, 255, 256, 257, 20_037] {
                        for warmup in [0, requests / 10] {
                            let seed = 2019 + requests;
                            let params = RunParams {
                                load,
                                requests,
                                warmup,
                                seed,
                            };
                            let got = model.run(&params);
                            assert_eq!(got.events, 2 * requests);
                            let oracle = engine_run(&model, &params).0;
                            assert_eq!(format!("{got:?}"), oracle, "{kind} {params:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_comparison_exercises_the_tie_rule() {
        // 1 ns fixed service on a picosecond clock: an arrival lands on
        // a completion's tick hundreds of times in 20 k requests.
        let model = QueueingModel::new(QxU::PARTITIONED_16, ServiceDist::fixed_ns(1.0));
        let params = RunParams {
            load: 0.9,
            requests: 20_037,
            warmup: 2_003,
            seed: 7,
        };
        let (oracle, same_tick, _) = engine_run(&model, &params);
        assert!(same_tick > 100, "only {same_tick} same-tick pops");
        assert_eq!(format!("{:?}", model.run(&params)), oracle);
    }

    #[test]
    fn seq_orders_ties_that_time_alone_cannot() {
        // Service times of a few picoseconds on the picosecond clock, two
        // to four servers so that arrival gaps are as long as services:
        // a request promoted after the previous arrival often ends on
        // the next arrival's tick, and that arrival, scheduled first,
        // goes first. "Completions before arrivals" on time alone gets
        // exactly these wrong (the time-only rule the two tests above do
        // not catch), and every run here has dozens of them.
        for service in [
            ServiceDist::fixed_ns(0.004),
            ServiceDist::uniform_ns(0.0, 0.008),
            ServiceDist::exponential_mean_ns(0.004),
        ] {
            for config in [QxU::new(1, 2), QxU::new(2, 1), QxU::new(2, 2)] {
                let model = QueueingModel::new(config, service.clone());
                for load in [0.7, 0.95] {
                    let params = RunParams {
                        load,
                        requests: 5_000,
                        warmup: 500,
                        seed: 16,
                    };
                    let (oracle, _, arrival_first) = engine_run(&model, &params);
                    assert!(arrival_first > 50, "{config} {load}: {arrival_first}");
                    assert_eq!(format!("{:?}", model.run(&params)), oracle);
                }
            }
        }
    }

    fn run(config: QxU, service: ServiceDist, load: f64, seed: u64) -> RunResult {
        QueueingModel::new(config, service).run(&RunParams {
            load,
            requests: 120_000,
            warmup: 20_000,
            seed,
        })
    }

    #[test]
    fn low_load_sojourn_approaches_service_time() {
        let r = run(QxU::SINGLE_16, ServiceDist::fixed_ns(100.0), 0.05, 1);
        // Almost no queueing: mean sojourn ≈ service time.
        assert!(
            (r.sojourn.mean_ns() - 100.0).abs() < 2.0,
            "mean sojourn {}",
            r.sojourn.mean_ns()
        );
        assert!(r.mean_wait_ns < 1.0);
    }

    #[test]
    fn single_queue_beats_partitioned_at_high_load() {
        let svc = ServiceDist::exponential_mean_ns(1.0);
        let single = run(QxU::SINGLE_16, svc.clone(), 0.7, 2);
        let part = run(QxU::PARTITIONED_16, svc, 0.7, 2);
        assert!(
            single.p99_sojourn_ns < part.p99_sojourn_ns,
            "1x16 p99 {} should beat 16x1 p99 {}",
            single.p99_sojourn_ns,
            part.p99_sojourn_ns
        );
        // The paper's Fig. 2a shows a large gap; expect at least 2x.
        assert!(part.p99_sojourn_ns / single.p99_sojourn_ns > 2.0);
    }

    #[test]
    fn intermediate_configs_are_ordered() {
        // Performance is proportional to U (paper §2.2).
        let svc = ServiceDist::exponential_mean_ns(1.0);
        let p99: Vec<f64> = QxU::FIG2A_CONFIGS
            .iter()
            .map(|&c| run(c, svc.clone(), 0.75, 3).p99_sojourn_ns)
            .collect();
        for w in p99.windows(2) {
            assert!(
                w[0] <= w[1] * 1.05, // allow 5% simulation noise
                "p99 ordering violated: {p99:?}"
            );
        }
    }

    #[test]
    fn variance_ordering_matches_fig2b() {
        // TL_fixed < TL_uni < TL_exp at equal load on 1x16.
        let loads = 0.8;
        let fixed = run(QxU::SINGLE_16, ServiceDist::fixed_ns(1.0), loads, 4);
        let uni = run(QxU::SINGLE_16, ServiceDist::uniform_ns(0.0, 2.0), loads, 4);
        let exp = run(QxU::SINGLE_16, ServiceDist::exponential_mean_ns(1.0), loads, 4);
        assert!(
            fixed.p99_over_mean_service() < uni.p99_over_mean_service()
                && uni.p99_over_mean_service() < exp.p99_over_mean_service(),
            "tail ordering: fixed {} uni {} exp {}",
            fixed.p99_over_mean_service(),
            uni.p99_over_mean_service(),
            exp.p99_over_mean_service()
        );
    }

    #[test]
    fn throughput_tracks_offered_load() {
        let r = run(QxU::SINGLE_16, ServiceDist::exponential_mean_ns(100.0), 0.5, 5);
        // λ = 0.5 * 16 / 100ns = 0.08/ns = 80 Mrps.
        let expected = 0.5 * 16.0 / 100e-9;
        assert!(
            (r.throughput_rps - expected).abs() / expected < 0.05,
            "throughput {} vs expected {expected}",
            r.throughput_rps
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let svc = ServiceDist::exponential_mean_ns(1.0);
        let a = run(QxU::Q4X4, svc.clone(), 0.6, 42);
        let b = run(QxU::Q4X4, svc, 0.6, 42);
        assert_eq!(a.p99_sojourn_ns, b.p99_sojourn_ns);
        assert_eq!(a.sojourn.mean_ns(), b.sojourn.mean_ns());
    }

    #[test]
    fn different_seeds_differ() {
        let svc = ServiceDist::exponential_mean_ns(1.0);
        let a = run(QxU::Q4X4, svc.clone(), 0.6, 1);
        let b = run(QxU::Q4X4, svc, 0.6, 2);
        assert_ne!(a.p99_sojourn_ns, b.p99_sojourn_ns);
    }

    #[test]
    fn saturated_system_tail_blows_up() {
        let r = run(QxU::SINGLE_16, ServiceDist::exponential_mean_ns(1.0), 1.1, 6);
        assert!(
            r.p99_over_mean_service() > 20.0,
            "overloaded p99/S̄ {} should explode",
            r.p99_over_mean_service()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(QxU::SINGLE_16.label(), "1x16");
        assert_eq!(QxU::PARTITIONED_16.to_string(), "16x1");
        assert_eq!(QxU::new(2, 8).total_servers(), 16);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        QxU::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn warmup_validation() {
        QueueingModel::new(QxU::SINGLE_16, ServiceDist::fixed_ns(1.0)).run(&RunParams {
            load: 0.5,
            requests: 10,
            warmup: 10,
            seed: 0,
        });
    }

    #[test]
    fn invalid_params_panic_before_the_run_and_leave_the_thread_usable() {
        // The asserts fire before the per-thread state is touched, and a
        // run resets that state before using it: a pool thread that
        // caught a panic runs its next job as if nothing happened.
        let model = QueueingModel::new(QxU::SINGLE_16, ServiceDist::fixed_ns(1.0));
        let run = |load, requests, warmup| {
            let params = RunParams {
                load,
                requests,
                warmup,
                seed: 0,
            };
            format!("{:?}", model.run(&params))
        };
        let good = run(0.9, 2_000, 200);
        for (load, requests, warmup, message) in [
            (0.5, 0, 0, "need at least one request"),
            (0.5, 10, 10, "warmup (10) must be below requests (10)"),
            (f64::NAN, 10, 1, "load must be positive, got NaN"),
            (0.0, 10, 1, "load must be positive, got 0"),
        ] {
            let panic = std::panic::catch_unwind(|| run(load, requests, warmup)).unwrap_err();
            let text = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                text.or(panic.downcast_ref::<&str>().copied()),
                Some(message)
            );
            assert_eq!(run(0.9, 2_000, 200), good);
        }
    }
}
