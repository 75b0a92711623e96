//! The open-loop Poisson client — the one load generator every live run
//! uses, against one server or a whole cluster.
//!
//! Open-loop means arrivals follow a precomputed Poisson schedule that
//! does **not** react to response times — the only methodology that
//! exposes queueing collapse (a closed-loop generator self-throttles and
//! hides it). Latency is measured from each request's *scheduled* send
//! time, so generator lag under overload shows up as latency, exactly as
//! it would for real clients.
//!
//! The client routes through a [`NodeDirectory`]; one server is a
//! one-entry directory. Each flow pins one connection to the node it
//! maps to. A redirect from a draining node or a severed socket requeues
//! the request, up to [`RETRY_LIMIT`] resends, so every request ends in
//! exactly one of completed / redirected / rejected, tallied in a
//! [`RequestAccounting`]; anything else is *lost*.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dist::ServiceDist;
use metrics::{jain_index, LatencyHistogram, RequestAccounting};
use rand::Rng;
use simkit::rng::stream_rng;
use simkit::SimDuration;
use telemetry::{JobSeries, SeriesRecorder};

use crate::cluster::NodeDirectory;
use crate::protocol::{read_frame, Redirect, Request, Response, KIND_REDIRECT, KIND_RESPONSE};

/// Upper bound on worker ids tracked in balance statistics; responses
/// claiming a larger id are counted for latency but not balance (the id
/// is wire data and must not size allocations).
pub const MAX_TRACKED_WORKERS: usize = 4_096;

/// Resends per request before the client gives up and counts it
/// rejected (a redirect and a severed socket each cost one attempt).
pub const RETRY_LIMIT: u32 = 5;

/// Client configuration, derived from a run's
/// [`crate::LiveRunConfig`] by [`crate::LiveRunConfig::balancer_config`].
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Client flows (each pins one connection to its mapped node; with
    /// an RSS server this is the flow population).
    pub flows: usize,
    /// Requests to send.
    pub requests: u64,
    /// Completions with `req_id < warmup` are excluded from statistics.
    pub warmup: u64,
    /// Offered load (requests/second, whole tier).
    pub rate_rps: f64,
    /// Service-demand distribution (ns, before scaling).
    pub service: ServiceDist,
    /// Multiplier applied to each sampled service time (e.g. 1000 turns
    /// the paper's ns-scale profiles into µs-scale sleeps).
    pub scale: f64,
    /// RNG master seed: stream 0 draws the arrival gaps, stream 1 the
    /// flows, stream 2 the service demands.
    pub seed: u64,
    /// Total workers across the tier, so balance statistics include
    /// workers that served nothing.
    pub workers_hint: usize,
    /// Give up waiting for stragglers after this long past the last send.
    pub drain_timeout: Duration,
    /// `Some(interval)` records a client-side windowed latency series,
    /// bucketed on the client's own clock: arrivals at each measured
    /// request's *scheduled* send time, completions at receive time.
    pub series_interval: Option<Duration>,
    /// `true` severs every even-numbered flow's socket at 40 % and 60 %
    /// of the schedule — the reconnect storm.
    pub churn: bool,
}

/// Measured outcome of one client run.
#[derive(Debug, Clone)]
pub struct LiveRunStats {
    /// End-to-end latency histogram over measured completions.
    pub hist: LatencyHistogram,
    /// Requests sent.
    pub sent: u64,
    /// Responses received (each request at most once).
    pub received: u64,
    /// Responses counted in the histogram (post-warm-up).
    pub measured: u64,
    /// Wall-clock from first send to last receive.
    pub elapsed: Duration,
    /// Measured completions per second over the measurement window.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (ns).
    pub mean_latency_ns: f64,
    /// Median end-to-end latency (ns).
    pub p50_latency_ns: f64,
    /// 99th-percentile end-to-end latency (ns).
    pub p99_latency_ns: f64,
    /// Mean *intended* service demand over sent requests (ns, scaled).
    pub mean_service_ns: f64,
    /// Post-warm-up completions per worker, slotted at
    /// `node * workers_per_node + worker` (just `worker` on one node).
    pub worker_completions: Vec<u64>,
    /// Jain fairness index over [`LiveRunStats::worker_completions`].
    pub load_balance_jain: f64,
    /// Client-side windowed latency series (present when
    /// [`BalancerConfig::series_interval`] was set): arrivals at
    /// scheduled send times, completions with end-to-end latency at
    /// receive times, per-worker completion share as dispatch groups.
    pub series: Option<JobSeries>,
}

impl LiveRunStats {
    /// The one-paragraph human summary the `loadgen` binary prints.
    pub fn summary(&self) -> String {
        format!(
            "sent {} received {} measured {}\n\
             throughput {:.1} rps over {:.2} s\n\
             latency p50 {:.3} ms  p99 {:.3} ms  mean {:.3} ms (from scheduled send)\n\
             service mean {:.3} ms  load-balance Jain {:.3}",
            self.sent,
            self.received,
            self.measured,
            self.throughput_rps,
            self.elapsed.as_secs_f64(),
            self.p50_latency_ns / 1e6,
            self.p99_latency_ns / 1e6,
            self.mean_latency_ns / 1e6,
            self.mean_service_ns / 1e6,
            self.load_balance_jain,
        )
    }
}

/// What one request still in flight looks like to the client.
#[derive(Debug)]
struct Pending {
    /// Scheduled send time (the open-loop latency origin — resends keep
    /// it, so redirect detours show up as latency).
    sent_at_ns: u64,
    service_ns: u64,
    /// Resends so far; past [`RETRY_LIMIT`] the request is rejected.
    attempts: u32,
    /// Owning flow (used to requeue when that flow's socket dies).
    flow: usize,
}

struct Agg {
    hist: LatencyHistogram,
    worker_counts: Vec<u64>,
    received: u64,
    first_measured_ns: Option<u64>,
    last_measured_ns: Option<u64>,
    series: Option<SeriesRecorder>,
}

/// State shared between the sender, the per-connection readers, and the
/// failure drivers. Terminal accounting transitions happen exactly once,
/// under the `outstanding` lock: whoever removes the entry counts it.
struct BalancerShared {
    outstanding: Mutex<BTreeMap<u64, Pending>>,
    retry: Mutex<VecDeque<u64>>,
    agg: Mutex<Agg>,
    completed: AtomicU64,
    redirected: AtomicU64,
    rejected: AtomicU64,
    redirect_frames: AtomicU64,
    warmup: u64,
    /// Workers per node: response frames tag the *node-local* worker
    /// index, so balance statistics slot them at
    /// `node * workers_per_node + worker` to keep nodes distinct.
    workers_per_node: usize,
}

impl BalancerShared {
    /// Bumps `attempts` on a still-outstanding request and either
    /// requeues it or (past the retry limit) rejects it.
    fn penalize(&self, req_id: u64) {
        let mut outstanding = self.outstanding.lock().expect("outstanding");
        if let Some(pending) = outstanding.get_mut(&req_id) {
            pending.attempts += 1;
            if pending.attempts > RETRY_LIMIT {
                outstanding.remove(&req_id);
                self.rejected.fetch_add(1, Ordering::Relaxed);
            } else {
                drop(outstanding);
                self.retry.lock().expect("retry").push_back(req_id);
            }
        }
    }

    /// Requeues everything a severed flow still had in flight.
    fn penalize_flow(&self, flow: usize) {
        let ids: Vec<u64> = {
            let outstanding = self.outstanding.lock().expect("outstanding");
            outstanding
                .iter()
                .filter(|(_, p)| p.flow == flow)
                .map(|(id, _)| *id)
                .collect()
        };
        for id in ids {
            self.penalize(id);
        }
    }
}

/// One flow's current connection: the write half plus the directory
/// coordinates it was resolved at.
struct FlowConn {
    stream: TcpStream,
    node: usize,
    addr: SocketAddr,
    epoch: u64,
}

/// Connects `flow` to the node it maps to right now.
fn connect_flow(directory: &NodeDirectory, flow: usize) -> io::Result<FlowConn> {
    let (epoch, node, addr) = directory
        .route(flow as u64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no node is alive"))?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(FlowConn {
        stream,
        node,
        addr,
        epoch,
    })
}

/// The sender-side half of the client: flow connections plus the
/// bookkeeping to open, re-point, and finally reap them.
struct Balancer {
    shared: Arc<BalancerShared>,
    directory: Arc<NodeDirectory>,
    flows: Vec<Option<FlowConn>>,
    readers: Vec<JoinHandle<()>>,
    /// Clones of every socket ever opened, for the final
    /// unblock-and-join (re-pointed flows leave their old reader
    /// draining until then).
    socks: Vec<TcpStream>,
    clock: Instant,
}

impl Balancer {
    /// Resends everything queued for retry (stragglers jump the Poisson
    /// schedule — they are already late).
    fn drain_retries(&mut self) {
        loop {
            let req_id = self.shared.retry.lock().expect("retry").pop_front();
            let Some(req_id) = req_id else { return };
            let pending = {
                let outstanding = self.shared.outstanding.lock().expect("outstanding");
                outstanding
                    .get(&req_id)
                    .map(|p| (p.sent_at_ns, p.service_ns, p.flow))
            };
            // Completed while queued (e.g. the "dead" socket delivered
            // after all): nothing to do.
            let Some((sent_at_ns, service_ns, flow)) = pending else {
                continue;
            };
            self.send_on_flow(flow, req_id, sent_at_ns, service_ns);
        }
    }

    /// Writes one request on its flow's connection, (re)resolving the
    /// flow against the directory first. A connect or write failure
    /// penalizes the request and leaves it to the retry queue.
    fn send_on_flow(&mut self, flow: usize, req_id: u64, sent_at_ns: u64, service_ns: u64) {
        if !self.ensure_flow(flow) {
            self.shared.penalize(req_id);
            return;
        }
        let frame = Request {
            req_id,
            sent_at_ns,
            service_ns,
        }
        .encode();
        let conn = self.flows[flow].as_mut().expect("flow just ensured");
        if (&conn.stream).write_all(&frame).is_err() {
            // The node died under us: drop the connection and let the
            // retry (re-resolved against the directory) find a live one.
            self.flows[flow] = None;
            self.shared.penalize(req_id);
        }
    }

    /// Makes sure `flow` has a connection resolved at the current
    /// directory epoch, opening or re-pointing it as needed. Old
    /// sockets are *not* closed on re-point — their readers keep
    /// draining responses the previous node still owes us.
    fn ensure_flow(&mut self, flow: usize) -> bool {
        if let Some(conn) = &self.flows[flow] {
            if conn.epoch == self.directory.epoch() {
                return true;
            }
            match self.directory.route(flow as u64) {
                // Same destination after the epoch bump; keep the socket.
                Some((epoch, node, addr)) if node == conn.node && addr == conn.addr => {
                    self.flows[flow].as_mut().expect("checked").epoch = epoch;
                    return true;
                }
                Some(_) => self.flows[flow] = None,
                None => return false,
            }
        }
        connect_flow(&self.directory, flow)
            .and_then(|conn| self.attach(flow, conn))
            .is_ok()
    }

    /// Installs a freshly opened connection as `flow`'s, starts its
    /// reader, and keeps a clone of its socket for the final
    /// unblock-and-join.
    fn attach(&mut self, flow: usize, conn: FlowConn) -> io::Result<()> {
        let read_half = conn.stream.try_clone()?;
        self.socks.push(conn.stream.try_clone()?);
        let shared = Arc::clone(&self.shared);
        let directory = Arc::clone(&self.directory);
        let (node, addr, clock) = (conn.node, conn.addr, self.clock);
        self.readers.push(
            std::thread::Builder::new()
                .name("loadgen-reader".to_owned())
                .spawn(move || reader_loop(read_half, shared, directory, node, addr, clock))?,
        );
        self.flows[flow] = Some(conn);
        Ok(())
    }

    /// The reconnect storm: sever every even flow's socket outright and
    /// requeue whatever was riding on it.
    fn sever_even_flows(&mut self) {
        for flow in (0..self.flows.len()).step_by(2) {
            if let Some(conn) = self.flows[flow].take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.shared.penalize_flow(flow);
            }
        }
    }
}

/// Drives the servers of `directory` with the open-loop Poisson schedule,
/// following redirects and surviving severed sockets. Returns client
/// statistics, the request accounting, and the number of redirect frames
/// observed.
///
/// Every flow connects before the clock starts, so connection set-up is
/// never part of a latency; a failure to connect then is the returned
/// error. Later connect or send failures retry the request and, past
/// [`RETRY_LIMIT`], reject it.
///
/// # Panics
/// Panics on nonsensical configuration (0 requests/flows, non-positive
/// rate, `warmup ≥ requests`).
pub fn run_balancer(
    cfg: &BalancerConfig,
    directory: &Arc<NodeDirectory>,
) -> io::Result<(LiveRunStats, RequestAccounting, u64)> {
    assert!(cfg.requests > 0, "need at least one request");
    assert!(cfg.flows > 0, "need at least one flow");
    assert!(
        cfg.rate_rps > 0.0 && cfg.rate_rps.is_finite(),
        "rate must be positive"
    );
    assert!(
        cfg.warmup < cfg.requests,
        "warmup ({}) must be below requests ({})",
        cfg.warmup,
        cfg.requests
    );

    let opened = (0..cfg.flows)
        .map(|flow| connect_flow(directory, flow))
        .collect::<io::Result<Vec<_>>>()?;
    let workers = cfg.workers_hint.max(1);
    let shared = Arc::new(BalancerShared {
        outstanding: Mutex::new(BTreeMap::new()),
        retry: Mutex::new(VecDeque::new()),
        agg: Mutex::new(Agg {
            hist: LatencyHistogram::new(),
            worker_counts: vec![0; cfg.workers_hint],
            received: 0,
            first_measured_ns: None,
            last_measured_ns: None,
            series: cfg.series_interval.map(|interval| {
                let interval_ps = (interval.as_nanos() as u64).max(1).saturating_mul(1_000);
                SeriesRecorder::new(interval_ps, workers, workers)
            }),
        }),
        completed: AtomicU64::new(0),
        redirected: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        redirect_frames: AtomicU64::new(0),
        warmup: cfg.warmup,
        workers_per_node: (cfg.workers_hint / directory.nodes().len().max(1)).max(1),
    });
    let mut balancer = Balancer {
        shared: Arc::clone(&shared),
        directory: Arc::clone(directory),
        flows: (0..cfg.flows).map(|_| None).collect(),
        readers: Vec::with_capacity(cfg.flows),
        socks: Vec::with_capacity(cfg.flows),
        clock: Instant::now(),
    };
    for (flow, conn) in opened.into_iter().enumerate() {
        balancer.attach(flow, conn)?;
    }

    crate::reduce_timer_slack();
    let mut arrival_rng = stream_rng(cfg.seed, 0);
    let mut route_rng = stream_rng(cfg.seed, 1);
    let mut service_rng = stream_rng(cfg.seed, 2);
    let mean_gap_ns = 1e9 / cfg.rate_rps;
    let mut next_send_ns = 0.0f64;
    let mut service_sum_ns = 0.0f64;
    // The reconnect storm severs even flows at these points in the
    // schedule (request counts, not wall-clock, so tests are exact).
    let churn_points: [u64; 2] = [cfg.requests * 2 / 5, cfg.requests * 3 / 5];

    for req_id in 0..cfg.requests {
        balancer.drain_retries();
        if cfg.churn && churn_points.contains(&req_id) {
            balancer.sever_even_flows();
        }
        let u: f64 = arrival_rng.gen();
        next_send_ns += -mean_gap_ns * (1.0 - u).ln();
        wait_until(balancer.clock, next_send_ns as u64);
        let service_ns = (cfg.service.sample_ns(&mut service_rng) * cfg.scale).max(0.0) as u64;
        service_sum_ns += service_ns as f64;
        let flow = route_rng.gen_range(0..cfg.flows);
        shared.outstanding.lock().expect("outstanding").insert(
            req_id,
            Pending {
                sent_at_ns: next_send_ns as u64,
                service_ns,
                attempts: 0,
                flow,
            },
        );
        balancer.send_on_flow(flow, req_id, next_send_ns as u64, service_ns);
    }
    let issued = cfg.requests;

    // Drain: keep servicing the retry queue until every request reaches
    // a terminal state or the timeout expires.
    let deadline = Instant::now() + cfg.drain_timeout;
    loop {
        balancer.drain_retries();
        let outstanding = shared.outstanding.lock().expect("outstanding").len();
        if outstanding == 0 || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = balancer.clock.elapsed();
    // Whatever is still outstanding is lost — drop it from the map so
    // the accounting shows it rather than hanging.
    shared.outstanding.lock().expect("outstanding").clear();

    for sock in &balancer.socks {
        let _ = sock.shutdown(Shutdown::Both);
    }
    for reader in balancer.readers {
        let _ = reader.join();
    }

    let accounting = RequestAccounting {
        issued,
        completed: shared.completed.load(Ordering::Relaxed),
        redirected: shared.redirected.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
    };
    let mut agg = shared.agg.lock().expect("agg");
    let measured = agg.hist.count();
    let window_ns = match (agg.first_measured_ns, agg.last_measured_ns) {
        (Some(a), Some(b)) if b > a => (b - a) as f64,
        _ => 0.0,
    };
    let throughput_rps = if window_ns > 0.0 && measured > 1 {
        (measured - 1) as f64 / window_ns * 1e9
    } else {
        0.0
    };
    let (mean, p50, p99) = if measured > 0 {
        (
            agg.hist.mean().as_ns_f64(),
            agg.hist.percentile(0.50).as_ns_f64(),
            agg.hist.percentile(0.99).as_ns_f64(),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let counts_f64: Vec<f64> = agg.worker_counts.iter().map(|&c| c as f64).collect();
    let stats = LiveRunStats {
        hist: agg.hist.clone(),
        sent: issued,
        received: agg.received,
        measured,
        elapsed,
        throughput_rps,
        mean_latency_ns: mean,
        p50_latency_ns: p50,
        p99_latency_ns: p99,
        mean_service_ns: service_sum_ns / issued as f64,
        load_balance_jain: jain_index(&counts_f64),
        worker_completions: agg.worker_counts.clone(),
        series: agg.series.take().map(|rec| rec.into_job("loadgen")),
    };
    Ok((
        stats,
        accounting,
        shared.redirect_frames.load(Ordering::Relaxed),
    ))
}

/// Per-connection reader: responses retire requests (exactly once),
/// redirect frames requeue them *and* fail the sending node over in
/// the directory — a redirect is the draining node telling clients
/// whose routing is stale to re-resolve, so retries never spin against
/// the same node until they exhaust into rejections.
fn reader_loop(
    mut half: TcpStream,
    shared: Arc<BalancerShared>,
    directory: Arc<NodeDirectory>,
    node: usize,
    addr: SocketAddr,
    clock: Instant,
) {
    while let Ok(Some(payload)) = read_frame(&mut half) {
        match payload.first().copied() {
            Some(KIND_RESPONSE) => {
                let Ok(resp) = Response::decode(&payload) else {
                    break;
                };
                let now_ns = clock.elapsed().as_nanos() as u64;
                let pending = shared
                    .outstanding
                    .lock()
                    .expect("outstanding")
                    .remove(&resp.req_id);
                // A duplicate completion (original arrived after we
                // requeued) was already counted — drop it.
                let Some(pending) = pending else { continue };
                if pending.attempts == 0 {
                    shared.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.redirected.fetch_add(1, Ordering::Relaxed);
                }
                let mut agg = shared.agg.lock().expect("agg");
                agg.received += 1;
                if resp.req_id >= shared.warmup {
                    let latency = now_ns.saturating_sub(pending.sent_at_ns);
                    agg.hist.record(SimDuration::from_ns(latency));
                    let worker = node * shared.workers_per_node + resp.worker as usize;
                    if let Some(rec) = agg.series.as_mut() {
                        rec.note_arrival(pending.sent_at_ns.saturating_mul(1_000));
                        rec.note_completion(
                            now_ns.saturating_mul(1_000),
                            latency.saturating_mul(1_000),
                            worker,
                        );
                    }
                    // The worker id comes off the wire: cap it so a
                    // corrupt frame can't demand a giant allocation
                    // (latency still counts).
                    if worker < MAX_TRACKED_WORKERS {
                        if worker >= agg.worker_counts.len() {
                            agg.worker_counts.resize(worker + 1, 0);
                        }
                        agg.worker_counts[worker] += 1;
                    }
                    agg.first_measured_ns.get_or_insert(now_ns);
                    agg.last_measured_ns = Some(now_ns);
                }
            }
            Some(KIND_REDIRECT) => {
                let Ok(redirect) = Redirect::decode(&payload) else {
                    break;
                };
                shared.redirect_frames.fetch_add(1, Ordering::Relaxed);
                directory.mark_dead_if(node, addr);
                shared.penalize(redirect.req_id);
            }
            _ => break,
        }
    }
}

/// Sleeps until `clock + target_ns`. Always sleeps — never spins — so
/// the sender cannot starve workers and readers on a 1-CPU machine; the
/// ~50 µs timer-slack oversleep this costs is an accepted send-jitter
/// (the schedule is absolute, so lateness does not compound).
fn wait_until(clock: Instant, target_ns: u64) {
    let target = Duration::from_nanos(target_ns);
    loop {
        let now = clock.elapsed();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}
