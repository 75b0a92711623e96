//! `valetd`'s engine: a multi-threaded loopback RPC server.
//!
//! One reader thread per accepted connection — the NI front-end — parses
//! request frames and makes the dispatch decision itself, in the arrival
//! path ([`Dispatcher::submit`]); `workers` worker threads pull requests,
//! burn the demanded service time, and write the response back on the
//! request's connection. Those are all the threads there are: accept +
//! workers + one reader per connection (+ the optional metrics sampler),
//! and every one of them blocks without a timeout, so an idle server
//! never wakes. The dispatch discipline is
//! the only thing that changes between policies — everything else
//! (sockets, framing, burning) is shared, so measured differences are
//! the dispatch differences, the same isolation the simulator gets by
//! construction.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telemetry::Hop;

use crate::dispatch::{make_dispatcher, Dispatcher, LivePolicy, RouteKey};
use crate::protocol::{
    decode_drain_request, decode_metrics_request, encode_shutdown_response, DrainAction,
    DrainReply, FrameReader, MetricsReply, Redirect, Request, Response, StatsSnapshot,
    KIND_DRAIN_REQUEST, KIND_METRICS_REQUEST, KIND_SHUTDOWN_REQUEST, KIND_STATS_REQUEST,
};
use crate::stats::{render_prometheus, MetricsHub, ServerStats, TraceSink, SAMPLES_PER_WINDOW};

/// How a worker spends a request's service demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurnMode {
    /// Spin the CPU for the demanded time. Faithful to the paper's
    /// CPU-bound RPC handlers; needs as many real cores as workers.
    Spin,
    /// Sleep for the demanded time. Workers overlap like real cores even
    /// on a 1-CPU machine (use with µs–ms scaled service times); the
    /// right mode for CI and laptops.
    Sleep,
}

impl BurnMode {
    /// Occupies this thread for `ns` nanoseconds.
    pub fn burn(self, ns: u64) {
        match self {
            BurnMode::Spin => {
                let start = Instant::now();
                let target = Duration::from_nanos(ns);
                while start.elapsed() < target {
                    std::hint::spin_loop();
                }
            }
            BurnMode::Sleep => {
                if ns > 0 {
                    std::thread::sleep(Duration::from_nanos(ns));
                }
            }
        }
    }
}

impl FromStr for BurnMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spin" => Ok(BurnMode::Spin),
            "sleep" => Ok(BurnMode::Sleep),
            other => Err(format!("unknown burn mode `{other}` (spin|sleep)")),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The dispatch discipline.
    pub policy: LivePolicy,
    /// Worker thread count.
    pub workers: usize,
    /// How workers burn service time.
    pub burn: BurnMode,
    /// Request-lifecycle trace sink; `None` serves untraced. The hops
    /// stamped are the simulator's: arrival (frame read), reassembled
    /// (frame decoded), dispatched (about to be handed to the dispatch
    /// discipline), started (a worker picked it up), completed
    /// (response written) — so `started − dispatched` is exactly the
    /// discipline's hand-off and queueing, the quantity the sim↔live
    /// divergence report compares.
    pub trace: Option<TraceSink>,
    /// Metrics window length; `Some` starts the `valetd-sampler` thread
    /// sealing one window per interval (sampled [`SAMPLES_PER_WINDOW`]
    /// times each), served by the `METRICS` wire verb and the Prometheus
    /// exposition. `None` runs no sampler; `METRICS` then answers with
    /// zero windows. Only the processes that read those windows set it —
    /// `valetd` (`--metrics-addr` / `--metrics-window-ms`) and `harness
    /// watch`; [`crate::LiveRunConfig::server_config`] leaves it `None`.
    pub metrics_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            policy: LivePolicy::Replenish,
            workers: 4,
            burn: BurnMode::Sleep,
            trace: None,
            metrics_interval: None,
        }
    }
}

/// One unit of server work: the parsed request plus where to reply.
struct ServerJob {
    req: Request,
    reply: Arc<Mutex<TcpStream>>,
    /// Server-wide arrival sequence number (the trace's request id).
    seq: u64,
    /// Connection the request arrived on (the trace's source id).
    conn: u64,
}

/// The state every server thread shares: the dispatch core, the
/// counters, the connection registry, and the flags the control verbs
/// and the stop path flip.
struct Shared {
    dispatcher: Dispatcher<ServerJob>,
    stats: ServerStats,
    trace: Option<TraceSink>,
    metrics: Option<MetricsHub>,
    /// Server-wide arrival sequence counter (the trace's request id).
    dispatched: AtomicU64,
    /// Socket handles of live connections, keyed by connection id, for
    /// forced shutdown. Deliberately *clones* of the streams, not the
    /// `Arc<Mutex<_>>` writers: `TcpStream::shutdown` takes `&self`, so
    /// the stop path never needs the write mutex — which a worker may be
    /// holding across a blocked `write_all` to a stalled client.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    stop: AtomicBool,
    /// Drain mode: while set, readers answer request frames with
    /// [`Redirect`]s instead of dispatching (control verbs still work
    /// and in-flight requests complete normally).
    draining: AtomicBool,
    /// Set by the wire `SHUTDOWN` verb; the hosting process polls
    /// [`Server::shutdown_requested`] and stops the server — the
    /// portable, signal-free supervision path.
    shutdown_flag: AtomicBool,
}

impl Shared {
    /// The telemetry snapshot the `STATS` verb answers: counters plus the
    /// dispatcher's occupancy gauges and the trace ring's drop count.
    fn snapshot(&self) -> StatsSnapshot {
        let dropped = self.trace.as_ref().map_or(0, TraceSink::dropped);
        self.stats.snapshot(self.dispatcher.gauges(), dropped)
    }
}

/// A running server; dropped or [`Server::stop`]ped, it shuts down
/// cleanly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<u64>>,
    sampler_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    pub fn start<A: ToSocketAddrs>(config: ServerConfig, bind_addr: A) -> io::Result<Server> {
        assert!(config.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            dispatcher: make_dispatcher(config.policy, config.workers),
            stats: ServerStats::new(config.workers),
            trace: config.trace,
            metrics: config.metrics_interval.map(|interval| {
                let interval_ps = (interval.as_nanos() as u64).max(1).saturating_mul(1_000);
                MetricsHub::new(interval_ps, config.workers)
            }),
            dispatched: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            reader_threads: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            shutdown_flag: AtomicBool::new(false),
        });

        // The sampler thread: wakes SAMPLES_PER_WINDOW times per window,
        // reads the relaxed counters, and seals windows in the hub. It
        // never touches the dispatch path.
        let sampler_thread = config.metrics_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            let period = interval
                .checked_div(SAMPLES_PER_WINDOW)
                .unwrap_or(Duration::from_millis(1))
                .max(Duration::from_micros(100));
            std::thread::Builder::new()
                .name("valetd-sampler".to_owned())
                .spawn(move || {
                    let epoch = Instant::now();
                    let hub = shared.metrics.as_ref().expect("sampler without a hub");
                    while !shared.stop.load(Ordering::Acquire) {
                        std::thread::sleep(period);
                        let t_ps = (epoch.elapsed().as_nanos() as u64).saturating_mul(1_000);
                        hub.tick(t_ps, &shared.stats);
                    }
                })
                .expect("spawn sampler")
        });

        let worker_threads = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let burn = config.burn;
                std::thread::Builder::new()
                    .name(format!("valetd-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared, burn))
                    .expect("spawn worker")
            })
            .collect();

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("valetd-accept".to_owned())
                .spawn(move || {
                    let mut conn_idx: u64 = 0;
                    for incoming in listener.incoming() {
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        let _ = stream.set_nodelay(true);
                        let conn = conn_idx;
                        conn_idx += 1;
                        let (Ok(read_half), Ok(shutdown_handle)) =
                            (stream.try_clone(), stream.try_clone())
                        else {
                            continue;
                        };
                        let reply = Arc::new(Mutex::new(stream));
                        shared
                            .conns
                            .lock()
                            .expect("conn registry")
                            .push((conn, shutdown_handle));
                        let reader_shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name(format!("valetd-reader-{conn}"))
                            .spawn(move || {
                                reader_loop(read_half, conn, &reply, &reader_shared);
                                // The connection is gone: deregister it so
                                // a long-running server doesn't hold an
                                // entry per closed connection.
                                reader_shared
                                    .conns
                                    .lock()
                                    .expect("conn registry")
                                    .retain(|(id, _)| *id != conn);
                            })
                            .expect("spawn reader");
                        // Reap handles of readers that already exited, or
                        // connection churn grows this registry forever.
                        let mut registry = shared.reader_threads.lock().expect("reader registry");
                        registry.retain(|h| !h.is_finished());
                        registry.push(handle);
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
            sampler_thread,
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server is currently refusing new requests (drain
    /// mode, switched by the wire `DRAIN` verb): new request frames are
    /// answered with [`Redirect`]s, in-flight requests complete normally.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Whether a client asked this server to exit via the wire
    /// `SHUTDOWN` verb. The hosting process (e.g. `valetd`'s main
    /// loop) polls this and calls [`Server::stop`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_flag.load(Ordering::Acquire)
    }

    /// The telemetry snapshot the `STATS` verb answers, read in-process
    /// (counters plus the dispatcher's occupancy gauges and the trace
    /// ring's drop count).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// A `'static` renderer of the Prometheus text exposition for the
    /// server's current state (what `valetd --metrics-addr` serves), for
    /// handing to a [`crate::MetricsExporter`] thread, which outlives any
    /// borrow of this handle.
    pub fn prometheus_renderer(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || render_prometheus(&shared.snapshot(), shared.metrics.as_ref())
    }

    /// Stops accepting, drains, and joins every thread. Returns per-worker
    /// completion counts.
    pub fn stop(mut self) -> Vec<u64> {
        self.halt(false)
    }

    /// [`Server::stop`] for a drained node: joins the workers *before*
    /// any socket is closed, so every completion already counted has its
    /// response on the wire.
    ///
    /// A supervisor that watches the in-flight count (the `DRAIN`
    /// verb's reply) reach zero and then calls plain
    /// [`Server::stop`] can race a worker between counting a completion
    /// and writing the reply — `stop` force-closes connections first and
    /// the reply is lost. This variant closes that window; the price is
    /// that a worker blocked writing to a stalled client delays shutdown
    /// until TCP gives up, so only use it after a drain (when clients
    /// are live and cooperating).
    pub fn stop_after_drain(mut self) -> Vec<u64> {
        self.halt(true)
    }

    /// The one shutdown sequence: unblock and join the accept loop,
    /// force-close live connections so readers see EOF and any worker
    /// blocked in a response write errors out, join readers and the
    /// sampler, shut the dispatcher and join the workers. `drained`
    /// joins the workers first instead (see [`Server::stop_after_drain`]).
    /// No write mutex is taken here — a blocked writer is holding it.
    fn halt(&mut self, drained: bool) -> Vec<u64> {
        self.shared.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let drained_completions = drained.then(|| self.join_workers());
        for (_, handle) in self.shared.conns.lock().expect("conn registry").drain(..) {
            let _ = handle.shutdown(Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = self
            .shared
            .reader_threads
            .lock()
            .expect("reader registry")
            .drain(..)
            .collect();
        for handle in readers {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler_thread.take() {
            let _ = handle.join();
        }
        drained_completions.unwrap_or_else(|| self.join_workers())
    }

    /// Shuts the dispatcher and joins the workers: per-worker completion
    /// counts.
    fn join_workers(&mut self) -> Vec<u64> {
        self.shared.dispatcher.shutdown();
        self.worker_threads
            .drain(..)
            .map(|handle| handle.join().unwrap_or(0))
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::Acquire) {
            self.halt(false);
        }
    }
}

fn reader_loop(
    mut read_half: TcpStream,
    conn: u64,
    reply: &Arc<Mutex<TcpStream>>,
    shared: &Shared,
) {
    let Shared {
        dispatcher,
        stats,
        dispatched,
        draining,
        ..
    } = shared;
    let trace = shared.trace.as_ref();
    let mut frames = FrameReader::default();
    // Runs until EOF or a socket/protocol error drops the connection.
    while let Ok(Some(payload)) = frames.next_frame(&mut read_half) {
        // Control verbs are answered inline: they never touch the
        // dispatcher, the sequence counter, or the request counters, so
        // querying telemetry perturbs neither dispatch nor statistics.
        let answer = match payload.first().copied() {
            Some(KIND_STATS_REQUEST) => shared.snapshot().encode(),
            // Without a sampler, the reply is well-formed but empty
            // (zero interval, zero windows) so clients need no
            // out-of-band configuration.
            Some(KIND_METRICS_REQUEST) => {
                let Ok(since) = decode_metrics_request(payload) else {
                    break; // protocol error: drop the connection
                };
                match &shared.metrics {
                    Some(hub) => hub.reply_since(since),
                    None => MetricsReply {
                        workers: stats.worker_count() as u32,
                        ..MetricsReply::default()
                    },
                }
                .encode()
            }
            // DRAIN flips/reports drain mode and always answers with the
            // current state plus the in-flight count, so a supervisor can
            // poll the same verb until the node is empty.
            Some(KIND_DRAIN_REQUEST) => {
                let Ok(action) = decode_drain_request(payload) else {
                    break; // protocol error: drop the connection
                };
                match action {
                    DrainAction::Begin => draining.store(true, Ordering::Release),
                    DrainAction::Resume => draining.store(false, Ordering::Release),
                    DrainAction::Query => {}
                }
                DrainReply {
                    draining: draining.load(Ordering::Acquire),
                    inflight: stats
                        .requests_total()
                        .saturating_sub(stats.completions_total()),
                }
                .encode()
                .to_vec()
            }
            // SHUTDOWN raises a flag the hosting process polls
            // (`Server::shutdown_requested`), then acknowledges. The
            // reader keeps serving — actual teardown is the host's call.
            Some(KIND_SHUTDOWN_REQUEST) => {
                shared.shutdown_flag.store(true, Ordering::Release);
                encode_shutdown_response().to_vec()
            }
            // While draining, request frames are refused with a redirect:
            // not dispatched, not counted as accepted (so `requests −
            // completions` stays the honest in-flight gauge), but tallied
            // in the redirects counter for the cluster accounting.
            _ if draining.load(Ordering::Acquire) => {
                let Ok(req) = Request::decode(payload) else {
                    break; // protocol error: drop the connection
                };
                stats.note_redirect();
                Redirect { req_id: req.req_id }.encode().to_vec()
            }
            _ => {
                let seq = dispatched.fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = trace {
                    sink.record(seq, Hop::Arrival, conn as u16, 0);
                }
                let Ok(req) = Request::decode(payload) else {
                    break; // protocol error: drop the connection
                };
                if let Some(sink) = trace {
                    sink.record(seq, Hop::Reassembled, conn as u16, 0);
                }
                stats.note_request(4 + payload.len() as u64);
                // Stamped before the hand-off: `submit` wakes a worker,
                // and on a busy CPU that worker runs (and stamps
                // `Started`) before this thread gets to its next line.
                if let Some(sink) = trace {
                    sink.record(seq, Hop::Dispatched, conn as u16, 0);
                }
                dispatcher.submit(
                    RouteKey { conn, seq },
                    ServerJob {
                        req,
                        reply: Arc::clone(reply),
                        seq,
                        conn,
                    },
                );
                continue;
            }
        };
        if let Ok(mut stream) = reply.lock() {
            let _ = stream.write_all(&answer);
        }
    }
}

fn worker_loop(worker: usize, shared: &Shared, burn: BurnMode) -> u64 {
    let Shared {
        dispatcher, stats, ..
    } = shared;
    let trace = shared.trace.as_ref();
    crate::reduce_timer_slack();
    let mut completions = 0u64;
    while let Some(job) = dispatcher.recv(worker) {
        stats.note_busy(worker, true);
        if let Some(sink) = trace {
            sink.record(job.seq, Hop::Started, job.conn as u16, worker as u16);
        }
        burn.burn(job.req.service_ns);
        let resp = Response {
            req_id: job.req.req_id,
            sent_at_ns: job.req.sent_at_ns,
            service_ns: job.req.service_ns,
            worker: worker as u32,
        };
        let frame = resp.encode();
        // Publish counters *before* the reply write: a client that has
        // its response in hand may immediately ask STATS/METRICS on the
        // same connection and must see its own completion counted.
        stats.note_completion(worker, frame.len() as u64);
        stats.note_busy(worker, false);
        // A send error means the client left; keep serving other
        // connections.
        if let Ok(mut stream) = job.reply.lock() {
            let _ = stream.write_all(&frame);
        }
        if let Some(sink) = trace {
            sink.record(job.seq, Hop::Completed, job.conn as u16, worker as u16);
        }
        completions += 1;
    }
    completions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use std::io::Read;

    fn echo_one(policy: LivePolicy) {
        let server = Server::start(
            ServerConfig {
                policy,
                workers: 2,
                burn: BurnMode::Sleep,
                trace: None,
                metrics_interval: None,
            },
            "127.0.0.1:0",
        )
        .expect("server starts");
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");
        client.set_nodelay(true).unwrap();
        let req = Request {
            req_id: 11,
            sent_at_ns: 22,
            service_ns: 1_000, // 1 µs
        };
        write_frame(&mut client, &req.encode()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("response frame");
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.req_id, 11);
        assert_eq!(resp.sent_at_ns, 22);
        assert_eq!(resp.service_ns, 1_000);
        assert!(resp.worker < 2);
        drop(client);
        let completions = server.stop();
        assert_eq!(completions.iter().sum::<u64>(), 1);
    }

    #[test]
    fn serves_one_request_under_every_policy() {
        for policy in [
            LivePolicy::SingleQueue,
            LivePolicy::Partitioned { groups: 2 },
            LivePolicy::RssStatic,
            LivePolicy::Replenish,
        ] {
            echo_one(policy);
        }
    }

    #[test]
    fn stop_with_idle_connection_does_not_hang() {
        let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut idle = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        server.stop();
        // The forced shutdown reaches the idle client as EOF.
        let mut buf = [0u8; 1];
        let n = idle.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0);
    }

    #[test]
    fn stats_verb_answers_over_the_wire() {
        use crate::protocol::encode_stats_request;

        let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();
        // Serve two requests, then query STATS on the same connection.
        for id in 0..2u64 {
            let req = Request {
                req_id: id,
                sent_at_ns: 0,
                service_ns: 1_000,
            };
            write_frame(&mut client, &req.encode()).unwrap();
            let payload = read_frame(&mut client).unwrap().expect("response");
            Response::decode(&payload).unwrap();
        }
        write_frame(&mut client, &encode_stats_request()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("stats frame");
        let snap = StatsSnapshot::decode(&payload).unwrap();
        assert_eq!(snap.requests_rx, 2, "STATS itself is not counted");
        assert_eq!(snap.completions(), 2);
        assert_eq!(snap.bytes_rx, 2 * 29, "two 29-byte request frames");
        assert_eq!(snap.per_worker.len(), 4);
        assert_eq!(snap.replenish_batches, 2);
        drop(client);
        let completions = server.stop();
        assert_eq!(
            completions.iter().sum::<u64>(),
            2,
            "the STATS verb never reaches a worker"
        );
    }

    #[test]
    fn metrics_verb_serves_windows_over_the_wire() {
        use crate::protocol::{encode_metrics_request, MetricsReply};

        let server = Server::start(
            ServerConfig {
                metrics_interval: Some(Duration::from_millis(40)),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();
        for id in 0..4u64 {
            let req = Request {
                req_id: id,
                sent_at_ns: 0,
                service_ns: 1_000,
            };
            write_frame(&mut client, &req.encode()).unwrap();
            let payload = read_frame(&mut client).unwrap().expect("response");
            Response::decode(&payload).unwrap();
        }
        let mut query = |since: u64| {
            write_frame(&mut client, &encode_metrics_request(since)).unwrap();
            let payload = read_frame(&mut client).unwrap().expect("metrics frame");
            MetricsReply::decode(&payload).unwrap()
        };
        let counted = |reply: &MetricsReply| {
            let arrivals: u64 = reply.windows.iter().map(|w| w.arrivals).sum();
            let completions: u64 = reply.windows.iter().map(|w| w.completions).sum();
            (arrivals, completions)
        };
        // Fetch everything until every request sits in a sealed window:
        // the window open at a query seals on the sampler's schedule,
        // not the test's.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let reply = loop {
            let reply = query(0);
            if counted(&reply) == (4, 4) || std::time::Instant::now() > deadline {
                break reply;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(reply.interval_ps, 40_000_000_000, "40 ms in ps");
        assert_eq!(reply.workers, 4);
        assert_eq!(counted(&reply), (4, 4), "every request in a sealed window");
        assert!(reply.windows.iter().any(|w| w.samples > 0));
        // Delta encoding: a query from the watermark re-sends no window
        // below it. Windows sealed since are new, and empty.
        let delta = query(reply.next_index);
        assert!(delta.windows.iter().all(|w| w.index >= reply.next_index));
        assert_eq!(counted(&delta), (0, 0), "nothing new arrived");
        // The exposition renders the same state.
        let text = server.prometheus_renderer()();
        assert!(text.contains("valetd_requests_total 4"), "{text}");
        assert!(text.contains("valetd_window_interval_seconds 0.04"));
        drop(client);
        server.stop();
    }

    #[test]
    fn metrics_verb_without_sampler_answers_empty() {
        use crate::protocol::{encode_metrics_request, MetricsReply};

        let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut client, &encode_metrics_request(0)).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("metrics frame");
        let reply = MetricsReply::decode(&payload).unwrap();
        assert_eq!(reply.interval_ps, 0, "no sampler: zero interval");
        assert_eq!(reply.workers, 4);
        assert!(reply.windows.is_empty());
        drop(client);
        server.stop();
    }

    #[test]
    fn traced_requests_stamp_every_hop_in_order() {
        use std::sync::Arc;
        use telemetry::{assemble_timelines, EventRing, RingFlusher};

        use crate::stats::TraceSink;

        let ring = Arc::new(EventRing::with_capacity(64));
        let flusher = RingFlusher::spawn(Arc::clone(&ring), Vec::new());
        let server = Server::start(
            ServerConfig {
                trace: Some(TraceSink::new(Arc::clone(&ring), 1_000)),
                workers: 2,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();
        for id in 0..3u64 {
            let req = Request {
                req_id: id,
                sent_at_ns: 0,
                service_ns: 200_000, // 0.2 ms: a measurable Started→Completed gap
            };
            write_frame(&mut client, &req.encode()).unwrap();
            let payload = read_frame(&mut client).unwrap().expect("response");
            Response::decode(&payload).unwrap();
        }
        drop(client);
        server.stop();
        let events = flusher.finish();
        assert_eq!(ring.dropped(), 0);
        assert_eq!(events.len(), 3 * 5, "five hops per request");
        let trace = assemble_timelines(&events);
        assert_eq!(trace.timelines.len(), 3);
        assert_eq!(trace.incomplete, 0);
        for t in &trace.timelines {
            // Monotone pipeline on one clock; processing covers the burn.
            assert!(t.arrival_ps <= t.reassembled_ps);
            assert!(t.reassembled_ps <= t.dispatched_ps);
            assert!(
                t.dispatched_ps <= t.started_ps,
                "no worker starts a request before it is dispatched"
            );
            assert!(t.started_ps <= t.completed_ps);
            assert!(
                t.processing_ns() >= 200_000.0,
                "burned 0.2 ms, processing {} ns",
                t.processing_ns()
            );
            assert!(t.core < 2, "completing worker recorded");
        }
    }

    #[test]
    fn drain_mode_redirects_then_resume_serves_again() {
        use crate::protocol::{
            encode_drain_request, encode_stats_request, DrainAction, DrainReply, Redirect,
        };

        let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();

        // Begin drain over the wire; the reply reports the new state.
        write_frame(&mut client, &encode_drain_request(DrainAction::Begin)).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("drain reply");
        let state = DrainReply::decode(&payload).unwrap();
        assert!(state.draining);
        assert_eq!(state.inflight, 0);
        assert!(server.is_draining());

        // A request while draining comes back as a redirect, uncounted
        // as an acceptance but tallied as a redirect.
        let req = Request {
            req_id: 77,
            sent_at_ns: 0,
            service_ns: 1_000,
        };
        write_frame(&mut client, &req.encode()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("redirect");
        assert_eq!(Redirect::decode(&payload).unwrap().req_id, 77);
        write_frame(&mut client, &encode_stats_request()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("stats");
        let snap = StatsSnapshot::decode(&payload).unwrap();
        assert_eq!(snap.requests_rx, 0);
        assert_eq!(snap.redirects, 1);

        // Resume over the wire; the same request now gets served.
        write_frame(&mut client, &encode_drain_request(DrainAction::Resume)).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("drain reply");
        assert!(!DrainReply::decode(&payload).unwrap().draining);
        write_frame(&mut client, &req.encode()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("response");
        assert_eq!(Response::decode(&payload).unwrap().req_id, 77);

        drop(client);
        let completions = server.stop();
        assert_eq!(completions.iter().sum::<u64>(), 1);
    }

    #[test]
    fn shutdown_verb_raises_the_host_flag() {
        use crate::protocol::{encode_shutdown_request, KIND_SHUTDOWN_RESPONSE};

        let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        assert!(!server.shutdown_requested());
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut client, &encode_shutdown_request()).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("ack");
        assert_eq!(payload, vec![KIND_SHUTDOWN_RESPONSE]);
        assert!(server.shutdown_requested());
        drop(client);
        server.stop();
    }

    #[test]
    fn burn_modes_occupy_roughly_the_demanded_time() {
        for mode in [BurnMode::Spin, BurnMode::Sleep] {
            let start = Instant::now();
            mode.burn(2_000_000); // 2 ms
            let elapsed = start.elapsed();
            assert!(elapsed >= Duration::from_millis(2), "{mode:?}: {elapsed:?}");
        }
        assert_eq!("spin".parse::<BurnMode>().unwrap(), BurnMode::Spin);
        assert!("busy".parse::<BurnMode>().is_err());
    }
}
