//! # live — real loopback RPC serving, closing the sim-to-system loop
//!
//! Everything else in this workspace *simulates* RPCValet's dispatch
//! disciplines (ASPLOS '19 §4–6). This crate *runs* them: a
//! multi-threaded RPC server ([`Server`], shipped as the `valetd`
//! binary) and one open-loop Poisson client ([`run_balancer`], the
//! `loadgen` binary) speak a tiny length-prefixed protocol over loopback
//! TCP, with the paper's dispatch policies implemented on one passive
//! [`Dispatcher`] core. The connection's reader thread plays the NI: it
//! matches each arrival to the longest-idle worker *in the arrival
//! path* — one wake-up, no dispatch thread in between — or queues it
//! for the next worker that asks. A policy is only the choice of queue:
//!
//! | policy | paper analogue | queue a request joins / a worker serves |
//! |---|---|---|
//! | [`LivePolicy::SingleQueue`] | software 1×16 | the one shared queue |
//! | [`LivePolicy::Partitioned`] | 4×4 hardware partitioned dispatch | one of `G`, by sequence hash / its group's |
//! | [`LivePolicy::RssStatic`] | 16×1 receive-side scaling | its connection's, by hash / its own |
//! | [`LivePolicy::Replenish`] | RPCValet | the one shared queue, one request per hand-off — the single-queue path under its own label |
//!
//! The point is the paper's own model-vs-measurement discipline (its
//! Fig. 2 queueing models vs Fig. 7–9 system results): the simulator
//! predicts a p99 ordering across dispatch policies, and this crate
//! measures whether real threads on real queues reproduce it (see the
//! `live_vs_sim` bench binary).
//!
//! Every way of running the tier goes through one configuration type,
//! [`LiveRunConfig`]: single-node loopback ([`run_loopback`],
//! [`run_loopback_observed`]) and the multi-node cluster with failure
//! injection ([`cluster::run_cluster`]). Both drive their servers with
//! the same client — one server is a one-node [`NodeDirectory`] — so
//! every run ends with the same request accounting, `completed +
//! redirected + rejected == issued`.
//!
//! ## In-process quickstart
//!
//! ```no_run
//! use live::{run_loopback, LivePolicy, LiveRunConfig};
//!
//! let config = LiveRunConfig::new(LivePolicy::Replenish)
//!     .connections(4)
//!     .seed(7);
//! let stats = run_loopback(&config).unwrap();
//! println!("{}", stats.summary());
//! ```
//!
//! ## Cluster quickstart
//!
//! ```no_run
//! use live::cluster::run_cluster;
//! use live::{ClusterPlan, FailureMode, LivePolicy, LiveRunConfig};
//!
//! let config = LiveRunConfig::new(LivePolicy::Replenish)
//!     .cluster(ClusterPlan::new(3).failure(FailureMode::Drain));
//! let outcome = run_cluster(&config).unwrap();
//! outcome.accounting.assert_balanced("cluster quickstart");
//! ```

// This crate retains a handful of audited unsafe sites (see the
// adjacent // SAFETY: comments); new ones must be explicit.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cli;
pub mod cluster;
pub mod config;
pub mod dispatch;
pub mod exporter;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cluster::{Cluster, ClusterOutcome, NodeDirectory, NodeLaunch};
pub use config::{ClusterPlan, FailureMode, LiveRunConfig};
pub use dispatch::{make_dispatcher, DispatchGauges, Dispatcher, LivePolicy, RouteKey};
pub use exporter::MetricsExporter;
pub use loadgen::{run_balancer, BalancerConfig, LiveRunStats};
pub use protocol::{
    encode_metrics_request, encode_stats_request, read_frame, write_frame, DrainAction, DrainReply,
    MetricsReply, MetricsWindow, Request, Response, StatsSnapshot, WorkerStats,
};
pub use server::{BurnMode, Server, ServerConfig};
pub use stats::{render_prometheus, MetricsHub, ServerStats, TraceSink, SAMPLES_PER_WINDOW};

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use metrics::RequestAccounting;
use protocol::{encode_drain_request, encode_shutdown_request};
use telemetry::{EventRing, RingFlusher, TraceEvent};

/// Shrinks this thread's kernel timer slack to 1 ns (Linux
/// `PR_SET_TIMERSLACK`), so short `thread::sleep`s overshoot by
/// scheduling latency only instead of the default ~50 µs slack.
///
/// Called by every latency-sensitive thread (workers in sleep-burn mode,
/// the load generator's sender): with the default slack, each
/// sleep-burned service time silently stretches by tens of µs, which at
/// µs-scale services shifts the *effective* load of a run well above its
/// nominal load. No-op off Linux or on failure.
pub fn reduce_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // SAFETY: PR_SET_TIMERSLACK takes plain integer arguments and
        // only adjusts this thread's scheduling hint; the result is
        // checked nowhere because failure degrades to the default slack.
        unsafe {
            let _ = prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Runs one server + client pair over loopback TCP and returns the
/// client-side statistics.
///
/// The server binds an ephemeral port on 127.0.0.1, the client drives
/// it as a one-node directory to completion, and the server is stopped
/// before returning — nothing leaks between runs. Any [`LiveRunConfig::cluster`] plan is
/// ignored here; use [`cluster::run_cluster`] for those.
pub fn run_loopback(config: &LiveRunConfig) -> io::Result<LiveRunStats> {
    run_loopback_observed(config).map(|outcome| outcome.stats)
}

/// Everything one observed loopback run produces.
#[derive(Debug)]
pub struct LoopbackOutcome {
    /// Client-side latency statistics (what [`run_loopback`] returns).
    pub stats: LiveRunStats,
    /// Where every issued request ended up; `lost() == 0` is the run's
    /// zero-lost guarantee, returned unasserted as in
    /// [`ClusterOutcome::accounting`].
    pub accounting: RequestAccounting,
    /// Redirect frames the client saw (0 unless the server drained).
    pub redirects: u64,
    /// The server's telemetry snapshot, queried via the `STATS` verb
    /// over the wire just before shutdown.
    pub server: StatsSnapshot,
    /// Request-lifecycle trace events (empty when tracing was off).
    pub events: Vec<TraceEvent>,
    /// Trace events lost to a full ring (0 means the capture is whole).
    pub dropped: u64,
    /// The server's sealed metrics windows, fetched via the `METRICS`
    /// verb just before shutdown (empty reply when
    /// [`LiveRunConfig::series_interval`] was `None`).
    pub server_series: MetricsReply,
}

/// [`run_loopback`], with telemetry: always queries the server's
/// `STATS` snapshot, and — when [`LiveRunConfig::trace_requests`] is
/// nonzero — stamps request-lifecycle hops for the first N requests
/// through a bounded ring drained by a background flusher (the `valetd`
/// hot path never blocks on trace I/O; a full ring shows up in
/// `dropped`, never in latency).
pub fn run_loopback_observed(config: &LiveRunConfig) -> io::Result<LoopbackOutcome> {
    config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let ring =
        (config.trace_requests > 0).then(|| Arc::new(EventRing::with_capacity(8 * 1024)));
    let flusher = ring
        .as_ref()
        .map(|r| RingFlusher::spawn(Arc::clone(r), Vec::new()));
    let trace = ring
        .as_ref()
        .map(|r| TraceSink::new(Arc::clone(r), config.trace_requests));
    let server = Server::start(config.server_config(trace), "127.0.0.1:0")?;
    let addr = server.local_addr();
    let run = run_balancer(
        &config.balancer_config(),
        &Arc::new(NodeDirectory::new(vec![addr])),
    );
    // Snapshot over the wire while the server still serves — the same
    // path an external `STATS`/`METRICS` client uses — then stop it.
    let server_snapshot = query_stats(addr);
    let server_series = query_metrics(addr, 0);
    server.stop();
    let (stats, accounting, redirects) = run?;
    let server_snapshot = server_snapshot?;
    let server_series = server_series?;
    let (events, dropped) = match (flusher, ring) {
        // Producers have quiesced (server stopped): the flusher's final
        // drain returns the complete capture.
        (Some(flusher), Some(ring)) => (flusher.finish(), ring.dropped()),
        _ => (Vec::new(), 0),
    };
    Ok(LoopbackOutcome {
        stats,
        accounting,
        redirects,
        server: server_snapshot,
        events,
        dropped,
        server_series,
    })
}

/// One control round trip over a fresh connection: sends the encoded
/// `request` and returns the server's reply frame (`what` names the
/// reply in the error when the server hangs up first).
fn control_round_trip(addr: SocketAddr, request: &[u8], what: &str) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, request)?;
    read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("server closed before the {what}"),
        )
    })
}

/// Queries a running server's telemetry snapshot over a fresh
/// connection (the `STATS` verb).
pub fn query_stats(addr: SocketAddr) -> io::Result<StatsSnapshot> {
    let request = encode_stats_request();
    StatsSnapshot::decode(&control_round_trip(addr, &request, "stats reply")?)
}

/// Queries a running server's sealed metrics windows with
/// `index >= since` over a fresh connection (the `METRICS` verb).
pub fn query_metrics(addr: SocketAddr, since: u64) -> io::Result<MetricsReply> {
    let request = encode_metrics_request(since);
    MetricsReply::decode(&control_round_trip(addr, &request, "metrics reply")?)
}

/// Sends a `DRAIN` command/query over a fresh connection and returns
/// the server's drain state ([`DrainAction::Query`] just observes).
pub fn query_drain(addr: SocketAddr, action: DrainAction) -> io::Result<DrainReply> {
    let request = encode_drain_request(action);
    DrainReply::decode(&control_round_trip(addr, &request, "drain reply")?)
}

/// Asks a remote server's host process to exit via the wire `SHUTDOWN`
/// verb, waiting for the acknowledgement (the process itself decides
/// when to stop serving — see `valetd`'s main loop).
pub fn request_remote_shutdown(addr: SocketAddr) -> io::Result<()> {
    let request = encode_shutdown_request();
    control_round_trip(addr, &request, "shutdown acknowledgement").map(drop)
}
