//! The two live workloads: `live_closed` (the benchmark's own
//! closed-loop client against an in-process `Server`) and `live_open`
//! (the product's open-loop load generator via `run_loopback_observed`),
//! plus the raw loopback echo that is the floor under both.
//!
//! Both report through the same estimator ([`WindowSummary`]): the
//! measured interval is cut into windows, each window gets its own
//! rate, p50 and p99, and the reported value is that of a window on
//! the quiet side of the median.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dist::ServiceDist;
use live::{
    read_frame, BurnMode, LivePolicy, LiveRunConfig, LoopbackOutcome, Request, Response, Server,
    StatsSnapshot,
};
use metrics::LatencyHistogram;
use rand::Rng;
use simkit::rng::stream_rng;
use telemetry::SeriesWindow;

use crate::estim::{LogHist, WindowStat, WindowSummary};
use crate::proc;
use crate::spans::{SpanLog, NONE};

/// Windows of `live_open`: one second each at the benchmark's 25 s,
/// which keeps ≥ 15 samples beyond a window's p99 at 1 667 requests/s
/// and leaves most windows clear of the stalls.
pub const OPEN_WINDOWS: usize = 25;
/// Windows of `live_closed`: a tenth of a second each at 25 s, about
/// 5 000 round trips per connection, 50 beyond a connection's p99.
pub const CLOSED_WINDOWS: usize = 250;
/// Server workers, client connections and client threads. Fixed, not
/// `nproc`: the numbers must mean the same on every box.
pub const WORKERS: usize = 2;
pub const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Round trips on each connection that end a set-up of `live_closed`:
/// the measured closed loop, for a fixed count. About 40 ms of work.
/// Starting the server and connecting alone take 0.13 ms in one minute
/// and 0.20 ms in the next on the reference box, which no bound of 10 %
/// can hold; warming up is what a set-up is for, and this much of it
/// repeats as well as `req_per_s` does.
const WARMUP_ROUND_TRIPS: u64 = 2_000;
/// Seed of the warm-up's tokens, and the longest a warm-up may take.
const WARMUP_SEED: u64 = 2019;
const WARMUP_LIMIT: Duration = Duration::from_secs(10);
/// `live_open`: exponential 600 ns × 1000 = 600 µs mean service on two
/// sleep-burn workers at half load — 1 666.7 requests/s.
const OPEN_SCALE: f64 = 1_000.0;
const OPEN_LOAD: f64 = 0.5;
/// The paper's SLO: ten mean service times.
const OPEN_SLO_NS: f64 = 10.0 * 600.0 * OPEN_SCALE;

// ---------------------------------------------------------------------
// live_closed

/// What one closed-loop client saw.
struct ClientTally {
    sent: u64,
    /// Replies that echoed the request and named a real worker.
    good: u64,
    /// One entry per window, this connection's own.
    windows: Vec<WindowStat>,
}

/// Sends `req` and reads its reply: `None` when the connection is gone,
/// otherwise whether the reply echoes the request and names a real
/// worker.
fn round_trip(stream: &mut TcpStream, req: &Request, log: &mut SpanLog) -> Option<bool> {
    let span = log.begin("request", NONE, req.req_id);
    let written = log.within("request.write", span, req.req_id, || {
        stream.write_all(&req.encode())
    });
    let reply =
        written.and_then(|()| log.within("reply.read", span, req.req_id, || read_frame(stream)));
    log.end(span);
    let payload = reply.ok()??;
    // A redirect or any other frame kind fails the decode.
    Some(Response::decode(&payload).is_ok_and(|resp| {
        resp.req_id == req.req_id
            && resp.sent_at_ns == req.sent_at_ns
            && resp.service_ns == req.service_ns
            && (resp.worker as usize) < WORKERS
    }))
}

/// One connection's closed loop: one round trip after another until
/// `total` has passed since `start` or `requests` are done. Latency runs from just before the
/// write to just after the reply is checked and lands in the window the
/// reply arrived in.
/// A request id is `conn << 40 | n`; `sent_at_ns` carries a seeded token
/// the server must echo.
fn closed_loop(
    stream: &mut TcpStream,
    conn: u64,
    seed: u64,
    start: Instant,
    total: Duration,
    requests: u64,
    log: &mut SpanLog,
) -> ClientTally {
    let mut tally = ClientTally {
        sent: 0,
        good: 0,
        windows: Vec::with_capacity(CLOSED_WINDOWS),
    };
    let mut tokens = stream_rng(seed, conn);
    let window_ns = (total.as_nanos() as u64 / CLOSED_WINDOWS as u64).max(1);
    // The open window's latencies; a window that has ended is kept as
    // its three numbers, so the recording is one histogram however long
    // the run.
    let mut open = LogHist::new();
    let close = |open: &mut LogHist, windows: &mut Vec<WindowStat>| {
        windows.push(WindowStat {
            req_per_s: open.count() as f64 / (window_ns as f64 / 1e9),
            p50_us: open.quantile(0.50) / 1e3,
            p99_us: open.quantile(0.99) / 1e3,
            samples: open.count(),
        });
        open.clear();
    };
    loop {
        let req = Request {
            req_id: conn << 40 | tally.sent,
            sent_at_ns: tokens.gen(),
            service_ns: 0,
        };
        let sent_at = Instant::now();
        let reply = round_trip(stream, &req, log);
        let received_at = Instant::now();
        tally.sent += 1;
        let Some(good) = reply else { break };
        tally.good += good as u64;
        let at = received_at - start;
        if at >= total || tally.sent >= requests {
            break;
        }
        let window = (at.as_nanos() as u64 / window_ns) as usize;
        while tally.windows.len() < window.min(CLOSED_WINDOWS - 1) {
            close(&mut open, &mut tally.windows);
        }
        open.record((received_at - sent_at).as_nanos() as u64);
    }
    while tally.windows.len() < CLOSED_WINDOWS {
        close(&mut open, &mut tally.windows);
    }
    tally
}

/// A started server with its connected clients.
pub struct ClosedTier {
    server: Server,
    streams: Vec<TcpStream>,
    /// Requests sent before the measured interval (the server's counters
    /// include them), and how many of them got no good reply.
    warmed: u64,
    warm_failed: u64,
}

/// The tier both live workloads run: replenish dispatch, two sleep-burn
/// workers, two connections.
fn tier() -> LiveRunConfig {
    LiveRunConfig::new(LivePolicy::Replenish)
        .workers(WORKERS)
        .burn(BurnMode::Sleep)
        .connections(CONNECTIONS)
}

/// One set-up of `live_closed`: start the server (untraced and
/// unsampled), connect, and warm up with [`WARMUP_ROUND_TRIPS`] round
/// trips of closed loop on every connection.
pub fn start_tier(log: &mut SpanLog) -> io::Result<ClosedTier> {
    let server = log.within("Server::start", NONE, 0, || {
        Server::start(tier().server_config(None), "127.0.0.1:0")
    })?;
    let mut streams = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        streams.push(stream);
    }
    let tallies = drive(
        &mut streams,
        WARMUP_SEED,
        Instant::now(),
        WARMUP_LIMIT,
        WARMUP_ROUND_TRIPS,
        None,
    );
    let warmed: u64 = tallies.iter().map(|(t, _)| t.sent).sum();
    let good: u64 = tallies.iter().map(|(t, _)| t.good).sum();
    Ok(ClosedTier {
        server,
        streams,
        warmed,
        warm_failed: warmed - good,
    })
}

/// Runs one closed loop per connection, each on its own thread, all
/// released together.
fn drive(
    streams: &mut [TcpStream],
    seed: u64,
    start: Instant,
    total: Duration,
    requests: u64,
    span_epoch: Option<Instant>,
) -> Vec<(ClientTally, SpanLog)> {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = match span_epoch {
                        Some(epoch) => SpanLog::new(epoch, conn as u32 + 1),
                        None => SpanLog::off(),
                    };
                    barrier.wait();
                    let tally =
                        closed_loop(stream, conn as u64, seed, start, total, requests, &mut log);
                    (tally, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Sets the tier up [`SETUPS`] times, keeps the last one running, and
/// returns it with every set-up's time.
pub fn set_up_tier(log: &mut SpanLog) -> io::Result<(ClosedTier, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut tier: Option<ClosedTier> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = tier.take() {
            drop(previous.streams);
            previous.server.stop();
        }
        let start = Instant::now();
        tier = Some(start_tier(log)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((tier.expect("SETUPS > 0"), times))
}

pub struct ClosedOutcome {
    pub sent: u64,
    pub failed: u64,
    /// Replies inside the measured interval.
    pub completed: u64,
    pub cpu_s: f64,
    pub context_switches: u64,
    pub latency: WindowSummary,
    pub server: StatsSnapshot,
}

/// Measures the tier for `seconds`, stops it, and checks the books:
/// every reply echoed its request, the server's `STATS` completions
/// equal what the clients sent, and nothing was redirected.
pub fn run_closed(
    mut tier: ClosedTier,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> ClosedOutcome {
    let cpu_start = proc::cpu_seconds();
    let switches_start = proc::context_switches();
    let start = Instant::now();
    let span = log.begin("closed_loop", NONE, 0);
    let total = Duration::from_secs_f64(seconds);
    let tallies = drive(&mut tier.streams, seed, start, total, u64::MAX, log.epoch());
    log.end(span);
    let cpu_s = proc::cpu_seconds() - cpu_start;
    let context_switches = proc::context_switches() - switches_start;
    let server = tier.server.stats_snapshot();
    drop(tier.streams);
    log.within("Server::stop", NONE, 0, || tier.server.stop());

    let mut sent = 0;
    let mut good = 0;
    // A window of the tier is the same window of its connections: their
    // rates added, their percentiles averaged (the connections are
    // alike, and a percentile of the merged samples would need every
    // window's histogram kept).
    let mut windows = vec![
        WindowStat {
            req_per_s: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
            samples: 0,
        };
        CLOSED_WINDOWS
    ];
    for (tally, client_log) in tallies {
        sent += tally.sent;
        good += tally.good;
        for (into, from) in windows.iter_mut().zip(&tally.windows) {
            into.req_per_s += from.req_per_s;
            into.p50_us += from.p50_us / CONNECTIONS as f64;
            into.p99_us += from.p99_us / CONNECTIONS as f64;
            into.samples += from.samples;
        }
        log.absorb(client_log);
    }
    let mut failed = tier.warm_failed + (sent - good);
    // The server's own count must match the clients', request for
    // request, and a redirect is a refusal.
    failed += server.completions().abs_diff(tier.warmed + sent) + server.redirects;
    let completed: u64 = windows.iter().map(|w| w.samples).sum();
    ClosedOutcome {
        sent,
        failed,
        completed,
        cpu_s,
        context_switches,
        latency: WindowSummary::of(windows),
        server,
    }
}

// ---------------------------------------------------------------------
// The floor: a raw loopback echo with the tier's frame sizes.

/// p50 round trip (µs) of a bare `TcpStream` echo that moves the same
/// bytes as a request and its reply: what the kernel's loopback path and
/// two thread wake-ups cost with no server code at all.
pub fn echo_rtt_us(seconds: f64) -> io::Result<f64> {
    let probe = Request {
        req_id: 0,
        sent_at_ns: 0,
        service_ns: 0,
    };
    let request = probe.encode();
    let reply = Response {
        req_id: 0,
        sent_at_ns: 0,
        service_ns: 0,
        worker: 0,
    }
    .encode();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut buf = request;
            // Ends on the client's EOF.
            while stream.read_exact(&mut buf).is_ok() {
                stream.write_all(&reply)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hist = LogHist::new();
        let mut buf = reply;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let sent_at = Instant::now();
            stream.write_all(&request)?;
            stream.read_exact(&mut buf)?;
            hist.record(sent_at.elapsed().as_nanos() as u64);
        }
        drop(stream);
        echo.join().expect("echo thread")?;
        Ok(hist.quantile(0.50) / 1e3)
    })
}

// ---------------------------------------------------------------------
// live_open

/// `live_open`'s tier under its offered load, before the run's length
/// is known.
fn open_base(seed: u64) -> LiveRunConfig {
    tier()
        .load(OPEN_LOAD)
        .service(ServiceDist::exponential_mean_ns(600.0))
        .scale(OPEN_SCALE)
        .seed(seed)
}

/// The open-loop run: `seconds` measured after one warm-up window. The
/// client-side series is recorded in [`OPEN_WINDOWS`] + 1 windows; window 0
/// is warm-up.
pub fn open_config(seed: u64, seconds: f64, trace_requests: u64) -> LiveRunConfig {
    let window = seconds / OPEN_WINDOWS as f64;
    let base = open_base(seed)
        .series_interval(Some(Duration::from_secs_f64(window)))
        .trace_requests(trace_requests);
    // A quarter of a window past the last measured one, so that the
    // schedule's own ±0.5 % length never leaves the last window short.
    let requests = (base.rate_rps() * window * (OPEN_WINDOWS as f64 + 1.25)).ceil() as u64;
    base.requests(requests, 0)
}

/// Requests of one `live_open` set-up, and the seed of their schedule:
/// the same requests in every run, because a schedule this short takes
/// 8 ms under one seed and 11 ms under the next.
const OPEN_SETUP_REQUESTS: u64 = 2;
const OPEN_SETUP_SEED: u64 = 2019;

/// `live_open`'s set-up, [`SETUPS`] times. Its server lives inside
/// `run_loopback_observed`, so a set-up is that whole call — server
/// start, the load generator's connects, the `STATS` and `METRICS`
/// queries, the stop — around [`OPEN_SETUP_REQUESTS`] requests at the
/// workload's service times unscaled (600 ns, so the workers' timers and
/// not the seed's draws set the pace). Returns every time, and the
/// requests that went unanswered.
pub fn set_up_open(log: &mut SpanLog) -> io::Result<(Vec<f64>, u64)> {
    let config = open_base(OPEN_SETUP_SEED)
        .scale(1.0)
        .requests(OPEN_SETUP_REQUESTS, 0);
    let mut times = Vec::with_capacity(SETUPS);
    let mut unanswered = 0;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let out = log.within("run_loopback_observed.set_up", NONE, 0, || {
            live::run_loopback_observed(&config)
        })?;
        times.push(start.elapsed().as_secs_f64());
        unanswered += config.requests - out.stats.received.min(config.requests);
    }
    Ok((times, unanswered))
}

pub struct OpenOutcome {
    pub sent: u64,
    pub failed: u64,
    /// Replies inside the measured windows.
    pub completed: u64,
    pub cpu_s: f64,
    pub latency: WindowSummary,
    /// Generator lateness: actual run length over scheduled length.
    pub duration_ratio: f64,
    /// Share of measured requests over the 10×S̄ limit; an unanswered
    /// request counts as over it.
    pub slo_miss_frac: f64,
    pub jain: f64,
    pub raw: LoopbackOutcome,
}

/// Completions in `hist` slower than `limit_ns`, from bucket lower
/// bounds (so a bucket straddling the limit counts as inside it).
fn slower_than(hist: &LatencyHistogram, limit_ns: f64) -> u64 {
    let snap = hist.snapshot();
    let p = snap.precision_bits;
    snap.buckets
        .iter()
        .filter(|&&(seg, sub, _)| {
            let width = 1u64 << seg.saturating_sub(p);
            ((1u64 << seg) + sub as u64 * width) as f64 >= limit_ns * 1e3
        })
        .map(|&(_, _, count)| count)
        .sum()
}

/// Runs `live_open` once: the product's own server, load generator and
/// client-side series, start to stop.
pub fn run_open(
    config: &LiveRunConfig,
    seconds: f64,
    log: &mut SpanLog,
) -> io::Result<OpenOutcome> {
    let cpu_start = proc::cpu_seconds();
    let raw = log.within("run_loopback_observed", NONE, 0, || {
        live::run_loopback_observed(config)
    })?;
    let cpu_s = proc::cpu_seconds() - cpu_start;

    let stats = &raw.stats;
    let series: &[SeriesWindow] = stats.series.as_ref().map_or(&[], |s| &s.windows);
    let empty = SeriesWindow::empty(0, WORKERS, WORKERS);
    let mut windows = Vec::with_capacity(OPEN_WINDOWS);
    let mut completed = 0;
    let mut slow = 0;
    for k in 1..=OPEN_WINDOWS {
        let window = series.get(k).unwrap_or(&empty);
        completed += window.completions;
        slow += slower_than(&window.latency, OPEN_SLO_NS);
        let quantile_us = |q| match window.latency.is_empty() {
            true => 0.0,
            false => window.latency.percentile(q).as_us_f64(),
        };
        windows.push(WindowStat {
            req_per_s: window.completions as f64 / (seconds / OPEN_WINDOWS as f64),
            p50_us: quantile_us(0.50),
            p99_us: quantile_us(0.99),
            samples: window.latency.count(),
        });
    }
    // The load generator drops the connection on a reply it cannot
    // decode, so a bad echo shows up as replies missing; the server's
    // books must agree with the client's, and nothing may be redirected.
    let unanswered = stats.sent - stats.received.min(stats.sent);
    let failed = (config.requests - stats.sent)
        + unanswered
        + raw.server.completions().abs_diff(stats.sent)
        + raw.server.redirects;
    Ok(OpenOutcome {
        sent: config.requests,
        failed,
        completed,
        cpu_s,
        latency: WindowSummary::of(windows),
        duration_ratio: stats.elapsed.as_secs_f64() / config.expected_duration().as_secs_f64(),
        slo_miss_frac: (slow + unanswered) as f64 / (completed + unanswered).max(1) as f64,
        jain: stats.load_balance_jain,
        raw,
    })
}
