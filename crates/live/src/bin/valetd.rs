//! `valetd` — the live RPC server.
//!
//! ```text
//! valetd --policy replenish --workers 4
//! valetd --policy rss --workers 16 --burn spin --port 7117
//! valetd --port 0 --node-id 2           # cluster member on an ephemeral port
//! ```
//!
//! Serves the length-prefixed RPC protocol on loopback TCP until killed,
//! asked to exit over the wire (`SHUTDOWN` verb — how a cluster
//! supervisor stops a node), or signalled. `--burn sleep` (the default)
//! makes workers overlap like real cores even on a 1-CPU machine; use
//! `--burn spin` on hardware with as many cores as workers to burn real
//! CPU, as the paper's handlers do.
//!
//! `--trace FILE` stamps request-lifecycle hops for the first
//! `--trace-requests N` requests into a versioned trace store at FILE,
//! sealed with its digest on exit: Ctrl-C / SIGTERM drains the server
//! and seals before returning. Only a hard kill (SIGKILL, power loss)
//! leaves an unsealed store, which the loader reports as an interrupted
//! capture. Telemetry counters are always on; query them with the wire
//! protocol's `STATS` verb, and control draining with its `DRAIN` verb
//! (a draining valetd answers new requests with redirects).
//!
//! `--metrics-addr ADDR` serves a Prometheus-style text exposition at
//! `http://ADDR/metrics` and turns on the windowed sampler (window
//! length `--metrics-window-ms`, default 250), which also answers the
//! wire protocol's delta-encoded `METRICS` verb.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use live::cli::Flags;
use live::{LivePolicy, LiveRunConfig, MetricsExporter, Server, TraceSink};
use telemetry::{EventRing, RingFlusher, TraceMeta, TraceWriter};

struct Args {
    config: LiveRunConfig,
    port: u16,
    bind: String,
    trace: Option<String>,
    trace_requests: Option<u64>,
    metrics_addr: Option<String>,
    metrics_window_ms: Option<u64>,
}

fn parse_args(mut flags: Flags) -> Result<Args, String> {
    let mut config = LiveRunConfig::new(LivePolicy::Replenish).workers(4);
    let mut args = Args {
        config: config.clone(),
        port: 7117,
        bind: "127.0.0.1".to_owned(),
        trace: None,
        trace_requests: None,
        metrics_addr: None,
        metrics_window_ms: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--policy" => {
                config.policy = flags.value("--policy")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--workers" => config = config.workers(flags.parse_positive("--workers")? as usize),
            "--burn" => config = config.burn(flags.value("--burn")?.parse()?),
            "--node-id" => config = config.node_id(flags.parse("--node-id")?),
            "--port" => args.port = flags.parse("--port")?,
            "--bind" => args.bind = flags.value("--bind")?,
            "--trace" => args.trace = Some(flags.value("--trace")?),
            "--trace-requests" => args.trace_requests = Some(flags.parse("--trace-requests")?),
            "--metrics-addr" => args.metrics_addr = Some(flags.value("--metrics-addr")?),
            "--metrics-window-ms" => {
                args.metrics_window_ms = Some(flags.parse_positive("--metrics-window-ms")?);
            }
            "--help" | "-h" => {
                return Err("usage: valetd [--policy single|partitioned:G|rss|replenish] \
                            [--workers n] [--burn sleep|spin] \
                            [--node-id n] [--port p] [--bind addr] \
                            [--trace FILE] [--trace-requests n] \
                            [--metrics-addr addr:port] [--metrics-window-ms n]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.trace.is_none() && args.trace_requests.is_some() {
        return Err("--trace-requests needs --trace".to_owned());
    }
    config = config.series_interval(
        (args.metrics_addr.is_some() || args.metrics_window_ms.is_some())
            .then(|| Duration::from_millis(args.metrics_window_ms.unwrap_or(250))),
    );
    // Surface cross-field mistakes as usage errors, not dispatcher
    // panics.
    config.validate()?;
    args.config = config;
    Ok(args)
}

/// Set by the SIGINT/SIGTERM handler; the main thread polls it so
/// shutdown — draining workers, sealing the trace store — runs in
/// normal (signal-safe-unconstrained) context.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes Ctrl-C and SIGTERM through [`SHUTDOWN`] instead of killing
/// the process mid-capture (an atomic store is async-signal-safe).
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_shutdown as *const () as usize;
    // SAFETY: the handler installed is `request_shutdown`, an
    // `extern "C" fn(i32)` whose body is a single atomic store —
    // async-signal-safe, touching no locks or allocations.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

fn main() -> ExitCode {
    let args = match parse_args(Flags::from_env()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = &args.config;
    // Optional tracing: hops go through a bounded ring to a background
    // flusher appending to the store, so serving never blocks on I/O.
    let mut capture = None;
    let trace = match &args.trace {
        Some(path) => {
            let label = config.policy.label(config.workers);
            let writer = match TraceWriter::create(path.as_ref(), &TraceMeta::live(&label, 1)) {
                Ok(writer) => writer,
                Err(e) => {
                    eprintln!("create trace store {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let ring = Arc::new(EventRing::with_capacity(8 * 1024));
            capture = Some((Arc::clone(&ring), RingFlusher::spawn(Arc::clone(&ring), writer)));
            Some(TraceSink::new(ring, args.trace_requests.unwrap_or(100_000)))
        }
        None => None,
    };
    install_shutdown_handler();
    let server = match Server::start(
        config.server_config(trace),
        format!("{}:{}", args.bind, args.port),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {}:{}: {e}", args.bind, args.port);
            return ExitCode::FAILURE;
        }
    };
    let exporter = match &args.metrics_addr {
        Some(addr) => match MetricsExporter::start(addr.as_str(), server.prometheus_renderer()) {
            Ok(exporter) => {
                println!("metrics exposition at http://{}/metrics", exporter.local_addr());
                Some(exporter)
            }
            Err(e) => {
                eprintln!("bind metrics exporter {addr}: {e}");
                server.stop();
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    println!(
        "valetd listening on {} (policy {}, {} workers, {:?} burn, node {})",
        server.local_addr(),
        config.policy,
        config.workers,
        config.burn,
        config.node_id,
    );
    // Exit on either signal path (Ctrl-C/SIGTERM) or the wire SHUTDOWN
    // verb — the latter is how a cluster supervisor retires a node.
    while !SHUTDOWN.load(Ordering::SeqCst) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Some(exporter) = exporter {
        exporter.stop();
    }
    // A drained node must not cut off replies it has already counted.
    let completions = if server.is_draining() {
        server.stop_after_drain()
    } else {
        server.stop()
    };
    println!(
        "shutting down: {} request(s) completed across {} worker(s)",
        completions.iter().sum::<u64>(),
        completions.len()
    );
    if let Some((ring, flusher)) = capture {
        let mut writer = flusher.finish();
        writer.note_dropped(ring.dropped());
        match writer.finish() {
            Ok(digest) => println!("trace store sealed (digest {digest})"),
            Err(e) => eprintln!("seal trace store: {e}"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse_args(Flags::from_args(
            line.split_whitespace().map(str::to_owned).collect(),
        ))
    }

    #[test]
    fn usage_examples_parse_and_ignored_or_bad_flags_are_errors() {
        for line in [
            "",
            "--policy replenish --workers 4",
            "--policy rss --workers 16 --burn spin --port 7117",
            "--port 0 --node-id 2",
            "--trace t.store --trace-requests 10",
            "--metrics-addr 127.0.0.1:0 --metrics-window-ms 100",
        ] {
            assert!(
                parse_line(line).is_ok(),
                "{line}: {:?}",
                parse_line(line).err()
            );
        }
        // `command line => expected error`.
        for row in [
            "--trace-requests 10 => --trace-requests needs --trace",
            "--workers 0 => --workers must be at least 1",
            "--policy partitioned:3 --workers 4 => divides workers",
            "--burn hot => unknown burn mode",
            "--port => --port needs a value",
            "--requests 10 => unknown flag `--requests`",
            "--replenish-batch 4 => unknown flag `--replenish-batch`",
        ] {
            let (line, want) = row.split_once(" => ").expect("`line => error` row");
            let err = parse_line(line).err().unwrap_or_default();
            assert!(err.contains(want), "{line}: got `{err}`, want `{want}`");
        }
    }
}
