//! `harness watch` — a refreshing terminal dashboard over a live
//! server's windowed `METRICS` stream.
//!
//! Two sources, one renderer:
//!
//! * `--addr host:port` polls an already-running `valetd` (started with
//!   `--metrics-addr` or `--metrics-window-ms`, so its sampler is on);
//! * `--scenario live_smoke` spins up the scenario's loopback pair
//!   in-process — server with a metrics sampler, the one open-loop
//!   client driving it — and watches that run to completion.
//!
//! Either way the client keeps a delta watermark: each poll asks only
//! for windows sealed since the last reply (`MetricsReply::next_index`),
//! so a dashboard left open all day costs the server the same per poll.
//! Frames render windowed throughput/occupancy/queue-depth/in-flight
//! sparklines ([`crate::plot::sparkline`]) plus a numeric tail — plain
//! appended frames by default (CI-safe), ANSI clear-and-redraw with
//! `clear`.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use live::{
    query_metrics, run_balancer, BalancerConfig, LiveRunConfig, NodeDirectory, Server, ServerConfig,
};
use telemetry::{derive_series, DerivedPoint, SeriesWindow};

use crate::plot::sparkline;
use crate::spec::JobKind;
use crate::{ScenarioParams, Scenario};

/// How a `watch` session is paced and bounded.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Stop after rendering this many frames (`None` = until the
    /// watched run ends, or forever for `--addr`).
    pub frames: Option<u64>,
    /// Delay between polls.
    pub refresh: Duration,
    /// Clear the terminal before each frame (ANSI) instead of appending.
    pub clear: bool,
    /// Sparkline history length (windows shown per row).
    pub width: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            frames: None,
            refresh: Duration::from_millis(500),
            clear: false,
            width: 48,
        }
    }
}

/// What a finished watch session saw, for the closing summary line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchSummary {
    /// Frames rendered.
    pub frames: u64,
    /// Sealed windows received across all polls.
    pub windows: u64,
    /// Σ arrivals over those windows.
    pub arrivals: u64,
    /// Σ completions over those windows.
    pub completions: u64,
}

/// Renders one dashboard frame from the sealed-window history.
///
/// Pure function of its inputs — the tests pin its shape. `history`
/// is every sealed window seen so far, in index order; only the last
/// `width` windows are drawn.
pub fn render_frame(
    label: &str,
    interval_ps: u64,
    workers: u32,
    history: &[SeriesWindow],
    frame: u64,
    width: usize,
) -> String {
    let interval_s = interval_ps as f64 * 1e-12;
    let tail_start = history.len().saturating_sub(width);
    let tail = &history[tail_start..];
    let derived = derive_series(tail, interval_ps, u64::from(workers));
    let column = |f: fn(&DerivedPoint) -> f64| -> Vec<f64> { derived.iter().map(f).collect() };
    let throughput = column(|p| p.throughput_rps);
    let occupancy = column(|p| p.occupancy);
    let queued = column(|p| p.mean_queue_depth);
    let inflight = column(|p| p.mean_inflight);

    let peak = |v: &[f64]| v.iter().cloned().filter(|x| !x.is_nan()).fold(0.0, f64::max);
    let last = |v: &[f64]| v.last().copied().unwrap_or(f64::NAN);
    let (tp_max, q_max, if_max) = (peak(&throughput), peak(&queued), peak(&inflight));

    let mut out = String::new();
    out.push_str(&format!(
        "== watch {label} | frame {frame} | {} sealed window(s) x {:.0} ms | {workers} worker(s) ==\n",
        history.len(),
        interval_s * 1e3
    ));
    if tail.is_empty() {
        out.push_str("  (no sealed windows yet)\n");
        return out;
    }
    out.push_str(&format!(
        "  throughput {} {:>10.0} rps (peak {:.0})\n",
        sparkline(&throughput, tp_max),
        last(&throughput),
        tp_max
    ));
    out.push_str(&format!(
        "  occupancy  {} {:>10.2} of {workers} busy (scale 0..1)\n",
        sparkline(&occupancy, 1.0),
        last(&occupancy) * workers as f64
    ));
    out.push_str(&format!(
        "  queued     {} {:>10.2} mean (peak {:.1})\n",
        sparkline(&queued, q_max),
        last(&queued),
        q_max
    ));
    out.push_str(&format!(
        "  in-flight  {} {:>10.2} mean (peak {:.1})\n",
        sparkline(&inflight, if_max),
        last(&inflight),
        if_max
    ));
    let w = tail.last().expect("tail is non-empty");
    out.push_str(&format!(
        "  window {:>5}: {} arrival(s), {} completion(s), {} sample(s), max queue {}\n",
        w.index, w.arrivals, w.completions, w.samples, w.queued_max
    ));
    out
}

fn frame_prefix(clear: bool) -> &'static str {
    if clear {
        "\x1b[2J\x1b[H"
    } else {
        ""
    }
}

/// Watches an already-running server at `addr` (its sampler must be on,
/// i.e. `valetd --metrics-addr`/`--metrics-window-ms`). Runs until the
/// frame budget is spent or the server goes away.
pub fn watch_addr(
    addr: SocketAddr,
    label: &str,
    cfg: &WatchConfig,
    out: &mut dyn Write,
) -> io::Result<WatchSummary> {
    poll(addr, label, cfg, out, &|| false)
}

/// Polls `addr`'s `METRICS` verb and renders one frame per poll until the
/// frame budget is spent or `drained()` reports the watched run over —
/// checked before the poll, so the last frame holds the windows the
/// run's final requests sealed.
fn poll(
    addr: SocketAddr,
    label: &str,
    cfg: &WatchConfig,
    out: &mut dyn Write,
    drained: &dyn Fn() -> bool,
) -> io::Result<WatchSummary> {
    let mut summary = WatchSummary::default();
    let mut history: Vec<SeriesWindow> = Vec::new();
    let mut since = 0u64;
    loop {
        let last = drained();
        let reply = query_metrics(addr, since)?;
        if reply.interval_ps == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server has no metrics sampler (restart valetd with --metrics-addr \
                 or --metrics-window-ms)",
            ));
        }
        since = reply.next_index;
        let interval_ps = reply.interval_ps;
        let workers = reply.workers;
        summary.windows += reply.windows.len() as u64;
        for w in &reply.windows {
            summary.arrivals += w.arrivals;
            summary.completions += w.completions;
        }
        history.extend(reply.windows);
        summary.frames += 1;
        write!(
            out,
            "{}{}",
            frame_prefix(cfg.clear),
            render_frame(label, interval_ps, workers, &history, summary.frames, cfg.width)
        )?;
        out.flush()?;
        if last || cfg.frames.is_some_and(|limit| summary.frames >= limit) {
            return Ok(summary);
        }
        std::thread::sleep(cfg.refresh);
    }
}

/// Spins up `spec`'s loopback pair with a `window`-length sampler and
/// watches it: the server runs in-process, the client on a background
/// thread, and the dashboard polls the `METRICS` verb over
/// the wire exactly like an external client until the run drains (or
/// the frame budget is spent, whichever is first).
pub fn watch_loopback(
    spec: &LiveRunConfig,
    window: Duration,
    cfg: &WatchConfig,
    label: &str,
    out: &mut dyn Write,
) -> io::Result<WatchSummary> {
    // The watched server's sampler runs at the dashboard's window
    // length; the client-side series stays off — the dashboard reads
    // the *server's* windows over the wire.
    let server_config = ServerConfig {
        metrics_interval: Some(window),
        ..spec.server_config(None)
    };
    let server = Server::start(server_config, "127.0.0.1:0")?;
    let addr = server.local_addr();
    let client = BalancerConfig {
        series_interval: None,
        ..spec.balancer_config()
    };
    let directory = Arc::new(NodeDirectory::new(vec![addr]));
    let driver = std::thread::Builder::new()
        .name("watch-loadgen".into())
        .spawn(move || run_balancer(&client, &directory))
        .expect("spawn loadgen thread");
    let summary = poll(addr, label, cfg, out, &|| driver.is_finished())?;
    server.stop();
    match driver.join() {
        Ok(Ok((stats, accounting, _))) => writeln!(
            out,
            "run drained: {}/{} response(s), p99 {:.3} ms; accounting: {accounting}",
            stats.received,
            stats.sent,
            stats.p99_latency_ns / 1e6
        )?,
        Ok(Err(e)) => writeln!(out, "load generator failed: {e}")?,
        Err(_) => writeln!(out, "load generator panicked")?,
    }
    Ok(summary)
}

/// The first live job of `scenario`, as a runnable [`LiveRunConfig`]
/// ([`crate::ExperimentSpec::live_config`]) — what `harness watch
/// --scenario <name>` drives.
///
/// Cluster plans are dropped: `watch` polls one loopback server's
/// `METRICS` verb, so a cluster scenario watches a single node of the
/// same shape at single-node load (the cluster run itself stays
/// `harness bench`'s job).
pub fn live_spec_for_scenario(
    scenario: &Scenario,
    params: &ScenarioParams,
) -> Result<LiveRunConfig, String> {
    for matrix in crate::build_matrices(scenario, params) {
        for job in matrix.jobs() {
            if job.kind() == JobKind::Live {
                return Ok(LiveRunConfig {
                    cluster: None,
                    ..job.live_config()
                });
            }
        }
    }
    Err(format!(
        "scenario `{}` has no live jobs to watch (watch drives a real loopback \
         server; try live_smoke)",
        scenario.name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioMatrix;

    fn window(index: u64, completions: u64, busy_sum: u64, samples: u64) -> SeriesWindow {
        SeriesWindow {
            arrivals: completions,
            completions,
            samples,
            busy_sum,
            inflight_sum: busy_sum,
            ..SeriesWindow::empty(index, 0, 0)
        }
    }

    #[test]
    fn frame_renders_sparklines_and_tail() {
        let history = vec![window(0, 10, 4, 4), window(1, 20, 8, 4), window(2, 5, 2, 4)];
        let frame = render_frame("demo", 1_000_000_000_000, 2, &history, 3, 48);
        assert!(frame.contains("watch demo | frame 3 | 3 sealed window(s)"));
        assert!(frame.contains("throughput"));
        assert!(frame.contains("occupancy"));
        assert!(frame.contains("window     2: 5 arrival(s), 5 completion(s)"));
        // 1 s windows: 10/20/5 rps; the 20-rps window is the full bar.
        assert!(frame.contains('█'));
        assert_eq!(
            frame,
            render_frame("demo", 1_000_000_000_000, 2, &history, 3, 48),
            "rendering is pure"
        );
    }

    #[test]
    fn empty_history_renders_a_placeholder() {
        let frame = render_frame("demo", 1_000_000_000, 4, &[], 1, 48);
        assert!(frame.contains("no sealed windows yet"));
    }

    #[test]
    fn width_bounds_the_tail() {
        let history: Vec<SeriesWindow> = (0..100).map(|i| window(i, 1, 1, 1)).collect();
        let frame = render_frame("demo", 1_000_000_000, 1, &history, 1, 8);
        // 8 history columns -> 8 sparkline chars per row.
        let line = frame
            .lines()
            .find(|l| l.trim_start().starts_with("throughput"))
            .expect("throughput row");
        let bars: usize = line.chars().filter(|c| "▁▂▃▄▅▆▇█".contains(*c)).count();
        assert_eq!(bars, 8);
    }

    #[test]
    fn live_smoke_has_a_watchable_spec() {
        let scenario = crate::find_scenario("live_smoke").expect("live_smoke registered");
        let spec = live_spec_for_scenario(scenario, &ScenarioParams::full()).unwrap();
        assert!(spec.workers > 0);
        assert!(spec.requests > 0);
        assert!(spec.load > 0.0);
    }

    #[test]
    fn watched_spec_is_the_first_live_jobs_config() {
        let scenario = crate::find_scenario("live_smoke").expect("live_smoke registered");
        let params = ScenarioParams::full();
        let spec = live_spec_for_scenario(scenario, &params).unwrap();
        let first_live = crate::build_matrices(scenario, &params)
            .iter()
            .flat_map(ScenarioMatrix::jobs)
            .find(|job| job.kind() == JobKind::Live)
            .expect("live_smoke has live jobs");
        assert_eq!(
            format!("{spec:?}"),
            format!("{:?}", first_live.live_config())
        );
    }

    #[test]
    fn watch_drives_a_tiny_loopback_end_to_end() {
        let scenario = crate::find_scenario("live_smoke").expect("live_smoke registered");
        let mut spec =
            live_spec_for_scenario(scenario, &ScenarioParams::full()).unwrap();
        spec.requests = 200;
        spec.warmup = 20;
        let mut out = Vec::new();
        let summary = watch_loopback(
            &spec,
            Duration::from_millis(40),
            &WatchConfig {
                frames: None,
                refresh: Duration::from_millis(50),
                clear: false,
                width: 32,
            },
            "live_smoke",
            &mut out,
        )
        .expect("watch runs");
        let text = String::from_utf8(out).expect("utf-8 frames");
        assert!(summary.frames > 0);
        assert!(
            summary.completions > 0,
            "watch saw no completions: {summary:?}\n{text}"
        );
        assert!(text.contains("run drained"));
    }
}
