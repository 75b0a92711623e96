//! Server-side telemetry: lock-free counters and the trace sink.
//!
//! Counters are plain relaxed atomics bumped on the hot path (a handful
//! of uncontended `fetch_add`s per request — per-worker counters are
//! owned by their worker thread, so there is no cache-line ping-pong),
//! snapshotted on demand by the wire protocol's `STATS` verb. The
//! [`TraceSink`] stamps request-lifecycle hops onto a bounded
//! [`EventRing`] drained by a background flusher, so tracing never
//! blocks serving either: a full ring costs dropped events, not
//! latency.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use telemetry::{EventRing, Hop, TraceEvent};

use crate::dispatch::DispatchGauges;
use crate::protocol::{MetricsReply, MetricsWindow, StatsSnapshot, WorkerStats};

/// One worker's completion counters, owned by that worker's thread.
#[derive(Debug, Default)]
struct WorkerCounters {
    completions: AtomicU64,
    bytes_tx: AtomicU64,
    /// 1 while the worker is burning a request, 0 while it waits. A
    /// gauge, not a counter: the metrics sampler reads it to measure
    /// instantaneous core occupancy the way the simulator samples
    /// `CoreState::Busy`.
    busy: AtomicU64,
}

/// The server's always-on counters (cheap enough to never gate).
#[derive(Debug)]
pub struct ServerStats {
    requests_rx: AtomicU64,
    bytes_rx: AtomicU64,
    redirects: AtomicU64,
    workers: Vec<WorkerCounters>,
}

impl ServerStats {
    /// Counters for a server with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        ServerStats {
            requests_rx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// Records one accepted request frame of `frame_bytes` on-wire bytes
    /// (length prefix included).
    pub fn note_request(&self, frame_bytes: u64) {
        self.requests_rx.fetch_add(1, Ordering::Relaxed);
        self.bytes_rx.fetch_add(frame_bytes, Ordering::Relaxed);
    }

    /// Records one completion by `worker`, with its response frame size.
    pub fn note_completion(&self, worker: usize, frame_bytes: u64) {
        if let Some(w) = self.workers.get(worker) {
            w.completions.fetch_add(1, Ordering::Relaxed);
            w.bytes_tx.fetch_add(frame_bytes, Ordering::Relaxed);
        }
    }

    /// Marks `worker` busy (burning a request) or idle. Two relaxed
    /// stores per request on the hot path; read only by the metrics
    /// sampler.
    pub fn note_busy(&self, worker: usize, busy: bool) {
        if let Some(w) = self.workers.get(worker) {
            w.busy.store(busy as u64, Ordering::Relaxed);
        }
    }

    /// Records one request answered with a redirect instead of being
    /// dispatched (drain mode). Deliberately *not* counted as an
    /// accepted request: `requests_total − completions_total` must
    /// remain the in-flight gauge the drain protocol polls.
    pub fn note_redirect(&self) {
        self.redirects.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests redirected away so far.
    pub fn redirects_total(&self) -> u64 {
        self.redirects.load(Ordering::Relaxed)
    }

    /// Request frames accepted so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_rx.load(Ordering::Relaxed)
    }

    /// Responses completed so far, summed over workers.
    pub fn completions_total(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.completions.load(Ordering::Relaxed))
            .sum()
    }

    /// Workers currently burning a request.
    pub fn busy_workers(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.busy.load(Ordering::Relaxed))
            .sum()
    }

    /// Worker-thread count these counters cover.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Folds the counters, the dispatcher's gauges, and the trace ring's
    /// drop count into one wire snapshot.
    pub fn snapshot(&self, gauges: DispatchGauges, trace_dropped: u64) -> StatsSnapshot {
        StatsSnapshot {
            requests_rx: self.requests_rx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            queue_high_water: gauges.queue_high_water,
            ring_high_water: gauges.ring_high_water,
            replenish_batches: gauges.replenish_batches,
            trace_dropped,
            redirects: self.redirects.load(Ordering::Relaxed),
            per_worker: self
                .workers
                .iter()
                .map(|w| WorkerStats {
                    completions: w.completions.load(Ordering::Relaxed),
                    bytes_tx: w.bytes_tx.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// How many occupancy samples the hub takes per window.
pub const SAMPLES_PER_WINDOW: u32 = 8;

/// How many sealed windows the hub retains; older windows are evicted
/// (a slow `METRICS` client sees a gap, never unbounded memory).
const RETAINED_WINDOWS: usize = 1_024;

/// The sampler's windowed view of a running server.
///
/// A background sampler thread calls [`MetricsHub::tick`] a few times
/// per window; each tick reads the cumulative [`ServerStats`] counters,
/// turns them into in-window deltas, and samples the instantaneous
/// busy/queued/in-flight gauges. Sealed windows are served — delta
/// encoded — by the `METRICS` wire verb and the Prometheus exposition.
/// The hot path is untouched: sampling reads the same relaxed atomics
/// the `STATS` verb does.
pub struct MetricsHub {
    interval_ps: u64,
    workers: u32,
    inner: Mutex<HubState>,
}

struct HubState {
    open: MetricsWindow,
    sealed: Vec<MetricsWindow>,
    last_requests: u64,
    last_completions: u64,
}

impl MetricsHub {
    /// A hub sealing one window every `interval_ps` picoseconds for a
    /// server with `workers` workers.
    ///
    /// # Panics
    /// Panics if `interval_ps` is 0.
    pub fn new(interval_ps: u64, workers: usize) -> MetricsHub {
        assert!(interval_ps > 0, "window interval must be positive");
        MetricsHub {
            interval_ps,
            workers: workers as u32,
            inner: Mutex::new(HubState {
                open: MetricsWindow::default(),
                sealed: Vec::new(),
                last_requests: 0,
                last_completions: 0,
            }),
        }
    }

    /// Window length in picoseconds.
    pub fn interval_ps(&self) -> u64 {
        self.interval_ps
    }

    /// Takes one sample at `t_ps` (elapsed since server start on the
    /// monotonic clock). Windows between the open one and `t_ps`'s are
    /// sealed; counter deltas land in the window containing `t_ps`.
    pub fn tick(&self, t_ps: u64, stats: &ServerStats) {
        let requests = stats.requests_total();
        let completions = stats.completions_total();
        let busy = stats.busy_workers();
        let index = t_ps / self.interval_ps;
        let mut inner = self.inner.lock().expect("metrics hub");
        while inner.open.index < index {
            let sealed = std::mem::take(&mut inner.open);
            let next_index = sealed.index + 1;
            inner.sealed.push(sealed);
            if inner.sealed.len() > RETAINED_WINDOWS {
                let excess = inner.sealed.len() - RETAINED_WINDOWS;
                inner.sealed.drain(..excess);
            }
            inner.open.index = next_index;
        }
        let arrivals = requests.saturating_sub(inner.last_requests);
        let completed = completions.saturating_sub(inner.last_completions);
        inner.last_requests = requests;
        inner.last_completions = completions;
        let inflight = requests.saturating_sub(completions);
        let queued = inflight.saturating_sub(busy);
        let open = &mut inner.open;
        open.arrivals += arrivals;
        open.completions += completed;
        open.samples += 1;
        open.busy_sum += busy;
        open.queued_sum += queued;
        open.queued_max = open.queued_max.max(queued);
        open.inflight_sum += inflight;
    }

    /// The delta reply for a client that has seen windows below `since`:
    /// every retained sealed window with `index >= since`, oldest first.
    pub fn reply_since(&self, since: u64) -> MetricsReply {
        let inner = self.inner.lock().expect("metrics hub");
        MetricsReply {
            interval_ps: self.interval_ps,
            workers: self.workers,
            next_index: inner.open.index,
            windows: inner
                .sealed
                .iter()
                .filter(|w| w.index >= since)
                .copied()
                .collect(),
        }
    }

    /// The most recently sealed window, if any window has sealed yet.
    pub fn latest(&self) -> Option<MetricsWindow> {
        let inner = self.inner.lock().expect("metrics hub");
        inner.sealed.last().copied()
    }
}

/// Renders the Prometheus text exposition (`text/plain; version=0.0.4`)
/// for a server: cumulative counters, dispatcher gauges, and — when a
/// sampler runs — the latest sealed window's gauges.
pub fn render_prometheus(
    snapshot: &StatsSnapshot,
    hub: Option<&MetricsHub>,
) -> String {
    use std::fmt::Write as _;

    let mut out = String::with_capacity(1_024);
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "valetd_requests_total",
        "Request frames accepted since server start.",
        snapshot.requests_rx,
    );
    counter(
        "valetd_request_bytes_total",
        "Request bytes read, length prefixes included.",
        snapshot.bytes_rx,
    );
    counter(
        "valetd_replenish_batches_total",
        "Deliveries to workers (one per item handed to a worker).",
        snapshot.replenish_batches,
    );
    counter(
        "valetd_trace_dropped_total",
        "Trace events lost to a full ring (capture incomplete if > 0).",
        snapshot.trace_dropped,
    );
    counter(
        "valetd_redirects_total",
        "Requests refused with a redirect while draining.",
        snapshot.redirects,
    );
    let _ = writeln!(
        out,
        "# HELP valetd_completions_total Responses served, by worker."
    );
    let _ = writeln!(out, "# TYPE valetd_completions_total counter");
    for (w, row) in snapshot.per_worker.iter().enumerate() {
        let _ = writeln!(
            out,
            "valetd_completions_total{{worker=\"{w}\"}} {}",
            row.completions
        );
    }
    let _ = writeln!(
        out,
        "# HELP valetd_queue_high_water Dispatch-queue depth high water."
    );
    let _ = writeln!(out, "# TYPE valetd_queue_high_water gauge");
    let _ = writeln!(out, "valetd_queue_high_water {}", snapshot.queue_high_water);
    if let Some(hub) = hub {
        let _ = writeln!(
            out,
            "# HELP valetd_window_interval_seconds Metrics window length."
        );
        let _ = writeln!(out, "# TYPE valetd_window_interval_seconds gauge");
        let _ = writeln!(
            out,
            "valetd_window_interval_seconds {}",
            hub.interval_ps() as f64 / 1e12
        );
        if let Some(w) = hub.latest() {
            let samples = w.samples.max(1) as f64;
            let mut gauge = |name: &str, help: &str, value: f64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {value}");
            };
            gauge(
                "valetd_window_arrivals",
                "Requests accepted in the last sealed window.",
                w.arrivals as f64,
            );
            gauge(
                "valetd_window_completions",
                "Responses completed in the last sealed window.",
                w.completions as f64,
            );
            gauge(
                "valetd_window_throughput_rps",
                "Completions per second over the last sealed window.",
                w.completions as f64 * 1e12 / hub.interval_ps() as f64,
            );
            gauge(
                "valetd_window_occupancy",
                "Mean busy-worker fraction over the last sealed window.",
                w.busy_sum as f64 / samples / f64::from(hub.workers.max(1)),
            );
            gauge(
                "valetd_window_queue_depth",
                "Mean queued requests over the last sealed window.",
                w.queued_sum as f64 / samples,
            );
            gauge(
                "valetd_window_queue_depth_max",
                "Max queued requests sampled in the last sealed window.",
                w.queued_max as f64,
            );
            gauge(
                "valetd_window_inflight",
                "Mean in-flight requests over the last sealed window.",
                w.inflight_sum as f64 / samples,
            );
        }
    }
    out
}

/// Where the server stamps request-lifecycle hops: a shared event ring
/// plus the monotonic epoch all timestamps are measured from.
///
/// Cloned into every reader and worker thread; `record` is one
/// `Instant::elapsed` and one lock-free ring push. Only the first
/// `limit` requests are stamped, bounding the capture like the
/// simulator's `trace_capacity` (later requests cost one branch).
#[derive(Clone)]
pub struct TraceSink {
    ring: Arc<EventRing>,
    epoch: Instant,
    limit: u64,
}

impl TraceSink {
    /// A sink stamping the first `limit` requests onto `ring`.
    pub fn new(ring: Arc<EventRing>, limit: u64) -> Self {
        TraceSink {
            ring,
            epoch: Instant::now(),
            limit,
        }
    }

    /// Events lost because the ring was full. Non-zero means the capture
    /// is incomplete; surfaced in the `STATS` snapshot as
    /// `trace_dropped` so remote clients can detect a biased trace.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Stamps one hop for request `req` at the current monotonic time.
    pub fn record(&self, req: u64, hop: Hop, src: u16, core: u16) {
        if req >= self.limit {
            return;
        }
        let t_ps = (self.epoch.elapsed().as_nanos() as u64).saturating_mul(1_000);
        self.ring.try_push(TraceEvent {
            req,
            hop,
            t_ps,
            src,
            core,
        });
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ring_capacity", &self.ring.capacity())
            .field("limit", &self.limit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_into_a_snapshot() {
        let stats = ServerStats::new(2);
        stats.note_request(33);
        stats.note_request(33);
        stats.note_completion(0, 37);
        stats.note_completion(1, 37);
        stats.note_completion(1, 37);
        stats.note_completion(99, 37); // out-of-range worker id: ignored
        stats.note_redirect();
        let snap = stats.snapshot(
            DispatchGauges {
                queue_high_water: 5,
                ring_high_water: 2,
                replenish_batches: 3,
            },
            7,
        );
        assert_eq!(snap.requests_rx, 2, "redirects are not accepted requests");
        assert_eq!(snap.redirects, 1);
        assert_eq!(snap.trace_dropped, 7);
        assert_eq!(snap.bytes_rx, 66);
        assert_eq!(snap.queue_high_water, 5);
        assert_eq!(snap.per_worker.len(), 2);
        assert_eq!(snap.per_worker[0].completions, 1);
        assert_eq!(snap.per_worker[1].completions, 2);
        assert_eq!(snap.completions(), 3);
        assert_eq!(snap.bytes_tx(), 3 * 37);
    }

    #[test]
    fn hub_seals_windows_and_serves_deltas() {
        let interval_ps = 1_000_000; // 1 µs windows (simulated time here)
        let stats = ServerStats::new(2);
        let hub = MetricsHub::new(interval_ps, 2);

        // Window 0: two requests arrive, one completes, worker 0 busy.
        stats.note_request(29);
        stats.note_request(29);
        stats.note_completion(0, 33);
        stats.note_busy(0, true);
        hub.tick(500_000, &stats);
        assert!(hub.latest().is_none(), "window 0 still open");

        // Crossing into window 2 seals windows 0 and 1 (1 is empty).
        stats.note_request(29);
        stats.note_busy(0, false);
        hub.tick(2_100_000, &stats);
        let reply = hub.reply_since(0);
        assert_eq!(reply.interval_ps, interval_ps);
        assert_eq!(reply.workers, 2);
        assert_eq!(reply.next_index, 2);
        assert_eq!(reply.windows.len(), 2);
        let w0 = &reply.windows[0];
        assert_eq!(w0.index, 0);
        assert_eq!(w0.arrivals, 2);
        assert_eq!(w0.completions, 1);
        assert_eq!(w0.samples, 1);
        assert_eq!(w0.busy_sum, 1);
        assert_eq!(w0.inflight_sum, 1, "2 accepted − 1 completed");
        assert_eq!(w0.queued_sum, 0, "the in-flight request is busy");
        let w1 = &reply.windows[1];
        assert_eq!(w1.index, 1);
        assert_eq!(w1.samples, 0, "no tick landed in window 1");

        // Delta encoding: a client at the watermark gets nothing new.
        let caught_up = hub.reply_since(reply.next_index);
        assert!(caught_up.windows.is_empty());
        assert_eq!(caught_up.next_index, 2);
    }

    #[test]
    fn prometheus_text_renders_counters_and_window_gauges() {
        let stats = ServerStats::new(2);
        stats.note_request(29);
        stats.note_completion(1, 33);
        let hub = MetricsHub::new(1_000_000, 2);
        stats.note_busy(1, true);
        hub.tick(100_000, &stats);
        hub.tick(1_200_000, &stats); // seals window 0
        let snap = stats.snapshot(DispatchGauges::default(), 0);
        let text = render_prometheus(&snap, Some(&hub));
        assert!(text.contains("valetd_requests_total 1"));
        assert!(text.contains("valetd_completions_total{worker=\"1\"} 1"));
        assert!(text.contains("valetd_trace_dropped_total 0"));
        assert!(text.contains("valetd_window_occupancy 0.5"), "{text}");
        assert!(text.contains("# TYPE valetd_requests_total counter"));
        // Without a hub, only the cumulative families render.
        let bare = render_prometheus(&snap, None);
        assert!(!bare.contains("valetd_window_"));
    }

    #[test]
    fn sink_limit_bounds_the_capture() {
        let ring = Arc::new(EventRing::with_capacity(16));
        let sink = TraceSink::new(Arc::clone(&ring), 2);
        for req in 0..5 {
            sink.record(req, Hop::Arrival, 0, 0);
        }
        let mut captured = 0;
        while ring.try_pop().is_some() {
            captured += 1;
        }
        assert_eq!(captured, 2, "requests past the limit are not stamped");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn sink_timestamps_are_monotone() {
        let ring = Arc::new(EventRing::with_capacity(16));
        let sink = TraceSink::new(Arc::clone(&ring), u64::MAX);
        sink.record(0, Hop::Arrival, 1, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.record(0, Hop::Completed, 1, 3);
        let a = ring.try_pop().unwrap();
        let b = ring.try_pop().unwrap();
        assert!(b.t_ps >= a.t_ps + 1_000_000, "2 ms apart on the ps clock");
        assert_eq!(a.src, 1);
        assert_eq!(b.core, 3);
    }
}
