//! Fixed-interval time-series telemetry shared by sim and live.
//!
//! Complements the per-request trace store with *per-interval system
//! state*: each [`SeriesWindow`] holds windowed counters (arrivals,
//! completions), a log-bucketed latency histogram, and occupancy
//! samples (busy cores, queue depths, requests in flight) taken at a
//! fixed cadence on the producer's clock — simulated picoseconds for
//! the simulator, monotonic picoseconds for `valetd`.
//!
//! [`derive_series`] turns raw windows into the analysis-ready
//! trajectory: throughput, p50/p99-per-window, core occupancy,
//! queue-depth timeline, per-dispatch-group load share, and the
//! Little's-law residual `L − λW` — a per-window self-consistency
//! check (mean in-flight vs completion rate × mean latency) that is
//! ≈ 0 in steady state and flags warm-up transients or accounting
//! bugs otherwise.
//!
//! The store is the same sealed JSON Lines layout as the trace store
//! ([`crate::store`]), one header line per job series followed by its
//! windows:
//!
//! ```text
//! {"version":1,"source":"sim","label":"fig8","clock":"sim-ps","interval_ps":…,"jobs":2}
//! {"job":0,"series_label":"1x16 @ 4Mrps","cores":16,"groups":1,"windows":40}
//! {"job":0,"index":0,"arrivals":…,…,"hist":{…}}
//! ...
//! {"windows":80,"digest":"9f0a…"}
//! ```
//!
//! The seal digests the canonical binary encoding of every window in
//! job order, so simulator stores are byte-identical for any worker
//! thread count — the same determinism contract as the trace store.

use std::path::Path;

use metrics::{Digest64, HistogramSnapshot, LatencyHistogram};
use serde::{Deserialize, Serialize};

use crate::sealed::{self, Seal, SealedWriter};
use crate::store::{CLOCK_MONO_PS, CLOCK_SIM_PS};

/// Series store format version, bumped on any layout change.
pub const SERIES_VERSION: u32 = 1;

/// One fixed-length interval of recorded system activity.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Window index: `floor(t / interval)` on the producer's clock.
    pub index: u64,
    /// Requests that arrived during the window.
    pub arrivals: u64,
    /// Requests that completed during the window.
    pub completions: u64,
    /// Latencies of the window's completions.
    pub latency: LatencyHistogram,
    /// Occupancy samples taken during the window.
    pub samples: u64,
    /// Σ over samples of the busy-core count.
    pub busy_sum: u64,
    /// Σ over samples of the total queued-request count.
    pub queued_sum: u64,
    /// Largest sampled queue depth.
    pub queued_max: u64,
    /// Σ over samples of requests in flight (arrived, not completed).
    pub inflight_sum: u64,
    /// Per-core busy sample counts (`core_busy[c] / samples` = core
    /// `c`'s occupancy).
    pub core_busy: Vec<u64>,
    /// Per-dispatch-group Σ over samples of queued requests.
    pub group_queue_sum: Vec<u64>,
    /// Per-dispatch-group completion counts (load share).
    pub group_completions: Vec<u64>,
}

impl SeriesWindow {
    /// An empty window at `index` shaped for `cores` cores and
    /// `groups` dispatch groups.
    pub fn empty(index: u64, cores: usize, groups: usize) -> SeriesWindow {
        SeriesWindow {
            index,
            arrivals: 0,
            completions: 0,
            latency: LatencyHistogram::new(),
            samples: 0,
            busy_sum: 0,
            queued_sum: 0,
            queued_max: 0,
            inflight_sum: 0,
            core_busy: vec![0; cores],
            group_queue_sum: vec![0; groups],
            group_completions: vec![0; groups],
        }
    }

    /// Folds `other` into this window (counter sums, histogram merge,
    /// element-wise vector sums — shorter vectors are zero-extended).
    pub fn absorb(&mut self, other: &SeriesWindow) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.latency.merge(&other.latency);
        self.samples += other.samples;
        self.busy_sum += other.busy_sum;
        self.queued_sum += other.queued_sum;
        self.queued_max = self.queued_max.max(other.queued_max);
        self.inflight_sum += other.inflight_sum;
        add_elementwise(&mut self.core_busy, &other.core_busy);
        add_elementwise(&mut self.group_queue_sum, &other.group_queue_sum);
        add_elementwise(&mut self.group_completions, &other.group_completions);
    }

    fn fold_digest(&self, d: &mut Digest64) {
        d.write_u64(self.index);
        d.write_u64(self.arrivals);
        d.write_u64(self.completions);
        d.write_u64(self.samples);
        d.write_u64(self.busy_sum);
        d.write_u64(self.queued_sum);
        d.write_u64(self.queued_max);
        d.write_u64(self.inflight_sum);
        for vec in [&self.core_busy, &self.group_queue_sum, &self.group_completions] {
            d.write_u64(vec.len() as u64);
            for &v in vec {
                d.write_u64(v);
            }
        }
        let h = self.latency.snapshot();
        d.write_u64(h.precision_bits as u64);
        d.write_u64(h.min_ps);
        d.write_u64(h.max_ps);
        d.write_u64(h.sum_ps_hi);
        d.write_u64(h.sum_ps_lo);
        d.write_u64(h.buckets.len() as u64);
        for &(seg, sub, c) in &h.buckets {
            d.write_u64(seg as u64);
            d.write_u64(sub as u64);
            d.write_u64(c);
        }
    }
}

fn add_elementwise(into: &mut Vec<u64>, from: &[u64]) {
    if from.len() > into.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Accumulates [`SeriesWindow`]s at a fixed interval.
///
/// The recorder is clock-agnostic: callers feed picosecond timestamps
/// from whatever timebase they own (simulated time, monotonic time),
/// and each observation lands in window `floor(t / interval)`. Windows
/// are materialized densely from 0 through the latest observation, so
/// idle gaps appear as explicit zero windows rather than silences.
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    interval_ps: u64,
    cores: usize,
    groups: usize,
    windows: Vec<SeriesWindow>,
}

impl SeriesRecorder {
    /// A recorder bucketing observations into `interval_ps`-long
    /// windows, shaped for `cores` cores and `groups` dispatch groups.
    ///
    /// # Panics
    /// Panics if `interval_ps` is 0.
    pub fn new(interval_ps: u64, cores: usize, groups: usize) -> SeriesRecorder {
        assert!(interval_ps > 0, "series interval must be positive");
        SeriesRecorder {
            interval_ps,
            cores,
            groups,
            windows: Vec::new(),
        }
    }

    /// The window length in picoseconds.
    pub fn interval_ps(&self) -> u64 {
        self.interval_ps
    }

    fn window_mut(&mut self, t_ps: u64) -> &mut SeriesWindow {
        let idx = (t_ps / self.interval_ps) as usize;
        while self.windows.len() <= idx {
            let index = self.windows.len() as u64;
            self.windows.push(SeriesWindow::empty(index, self.cores, self.groups));
        }
        &mut self.windows[idx]
    }

    /// Records a request arrival at `t_ps`.
    pub fn note_arrival(&mut self, t_ps: u64) {
        self.window_mut(t_ps).arrivals += 1;
    }

    /// Records a completion at `t_ps` with the request's end-to-end
    /// latency, dispatched by `group`.
    pub fn note_completion(&mut self, t_ps: u64, latency_ps: u64, group: usize) {
        let w = self.window_mut(t_ps);
        w.completions += 1;
        w.latency.record(simkit::SimDuration::from_ps(latency_ps));
        if let Some(c) = w.group_completions.get_mut(group) {
            *c += 1;
        }
    }

    /// Takes one occupancy sample at `t_ps`: which cores are busy,
    /// per-group queue depths, the total queued count (may exceed the
    /// group sum when requests also wait outside dispatch queues), and
    /// the in-flight count.
    pub fn sample(
        &mut self,
        t_ps: u64,
        core_busy: &[bool],
        group_queues: &[u64],
        queued_total: u64,
        inflight: u64,
    ) {
        let w = self.window_mut(t_ps);
        w.samples += 1;
        w.queued_sum += queued_total;
        w.queued_max = w.queued_max.max(queued_total);
        w.inflight_sum += inflight;
        for (slot, &busy) in w.core_busy.iter_mut().zip(core_busy) {
            if busy {
                *slot += 1;
                w.busy_sum += 1;
            }
        }
        for (slot, &q) in w.group_queue_sum.iter_mut().zip(group_queues) {
            *slot += q;
        }
    }

    /// The windows recorded so far.
    pub fn windows(&self) -> &[SeriesWindow] {
        &self.windows
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Consumes the recorder into one labelled job series.
    pub fn into_job(self, label: &str) -> JobSeries {
        JobSeries {
            label: label.to_owned(),
            cores: self.cores as u64,
            groups: self.groups as u64,
            windows: self.windows,
        }
    }
}

/// One job's (one experiment point's) complete window series.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSeries {
    /// What this series measured (policy/rate label).
    pub label: String,
    /// Cores the occupancy vectors are shaped for.
    pub cores: u64,
    /// Dispatch groups the load-share vectors are shaped for.
    pub groups: u64,
    /// Windows in time order.
    pub windows: Vec<SeriesWindow>,
}

/// One analysis-ready point derived from a [`SeriesWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedPoint {
    /// Window index.
    pub index: u64,
    /// Window start on the producer's clock, in seconds.
    pub t_start_s: f64,
    /// Completions per second during the window.
    pub throughput_rps: f64,
    /// Median latency of the window's completions (ns; NaN when none).
    pub p50_ns: f64,
    /// 99th-percentile latency (ns; NaN when no completions).
    pub p99_ns: f64,
    /// Mean latency (ns; NaN when no completions).
    pub mean_latency_ns: f64,
    /// Mean fraction of cores busy (0..1; NaN without samples).
    pub occupancy: f64,
    /// Mean sampled queue depth (NaN without samples).
    pub mean_queue_depth: f64,
    /// Largest sampled queue depth.
    pub max_queue_depth: u64,
    /// Mean sampled in-flight count `L` (NaN without samples).
    pub mean_inflight: f64,
    /// Each dispatch group's share of the window's completions.
    pub group_load_share: Vec<f64>,
    /// Little's-law residual `L − λW` in requests (NaN without both
    /// samples and completions). ≈ 0 in steady state.
    pub littles_residual: f64,
}

/// Derives the analysis series from raw windows.
pub fn derive_series(windows: &[SeriesWindow], interval_ps: u64, cores: u64) -> Vec<DerivedPoint> {
    let interval_s = interval_ps as f64 * 1e-12;
    windows
        .iter()
        .map(|w| {
            let (p50_ns, p99_ns, mean_latency_ns) = if w.latency.is_empty() {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                (
                    w.latency.percentile(0.50).as_ns_f64(),
                    w.latency.percentile(0.99).as_ns_f64(),
                    w.latency.mean().as_ns_f64(),
                )
            };
            let throughput_rps = w.completions as f64 / interval_s;
            let (occupancy, mean_queue_depth, mean_inflight) = if w.samples == 0 {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                let samples = w.samples as f64;
                (
                    if cores == 0 {
                        f64::NAN
                    } else {
                        w.busy_sum as f64 / (samples * cores as f64)
                    },
                    w.queued_sum as f64 / samples,
                    w.inflight_sum as f64 / samples,
                )
            };
            // λW: completion rate × mean latency, in requests. Computed
            // in ps to avoid the double unit conversion.
            let littles_residual = if w.samples == 0 || w.latency.is_empty() {
                f64::NAN
            } else {
                let lam_w =
                    w.completions as f64 * w.latency.mean().as_ps() as f64 / interval_ps as f64;
                mean_inflight - lam_w
            };
            let group_load_share = w
                .group_completions
                .iter()
                .map(|&c| {
                    if w.completions == 0 {
                        0.0
                    } else {
                        c as f64 / w.completions as f64
                    }
                })
                .collect();
            DerivedPoint {
                index: w.index,
                t_start_s: w.index as f64 * interval_s,
                throughput_rps,
                p50_ns,
                p99_ns,
                mean_latency_ns,
                occupancy,
                mean_queue_depth,
                max_queue_depth: w.queued_max,
                mean_inflight,
                group_load_share,
                littles_residual,
            }
        })
        .collect()
}

/// Coarsens a series by folding every `factor` consecutive windows
/// into one (new interval = old interval × factor).
///
/// # Panics
/// Panics if `factor` is 0.
pub fn resample(windows: &[SeriesWindow], factor: u64) -> Vec<SeriesWindow> {
    assert!(factor > 0, "resample factor must be positive");
    let mut out: Vec<SeriesWindow> = Vec::new();
    for w in windows {
        let index = w.index / factor;
        match out.last_mut() {
            Some(last) if last.index == index => last.absorb(w),
            _ => {
                let mut folded = w.clone();
                folded.index = index;
                out.push(folded);
            }
        }
    }
    out
}

/// Descriptive metadata recorded in the series-store manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesMeta {
    /// Producer: `"sim"` or `"live"`.
    pub source: String,
    /// What was captured (scenario/matrix label).
    pub label: String,
    /// Timebase: [`CLOCK_SIM_PS`] or [`CLOCK_MONO_PS`].
    pub clock: String,
    /// Window length in picoseconds of the producer's clock.
    pub interval_ps: u64,
    /// Number of job series in the store.
    pub jobs: u64,
}

impl SeriesMeta {
    /// Manifest for a simulator capture.
    pub fn sim(label: &str, interval_ps: u64, jobs: u64) -> SeriesMeta {
        SeriesMeta {
            source: "sim".to_owned(),
            label: label.to_owned(),
            clock: CLOCK_SIM_PS.to_owned(),
            interval_ps,
            jobs,
        }
    }

    /// Manifest for a live capture.
    pub fn live(label: &str, interval_ps: u64, jobs: u64) -> SeriesMeta {
        SeriesMeta {
            source: "live".to_owned(),
            label: label.to_owned(),
            clock: CLOCK_MONO_PS.to_owned(),
            interval_ps,
            jobs,
        }
    }
}

#[derive(Serialize, Deserialize)]
struct JobLine {
    job: u64,
    series_label: String,
    cores: u64,
    groups: u64,
    windows: u64,
}

#[derive(Serialize, Deserialize)]
struct HistLine {
    precision: u32,
    min_ps: u64,
    max_ps: u64,
    sum_hi: u64,
    sum_lo: u64,
    buckets: Vec<(u32, u32, u64)>,
}

impl HistLine {
    fn from_hist(h: &LatencyHistogram) -> HistLine {
        let snap = h.snapshot();
        HistLine {
            precision: snap.precision_bits,
            min_ps: snap.min_ps,
            max_ps: snap.max_ps,
            sum_hi: snap.sum_ps_hi,
            sum_lo: snap.sum_ps_lo,
            buckets: snap.buckets,
        }
    }

    fn to_hist(&self) -> Result<LatencyHistogram, String> {
        LatencyHistogram::from_snapshot(&HistogramSnapshot {
            precision_bits: self.precision,
            min_ps: self.min_ps,
            max_ps: self.max_ps,
            sum_ps_hi: self.sum_hi,
            sum_ps_lo: self.sum_lo,
            buckets: self.buckets.clone(),
        })
    }
}

#[derive(Serialize, Deserialize)]
struct WindowLine {
    job: u64,
    index: u64,
    arrivals: u64,
    completions: u64,
    samples: u64,
    busy_sum: u64,
    queued_sum: u64,
    queued_max: u64,
    inflight_sum: u64,
    core_busy: Vec<u64>,
    group_queue_sum: Vec<u64>,
    group_completions: Vec<u64>,
    hist: HistLine,
}

#[derive(Serialize, Deserialize)]
struct SeriesSeal {
    windows: u64,
    digest: String,
}

impl Seal for SeriesSeal {
    const ITEMS: &'static str = "windows";

    fn count(&self) -> u64 {
        self.windows
    }

    fn digest(&self) -> &str {
        &self.digest
    }
}

/// The canonical digest over a store's job series, in order.
pub fn digest_series(jobs: &[JobSeries]) -> Digest64 {
    let mut d = Digest64::new();
    for (job, series) in jobs.iter().enumerate() {
        d.write_u64(job as u64);
        d.write_str(&series.label);
        d.write_u64(series.cores);
        d.write_u64(series.groups);
        d.write_u64(series.windows.len() as u64);
        for w in &series.windows {
            w.fold_digest(&mut d);
        }
    }
    d
}

/// Writes a complete series store in one call. Returns the sealed
/// digest (hex).
pub fn write_series_store(
    path: &Path,
    meta: &SeriesMeta,
    jobs: &[JobSeries],
) -> std::io::Result<String> {
    let manifest = SeriesMeta {
        jobs: jobs.len() as u64,
        ..meta.clone()
    };
    let mut out = SealedWriter::create(path, SERIES_VERSION, &manifest)?;
    let mut windows = 0u64;
    for (job, series) in jobs.iter().enumerate() {
        out.line(&JobLine {
            job: job as u64,
            series_label: series.label.clone(),
            cores: series.cores,
            groups: series.groups,
            windows: series.windows.len() as u64,
        })?;
        for w in &series.windows {
            windows += 1;
            out.line(&WindowLine {
                job: job as u64,
                index: w.index,
                arrivals: w.arrivals,
                completions: w.completions,
                samples: w.samples,
                busy_sum: w.busy_sum,
                queued_sum: w.queued_sum,
                queued_max: w.queued_max,
                inflight_sum: w.inflight_sum,
                core_busy: w.core_busy.clone(),
                group_queue_sum: w.group_queue_sum.clone(),
                group_completions: w.group_completions.clone(),
                hist: HistLine::from_hist(&w.latency),
            })?;
        }
    }
    let digest = digest_series(jobs).hex();
    out.seal(&SeriesSeal {
        windows,
        digest: digest.clone(),
    })?;
    Ok(digest)
}

/// A fully loaded and verified series store.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    /// The manifest metadata.
    pub meta: SeriesMeta,
    /// Every job series, in store order.
    pub jobs: Vec<JobSeries>,
    /// The sealed digest (verified against the windows on load).
    pub digest: String,
}

impl SeriesStore {
    /// Loads and verifies a store: manifest version, seal presence,
    /// window count, job count, and digest must all check out.
    pub fn load(path: &Path) -> Result<SeriesStore, String> {
        let (meta, jobs, seal): (SeriesMeta, Vec<JobSeries>, SeriesSeal) = sealed::load(
            path,
            "series store",
            SERIES_VERSION,
            |jobs: &mut Vec<JobSeries>, line| {
                if let Ok(w) = WindowLine::deserialize(line) {
                    let job = jobs
                        .get_mut(w.job as usize)
                        .ok_or_else(|| format!("window for undeclared job {}", w.job))?;
                    job.windows.push(SeriesWindow {
                        index: w.index,
                        arrivals: w.arrivals,
                        completions: w.completions,
                        latency: w.hist.to_hist()?,
                        samples: w.samples,
                        busy_sum: w.busy_sum,
                        queued_sum: w.queued_sum,
                        queued_max: w.queued_max,
                        inflight_sum: w.inflight_sum,
                        core_busy: w.core_busy,
                        group_queue_sum: w.group_queue_sum,
                        group_completions: w.group_completions,
                    });
                } else if let Ok(j) = JobLine::deserialize(line) {
                    if j.job as usize != jobs.len() {
                        return Err(format!(
                            "job header {} out of order (expected {})",
                            j.job,
                            jobs.len()
                        ));
                    }
                    jobs.push(JobSeries {
                        label: j.series_label,
                        cores: j.cores,
                        groups: j.groups,
                        windows: Vec::with_capacity(j.windows as usize),
                    });
                } else {
                    return Ok(false);
                }
                Ok(true)
            },
            |jobs| {
                let windows = jobs.iter().map(|j| j.windows.len() as u64).sum();
                (windows, digest_series(jobs).hex())
            },
        )?;
        if meta.interval_ps == 0 {
            return Err(format!("{}: zero window interval", path.display()));
        }
        if meta.jobs != jobs.len() as u64 {
            return Err(format!(
                "{}: manifest says {} jobs, store holds {}",
                path.display(),
                meta.jobs,
                jobs.len()
            ));
        }
        Ok(SeriesStore {
            meta,
            jobs,
            digest: seal.digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("telemetry-timeseries-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A deterministic steady-state stream: one arrival and one
    /// completion per `gap_ps`, constant latency, alternating cores.
    fn steady_recorder() -> SeriesRecorder {
        let mut rec = SeriesRecorder::new(1_000_000, 4, 2); // 1 µs windows
        let gap_ps = 10_000; // 100 events per window
        let latency_ps = 25_000;
        for i in 0..1_000u64 {
            let t = i * gap_ps;
            rec.note_arrival(t);
            if t >= latency_ps {
                rec.note_completion(t, latency_ps, (i % 2) as usize);
            }
            // 2.5 requests in flight on average (latency / gap).
            rec.sample(t, &[true, true, i % 2 == 0, false], &[1, 1], 2, 3);
        }
        rec
    }

    #[test]
    fn recorder_buckets_by_interval() {
        let mut rec = SeriesRecorder::new(1_000, 2, 1);
        rec.note_arrival(0);
        rec.note_arrival(999);
        rec.note_arrival(1_000);
        rec.note_completion(2_500, 100, 0);
        let w = rec.windows();
        assert_eq!(w.len(), 3, "windows 0..=2 materialized densely");
        assert_eq!(w[0].arrivals, 2);
        assert_eq!(w[1].arrivals, 1);
        assert_eq!(w[2].completions, 1);
        assert_eq!(w[2].group_completions, vec![1]);
        assert_eq!(w[1].completions, 0, "idle window is explicit zeros");
    }

    #[test]
    fn derived_series_computes_throughput_and_occupancy() {
        let rec = steady_recorder();
        let derived = derive_series(rec.windows(), rec.interval_ps(), 4);
        assert_eq!(derived.len(), 10);
        let mid = &derived[5];
        // 100 completions per 1 µs window = 100 Mrps.
        assert!((mid.throughput_rps - 1.0e8).abs() / 1.0e8 < 0.05, "{}", mid.throughput_rps);
        // 2.5 of 4 cores busy on average.
        assert!((mid.occupancy - 2.5 / 4.0).abs() < 0.05, "{}", mid.occupancy);
        assert!((mid.mean_queue_depth - 2.0).abs() < 1e-9);
        assert_eq!(mid.max_queue_depth, 2);
        // Constant 25 ns latency.
        assert!((mid.p50_ns - 25.0).abs() / 25.0 < 0.02, "{}", mid.p50_ns);
        assert!((mid.p99_ns - 25.0).abs() / 25.0 < 0.02, "{}", mid.p99_ns);
        // Balanced halves.
        assert!((mid.group_load_share[0] - 0.5).abs() < 0.02);
        assert!((mid.group_load_share[1] - 0.5).abs() < 0.02);
    }

    #[test]
    fn littles_residual_near_zero_in_steady_state() {
        let rec = steady_recorder();
        let derived = derive_series(rec.windows(), rec.interval_ps(), 4);
        // Steady state: sampled L = 3, λW = 100/µs × 25 ns = 2.5 —
        // residual is the deliberate 0.5 gap we injected.
        for p in &derived[2..9] {
            assert!(
                (p.littles_residual - 0.5).abs() < 0.1,
                "window {}: residual {}",
                p.index,
                p.littles_residual
            );
        }
    }

    #[test]
    fn empty_window_derives_nans_not_panics() {
        let w = SeriesWindow::empty(0, 4, 2);
        let derived = derive_series(&[w], 1_000_000, 4);
        assert!(derived[0].p99_ns.is_nan());
        assert!(derived[0].occupancy.is_nan());
        assert!(derived[0].littles_residual.is_nan());
        assert_eq!(derived[0].throughput_rps, 0.0);
        assert_eq!(derived[0].group_load_share, vec![0.0, 0.0]);
    }

    #[test]
    fn resample_coarsens_and_preserves_counts() {
        let rec = steady_recorder();
        let a = rec.windows().to_vec();
        let coarse = resample(&a, 5);
        assert_eq!(coarse.len(), 2);
        assert_eq!(
            coarse[0].arrivals,
            a[..5].iter().map(|w| w.arrivals).sum::<u64>()
        );
        assert_eq!(coarse[1].index, 1);
        // Total counts preserved.
        assert_eq!(
            coarse.iter().map(|w| w.completions).sum::<u64>(),
            a.iter().map(|w| w.completions).sum::<u64>()
        );
    }

    #[test]
    fn store_roundtrips_and_verifies() {
        let path = temp_path("roundtrip.series");
        let jobs = vec![
            steady_recorder().into_job("1x16 @ 4Mrps"),
            SeriesRecorder::new(1_000_000, 4, 2).into_job("empty job"),
        ];
        let meta = SeriesMeta::sim("unit", 1_000_000, 2);
        let digest = write_series_store(&path, &meta, &jobs).unwrap();
        let store = SeriesStore::load(&path).unwrap();
        assert_eq!(store.meta, meta);
        assert_eq!(store.jobs, jobs);
        assert_eq!(store.digest, digest);
        assert_eq!(digest, digest_series(&jobs).hex());
    }

    #[test]
    fn store_detects_tampering() {
        let path = temp_path("tampered.series");
        let jobs = vec![steady_recorder().into_job("x")];
        write_series_store(&path, &SeriesMeta::sim("unit", 1_000_000, 1), &jobs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"arrivals\":100", "\"arrivals\":101", 1);
        assert_ne!(text, tampered, "test must actually change a line");
        std::fs::write(&path, tampered).unwrap();
        let err = SeriesStore::load(&path).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn store_missing_seal_is_interrupted() {
        let path = temp_path("unsealed.series");
        let full = temp_path("unsealed-src.series");
        let jobs = vec![steady_recorder().into_job("x")];
        write_series_store(&full, &SeriesMeta::sim("unit", 1_000_000, 1), &jobs).unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = SeriesStore::load(&path).unwrap_err();
        assert!(err.contains("missing seal"), "{err}");
    }

    #[test]
    fn store_rejects_future_versions() {
        let path = temp_path("future.series");
        std::fs::write(
            &path,
            "{\"version\":99,\"source\":\"sim\",\"label\":\"x\",\"clock\":\"sim-ps\",\
             \"interval_ps\":1000,\"jobs\":0}\n",
        )
        .unwrap();
        let err = SeriesStore::load(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }
}
