//! The benchmark's own recording and estimators: a fixed-size log
//! histogram and the per-window summary every workload reports through.
//!
//! The recording is the measuring instrument, so it is the benchmark's
//! and not `metrics::LatencyHistogram`: a later change to that crate
//! must not move the instrument along with the thing measured. Memory
//! is constant (one boxed array per histogram) — nothing here grows
//! with the length of a run, which keeps `peak_rss_mb` about the
//! program.

/// Sub-buckets per power of two: 64 gives 1.6 % bucket width, and
/// percentiles interpolate inside the bucket.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A histogram of `u64` values (the callers use nanoseconds).
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }

    #[inline]
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let seg = 63 - v.leading_zeros();
        let sub = (v >> (seg - SUB_BITS)) as usize & (SUB - 1);
        (((seg - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }

    /// `(lower bound, width)` of a bucket.
    fn bounds(idx: usize) -> (u64, u64) {
        if idx < SUB {
            return (idx as u64, 1);
        }
        let shift = (idx >> SUB_BITS) as u32 - 1;
        (((SUB + (idx & (SUB - 1))) as u64) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, interpolated linearly inside its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                let (lower, width) = Self::bounds(idx);
                return lower as f64 + width as f64 * ((rank - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        let (lower, width) = Self::bounds(BUCKETS - 1);
        lower as f64 + width as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of an ascending slice, interpolated between order
/// statistics; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q * last as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// One measured window: its throughput, its latency quantiles (µs) and
/// the samples they rest on. A window is a twenty-fifth of the measured
/// interval for the live workloads and one replication for the
/// simulator's.
#[derive(Clone, Copy)]
pub struct WindowStat {
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
}

/// Windows whose p99 exceeds 3× the median window's — the box, not the
/// program; read before trusting the row.
pub fn disturbed(windows: &[WindowStat]) -> usize {
    let p99s: Vec<f64> = windows.iter().map(|w| w.p99_us).collect();
    let typical = median(&p99s);
    p99s.iter().filter(|&&p| p > 3.0 * typical).count()
}

/// One line per window for the human-readable report.
pub fn render(windows: &[WindowStat]) -> String {
    let mut out = String::new();
    for (i, w) in windows.iter().enumerate() {
        out.push_str(&format!(
            "  window {i:>2}: {:>12.1} req/s  p50 {:>9.1} us  p99 {:>9.1} us  n {}\n",
            w.req_per_s, w.p50_us, w.p99_us, w.samples
        ));
    }
    out
}

/// Where in the sorted windows the reported one sits, counted from the
/// quiet side: two fifths of the way in for a rate or a p50, a quarter
/// for a p99.
const TYPICAL: f64 = 0.4;
const TAIL: f64 = 0.25;

/// The estimator behind the live workloads' `req_per_s`, `p50_us` and
/// `p99_us`: each window gets its own value and one window's value is
/// reported, never a whole-run mean or percentile — those are made of
/// the stalls. The box only ever adds latency: it stalls for 250–650 ms
/// at a time, and in a bad minute more than half of all windows are
/// slow, so the median window then measures the neighbours. The closed
/// loop also flips between two interleavings of its threads (p50 16.3
/// and 18.0 µs, the slower one two thirds of the time), so a window a
/// quarter or a third of the way in lands in the rarer one on some runs
/// only. Two fifths of the way in stays clear of both: over four sets of
/// ten to twelve runs `live_closed`'s `p50_us` repeated within
/// 0.6–2.1 % and its `req_per_s` within 1.7–4.2 % (median window:
/// 0.5–0.8 % and 1.9–8.5 %; quartile window: 1.2–7.7 % and 2.2–7.7 %),
/// `live_open`'s `p50_us` within 2.5–2.7 %. A p99 is the box's jitter
/// and one-sided, and repeats best a quarter of the way in.
pub struct WindowSummary {
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Fewest samples any window's percentiles rest on, windows the box
    /// stalled through left out.
    pub min_samples: u64,
    /// See [`disturbed`].
    pub disturbed: usize,
    pub windows: Vec<WindowStat>,
}

impl WindowSummary {
    pub fn of(windows: Vec<WindowStat>) -> Self {
        // A window the box stalled through holds no sample: no latency,
        // and a rate of zero that says nothing about the tier.
        let sampled = || windows.iter().filter(|w| w.samples > 0);
        let pick = |f: fn(&WindowStat) -> f64, q: f64| {
            let mut v: Vec<f64> = sampled().map(f).collect();
            v.sort_by(f64::total_cmp);
            quantile_sorted(&v, q)
        };
        WindowSummary {
            req_per_s: pick(|w| w.req_per_s, 1.0 - TYPICAL),
            p50_us: pick(|w| w.p50_us, TYPICAL),
            p99_us: pick(|w| w.p99_us, TAIL),
            min_samples: sampled().map(|w| w.samples).min().unwrap_or(0),
            disturbed: disturbed(&windows),
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 73_123, u64::MAX] {
            let (lower, width) = LogHist::bounds(LogHist::bucket(v));
            assert!(lower <= v && v - lower < width, "{v}: [{lower}, +{width})");
        }
        assert_eq!(LogHist::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_ones() {
        let mut h = LogHist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q{q}");
        }
    }

    #[test]
    fn quantile_sorted_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&v, 0.5), 30.0);
        assert_eq!(quantile_sorted(&v, 0.99), 49.6);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn one_wrecked_window_moves_nothing() {
        let mut windows = vec![
            WindowStat {
                req_per_s: 25_000.0,
                p50_us: 70.0,
                p99_us: 180.0,
                samples: 1000
            };
            9
        ];
        windows.push(WindowStat {
            req_per_s: 9_000.0,
            p50_us: 75.0,
            p99_us: 19_000.0,
            samples: 400,
        });
        let m = WindowSummary::of(windows);
        assert_eq!(m.disturbed, 1);
        assert_eq!(m.req_per_s, 25_000.0);
        assert_eq!(m.p99_us, 180.0);
        assert_eq!(m.min_samples, 400);
    }

    #[test]
    fn the_quiet_side_survives_a_bad_half() {
        let window = |p50_us, p99_us| WindowStat {
            req_per_s: 1_000_000.0 / p50_us,
            p50_us,
            p99_us,
            samples: 1_666,
        };
        let mut windows = vec![window(800.0, 4_000.0); 12];
        windows.extend(vec![window(900.0, 21_000.0); 13]);
        let m = WindowSummary::of(windows);
        assert_eq!((m.req_per_s, m.p50_us, m.p99_us), (1_250.0, 800.0, 4_000.0));
    }
}
