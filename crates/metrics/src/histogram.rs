//! Log-bucketed latency histogram with bounded relative error.
//!
//! Layout follows the HdrHistogram idea: values are grouped into
//! power-of-two "segments", each split into `2^precision` linear
//! sub-buckets, giving a worst-case relative quantile error of
//! `2^-precision`. With the default precision of 7 the error is < 0.8 %,
//! far below the run-to-run noise of the simulations.

use simkit::SimDuration;

/// Default sub-bucket precision bits (relative error `2^-7` ≈ 0.8 %).
pub const DEFAULT_PRECISION_BITS: u32 = 7;

/// A histogram of durations with logarithmic bucketing.
///
/// Values are recorded in picoseconds. Zero-duration values land in the
/// first bucket. The histogram grows lazily to cover the largest recorded
/// value; memory is `O(log(max) · 2^precision)` — a few KB in practice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    precision_bits: u32,
    /// counts[segment][sub]: segment s covers [2^s .. 2^(s+1)) ps
    /// (segment 0 also covers 0).
    counts: Vec<Vec<u64>>,
    total: u64,
    max_ps: u64,
    min_ps: u64,
    sum_ps: u128,
}

impl LatencyHistogram {
    /// Creates a histogram with the default precision.
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION_BITS)
    }

    /// Creates a histogram with `2^precision_bits` sub-buckets per
    /// power-of-two segment.
    ///
    /// # Panics
    /// Panics if `precision_bits` is 0 or greater than 16.
    pub fn with_precision(precision_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&precision_bits),
            "precision_bits must be in 1..=16, got {precision_bits}"
        );
        LatencyHistogram {
            precision_bits,
            counts: Vec::new(),
            total: 0,
            max_ps: 0,
            min_ps: u64::MAX,
            sum_ps: 0,
        }
    }

    fn bucket_of(&self, ps: u64) -> (usize, usize) {
        if ps == 0 {
            return (0, 0);
        }
        let seg = 63 - ps.leading_zeros() as usize; // floor(log2(ps))
        if (seg as u32) < self.precision_bits {
            // Small values: segment resolution finer than sub-bucket width;
            // store exactly in segment `seg`, sub-bucket index = offset.
            (seg, (ps - (1u64 << seg)) as usize)
        } else {
            let sub = ((ps - (1u64 << seg)) >> (seg as u32 - self.precision_bits)) as usize;
            (seg, sub)
        }
    }

    fn bucket_upper_bound_ps(&self, seg: usize, sub: usize) -> u64 {
        if seg == 0 && sub == 0 {
            return 1;
        }
        if (seg as u32) < self.precision_bits {
            (1u64 << seg) + sub as u64 + 1
        } else {
            let width = 1u64 << (seg as u32 - self.precision_bits);
            (1u64 << seg) + (sub as u64 + 1) * width
        }
    }

    fn sub_buckets(&self, seg: usize) -> usize {
        if (seg as u32) < self.precision_bits {
            1usize << seg
        } else {
            1usize << self.precision_bits
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(d, 1);
    }

    /// Records a duration `n` times.
    pub fn record_n(&mut self, d: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let ps = d.as_ps();
        let (seg, sub) = self.bucket_of(ps);
        if seg >= self.counts.len() {
            for s in self.counts.len()..=seg {
                let width = self.sub_buckets(s);
                self.counts.push(vec![0; width]);
            }
        }
        self.counts[seg][sub] += n;
        self.total += n;
        self.sum_ps += ps as u128 * n as u128;
        if ps > self.max_ps {
            self.max_ps = ps;
        }
        if ps < self.min_ps {
            self.min_ps = ps;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The largest recorded value (upper-bounded by bucket resolution).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// The smallest recorded value.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.min_ps)
        }
    }

    /// The mean of all recorded values (exact, not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / self.total as u128) as u64)
    }

    /// The value at quantile `q ∈ [0, 1]`, e.g. `0.99` for the 99th
    /// percentile. Returns the bucket upper bound containing the target
    /// rank, so results are conservative (never under-report the tail).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or the histogram is empty.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(self.total > 0, "percentile of empty histogram");
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (seg, subs) in self.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let ub = self.bucket_upper_bound_ps(seg, sub);
                    return SimDuration::from_ps(ub.min(self.max_ps.max(1)));
                }
            }
        }
        SimDuration::from_ps(self.max_ps)
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    /// Panics if the precisions differ.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms with different precision"
        );
        if other.counts.len() > self.counts.len() {
            for s in self.counts.len()..other.counts.len() {
                self.counts.push(vec![0; self.sub_buckets(s)]);
            }
        }
        for (seg, subs) in other.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                self.counts[seg][sub] += c;
            }
        }
        self.total += other.total;
        self.sum_ps += other.sum_ps;
        self.max_ps = self.max_ps.max(other.max_ps);
        self.min_ps = self.min_ps.min(other.min_ps);
    }

    /// Discards all recorded values, keeping the configuration.
    pub fn clear(&mut self) {
        for subs in &mut self.counts {
            subs.iter_mut().for_each(|c| *c = 0);
        }
        self.total = 0;
        self.max_ps = 0;
        self.min_ps = u64::MAX;
        self.sum_ps = 0;
    }

    /// Sub-bucket precision bits this histogram was built with.
    pub fn precision_bits(&self) -> u32 {
        self.precision_bits
    }

    /// Exports the full state as a flat, serialization-friendly
    /// snapshot. [`LatencyHistogram::from_snapshot`] reconstructs a
    /// histogram whose every query (count, mean, min, max, percentile,
    /// merge) answers identically — the round trip is lossless.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (seg, subs) in self.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                if c > 0 {
                    buckets.push((seg as u32, sub as u32, c));
                }
            }
        }
        HistogramSnapshot {
            precision_bits: self.precision_bits,
            min_ps: if self.total == 0 { 0 } else { self.min_ps },
            max_ps: self.max_ps,
            sum_ps_hi: (self.sum_ps >> 64) as u64,
            sum_ps_lo: self.sum_ps as u64,
            buckets,
        }
    }

    /// Rebuilds a histogram from a [`HistogramSnapshot`], validating
    /// bucket coordinates so a corrupted store fails loudly instead of
    /// panicking on a later query.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Result<Self, String> {
        if !(1..=16).contains(&snap.precision_bits) {
            return Err(format!(
                "histogram snapshot precision {} out of range 1..=16",
                snap.precision_bits
            ));
        }
        let mut h = LatencyHistogram::with_precision(snap.precision_bits);
        let mut total = 0u64;
        for &(seg, sub, c) in &snap.buckets {
            let seg = seg as usize;
            if seg >= 64 || sub as usize >= h.sub_buckets(seg) {
                return Err(format!("histogram snapshot bucket ({seg}, {sub}) out of range"));
            }
            if seg >= h.counts.len() {
                for s in h.counts.len()..=seg {
                    let width = h.sub_buckets(s);
                    h.counts.push(vec![0; width]);
                }
            }
            h.counts[seg][sub as usize] += c;
            total += c;
        }
        h.total = total;
        h.sum_ps = ((snap.sum_ps_hi as u128) << 64) | snap.sum_ps_lo as u128;
        h.max_ps = snap.max_ps;
        h.min_ps = if total == 0 { u64::MAX } else { snap.min_ps };
        Ok(h)
    }
}

/// Flat dump of a [`LatencyHistogram`]: only non-empty buckets, the
/// exact sum split into two 64-bit words (so stores never round it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sub-bucket precision bits of the source histogram.
    pub precision_bits: u32,
    /// Smallest recorded value (0 when empty).
    pub min_ps: u64,
    /// Largest recorded value.
    pub max_ps: u64,
    /// High 64 bits of the exact picosecond sum.
    pub sum_ps_hi: u64,
    /// Low 64 bits of the exact picosecond sum.
    pub sum_ps_lo: u64,
    /// `(segment, sub_bucket, count)` for each non-empty bucket, in
    /// ascending bucket order.
    pub buckets: Vec<(u32, u32, u64)>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_ns(v)
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(ns(500));
        for &q in &[0.0, 0.5, 0.99, 1.0] {
            let p = h.percentile(q).as_ns_f64();
            assert!(
                (p - 500.0).abs() / 500.0 < 0.01,
                "q={q}: got {p}, want ~500"
            );
        }
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        // Record 1..=10_000 ns uniformly.
        for v in 1..=10_000u64 {
            h.record(ns(v));
        }
        for &(q, expected) in &[(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.percentile(q).as_ns_f64();
            assert!(
                (got - expected).abs() / expected < 0.01,
                "q={q}: got {got}, want ~{expected}"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(ns(100));
        h.record(ns(300));
        assert_eq!(h.mean().as_ns(), 200);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min().as_ns(), 100);
        assert_eq!(h.max().as_ns(), 300);
    }

    #[test]
    fn record_n_counts() {
        let mut h = LatencyHistogram::new();
        h.record_n(ns(10), 99);
        h.record_n(ns(1_000_000), 1); // 1 ms outlier
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.50).as_ns_f64();
        assert!(p50 < 20.0, "p50 {p50}");
        let p995 = h.percentile(0.995).as_ns_f64();
        assert!(p995 > 900_000.0, "p995 {p995} should capture the outlier");
    }

    #[test]
    fn zero_duration_values() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert!(h.percentile(1.0).as_ps() <= 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(ns(100));
        b.record(ns(900));
        b.record(ns(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min().as_ns(), 100);
        assert!(a.max().as_ns() >= 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(ns(5));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn percentile_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            h.record_n(ns(v), 100);
        }
        let mut last = SimDuration::ZERO;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= last, "non-monotone at q={}", i as f64 / 100.0);
            last = p;
        }
    }

    #[test]
    #[should_panic(expected = "percentile of empty histogram")]
    fn empty_percentile_panics() {
        LatencyHistogram::new().percentile(0.5);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_precision_mismatch_panics() {
        let mut a = LatencyHistogram::with_precision(5);
        let b = LatencyHistogram::with_precision(6);
        a.merge(&b);
    }

    /// Deterministic LCG so the associativity/error-bound tests need no
    /// RNG dependency.
    fn lcg_values(seed: u64, n: usize, max_ns: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % max_ns + 1
            })
            .collect()
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: Vec<LatencyHistogram> = (0..3)
            .map(|i| {
                let mut h = LatencyHistogram::new();
                for v in lcg_values(7 + i, 500, 1_000_000) {
                    h.record(ns(v));
                }
                h
            })
            .collect();
        // (a ⊔ b) ⊔ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊔ (b ⊔ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        // c ⊔ b ⊔ a
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, rev, "merge must be commutative");
    }

    #[test]
    fn windowed_quantiles_match_exact_within_error_bound() {
        // Record the same stream into one histogram and an exact sample
        // vector; every quantile must agree within the 2^-precision
        // relative bound (conservatively: bucket width / bucket value).
        let values = lcg_values(42, 20_000, 50_000_000);
        let mut h = LatencyHistogram::new();
        let mut exact_ns: Vec<f64> = Vec::with_capacity(values.len());
        for &v in &values {
            h.record(ns(v));
            exact_ns.push(v as f64);
        }
        let qs = [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let bound = 2f64.powi(-(DEFAULT_PRECISION_BITS as i32)) + 1e-4;
        for q in qs {
            let want = crate::percentile_ns(&exact_ns, q);
            let got = h.percentile(q).as_ns_f64();
            let rel = (got - want).abs() / want;
            // The histogram reports bucket upper bounds while the exact
            // quantile interpolates, so allow one bucket of slack on
            // top of the relative bound.
            assert!(
                rel < 2.0 * bound + 0.01,
                "q={q}: histogram {got} vs exact {want} (rel err {rel:.5})"
            );
        }
    }

    #[test]
    fn one_sample_all_quantiles_agree() {
        let mut h = LatencyHistogram::new();
        h.record(ns(1_234));
        for q in [0.0, 0.5, 1.0] {
            let want = crate::percentile_ns(&[1_234.0], q);
            let got = h.percentile(q).as_ns_f64();
            assert!(
                (got - want).abs() / want < 0.01,
                "q={q}: {got} vs {want}"
            );
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean().as_ns(), 1_234);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        // Merging an empty histogram is the identity.
        let mut a = LatencyHistogram::new();
        a.record(ns(777));
        let before = a.clone();
        a.merge(&h);
        assert_eq!(a, before);
        // Merging into an empty histogram copies the other side.
        let mut e = LatencyHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn snapshot_roundtrip_is_lossless() {
        let mut h = LatencyHistogram::new();
        for v in lcg_values(3, 2_000, 10_000_000) {
            h.record(ns(v));
        }
        h.record(SimDuration::ZERO);
        let snap = h.snapshot();
        let back = LatencyHistogram::from_snapshot(&snap).unwrap();
        assert_eq!(back, h, "snapshot round trip must preserve every bucket");
        assert_eq!(back.mean(), h.mean());
        assert_eq!(back.percentile(0.99), h.percentile(0.99));
    }

    #[test]
    fn snapshot_of_empty_roundtrips() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.buckets.is_empty());
        let back = LatencyHistogram::from_snapshot(&snap).unwrap();
        assert!(back.is_empty());
        assert_eq!(back, LatencyHistogram::new());
    }

    #[test]
    fn snapshot_rejects_corrupt_buckets() {
        let mut snap = LatencyHistogram::new().snapshot();
        snap.buckets.push((2, 99, 1)); // segment 2 has 4 sub-buckets
        assert!(LatencyHistogram::from_snapshot(&snap).is_err());
        snap.buckets.clear();
        snap.precision_bits = 0;
        assert!(LatencyHistogram::from_snapshot(&snap).is_err());
    }
}
