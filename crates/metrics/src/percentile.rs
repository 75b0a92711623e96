//! Exact percentile computation over sample vectors.
//!
//! For the queueing-model runs (hundreds of thousands of samples) exact
//! percentiles are cheap and remove bucketing error from the comparisons
//! against theory in Fig. 9. [`quantiles_unsorted`] is the one production
//! routine; [`percentile_ns`] is the sort-based reference it is tested
//! against.

/// Exact `q`-quantile of f64 nanosecond samples using the nearest-rank
/// method on a sorted copy of the data.
///
/// Nearest-rank matches the paper's "99th percentile latency": the
/// smallest recorded value ≥ 99 % of all values.
///
/// # Panics
/// Panics if `samples` is empty, contains NaN, or `q` is out of range.
///
/// # Example
/// ```
/// use metrics::percentile_ns;
/// let xs: Vec<f64> = (1..=100).map(|v| v as f64).collect();
/// assert_eq!(percentile_ns(&xs, 0.99), 99.0);
/// assert_eq!(percentile_ns(&xs, 1.0), 100.0);
/// ```
pub fn percentile_ns(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    sorted[rank(sorted.len(), q)]
}

/// Nearest-rank index for a sorted array of length `n` at quantile `q`.
fn rank(n: usize, q: f64) -> usize {
    if q <= 0.0 {
        return 0;
    }
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Extracts several nearest-rank quantiles from **unsorted** samples in
/// `O(n)` total via repeated `select_nth_unstable` on narrowing
/// prefixes, reordering `samples` in place. Returns exactly the values
/// [`percentile_ns`] would (the k-th order statistic is the same number
/// whether found by a full sort or a selection) — the fastest option for
/// the simulator hot path, which wants two or three quantiles of
/// hundreds of thousands of samples.
///
/// # Panics
/// Panics if `samples` is empty, contains NaN, or a quantile is out of
/// `[0, 1]`.
///
/// # Example
/// ```
/// use metrics::quantiles_unsorted;
/// let mut xs: Vec<f64> = (1..=100).rev().map(|v| v as f64).collect();
/// assert_eq!(quantiles_unsorted(&mut xs, &[0.5, 0.9, 0.99]), vec![50.0, 90.0, 99.0]);
/// ```
pub fn quantiles_unsorted(samples: &mut [f64], qs: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    // Select from the highest rank down; each selection partitions the
    // slice so lower ranks live in the prefix, which keeps every later
    // selection correct on a shorter slice.
    let mut order: Vec<usize> = (0..qs.len()).collect();
    for &q in qs {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    }
    order.sort_by(|&a, &b| qs[b].partial_cmp(&qs[a]).expect("quantiles are not NaN"));
    let n = samples.len();
    let mut out = vec![0.0; qs.len()];
    let mut limit = n;
    for idx in order {
        let r = rank(n, qs[idx]);
        let (_, v, _) = samples[..limit.max(r + 1)]
            .select_nth_unstable_by(r, |a, b| {
                a.partial_cmp(b).expect("samples must not contain NaN")
            });
        out[idx] = *v;
        limit = r + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_basics() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_ns(&xs, 0.0), 10.0);
        assert_eq!(percentile_ns(&xs, 0.2), 10.0);
        assert_eq!(percentile_ns(&xs, 0.21), 20.0);
        assert_eq!(percentile_ns(&xs, 0.5), 30.0);
        assert_eq!(percentile_ns(&xs, 1.0), 50.0);
    }

    #[test]
    fn unsorted_input_ok() {
        assert_eq!(percentile_ns(&[50.0, 10.0, 40.0, 30.0, 20.0], 0.5), 30.0);
    }

    #[test]
    fn f64_variant_matches() {
        let xs: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(percentile_ns(&xs, 0.999), 999.0);
        assert_eq!(percentile_ns(&xs, 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn multi_quantile_empty_panics() {
        quantiles_unsorted(&mut [], &[0.5]);
    }

    #[test]
    fn single_sample() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_ns(&[7.0], q), 7.0);
            assert_eq!(quantiles_unsorted(&mut [7.0], &[q]), vec![7.0]);
        }
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_panics() {
        percentile_ns(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        percentile_ns(&[0.0], 1.5);
    }
}
