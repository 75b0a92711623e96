//! Latency-versus-throughput curve containers.
//!
//! Every figure in the paper's evaluation plots 99th-percentile latency
//! against offered load or achieved throughput. [`LatencyCurve`] is the
//! common result type produced by sweeps and consumed by the SLO
//! extraction and the bench harness's printers.

use serde::{Deserialize, Serialize};

/// One measured operating point of a system under a given offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Offered load, as a fraction of theoretical capacity (0..1) where
    /// known, or in requests/second for open-loop sweeps.
    pub offered_load: f64,
    /// Achieved throughput in requests per second.
    pub throughput_rps: f64,
    /// Mean latency (ns).
    pub mean_latency_ns: f64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// Number of completed requests behind this point.
    pub completed: u64,
}

impl CurvePoint {
    /// Throughput in millions of requests per second, the paper's unit.
    pub fn throughput_mrps(&self) -> f64 {
        self.throughput_rps / 1e6
    }

    /// 99th-percentile latency in microseconds, the paper's unit.
    pub fn p99_latency_us(&self) -> f64 {
        self.p99_latency_ns / 1e3
    }
}

/// A labelled series of operating points (one line in a paper figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    /// Legend label, e.g. `"1x16"` or `"16x1_gev"`.
    pub label: String,
    /// Points in increasing offered-load order.
    pub points: Vec<CurvePoint>,
}

impl LatencyCurve {
    /// Creates an empty curve with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        LatencyCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point, keeping load order.
    ///
    /// # Panics
    /// Panics in debug builds if `point` breaks increasing-load order.
    pub fn push(&mut self, point: CurvePoint) {
        if let Some(last) = self.points.last() {
            debug_assert!(
                point.offered_load >= last.offered_load,
                "curve points must be pushed in increasing load order"
            );
        }
        self.points.push(point);
    }

    /// The highest achieved throughput across all points (rps).
    pub fn peak_throughput_rps(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.throughput_rps)
            .fold(0.0, f64::max)
    }

    /// True if the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(load: f64, rps: f64, p99: f64) -> CurvePoint {
        CurvePoint {
            offered_load: load,
            throughput_rps: rps,
            mean_latency_ns: p99 / 10.0,
            p99_latency_ns: p99,
            completed: 1000,
        }
    }

    #[test]
    fn push_and_query() {
        let mut c = LatencyCurve::new("1x16");
        c.push(pt(0.1, 1e6, 700.0));
        c.push(pt(0.5, 5e6, 900.0));
        c.push(pt(0.9, 8.5e6, 4_000.0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.peak_throughput_rps(), 8.5e6);
    }

    #[test]
    fn unit_conversions() {
        let p = pt(0.5, 29_000_000.0, 5_500.0);
        assert!((p.throughput_mrps() - 29.0).abs() < 1e-12);
        assert!((p.p99_latency_us() - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "increasing load order")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics() {
        let mut c = LatencyCurve::new("x");
        c.push(pt(0.5, 1.0, 1.0));
        c.push(pt(0.1, 1.0, 1.0));
    }

    #[test]
    fn empty_curve() {
        let c = LatencyCurve::new("4x4");
        assert!(c.is_empty());
        assert_eq!(c.peak_throughput_rps(), 0.0);
    }
}
