//! # metrics — latency recording and tail-latency analysis
//!
//! Everything the RPCValet evaluation needs to turn raw per-request
//! latencies into the paper's figures:
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram (HdrHistogram-style)
//!   with bounded relative error, for very long runs;
//! * [`Summary`] — streaming mean/variance/min/max (Welford);
//! * [`percentile`] — exact percentiles over sample vectors;
//! * [`slo`] — throughput-under-SLO extraction from latency/load curves,
//!   the paper's headline metric (§5: "throughput under a 99th-percentile
//!   SLO of 10× the mean service time");
//! * [`series`] — (load, throughput, tail latency) curve containers that
//!   the bench harness serializes.
//!
//! ## Example
//!
//! ```
//! use metrics::LatencyHistogram;
//! use simkit::SimDuration;
//!
//! let mut h = LatencyHistogram::new();
//! for ns in [100, 200, 300, 400, 1000] {
//!     h.record(SimDuration::from_ns(ns));
//! }
//! assert_eq!(h.count(), 5);
//! let p99 = h.percentile(0.99);
//! assert!(p99.as_ns() >= 400);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod accounting;
pub mod breakdown;
pub mod cdf;
pub mod digest;
pub mod fairness;
pub mod histogram;
pub mod percentile;
pub mod series;
pub mod slo;
pub mod summary;

pub use accounting::RequestAccounting;
pub use breakdown::LatencyBreakdown;
pub use cdf::{Cdf, CdfPoint};
pub use digest::Digest64;
pub use fairness::jain_index;
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use percentile::{
    percentile, percentile_mut, percentile_ns, percentile_ns_mut, quantiles_of_sorted,
    quantiles_unsorted, sort_samples,
};
pub use series::{CurvePoint, LatencyCurve};
pub use slo::{throughput_under_slo, SloSpec};
pub use summary::Summary;
