//! Per-request timeline tracing.
//!
//! When enabled ([`crate::SystemConfig::trace_capacity`] > 0), the
//! simulator records a [`RequestTimeline`] for the first `capacity`
//! measured requests: every hop of the §4.2/§4.3 pipeline with its
//! timestamp, in the vocabulary the live tier's traces use. Traces
//! answer "where did the time go" questions that aggregate percentiles
//! cannot — e.g. how much of a slow request's latency was reassembly vs
//! shared-CQ queueing vs core queueing.

use simkit::SimTime;
use telemetry::RequestTimeline;

/// Builder state for one in-flight request's trace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PendingTrace {
    pub arrival: Option<SimTime>,
    pub reassembled: Option<SimTime>,
    pub dispatched: Option<SimTime>,
    pub started: Option<SimTime>,
    pub preemptions: u16,
}

/// A bounded collection of completed request traces.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<RequestTimeline>,
    capacity: usize,
}

impl TraceLog {
    /// A log that keeps at most `capacity` traces (0 disables tracing).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// Whether tracing is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a completed trace, dropping it if the log is full.
    pub fn push(&mut self, trace: RequestTimeline) {
        if self.records.len() < self.capacity {
            self.records.push(trace);
        }
    }

    /// The recorded traces, in completion order.
    pub fn records(&self) -> &[RequestTimeline] {
        &self.records
    }

    /// Mean of each latency component over the recorded traces, as
    /// `(reassembly, dispatch, core queue, processing)` in ns. Returns
    /// zeros when empty.
    pub fn component_means_ns(&self) -> (f64, f64, f64, f64) {
        self.component_means_first_ns(self.records.len())
    }

    /// Like [`TraceLog::component_means_ns`] but over only the first
    /// `n` recorded traces. Records land in completion order, so the
    /// first-`n` prefix of a run is identical whatever the log's total
    /// capacity — the property that lets `harness trace --capture`
    /// enlarge a matrix's trace capacity without changing a single byte
    /// of its report (reports carry the baked-capacity means).
    pub fn component_means_first_ns(&self, n: usize) -> (f64, f64, f64, f64) {
        let records = &self.records[..n.min(self.records.len())];
        if records.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let count = records.len() as f64;
        let sum = records.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, t| {
            (
                acc.0 + t.reassembly_ns(),
                acc.1 + t.dispatch_ns(),
                acc.2 + t.core_queue_ns(),
                acc.3 + t.processing_ns(),
            )
        });
        (sum.0 / count, sum.1 / count, sum.2 / count, sum.3 / count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(req: u64) -> RequestTimeline {
        RequestTimeline {
            req,
            src: 3,
            core: 7,
            arrival_ps: 100_000,
            reassembled_ps: 110_000,
            dispatched_ps: 120_000,
            started_ps: 150_000,
            completed_ps: 1_000_000,
            preemptions: 0,
        }
    }

    #[test]
    fn capacity_bounds_log() {
        let mut log = TraceLog::with_capacity(2);
        assert!(log.is_enabled());
        for i in 0..5 {
            log.push(trace(i));
        }
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn disabled_log() {
        let log = TraceLog::with_capacity(0);
        assert!(!log.is_enabled());
    }

    #[test]
    fn component_means() {
        let mut log = TraceLog::with_capacity(10);
        log.push(trace(0));
        log.push(trace(1));
        let (re, di, cq, pr) = log.component_means_ns();
        assert_eq!((re, di, cq, pr), (10.0, 10.0, 30.0, 850.0));
    }

    #[test]
    fn empty_means_are_zero() {
        let log = TraceLog::with_capacity(10);
        assert_eq!(log.component_means_ns(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn first_n_means_are_a_prefix_property() {
        let mut small = TraceLog::with_capacity(1);
        let mut large = TraceLog::with_capacity(10);
        for i in 0..3 {
            let mut t = trace(i);
            t.completed_ps = 1_000_000 + i * 500_000; // vary the mix
            small.push(t);
            large.push(t);
        }
        assert_eq!(
            small.component_means_ns(),
            large.component_means_first_ns(1),
            "enlarged capacity must reproduce the baked-capacity means"
        );
        assert_eq!(large.component_means_first_ns(99), large.component_means_ns());
    }
}
