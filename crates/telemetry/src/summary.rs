//! Per-request timeline assembly and per-hop latency statistics.
//!
//! Events in a store may arrive in any order (the live flusher drains a
//! racy ring). [`assemble_timelines`] folds them back into one
//! [`RequestTimeline`] per request, and [`summarize`] reduces a set of
//! timelines to per-hop mean/p50/p99 plus each hop's *share* of the
//! end-to-end mean — the scale-independent quantity the sim↔live
//! divergence report compares.

use std::collections::BTreeMap;

use metrics::{quantiles_unsorted, LatencyBreakdown};

use crate::event::{Hop, TraceEvent};

const PS_PER_NS: f64 = 1_000.0;

/// One request's reassembled lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Request id (store-namespaced).
    pub req: u64,
    /// Source id.
    pub src: u16,
    /// Completing core/worker.
    pub core: u16,
    /// Timestamps (ps) of each pipeline hop.
    pub arrival_ps: u64,
    pub reassembled_ps: u64,
    pub dispatched_ps: u64,
    pub started_ps: u64,
    pub completed_ps: u64,
    /// Preemption count.
    pub preemptions: u16,
}

impl RequestTimeline {
    /// Network + reassembly time (arrival → message complete), ns.
    pub fn reassembly_ns(&self) -> f64 {
        (self.reassembled_ps - self.arrival_ps) as f64 / PS_PER_NS
    }

    /// Dispatch-path time (message complete → bound to a core), ns.
    pub fn dispatch_ns(&self) -> f64 {
        (self.dispatched_ps - self.reassembled_ps) as f64 / PS_PER_NS
    }

    /// Core-side queueing (dispatched → processing started), ns.
    /// Saturating: a preempted-and-restarted request's final slice can
    /// never start before dispatch, but clock jitter rounds to zero.
    pub fn core_queue_ns(&self) -> f64 {
        self.started_ps.saturating_sub(self.dispatched_ps) as f64 / PS_PER_NS
    }

    /// Processing time (start of final slice → completion), ns.
    pub fn processing_ns(&self) -> f64 {
        (self.completed_ps - self.started_ps) as f64 / PS_PER_NS
    }

    /// End-to-end latency, ns. Because all five stamps sit on one
    /// monotonic clock, this equals the sum of the four components
    /// exactly in integer picoseconds (the breakdown invariant the
    /// trace tests assert).
    pub fn total_ns(&self) -> f64 {
        (self.completed_ps - self.arrival_ps) as f64 / PS_PER_NS
    }

    /// Emits this timeline as hop events under request id `req`
    /// (multi-job stores pass `job_index << 40 | self.req`) — the inverse
    /// of [`assemble_timelines`]. Preemptions are emitted as count-only
    /// events stamped at the final slice's start (the simulator records
    /// how often a request was preempted, not when).
    pub fn append_events(&self, req: u64, out: &mut Vec<TraceEvent>) {
        let ev = |hop, t_ps, core| TraceEvent {
            req,
            hop,
            t_ps,
            src: self.src,
            core,
        };
        out.push(ev(Hop::Arrival, self.arrival_ps, 0));
        out.push(ev(Hop::Reassembled, self.reassembled_ps, 0));
        out.push(ev(Hop::Dispatched, self.dispatched_ps, self.core));
        for _ in 0..self.preemptions {
            out.push(ev(Hop::Preempted, self.started_ps, self.core));
        }
        out.push(ev(Hop::Started, self.started_ps, self.core));
        out.push(ev(Hop::Completed, self.completed_ps, self.core));
    }
}

/// The outcome of folding a raw event stream into timelines.
#[derive(Debug, Clone, Default)]
pub struct AssembledTrace {
    /// Complete timelines (all five pipeline hops present), sorted by
    /// completion time then request id — a deterministic order
    /// independent of event arrival order.
    pub timelines: Vec<RequestTimeline>,
    /// Requests missing at least one hop (e.g. in flight when the
    /// capture stopped, or their events fell to a full ring).
    pub incomplete: u64,
}

#[derive(Default, Clone, Copy)]
struct Partial {
    arrival: Option<u64>,
    reassembled: Option<u64>,
    dispatched: Option<u64>,
    started: Option<u64>,
    completed: Option<u64>,
    src: u16,
    core: u16,
    preemptions: u16,
}

/// Folds events (any order) into per-request timelines.
pub fn assemble_timelines(events: &[TraceEvent]) -> AssembledTrace {
    let mut partials: BTreeMap<u64, Partial> = BTreeMap::new();
    for event in events {
        let p = partials.entry(event.req).or_default();
        match event.hop {
            Hop::Arrival => {
                p.arrival = Some(event.t_ps);
                p.src = event.src;
            }
            Hop::Reassembled => p.reassembled = Some(event.t_ps),
            Hop::Dispatched => p.dispatched = Some(event.t_ps),
            Hop::Started => {
                // Keep the latest start: the final slice of a preempted
                // request is what the breakdown measures.
                p.started = Some(p.started.map_or(event.t_ps, |t| t.max(event.t_ps)));
                p.core = event.core;
            }
            Hop::Preempted => p.preemptions = p.preemptions.saturating_add(1),
            Hop::Completed => {
                p.completed = Some(event.t_ps);
                p.core = event.core;
            }
        }
    }

    let mut timelines = Vec::new();
    let mut incomplete = 0u64;
    for (req, p) in partials {
        match (p.arrival, p.reassembled, p.dispatched, p.started, p.completed) {
            (Some(a), Some(r), Some(d), Some(s), Some(c)) => timelines.push(RequestTimeline {
                req,
                src: p.src,
                core: p.core,
                arrival_ps: a,
                reassembled_ps: r,
                dispatched_ps: d,
                started_ps: s,
                completed_ps: c,
                preemptions: p.preemptions,
            }),
            _ => incomplete += 1,
        }
    }
    timelines.sort_by_key(|t| (t.completed_ps, t.req));
    AssembledTrace {
        timelines,
        incomplete,
    }
}

/// The four pipeline components, in order, as (index, label) pairs.
pub const COMPONENTS: [&str; 4] = ["reassembly", "dispatch", "core_queue", "processing"];

/// Distribution statistics of one hop component across a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopStats {
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Per-hop statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Complete requests summarized.
    pub count: u64,
    /// Requests that could not be assembled.
    pub incomplete: u64,
    /// Total preemptions across all requests.
    pub preemptions: u64,
    /// Stats per component, in [`COMPONENTS`] order.
    pub hops: [HopStats; 4],
    /// End-to-end latency stats.
    pub total: HopStats,
    /// Mean per-component breakdown (the same shape the sim reports
    /// carry in `JobRecord::breakdown_ns`).
    pub breakdown: LatencyBreakdown,
}

impl TraceSummary {
    /// Each component's share of the end-to-end mean, summing to 1.0
    /// (zeros when the trace is empty). Shares are scale-independent,
    /// so a real run at ~500× simulated service times remains
    /// comparable to its simulation.
    pub fn shares(&self) -> [f64; 4] {
        let total = self.breakdown.total_ns();
        if total <= 0.0 {
            return [0.0; 4];
        }
        self.breakdown.as_array().map(|c| c / total)
    }

    /// Renders the per-hop table.
    pub fn render(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{title}: {} requests ({} incomplete, {} preemptions)",
            self.count, self.incomplete, self.preemptions
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>12} {:>12} {:>8}",
            "hop", "mean (ns)", "p50 (ns)", "p99 (ns)", "share"
        );
        let shares = self.shares();
        for (i, name) in COMPONENTS.iter().enumerate() {
            let h = &self.hops[i];
            let _ = writeln!(
                out,
                "  {:<12} {:>12.1} {:>12.1} {:>12.1} {:>7.1}%",
                name,
                h.mean_ns,
                h.p50_ns,
                h.p99_ns,
                shares[i] * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>12.1} {:>12.1} {:>12.1} {:>8}",
            "total", self.total.mean_ns, self.total.p50_ns, self.total.p99_ns, ""
        );
        out
    }
}

fn stats_of(mut samples: Vec<f64>) -> HopStats {
    if samples.is_empty() {
        return HopStats {
            mean_ns: 0.0,
            p50_ns: 0.0,
            p99_ns: 0.0,
        };
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let qs = quantiles_unsorted(&mut samples, &[0.50, 0.99]);
    HopStats {
        mean_ns: mean,
        p50_ns: qs[0],
        p99_ns: qs[1],
    }
}

/// Reduces an assembled trace to per-hop statistics.
pub fn summarize(trace: &AssembledTrace) -> TraceSummary {
    let tl = &trace.timelines;
    let columns: [Vec<f64>; 4] = [
        tl.iter().map(RequestTimeline::reassembly_ns).collect(),
        tl.iter().map(RequestTimeline::dispatch_ns).collect(),
        tl.iter().map(RequestTimeline::core_queue_ns).collect(),
        tl.iter().map(RequestTimeline::processing_ns).collect(),
    ];
    let means: Vec<f64> = columns
        .iter()
        .map(|c| {
            if c.is_empty() {
                0.0
            } else {
                c.iter().sum::<f64>() / c.len() as f64
            }
        })
        .collect();
    let hops: [HopStats; 4] = columns.map(stats_of);
    let total = stats_of(tl.iter().map(RequestTimeline::total_ns).collect());
    TraceSummary {
        count: tl.len() as u64,
        incomplete: trace.incomplete,
        preemptions: tl.iter().map(|t| t.preemptions as u64).sum(),
        hops,
        total,
        breakdown: LatencyBreakdown::from_means((means[0], means[1], means[2], means[3])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_for(req: u64, base_ps: u64) -> Vec<TraceEvent> {
        let mk = |hop, dt, core| TraceEvent {
            req,
            hop,
            t_ps: base_ps + dt,
            src: req as u16,
            core,
        };
        vec![
            mk(Hop::Arrival, 0, 0),
            mk(Hop::Reassembled, 10_000, 0),
            mk(Hop::Dispatched, 12_000, 3),
            mk(Hop::Started, 50_000, 3),
            mk(Hop::Completed, 650_000, 3),
        ]
    }

    #[test]
    fn assembles_out_of_order_events() {
        let mut events = events_for(0, 1_000_000);
        events.extend(events_for(1, 2_000_000));
        events.reverse(); // worst-case arrival order
        let trace = assemble_timelines(&events);
        assert_eq!(trace.timelines.len(), 2);
        assert_eq!(trace.incomplete, 0);
        let t = &trace.timelines[0];
        assert_eq!(t.req, 0);
        assert_eq!(t.reassembly_ns(), 10.0);
        assert_eq!(t.dispatch_ns(), 2.0);
        assert_eq!(t.core_queue_ns(), 38.0);
        assert_eq!(t.processing_ns(), 600.0);
        assert_eq!(t.total_ns(), 650.0);
        assert_eq!(t.core, 3);
    }

    #[test]
    fn hop_sum_equals_total_exactly() {
        let trace = assemble_timelines(&events_for(7, 123_456_789));
        let t = &trace.timelines[0];
        let sum = t.reassembly_ns() + t.dispatch_ns() + t.core_queue_ns() + t.processing_ns();
        assert_eq!(sum, t.total_ns());
    }

    #[test]
    fn incomplete_requests_are_counted_not_fabricated() {
        let mut events = events_for(0, 1_000);
        events.pop(); // drop Completed
        events.extend(events_for(1, 50_000));
        let trace = assemble_timelines(&events);
        assert_eq!(trace.timelines.len(), 1);
        assert_eq!(trace.timelines[0].req, 1);
        assert_eq!(trace.incomplete, 1);
    }

    #[test]
    fn preemptions_extend_started_and_count() {
        let mut events = events_for(0, 0);
        events.push(TraceEvent {
            req: 0,
            hop: Hop::Preempted,
            t_ps: 100_000,
            src: 0,
            core: 3,
        });
        events.push(TraceEvent {
            req: 0,
            hop: Hop::Started,
            t_ps: 200_000,
            src: 0,
            core: 3,
        });
        let trace = assemble_timelines(&events);
        let t = &trace.timelines[0];
        assert_eq!(t.preemptions, 1);
        assert_eq!(t.started_ps, 200_000, "final slice wins");
    }

    #[test]
    fn emitted_events_reassemble_to_the_same_timeline() {
        let mut t = assemble_timelines(&events_for(5, 0)).timelines[0];
        t.preemptions = 2;
        let mut events = Vec::new();
        t.append_events((3 << 40) | 5, &mut events);
        assert_eq!(events.len(), 7, "5 hops + 2 preemptions");
        assert!(events.iter().all(|e| e.req == (3 << 40) | 5));
        let back = assemble_timelines(&events).timelines[0];
        let renamed = RequestTimeline {
            req: (3 << 40) | 5,
            ..t
        };
        assert_eq!(back, renamed);
    }

    #[test]
    fn summary_shares_sum_to_one() {
        let mut events = Vec::new();
        for req in 0..10 {
            events.extend(events_for(req, req * 1_000_000));
        }
        let summary = summarize(&assemble_timelines(&events));
        assert_eq!(summary.count, 10);
        let share_sum: f64 = summary.shares().iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!((summary.breakdown.total_ns() - summary.total.mean_ns).abs() < 1e-9);
        assert!(summary.render("t").contains("core_queue"));
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let summary = summarize(&AssembledTrace::default());
        assert_eq!(summary.count, 0);
        assert_eq!(summary.shares(), [0.0; 4]);
    }
}
