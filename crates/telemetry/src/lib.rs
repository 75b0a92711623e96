//! # telemetry — unified request-lifecycle tracing for sim and live
//!
//! The paper's argument is about *where microsecond RPCs spend their
//! time* — reassembly vs dispatch vs core queueing vs processing. This
//! crate makes that question answerable identically for both executors
//! in the repo:
//!
//! * [`event`] — the shared [`TraceEvent`] vocabulary (request id, hop,
//!   picosecond timestamp, src/core) with a canonical 24-byte binary
//!   encoding and an order-sensitive [`metrics::Digest64`] over it;
//! * [`store`] — the versioned, append-only JSONL trace store:
//!   manifest line, event lines, digest seal — verified on load (the
//!   same sealed layout as the [`timeseries`] store);
//! * [`ring`] — the allocation-free transport for the live hot path: a
//!   Vyukov bounded MPMC [`EventRing`] drained by a background
//!   [`RingFlusher`], so `valetd` never blocks on trace I/O (a full
//!   ring costs drops, not latency);
//! * [`summary`] — timeline reassembly from unordered events and
//!   per-hop mean/p50/p99 statistics;
//! * [`diff`] — the sim↔live divergence report: per-hop share-of-total
//!   comparison condensed to a total-variation distance, meaningful
//!   across the ~500× time-scale gap between simulation and the
//!   loopback server.
//!
//! ## Determinism contract
//!
//! Simulator captures serialize events in job order from the
//! deterministic trace log, so a store's digest is byte-identical for
//! any `--threads` value, and enabling tracing changes zero bits of any
//! report. Live captures are wall-clock measurements and exempt (their
//! value is the divergence comparison, not reproducibility).
//!
//! ## Example
//!
//! ```
//! use telemetry::{assemble_timelines, summarize, Hop, TraceEvent};
//!
//! let events: Vec<TraceEvent> = [
//!     (Hop::Arrival, 0),
//!     (Hop::Reassembled, 5_000),
//!     (Hop::Dispatched, 6_000),
//!     (Hop::Started, 20_000),
//!     (Hop::Completed, 620_000),
//! ]
//! .into_iter()
//! .map(|(hop, t_ps)| TraceEvent { req: 1, hop, t_ps, src: 0, core: 4 })
//! .collect();
//! let summary = summarize(&assemble_timelines(&events));
//! assert_eq!(summary.count, 1);
//! assert_eq!(summary.breakdown.total_ns(), 620.0);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod diff;
pub mod event;
pub mod ring;
mod sealed;
pub mod store;
pub mod summary;
pub mod timeseries;

pub use diff::{diff_summaries, DivergenceReport, HopDivergence};
pub use event::{digest_events, Hop, TraceEvent, EVENT_BYTES};
pub use ring::{EventRing, EventSink, RingFlusher};
pub use store::{
    write_store, TraceMeta, TraceStore, TraceWriter, CLOCK_MONO_PS, CLOCK_SIM_PS, STORE_VERSION,
};
pub use summary::{
    assemble_timelines, summarize, AssembledTrace, HopStats, RequestTimeline, TraceSummary,
    COMPONENTS,
};
pub use timeseries::{
    derive_series, digest_series, resample, write_series_store, DerivedPoint, JobSeries,
    SeriesMeta, SeriesRecorder, SeriesStore, SeriesWindow, SERIES_VERSION,
};
