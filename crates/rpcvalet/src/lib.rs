//! # rpcvalet — NI-driven tail-aware balancing of µs-scale RPCs
//!
//! A full reproduction of *RPCValet: NI-Driven Tail-Aware Balancing of
//! µs-Scale RPCs* (Daglis, Sutherland, Falsafi — ASPLOS 2019).
//!
//! RPCValet breaks the tradeoff between the **load imbalance** of
//! multi-queue (RSS-style) RPC distribution and the **synchronization
//! cost** of software single-queue dispatch, by letting the on-chip
//! integrated NI make dynamic dispatch decisions: every incoming message
//! lands in a shared completion queue at the NI, and a hardware
//! *dispatcher* hands messages to cores the moment they signal
//! availability through `replenish` operations — single-queue behaviour
//! with zero software synchronization.
//!
//! The crate provides:
//!
//! * [`domain`] — **messaging domains** (§4.2): send/receive buffer
//!   provisioning (`N × S` slots), slot allocation, valid bits, and the
//!   memory-footprint arithmetic of the paper;
//! * [`reassembly`] — per-receive-slot packet counters that detect when a
//!   multi-packet `send` has fully arrived;
//! * [`dispatch`] — the NI dispatcher: shared CQ, per-core outstanding
//!   tracking, and the dispatch policies evaluated in §6 (1×16 single
//!   queue, 4×4 partitioned, 16×1 static/RSS);
//! * [`mcs`] — the MCS queue-lock contention model behind the software
//!   1×16 baseline (§6.2);
//! * [`rendezvous`] — the §4.2 large-message path: control `send` +
//!   one-sided payload pull;
//! * [`system`] — the end-to-end server simulation combining the soNUMA
//!   substrate, the messaging protocol, and a dispatch policy.
//!
//! ## Example: one simulated operating point
//!
//! ```
//! use dist::ServiceDist;
//! use rpcvalet::{Policy, SystemConfig};
//!
//! let config = SystemConfig::builder()
//!     .policy(Policy::hw_single_queue())
//!     .service(ServiceDist::fixed_ns(600.0))
//!     .rate_rps(4.0e6)
//!     .requests(20_000)
//!     .warmup(2_000)
//!     .seed(1)
//!     .build();
//! let result = rpcvalet::system::ServerSim::new(config).run();
//! assert!(result.measured > 0);
//! // At 4 Mrps a 16-core chip serving ~820 ns RPCs is ~20 % loaded:
//! // p99 stays well under 10× the mean service time.
//! assert!(result.p99_latency_ns < 10.0 * result.mean_service_ns);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

mod calendars;
pub mod domain;
pub mod dispatch;
pub mod mcs;
pub mod reassembly;
pub mod rendezvous;
mod slab;
pub mod system;
pub mod trace;

pub use dispatch::Policy;
pub use domain::MessagingDomain;
pub use mcs::McsParams;
pub use trace::TraceLog;
pub use system::{
    PreemptionParams, RequestSchedule, RunResult, ServerSim, SystemConfig, SystemConfigBuilder,
    PREFETCH_BLOCK,
};
