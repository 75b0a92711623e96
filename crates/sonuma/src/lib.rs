//! # sonuma — Scale-Out NUMA substrate
//!
//! RPCValet is built as an extension of soNUMA \[Novakovic et al.,
//! ASPLOS'14\], an architecture with a lean hardware-terminated protocol
//! and on-chip integrated NIs. This crate models the pieces of that
//! substrate the RPCValet evaluation depends on:
//!
//! * [`params::ChipParams`] — the simulated 16-core chip of Table 1, with
//!   every latency constant documented and calibrated from the paper;
//! * [`message`] — node/message identifiers and cache-block (64 B MTU)
//!   packetization, matching soNUMA's protocol that "unrolls large
//!   requests into independent packets each carrying a single cache block
//!   payload" (§4.2);
//! * [`backend`] — the Manycore NI's split frontend/backend organization:
//!   backends as serial resources with busy-until semantics;
//! * [`traffic`] — the 200-node cluster traffic generator (§5): Poisson
//!   arrivals of `send` requests from uniformly random remote nodes.
//!
//! The higher-level messaging protocol (send/replenish, messaging
//! domains) and the load-balancing dispatch live in the `rpcvalet` crate.

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod backend;
pub mod message;
pub mod onesided;
pub mod params;
pub mod pipeline;
pub mod traffic;

pub use backend::{NiBackend, SerialResource};
pub use message::{packets_for, MsgId, NodeId};
pub use params::ChipParams;
pub use traffic::{Arrival, TrafficGenerator};
