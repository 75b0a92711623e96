//! # queueing — theoretical Q×U queueing models
//!
//! §2.2 of the RPCValet paper grounds its design in a first-order queuing
//! analysis: a 16-core server is modelled as `Q` FIFO queues feeding
//! `U = 16/Q` serving units each, with Poisson arrivals split uniformly
//! across queues. The notation **Model Q × U** covers the spectrum from
//! the rigid partitioned system (16×1, no balancing — what RSS gives you)
//! to the ideal single queue (1×16 — what RPCValet emulates in hardware).
//!
//! This crate implements that analysis with discrete-event simulation:
//!
//! * [`QxU`] — a queueing configuration (e.g. [`QxU::SINGLE_16`]);
//! * [`QueueingModel`] + [`RunParams`] — one simulation run, producing a
//!   [`RunResult`] with exact sojourn-time percentiles. The model is open
//!   loop, so a run needs no general event queue: it merges the arrival
//!   stream with one small calendar of the requests in service (see
//!   [`model`]). Latency-vs-load curves (Fig. 2a–c, Fig. 9 model lines)
//!   are `harness` matrices over it;
//! * [`mmk`] — closed-form M/M/k results (Erlang C) used to validate the
//!   simulator against theory.
//!
//! ## Example
//!
//! ```
//! use dist::ServiceDist;
//! use queueing::{QueueingModel, QxU, RunParams};
//!
//! let model = QueueingModel::new(QxU::SINGLE_16, ServiceDist::exponential_mean_ns(1.0));
//! let result = model.run(&RunParams { load: 0.5, requests: 20_000, warmup: 2_000, seed: 1 });
//! // At 50 % load a single-queue system shows almost no queueing.
//! assert!(result.p99_sojourn_ns < 10.0 * result.mean_service_ns);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod hybrid;
pub mod mg1;
pub mod mmk;
pub mod model;

pub use model::{QueueingModel, QxU, RunParams, RunResult};
