//! # simkit — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate that every model in the
//! RPCValet reproduction is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-picosecond simulated time, so
//!   event ordering is exact and reproducible (no floating-point drift).
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tie-break for simultaneous events: the
//!   allocation-free [`wheel`] ladder/calendar queue, and the reference
//!   binary heap it pops in bit-identical order with. The simulators
//!   keep their own event calendars; the benchmark times this queue as
//!   its probe of a general one.
//! * [`rng`] — seed-splitting utilities so that every simulated component
//!   gets an independent, reproducible random stream.
//! * [`pool`] — a pull-based worker pool for fanning independent,
//!   deterministic simulation jobs across OS threads.
//!
//! The paper evaluates RPCValet with Flexus cycle-accurate simulation; this
//! kernel instead supports nanosecond-granularity event-driven models whose
//! latency constants are calibrated from the paper's Table 1. See DESIGN.md
//! for the substitution argument.
//!
//! ## Example
//!
//! ```
//! use simkit::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_ns(5), Ev::Pong);
//! queue.push(SimTime::from_ns(1), Ev::Ping);
//!
//! let first = queue.pop().unwrap();
//! assert_eq!(first.event, Ev::Ping);
//! assert_eq!(first.time.as_ns(), 1);
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod event;
pub mod pool;
pub mod rng;
pub mod time;
pub mod wheel;

pub use event::{EventQueue, QueueStats, Scheduled};
pub use time::{SimDuration, SimTime, DEFAULT_CLOCK_GHZ};
