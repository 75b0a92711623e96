//! # workloads — the paper's evaluation workloads
//!
//! Packages the three workload families of §5 as ready-to-run scenarios:
//!
//! * **Synthetic** — fixed / uniform / exponential / GEV processing
//!   times (300 ns base + 300 ns mean extra; Figs. 7c, 8, 9);
//! * **HERD** — the key-value store profile, mean 330 ns (Fig. 7a);
//! * **Masstree** — 99 % `get`s (mean 1.25 µs) + 1 % 60–120 µs `scan`s,
//!   with the SLO applied to `get`s only (Fig. 7b).
//!
//! [`Workload`] carries the distribution, the latency-critical threshold,
//! and the paper's SLO rule; [`scenario`] builds `SystemConfig`s. The
//! multi-policy sweeps behind each figure are `harness` matrices.
//!
//! ## Example
//!
//! ```
//! use workloads::Workload;
//!
//! let w = Workload::Herd;
//! assert!((w.service_dist().mean_ns() - 330.0).abs() < 1.0);
//! assert_eq!(w.label(), "herd");
//! ```

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

pub mod scenario;
pub mod workload;

pub use scenario::scenario_config;
pub use workload::Workload;
