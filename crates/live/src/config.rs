//! The one live-run configuration: [`LiveRunConfig`].
//!
//! Every way of running the live tier — `valetd`, the in-process
//! loopback used by tests and the harness, and the multi-node cluster
//! with its failure drivers — consumes this one builder: construct with
//! [`LiveRunConfig::new`], override what the defaults get wrong, and hand
//! the result to [`crate::run_loopback_observed`] or
//! [`crate::cluster::run_cluster`]. The server- and client-side
//! configs the lower layers speak ([`ServerConfig`], [`BalancerConfig`])
//! are derived from it; only the `loadgen` binary, which drives servers
//! it did not start, fills in a [`BalancerConfig`] itself.

use std::time::Duration;

use dist::ServiceDist;

use crate::dispatch::LivePolicy;
use crate::loadgen::BalancerConfig;
use crate::server::{BurnMode, ServerConfig};
use crate::stats::TraceSink;

/// Which failure a cluster run injects mid-flight (none by default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailureMode {
    /// Steady state: nodes stay up, flows stay put.
    #[default]
    None,
    /// Connection churn: the balancer severs half its sockets at fixed
    /// points in the schedule (a reconnect storm), requeueing whatever
    /// was in flight on them.
    Churn,
    /// Graceful drain: one node drains (redirecting new work), finishes
    /// its in-flight requests, restarts on a fresh port, and rejoins.
    Drain,
    /// Flow migration: the directory reshuffles every flow's node
    /// assignment mid-run via an epoch bump.
    Migrate,
}

impl FailureMode {
    /// Spec-key / label suffix; empty for the steady state.
    pub fn key_suffix(self) -> &'static str {
        match self {
            FailureMode::None => "",
            FailureMode::Churn => "-churn",
            FailureMode::Drain => "-drain",
            FailureMode::Migrate => "-mig",
        }
    }
}

/// Cluster shape for a live run: how many nodes, and what goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Server processes (each with [`LiveRunConfig::workers`] workers).
    pub nodes: usize,
    /// Failure injected mid-run.
    pub failure: FailureMode,
}

impl ClusterPlan {
    /// A steady-state cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        ClusterPlan {
            nodes,
            failure: FailureMode::None,
        }
    }

    /// Sets the failure mode.
    pub fn failure(mut self, failure: FailureMode) -> Self {
        self.failure = failure;
        self
    }
}

/// One live experiment, end to end: server shape, offered load, and —
/// when [`LiveRunConfig::cluster`] is set — the cluster plan.
///
/// `load` is a fraction of *total* capacity: `workers × nodes` workers
/// at the scaled mean service time. A 3-node cluster at `load(0.7)`
/// therefore offers three times the request rate of a single node at
/// the same fraction.
#[derive(Debug, Clone)]
pub struct LiveRunConfig {
    /// Dispatch discipline under test (every node runs the same one).
    pub policy: LivePolicy,
    /// Worker threads per node.
    pub workers: usize,
    /// How workers spend service time ([`BurnMode::Sleep`] for 1-CPU
    /// machines and CI, [`BurnMode::Spin`] for real cores).
    pub burn: BurnMode,
    /// Client connections (cluster mode calls these flows).
    pub connections: usize,
    /// Requests to send.
    pub requests: u64,
    /// Completions excluded from statistics (by request id).
    pub warmup: u64,
    /// Offered load as a fraction of total capacity
    /// (`workers × nodes / mean-scaled-service`).
    pub load: f64,
    /// Service-demand profile (ns, before scaling).
    pub service: ServiceDist,
    /// Service-time multiplier (see [`BalancerConfig::scale`]).
    pub scale: f64,
    /// RNG master seed.
    pub seed: u64,
    /// `Some(interval)` makes the client record a windowed series
    /// (arrivals, completions and latency per window) at this window
    /// length. `None` runs unwindowed. Client side only: servers start
    /// no sampler for it (see [`ServerConfig::metrics_interval`]).
    pub series_interval: Option<Duration>,
    /// Stamp request-lifecycle hops for the first N requests (0 = off;
    /// single-node runs only).
    pub trace_requests: u64,
    /// This node's index in a cluster (labels, stable across restarts).
    pub node_id: usize,
    /// `Some` runs a multi-node cluster with the plan's failure; `None`
    /// is one server. The same client drives both.
    pub cluster: Option<ClusterPlan>,
}

impl LiveRunConfig {
    /// A runnable config for `policy`: 2 sleep-burn workers, 8
    /// connections, 2 000 requests (200 warm-up) at 70 % load over the
    /// paper's exponential 600 ns profile scaled ×500 to sleepable
    /// 300 µs services.
    pub fn new(policy: LivePolicy) -> Self {
        LiveRunConfig {
            policy,
            workers: 2,
            burn: BurnMode::Sleep,
            connections: 8,
            requests: 2_000,
            warmup: 200,
            load: 0.7,
            service: ServiceDist::exponential_mean_ns(600.0),
            scale: 500.0,
            seed: 1,
            series_interval: None,
            trace_requests: 0,
            node_id: 0,
            cluster: None,
        }
    }

    /// Sets the per-node worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the burn mode.
    pub fn burn(mut self, burn: BurnMode) -> Self {
        self.burn = burn;
        self
    }

    /// Sets the client connection (flow) count.
    pub fn connections(mut self, connections: usize) -> Self {
        self.connections = connections;
        self
    }

    /// Sets the request count and warm-up prefix.
    pub fn requests(mut self, requests: u64, warmup: u64) -> Self {
        self.requests = requests;
        self.warmup = warmup;
        self
    }

    /// Sets the offered load fraction.
    pub fn load(mut self, load: f64) -> Self {
        self.load = load;
        self
    }

    /// Sets the service-demand profile.
    pub fn service(mut self, service: ServiceDist) -> Self {
        self.service = service;
        self
    }

    /// Sets the service-time multiplier.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the RNG master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turns on the client-side windowed series at `interval`.
    pub fn series_interval(mut self, interval: Option<Duration>) -> Self {
        self.series_interval = interval;
        self
    }

    /// Traces the first `n` requests (single-node runs).
    pub fn trace_requests(mut self, n: u64) -> Self {
        self.trace_requests = n;
        self
    }

    /// Sets this node's cluster index.
    pub fn node_id(mut self, node_id: usize) -> Self {
        self.node_id = node_id;
        self
    }

    /// Runs a cluster with `plan` instead of a single server.
    pub fn cluster(mut self, plan: ClusterPlan) -> Self {
        self.cluster = Some(plan);
        self
    }

    /// Node count (1 when not clustered).
    pub fn nodes(&self) -> usize {
        self.cluster.map_or(1, |plan| plan.nodes)
    }

    /// Total worker threads across the tier.
    pub fn total_workers(&self) -> usize {
        self.workers * self.nodes()
    }

    /// The absolute offered rate this config's load fraction works out
    /// to, across the whole tier.
    pub fn rate_rps(&self) -> f64 {
        self.load * self.total_workers() as f64 * 1e9 / (self.service.mean_ns() * self.scale)
    }

    /// Expected send duration, used to time failure injection and bound
    /// the drain timeout.
    pub fn expected_duration(&self) -> Duration {
        Duration::from_secs_f64(self.requests as f64 / self.rate_rps())
    }

    /// How long to wait for stragglers past the last send.
    pub fn drain_timeout(&self) -> Duration {
        self.expected_duration() * 3 + Duration::from_secs(10)
    }

    /// Checks the cross-field constraints the lower layers would
    /// otherwise panic on, returning a usage-error string.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".to_owned());
        }
        if self.connections == 0 {
            return Err("need at least one connection".to_owned());
        }
        if self.requests == 0 {
            return Err("need at least one request".to_owned());
        }
        if self.warmup >= self.requests {
            return Err(format!(
                "warmup ({}) must be below requests ({})",
                self.warmup, self.requests
            ));
        }
        if !(self.load > 0.0 && self.load.is_finite()) {
            return Err("load must be positive and finite".to_owned());
        }
        if let LivePolicy::Partitioned { groups } = self.policy {
            if groups == 0 || groups > self.workers || !self.workers.is_multiple_of(groups) {
                return Err(format!(
                    "policy partitioned:{groups} needs a group count that divides workers {}",
                    self.workers
                ));
            }
        }
        if let Some(plan) = self.cluster {
            if plan.nodes == 0 {
                return Err("a cluster needs at least one node".to_owned());
            }
            if plan.failure == FailureMode::Drain && plan.nodes < 2 {
                return Err("drain needs a second node to absorb redirected flows".to_owned());
            }
        }
        Ok(())
    }

    /// The per-node server config this run calls for (`trace` is only
    /// ever set for single-node observed runs). It runs no metrics
    /// sampler: callers that read the server's windows set
    /// [`ServerConfig::metrics_interval`] themselves.
    pub fn server_config(&self, trace: Option<TraceSink>) -> ServerConfig {
        ServerConfig {
            policy: self.policy,
            workers: self.workers,
            burn: self.burn,
            trace,
            metrics_interval: None,
        }
    }

    /// The client config this run calls for, across the whole tier.
    pub fn balancer_config(&self) -> BalancerConfig {
        BalancerConfig {
            flows: self.connections,
            requests: self.requests,
            warmup: self.warmup,
            rate_rps: self.rate_rps(),
            service: self.service.clone(),
            scale: self.scale,
            seed: self.seed,
            workers_hint: self.total_workers(),
            drain_timeout: self.drain_timeout(),
            series_interval: self.series_interval,
            churn: self
                .cluster
                .is_some_and(|plan| plan.failure == FailureMode::Churn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_load_scales_with_node_count() {
        let single = LiveRunConfig::new(LivePolicy::SingleQueue);
        let tri = single.clone().cluster(ClusterPlan::new(3));
        assert_eq!(tri.total_workers(), 3 * single.total_workers());
        assert!((tri.rate_rps() - 3.0 * single.rate_rps()).abs() < 1e-6);
    }

    #[test]
    fn client_series_starts_no_server_sampler() {
        let config = LiveRunConfig::new(LivePolicy::Replenish)
            .series_interval(Some(Duration::from_millis(5)));
        assert!(config.balancer_config().series_interval.is_some());
        assert_eq!(config.server_config(None).metrics_interval, None);
    }

    #[test]
    fn validate_catches_cross_field_mistakes() {
        let bad_groups = LiveRunConfig::new(LivePolicy::Partitioned { groups: 3 }).workers(4);
        assert!(bad_groups.validate().unwrap_err().contains("divides"));
        let bad_warmup = LiveRunConfig::new(LivePolicy::SingleQueue).requests(10, 10);
        assert!(bad_warmup.validate().unwrap_err().contains("warmup"));
        let lone_drain = LiveRunConfig::new(LivePolicy::SingleQueue)
            .cluster(ClusterPlan::new(1).failure(FailureMode::Drain));
        assert!(lone_drain.validate().unwrap_err().contains("second node"));
        assert!(LiveRunConfig::new(LivePolicy::Replenish)
            .cluster(ClusterPlan::new(3))
            .validate()
            .is_ok());
    }

    #[test]
    fn failure_suffixes_are_stable_keys() {
        assert_eq!(FailureMode::None.key_suffix(), "");
        assert_eq!(FailureMode::Churn.key_suffix(), "-churn");
        assert_eq!(FailureMode::Drain.key_suffix(), "-drain");
        assert_eq!(FailureMode::Migrate.key_suffix(), "-mig");
    }
}
