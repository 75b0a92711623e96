//! The cluster serving tier: N supervised `valetd` nodes behind a
//! client-side balancer.
//!
//! Three pieces, mirroring how a real serving tier is built:
//!
//! * [`NodeDirectory`] — the shared routing table. Flows map to nodes
//!   by rendezvous (highest-random-weight) hashing over the *alive*
//!   nodes, so marking one node down remaps only the flows that lived
//!   there. Every mutation bumps an epoch the balancer watches.
//! * [`Cluster`] — the supervisor. Starts nodes [`NodeLaunch::InProcess`]
//!   (harness, tests) or as real `valetd` child processes
//!   ([`NodeLaunch::Process`]), and runs the graceful-drain cycle:
//!   drain over the wire, wait for in-flight zero, restart on a fresh
//!   port, rejoin the directory.
//! * [`run_cluster`] — starts the nodes and drives them with the one
//!   open-loop client, [`crate::loadgen::run_balancer`], which follows
//!   redirects and reconnects. Every request ends in exactly one of
//!   completed / redirected / rejected, tallied in a
//!   [`RequestAccounting`]; anything else is a *lost* request and the
//!   run's accounting check fails.
//!
//! The failure drivers ([`FailureMode`]) are the point: churn proves
//! the balancer survives a reconnect storm, drain proves a node can
//! leave and rejoin with zero lost in-flight requests, and migrate
//! proves flows can move between dispatch groups mid-run.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use metrics::RequestAccounting;
use simkit::rng::split_seed;

use crate::config::{ClusterPlan, FailureMode, LiveRunConfig};
use crate::loadgen::{run_balancer, LiveRunStats};
use crate::protocol::{DrainAction, StatsSnapshot};
use crate::server::{BurnMode, Server};
use crate::{query_drain, query_stats, request_remote_shutdown};

/// One routing slot: where the node listens and whether it takes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSlot {
    /// The node's listening address (changes across a restart).
    pub addr: SocketAddr,
    /// Down or draining nodes are skipped by [`NodeDirectory::route`].
    pub alive: bool,
}

#[derive(Debug)]
struct DirectoryState {
    nodes: Vec<NodeSlot>,
    epoch: u64,
    shuffle: u64,
}

/// The shared flow→node routing table.
///
/// Routing is rendezvous hashing keyed by `(flow, shuffle)`: each flow
/// independently ranks the nodes and takes the highest-ranked *alive*
/// one. Draining a node therefore moves only its own flows (everyone
/// else's top pick is unchanged), while [`NodeDirectory::migrate`]
/// bumps the shuffle salt and deliberately re-deals every flow.
///
/// Every mutation bumps `epoch`; the balancer compares epochs before
/// each send and re-resolves a flow's connection when stale. This is
/// the explicit migration-epoch contract: no connection is reused
/// across a routing change without re-checking the directory.
#[derive(Debug)]
pub struct NodeDirectory {
    state: Mutex<DirectoryState>,
}

impl NodeDirectory {
    /// A directory with every node alive, at epoch 0.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        NodeDirectory {
            state: Mutex::new(DirectoryState {
                nodes: addrs
                    .into_iter()
                    .map(|addr| NodeSlot { addr, alive: true })
                    .collect(),
                epoch: 0,
                shuffle: 0,
            }),
        }
    }

    /// The current epoch (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("directory").epoch
    }

    /// A consistent copy of the routing table.
    pub fn nodes(&self) -> Vec<NodeSlot> {
        self.state.lock().expect("directory").nodes.clone()
    }

    /// Marks a node up or down and bumps the epoch.
    pub fn set_alive(&self, node: usize, alive: bool) {
        let mut state = self.state.lock().expect("directory");
        state.nodes[node].alive = alive;
        state.epoch += 1;
    }

    /// Rejoins a restarted node at its new address and bumps the epoch.
    pub fn replace(&self, node: usize, addr: SocketAddr) {
        let mut state = self.state.lock().expect("directory");
        state.nodes[node] = NodeSlot { addr, alive: true };
        state.epoch += 1;
    }

    /// Re-deals every flow by bumping the rendezvous shuffle salt.
    pub fn migrate(&self) {
        let mut state = self.state.lock().expect("directory");
        state.shuffle += 1;
        state.epoch += 1;
    }

    /// Marks a node dead *only if* it is still alive at `addr` — the
    /// redirect-failover path. The address guard makes late redirect
    /// frames from a retired socket harmless: once the node restarts at
    /// a new address, they no longer match and change nothing.
    pub fn mark_dead_if(&self, node: usize, addr: SocketAddr) -> bool {
        let mut state = self.state.lock().expect("directory");
        let slot = &mut state.nodes[node];
        if slot.alive && slot.addr == addr {
            slot.alive = false;
            state.epoch += 1;
            true
        } else {
            false
        }
    }

    /// The node `flow` maps to right now: `(epoch, node index, addr)`,
    /// or `None` when no node is alive.
    pub fn route(&self, flow: u64) -> Option<(u64, usize, SocketAddr)> {
        let state = self.state.lock().expect("directory");
        state
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.alive)
            .max_by_key(|(node, _)| rendezvous_weight(flow, *node, state.shuffle))
            .map(|(node, slot)| (state.epoch, node, slot.addr))
    }
}

/// Rendezvous weight for `(flow, node)` under the current shuffle salt
/// — a pure SplitMix64 chain, so every balancer ranks identically.
fn rendezvous_weight(flow: u64, node: usize, shuffle: u64) -> u64 {
    split_seed(split_seed(flow, shuffle), node as u64 + 1)
}

/// How the supervisor obtains its nodes.
#[derive(Debug, Clone)]
pub enum NodeLaunch {
    /// [`Server::start`] in this process (harness and tests).
    InProcess,
    /// Spawn the real `valetd` binary at this path; nodes are separate
    /// processes supervised over the wire (`DRAIN` / `SHUTDOWN` verbs).
    Process(PathBuf),
}

enum NodeHandle {
    InProcess(Server),
    Process(Child),
}

/// A supervised set of live nodes sharing one [`NodeDirectory`].
pub struct Cluster {
    nodes: Mutex<Vec<Option<NodeHandle>>>,
    directory: Arc<NodeDirectory>,
    launch: NodeLaunch,
    config: LiveRunConfig,
}

impl Cluster {
    /// Starts `cfg.cluster` nodes (each `cfg.workers` workers of
    /// `cfg.policy`) and a directory listing them all alive.
    pub fn start(cfg: &LiveRunConfig, launch: NodeLaunch) -> io::Result<Cluster> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let plan = cfg.cluster.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "config has no cluster plan")
        })?;
        let mut nodes = Vec::with_capacity(plan.nodes);
        let mut addrs = Vec::with_capacity(plan.nodes);
        for _ in 0..plan.nodes {
            let (handle, addr) = start_node(cfg, &launch)?;
            nodes.push(Some(handle));
            addrs.push(addr);
        }
        Ok(Cluster {
            nodes: Mutex::new(nodes),
            directory: Arc::new(NodeDirectory::new(addrs)),
            launch,
            config: cfg.clone(),
        })
    }

    /// The shared routing table (hand clones to balancers and drivers).
    pub fn directory(&self) -> Arc<NodeDirectory> {
        Arc::clone(&self.directory)
    }

    /// The graceful drain-and-restart cycle for one node:
    ///
    /// 1. put the node in drain mode over the wire (it starts answering
    ///    new requests with redirects),
    /// 2. mark it dead in the directory, remapping its flows,
    /// 3. poll its in-flight gauge to zero — every request it already
    ///    accepted completes normally,
    /// 4. stop it, start a replacement on a fresh port, rejoin.
    ///
    /// Returns the drained node's final telemetry snapshot (its
    /// redirect count outlives the restart this way).
    pub fn drain_and_restart(&self, node: usize) -> io::Result<StatsSnapshot> {
        let addr = self.directory.nodes()[node].addr;
        query_drain(addr, DrainAction::Begin)?;
        self.directory.set_alive(node, false);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = query_drain(addr, DrainAction::Query)?;
            if reply.inflight == 0 {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("node {node} still has {} in flight", reply.inflight),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let parting = query_stats(addr)?;
        let handle = self.nodes.lock().expect("cluster nodes")[node].take();
        if let Some(handle) = handle {
            stop_node(handle, addr, true)?;
        }
        let (handle, new_addr) = start_node(&self.config, &self.launch)?;
        self.nodes.lock().expect("cluster nodes")[node] = Some(handle);
        self.directory.replace(node, new_addr);
        Ok(parting)
    }

    /// Stops every node (plain stop — callers drain first if they care).
    pub fn stop(&self) {
        let mut nodes = self.nodes.lock().expect("cluster nodes");
        let slots = self.directory.nodes();
        for (node, handle) in nodes.iter_mut().enumerate() {
            if let Some(handle) = handle.take() {
                let _ = stop_node(handle, slots[node].addr, false);
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

fn start_node(cfg: &LiveRunConfig, launch: &NodeLaunch) -> io::Result<(NodeHandle, SocketAddr)> {
    match launch {
        NodeLaunch::InProcess => {
            let server = Server::start(cfg.server_config(None), "127.0.0.1:0")?;
            let addr = server.local_addr();
            Ok((NodeHandle::InProcess(server), addr))
        }
        NodeLaunch::Process(valetd) => {
            let mut child = Command::new(valetd)
                .args([
                    "--policy",
                    &cfg.policy.to_string(),
                    "--workers",
                    &cfg.workers.to_string(),
                    "--burn",
                    match cfg.burn {
                        BurnMode::Sleep => "sleep",
                        BurnMode::Spin => "spin",
                    },
                    "--port",
                    "0",
                ])
                .stdout(Stdio::piped())
                .spawn()?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("valetd child has no stdout"))?;
            match read_listening_addr(stdout) {
                Ok(addr) => Ok((NodeHandle::Process(child), addr)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    Err(e)
                }
            }
        }
    }
}

/// Parses the child's startup banner (`valetd listening on ADDR (...)`)
/// and then detaches a thread to keep its stdout pipe drained.
fn read_listening_addr(stdout: std::process::ChildStdout) -> io::Result<SocketAddr> {
    use std::io::BufRead;
    let mut reader = io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "valetd exited before announcing its address",
            ));
        }
        if let Some(rest) = line.strip_prefix("valetd listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad banner: {line}"))
                })?;
            std::thread::Builder::new()
                .name("valetd-stdout".to_owned())
                .spawn(move || {
                    let mut sink = String::new();
                    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                })
                .expect("spawn stdout drain");
            return Ok(addr);
        }
    }
}

fn stop_node(handle: NodeHandle, addr: SocketAddr, drained: bool) -> io::Result<()> {
    match handle {
        NodeHandle::InProcess(server) => {
            if drained {
                server.stop_after_drain();
            } else {
                server.stop();
            }
            Ok(())
        }
        NodeHandle::Process(mut child) => {
            // Supervision is wire-only: ask politely, then wait. valetd
            // itself picks the drain-safe stop when it was draining.
            if request_remote_shutdown(addr).is_err() {
                let _ = child.kill();
            }
            child.wait()?;
            Ok(())
        }
    }
}

/// Everything one cluster run produces.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Client-side latency statistics (the same client, and so the
    /// same shape, as a single-node run).
    pub stats: LiveRunStats,
    /// Where every issued request ended up. `accounting.lost() == 0` is
    /// the run's zero-lost guarantee; [`run_cluster`] returns it
    /// unasserted so harness and tests choose their own severity.
    pub accounting: RequestAccounting,
    /// Redirect frames the balancer saw (the server-side view can lose
    /// a drained node's counter to its restart; this one can't).
    pub redirects: u64,
    /// Per-node final telemetry snapshots, indexed like the directory
    /// (a drained node's snapshot is taken just before its restart).
    pub node_stats: Vec<StatsSnapshot>,
}

/// Runs the full cluster experiment described by `cfg`: start nodes,
/// drive them through the balancer with the plan's failure injected
/// mid-run, fold per-node telemetry, stop everything.
pub fn run_cluster(cfg: &LiveRunConfig) -> io::Result<ClusterOutcome> {
    run_cluster_with(cfg, NodeLaunch::InProcess)
}

/// [`run_cluster`] with an explicit node launch mode.
pub fn run_cluster_with(cfg: &LiveRunConfig, launch: NodeLaunch) -> io::Result<ClusterOutcome> {
    let plan = cfg.cluster.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "config has no cluster plan")
    })?;
    let cluster = Arc::new(Cluster::start(cfg, launch)?);
    let driver = spawn_failure_driver(&cluster, plan, cfg.expected_duration());
    let run = run_balancer(&cfg.balancer_config(), &cluster.directory());
    let drained_snapshot = match driver {
        Some(handle) => handle.join().expect("failure driver")?,
        None => None,
    };
    let (stats, accounting, redirects) = run?;
    let mut node_stats = Vec::new();
    for (node, slot) in cluster.directory.nodes().iter().enumerate() {
        // The drained node's pre-restart snapshot replaces its (fresh)
        // replacement's where available.
        match &drained_snapshot {
            Some((drained, snap)) if *drained == node => node_stats.push(snap.clone()),
            _ => node_stats.push(query_stats(slot.addr)?),
        }
    }
    cluster.stop();
    Ok(ClusterOutcome {
        stats,
        accounting,
        redirects,
        node_stats,
    })
}

type DriverResult = io::Result<Option<(usize, StatsSnapshot)>>;

/// Spawns the mid-run failure driver the plan calls for (churn is
/// executed inside the balancer's schedule instead — it needs exact
/// request-count alignment, not wall-clock timing).
fn spawn_failure_driver(
    cluster: &Arc<Cluster>,
    plan: ClusterPlan,
    expected: Duration,
) -> Option<JoinHandle<DriverResult>> {
    let trigger = expected.mul_f64(0.4);
    match plan.failure {
        FailureMode::None | FailureMode::Churn => None,
        FailureMode::Drain => {
            let cluster = Arc::clone(cluster);
            Some(
                std::thread::Builder::new()
                    .name("cluster-drain".to_owned())
                    .spawn(move || {
                        std::thread::sleep(trigger);
                        let node = plan.nodes - 1;
                        let snap = cluster.drain_and_restart(node)?;
                        Ok(Some((node, snap)))
                    })
                    .expect("spawn drain driver"),
            )
        }
        FailureMode::Migrate => {
            let directory = cluster.directory();
            Some(
                std::thread::Builder::new()
                    .name("cluster-migrate".to_owned())
                    .spawn(move || {
                        std::thread::sleep(trigger);
                        directory.migrate();
                        Ok(None)
                    })
                    .expect("spawn migrate driver"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn draining_a_node_moves_only_its_own_flows() {
        let directory = NodeDirectory::new(addrs(3));
        let before: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        directory.set_alive(1, false);
        let after: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        for (flow, (b, a)) in before.iter().zip(&after).enumerate() {
            if *b == 1 {
                assert_ne!(*a, 1, "flow {flow} still routed to the dead node");
            } else {
                assert_eq!(a, b, "flow {flow} moved although its node stayed up");
            }
        }
        // Rejoin restores the original mapping exactly.
        directory.set_alive(1, true);
        let rejoined: Vec<usize> = (0..64)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        assert_eq!(rejoined, before);
    }

    #[test]
    fn migration_reshuffles_and_every_epoch_bump_is_visible() {
        let directory = NodeDirectory::new(addrs(4));
        assert_eq!(directory.epoch(), 0);
        let before: Vec<usize> = (0..128)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        directory.migrate();
        assert_eq!(directory.epoch(), 1);
        let after: Vec<usize> = (0..128)
            .map(|flow| directory.route(flow).unwrap().1)
            .collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(moved > 0, "migration moved no flows at all");
        directory.set_alive(2, false);
        assert_eq!(directory.epoch(), 2);
        directory.replace(2, "127.0.0.1:9999".parse().unwrap());
        assert_eq!(directory.epoch(), 3);
        assert!(directory.nodes()[2].alive);
    }

    #[test]
    fn route_is_none_only_when_everything_is_dead() {
        let directory = NodeDirectory::new(addrs(2));
        directory.set_alive(0, false);
        assert!(directory.route(7).is_some());
        directory.set_alive(1, false);
        assert!(directory.route(7).is_none());
    }
}
