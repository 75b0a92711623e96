//! `loadgen` — the open-loop Poisson load generator.
//!
//! ```text
//! loadgen --load 0.7 --requests 50000
//! loadgen --addr 127.0.0.1:7117 --workload herd --scale 1000 --load 0.9
//! loadgen --addr 127.0.0.1:7117,127.0.0.1:7118,127.0.0.1:7119 --load 0.7
//! loadgen --drain-node 127.0.0.1:7118
//! ```
//!
//! `--addr` lists the tier's nodes, one for a single `valetd`. Flows map
//! to nodes by rendezvous hashing and redirects from a draining node are
//! followed. Offered load is either `--rate <rps>` (absolute, whole tier)
//! or `--load <frac>` (fraction of `workers × nodes / scaled-mean-service`;
//! pass the servers' `--workers` so capacity matches). Prints a
//! p50/p99/throughput summary from the latency histogram when the run
//! drains, then a request-accounting line; exits non-zero unless every
//! request was completed, redirected or rejected
//! (`completed + redirected + rejected == issued`).
//!
//! `--drain-node ADDR` sends the wire `DRAIN` verb to one node and exits
//! — pair it with a running multi-node loadgen to watch a drain live.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use live::cli::{parse_addr_list, resolve_addr, Flags};
use live::cluster::NodeDirectory;
use live::loadgen::{run_balancer, BalancerConfig};
use live::protocol::DrainAction;
use live::query_drain;
use workloads::Workload;

const USAGE: &str = "usage: loadgen [--addr host:port[,host:port...]] \
                     [--load frac | --rate rps] [--requests n] [--warmup n] \
                     [--workload name] [--scale x] [--conns n] [--workers n] \
                     [--seed n] [--window-ms n] | loadgen --drain-node host:port";

struct Args {
    addr: String,
    drain_node: Option<String>,
    load: Option<f64>,
    rate: Option<f64>,
    requests: u64,
    warmup: Option<u64>,
    workload: Workload,
    scale: f64,
    conns: usize,
    workers: usize,
    seed: u64,
    window_ms: Option<u64>,
}

fn parse_args(mut flags: Flags) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7117".to_owned(),
        drain_node: None,
        load: None,
        rate: None,
        requests: 10_000,
        warmup: None,
        workload: Workload::Synthetic(dist::SyntheticKind::Exponential),
        scale: 1_000.0,
        conns: 8,
        workers: 4,
        seed: 1,
        window_ms: None,
    };
    // The first run flag given: `--drain-node` runs nothing and refuses it.
    let mut run_flag = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--drain-node" => {
                args.drain_node = Some(flags.value("--drain-node")?);
                continue;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            "--addr" => args.addr = flags.value("--addr")?,
            "--load" => args.load = Some(flags.parse("--load")?),
            "--rate" => args.rate = Some(flags.parse("--rate")?),
            "--requests" => args.requests = flags.parse_positive("--requests")?,
            "--warmup" => args.warmup = Some(flags.parse("--warmup")?),
            "--workload" => {
                args.workload = flags
                    .value("--workload")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--scale" => args.scale = flags.parse("--scale")?,
            "--conns" => args.conns = flags.parse_positive("--conns")? as usize,
            "--workers" => args.workers = flags.parse_positive("--workers")? as usize,
            "--seed" => args.seed = flags.parse("--seed")?,
            "--window-ms" => args.window_ms = Some(flags.parse_positive("--window-ms")?),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        run_flag.get_or_insert(flag);
    }
    if let (Some(_), Some(flag)) = (&args.drain_node, &run_flag) {
        return Err(format!(
            "--drain-node runs nothing, so {flag} does not apply"
        ));
    }
    if args.load.is_some() && args.rate.is_some() {
        return Err("--load and --rate both set the offered load: give one".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(Flags::from_env()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(node) = &args.drain_node {
        return drain_node(node);
    }
    let addrs = match parse_addr_list(&args.addr) {
        Ok(addrs) => addrs,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let service = args.workload.service_dist();
    let mean_ns = service.mean_ns() * args.scale;
    let total_workers = args.workers * addrs.len();
    let rate_rps = args
        .rate
        .unwrap_or_else(|| args.load.unwrap_or(0.7) * total_workers as f64 * 1e9 / mean_ns);
    let warmup = args
        .warmup
        .unwrap_or(args.requests / 10)
        .min(args.requests - 1);
    let expected = Duration::from_secs_f64(args.requests as f64 / rate_rps);
    println!(
        "loadgen -> {} : {} requests at {:.0} rps ({} workload, mean service {:.3} ms, ~{:.1} s)",
        args.addr,
        args.requests,
        rate_rps,
        args.workload,
        mean_ns / 1e6,
        expected.as_secs_f64()
    );
    let cfg = BalancerConfig {
        flows: args.conns,
        requests: args.requests,
        warmup,
        rate_rps,
        service,
        scale: args.scale,
        seed: args.seed,
        workers_hint: total_workers,
        drain_timeout: expected * 3 + Duration::from_secs(10),
        series_interval: args.window_ms.map(Duration::from_millis),
        churn: false,
    };
    let (stats, accounting, redirects) =
        match run_balancer(&cfg, &Arc::new(NodeDirectory::new(addrs))) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("loadgen failed: {e} (is valetd running at {}?)", args.addr);
                return ExitCode::FAILURE;
            }
        };
    println!("{}", stats.summary());
    if let Some(series) = &stats.series {
        let derived = telemetry::derive_series(
            &series.windows,
            args.window_ms.unwrap_or(1) * 1_000_000_000,
            series.cores,
        );
        println!("window  throughput_rps  p50_ms  p99_ms");
        for p in &derived {
            println!(
                "{:>6}  {:>14.1}  {:>6.3}  {:>6.3}",
                p.index,
                p.throughput_rps,
                p.p50_ns / 1e6,
                p.p99_ns / 1e6,
            );
        }
    }
    println!("accounting: {accounting} ({redirects} redirect frame(s))");
    if !accounting.balanced() {
        eprintln!("error: {} request(s) lost", accounting.lost());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--drain-node`: flip one node into drain mode over the wire and
/// report its state.
fn drain_node(node: &str) -> ExitCode {
    let addr = match resolve_addr(node) {
        Ok(addr) => addr,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match query_drain(addr, DrainAction::Begin) {
        Ok(reply) => {
            println!(
                "{addr} draining: {} request(s) still in flight",
                reply.inflight
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("drain {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse_args(Flags::from_args(
            line.split_whitespace().map(str::to_owned).collect(),
        ))
    }

    #[test]
    fn usage_examples_parse_and_ignored_or_bad_flags_are_errors() {
        for line in [
            "",
            "--load 0.7 --requests 50000",
            "--addr 127.0.0.1:7117 --workload herd --scale 1000 --load 0.9",
            "--addr 127.0.0.1:7117,127.0.0.1:7118,127.0.0.1:7119 --load 0.7",
            "--drain-node 127.0.0.1:7118",
            "--rate 2000 --conns 4 --window-ms 100",
        ] {
            if let Err(e) = parse_line(line) {
                panic!("{line}: {e}");
            }
        }
        // `command line => expected error`.
        for row in [
            "--rate 100 --load 0.5 => --load and --rate both set the offered load",
            "--drain-node h:1 --load 0.5 => --load does not apply",
            "--requests 10 --drain-node h:1 => --requests does not apply",
            "--addrs h:1,h:2 => unknown flag `--addrs`",
            "--requests 0 => --requests must be at least 1",
            "--window-ms => --window-ms needs a value",
            "--help => usage: loadgen",
        ] {
            let (line, want) = row.split_once(" => ").expect("`line => error` row");
            let err = parse_line(line).err().unwrap_or_default();
            assert!(err.contains(want), "{line}: got `{err}`, want `{want}`");
        }
    }
}
