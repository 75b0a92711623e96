//! HERD key-value server: which NI dispatch policy keeps the tail down?
//!
//! The paper's motivating scenario (§1, §6.1): a data-serving tier with
//! ~330 ns RPC handlers. This example sweeps offered load for the three
//! hardware queuing implementations — 16×1 (RSS-like static), 4×4
//! (partitioned dispatchers), and 1×16 (RPCValet) — and reports each
//! one's throughput under the paper's SLO of 10× the mean service time.
//!
//! Run with: `cargo run --release --example herd_server`

use rpcvalet_repro::harness::{default_threads, run_matrix, RateGrid, ScenarioMatrix};
use rpcvalet_repro::rpcvalet::Policy;
use rpcvalet_repro::workloads::Workload;

fn main() {
    // HERD's capacity on this chip is ~29 Mrps (16 cores / ~550 ns S̄);
    // sweep to just past saturation like Fig. 7a's 0–30 Mrps axis.
    let matrix = ScenarioMatrix::new("herd_server", 7)
        .workloads(vec![Workload::Herd])
        .policies(vec![
            Policy::hw_static(),
            Policy::hw_partitioned(),
            Policy::hw_single_queue(),
        ])
        .rates(RateGrid::Shared(
            (1..=10).map(|i| i as f64 * 2.9e6).collect(),
        ))
        .requests(120_000, 12_000);

    println!("HERD (mean 330 ns) under three NI dispatch policies\n");
    let comparisons = run_matrix(&matrix, default_threads()).0.summaries();

    println!(
        "{:<8} {:>14} {:>18}",
        "policy", "S-bar (ns)", "SLO tput (Mrps)"
    );
    for c in &comparisons {
        println!(
            "{:<8} {:>14.0} {:>18.2}",
            c.policy,
            c.mean_service_ns,
            c.throughput_under_slo_rps / 1e6
        );
    }

    let find = |l: &str| {
        comparisons
            .iter()
            .find(|c| c.policy == l)
            .map(|c| c.throughput_under_slo_rps)
            .expect("policy present")
    };
    println!(
        "\n1x16 improves on 4x4 by {:.2}x and on 16x1 by {:.2}x",
        find("1x16") / find("4x4"),
        find("1x16") / find("16x1"),
    );
    println!("(paper Fig. 7a: 29 MRPS for 1x16; 1.16x over 4x4, 1.18x over 16x1)");
}
