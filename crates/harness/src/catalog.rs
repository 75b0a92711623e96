//! The experiment catalog: one [`Scenario`] per paper artifact.
//!
//! Every experiment in the repo — each figure, Table 1, and every
//! ablation — is declared here as data: its matrices (via
//! [`ScenarioMatrix::named`] or built inline) plus a `derive` step that
//! turns the deterministic [`SweepReport`]s into the exact artifacts the
//! legacy figure binaries wrote (`target/figures/*.json`, byte-identical
//! for migrated experiments). `harness run --scenario <name>` executes
//! any entry.

use std::fmt::Write as _;

use dist::pdf::{estimate_pdf, EstimatedPdf};
use dist::{workload_models, ServiceDist, SyntheticKind};
use metrics::{throughput_under_slo, LatencyCurve, SloSpec};
use queueing::hybrid::hybrid_service;
use queueing::QxU;
use rpcvalet::{Policy, PreemptionParams, ServerSim, SystemConfig};
use serde::Serialize;
use simkit::rng::stream_rng;
use simkit::SimDuration;
use sonuma::ChipParams;
use workloads::Workload;

use crate::report::{PolicySummary, SweepReport};
use crate::scenario::{Artifact, Artifacts, Scenario, ScenarioParams, ScenarioRun};
use crate::spec::{RateGrid, ScenarioMatrix};

/// Every registered scenario, in catalog (paper) order.
pub fn catalog() -> &'static [Scenario] {
    &CATALOG
}

/// Looks a scenario up by registry name.
pub fn find_scenario(name: &str) -> Option<&'static Scenario> {
    CATALOG.iter().find(|s| s.name == name)
}

/// The paper artifacts the registry must always cover — the coverage
/// contract `harness list --check` enforces in CI (previously an inline
/// python script in the workflow). `live_smoke` is deliberately absent:
/// it is an infrastructure smoke, not a paper artifact.
pub const REQUIRED_SCENARIOS: &[&str] = &[
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "ablation_outstanding",
    "ablation_dispatcher",
    "ablation_preemption",
    "ablation_emulated",
    "ablation_sensitivity",
    "latency_breakdown",
];

/// The README "Experiment catalog" table, generated from the registry
/// (`harness list --readme`; CI fails when the README section drifts
/// from this).
pub fn readme_catalog_table() -> String {
    let mut out = String::from(
        "| scenario | kind | paper | quick runtime | what it reproduces |\n|---|---|---|---|---|\n",
    );
    for s in catalog() {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            s.name, s.kind, s.paper, s.quick_runtime, s.summary
        );
    }
    out
}

/// Validates the registry: every required scenario present, no
/// duplicate names. Returns the problems (empty = healthy).
pub fn registry_problems() -> Vec<String> {
    let mut problems = Vec::new();
    for required in REQUIRED_SCENARIOS {
        if find_scenario(required).is_none() {
            problems.push(format!("required scenario `{required}` is missing"));
        }
    }
    for (i, s) in CATALOG.iter().enumerate() {
        if CATALOG[..i].iter().any(|other| other.name == s.name) {
            problems.push(format!("duplicate scenario name `{}`", s.name));
        }
    }
    problems
}

static CATALOG: [Scenario; 16] = [
    Scenario {
        name: "fig2",
        paper: "Fig. 2a-c",
        kind: "queueing",
        summary: "Queueing-model tail latency vs load: five QxU configurations and four service distributions",
        quick_runtime: "~1 s",
        parts: &["a", "b", "c"],
        build: build_fig2,
        derive: derive_fig2,
    },
    Scenario {
        name: "fig6",
        paper: "Fig. 6a-c",
        kind: "derived",
        summary: "PDFs of the modeled RPC processing-time distributions (synthetics, HERD, Masstree)",
        quick_runtime: "~1 s",
        parts: &["a", "b", "c"],
        build: build_none,
        derive: derive_fig6,
    },
    Scenario {
        name: "fig7",
        paper: "Fig. 7a-c",
        kind: "sim",
        summary: "Load balancing with three hardware queuing implementations (HERD, Masstree, synthetics)",
        quick_runtime: "~30 s",
        parts: &["a", "b", "c"],
        build: build_fig7,
        derive: derive_fig7,
    },
    Scenario {
        name: "fig8",
        paper: "Fig. 8",
        kind: "sim",
        summary: "1x16 hardware (RPCValet) vs software (MCS lock) over four synthetic distributions",
        quick_runtime: "~20 s",
        parts: &[],
        build: build_fig8,
        derive: derive_fig8,
    },
    Scenario {
        name: "fig9",
        paper: "Fig. 9a-d",
        kind: "mixed",
        summary: "RPCValet vs the theoretical 1x16 queueing model (the paper's 3-15% gap claim)",
        quick_runtime: "~40 s",
        parts: &[],
        build: build_fig9,
        derive: derive_fig9,
    },
    Scenario {
        name: "table1",
        paper: "Table 1",
        kind: "derived",
        summary: "Simulation parameters: modeled chip configuration and derived event-model constants",
        quick_runtime: "<1 s",
        parts: &[],
        build: build_none,
        derive: derive_table1,
    },
    Scenario {
        name: "ablation_outstanding",
        paper: "§4.3/§6.1",
        kind: "sim",
        summary: "Outstanding requests per core, 1 vs 2: the execution-bubble ablation",
        quick_runtime: "~10 s",
        parts: &[],
        build: build_ablation_outstanding,
        derive: derive_ablation_outstanding,
    },
    Scenario {
        name: "ablation_dispatcher",
        paper: "§4.3",
        kind: "sim",
        summary: "Single NI dispatcher headroom: analytic decision intervals plus measured shared-CQ depth at 16 and 64 cores",
        quick_runtime: "~10 s",
        parts: &[],
        build: build_ablation_dispatcher,
        derive: derive_ablation_dispatcher,
    },
    Scenario {
        name: "ablation_preemption",
        paper: "§7",
        kind: "sim",
        summary: "RPCValet + Shinjuku-style preemption on Masstree (get-class p99)",
        quick_runtime: "~10 s",
        parts: &[],
        build: build_ablation_preemption,
        derive: derive_ablation_preemption,
    },
    Scenario {
        name: "ablation_emulated",
        paper: "§3.3",
        kind: "sim",
        summary: "Emulated messaging's per-flow affinity vs per-message 16x1",
        quick_runtime: "~15 s",
        parts: &[],
        build: build_ablation_emulated,
        derive: derive_ablation_emulated,
    },
    Scenario {
        name: "ablation_sensitivity",
        paper: "§4.2/§6.2",
        kind: "mixed",
        summary: "Sensitivity sweeps: send slots, MTU, MCS lock cost, outstanding threshold, plus live partitioned-groups/replenish-batch knobs",
        quick_runtime: "~15 s",
        parts: &[],
        build: build_ablation_sensitivity,
        derive: derive_ablation_sensitivity,
    },
    Scenario {
        name: "latency_breakdown",
        paper: "§4.2/§4.3",
        kind: "sim",
        summary: "Trace-based latency anatomy: reassembly / dispatch / core queue / processing per policy and load",
        quick_runtime: "~10 s",
        parts: &[],
        build: build_latency_breakdown,
        derive: derive_latency_breakdown,
    },
    Scenario {
        name: "live_smoke",
        paper: "§6 (live)",
        kind: "live",
        summary: "Real loopback TCP serving: single-queue / RSS / replenish with sleep-burn workers",
        quick_runtime: "~3 s",
        parts: &[],
        build: build_live_smoke,
        derive: derive_live_smoke,
    },
    Scenario {
        name: "live_cluster",
        paper: "§6 (live)",
        kind: "live",
        summary: "Cluster serving tier: 3 multi-worker nodes behind the client-side balancer, flows migrated mid-run via an epoch bump",
        quick_runtime: "~2 s",
        parts: &[],
        build: build_live_cluster,
        derive: derive_live_cluster,
    },
    Scenario {
        name: "live_churn",
        paper: "§6 (live)",
        kind: "live",
        summary: "Cluster under a reconnect storm: half the flows severed twice mid-run, every request accounted for",
        quick_runtime: "~2 s",
        parts: &[],
        build: build_live_churn,
        derive: derive_live_churn,
    },
    Scenario {
        name: "live_drain",
        paper: "§6 (live)",
        kind: "live",
        summary: "Graceful drain: one node drains, restarts on a fresh port, and rejoins mid-run with zero lost requests",
        quick_runtime: "~2 s",
        parts: &[],
        build: build_live_drain,
        derive: derive_live_drain,
    },
];

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Applies the run parameters to a predefined matrix the way the legacy
/// binaries and the `--matrix` CLI always did: `--quick` scales requests
/// down 8× ([`ScenarioMatrix::quick`], which leaves live matrices alone),
/// an explicit request override wins.
fn sized(mut matrix: ScenarioMatrix, params: &ScenarioParams) -> ScenarioMatrix {
    if params.quick {
        matrix = matrix.quick();
    }
    if let Some(requests) = params.requests {
        matrix = matrix.requests(requests, requests / 10);
    }
    matrix
}

fn named(name: &str) -> ScenarioMatrix {
    ScenarioMatrix::named(name).unwrap_or_else(|| panic!("predefined matrix `{name}`"))
}

fn build_none(_params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    Vec::new()
}

/// Formats a ratio as the paper does ("1.18x").
fn ratio(better: f64, worse: f64) -> String {
    if worse <= 0.0 {
        "n/a (baseline saturated)".to_owned()
    } else {
        format!("{:.2}x", better / worse)
    }
}

/// Renders per-policy summaries as the CLI table.
fn render_summaries(summaries: &[PolicySummary], y_unit: &str, y_scale: f64) -> String {
    let mut out = String::new();
    for s in summaries {
        out.push_str(&crate::scenario::render_curve(&s.curve, "load", y_unit, y_scale));
        let _ = writeln!(
            out,
            "    S = {:.0} ns, throughput under SLO = {:.2} Mrps",
            s.mean_service_ns,
            s.throughput_under_slo_rps / 1e6
        );
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 2 — queueing-model tail latency vs load
// ---------------------------------------------------------------------

const FIG2_PARTS: [(&str, &str, bool); 3] = [
    ("a", "fig2a", false),
    ("b", "fig2b", true),
    ("c", "fig2c", true),
];

fn build_fig2(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    FIG2_PARTS
        .iter()
        .filter(|(part, ..)| params.wants_part(part))
        .map(|(_, matrix, _)| sized(named(matrix), params))
        .collect()
}

/// Rebuilds a fig2 part's legacy latency-curve list from its report.
/// Part a keeps the config label (`"1x16"`); parts b/c prepend the
/// distribution, as the legacy binary labelled them.
fn fig2_curves(report: &SweepReport, relabel_by_workload: bool) -> Vec<LatencyCurve> {
    report
        .summaries()
        .into_iter()
        .map(|s| {
            let mut curve = s.curve;
            curve.label = if relabel_by_workload {
                format!("{}-{}", s.workload, s.policy)
            } else {
                s.policy.clone()
            };
            curve
        })
        .collect()
}

fn derive_fig2(run: &ScenarioRun) -> Artifacts {
    let mut items = Vec::new();
    for (part, matrix, relabel) in FIG2_PARTS {
        let Some(report) = run.report(matrix) else { continue };
        let curves = fig2_curves(report, relabel);
        let mut display = format!("\n--- Fig. 2{part}: {} ---\n", match part {
            "a" => "Q x U configurations, exponential service",
            "b" => "model 1x16, four service distributions",
            _ => "model 16x1, four service distributions",
        });
        for c in &curves {
            display.push_str(&crate::scenario::render_curve(c, "load", "xS", 1.0));
        }
        if part == "a" && curves.len() == 5 {
            // The paper's §2.2 claim: peak load under a 10×S̄ SLO is
            // 25–73 % lower for 16×1 than 1×16 across distributions.
            let slo = SloSpec::absolute_ns(10.0);
            let best = throughput_under_slo(&curves[0], slo);
            let worst = throughput_under_slo(&curves[4], slo);
            let _ = writeln!(
                display,
                "\n  1x16 vs 16x1 load capacity under 10xS SLO: {} (paper: 25-73% lower for 16x1)",
                ratio(best, worst)
            );
        }
        items.push(Artifact::json(matrix, &curves, display));
    }
    Artifacts::new(items)
}

// ---------------------------------------------------------------------
// Fig. 6 — processing-time distribution PDFs (pure derivation)
// ---------------------------------------------------------------------

/// One plotted PDF series — the legacy `fig6` JSON shape.
#[derive(Serialize)]
struct PdfSeries {
    label: String,
    bin_width_ns: f64,
    centers_ns: Vec<f64>,
    probability: Vec<f64>,
    mean_ns: f64,
    clipped_fraction: f64,
}

fn pdf_series(
    label: &str,
    dist: &ServiceDist,
    n: usize,
    bin: f64,
    max: f64,
    seed: u64,
) -> PdfSeries {
    let mut rng = stream_rng(seed, 0);
    let pdf: EstimatedPdf = estimate_pdf(dist, n, bin, max, &mut rng);
    PdfSeries {
        label: label.to_owned(),
        bin_width_ns: bin,
        centers_ns: pdf.bins().iter().map(|b| b.center_ns).collect(),
        probability: pdf.bins().iter().map(|b| b.probability).collect(),
        mean_ns: pdf.mean_ns(),
        clipped_fraction: pdf.clipped() as f64 / pdf.samples() as f64,
    }
}

fn render_pdf_series(s: &PdfSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {}: mean {:.0} ns, mode {:.0} ns, {:.2}% beyond axis",
        s.label,
        s.mean_ns,
        s.centers_ns[s
            .probability
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)],
        s.clipped_fraction * 100.0
    );
    // Compact sparkline-style dump: every 4th bin.
    let peak = s.probability.iter().cloned().fold(0.0, f64::max).max(1e-12);
    out.push_str("    ");
    for (i, &p) in s.probability.iter().enumerate() {
        if i % 4 == 0 {
            let level = (p / peak * 8.0).round() as usize;
            out.push_str([" ", ".", ":", "-", "=", "+", "*", "#", "@"][level.min(8)]);
        }
    }
    out.push('\n');
    out
}

fn derive_fig6(run: &ScenarioRun) -> Artifacts {
    let n = run.params.effective_requests(2_000_000) as usize;
    let mut items = Vec::new();

    if run.params.wants_part("a") {
        let all: Vec<PdfSeries> = SyntheticKind::ALL
            .iter()
            .map(|&k| pdf_series(k.label(), &k.processing_time(), n, 10.0, 1_000.0, k as u64))
            .collect();
        let mut display =
            "\n--- Fig. 6a: synthetic distributions (0-1000 ns axis) ---\n".to_owned();
        for s in &all {
            display.push_str(&render_pdf_series(s));
        }
        display.push_str("  (paper: all four have a 600 ns mean; GEV has the heavy tail)\n");
        items.push(Artifact::json("fig6a", &all, display));
    }

    if run.params.wants_part("b") {
        let s = pdf_series("herd", &workload_models::herd(), n, 10.0, 1_000.0, 42);
        let mut display = "\n--- Fig. 6b: HERD (0-1000 ns axis) ---\n".to_owned();
        display.push_str(&render_pdf_series(&s));
        display.push_str("  (paper: mean 330 ns)\n");
        items.push(Artifact::json("fig6b", &s, display));
    }

    if run.params.wants_part("c") {
        let s = pdf_series("masstree", &workload_models::masstree(), n, 50.0, 4_000.0, 43);
        let mut display = "\n--- Fig. 6c: Masstree gets + scans (0-4000 ns axis) ---\n".to_owned();
        display.push_str(&render_pdf_series(&s));
        display.push_str(
            "  (paper: gets average 1.25 us; 1% scans at 60-120 us fall beyond the axis)\n",
        );
        items.push(Artifact::json("fig6c", &s, display));
    }

    Artifacts::new(items)
}

// ---------------------------------------------------------------------
// Fig. 7 — three hardware queuing implementations
// ---------------------------------------------------------------------

fn build_fig7(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    [("a", "fig7a"), ("b", "fig7b"), ("c", "fig7c")]
        .iter()
        .filter(|(part, _)| params.wants_part(part))
        .map(|(_, matrix)| sized(named(matrix), params))
        .collect()
}

/// The per-workload ratio lines fig7 prints under each part.
fn fig7_ratios(workload: Workload, summaries: &[PolicySummary]) -> String {
    let by_label = |l: &str| {
        summaries
            .iter()
            .find(|s| s.policy == l)
            .map(|s| s.throughput_under_slo_rps)
            .unwrap_or(0.0)
    };
    let (t16, t44, t1) = (by_label("16x1"), by_label("4x4"), by_label("1x16"));
    format!(
        "  [{}] 1x16 vs 4x4: {}, 1x16 vs 16x1: {}\n",
        workload.label(),
        ratio(t1, t44),
        ratio(t1, t16)
    )
}

fn derive_fig7(run: &ScenarioRun) -> Artifacts {
    let mut items = Vec::new();

    if let Some(report) = run.report("fig7a") {
        let summaries = report.summaries();
        let mut display = "\n--- Fig. 7a: HERD (SLO = 10x S, S ~ 550 ns) ---\n".to_owned();
        display.push_str(&render_summaries(&summaries, "us", 1e3));
        display.push_str(&fig7_ratios(Workload::Herd, &summaries));
        display
            .push_str("  (paper: 1x16 delivers 29 MRPS, 1.16x over 4x4 and 1.18x over 16x1)\n");
        items.push(Artifact::json("fig7a", &summaries, display));
    }

    if let Some(report) = run.report("fig7b") {
        let summaries = report.summaries();
        let mut display = "\n--- Fig. 7b: Masstree (SLO = 12.5 us on gets) ---\n".to_owned();
        display.push_str(&render_summaries(&summaries, "us", 1e3));
        display.push_str(&fig7_ratios(Workload::Masstree, &summaries));
        // The relaxed 75 µs SLO comparison the paper also reports.
        let relaxed = SloSpec::absolute_us(75.0);
        let t: Vec<(String, f64)> = summaries
            .iter()
            .map(|s| (s.policy.clone(), throughput_under_slo(&s.curve, relaxed)))
            .collect();
        let find = |l: &str| t.iter().find(|x| x.0 == l).map(|x| x.1).unwrap_or(0.0);
        let _ = writeln!(
            display,
            "  relaxed 75 us SLO: 1x16 vs 16x1 {}, 1x16 vs 4x4 {}",
            ratio(find("1x16"), find("16x1")),
            ratio(find("1x16"), find("4x4")),
        );
        display.push_str(
            "  (paper: 1x16 4.1 MRPS at SLO, 37% over 4x4; 16x1 misses SLO at 2 MRPS;\n   relaxed 75 us: 54% over 16x1, 20% over 4x4)\n",
        );
        items.push(Artifact::json("fig7b", &summaries, display));
    }

    if let Some(report) = run.report("fig7c") {
        let mut summaries = report.summaries();
        let mut display =
            "\n--- Fig. 7c: synthetic fixed and GEV (SLO = 10x S, S ~ 820 ns) ---\n".to_owned();
        for kind in [SyntheticKind::Fixed, SyntheticKind::Gev] {
            let workload = Workload::Synthetic(kind);
            let of_kind: Vec<PolicySummary> = summaries
                .iter()
                .filter(|s| s.workload == workload.label())
                .cloned()
                .collect();
            let _ = writeln!(display, "  [{} distribution]", kind.label());
            display.push_str(&render_summaries(&of_kind, "us", 1e3));
            display.push_str(&fig7_ratios(workload, &of_kind));
        }
        for s in &mut summaries {
            s.curve.label = format!("{}_{}", s.policy, s.workload);
        }
        display.push_str(
            "  (paper: fixed: 1x16 1.13x over 4x4, 1.2x over 16x1;\n   GEV: 1.17x and 1.4x; plus up to 4x lower tail before saturation)\n",
        );
        items.push(Artifact::json("fig7c", &summaries, display));
    }

    Artifacts::new(items)
}

// ---------------------------------------------------------------------
// Fig. 8 — hardware vs software 1×16
// ---------------------------------------------------------------------

/// The legacy fig8 summary-row JSON shape.
#[derive(Serialize)]
struct Fig8Row {
    distribution: String,
    hw_slo_mrps: f64,
    sw_slo_mrps: f64,
    hw_over_sw: f64,
}

fn build_fig8(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("fig8"), params)]
}

fn derive_fig8(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("fig8");
    let all_summaries = report.summaries();
    let mut display =
        "=== Fig. 8: 1x16 hardware vs software (four synthetic distributions) ===\n".to_owned();
    let mut rows = Vec::new();
    let mut curves = Vec::new();
    for kind in SyntheticKind::ALL {
        let workload = Workload::Synthetic(kind);
        let summaries: Vec<_> = all_summaries
            .iter()
            .filter(|s| s.workload == workload.label())
            .cloned()
            .collect();
        let _ = writeln!(display, "\n--- {} distribution ---", kind.label());
        let mut slo_tputs = Vec::new();
        for mut s in summaries {
            let suffix = if s.policy.starts_with("sw") { "sw" } else { "hw" };
            s.curve.label = format!("{}_{}", kind.label(), suffix);
            display.push_str(&crate::scenario::render_curve(&s.curve, "rate (rps)", "us", 1e3));
            slo_tputs.push(s.throughput_under_slo_rps);
            curves.push(s);
        }
        let (hw, sw) = (slo_tputs[0], slo_tputs[1]);
        let _ = writeln!(
            display,
            "  [{}] throughput under SLO: hw {:.2} Mrps, sw {:.2} Mrps -> {}",
            kind.label(),
            hw / 1e6,
            sw / 1e6,
            ratio(hw, sw)
        );
        rows.push(Fig8Row {
            distribution: kind.label().to_owned(),
            hw_slo_mrps: hw / 1e6,
            sw_slo_mrps: sw / 1e6,
            hw_over_sw: if sw > 0.0 { hw / sw } else { f64::NAN },
        });
    }
    display.push_str(
        "\n  (paper: hardware delivers 2.3-2.7x higher throughput under SLO,\n   and software saturates significantly faster due to lock contention)\n",
    );
    Artifacts::new(vec![
        Artifact::json("fig8_curves", &curves, display),
        Artifact::json("fig8_summary", &rows, String::new()),
    ])
}

// ---------------------------------------------------------------------
// Fig. 9 — RPCValet vs the theoretical 1×16 model
// ---------------------------------------------------------------------

/// The legacy fig9 panel JSON shape.
#[derive(Serialize)]
struct Fig9Panel {
    distribution: String,
    mean_service_ns: f64,
    model: LatencyCurve,
    simulation: LatencyCurve,
    /// Gap between the model's and the implementation's throughput under
    /// the 10×S̄ SLO, in percent — the paper's "within 3–15 %" measure.
    slo_gap_pct: f64,
    /// Max point-wise p99 gap (in S̄ multiples) before saturation.
    max_p99_gap_pct: f64,
}

/// Fig. 9's load grid: 5 %-steps up to 95 %, then fine steps through the
/// saturation knee.
fn fig9_loads() -> Vec<f64> {
    let mut loads: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    loads.extend([0.96, 0.97, 0.98, 0.99, 1.0]);
    loads
}

/// §6.3's S̄ measurement: one light-load calibration run per
/// distribution. Deterministic, so `build` and `derive` both call it
/// and agree — recomputing (≤ 30 k requests, a few ms) beats threading
/// build-time state through [`ScenarioRun`], and the sweep reports
/// cannot supply it (their `mean_service_ns` is measured per load
/// point, not by this calibration run).
fn fig9_s_bar(kind: SyntheticKind, requests: u64) -> f64 {
    let cfg = SystemConfig::builder()
        .policy(Policy::hw_single_queue())
        .service(kind.processing_time())
        .rate_rps(2.0e6)
        .requests(requests.min(30_000))
        .warmup(2_000)
        .seed(90)
        .build();
    ServerSim::new(cfg).run().mean_service_ns
}

fn build_fig9(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    let requests = params.effective_requests(200_000);
    let loads = fig9_loads();
    let cores = 16.0;
    let mut matrices = Vec::new();
    for kind in SyntheticKind::ALL {
        let s_bar = fig9_s_bar(kind, requests);
        // Theoretical model per §6.3: (S̄ − D) fixed + the D portion
        // distributed; master seed 91 (the legacy model seeds).
        matrices.push(
            ScenarioMatrix::new(format!("fig9-model-{}", kind.label()), 91)
                .service_workloads(vec![(
                    format!("hybrid-{}", kind.label()),
                    hybrid_service(s_bar, kind),
                )])
                .model_policies(vec![QxU::SINGLE_16])
                .rates(RateGrid::Shared(loads.clone()))
                .requests(requests, requests / 10),
        );
        // The implementation at the matching absolute rates; master seed
        // 92 (the legacy sim seeds).
        let rates: Vec<f64> = loads.iter().map(|l| l * cores / (s_bar * 1e-9)).collect();
        matrices.push(
            ScenarioMatrix::new(format!("fig9-sim-{}", kind.label()), 92)
                .workloads(vec![Workload::Synthetic(kind)])
                .policies(vec![Policy::hw_single_queue()])
                .rates(RateGrid::Shared(rates))
                .requests(requests, requests / 10),
        );
    }
    matrices
}

/// Rebuilds the figure's latency curve from a single-(workload, policy)
/// report, with the X axis forced to the normalized load fractions.
fn fig9_curve(report: &SweepReport, label: String, loads: &[f64]) -> LatencyCurve {
    let summaries = report.summaries();
    assert_eq!(summaries.len(), 1, "one (workload, policy) per fig9 matrix");
    let mut curve = summaries.into_iter().next().expect("summary").curve;
    assert_eq!(curve.points.len(), loads.len());
    for (point, &load) in curve.points.iter_mut().zip(loads) {
        point.offered_load = load;
    }
    curve.label = label;
    curve
}

fn derive_fig9(run: &ScenarioRun) -> Artifacts {
    let requests = run.params.effective_requests(200_000);
    let loads = fig9_loads();
    let mut display = "=== Fig. 9: RPCValet vs theoretical 1x16 model ===\n".to_owned();
    let mut panels = Vec::new();
    for kind in SyntheticKind::ALL {
        let s_bar = fig9_s_bar(kind, requests);
        let fixed_part = (s_bar - 600.0).max(0.0);
        let model_curve = fig9_curve(
            run.expect_report(&format!("fig9-model-{}", kind.label())),
            format!("model-{}", kind.label()),
            &loads,
        );
        let sim_curve = fig9_curve(
            run.expect_report(&format!("fig9-sim-{}", kind.label())),
            format!("sim-{}", kind.label()),
            &loads,
        );

        // Headline gap: throughput under the 10×S̄ SLO, model vs sim.
        // The curves carry offered load on X; interpolate the SLO
        // crossing on that axis.
        let slo = SloSpec::ten_times_mean(s_bar);
        let slo_load = |curve: &LatencyCurve| {
            let mut as_tput = curve.clone();
            for p in &mut as_tput.points {
                p.throughput_rps = p.offered_load; // SLO search over load axis
            }
            throughput_under_slo(&as_tput, slo)
        };
        let (model_slo, sim_slo) = (slo_load(&model_curve), slo_load(&sim_curve));
        let slo_gap_pct = if model_slo > 0.0 {
            (model_slo - sim_slo) / model_slo * 100.0
        } else {
            0.0
        };

        // Supplementary: max point-wise p99 gap before saturation.
        let max_p99_gap_pct = model_curve
            .points
            .iter()
            .zip(&sim_curve.points)
            .filter(|(m, _)| m.offered_load <= 0.8)
            .map(|(m, s)| {
                let mp = m.p99_latency_ns / s_bar;
                let sp = s.p99_latency_ns / s_bar;
                ((sp - mp) / mp).abs() * 100.0
            })
            .fold(0.0, f64::max);

        let _ = writeln!(
            display,
            "\n--- Fig. 9 ({}): S = {:.0} ns (D = 600 ns distributed, {:.0} ns fixed) ---",
            kind.label(),
            s_bar,
            fixed_part
        );
        let _ = writeln!(
            display,
            "    {:>6} {:>14} {:>14}",
            "load", "model p99 (xS)", "sim p99 (xS)"
        );
        for (m, s) in model_curve.points.iter().zip(&sim_curve.points) {
            let _ = writeln!(
                display,
                "    {:>6.2} {:>14.2} {:>14.2}",
                m.offered_load,
                m.p99_latency_ns / s_bar,
                s.p99_latency_ns / s_bar
            );
        }
        let _ = writeln!(
            display,
            "    sustainable load under 10xS SLO: model {model_slo:.3}, sim {sim_slo:.3} -> gap {slo_gap_pct:.1}% (paper: 3-15%)"
        );
        let _ = writeln!(
            display,
            "    max pre-saturation p99 gap: {max_p99_gap_pct:.1}% (threshold-2 multi-queue effect)"
        );

        panels.push(Fig9Panel {
            distribution: kind.label().to_owned(),
            mean_service_ns: s_bar,
            model: model_curve,
            simulation: sim_curve,
            slo_gap_pct,
            max_p99_gap_pct,
        });
    }
    Artifacts::new(vec![Artifact::json("fig9", &panels, display)])
}

// ---------------------------------------------------------------------
// Table 1 — simulation parameters (pure derivation)
// ---------------------------------------------------------------------

/// Renders Table 1 exactly as the legacy `table1` binary printed it.
pub fn render_table1(p: &ChipParams) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Table 1: simulation parameters ===\n");
    let _ = writeln!(out, "  {:<28} {}", "Cores", format_args!("{} (ARM Cortex-A57-like, 2 GHz, OoO in the paper)", p.cores));
    let _ = writeln!(out, "  {:<28} {}", "Interconnect", format_args!("{}x{} 2D mesh, 16 B links, 3 cycles/hop", p.mesh.cols(), p.mesh.rows()));
    let _ = writeln!(out, "  {:<28} {}", "NI backends", p.backends);
    let _ = writeln!(out, "  {:<28} {} B (one cache block)", "MTU", p.mtu_bytes);
    let _ = writeln!(out);
    let _ = writeln!(out, "  Event-model constants derived from Table 1 (see sonuma::params):");
    let _ = writeln!(out, "  {:<28} {}", "WQE post (core->frontend)", p.wqe_post);
    let _ = writeln!(out, "  {:<28} {}", "CQE notify (NI->core poll)", p.cq_notify);
    let _ = writeln!(out, "  {:<28} {}", "Backend RX per packet", p.backend_rx_per_packet);
    let _ = writeln!(out, "  {:<28} {}", "Backend TX per packet", p.backend_tx_per_packet);
    let _ = writeln!(out, "  {:<28} {}", "Reassembly counter F&I", p.reassembly_update);
    let _ = writeln!(out, "  {:<28} {}", "Dispatch decision", p.dispatch_decision);
    let _ = writeln!(out, "  {:<28} {}", "RX buffer read", p.rx_buffer_read);
    let _ = writeln!(out, "  {:<28} {}", "Reply build (512 B)", p.reply_build);
    let _ = writeln!(out, "  {:<28} {}", "Core loop residue", p.core_loop_overhead);
    let _ = writeln!(out, "  {:<28} {}", "Wire latency (one way)", p.wire_latency);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<28} {} (microbenchmark S-bar minus processing time)",
        "Fixed service overhead",
        p.fixed_service_overhead()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "  NoC control-packet latencies (backend -> dispatcher at backend 0):");
    for b in 0..p.backends {
        let _ = writeln!(
            out,
            "    backend {} -> dispatcher: {}",
            b,
            p.backend_to_backend(b, 0)
        );
    }
    out
}

fn derive_table1(_run: &ScenarioRun) -> Artifacts {
    Artifacts::new(vec![Artifact::text(
        "table1",
        render_table1(&ChipParams::table1()),
    )])
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// The legacy `ablation_outstanding` row shape.
#[derive(Serialize)]
struct OutstandingRow {
    workload: String,
    threshold1_slo_mrps: f64,
    threshold2_slo_mrps: f64,
    gain_from_threshold2: f64,
}

fn build_ablation_outstanding(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("ablation_outstanding"), params)]
}

fn derive_ablation_outstanding(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("ablation_outstanding");
    let all_summaries = report.summaries();
    let mut display = "=== Ablation: outstanding requests per core (1 vs 2) ===\n\n".to_owned();
    let mut rows = Vec::new();
    // Distinct workloads in first-seen order; each has a threshold-1 and
    // a threshold-2 summary (keys "hw-single-t1" / "hw-single-t2").
    let mut workloads: Vec<String> = Vec::new();
    for s in &all_summaries {
        if !workloads.contains(&s.workload) {
            workloads.push(s.workload.clone());
        }
    }
    for workload in workloads {
        let summaries: Vec<_> = all_summaries
            .iter()
            .filter(|s| s.workload == workload)
            .collect();
        assert_eq!(summaries.len(), 2, "one summary per threshold");
        let (t1, t2) = (
            summaries[0].throughput_under_slo_rps,
            summaries[1].throughput_under_slo_rps,
        );
        let _ = writeln!(
            display,
            "  {:<8} threshold=1: {:.2} Mrps, threshold=2: {:.2} Mrps ({} from threshold 2)",
            workload,
            t1 / 1e6,
            t2 / 1e6,
            ratio(t2, t1)
        );
        rows.push(OutstandingRow {
            workload,
            threshold1_slo_mrps: t1 / 1e6,
            threshold2_slo_mrps: t2 / 1e6,
            gain_from_threshold2: t2 / t1.max(1.0),
        });
    }
    display.push_str(
        "\n  (paper: threshold 2 helps HERD marginally; elsewhere no measurable difference)\n",
    );
    Artifacts::new(vec![Artifact::json("ablation_outstanding", &rows, display)])
}

/// The legacy `ablation_dispatcher` analytic-row shape.
#[derive(Serialize)]
struct DispatcherRow {
    cores: usize,
    service_ns: f64,
    decision_interval_ns: f64,
    decision_occupancy_ns: f64,
    headroom: f64,
}

fn build_ablation_dispatcher(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    // The predefined 16-core matrix plus the 64-core scale-up (§4.3's
    // "a new dispatch decision every ~8 ns"; capacity ≈ 64/820 ns ≈
    // 78 Mrps, driven to ~90 %).
    let m64 = ScenarioMatrix::new("ablation_dispatcher64", 97)
        .workloads(vec![Workload::Synthetic(SyntheticKind::Exponential)])
        .policies(vec![Policy::hw_single_queue()])
        .chip(ChipParams::manycore64())
        .rates(RateGrid::Shared(vec![40.0e6, 70.0e6]))
        .requests(300_000, 30_000);
    vec![
        sized(named("ablation_dispatcher"), params),
        sized(m64, params),
    ]
}

fn derive_ablation_dispatcher(run: &ScenarioRun) -> Artifacts {
    let decision = SimDuration::from_cycles(2).as_ns_f64();
    let mut display = "=== Ablation: single NI dispatcher headroom (§4.3) ===\n\n".to_owned();
    let mut rows = Vec::new();
    display.push_str(&format!(
        "  Analytic headroom (dispatch interval vs ~{decision} ns decision):\n"
    ));
    for (cores, service_ns) in [(16usize, 500.0), (64, 500.0), (16, 820.0), (64, 820.0)] {
        let interval = service_ns / cores as f64;
        let headroom = interval / decision;
        let _ = writeln!(
            display,
            "    {cores:>3} cores x {service_ns:>4.0} ns RPCs -> a decision every {interval:>5.1} ns ({headroom:>5.1}x headroom)"
        );
        rows.push(DispatcherRow {
            cores,
            service_ns,
            decision_interval_ns: interval,
            decision_occupancy_ns: decision,
            headroom,
        });
    }
    display.push_str("  (paper: ~31 ns and ~8 ns for 16/64 cores at 500 ns — both modest)\n\n");

    for (matrix, cores) in [("ablation_dispatcher", 16), ("ablation_dispatcher64", 64)] {
        let report = run.expect_report(matrix);
        for job in rep0_jobs(report) {
            let _ = writeln!(
                display,
                "  measured {cores} cores at {:.0} Mrps offered: throughput {:.2} Mrps, shared-CQ high water {}",
                job.rate_rps / 1e6,
                job.throughput_rps / 1e6,
                job.dispatcher_high_water
            );
        }
    }
    Artifacts::new(vec![Artifact::json("ablation_dispatcher", &rows, display)])
}

/// The legacy `ablation_preemption` row shape.
#[derive(Serialize)]
struct PreemptionRow {
    policy: String,
    rate_mrps: f64,
    get_p99_us_plain: f64,
    get_p99_us_preempted: f64,
    preemptions: u64,
    improvement: f64,
}

fn build_ablation_preemption(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("ablation_preemption"), params)]
}

fn derive_ablation_preemption(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("ablation_preemption");
    let mut display =
        "=== Extension: Shinjuku-style preemption on Masstree (get-class p99) ===\n\n".to_owned();
    let _ = writeln!(
        display,
        "{:<8} {:>10} {:>16} {:>20} {:>12}",
        "policy", "rate", "plain p99 (us)", "preempted p99 (us)", "improvement"
    );
    // The matrix pairs every plain policy with a shinjuku_5us preempted
    // variant whose key is the plain key plus this exact suffix.
    let shinjuku = PreemptionParams::shinjuku_5us();
    let preempt_suffix = format!(
        "-preempt-q{}-o{}",
        shinjuku.quantum.as_ps(),
        shinjuku.overhead.as_ps()
    );
    let mut rows = Vec::new();
    for plain in &report.jobs {
        if plain.policy_key.contains("-preempt") || plain.replication != 0 {
            continue; // preempted rows are looked up as twins below
        }
        let twin_key = format!("{}{preempt_suffix}", plain.policy_key);
        let pre = report
            .jobs
            .iter()
            .find(|j| {
                j.policy_key == twin_key
                    && j.rate_rps == plain.rate_rps
                    && j.replication == plain.replication
            })
            .expect("every plain policy has a preempted twin in the matrix");
        let improvement = plain.p99_critical_ns / pre.p99_critical_ns.max(1.0);
        let _ = writeln!(
            display,
            "{:<8} {:>8.1}M {:>16.2} {:>20.2} {:>11.2}x",
            plain.policy,
            plain.rate_rps / 1e6,
            plain.p99_critical_ns / 1e3,
            pre.p99_critical_ns / 1e3,
            improvement
        );
        rows.push(PreemptionRow {
            policy: plain.policy.clone(),
            rate_mrps: plain.rate_rps / 1e6,
            get_p99_us_plain: plain.p99_critical_ns / 1e3,
            get_p99_us_preempted: pre.p99_critical_ns / 1e3,
            preemptions: pre.preemptions,
            improvement,
        });
    }
    display.push_str(
        "\n  (5 us quantum, 500 ns preemption cost; scans requeue at the CQ tail.\n   The get SLO is 12.5 us — preemption pulls even 16x1 under it.)\n",
    );
    Artifacts::new(vec![Artifact::json("ablation_preemption", &rows, display)])
}

/// The legacy `ablation_emulated` row shape.
#[derive(Serialize)]
struct EmulatedRow {
    assignment: String,
    slo_mrps: f64,
}

fn build_ablation_emulated(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("ablation_emulated"), params)]
}

fn derive_ablation_emulated(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("ablation_emulated");
    let summaries = report.summaries();
    assert_eq!(summaries.len(), 2, "per-message and per-flow");
    let mut display =
        "=== Ablation: per-flow (emulated messaging) vs per-message 16x1 ===\n\n".to_owned();
    let mut rows = Vec::new();
    // Matrix policy order: plain 16×1 first, then the per-flow variant.
    for (name, summary) in [
        ("per-message (idealized 16x1)", &summaries[0]),
        ("per-flow (emulated messaging)", &summaries[1]),
    ] {
        let tput = summary.throughput_under_slo_rps;
        let _ = writeln!(
            display,
            "  {:<32} SLO throughput = {:.2} Mrps",
            name,
            tput / 1e6
        );
        rows.push(EmulatedRow {
            assignment: name.to_owned(),
            slo_mrps: tput / 1e6,
        });
    }
    display.push_str(
        "\n  (per-flow affinity adds persistent skew: 199 sources never split\n   evenly over 16 cores, so emulated messaging trails even the\n   idealized per-message 16x1 the queueing model assumes)\n",
    );
    Artifacts::new(vec![Artifact::json("ablation_emulated", &rows, display)])
}

/// The legacy `ablation_sensitivity` JSON shape: four sweeps, each
/// answering a "what if the substrate were different" question.
#[derive(Serialize, Default)]
struct Sensitivity {
    /// (S, Mrps, deferrals)
    slots: Vec<(usize, f64, u64)>,
    /// (MTU bytes, p50 latency ns)
    mtu: Vec<(u64, f64)>,
    /// (handoff ns, saturated Mrps)
    mcs_handoff: Vec<(u64, f64)>,
    /// (threshold, Mrps, p99 us)
    threshold: Vec<(u32, f64, f64)>,
}

/// One row of the live-knob sensitivity artifact (new in the scenario
/// migration: the `LivePolicy::Partitioned` group-count and replenish
/// batch-size axes the ROADMAP called for).
#[derive(Serialize)]
struct LiveSensRow {
    policy: String,
    policy_key: String,
    throughput_rps: f64,
    mean_us: f64,
    p99_us: f64,
}

/// The knob grids, shared between the named matrices and the derive
/// step (rows are reconstructed by position).
const SENS_SLOTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SENS_MTUS: [u64; 4] = [64, 256, 1024, 4096];
const SENS_HANDOFFS_NS: [u64; 5] = [30, 60, 90, 150, 250];
const SENS_THRESHOLDS: [u32; 4] = [1, 2, 4, 8];

fn build_ablation_sensitivity(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    // The legacy binary's sizing arithmetic: one base request count,
    // with the light-load MTU sweep at a quarter of it.
    let base = params.effective_requests(120_000);
    vec![
        named("sens_slots").requests(base, base / 10),
        named("sens_mtu").requests(base / 4, base / 40),
        named("sens_mcs").requests(base, base / 10),
        named("sens_threshold").requests(base, base / 10),
        sized(named("sens_live"), params),
    ]
}

/// A report's replication-0 rows, in job order. The parameter-sweep
/// derives reconstruct knob values by position, so higher replications
/// (independent repeats of the same knob point) must not shift the
/// pairing.
fn rep0_jobs(report: &SweepReport) -> Vec<&crate::report::JobRecord> {
    report.jobs.iter().filter(|j| j.replication == 0).collect()
}

/// Assembles the legacy `ablation_sensitivity` artifact from the four
/// sim-sweep reports.
fn sensitivity_artifact(
    slots: &SweepReport,
    mtu: &SweepReport,
    mcs: &SweepReport,
    threshold: &SweepReport,
) -> Artifact {
    let mut out = Sensitivity::default();
    let mut display = "=== Sensitivity studies ===\n\n".to_owned();

    display.push_str("--- send slots per node pair (S), offered 18 Mrps ---\n");
    for (&s, job) in SENS_SLOTS.iter().zip(rep0_jobs(slots)) {
        let _ = writeln!(
            display,
            "  S={s:>3}: throughput {:>6.2} Mrps, deferrals {}",
            job.throughput_rps / 1e6,
            job.flow_control_deferrals
        );
        out.slots
            .push((s, job.throughput_rps / 1e6, job.flow_control_deferrals));
    }

    display.push_str("\n--- MTU, 1 KB requests at light load ---\n");
    for (&m, job) in SENS_MTUS.iter().zip(rep0_jobs(mtu)) {
        let _ = writeln!(
            display,
            "  MTU={m:>5}B: p50 latency {:>7.0} ns",
            job.p50_latency_ns
        );
        out.mtu.push((m, job.p50_latency_ns));
    }

    display.push_str("\n--- MCS handoff latency, software 1x16 at 12 Mrps offered ---\n");
    for (&handoff_ns, job) in SENS_HANDOFFS_NS.iter().zip(rep0_jobs(mcs)) {
        let ceiling = 1e3 / (handoff_ns as f64 + 45.0);
        let _ = writeln!(
            display,
            "  handoff={handoff_ns:>4}ns: throughput {:>6.2} Mrps (1/(handoff+cs) = {ceiling:.2})",
            job.throughput_rps / 1e6
        );
        out.mcs_handoff.push((handoff_ns, job.throughput_rps / 1e6));
    }

    display.push_str("\n--- outstanding-per-core threshold, exp service at 17 Mrps ---\n");
    for (&t, job) in SENS_THRESHOLDS.iter().zip(rep0_jobs(threshold)) {
        let _ = writeln!(
            display,
            "  threshold={t}: throughput {:>6.2} Mrps, p99 {:>6.2} us",
            job.throughput_rps / 1e6,
            job.p99_latency_ns / 1e3
        );
        out.threshold
            .push((t, job.throughput_rps / 1e6, job.p99_latency_ns / 1e3));
    }

    Artifact::json("ablation_sensitivity", &out, display)
}

fn derive_ablation_sensitivity(run: &ScenarioRun) -> Artifacts {
    let mut items = vec![sensitivity_artifact(
        run.expect_report("sens_slots"),
        run.expect_report("sens_mtu"),
        run.expect_report("sens_mcs"),
        run.expect_report("sens_threshold"),
    )];
    if let Some(live) = run.report("sens_live") {
        let mut display =
            "\n--- live knobs: partitioned groups / replenish batch at 85% load ---\n".to_owned();
        let mut rows = Vec::new();
        for job in rep0_jobs(live) {
            let _ = writeln!(
                display,
                "  {:<16} ({:<18}) p99 {:>8.0} us, mean {:>8.0} us",
                job.policy,
                job.policy_key,
                job.p99_latency_ns / 1e3,
                job.mean_latency_ns / 1e3
            );
            rows.push(LiveSensRow {
                policy: job.policy.clone(),
                policy_key: job.policy_key.clone(),
                throughput_rps: job.throughput_rps,
                mean_us: job.mean_latency_ns / 1e3,
                p99_us: job.p99_latency_ns / 1e3,
            });
        }
        items.push(Artifact::json("ablation_sensitivity_live", &rows, display));
    }
    Artifacts::new(items)
}

/// The legacy `latency_breakdown` row shape.
#[derive(Serialize)]
struct BreakdownRow {
    policy: String,
    load_pct: u32,
    reassembly_ns: f64,
    dispatch_ns: f64,
    core_queue_ns: f64,
    processing_ns: f64,
}

fn build_latency_breakdown(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("latency_breakdown"), params)]
}

fn derive_latency_breakdown(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("latency_breakdown");
    let mut display =
        "=== Latency breakdown (mean ns per component, exp-600ns workload) ===\n\n".to_owned();
    let _ = writeln!(
        display,
        "{:<8} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "policy", "load", "reassembly", "dispatch", "core queue", "processing"
    );
    let mut rows = Vec::new();
    for job in rep0_jobs(report) {
        let b = job
            .breakdown()
            .expect("latency_breakdown matrix runs traced");
        let load_pct = (job.rate_rps / 19.5e6 * 100.0).round() as u32;
        let _ = writeln!(
            display,
            "{:<8} {:>5}% {:>12.1} {:>10.1} {:>12.1} {:>12.1}",
            job.policy, load_pct, b.reassembly_ns, b.dispatch_ns, b.core_queue_ns, b.processing_ns
        );
        rows.push(BreakdownRow {
            policy: job.policy.clone(),
            load_pct,
            reassembly_ns: b.reassembly_ns,
            dispatch_ns: b.dispatch_ns,
            core_queue_ns: b.core_queue_ns,
            processing_ns: b.processing_ns,
        });
    }
    display.push_str(
        "\n  (reassembly and dispatch stay at a few ns for every policy;\n   what separates 16x1 is core-side queueing — requests pinned\n   to busy cores — exactly the paper's §2.3 imbalance argument)\n",
    );
    Artifacts::new(vec![Artifact::json("latency_breakdown", &rows, display)])
}

// ---------------------------------------------------------------------
// Live smoke — real loopback serving
// ---------------------------------------------------------------------

fn build_live_smoke(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("live_smoke"), params)]
}

fn derive_live_smoke(run: &ScenarioRun) -> Artifacts {
    let report = run.expect_report("live_smoke");
    let summaries = report.summaries();
    let mut display = "=== Live loopback smoke: measured dispatch disciplines ===\n".to_owned();
    display.push_str(&render_summaries(&summaries, "us", 1e3));
    Artifacts::new(vec![Artifact::json("live_smoke", &summaries, display)])
}

// ---------------------------------------------------------------------
// Live cluster serving tier — migration / churn / drain
// ---------------------------------------------------------------------

/// One policy's outcome in a cluster scenario, including the redirect
/// frames the balancer absorbed (the `flow_control_deferrals` column —
/// arrivals the tier made the client re-route).
#[derive(Serialize)]
struct ClusterRow {
    policy: String,
    policy_key: String,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    load_balance_jain: f64,
    redirect_frames: u64,
}

fn build_live_cluster(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("live_cluster"), params)]
}

fn build_live_churn(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("live_churn"), params)]
}

fn build_live_drain(params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    vec![sized(named("live_drain"), params)]
}

fn derive_live_cluster(run: &ScenarioRun) -> Artifacts {
    cluster_artifact(
        run,
        "live_cluster",
        "3 nodes, every flow reassigned by a mid-run directory migration",
    )
}

fn derive_live_churn(run: &ScenarioRun) -> Artifacts {
    cluster_artifact(
        run,
        "live_churn",
        "2 nodes, half the flows severed twice mid-run (reconnect storm)",
    )
}

fn derive_live_drain(run: &ScenarioRun) -> Artifacts {
    cluster_artifact(
        run,
        "live_drain",
        "3 nodes, one drained + restarted + rejoined mid-run",
    )
}

/// The shared cluster-scenario artifact: per-policy rows plus the
/// paper's p99 ordering (single <= partitioned <= RSS), *reported* per
/// failure mode rather than asserted — these are wall-clock runs, so
/// the ordering is evidence, not a determinism contract. Zero-lost, by
/// contrast, was already asserted inside each job; reaching this derive
/// step means every request was accounted for.
fn cluster_artifact(run: &ScenarioRun, name: &str, what: &str) -> Artifacts {
    let report = run.expect_report(name);
    let jobs = rep0_jobs(report);
    let mut display = format!("=== Live cluster ({what}) ===\n\n");
    let mut rows = Vec::new();
    for job in &jobs {
        let _ = writeln!(
            display,
            "  {:<16} ({:<24}) p50 {:>7.0} us, p99 {:>7.0} us, {:>6.0} rps, jain {:.3}, {} redirect(s)",
            job.policy,
            job.policy_key,
            job.p50_latency_ns / 1e3,
            job.p99_latency_ns / 1e3,
            job.throughput_rps,
            job.load_balance_jain,
            job.flow_control_deferrals,
        );
        rows.push(ClusterRow {
            policy: job.policy.clone(),
            policy_key: job.policy_key.clone(),
            throughput_rps: job.throughput_rps,
            p50_us: job.p50_latency_ns / 1e3,
            p99_us: job.p99_latency_ns / 1e3,
            load_balance_jain: job.load_balance_jain,
            redirect_frames: job.flow_control_deferrals,
        });
    }
    let p99_of = |prefix: &str| {
        jobs.iter()
            .find(|j| j.policy_key.starts_with(prefix))
            .map(|j| j.p99_latency_ns)
    };
    if let (Some(single), Some(part), Some(rss)) = (
        p99_of("live-single"),
        p99_of("live-part"),
        p99_of("live-rss"),
    ) {
        // 10 % slack, as in the loopback tests: one scheduling hiccup
        // can swing a wall-clock tail without changing the regime.
        let holds = single <= part * 1.1 && part <= rss * 1.1;
        let _ = writeln!(
            display,
            "\n  p99 ordering: single {:.0} us <= partitioned {:.0} us <= rss {:.0} us -> {}",
            single / 1e3,
            part / 1e3,
            rss / 1e3,
            if holds {
                "holds (the paper's single <= partitioned <= RSS survives this failure mode)"
            } else {
                "inverted this run (wall-clock noise; the ordering is reported, not asserted)"
            }
        );
    }
    display.push_str(
        "  (each job asserted completed + redirected + rejected == issued with zero lost)\n",
    );
    Artifacts::new(vec![Artifact::json(name, &rows, display)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = CATALOG.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len(), "duplicate scenario names");
        assert!(find_scenario("fig8").is_some());
        assert!(find_scenario("nope").is_none());
    }

    #[test]
    fn builds_expand_without_running() {
        // Every non-derived scenario must build non-empty matrices, and
        // quick builds must stay quick (fig9's build runs its S̄
        // calibration sims, so this also exercises that path).
        let quick = ScenarioParams::quick();
        for scenario in catalog() {
            let matrices = crate::scenario::build_matrices(scenario, &quick);
            if scenario.kind == "derived" {
                assert!(matrices.is_empty(), "{}", scenario.name);
            } else {
                assert!(!matrices.is_empty(), "{}", scenario.name);
                for m in &matrices {
                    assert_eq!(m.scenario, scenario.name);
                    assert!(!m.jobs().is_empty(), "{}/{}", scenario.name, m.name);
                }
            }
        }
    }

    #[test]
    fn part_filter_prunes_matrices() {
        let only_b = ScenarioParams {
            part: Some("b".to_owned()),
            quick: true,
            ..ScenarioParams::default()
        };
        let matrices = (find_scenario("fig2").unwrap().build)(&only_b);
        assert_eq!(matrices.len(), 1);
        assert_eq!(matrices[0].name, "fig2b");
    }

    #[test]
    fn table1_renders_byte_stable() {
        let a = render_table1(&ChipParams::table1());
        let b = render_table1(&ChipParams::table1());
        assert_eq!(a, b);
        assert!(a.starts_with("=== Table 1: simulation parameters ==="));
        assert!(a.contains("backend 3 -> dispatcher"));
    }

    #[test]
    fn registry_is_healthy() {
        // Every paper figure, Table 1, and all the ablations
        // (`REQUIRED_SCENARIOS`) are registered, each under one name.
        let problems = registry_problems();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn readme_catalog_is_in_sync() {
        // The README embeds the generated catalog table verbatim; CI
        // regenerates and diffs it, and this test catches the drift
        // locally first. Regenerate with `harness list --readme`.
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
        let table = readme_catalog_table();
        assert!(
            readme.contains(&table),
            "README 'Experiment catalog' table is stale; paste the output of \
             `harness list --readme` into README.md"
        );
    }

    #[test]
    fn sensitivity_grids_match_their_matrices() {
        assert_eq!(named("sens_slots").policies.len(), SENS_SLOTS.len());
        assert_eq!(named("sens_mtu").policies.len(), SENS_MTUS.len());
        assert_eq!(named("sens_mcs").policies.len(), SENS_HANDOFFS_NS.len());
        assert_eq!(named("sens_threshold").policies.len(), SENS_THRESHOLDS.len());
    }
}
