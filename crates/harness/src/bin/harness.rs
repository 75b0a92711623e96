//! `harness` — the unified CLI for every experiment in the repo.
//!
//! ```text
//! harness run --scenario fig8 --quick
//! harness run --scenario ablation_sensitivity --threads 4
//! harness run --scenario fig2 --part a --out-dir /tmp/reports
//! harness run --scenario fig8 --requests 20000 --baseline prev_fig8.json
//! harness run --matrix fig7a --threads 8 --out results.json   # low-level escape hatch
//! harness run --matrix fig8 --timeseries fig8.series          # windowed telemetry
//! harness bench --scenario fig8 --check            # gate vs BENCH/fig8.json
//! harness bench --scenario fig8 --record           # append a trajectory entry
//! harness trace --capture --matrix live_smoke --out live.trace
//! harness trace --summarize live.trace             # per-hop latency anatomy
//! harness trace --diff sim.trace live.trace        # sim vs live divergence
//! harness trace --replay live.trace --trace-out sim.trace
//! harness plot --scenario fig8                     # SVG/text charts
//! harness plot --series fig8.series                # occupancy heatmap, windowed p99
//! harness watch --scenario live_smoke --quick      # loopback run + live dashboard
//! harness watch --addr 127.0.0.1:7117              # watch a running valetd
//! harness list
//! harness list --json | --names | --readme | --check
//! ```
//!
//! `run --scenario` executes a registry entry ([`harness::catalog`]):
//! every matrix runs on the worker pool, per-matrix [`SweepReport`]s and
//! timing sidecars land in `--out-dir` (default: the working directory,
//! resumable like `--matrix` runs), and the scenario's typed derive step
//! renders its artifacts — the figure tables on stdout and the
//! machine-readable files under `target/figures/` (override with
//! `--figures-dir`), byte-identical to what the legacy figure binaries
//! wrote.
//!
//! `run --matrix` is the low-level path: one predefined matrix, one
//! report, no derived artifacts (see [`ScenarioMatrix::named`]).
//!
//! Shared flags: `--threads <n>` (default: all cores), `--quick` (8×
//! fewer requests), `--seed <n>`, `--requests <n>`, `--replications
//! <n>`, `--baseline <path>` + `--tolerance <pct>` (default 5; scenario
//! runs accept it only for single-matrix scenarios), `--fresh` (ignore
//! existing reports instead of resuming). Scenario-only: `--part
//! a|b|c`, `--out-dir <dir>`, `--figures-dir <dir>`. Matrix-only: `--out
//! <path>`, `--trace <n>`, and `--timeseries <path>` (+
//! `--series-window-us <n>`, default 100) — a windowed-telemetry
//! capture alongside the byte-identical report.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{
    default_threads, diff_reports, run_matrix_resumed, Scenario, ScenarioMatrix, ScenarioParams,
    ScenarioRun, SweepReport, SweepTiming, TrajectoryStore,
};

#[derive(Debug)]
struct RunArgs {
    scenario: Option<String>,
    matrix: Option<String>,
    threads: usize,
    out: Option<String>,
    out_dir: Option<String>,
    figures_dir: Option<String>,
    part: Option<String>,
    quick: bool,
    seed: Option<u64>,
    requests: Option<u64>,
    replications: Option<usize>,
    baseline: Option<String>,
    tolerance_pct: f64,
    fresh: bool,
    trace: Option<usize>,
    timeseries: Option<String>,
    series_window_us: u64,
}

fn parse_run_args(mut it: std::env::Args) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        scenario: None,
        matrix: None,
        threads: default_threads(),
        out: None,
        out_dir: None,
        figures_dir: None,
        part: None,
        quick: false,
        seed: None,
        requests: None,
        replications: None,
        baseline: None,
        tolerance_pct: 5.0,
        fresh: false,
        trace: None,
        timeseries: None,
        series_window_us: 100,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--matrix" => args.matrix = Some(value("--matrix")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--out-dir" => args.out_dir = Some(value("--out-dir")?),
            "--figures-dir" => args.figures_dir = Some(value("--figures-dir")?),
            "--part" => args.part = Some(value("--part")?),
            "--quick" => args.quick = true,
            "--fresh" => args.fresh = true,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?,
                );
            }
            "--requests" => {
                let requests: u64 = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad requests: {e}"))?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
                args.requests = Some(requests);
            }
            "--replications" => {
                let replications: usize = value("--replications")?
                    .parse()
                    .map_err(|e| format!("bad replications: {e}"))?;
                if replications == 0 {
                    return Err("--replications must be at least 1".to_owned());
                }
                args.replications = Some(replications);
            }
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--trace" => {
                args.trace = Some(
                    value("--trace")?
                        .parse()
                        .map_err(|e| format!("bad trace capacity: {e}"))?,
                );
            }
            "--tolerance" => {
                args.tolerance_pct = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?;
                if args.tolerance_pct < 0.0 {
                    return Err("--tolerance must be non-negative".to_owned());
                }
            }
            "--timeseries" => args.timeseries = Some(value("--timeseries")?),
            "--series-window-us" => {
                args.series_window_us = value("--series-window-us")?
                    .parse()
                    .map_err(|e| format!("bad window length: {e}"))?;
                if args.series_window_us == 0 {
                    return Err("--series-window-us must be at least 1".to_owned());
                }
            }
            other => return Err(format!("unknown flag `{other}` for run")),
        }
    }
    match (&args.scenario, &args.matrix) {
        (None, None) => {
            return Err(
                "run needs --scenario <name> (see `harness list`) or --matrix <name>".to_owned(),
            )
        }
        (Some(_), Some(_)) => {
            return Err("--scenario and --matrix are mutually exclusive".to_owned())
        }
        _ => {}
    }
    // Reject flags that the selected mode would silently ignore.
    if args.scenario.is_some() && args.out.is_some() {
        return Err("--out applies to --matrix runs; scenario reports go to --out-dir".to_owned());
    }
    if args.scenario.is_some() && args.trace.is_some() {
        return Err(
            "--trace applies to --matrix runs (scenario matrices bake their own trace \
             capacities, e.g. latency_breakdown)"
                .to_owned(),
        );
    }
    if args.scenario.is_some() && args.timeseries.is_some() {
        return Err("--timeseries applies to --matrix runs".to_owned());
    }
    if args.timeseries.is_none() && args.series_window_us != 100 {
        return Err("--series-window-us applies with --timeseries".to_owned());
    }
    if args.matrix.is_some() {
        for (set, flag) in [
            (args.out_dir.is_some(), "--out-dir"),
            (args.figures_dir.is_some(), "--figures-dir"),
            (args.part.is_some(), "--part"),
        ] {
            if set {
                return Err(format!("{flag} applies to --scenario runs, not --matrix"));
            }
        }
    }
    Ok(args)
}

/// A catalog row for `list --json` (and the README's experiment
/// catalog, which is generated from it).
#[derive(serde::Serialize)]
struct CatalogRow {
    name: &'static str,
    kind: &'static str,
    paper: &'static str,
    summary: &'static str,
    quick_runtime: &'static str,
}

/// `harness list` output mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListMode {
    /// Human-readable catalog + matrix list.
    Table,
    /// Machine-readable catalog rows.
    Json,
    /// One scenario name per line (CI loops over this).
    Names,
    /// The README "Experiment catalog" markdown table.
    Readme,
    /// Registry health check: non-zero exit when a required scenario is
    /// missing or a name is duplicated.
    Check,
}

fn cmd_list(mode: ListMode) -> bool {
    match mode {
        ListMode::Names => {
            for s in harness::catalog() {
                println!("{}", s.name);
            }
            return true;
        }
        ListMode::Readme => {
            print!("{}", harness::readme_catalog_table());
            return true;
        }
        ListMode::Check => {
            let problems = harness::registry_problems();
            if problems.is_empty() {
                let names: Vec<&str> = harness::catalog().iter().map(|s| s.name).collect();
                println!(
                    "registry OK: {} scenarios cover all {} required ({})",
                    names.len(),
                    harness::REQUIRED_SCENARIOS.len(),
                    names.join(", ")
                );
                return true;
            }
            for problem in &problems {
                eprintln!("registry problem: {problem}");
            }
            return false;
        }
        ListMode::Table | ListMode::Json => {}
    }
    let json = mode == ListMode::Json;
    if json {
        let rows: Vec<CatalogRow> = harness::catalog()
            .iter()
            .map(|s| CatalogRow {
                name: s.name,
                kind: s.kind,
                paper: s.paper,
                summary: s.summary,
                quick_runtime: s.quick_runtime,
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("catalog serializes")
        );
        return true;
    }
    println!("scenarios (run with `harness run --scenario <name>`):");
    for s in harness::catalog() {
        println!(
            "  {:<22} {:<9} {:<10} quick {:<6} {}",
            s.name, s.kind, s.paper, s.quick_runtime, s.summary
        );
    }
    println!("\nlow-level matrices (run with `harness run --matrix <name>`):");
    for name in ScenarioMatrix::known_names() {
        let m = ScenarioMatrix::named(name).expect("known name resolves");
        println!(
            "  {:<22} {:>4} jobs x {} requests (seed {})",
            name,
            m.jobs().len(),
            m.requests,
            m.master_seed
        );
    }
    true
}

fn print_summaries(report: &SweepReport) {
    for summary in report.summaries() {
        println!(
            "\n  [{} / {}] S = {:.0} ns, throughput under SLO = {:.2} Mrps",
            summary.workload,
            summary.policy,
            summary.mean_service_ns,
            summary.throughput_under_slo_rps / 1e6
        );
        let with_ci = !summary.ci95.is_empty();
        if with_ci {
            println!(
                "    {:>14} {:>14} {:>12} {:>14} {:>12}",
                "offered (Mrps)", "tput (Mrps)", "p99 (us)", "p99 ci95 (us)", "mean (us)"
            );
        } else {
            println!(
                "    {:>14} {:>14} {:>12} {:>12}",
                "offered (Mrps)", "tput (Mrps)", "p99 (us)", "mean (us)"
            );
        }
        for (i, p) in summary.curve.points.iter().enumerate() {
            if with_ci {
                println!(
                    "    {:>14.3} {:>14.3} {:>12.3} {:>14} {:>12.3}",
                    p.offered_load / 1e6,
                    p.throughput_rps / 1e6,
                    p.p99_latency_ns / 1e3,
                    format!("+-{:.3}", summary.ci95[i].p99_ci95_ns / 1e3),
                    p.mean_latency_ns / 1e3
                );
            } else {
                println!(
                    "    {:>14.3} {:>14.3} {:>12.3} {:>12.3}",
                    p.offered_load / 1e6,
                    p.throughput_rps / 1e6,
                    p.p99_latency_ns / 1e3,
                    p.mean_latency_ns / 1e3
                );
            }
        }
    }
}

fn read_report(path: &str, what: &str) -> Result<SweepReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {what} {path}: {e}"))?;
    SweepReport::from_json(&text).map_err(|e| {
        format!(
            "parse {what} {path}: {e} (pre-v{} reports cannot be read by this binary; \
             re-run the matrix to regenerate the file — job seeds are stable, so the \
             regenerated measurements are bit-identical)",
            harness::REPORT_VERSION
        )
    })
}

/// Runs one matrix with resume-from-`out_path` semantics (shared by the
/// scenario and matrix paths), writing the report and timing sidecar.
fn run_one_matrix(
    matrix: &ScenarioMatrix,
    threads: usize,
    out_path: &Path,
    fresh: bool,
) -> Result<(SweepReport, SweepTiming), String> {
    let out = out_path.display().to_string();
    let existing = if !fresh && out_path.exists() {
        Some(read_report(&out, "existing report").map_err(|e| {
            format!("{e} (older report formats cannot seed a resume; use --fresh to discard)")
        })?)
    } else {
        None
    };
    let jobs = matrix.jobs().len();
    let (report, timing) = match existing {
        Some(existing) => {
            let (report, timing, reused) = run_matrix_resumed(matrix, threads, &existing)
                .map_err(|e| format!("cannot resume from {out}: {e} (use --fresh to discard)"))?;
            println!("[resumed: {reused}/{jobs} jobs reused from {out}]");
            (report, timing)
        }
        None => harness::run_matrix(matrix, threads),
    };
    std::fs::write(out_path, report.to_json_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    let timing_path = format!("{out}.timing.json");
    let timing_json =
        serde_json::to_string_pretty(&timing).map_err(|e| format!("timing serializes: {e}"))?;
    std::fs::write(&timing_path, timing_json)
        .map_err(|e| format!("write {timing_path}: {e}"))?;
    Ok((report, timing))
}

/// Diffs a fresh report against a stored baseline; returns whether the
/// diff is clean.
fn check_baseline(
    baseline_path: &str,
    baseline: &SweepReport,
    report: &SweepReport,
    tolerance_pct: f64,
) -> bool {
    let diff = diff_reports(baseline, report, tolerance_pct);
    println!(
        "\nbaseline {}: {} groups, {} load points compared at {:.1}% tolerance",
        baseline_path, diff.groups_compared, diff.points_compared, tolerance_pct
    );
    if diff.clean() {
        println!("  no regressions");
        true
    } else {
        for regression in &diff.regressions {
            println!("  REGRESSION {}", regression.describe());
        }
        false
    }
}

fn cmd_run_scenario(scenario: &Scenario, args: &RunArgs) -> Result<bool, String> {
    let params = ScenarioParams {
        quick: args.quick,
        part: args.part.clone(),
        requests: args.requests,
        seed: args.seed,
        replications: args.replications,
    };
    harness::validate_part(scenario, &params)?;
    let matrices = harness::build_matrices(scenario, &params);
    if matrices.is_empty() && scenario.kind != "derived" {
        return Err(format!(
            "scenario `{}` expanded to no matrices — nothing would run",
            scenario.name
        ));
    }
    println!(
        "scenario {} ({}): {} matrix(es), kind {}",
        scenario.name,
        scenario.paper,
        matrices.len(),
        scenario.kind
    );

    // Load the baseline before the (potentially long) sweep so a bad
    // path or stale-format file fails in milliseconds, not afterwards.
    let baseline = match (&args.baseline, matrices.len()) {
        (Some(_), n) if n != 1 => {
            return Err(format!(
                "--baseline needs a single-matrix scenario ({} has {n}); diff per matrix with --matrix",
                scenario.name
            ))
        }
        (Some(path), _) => Some((path.clone(), read_report(path, "baseline")?)),
        (None, _) => None,
    };

    let out_dir = PathBuf::from(args.out_dir.as_deref().unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let mut reports = Vec::with_capacity(matrices.len());
    let mut timings = Vec::with_capacity(matrices.len());
    for matrix in &matrices {
        println!(
            "  matrix {}: {} jobs x {} requests (seed {})",
            matrix.name,
            matrix.jobs().len(),
            matrix.requests,
            matrix.master_seed
        );
        let out_path = out_dir.join(format!("{}.json", matrix.name));
        let (report, timing) = run_one_matrix(matrix, args.threads, &out_path, args.fresh)?;
        println!("  {}", timing.summary_line());
        reports.push(report);
        timings.push(timing);
    }

    let run = ScenarioRun {
        params,
        reports,
        timings,
    };
    let artifacts = (scenario.derive)(&run);
    artifacts.print();

    let figures_dir = args
        .figures_dir
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(harness::figures_dir);
    let written = artifacts
        .write_all(&figures_dir)
        .map_err(|e| format!("write artifacts to {}: {e}", figures_dir.display()))?;
    for path in &written {
        println!("[wrote {}]", path.display());
    }

    let mut clean = true;
    if let Some((baseline_path, baseline)) = &baseline {
        clean = check_baseline(baseline_path, baseline, &run.reports[0], args.tolerance_pct);
    }
    Ok(clean)
}

fn cmd_run_matrix(name: &str, args: &RunArgs) -> Result<bool, String> {
    let mut matrix = ScenarioMatrix::named(name).ok_or_else(|| {
        format!(
            "unknown matrix `{name}` (known: {})",
            ScenarioMatrix::known_names().join(", ")
        )
    })?;
    if args.quick {
        matrix = matrix.quick();
    }
    if let Some(seed) = args.seed {
        matrix.master_seed = seed;
    }
    if let Some(requests) = args.requests {
        matrix.requests = requests;
        matrix.warmup = requests / 10;
    }
    if let Some(replications) = args.replications {
        matrix = matrix.replications(replications);
    }
    if let Some(capacity) = args.trace {
        // Per-request timeline traces for the first `capacity` measured
        // requests of every sim job (fills the report's breakdown
        // column). Traced sim runs keep monotone message ids — no slab
        // slot recycling — so peak simulator memory grows with
        // `--requests`; see `rpcvalet::SystemConfig::trace_capacity`.
        matrix = matrix.trace(capacity);
    }
    let jobs = matrix.jobs().len();
    // Live matrices serialize onto one worker (concurrent loopback
    // servers would contend for the machine); run_matrix re-derives the
    // same clamp internally.
    let threads =
        harness::effective_threads(harness::threads_for_jobs(&matrix.jobs(), args.threads), jobs);
    println!(
        "matrix {}: {} jobs x {} requests on {} threads (seed {})",
        matrix.name, jobs, matrix.requests, threads, matrix.master_seed
    );

    let baseline = args
        .baseline
        .as_ref()
        .map(|path| read_report(path, "baseline").map(|report| (path.clone(), report)))
        .transpose()?;

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.json", matrix.name));
    let (report, timing) = if let Some(series_path) = &args.timeseries {
        // Series capture is always a fresh full run (a resumed job has
        // no windows to contribute); the report it also writes is
        // byte-identical to an unwindowed run's.
        let interval_ps = args.series_window_us * 1_000_000;
        let (report, timing, series) =
            harness::run_matrix_series(&matrix, args.threads, interval_ps);
        std::fs::write(&out, report.to_json_pretty()).map_err(|e| format!("write {out}: {e}"))?;
        let timing_path = format!("{out}.timing.json");
        let timing_json = serde_json::to_string_pretty(&timing)
            .map_err(|e| format!("timing serializes: {e}"))?;
        std::fs::write(&timing_path, timing_json)
            .map_err(|e| format!("write {timing_path}: {e}"))?;
        let live = matrix.jobs().iter().any(|j| j.kind() == harness::JobKind::Live);
        let meta = if live {
            telemetry::SeriesMeta::live(&matrix.name, interval_ps, series.len() as u64)
        } else {
            telemetry::SeriesMeta::sim(&matrix.name, interval_ps, series.len() as u64)
        };
        let digest = telemetry::write_series_store(Path::new(series_path), &meta, &series)
            .map_err(|e| format!("write {series_path}: {e}"))?;
        println!(
            "[wrote {series_path} ({} job series at {} us/window, digest {digest})]",
            series.len(),
            args.series_window_us
        );
        (report, timing)
    } else {
        run_one_matrix(&matrix, args.threads, Path::new(&out), args.fresh)?
    };
    print_summaries(&report);
    println!("\n  {}", timing.summary_line());
    println!("\n[wrote {out}]");
    println!("[wrote {out}.timing.json]");

    let mut clean = true;
    if let Some((baseline_path, baseline)) = &baseline {
        clean = check_baseline(baseline_path, baseline, &report, args.tolerance_pct);
    }
    Ok(clean)
}

fn cmd_run(it: std::env::Args) -> Result<bool, String> {
    let args = parse_run_args(it)?;
    if let Some(name) = &args.scenario {
        let scenario = harness::find_scenario(name).ok_or_else(|| {
            format!(
                "unknown scenario `{name}` (known: {})",
                harness::catalog()
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        cmd_run_scenario(scenario, &args)
    } else {
        let name = args.matrix.clone().expect("checked by parse_run_args");
        cmd_run_matrix(&name, &args)
    }
}

#[derive(Debug, Default)]
struct BenchArgs {
    scenario: Option<String>,
    record: bool,
    check: bool,
    store: Option<String>,
    tolerance_pct: Option<f64>,
    threads: Option<usize>,
    commit: Option<String>,
    quick: bool,
    requests: Option<u64>,
}

fn parse_bench_args(mut it: std::env::Args) -> Result<BenchArgs, String> {
    let mut args = BenchArgs::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--record" => args.record = true,
            "--check" => args.check = true,
            "--store" => args.store = Some(value("--store")?),
            "--commit" => args.commit = Some(value("--commit")?),
            "--quick" => args.quick = true,
            "--tolerance" => {
                let pct: f64 = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?;
                if pct < 0.0 {
                    return Err("--tolerance must be non-negative".to_owned());
                }
                args.tolerance_pct = Some(pct);
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--requests" => {
                let requests: u64 = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad requests: {e}"))?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
                args.requests = Some(requests);
            }
            other => return Err(format!("unknown flag `{other}` for bench")),
        }
    }
    if args.scenario.is_none() {
        return Err("bench needs --scenario <name>".to_owned());
    }
    if args.record == args.check {
        return Err("bench needs exactly one of --record | --check".to_owned());
    }
    // --check replays the recorded entry's exact parameters; run-shape
    // flags would be silently ignored, so reject them loudly.
    if args.check {
        for (set, flag) in [
            (args.quick, "--quick"),
            (args.requests.is_some(), "--requests"),
        ] {
            if set {
                return Err(format!(
                    "{flag} applies to --record (a --check replays the recorded entry's \
                     parameters)"
                ));
            }
        }
    }
    Ok(args)
}

/// `harness bench`: record or gate a scenario's benchmark-trajectory
/// entry.
fn cmd_bench(it: std::env::Args) -> Result<bool, String> {
    let args = parse_bench_args(it)?;
    let commit = args
        .commit
        .clone()
        .unwrap_or_else(harness::trajectory::current_commit);

    let name = args.scenario.as_deref().expect("checked by parser");
    let scenario = harness::find_scenario(name)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `harness list`)"))?;
    let store_path = args
        .store
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| TrajectoryStore::default_path(name));
    let threads = args.threads.unwrap_or_else(default_threads);

    if args.check {
        let store = TrajectoryStore::load(&store_path).map_err(|e| {
            format!("{e} (no trajectory recorded yet? `harness bench --scenario {name} --record`)")
        })?;
        if store.scenario != name {
            return Err(format!(
                "{} records scenario `{}`, not `{name}`",
                store_path.display(),
                store.scenario
            ));
        }
        let baseline = store
            .latest()
            .ok_or_else(|| format!("{} has no entries", store_path.display()))?;
        let params = harness::params_for_entry(baseline);
        println!(
            "bench check {name}: replaying entry from commit {} ({} jobs, requests {})",
            baseline.commit,
            baseline.jobs,
            if baseline.requests > 0 {
                baseline.requests.to_string()
            } else {
                "default".to_owned()
            }
        );
        let (run, _) = harness::run_scenario(scenario, &params, threads);
        let current =
            harness::entry_from_run(name, &params, &run.reports, &run.timings, &commit);
        let outcome = harness::check_entry(baseline, &current, args.tolerance_pct);
        print!("{}", outcome.render());
        Ok(outcome.clean())
    } else {
        let params = ScenarioParams {
            quick: args.quick,
            part: None,
            requests: args.requests,
            seed: None,
            replications: None,
        };
        let (run, _) = harness::run_scenario(scenario, &params, threads);
        let entry = harness::entry_from_run(name, &params, &run.reports, &run.timings, &commit);
        println!(
            "bench record {name} @ {commit}: {} jobs, digest {}, {:.2} Mevents/s",
            entry.jobs,
            if entry.measurement_digest.is_empty() {
                "-"
            } else {
                &entry.measurement_digest
            },
            entry.sidecar.events_per_sec / 1e6
        );
        let entries = harness::trajectory::record_into_store(&store_path, name, entry)?;
        println!("[recorded entry {entries} in {}]", store_path.display());
        Ok(true)
    }
}

#[derive(Debug, Default)]
struct TraceArgs {
    capture: bool,
    matrix: Option<String>,
    out: Option<String>,
    report: Option<String>,
    events: usize,
    threads: Option<usize>,
    quick: bool,
    seed: Option<u64>,
    requests: Option<u64>,
    summarize: Option<String>,
    diff: Option<(String, String)>,
    replay: Option<String>,
    policy: String,
    trace_out: Option<String>,
}

fn parse_trace_args(mut it: std::env::Args) -> Result<TraceArgs, String> {
    let mut args = TraceArgs {
        events: 5_000,
        policy: "single".to_owned(),
        ..TraceArgs::default()
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--capture" => args.capture = true,
            "--matrix" => args.matrix = Some(value("--matrix")?),
            "--out" => args.out = Some(value("--out")?),
            "--report" => args.report = Some(value("--report")?),
            "--events" => {
                args.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("bad event count: {e}"))?;
                if args.events == 0 {
                    return Err("--events must be at least 1".to_owned());
                }
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?,
                );
            }
            "--requests" => {
                let requests: u64 = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad requests: {e}"))?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
                args.requests = Some(requests);
            }
            "--summarize" => args.summarize = Some(value("--summarize")?),
            "--diff" => {
                let a = value("--diff (first store)")?;
                let b = value("--diff (second store)")?;
                args.diff = Some((a, b));
            }
            "--replay" => args.replay = Some(value("--replay")?),
            "--policy" => args.policy = value("--policy")?,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown flag `{other}` for trace")),
        }
    }
    let modes = [
        args.capture,
        args.summarize.is_some(),
        args.diff.is_some(),
        args.replay.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err(
            "trace needs exactly one of --capture | --summarize <store> | --diff <a> <b> | \
             --replay <store>"
                .to_owned(),
        );
    }
    if args.capture {
        if args.matrix.is_none() || args.out.is_none() {
            return Err("--capture needs --matrix <name> and --out <store>".to_owned());
        }
    } else {
        for (set, flag) in [
            (args.matrix.is_some(), "--matrix"),
            (args.out.is_some(), "--out"),
            (args.report.is_some(), "--report"),
            (args.quick, "--quick"),
            (args.seed.is_some(), "--seed"),
            (args.requests.is_some(), "--requests"),
        ] {
            if set {
                return Err(format!("{flag} applies to --capture"));
            }
        }
    }
    if args.replay.is_none() && args.trace_out.is_some() {
        return Err("--trace-out applies to --replay".to_owned());
    }
    Ok(args)
}

fn parse_replay_policy(name: &str) -> Result<rpcvalet::Policy, String> {
    match name {
        "single" => Ok(rpcvalet::Policy::hw_single_queue()),
        "partitioned" => Ok(rpcvalet::Policy::hw_partitioned()),
        "static" => Ok(rpcvalet::Policy::hw_static()),
        other => Err(format!(
            "unknown replay policy `{other}` (single | partitioned | static)"
        )),
    }
}

/// `harness trace`: capture a matrix's request-lifecycle trace into a
/// sealed store, summarize a store's per-hop anatomy, diff two stores
/// (the sim↔live divergence report), or replay a recorded arrival trace
/// through the simulator.
fn cmd_trace(it: std::env::Args) -> Result<bool, String> {
    let args = parse_trace_args(it)?;

    if let Some(path) = &args.summarize {
        print!("{}", harness::summarize_store(Path::new(path))?);
        return Ok(true);
    }

    if let Some((a, b)) = &args.diff {
        print!("{}", harness::diff_stores(Path::new(a), Path::new(b))?);
        return Ok(true);
    }

    if let Some(path) = &args.replay {
        let policy = parse_replay_policy(&args.policy)?;
        let trace_out = args.trace_out.as_ref().map(PathBuf::from);
        let outcome = harness::replay_store(Path::new(path), policy, trace_out.as_deref())?;
        let m = &outcome.measurement;
        println!(
            "replayed {} recorded request(s) through the simulator ({} incomplete skipped)",
            outcome.replayed, outcome.incomplete
        );
        println!(
            "  policy {}: implied rate {:.3} Mrps, throughput {:.3} Mrps",
            m.label,
            outcome.implied_rate_rps / 1e6,
            m.throughput_rps / 1e6
        );
        println!(
            "  latency p50 {:.3} us, p99 {:.3} us, mean {:.3} us over {} measured",
            m.p50_latency_ns / 1e3,
            m.p99_latency_ns / 1e3,
            m.mean_latency_ns / 1e3,
            m.measured
        );
        if let (Some(out), Some(digest)) = (&trace_out, &outcome.trace_digest) {
            println!("[wrote {} (digest {digest})]", out.display());
        }
        return Ok(true);
    }

    // --capture
    let name = args.matrix.as_deref().expect("checked by parser");
    let mut matrix = ScenarioMatrix::named(name).ok_or_else(|| {
        format!(
            "unknown matrix `{name}` (known: {})",
            ScenarioMatrix::known_names().join(", ")
        )
    })?;
    if args.quick {
        matrix = matrix.quick();
    }
    if let Some(seed) = args.seed {
        matrix.master_seed = seed;
    }
    if let Some(requests) = args.requests {
        matrix.requests = requests;
        matrix.warmup = requests / 10;
    }
    let threads = args.threads.unwrap_or_else(default_threads);
    let out = PathBuf::from(args.out.as_deref().expect("checked by parser"));
    println!(
        "trace capture {}: {} jobs x {} requests, first {} request(s) per job",
        matrix.name,
        matrix.jobs().len(),
        matrix.requests,
        args.events
    );
    let captured = harness::capture_matrix(&matrix, threads, args.events, &out)
        .map_err(|e| format!("capture {}: {e}", out.display()))?;
    println!("  {}", captured.timing.summary_line());
    println!(
        "[wrote {} ({} events, {} dropped, digest {})]",
        out.display(),
        captured.events,
        captured.dropped,
        captured.digest
    );
    if captured.dropped > 0 {
        eprintln!(
            "WARNING: {} trace event(s) were dropped (ring overflow) — the capture's hop \
             coverage is incomplete, so per-hop summaries and sim<->live diffs over this \
             store undercount. Re-capture with fewer jobs, fewer --events, or a lighter \
             load point.",
            captured.dropped
        );
    }
    if let Some(report_path) = &args.report {
        std::fs::write(report_path, captured.report.to_json_pretty())
            .map_err(|e| format!("write {report_path}: {e}"))?;
        println!("[wrote {report_path}]");
    }
    Ok(true)
}

#[derive(Debug, Default)]
struct PlotArgs {
    scenario: Option<String>,
    out_dir: Option<String>,
    figures_dir: Option<String>,
    store: Option<String>,
    series: Option<String>,
}

fn parse_plot_args(mut it: std::env::Args) -> Result<PlotArgs, String> {
    let mut args = PlotArgs::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--out-dir" => args.out_dir = Some(value("--out-dir")?),
            "--figures-dir" => args.figures_dir = Some(value("--figures-dir")?),
            "--store" => args.store = Some(value("--store")?),
            "--series" => args.series = Some(value("--series")?),
            other => return Err(format!("unknown flag `{other}` for plot")),
        }
    }
    match (&args.scenario, &args.series) {
        (None, None) => {
            return Err("plot needs --scenario <name> or --series <store>".to_owned())
        }
        (Some(_), Some(_)) => {
            return Err("--scenario and --series are mutually exclusive".to_owned())
        }
        _ => {}
    }
    if args.series.is_some() {
        for (set, flag) in [
            (args.out_dir.is_some(), "--out-dir"),
            (args.store.is_some(), "--store"),
        ] {
            if set {
                return Err(format!("{flag} applies to --scenario plots"));
            }
        }
    }
    Ok(args)
}

/// `harness plot --series`: render a telemetry series store (from
/// `harness run --timeseries`) as occupancy heatmaps and per-window p99
/// charts.
fn cmd_plot_series(path: &str, figures_dir: Option<&str>) -> Result<bool, String> {
    let store = telemetry::SeriesStore::load(Path::new(path))?;
    println!(
        "series store {path}: {} ({}), {} job series at {} ps/window, digest {}",
        store.meta.label, store.meta.source, store.jobs.len(), store.meta.interval_ps, store.digest
    );
    let artifacts = harness::scenario::Artifacts::new(harness::series_artifacts(&store));
    artifacts.print();
    let figures_dir = figures_dir
        .map(PathBuf::from)
        .unwrap_or_else(harness::figures_dir);
    let written = artifacts
        .write_all(&figures_dir)
        .map_err(|e| format!("write artifacts to {}: {e}", figures_dir.display()))?;
    for path in &written {
        println!("[wrote {}]", path.display());
    }
    Ok(true)
}

/// `harness plot`: render a scenario's recorded reports (latency vs
/// load) and its trajectory store (metrics over commits) as byte-stable
/// SVG/text artifacts.
fn cmd_plot(it: std::env::Args) -> Result<bool, String> {
    let args = parse_plot_args(it)?;
    if let Some(series_path) = &args.series {
        return cmd_plot_series(series_path, args.figures_dir.as_deref());
    }
    let name = args.scenario.as_deref().expect("checked by parser");
    let scenario = harness::find_scenario(name)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `harness list`)"))?;

    // Reports from a previous `harness run --scenario` in --out-dir.
    let out_dir = PathBuf::from(args.out_dir.as_deref().unwrap_or("."));
    let mut reports = Vec::new();
    for matrix in harness::build_matrices(scenario, &ScenarioParams::full()) {
        let path = out_dir.join(format!("{}.json", matrix.name));
        if path.exists() {
            let path_str = path.display().to_string();
            reports.push(read_report(&path_str, "recorded report")?);
        }
    }

    let store_path = args
        .store
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| TrajectoryStore::default_path(name));
    let store = if store_path.exists() {
        Some(TrajectoryStore::load(&store_path)?)
    } else {
        None
    };

    if reports.is_empty() && store.is_none() {
        return Err(format!(
            "nothing to plot for `{name}`: no reports under {} (run `harness run --scenario \
             {name}` first) and no trajectory store at {}",
            out_dir.display(),
            store_path.display()
        ));
    }

    let mut artifacts = harness::scenario::Artifacts::new(harness::latency_artifacts(&reports));
    if let Some(store) = &store {
        artifacts.items.extend(harness::trajectory_artifacts(store));
    }
    artifacts.print();
    let figures_dir = args
        .figures_dir
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(harness::figures_dir);
    let written = artifacts
        .write_all(&figures_dir)
        .map_err(|e| format!("write artifacts to {}: {e}", figures_dir.display()))?;
    for path in &written {
        println!("[wrote {}]", path.display());
    }
    Ok(true)
}

#[derive(Debug)]
struct WatchArgs {
    scenario: Option<String>,
    addr: Option<String>,
    frames: Option<u64>,
    refresh_ms: u64,
    window_ms: u64,
    clear: bool,
    quick: bool,
    requests: Option<u64>,
}

fn parse_watch_args(mut it: std::env::Args) -> Result<WatchArgs, String> {
    let mut args = WatchArgs {
        scenario: None,
        addr: None,
        frames: None,
        refresh_ms: 500,
        window_ms: 250,
        clear: false,
        quick: false,
        requests: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--addr" => args.addr = Some(value("--addr")?),
            "--frames" => {
                let frames: u64 = value("--frames")?
                    .parse()
                    .map_err(|e| format!("bad frame count: {e}"))?;
                if frames == 0 {
                    return Err("--frames must be at least 1".to_owned());
                }
                args.frames = Some(frames);
            }
            "--refresh-ms" => {
                args.refresh_ms = value("--refresh-ms")?
                    .parse()
                    .map_err(|e| format!("bad refresh interval: {e}"))?;
                if args.refresh_ms == 0 {
                    return Err("--refresh-ms must be at least 1".to_owned());
                }
            }
            "--window-ms" => {
                args.window_ms = value("--window-ms")?
                    .parse()
                    .map_err(|e| format!("bad window length: {e}"))?;
                if args.window_ms == 0 {
                    return Err("--window-ms must be at least 1".to_owned());
                }
            }
            "--clear" => args.clear = true,
            "--quick" => args.quick = true,
            "--requests" => {
                let requests: u64 = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad requests: {e}"))?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
                args.requests = Some(requests);
            }
            other => return Err(format!("unknown flag `{other}` for watch")),
        }
    }
    match (&args.scenario, &args.addr) {
        (None, None) => {
            return Err("watch needs --scenario <name> (spawns a loopback run) or \
                        --addr host:port (polls a running valetd)"
                .to_owned())
        }
        (Some(_), Some(_)) => {
            return Err("--scenario and --addr are mutually exclusive".to_owned())
        }
        _ => {}
    }
    if args.addr.is_some() {
        for (set, flag) in [
            (args.quick, "--quick"),
            (args.requests.is_some(), "--requests"),
            (args.window_ms != 250, "--window-ms"),
        ] {
            if set {
                return Err(format!(
                    "{flag} applies to --scenario watches (a remote server owns its own \
                     run shape and window length)"
                ));
            }
        }
    }
    Ok(args)
}

/// `harness watch`: a refreshing dashboard over a live server's
/// windowed `METRICS` stream — spawned loopback or remote `valetd`.
fn cmd_watch(it: std::env::Args) -> Result<bool, String> {
    let args = parse_watch_args(it)?;
    let cfg = harness::WatchConfig {
        frames: args.frames,
        refresh: std::time::Duration::from_millis(args.refresh_ms),
        clear: args.clear,
        ..harness::WatchConfig::default()
    };
    let mut stdout = std::io::stdout();

    let summary = if let Some(addr) = &args.addr {
        use std::net::ToSocketAddrs;
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("no address for {addr}"))?;
        harness::watch_addr(resolved, addr, &cfg, &mut stdout)
            .map_err(|e| format!("watch {addr}: {e}"))?
    } else {
        let name = args.scenario.as_deref().expect("checked by parser");
        let scenario = harness::find_scenario(name)
            .ok_or_else(|| format!("unknown scenario `{name}` (see `harness list`)"))?;
        let params = ScenarioParams {
            quick: args.quick,
            part: None,
            requests: args.requests,
            seed: None,
            replications: None,
        };
        let mut spec = harness::live_spec_for_scenario(scenario, &params)?;
        if let Some(requests) = args.requests {
            spec.requests = requests;
            spec.warmup = requests / 10;
        }
        println!(
            "watch {name}: {} workers, {} requests at load {:.2}, {} ms windows",
            spec.workers, spec.requests, spec.load, args.window_ms
        );
        harness::watch_loopback(
            &spec,
            std::time::Duration::from_millis(args.window_ms),
            &cfg,
            name,
            &mut stdout,
        )
        .map_err(|e| format!("watch {name}: {e}"))?
    };
    println!(
        "watched {} frame(s): {} window(s), {} arrival(s), {} completion(s)",
        summary.frames, summary.windows, summary.arrivals, summary.completions
    );
    Ok(true)
}

/// Restores default SIGPIPE behaviour so `harness ... | head` exits
/// quietly instead of panicking on a closed stdout (Rust ignores SIGPIPE
/// by default).
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal(2)` with SIG_DFL merely restores the kernel's
    // default disposition; no Rust-side state is touched and no handler
    // code runs.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let mut it = std::env::args();
    let _argv0 = it.next();
    let outcome = match it.next().as_deref() {
        Some("run") => cmd_run(it),
        Some("bench") => cmd_bench(it),
        Some("trace") => cmd_trace(it),
        Some("plot") => cmd_plot(it),
        Some("watch") => cmd_watch(it),
        Some("list") => {
            let mut mode = None;
            let mut parse_error = None;
            for arg in it {
                let parsed = match arg.as_str() {
                    "--json" => ListMode::Json,
                    "--names" => ListMode::Names,
                    "--readme" => ListMode::Readme,
                    "--check" => ListMode::Check,
                    other => {
                        parse_error = Some(format!("unknown flag `{other}` for list"));
                        break;
                    }
                };
                if let Some(previous) = mode.replace(parsed) {
                    // Picking one silently would swallow the output (or
                    // the check) the caller asked for.
                    parse_error = Some(format!(
                        "list takes one mode flag, got {previous:?} and {parsed:?} \
                         (--json | --names | --readme | --check)"
                    ));
                    break;
                }
            }
            match parse_error {
                Some(message) => Err(message),
                None => Ok(cmd_list(mode.unwrap_or(ListMode::Table))),
            }
        }
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: harness run --scenario <name> [--quick] [--part a|b|c] [--threads n] \
                 [--seed n] [--requests n] [--replications n] [--out-dir dir] \
                 [--figures-dir dir] [--baseline old.json] [--tolerance pct] [--fresh]\n       \
                 harness run --matrix <name> [--out file.json] [--trace n] \
                 [--timeseries store.series [--series-window-us n]] [shared flags]\n       \
                 harness bench --scenario <name> (--record | --check) [--tolerance pct] \
                 [--store file.json] [--threads n] [--quick] [--requests n] [--commit id]\n       \
                 harness trace --capture --matrix <name> --out store.trace [--events n] \
                 [--report file.json] [--threads n] [--quick] [--seed n] [--requests n]\n       \
                 harness trace --summarize store.trace\n       \
                 harness trace --diff sim.trace live.trace\n       \
                 harness trace --replay store.trace [--policy single|partitioned|static] \
                 [--trace-out replay.trace]\n       \
                 harness plot --scenario <name> [--out-dir dir] [--figures-dir dir] \
                 [--store file.json]\n       \
                 harness plot --series store.series [--figures-dir dir]\n       \
                 harness watch --scenario <name> [--window-ms n] [--quick] [--requests n] | \
                 --addr host:port  [--frames n] [--refresh-ms n] [--clear]\n       \
                 harness list [--json | --names | --readme | --check]"
            );
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE, // baseline regressions
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
