//! `harness` — the unified CLI for every experiment in the repo.
//!
//! Six subcommands — `run`, `bench`, `trace`, `plot`, `watch`, `list` —
//! and one argument parser for all of them. The synopsis in [`USAGE`] is
//! the grammar: each form names the flags one mode of a subcommand
//! requires (bare) and accepts (bracketed), and a command line is valid
//! when some form requires only flags it gives and accepts every flag it
//! gives — so a flag the chosen mode would ignore is an error even when
//! it is set to its default value. [`walk`] steps through the arguments
//! with [`live::cli::Flags`] (the walker `valetd` and `loadgen` use) and
//! parses and range-checks every value in one place. `harness --help`
//! prints [`USAGE`], and the parse tests run its example lines.
//!
//! `run --scenario` executes a registry entry ([`harness::catalog`]):
//! every matrix runs on the worker pool, per-matrix [`SweepReport`]s and
//! timing sidecars land in `--out-dir` (default: the working directory;
//! every run writes them afresh), and the scenario's typed derive step
//! renders its artifacts — the figure tables on stdout and the
//! machine-readable files under `target/figures/` (override with
//! `--figures-dir`), byte-identical to what the legacy figure binaries
//! wrote.
//!
//! `run --matrix` is the low-level path: one predefined matrix, one
//! report, no derived artifacts (see [`ScenarioMatrix::named`]); `--trace
//! <n>` adds per-request traces to the report, and `--timeseries <path>`
//! (+ `--series-window-us <n>`, default 100) writes a windowed-telemetry
//! capture alongside the byte-identical report.
//!
//! Gating a run against an earlier one is `bench`'s job: `--record`
//! appends a trajectory entry to a store, and `--check` replays the
//! latest entry's parameters and compares the fresh run with it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{
    default_threads, Artifacts, Scenario, ScenarioMatrix, ScenarioParams, ScenarioRun, SweepReport,
    SweepTiming, TrajectoryStore,
};
use live::cli::Flags;

/// The `--help` text, whose synopsis is the parser's grammar (see
/// [`forms`]). Every line under `examples:` is a whole command line that
/// the parse tests run.
const USAGE: &str = "\
usage:
  harness run --scenario <name> [--quick] [--part a|b|c] [--threads n] [--seed n]
      [--requests n] [--replications n] [--out-dir dir] [--figures-dir dir]
  harness run --matrix <name> [--out file.json] [--trace n] [--threads n] [--quick]
      [--seed n] [--requests n] [--replications n]
  harness run --matrix <name> --timeseries store.series [--series-window-us n]
      [--out file.json] [--trace n] [--threads n] [--quick] [--seed n]
      [--requests n] [--replications n]
  harness bench --scenario <name> --record [--store file.json] [--threads n]
      [--quick] [--requests n] [--commit id]
  harness bench --scenario <name> --check [--tolerance pct] [--store file.json]
      [--threads n] [--commit id]
  harness trace --capture --matrix <name> --out store.trace [--events n]
      [--report file.json] [--threads n] [--quick] [--seed n] [--requests n]
  harness trace --summarize store.trace
  harness trace --diff a.trace b.trace
  harness trace --replay store.trace [--policy single|partitioned|static]
      [--trace-out replay.trace]
  harness plot --scenario <name> [--out-dir dir] [--figures-dir dir] [--store file.json]
  harness plot --series store.series [--figures-dir dir]
  harness watch --scenario <name> [--window-ms n] [--quick] [--requests n]
      [--frames n] [--refresh-ms n] [--clear]
  harness watch --addr host:port [--frames n] [--refresh-ms n] [--clear]
  harness list
  harness list --json
  harness list --names
  harness list --readme
  harness list --check

examples:
  harness run --scenario fig8 --quick
  harness run --scenario fig2 --part a --threads 4 --out-dir /tmp/reports
  harness run --matrix fig7a --threads 8 --out results.json    # low-level escape hatch
  harness run --matrix fig8 --timeseries fig8.series           # windowed telemetry
  harness bench --scenario fig8 --check                        # gate vs BENCH/fig8.json
  harness bench --scenario fig8 --requests 20000 --record --store old.json   # old tree
  harness bench --scenario fig8 --check --store old.json --tolerance 1       # new tree
  harness trace --capture --matrix live_smoke --out live.trace
  harness trace --summarize live.trace                         # per-hop latency anatomy
  harness trace --diff sim.trace live.trace                    # sim vs live divergence
  harness trace --replay live.trace --trace-out sim.trace
  harness plot --scenario fig8                                 # SVG/text charts
  harness plot --series fig8.series                            # heatmap, windowed p99
  harness watch --scenario live_smoke --quick                  # loopback run + dashboard
  harness watch --addr 127.0.0.1:7117                          # watch a running valetd
  harness list --readme                                        # the README catalog table
";

/// Every flag value any subcommand takes, as [`walk`] parsed it;
/// `None` / `false` means the flag was not given, so defaults apply
/// only where a value is used.
#[derive(Debug, Default, PartialEq)]
struct Args {
    scenario: Option<String>,
    matrix: Option<String>,
    threads: Option<usize>,
    quick: bool,
    seed: Option<u64>,
    requests: Option<u64>,
    replications: Option<usize>,
    out: Option<String>,
    out_dir: Option<String>,
    figures_dir: Option<String>,
    part: Option<String>,
    trace: Option<usize>,
    timeseries: Option<String>,
    series_window_us: Option<u64>,
    record: bool,
    check: bool,
    store: Option<String>,
    tolerance_pct: Option<f64>,
    commit: Option<String>,
    capture: bool,
    report: Option<String>,
    events: Option<usize>,
    summarize: Option<String>,
    diff: Option<(String, String)>,
    replay: Option<String>,
    policy: Option<String>,
    trace_out: Option<String>,
    series: Option<String>,
    addr: Option<String>,
    frames: Option<u64>,
    refresh_ms: Option<u64>,
    window_ms: Option<u64>,
    clear: bool,
    json: bool,
    names: bool,
    readme: bool,
}

/// One synopsis form of [`USAGE`]: a mode of a subcommand, the flags it
/// requires (written bare) and the flags it also accepts (bracketed).
struct Form {
    cmd: &'static str,
    required: Vec<&'static str>,
    optional: Vec<&'static str>,
}

impl Form {
    fn flags(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.required.iter().chain(&self.optional).copied()
    }

    fn accepts(&self, flag: &str) -> bool {
        self.flags().any(|f| f == flag)
    }

    /// The mode as it reads on a command line, e.g. `run --matrix`.
    fn mode(&self) -> String {
        let mut mode = vec![self.cmd];
        mode.extend(&self.required);
        mode.join(" ")
    }
}

/// The synopsis forms of subcommand `cmd`, in [`USAGE`] order.
fn forms(cmd: &str) -> Vec<Form> {
    let synopsis = USAGE
        .split("examples:")
        .next()
        .expect("usage has a synopsis");
    let mut forms: Vec<Form> = Vec::new();
    for line in synopsis.lines() {
        let mut words = line.split_whitespace().peekable();
        if words.next_if_eq(&"harness").is_some() {
            let cmd = words.next().expect("a synopsis line names its subcommand");
            forms.push(Form {
                cmd,
                required: Vec::new(),
                optional: Vec::new(),
            });
        }
        // Lines without `harness` continue the form above them.
        let Some(form) = forms.last_mut() else {
            continue;
        };
        for word in words {
            match word.strip_prefix('[') {
                Some(flag) if flag.starts_with("--") => {
                    form.optional.push(flag.trim_end_matches(']'));
                }
                None if word.starts_with("--") => form.required.push(word),
                _ => {}
            }
        }
    }
    forms.retain(|form| form.cmd == cmd);
    forms
}

/// A subcommand's body; `Ok(false)` means a gate or check failed.
type Body = fn(&Args) -> Result<bool, String>;

/// Parses a command line (program name already skipped) into the
/// subcommand's body and its checked flags; `Ok(None)` asks for
/// [`USAGE`].
fn parse(mut flags: Flags) -> Result<Option<(Body, Args)>, String> {
    let cmd = match flags.next_flag() {
        None => return Ok(None),
        Some(cmd) if cmd == "--help" || cmd == "-h" => return Ok(None),
        Some(cmd) => cmd,
    };
    let body: Body = match cmd.as_str() {
        "run" => cmd_run,
        "bench" => cmd_bench,
        "trace" => cmd_trace,
        "plot" => cmd_plot,
        "watch" => cmd_watch,
        "list" => cmd_list,
        _ => return Err(format!("unknown command `{cmd}` (try --help)")),
    };
    let forms = forms(&cmd);
    let (args, given) = walk(&cmd, &forms, flags)?;
    check(&cmd, &forms, &given)?;
    Ok(Some((body, args)))
}

/// The one flag walker: takes only flags some form of `cmd` names, and
/// parses and range-checks each value here, once for every subcommand.
/// Also returns the names of the flags given, in order.
fn walk(cmd: &str, forms: &[Form], mut flags: Flags) -> Result<(Args, Vec<&'static str>), String> {
    let mut a = Args::default();
    let mut given = Vec::new();
    while let Some(flag) = flags.next_flag() {
        let f = forms
            .iter()
            .flat_map(Form::flags)
            .find(|name| *name == flag)
            .ok_or_else(|| format!("unknown flag `{flag}` for {cmd}"))?;
        given.push(f);
        match f {
            "--scenario" => a.scenario = Some(flags.value(f)?),
            "--matrix" => a.matrix = Some(flags.value(f)?),
            "--threads" => a.threads = Some(flags.parse(f)?),
            "--quick" => a.quick = true,
            "--seed" => a.seed = Some(flags.parse(f)?),
            "--requests" => a.requests = Some(flags.parse_positive(f)?),
            "--replications" => a.replications = Some(flags.parse_positive(f)? as usize),
            "--out" => a.out = Some(flags.value(f)?),
            "--out-dir" => a.out_dir = Some(flags.value(f)?),
            "--figures-dir" => a.figures_dir = Some(flags.value(f)?),
            "--part" => a.part = Some(flags.value(f)?),
            "--trace" => a.trace = Some(flags.parse(f)?),
            "--timeseries" => a.timeseries = Some(flags.value(f)?),
            "--series-window-us" => a.series_window_us = Some(flags.parse_positive(f)?),
            "--record" => a.record = true,
            "--check" => a.check = true,
            "--store" => a.store = Some(flags.value(f)?),
            "--tolerance" => {
                let pct: f64 = flags.parse(f)?;
                if pct < 0.0 {
                    return Err("--tolerance must be non-negative".to_owned());
                }
                a.tolerance_pct = Some(pct);
            }
            "--commit" => a.commit = Some(flags.value(f)?),
            "--capture" => a.capture = true,
            "--report" => a.report = Some(flags.value(f)?),
            "--events" => a.events = Some(flags.parse_positive(f)? as usize),
            "--summarize" => a.summarize = Some(flags.value(f)?),
            "--diff" => {
                let first = flags.value("--diff (first store)")?;
                a.diff = Some((first, flags.value("--diff (second store)")?));
            }
            "--replay" => a.replay = Some(flags.value(f)?),
            "--policy" => a.policy = Some(flags.value(f)?),
            "--trace-out" => a.trace_out = Some(flags.value(f)?),
            "--series" => a.series = Some(flags.value(f)?),
            "--addr" => a.addr = Some(flags.value(f)?),
            "--frames" => a.frames = Some(flags.parse_positive(f)?),
            "--refresh-ms" => a.refresh_ms = Some(flags.parse_positive(f)?),
            "--window-ms" => a.window_ms = Some(flags.parse_positive(f)?),
            "--clear" => a.clear = true,
            "--json" => a.json = true,
            "--names" => a.names = true,
            "--readme" => a.readme = true,
            _ => unreachable!("`{f}` is in the usage synopsis but walk has no arm for it"),
        }
    }
    Ok((a, given))
}

/// Accepts the `given` flags when some form requires only given flags
/// and accepts every given one. Otherwise names the first flag that the
/// most specific form whose requirements were met would ignore — or,
/// when no form's were, the modes `cmd` has.
fn check(cmd: &str, forms: &[Form], given: &[&str]) -> Result<(), String> {
    let mut met: Vec<&Form> = forms
        .iter()
        .filter(|form| form.required.iter().all(|flag| given.contains(flag)))
        .collect();
    if met.iter().any(|form| given.iter().all(|g| form.accepts(g))) {
        return Ok(());
    }
    met.sort_by_key(|form| std::cmp::Reverse(form.required.len()));
    let Some(closest) = met.first() else {
        let modes: Vec<String> = forms.iter().map(Form::mode).collect();
        return Err(format!("{cmd} needs one of: {}", modes.join(" | ")));
    };
    let extra = given
        .iter()
        .find(|g| !closest.accepts(g))
        .expect("the closest form ignores a given flag");
    let home = forms
        .iter()
        .find(|form| form.accepts(extra))
        .expect("walk took only flags some form names");
    Err(format!(
        "{extra} does not apply to `{}` (it goes with `{}`)",
        closest.mode(),
        home.mode()
    ))
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

/// `harness list`: the catalog as a table (default), JSON rows, bare
/// names (CI loops over them), the README table, or a registry health
/// check that fails when a required scenario is missing or a name is
/// duplicated.
fn cmd_list(a: &Args) -> Result<bool, String> {
    if a.names {
        for s in harness::catalog() {
            println!("{}", s.name);
        }
    } else if a.readme {
        print!("{}", harness::readme_catalog_table());
    } else if a.check {
        let problems = harness::registry_problems();
        for problem in &problems {
            eprintln!("registry problem: {problem}");
        }
        if !problems.is_empty() {
            return Ok(false);
        }
        let names: Vec<&str> = harness::catalog().iter().map(|s| s.name).collect();
        println!(
            "registry OK: {} scenarios cover all {} required ({})",
            names.len(),
            harness::REQUIRED_SCENARIOS.len(),
            names.join(", ")
        );
    } else if a.json {
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
    } else {
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
    }
    Ok(true)
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

/// The registry entry called `name`.
fn scenario_named(name: &str) -> Result<&'static Scenario, String> {
    harness::find_scenario(name).ok_or_else(|| {
        let known: Vec<&str> = harness::catalog().iter().map(|s| s.name).collect();
        format!("unknown scenario `{name}` (known: {})", known.join(", "))
    })
}

/// The scenario run shape the flags ask for.
fn scenario_params(a: &Args) -> ScenarioParams {
    ScenarioParams {
        quick: a.quick,
        part: a.part.clone(),
        requests: a.requests,
        seed: a.seed,
        replications: a.replications,
    }
}

/// The predefined matrix called `name`, with the run-shape flags
/// applied the way a scenario applies them to its own matrices.
fn named_matrix(name: &str, a: &Args) -> Result<ScenarioMatrix, String> {
    let mut matrix = ScenarioMatrix::named(name).ok_or_else(|| {
        format!(
            "unknown matrix `{name}` (known: {})",
            ScenarioMatrix::known_names().join(", ")
        )
    })?;
    if a.quick {
        matrix = matrix.quick();
    }
    if let Some(seed) = a.seed {
        matrix.master_seed = seed;
    }
    if let Some(requests) = a.requests {
        matrix = matrix.requests(requests, requests / 10);
    }
    if let Some(replications) = a.replications {
        matrix = matrix.replications(replications);
    }
    Ok(matrix)
}

/// Writes a report and its `<out>.timing.json` wall-clock sidecar.
fn write_report(out: &Path, report: &SweepReport, timing: &SweepTiming) -> Result<(), String> {
    let out = out.display().to_string();
    std::fs::write(&out, report.to_json_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    let timing_path = format!("{out}.timing.json");
    let timing_json =
        serde_json::to_string_pretty(timing).map_err(|e| format!("timing serializes: {e}"))?;
    std::fs::write(&timing_path, timing_json).map_err(|e| format!("write {timing_path}: {e}"))
}

/// Prints artifacts and writes them under `figures_dir` (default:
/// `target/figures`).
fn emit(artifacts: &Artifacts, figures_dir: Option<&str>) -> Result<(), String> {
    artifacts.print();
    let dir = figures_dir
        .map(PathBuf::from)
        .unwrap_or_else(harness::figures_dir);
    let written = artifacts
        .write_all(&dir)
        .map_err(|e| format!("write artifacts to {}: {e}", dir.display()))?;
    for path in &written {
        println!("[wrote {}]", path.display());
    }
    Ok(())
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    let threads = a.threads.unwrap_or_else(default_threads);
    let Some(name) = &a.scenario else {
        let name = a.matrix.as_deref().expect("the synopsis requires it");
        return cmd_run_matrix(named_matrix(name, a)?, threads, a);
    };
    let scenario = scenario_named(name)?;
    let params = scenario_params(a);
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

    let out_dir = PathBuf::from(a.out_dir.as_deref().unwrap_or("."));
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
        let (report, timing) = harness::run_matrix(matrix, threads);
        write_report(
            &out_dir.join(format!("{}.json", matrix.name)),
            &report,
            &timing,
        )?;
        println!("  {}", timing.summary_line());
        reports.push(report);
        timings.push(timing);
    }

    let run = ScenarioRun {
        params,
        reports,
        timings,
    };
    emit(&(scenario.derive)(&run), a.figures_dir.as_deref())?;
    Ok(true)
}

fn cmd_run_matrix(mut matrix: ScenarioMatrix, threads: usize, a: &Args) -> Result<bool, String> {
    if let Some(capacity) = a.trace {
        // Per-request timeline traces for the first `capacity` measured
        // requests of every sim job (fills the report's breakdown
        // column). Traced sim runs keep monotone message ids — no slab
        // slot recycling — so peak simulator memory grows with
        // `--requests`; see `rpcvalet::SystemConfig::trace_capacity`.
        matrix = matrix.trace(capacity);
    }
    println!(
        "matrix {}: {} jobs x {} requests (seed {})",
        matrix.name,
        matrix.jobs().len(),
        matrix.requests,
        matrix.master_seed
    );
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.json", matrix.name));
    let (report, timing) = match &a.timeseries {
        None => harness::run_matrix(&matrix, threads),
        Some(series_path) => {
            // The report a windowed run writes is byte-identical to an
            // unwindowed run's.
            let window_us = a.series_window_us.unwrap_or(100);
            let interval_ps = window_us * 1_000_000;
            let (report, timing, observed) =
                harness::run_matrix_observed(&matrix, threads, 0, interval_ps);
            let jobs = observed.series.len() as u64;
            let live = matrix
                .jobs()
                .iter()
                .any(|j| j.kind() == harness::JobKind::Live);
            let meta = if live {
                telemetry::SeriesMeta::live(&matrix.name, interval_ps, jobs)
            } else {
                telemetry::SeriesMeta::sim(&matrix.name, interval_ps, jobs)
            };
            let digest =
                telemetry::write_series_store(Path::new(series_path), &meta, &observed.series)
                    .map_err(|e| format!("write {series_path}: {e}"))?;
            println!(
                "[wrote {series_path} ({jobs} job series at {window_us} us/window, digest \
                 {digest})]"
            );
            (report, timing)
        }
    };
    write_report(Path::new(&out), &report, &timing)?;
    print_summaries(&report);
    println!("\n  {}", timing.summary_line());
    println!("\n[wrote {out}]");
    println!("[wrote {out}.timing.json]");
    Ok(true)
}

/// `harness bench`: record or gate a scenario's benchmark-trajectory
/// entry.
fn cmd_bench(a: &Args) -> Result<bool, String> {
    let name = a.scenario.as_deref().expect("the synopsis requires it");
    let scenario = scenario_named(name)?;
    let commit = a
        .commit
        .clone()
        .unwrap_or_else(harness::trajectory::current_commit);
    let store_path = a
        .store
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| TrajectoryStore::default_path(name));
    let threads = a.threads.unwrap_or_else(default_threads);

    if a.check {
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
        let current = harness::entry_from_run(name, &params, &run.reports, &run.timings, &commit);
        let outcome = harness::check_entry(baseline, &current, a.tolerance_pct);
        print!("{}", outcome.render());
        Ok(outcome.clean())
    } else {
        let params = scenario_params(a);
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
fn cmd_trace(a: &Args) -> Result<bool, String> {
    if let Some(path) = &a.summarize {
        print!("{}", harness::summarize_store(Path::new(path))?);
        return Ok(true);
    }

    if let Some((first, second)) = &a.diff {
        print!(
            "{}",
            harness::diff_stores(Path::new(first), Path::new(second))?
        );
        return Ok(true);
    }

    if let Some(path) = &a.replay {
        let policy = parse_replay_policy(a.policy.as_deref().unwrap_or("single"))?;
        let trace_out = a.trace_out.as_ref().map(PathBuf::from);
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
    let matrix = named_matrix(a.matrix.as_deref().expect("the synopsis requires it"), a)?;
    let threads = a.threads.unwrap_or_else(default_threads);
    let events = a.events.unwrap_or(5_000);
    let out = PathBuf::from(a.out.as_deref().expect("the synopsis requires it"));
    println!(
        "trace capture {}: {} jobs x {} requests, first {events} request(s) per job",
        matrix.name,
        matrix.jobs().len(),
        matrix.requests
    );
    let captured = harness::capture_matrix(&matrix, threads, events, &out)
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
    if let Some(report_path) = &a.report {
        std::fs::write(report_path, captured.report.to_json_pretty())
            .map_err(|e| format!("write {report_path}: {e}"))?;
        println!("[wrote {report_path}]");
    }
    Ok(true)
}

/// `harness plot`: render a scenario's recorded reports (latency vs
/// load) and its trajectory store (metrics over commits), or a
/// telemetry series store (from `harness run --timeseries`) as
/// occupancy heatmaps and per-window p99 charts — all as byte-stable
/// SVG/text artifacts.
fn cmd_plot(a: &Args) -> Result<bool, String> {
    if let Some(path) = &a.series {
        let store = telemetry::SeriesStore::load(Path::new(path))?;
        println!(
            "series store {path}: {} ({}), {} job series at {} ps/window, digest {}",
            store.meta.label,
            store.meta.source,
            store.jobs.len(),
            store.meta.interval_ps,
            store.digest
        );
        let artifacts = Artifacts::new(harness::series_artifacts(&store));
        emit(&artifacts, a.figures_dir.as_deref())?;
        return Ok(true);
    }
    let name = a.scenario.as_deref().expect("the synopsis requires it");
    let scenario = scenario_named(name)?;

    // Reports from a previous `harness run --scenario` in --out-dir.
    let out_dir = PathBuf::from(a.out_dir.as_deref().unwrap_or("."));
    let mut reports = Vec::new();
    for matrix in harness::build_matrices(scenario, &ScenarioParams::full()) {
        let path = out_dir.join(format!("{}.json", matrix.name));
        if !path.exists() {
            continue;
        }
        let path = path.display();
        let text = std::fs::read_to_string(path.to_string())
            .map_err(|e| format!("read recorded report {path}: {e}"))?;
        reports.push(SweepReport::from_json(&text).map_err(|e| {
            format!(
                "parse recorded report {path}: {e} (pre-v{} reports cannot be read by this \
                 binary; re-run the matrix to regenerate the file — job seeds are stable, so \
                 the regenerated measurements are bit-identical)",
                harness::REPORT_VERSION
            )
        })?);
    }

    let store_path = a
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

    let mut artifacts = Artifacts::new(harness::latency_artifacts(&reports));
    if let Some(store) = &store {
        artifacts.items.extend(harness::trajectory_artifacts(store));
    }
    emit(&artifacts, a.figures_dir.as_deref())?;
    Ok(true)
}

/// `harness watch`: a refreshing dashboard over a live server's
/// windowed `METRICS` stream — spawned loopback or remote `valetd`.
fn cmd_watch(a: &Args) -> Result<bool, String> {
    let mut cfg = harness::WatchConfig {
        frames: a.frames,
        clear: a.clear,
        ..harness::WatchConfig::default()
    };
    if let Some(ms) = a.refresh_ms {
        cfg.refresh = std::time::Duration::from_millis(ms);
    }
    let mut stdout = std::io::stdout();

    let summary = if let Some(addr) = &a.addr {
        let resolved = live::cli::resolve_addr(addr)?;
        harness::watch_addr(resolved, addr, &cfg, &mut stdout)
            .map_err(|e| format!("watch {addr}: {e}"))?
    } else {
        let name = a.scenario.as_deref().expect("the synopsis requires it");
        let spec = harness::live_spec_for_scenario(scenario_named(name)?, &scenario_params(a))?;
        let window_ms = a.window_ms.unwrap_or(250);
        println!(
            "watch {name}: {} workers, {} requests at load {:.2}, {window_ms} ms windows",
            spec.workers, spec.requests, spec.load
        );
        let window = std::time::Duration::from_millis(window_ms);
        harness::watch_loopback(&spec, window, &cfg, name, &mut stdout)
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
    let outcome = match parse(Flags::from_env()) {
        Ok(Some((body, args))) => body(&args),
        Ok(None) => {
            eprint!("{USAGE}");
            Ok(true)
        }
        Err(msg) => Err(msg),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE, // a failed gate or registry check
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line`, which starts with the subcommand.
    fn parse_line(line: &str) -> Result<Option<Args>, String> {
        let words = line.split_whitespace().map(str::to_owned).collect();
        Ok(parse(Flags::from_args(words))?.map(|(_, args)| args))
    }

    fn s(value: &str) -> Option<String> {
        Some(value.to_owned())
    }

    #[test]
    fn usage_examples_parse_and_ignored_or_bad_flags_are_errors() {
        let d = Args::default;
        let examples = [
            Args {
                scenario: s("fig8"),
                quick: true,
                ..d()
            },
            Args {
                scenario: s("fig2"),
                part: s("a"),
                threads: Some(4),
                out_dir: s("/tmp/reports"),
                ..d()
            },
            Args {
                matrix: s("fig7a"),
                threads: Some(8),
                out: s("results.json"),
                ..d()
            },
            Args {
                matrix: s("fig8"),
                timeseries: s("fig8.series"),
                ..d()
            },
            Args {
                scenario: s("fig8"),
                check: true,
                ..d()
            },
            Args {
                scenario: s("fig8"),
                requests: Some(20_000),
                record: true,
                store: s("old.json"),
                ..d()
            },
            Args {
                scenario: s("fig8"),
                check: true,
                store: s("old.json"),
                tolerance_pct: Some(1.0),
                ..d()
            },
            Args {
                capture: true,
                matrix: s("live_smoke"),
                out: s("live.trace"),
                ..d()
            },
            Args {
                summarize: s("live.trace"),
                ..d()
            },
            Args {
                diff: Some(("sim.trace".to_owned(), "live.trace".to_owned())),
                ..d()
            },
            Args {
                replay: s("live.trace"),
                trace_out: s("sim.trace"),
                ..d()
            },
            Args {
                scenario: s("fig8"),
                ..d()
            },
            Args {
                series: s("fig8.series"),
                ..d()
            },
            Args {
                scenario: s("live_smoke"),
                quick: true,
                ..d()
            },
            Args {
                addr: s("127.0.0.1:7117"),
                ..d()
            },
            Args {
                readme: true,
                ..d()
            },
        ];
        let lines: Vec<&str> = USAGE
            .split("examples:")
            .nth(1)
            .expect("usage has examples")
            .lines()
            .filter_map(|line| line.split('#').next()?.trim().strip_prefix("harness "))
            .collect();
        assert_eq!(lines.len(), examples.len(), "one expectation per example");
        for (line, want) in lines.into_iter().zip(examples) {
            assert_eq!(parse_line(line), Ok(Some(want)), "{line}");
        }
        for line in ["", "--help", "-h"] {
            assert_eq!(parse_line(line), Ok(None), "`{line}` prints the usage");
        }

        // `command line => expected error`.
        let rejected = [
            // A flag the selected mode would ignore, even at its default.
            "bench --scenario a --record --tolerance 5 => goes with `bench --scenario --check`",
            "bench --scenario a --check --requests 9 => (it goes with `bench --scenario --record`)",
            "trace --capture --matrix m --out o --policy static => (it goes with `trace --replay`)",
            "trace --summarize s --events 5 => --events does not apply to `trace --summarize`",
            "trace --diff a b --threads 2 => --threads does not apply to `trace --diff`",
            "trace --replay r --events 5 => --events does not apply to `trace --replay`",
            "trace --replay r --threads 2 => --threads does not apply to `trace --replay`",
            "trace --summarize s --policy single => (it goes with `trace --replay`)",
            "watch --addr h:1 --window-ms 250 => --window-ms does not apply to `watch --addr`",
            "run --matrix m --series-window-us 100 => (it goes with `run --matrix --timeseries`)",
            "run --scenario a --out r.json => --out does not apply to `run --scenario`",
            "run --scenario a --trace 10 => --trace does not apply to `run --scenario`",
            "run --scenario a --timeseries s => --timeseries does not apply to `run --scenario`",
            "run --matrix m --part a => --part does not apply to `run --matrix`",
            "plot --series s --store b.json => --store does not apply to `plot --series`",
            // Two modes at once, or none.
            "run --scenario a --matrix b => --matrix does not apply to `run --scenario`",
            "bench --scenario a --record --check => --check does not apply to `bench --scenario",
            "trace --capture --summarize s => --capture does not apply to `trace --summarize`",
            "plot --scenario a --series s => --series does not apply to `plot --scenario`",
            "watch --scenario a --addr h:1 => --addr does not apply to `watch --scenario`",
            "list --json --names => --names does not apply to `list --json`",
            "run --quick => one of: run --scenario | run --matrix | run --matrix --timeseries",
            "bench --record => bench needs one of",
            "trace --capture --matrix m => trace needs one of: trace --capture --matrix --out |",
            // Counts that must be at least 1, and malformed values.
            "run --matrix m --requests 0 => --requests must be at least 1",
            "run --matrix m --replications 0 => --replications must be at least 1",
            "trace --capture --matrix m --out o --events 0 => --events must be at least 1",
            "watch --addr h:1 --frames 0 => --frames must be at least 1",
            "run --matrix m --threads many => bad --threads",
            "bench --scenario a --check --tolerance -1 => --tolerance must be non-negative",
            "run --matrix m --out => --out needs a value",
            // Unknown commands, and flags no form of the command names.
            "run --scenario a --tolerance 1 => unknown flag `--tolerance` for run",
            "run --matrix m n => unknown flag `n` for run",
            "list --quick => unknown flag `--quick` for list",
            "frobnicate => unknown command `frobnicate`",
        ];
        for row in rejected {
            let (line, want) = row.split_once(" => ").expect("`line => error` row");
            let err = parse_line(line).expect_err(line);
            assert!(err.contains(want), "{line}: got `{err}`, want `{want}`");
        }
    }
}
