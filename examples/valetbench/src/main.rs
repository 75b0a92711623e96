//! valetbench — the repo's one benchmark. See `README.md` beside
//! `Cargo.toml` for what each workload and metric means.
//!
//! ```text
//! valetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! valetbench [--seed <n>] [--seconds <s>]            every workload once
//! valetbench --aa <N> [--workload <name>] ...        N sets, spread vs bound
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1` (alias `--traced`). The exit code is non-zero when any
//! operation failed.

mod aa;
mod alloc;
mod estim;
mod ledger;
mod live;
mod proc;
mod sim;
mod spans;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sim::SimKind;
use spans::SpanLog;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The four workloads; a name enters as an argument and is checked
/// there.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimFig8,
    ModelFig2,
    LiveClosed,
    LiveOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimFig8,
        Workload::ModelFig2,
        Workload::LiveClosed,
        Workload::LiveOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimFig8 => "sim_fig8",
            Workload::ModelFig2 => "model_fig2",
            Workload::LiveClosed => "live_closed",
            Workload::LiveOpen => "live_open",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Seconds a run measures for when `--seconds` is not given; the value
/// `BENCHMARK.json` carries as `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = Workload::ALL.into_iter().find(|w| w.name() == name);
                args.workload = Some(known.ok_or_else(|| {
                    let names = Workload::ALL.map(Workload::name);
                    format!("unknown workload `{name}` (one of {names:?})")
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".to_owned());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n == 0 {
                    return Err("--aa needs at least one set".to_owned());
                }
                args.aa = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The `key = value` lines of a manifest's `[profile.release]`.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// This package is its own workspace root, so it repeats the root
/// manifest's release profile instead of inheriting it. Should the two
/// drift, the benchmark would measure a build the repository does not
/// ship; it refuses to run instead.
fn check_release_profile() -> Result<(), String> {
    let own = release_profile(include_str!("../Cargo.toml"));
    let root = release_profile(include_str!("../../../Cargo.toml"));
    if own == root {
        return Ok(());
    }
    Err(format!(
        "[profile.release] of examples/valetbench/Cargo.toml is {own:?} but the root manifest's is {root:?}; copy the root's"
    ))
}

/// One workload's end-to-end row, before it is printed.
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    /// Every set-up of the run; `setup_s` is the median.
    pub setups: Vec<f64>,
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_req: f64,
    /// What each number rests on, one line per metric, and whatever else
    /// a reader should see before trusting the row.
    pub notes: Vec<String>,
}

/// Runs one workload end to end: set-up (repeated, median reported),
/// the measured interval, the correctness checks. `log` is off for the
/// untraced run; the traced run passes one that records.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> io::Result<EndToEnd> {
    match workload {
        Workload::SimFig8 => Ok(sim_end_to_end(SimKind::Fig8, seed, seconds, log)),
        Workload::ModelFig2 => Ok(sim_end_to_end(SimKind::Fig2, seed, seconds, log)),
        Workload::LiveClosed => {
            let (tier, setups) = live::set_up_tier(log)?;
            let out = live::run_closed(tier, seed, seconds, log);
            let notes = vec![
                format!(
                    "  req_per_s: the window two fifths of the way in from the busy side; {} replies in {seconds:.2} s on {} connections, 1 outstanding each",
                    out.completed,
                    live::CONNECTIONS
                ),
                format!(
                    "  server: completions {} redirects {} ring high water {}",
                    out.server.completions(),
                    out.server.redirects,
                    out.server.ring_high_water
                ),
            ];
            Ok(live_row(
                out.sent,
                out.failed,
                out.cpu_s,
                setups,
                &out.latency,
                notes,
            ))
        }
        Workload::LiveOpen => {
            let (setups, unanswered) = live::set_up_open(log)?;
            let config = live::open_config(seed, seconds, 0);
            let out = live::run_open(&config, seconds, log)?;
            let notes = vec![
                format!(
                    "  req_per_s: the window two fifths of the way in from the busy side; {} replies in the {seconds:.2} s measured; offered {:.1} req/s open loop, latency from the scheduled send",
                    out.completed,
                    config.rate_rps()
                ),
                format!(
                    "  generator: run length / scheduled length {:.4}; over the 6 ms limit {:.4}; Jain {:.4}",
                    out.duration_ratio, out.slo_miss_frac, out.jain
                ),
            ];
            Ok(live_row(
                out.sent,
                out.failed + unanswered,
                out.cpu_s,
                setups,
                &out.latency,
                notes,
            ))
        }
    }
}

/// The part of a live workload's row that both share.
fn live_row(
    sent: u64,
    failed: u64,
    cpu_s: f64,
    setups: Vec<f64>,
    latency: &estim::WindowSummary,
    mut notes: Vec<String>,
) -> EndToEnd {
    notes.insert(0, estim::render(&latency.windows));
    notes.push(format!(
        "  p50_us/p99_us: the window two fifths (p99: a quarter) of the way in from the quiet side, of {}; fewest samples in a window {} ({} beyond its p99)",
        latency.windows.len(),
        latency.min_samples,
        latency.min_samples / 100
    ));
    notes.push(format!(
        "  disturbed windows (p99 > 3x the median window): {}",
        latency.disturbed
    ));
    EndToEnd {
        attempted: sent,
        failed,
        setups,
        req_per_s: latency.req_per_s,
        p50_us: latency.p50_us,
        p99_us: latency.p99_us,
        cpu_us_per_req: cpu_s * 1e6 / sent.max(1) as f64,
        notes,
    }
}

fn sim_end_to_end(kind: SimKind, seed: u64, seconds: f64, log: &mut SpanLog) -> EndToEnd {
    let (plan, first_setup) = sim::set_up(kind, seed);
    let out = sim::run(&plan, seconds, log);
    let mut setups = vec![first_setup];
    setups.extend(&out.setups);
    let (checked, diverged) = sim::verify_determinism(&plan);
    let reps = &out.replications;
    let mut notes = vec![
        estim::render(reps),
        format!(
            "  a window is one replication: {} windows, {} points, {} simulated requests in {:.2} s of host time",
            reps.len(),
            out.points,
            out.requests(),
            out.wall_s
        ),
        format!(
            "  host time of one point: per class of point ({} classes), the median over the {} replications",
            out.class_us.len(),
            reps.len()
        ),
        format!(
            "  req_per_s: the {} simulated requests of a replication over the sum of the class medians (whole run, set-ups taken out, {:.1})",
            out.requests_per_replication,
            out.requests() as f64 / (out.wall_s - out.setups.iter().sum::<f64>())
        ),
        "  p50_us/p99_us: quantiles over the class medians; the p99 sits between the second- and third-slowest class".to_owned(),
        format!(
            "  disturbed replications (p99 > 3x the median's): {}",
            estim::disturbed(reps)
        ),
        format!(
            "  determinism: {checked} first points run twice, {diverged} differed; \
             {} points with measured != requests - warmup",
            out.failed
        ),
    ];
    if kind == SimKind::Fig8 {
        let (job, m) = sim::fig8_top_load_point();
        notes.push(format!(
            "  fig8 hw 1x16 exp at {:.1} Mrps: simulated p99 {:.1} ns (printed, not pinned)",
            job.rate_rps / 1e6,
            m.p99_latency_ns
        ));
    }
    EndToEnd {
        attempted: out.points + checked,
        failed: out.failed + diverged,
        setups,
        req_per_s: out.req_per_s(),
        p50_us: estim::quantile_sorted(&out.class_us, 0.50),
        p99_us: estim::quantile_sorted(&out.class_us, 0.99),
        cpu_us_per_req: out.cpu_s * 1e6 / out.requests().max(1) as f64,
        notes,
    }
}

/// A metric as it is printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The final line: one JSON object, values with every digit measured.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> io::Result<u64> {
    let e = end_to_end(workload, seed, seconds, &mut SpanLog::off())?;
    let peak_rss_mb = proc::peak_rss_mb();
    for note in &e.notes {
        println!("{}", note.trim_end_matches('\n'));
    }
    let setups: Vec<String> = e.setups.iter().map(|s| format!("{s:.6}")).collect();
    println!(
        "  setup_s: median of {} set-ups: {} s",
        setups.len(),
        setups.join(" ")
    );
    println!(
        "  cpu_us_per_req {:.4} (user+system over the measured interval)",
        e.cpu_us_per_req
    );
    println!(
        "  whole process so far {:.2} s",
        process_start.elapsed().as_secs_f64()
    );
    let metrics = [
        ("setup_s", estim::median(&e.setups), "s"),
        ("req_per_s", e.req_per_s, "1/s"),
        ("p50_us", e.p50_us, "us"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    println!("{workload}: attempted {} failed {}", e.attempted, e.failed);
    for (name, value, unit) in metrics {
        println!("  {name:<12} {value:>14.4} {unit}");
    }
    // A per-layer row (it does not repeat within 10 % on a shared box),
    // shown here because this run rests it on the most samples.
    println!("  {:<12} {:>14.4} us  (per-layer)", "p99_us", e.p99_us);
    println!("{}", result_line(e.attempted, e.failed, &metrics));
    Ok(e.failed)
}

/// Where the span file goes: under the build's target directory, inside
/// the checkout.
fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("valetbench")
        .join(format!("trace-{workload}.jsonl"))
}

fn run_traced(workload: Workload, seed: u64, seconds: f64, cpus: &[usize]) -> io::Result<u64> {
    let mut ledger = ledger::fixed_probes(seed, cpus)?;

    // The workload itself, shortened: once untraced, once with spans.
    let segment = (seconds / 8.0).clamp(1.0, 4.0);
    let plain = end_to_end(workload, seed, segment, &mut SpanLog::off())?;
    let mut log = SpanLog::new(Instant::now(), 0);
    let traced = end_to_end(workload, seed, segment, &mut log)?;
    ledger.push("p99_us", plain.p99_us, "us");
    ledger.push("proc.cpu_us_per_req", plain.cpu_us_per_req, "us");
    ledger.push(
        "trace.overhead_frac",
        1.0 - traced.req_per_s / plain.req_per_s,
        "ratio",
    );

    let path = trace_path(workload);
    spans::write_jsonl(&log, &path)?;
    println!("{workload}: per-layer ledger (seed {seed})");
    print!("{}", ledger.render());
    println!(
        "{workload}: spans of the traced {segment:.1} s, written to {}",
        path.display()
    );
    print!("{}", spans::render_self_times(&log));
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    println!("{}", result_line(attempted, failed, &ledger.rows));
    Ok(failed)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match check_release_profile().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("valetbench: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let outcome = match (args.workload, args.aa) {
        (Some(workload), None) => {
            let cpus = proc::allowed_cpus();
            let pinned = proc::pin_to_one_cpu(&cpus).map_or("not pinned".to_owned(), |cpu| {
                format!("pinned to CPU {cpu}")
            });
            println!(
                "valetbench {workload} seed {} seconds {} trace {} (available parallelism {threads}, {pinned})",
                args.seed, args.seconds, args.traced as u8
            );
            if args.traced {
                run_traced(workload, args.seed, args.seconds, &cpus)
            } else {
                run_untraced(workload, args.seed, args.seconds, process_start)
            }
        }
        (only, sets) => aa::run(
            sets.unwrap_or(1),
            only,
            args.seed,
            args.seconds,
            args.traced,
        ),
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("valetbench: {failed} operations failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("valetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
