//! The first-class `Scenario` API: one registry entry per experiment.
//!
//! A [`Scenario`] owns everything the repo knows about one experiment:
//! its registry name, the paper artifact it reproduces, the
//! [`ScenarioMatrix`]es to run (possibly none — Table 1 and the Fig. 6
//! PDFs are pure derivations), and a typed `derive` step that turns the
//! deterministic [`SweepReport`]s into [`Artifacts`] — named tables,
//! series, and JSON files with stable, byte-comparable rendering.
//!
//! Experiments are declarative data handed to one engine (`harness run
//! --scenario <name>`) instead of a `main()` + `println!` binary per
//! figure. The catalog itself lives in [`crate::catalog`].

use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::report::{SweepReport, SweepTiming};
use crate::spec::ScenarioMatrix;

/// Effective parameters of one scenario run — the knobs the legacy
/// binaries parsed by hand (`--quick`, `--part`) plus the harness's
/// overrides.
#[derive(Debug, Clone, Default)]
pub struct ScenarioParams {
    /// Low-resolution smoke run (the figure binaries' `--quick`).
    pub quick: bool,
    /// Sub-figure selector for multi-part scenarios (`a` | `b` | `c`).
    pub part: Option<String>,
    /// Per-job request-count override (takes precedence over `quick`).
    pub requests: Option<u64>,
    /// Master-seed override applied to every matrix.
    pub seed: Option<u64>,
    /// Replication-count override applied to every matrix.
    pub replications: Option<usize>,
}

impl ScenarioParams {
    /// Full paper-resolution parameters.
    pub fn full() -> Self {
        ScenarioParams::default()
    }

    /// Quick smoke parameters.
    pub fn quick() -> Self {
        ScenarioParams {
            quick: true,
            ..ScenarioParams::default()
        }
    }

    /// The request count a sweep with full resolution `full` should use:
    /// the explicit override if given, else the legacy `--quick` scaling
    /// (`max(full / 8, 5000)`), else `full`. This is the exact
    /// arithmetic of the legacy figure binaries, so migrated scenarios
    /// hit the same operating points in every mode.
    pub fn effective_requests(&self, full: u64) -> u64 {
        if let Some(requests) = self.requests {
            return requests;
        }
        if self.quick {
            (full / 8).max(5_000)
        } else {
            full
        }
    }

    /// Whether `part` selects the given sub-figure (no selector = all).
    pub fn wants_part(&self, part: &str) -> bool {
        self.part.as_deref().map(|sel| sel == part).unwrap_or(true)
    }
}

/// One registry entry: a declarative experiment.
///
/// `build` expands the parameters into matrices (empty for pure
/// derivations); `derive` turns the finished reports into artifacts.
/// Both are plain function pointers so the catalog is a `static` array.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Registry name (`harness run --scenario <name>`).
    pub name: &'static str,
    /// The paper artifact this reproduces (e.g. `"Fig. 7a-c"`,
    /// `"Table 1"`, `"§3.3"`).
    pub paper: &'static str,
    /// Dominant job kind: `sim`, `queueing`, `live`, `mixed`, or
    /// `derived` (no jobs at all).
    pub kind: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Approximate `--quick` wall time on one core (catalog metadata for
    /// `harness list`; not measured at run time).
    pub quick_runtime: &'static str,
    /// Sub-figure selectors the scenario accepts for `--part` (empty =
    /// the scenario has no parts and `--part` is rejected).
    pub parts: &'static [&'static str],
    /// Expands the run parameters into the matrices to execute.
    pub build: fn(&ScenarioParams) -> Vec<ScenarioMatrix>,
    /// Turns the finished run into artifacts.
    pub derive: fn(&ScenarioRun) -> Artifacts,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("paper", &self.paper)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// The completed execution of a scenario's matrices, handed to `derive`.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The parameters the run used.
    pub params: ScenarioParams,
    /// One report per matrix, in `build` order.
    pub reports: Vec<SweepReport>,
    /// One wall-clock sidecar per matrix, in `build` order.
    pub timings: Vec<SweepTiming>,
}

impl ScenarioRun {
    /// The report of the named matrix, if that matrix ran (a `--part`
    /// selector may have filtered it out).
    pub fn report(&self, matrix: &str) -> Option<&SweepReport> {
        self.reports.iter().find(|r| r.matrix == matrix)
    }

    /// The report of the named matrix.
    ///
    /// # Panics
    /// Panics when the matrix did not run — a catalog bug (the derive
    /// step and the build step disagree), not a user error.
    pub fn expect_report(&self, matrix: &str) -> &SweepReport {
        self.report(matrix)
            .unwrap_or_else(|| panic!("scenario run has no report for matrix `{matrix}`"))
    }
}

/// Machine-readable artifact payload with a stable rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactBody {
    /// Pretty-printed JSON — byte-identical to the legacy binaries'
    /// `write_json` output for migrated experiments.
    Json(String),
    /// Plain rendered text (Table 1's parameter table).
    Text(String),
    /// Comma-separated values with a header row.
    Csv(String),
    /// A standalone SVG document (`harness plot` charts); rendering is
    /// byte-stable so the file diffs in CI like the JSON artifacts.
    Svg(String),
}

impl ArtifactBody {
    /// The file extension this body serializes under.
    pub fn extension(&self) -> &'static str {
        match self {
            ArtifactBody::Json(_) => "json",
            ArtifactBody::Text(_) => "txt",
            ArtifactBody::Csv(_) => "csv",
            ArtifactBody::Svg(_) => "svg",
        }
    }

    /// The exact bytes written to disk / compared in tests.
    pub fn bytes(&self) -> &str {
        match self {
            ArtifactBody::Json(s)
            | ArtifactBody::Text(s)
            | ArtifactBody::Csv(s)
            | ArtifactBody::Svg(s) => s,
        }
    }
}

/// One named output of a scenario: a machine-readable body plus the
/// human rendering the CLI prints.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File stem (e.g. `"fig7a"` → `fig7a.json`).
    pub name: String,
    /// Machine-readable payload.
    pub body: ArtifactBody,
    /// Fixed-width stdout rendering (may be empty).
    pub display: String,
}

impl Artifact {
    /// A JSON artifact (pretty-printed, the byte-comparable form).
    ///
    /// # Panics
    /// Panics if `value` fails to serialize — catalog artifacts are
    /// plain data, so that is a programming error.
    pub fn json<T: Serialize>(name: impl Into<String>, value: &T, display: String) -> Artifact {
        Artifact {
            name: name.into(),
            body: ArtifactBody::Json(
                serde_json::to_string_pretty(value).expect("artifact serializes"),
            ),
            display,
        }
    }

    /// A plain-text artifact; the body doubles as the display.
    pub fn text(name: impl Into<String>, body: String) -> Artifact {
        Artifact {
            name: name.into(),
            display: body.clone(),
            body: ArtifactBody::Text(body),
        }
    }

    /// A CSV artifact from a header and stringified rows.
    pub fn csv(
        name: impl Into<String>,
        header: &str,
        rows: &[String],
        display: String,
    ) -> Artifact {
        let mut body = String::with_capacity(header.len() + rows.len() * 32);
        body.push_str(header);
        body.push('\n');
        for row in rows {
            body.push_str(row);
            body.push('\n');
        }
        Artifact {
            name: name.into(),
            body: ArtifactBody::Csv(body),
            display,
        }
    }

    /// The artifact's file name (`<name>.<ext>`).
    pub fn file_name(&self) -> String {
        format!("{}.{}", self.name, self.body.extension())
    }
}

/// The full output of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// The artifacts, in catalog order.
    pub items: Vec<Artifact>,
}

impl Artifacts {
    /// Wraps a list of artifacts.
    pub fn new(items: Vec<Artifact>) -> Artifacts {
        Artifacts { items }
    }

    /// The artifact with the given name.
    pub fn get(&self, name: &str) -> Option<&Artifact> {
        self.items.iter().find(|a| a.name == name)
    }

    /// Writes every artifact into `dir` (created if missing), returning
    /// the written paths.
    pub fn write_all(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::with_capacity(self.items.len());
        for artifact in &self.items {
            let path = dir.join(artifact.file_name());
            std::fs::write(&path, artifact.body.bytes())?;
            written.push(path);
        }
        Ok(written)
    }

    /// Prints every artifact's display rendering to stdout.
    pub fn print(&self) {
        for artifact in &self.items {
            if !artifact.display.is_empty() {
                print!("{}", artifact.display);
                if !artifact.display.ends_with('\n') {
                    println!();
                }
            }
        }
    }
}

/// The directory figure artifacts are written to:
/// `<workspace>/target/figures`.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("figures")
}

/// Runs a scenario end to end: builds its matrices with `params`
/// (applying the seed/replication overrides), executes each on `threads`
/// workers, and derives the artifacts.
pub fn run_scenario(
    scenario: &Scenario,
    params: &ScenarioParams,
    threads: usize,
) -> (ScenarioRun, Artifacts) {
    let matrices = build_matrices(scenario, params);
    let mut reports = Vec::with_capacity(matrices.len());
    let mut timings = Vec::with_capacity(matrices.len());
    for matrix in matrices {
        let (report, timing) = crate::run_matrix(&matrix, threads);
        reports.push(report);
        timings.push(timing);
    }
    let run = ScenarioRun {
        params: params.clone(),
        reports,
        timings,
    };
    let artifacts = (scenario.derive)(&run);
    (run, artifacts)
}

/// Checks a `--part` selector against the scenario's declared parts.
/// `Ok` for no selector or a declared one; `Err` with a user-facing
/// message otherwise — a typo'd part must not silently run nothing (or
/// everything).
pub fn validate_part(scenario: &Scenario, params: &ScenarioParams) -> Result<(), String> {
    let Some(part) = params.part.as_deref() else {
        return Ok(());
    };
    if scenario.parts.is_empty() {
        return Err(format!(
            "scenario `{}` has no parts; drop --part",
            scenario.name
        ));
    }
    if !scenario.parts.contains(&part) {
        return Err(format!(
            "scenario `{}` has no part `{part}` (parts: {})",
            scenario.name,
            scenario.parts.join(", ")
        ));
    }
    Ok(())
}

/// Expands a scenario's matrices with every parameter override applied
/// and each matrix tagged with the scenario's name (what `run_scenario`
/// executes; exposed so the CLI can report progress and write each
/// matrix's report as it finishes).
pub fn build_matrices(scenario: &Scenario, params: &ScenarioParams) -> Vec<ScenarioMatrix> {
    (scenario.build)(params)
        .into_iter()
        .map(|mut matrix| {
            matrix.scenario = scenario.name.to_owned();
            if let Some(seed) = params.seed {
                matrix.master_seed = seed;
            }
            if let Some(replications) = params.replications {
                matrix = matrix.replications(replications);
            }
            matrix
        })
        .collect()
}

/// Renders a latency curve as the fixed-width table the figure binaries
/// always printed. `y_unit` labels the latency columns (e.g. `"us"`,
/// `"xS"`); `y_scale` divides the stored nanosecond values into that
/// unit.
pub fn render_curve(curve: &metrics::LatencyCurve, x_label: &str, y_unit: &str, y_scale: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "  series: {}", curve.label);
    let offered_in_mrps = curve.points.iter().any(|p| p.offered_load > 1e4);
    let x_header = if offered_in_mrps {
        "offered (Mrps)".to_owned()
    } else {
        x_label.to_owned()
    };
    let _ = writeln!(
        out,
        "    {:>14} {:>14} {:>12} {:>12}",
        x_header,
        "tput (Mrps)",
        format!("p99 ({y_unit})"),
        format!("mean ({y_unit})")
    );
    for p in &curve.points {
        let x = if offered_in_mrps {
            p.offered_load / 1e6
        } else {
            p.offered_load
        };
        let _ = writeln!(
            out,
            "    {:>14.3} {:>14.3} {:>12.3} {:>12.3}",
            x,
            p.throughput_rps / 1e6,
            p.p99_latency_ns / y_scale,
            p.mean_latency_ns / y_scale
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_requests_matches_legacy_mode_arithmetic() {
        assert_eq!(ScenarioParams::full().effective_requests(100_000), 100_000);
        assert_eq!(ScenarioParams::quick().effective_requests(100_000), 12_500);
        assert_eq!(ScenarioParams::quick().effective_requests(1_000), 5_000);
        let explicit = ScenarioParams {
            quick: true,
            requests: Some(777),
            ..ScenarioParams::default()
        };
        assert_eq!(explicit.effective_requests(100_000), 777);
    }

    #[test]
    fn part_selection() {
        let all = ScenarioParams::full();
        assert!(all.wants_part("a") && all.wants_part("b"));
        let only_b = ScenarioParams {
            part: Some("b".to_owned()),
            ..ScenarioParams::default()
        };
        assert!(!only_b.wants_part("a"));
        assert!(only_b.wants_part("b"));
    }

    #[test]
    fn part_validation() {
        let fig2 = crate::find_scenario("fig2").unwrap();
        let fig8 = crate::find_scenario("fig8").unwrap();
        let with_part = |p: &str| ScenarioParams {
            part: Some(p.to_owned()),
            ..ScenarioParams::default()
        };
        assert!(validate_part(fig2, &ScenarioParams::full()).is_ok());
        assert!(validate_part(fig2, &with_part("b")).is_ok());
        assert!(validate_part(fig2, &with_part("d")).is_err(), "typo'd part");
        assert!(validate_part(fig8, &with_part("a")).is_err(), "no parts");
    }

    #[test]
    fn artifacts_write_and_lookup() {
        let arts = Artifacts::new(vec![
            Artifact::json("t-json", &vec![1, 2, 3], String::new()),
            Artifact::text("t-text", "hello\n".to_owned()),
            Artifact::csv("t-csv", "a,b", &["1,2".to_owned()], String::new()),
        ]);
        assert_eq!(arts.get("t-text").unwrap().file_name(), "t-text.txt");
        assert_eq!(arts.get("t-csv").unwrap().body.bytes(), "a,b\n1,2\n");
        assert!(arts.get("missing").is_none());

        let dir = std::env::temp_dir().join(format!("scenario-artifacts-{}", std::process::id()));
        let written = arts.write_all(&dir).unwrap();
        assert_eq!(written.len(), 3);
        assert_eq!(
            std::fs::read_to_string(dir.join("t-json.json")).unwrap(),
            serde_json::to_string_pretty(&vec![1, 2, 3]).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
