//! # detlint — workspace determinism & unsafe-hygiene analyzer
//!
//! Every result in this reproduction rests on one invariant: simulation
//! reports, trace stores, and series stores are **byte-identical for any
//! `--threads` value**. Until now that invariant
//! was enforced only by runtime byte-compares in CI — which catch a
//! violation *after* it ships and say nothing about where it came from.
//! `detlint` moves the obligation to lint time: it lexes every Rust
//! source file in the workspace (hand-rolled [`lexer`] — no `syn`,
//! consistent with the offline `compat/` constraint), assigns each file
//! a [stratum](config::Stratum) from the checked-in `detlint.toml`, and
//! matches token-sequence [`rules`] against it:
//!
//! * **D001–D004** — determinism hazards (wall-clock reads, hash-ordered
//!   containers, thread/environment identity, ad-hoc RNG seeding);
//! * **U001–U002** — unsafe-hygiene (every `unsafe` block and
//!   `unsafe impl` must carry an adjacent `// SAFETY:` comment);
//! * **W001** — malformed waivers.
//!
//! Findings are suppressible only via
//! `// detlint: allow(RULE, reason = "…")` with a mandatory reason.
//! The `detlint` binary (and the tier-1 `tests/detlint_clean.rs` gate)
//! exits non-zero on any unwaived finding, so the tree stays at zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use config::{Config, Stratum};
pub use rules::{check_source, FileReport, Finding, Waived, RULES};

/// Aggregated outcome of a workspace sweep.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unwaived findings, in (file, line) order — these fail the build.
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons, in (file, line) order.
    pub waived: Vec<Waived>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the sweep is clean (waivers are allowed; findings are
    /// not).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report: one line per finding, a waiver summary,
    /// and a verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}", f.render());
        }
        if !self.findings.is_empty() {
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s) scanned, {} finding(s), {} waived",
            self.files_scanned,
            self.findings.len(),
            self.waived.len()
        );
        out
    }

    /// Machine-readable report (hand-rolled JSON; the analyzer is
    /// dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let finding_obj = |f: &Finding| {
            format!(
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            )
        };
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "\n    " } else { ",\n    " };
            out.push_str(sep);
            out.push_str(&finding_obj(f));
        }
        out.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"waived\": [");
        for (i, w) in self.waived.iter().enumerate() {
            let sep = if i == 0 { "\n    " } else { ",\n    " };
            out.push_str(sep);
            let _ = write!(
                out,
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&w.finding.file),
                w.finding.line,
                json_str(w.finding.rule),
                json_str(&w.reason)
            );
        }
        out.push_str(if self.waived.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A sweep failure (I/O or config).
#[derive(Debug)]
pub enum Error {
    /// `detlint.toml` was missing or unreadable.
    Config(String),
    /// A source file could not be read.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "{msg}"),
            Error::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for Error {}

/// Collects every `.rs` file under `root` (skipping `target/` and
/// dot-directories), as workspace-relative `/`-separated paths, sorted —
/// the sweep's order, and therefore its report, is deterministic by
/// construction.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, Error> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| Error::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::Io(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Loads `detlint.toml` from `root`.
pub fn load_config(root: &Path) -> Result<Config, Error> {
    let path = root.join("detlint.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        Error::Config(format!(
            "{}: {e} (detlint needs the checked-in stratum map)",
            path.display()
        ))
    })?;
    config::parse(&text).map_err(|e| Error::Config(e.to_string()))
}

/// Sweeps the whole workspace rooted at `root` using its `detlint.toml`.
pub fn run_workspace(root: &Path) -> Result<Report, Error> {
    run_workspace_with(root, &load_config(root)?)
}

/// [`run_workspace`] under an explicit `config`. A `[strata]` prefix
/// that matches no scanned file is a config error: the map must
/// describe the tree as it is.
pub fn run_workspace_with(root: &Path, config: &Config) -> Result<Report, Error> {
    let files: Vec<String> = workspace_files(root)?
        .into_iter()
        .filter(|f| !config.excluded(f))
        .collect();
    let stale = config.unmatched_prefixes(&files);
    if !stale.is_empty() {
        return Err(Error::Config(format!(
            "detlint.toml: [strata] prefix(es) match no scanned file: {} (prune them — a stale \
             entry silently exempts whatever is later created there)",
            stale.join(", ")
        )));
    }
    run_files(root, config, &files)
}

/// Sweeps an explicit list of workspace-relative files.
///
/// The `exclude` list is *not* applied here: a file named explicitly is
/// scanned even if a workspace sweep would skip it (that's how the rule
/// fixtures check themselves). Callers walking the tree filter with
/// [`Config::excluded`] first, as [`run_workspace_with`] does.
pub fn run_files(root: &Path, config: &Config, files: &[String]) -> Result<Report, Error> {
    let mut report = Report::default();
    for rel in files {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).map_err(|e| Error::Io(path.clone(), e))?;
        let stratum = config.stratum_for(rel);
        let file_report = check_source(rel, &src, stratum);
        report.findings.extend(file_report.findings);
        report.waived.extend(file_report.waived);
        report.files_scanned += 1;
    }
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.waived.sort_by(|a, b| {
        (&a.finding.file, a.finding.line).cmp(&(&b.finding.file, b.finding.line))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_stratum_prefix_is_a_config_error() {
        // This crate's own directory as the tree: `src` exists,
        // `benches` does not.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut config = Config {
            exclude: vec!["tests/fixtures".to_owned()],
            ..Config::default()
        };
        config.strata.push(("src".to_owned(), Stratum::Cli));
        assert!(run_workspace_with(root, &config).is_ok());
        config.strata.push(("benches".to_owned(), Stratum::Cli));
        match run_workspace_with(root, &config) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("match no scanned file: benches "), "{msg}")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_renders_both_shapes() {
        let report = Report {
            findings: vec![Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "D001",
                message: "`Instant::now()` in a deterministic stratum".into(),
            }],
            waived: vec![Waived {
                finding: Finding {
                    file: "b.rs".into(),
                    line: 9,
                    rule: "D002",
                    message: "m".into(),
                },
                reason: "never iterated".into(),
            }],
            files_scanned: 2,
        };
        let text = report.render_text();
        assert!(text.contains("a.rs:3: D001"));
        assert!(text.contains("2 file(s) scanned, 1 finding(s), 1 waived"));
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"D001\""));
        assert!(json.contains("\"reason\": \"never iterated\""));
        assert!(!report.clean());
        assert!(Report::default().clean());
    }
}
