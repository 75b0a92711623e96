//! `detlint.toml`: the checked-in stratum map.
//!
//! The analyzer's central idea is that determinism is a *property of a
//! place in the tree*, declared once, rather than rediscovered per
//! finding. The workspace root carries a `detlint.toml` that assigns
//! every path a [`Stratum`]:
//!
//! * `deterministic` — code whose outputs must be byte-identical across
//!   `--threads` values and machines (the simulator,
//!   the models, report/digest/serialization paths). All rules apply.
//! * `wall-clock` — code that legitimately reads real time or real
//!   machine state (live serving, capture transport, timing sidecars).
//!   Wall-clock reads are allowed; ordering and identity hazards are
//!   still checked.
//! * `cli` — binaries, tests, benches, and offline `compat/` shims:
//!   argument parsing, environment reads, and ad-hoc seeding are their
//!   job. Only the unsafe-hygiene rules apply.
//!
//! The file is a small TOML subset (this crate is dependency-free):
//! `[section]` headers, `key = "string"`, and
//! `key = ["array", "of", "strings"]` on one line. Keys may be quoted.
//! Path keys are `/`-separated prefixes relative to the workspace root;
//! the **longest matching prefix wins**, so a file-level override beats
//! its crate's assignment.

use std::fmt;

/// The determinism obligation of a region of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stratum {
    /// Byte-identical outputs required; every rule applies.
    Deterministic,
    /// Real-time reads allowed; ordering/identity rules still apply.
    WallClock,
    /// Binaries/tests/benches; only unsafe-hygiene rules apply.
    Cli,
}

impl Stratum {
    fn parse(s: &str) -> Option<Stratum> {
        match s {
            "deterministic" => Some(Stratum::Deterministic),
            "wall-clock" => Some(Stratum::WallClock),
            "cli" => Some(Stratum::Cli),
            _ => None,
        }
    }
}

impl fmt::Display for Stratum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stratum::Deterministic => "deterministic",
            Stratum::WallClock => "wall-clock",
            Stratum::Cli => "cli",
        })
    }
}

/// Parsed `detlint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stratum for paths no prefix matches.
    pub default: Stratum,
    /// Path prefixes excluded from the sweep entirely (rule fixtures,
    /// build output).
    pub exclude: Vec<String>,
    /// `(path prefix, stratum)` assignments; longest prefix wins.
    pub strata: Vec<(String, Stratum)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            default: Stratum::Deterministic,
            exclude: Vec::new(),
            strata: Vec::new(),
        }
    }
}

/// A `detlint.toml` parse failure, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Line the error was detected on.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "detlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Splits `key = value`, unquoting the key if quoted.
fn split_assignment(line: &str) -> Option<(String, &str)> {
    let eq = find_unquoted(line, '=')?;
    let key = line[..eq].trim();
    let value = line[eq + 1..].trim();
    let key = key
        .strip_prefix('"')
        .and_then(|k| k.strip_suffix('"'))
        .unwrap_or(key);
    Some((key.to_owned(), value))
}

/// Position of `needle` outside any `"…"` span.
fn find_unquoted(line: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            c if c == needle && !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

/// Strips a trailing `# comment` (quote-aware).
fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_string(value: &str, line_no: u32) -> Result<String, ConfigError> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| err(line_no, format!("expected a quoted string, got `{v}`")))
}

fn parse_string_array(value: &str, line_no: u32) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(line_no, format!("expected a one-line [\"…\"] array, got `{v}`")))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item, line_no))
        .collect()
}

/// Parses the config text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_owned();
            if section != "detlint" && section != "strata" {
                return Err(err(line_no, format!("unknown section `[{section}]`")));
            }
            continue;
        }
        let (key, value) = split_assignment(line)
            .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
        match section.as_str() {
            "detlint" => match key.as_str() {
                "default" => {
                    let s = parse_string(value, line_no)?;
                    config.default = Stratum::parse(&s)
                        .ok_or_else(|| err(line_no, format!("unknown stratum `{s}`")))?;
                }
                "exclude" => config.exclude = parse_string_array(value, line_no)?,
                other => return Err(err(line_no, format!("unknown key `{other}` in [detlint]"))),
            },
            "strata" => {
                let s = parse_string(value, line_no)?;
                let stratum = Stratum::parse(&s)
                    .ok_or_else(|| err(line_no, format!("unknown stratum `{s}`")))?;
                config.strata.push((normalize(&key), stratum));
            }
            _ => {
                return Err(err(
                    line_no,
                    format!("`{key}` outside a [detlint]/[strata] section"),
                ))
            }
        }
    }
    Ok(config)
}

/// Normalizes a path to forward slashes with no leading `./`.
fn normalize(path: &str) -> String {
    let p = path.replace('\\', "/");
    p.strip_prefix("./").unwrap_or(&p).to_owned()
}

/// True when `path` starts with `prefix` on a path-component boundary
/// (`crates/ring` matches `crates/ring/src/lib.rs` but not
/// `crates/ring2/...`).
fn prefix_matches(prefix: &str, path: &str) -> bool {
    path.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

impl Config {
    /// The stratum governing `path` (workspace-relative, `/`-separated):
    /// the longest matching prefix, or the default.
    pub fn stratum_for(&self, path: &str) -> Stratum {
        let path = normalize(path);
        self.strata
            .iter()
            .filter(|(prefix, _)| prefix_matches(prefix, &path))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, s)| *s)
            .unwrap_or(self.default)
    }

    /// The `[strata]` prefixes that govern none of `files`. A stale
    /// entry is not harmless: a *laxer* one silently exempts whatever
    /// file is later created under it.
    pub fn unmatched_prefixes(&self, files: &[String]) -> Vec<&str> {
        self.strata
            .iter()
            .map(|(prefix, _)| prefix.as_str())
            .filter(|prefix| !files.iter().any(|f| prefix_matches(prefix, &normalize(f))))
            .collect()
    }

    /// True when `path` falls under an `exclude` prefix.
    pub fn excluded(&self, path: &str) -> bool {
        let path = normalize(path);
        self.exclude
            .iter()
            .any(|prefix| prefix_matches(&normalize(prefix), &path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# the workspace stratum map
[detlint]
default = "deterministic"
exclude = ["target", "crates/detlint/tests/fixtures"]

[strata]
"compat" = "cli"                       # offline stand-ins
"crates/live/src" = "wall-clock"
"crates/live/tests" = "cli"
"crates/harness/src/pool.rs" = "wall-clock"
"#;

    #[test]
    fn parses_sections_defaults_and_arrays() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.default, Stratum::Deterministic);
        assert_eq!(c.exclude.len(), 2);
        assert_eq!(c.strata.len(), 4);
    }

    #[test]
    fn longest_prefix_wins() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.stratum_for("crates/live/src/server.rs"), Stratum::WallClock);
        assert_eq!(c.stratum_for("crates/live/tests/loopback.rs"), Stratum::Cli);
        assert_eq!(c.stratum_for("crates/simkit/src/engine.rs"), Stratum::Deterministic);
        assert_eq!(c.stratum_for("compat/rand/src/lib.rs"), Stratum::Cli);
        assert_eq!(
            c.stratum_for("crates/harness/src/pool.rs"),
            Stratum::WallClock,
            "file-level override"
        );
    }

    #[test]
    fn prefixes_match_on_component_boundaries() {
        let mut c = Config::default();
        c.strata.push(("crates/ring".to_owned(), Stratum::Cli));
        assert_eq!(c.stratum_for("crates/ring/src/lib.rs"), Stratum::Cli);
        assert_eq!(c.stratum_for("crates/ring2/src/lib.rs"), Stratum::Deterministic);
    }

    #[test]
    fn exclusion() {
        let c = parse(SAMPLE).unwrap();
        assert!(c.excluded("target/release/foo.rs"));
        assert!(c.excluded("crates/detlint/tests/fixtures/d001.rs"));
        assert!(!c.excluded("crates/detlint/tests/rules.rs"));
    }

    #[test]
    fn errors_carry_lines() {
        assert!(parse("[nope]").unwrap_err().message.contains("unknown section"));
        assert_eq!(parse("\n\ngarbage").unwrap_err().line, 3);
        assert!(parse("[strata]\n\"x\" = \"fast\"")
            .unwrap_err()
            .message
            .contains("unknown stratum"));
        assert!(parse("[detlint]\ndefault = 3").unwrap_err().message.contains("quoted"));
    }
}
