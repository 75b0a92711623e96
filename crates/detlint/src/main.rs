//! `detlint` CLI: sweep the workspace (or explicit files) and exit
//! non-zero on any unwaived finding.
//!
//! ```text
//! detlint --workspace [--json] [--root PATH] [--config PATH]
//! detlint [--json] [--root PATH] [--config PATH] FILE.rs [FILE.rs ...]
//! detlint --rules
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{config, run_files, run_workspace_with, Error, Report, RULES};

struct Cli {
    workspace: bool,
    json: bool,
    rules: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    files: Vec<String>,
}

const USAGE: &str = "usage: detlint (--workspace | FILE.rs ...) [--json] [--root PATH] [--config PATH]
       detlint --rules

Determinism & unsafe-hygiene analyzer for this workspace.

  --workspace    sweep every .rs file under the workspace root
  --json         machine-readable report instead of human-readable
  --rules        list the rule catalogue and exit
  --root PATH    workspace root (default: nearest ancestor with detlint.toml)
  --config PATH  stratum map (default: <root>/detlint.toml)

Exits 0 when clean (waived findings allowed), 1 on unwaived findings,
2 on usage/config/I-O errors.";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workspace: false,
        json: false,
        rules: false,
        root: None,
        config: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => cli.workspace = true,
            "--json" => cli.json = true,
            "--rules" => cli.rules = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                cli.root = Some(PathBuf::from(v));
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a path")?;
                cli.config = Some(PathBuf::from(v));
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => cli.files.push(file.to_owned()),
        }
    }
    if !cli.rules && !cli.workspace && cli.files.is_empty() {
        return Err("nothing to do: pass --workspace or at least one file".to_owned());
    }
    if cli.workspace && !cli.files.is_empty() {
        return Err("--workspace and explicit files are mutually exclusive".to_owned());
    }
    Ok(cli)
}

/// Nearest ancestor of the current directory containing `detlint.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("detlint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run(cli: &Cli) -> Result<Report, Error> {
    let root = match &cli.root {
        Some(r) => r.clone(),
        None => find_root().ok_or_else(|| {
            Error::Config(
                "no detlint.toml found in this or any parent directory (use --root)".to_owned(),
            )
        })?,
    };
    let config = match &cli.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Error::Config(format!("{}: {e}", path.display())))?;
            config::parse(&text).map_err(|e| Error::Config(e.to_string()))?
        }
        None => detlint::load_config(&root)?,
    };
    // Excludes (and the stale-prefix check) apply to the workspace walk
    // only; a file named explicitly on the command line is always
    // scanned.
    if cli.workspace {
        run_workspace_with(&root, &config)
    } else {
        run_files(&root, &config, &cli.files)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("detlint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.rules {
        for (rule, summary) in RULES {
            println!("{rule}  {summary}");
        }
        return ExitCode::SUCCESS;
    }
    match run(&cli) {
        Ok(report) => {
            if cli.json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("detlint: {e}");
            ExitCode::from(2)
        }
    }
}
