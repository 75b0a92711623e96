//! Runs workloads in child processes: every workload once (no
//! `--workload`), or `--aa N` sets of the same code back to back with
//! the spread of each end-to-end metric held against its bound.
//!
//! A child per run, because `peak_rss_mb` and `setup_s` belong to a
//! process: two workloads in one process would share a high-water mark.

use std::fs;
use std::io::{self, Write};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::estim::median;
use crate::Workload;

/// The metrics of a child's result line, in its order.
fn child_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let value: Value = serde_json::from_str(line).ok()?;
    let Value::Object(metrics) = value.get("metrics")? else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| match m.get("value")? {
            Value::Number(n) => Some((name.clone(), n.as_f64())),
            _ => None,
        })
        .collect()
}

/// `(name, bound)` of each end-to-end metric in `./BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let parsed = fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let Some(Value::Array(metrics)) = parsed.as_ref().and_then(|v| v.get("end_to_end")) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|m| match (m.get("name")?, m.get("bound")?) {
            (Value::String(name), Value::Number(bound)) => Some((name.clone(), bound.as_f64())),
            _ => None,
        })
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the driver's own spread.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

pub fn run(
    sets: usize,
    only: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<u64> {
    let exe = std::env::current_exe()?;
    let workloads: Vec<&str> = Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
        .map(Workload::name)
        .collect();
    // values[workload][metric] = one value per set.
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); workloads.len()];
    let mut problems = 0u64;
    for set in 0..sets {
        for (w, workload) in workloads.iter().enumerate() {
            let child_seed = seed + set as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &child_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let metrics = stdout.lines().last().and_then(child_metrics);
            if sets == 1 {
                print!("{stdout}");
            } else {
                let shown: Vec<String> = metrics
                    .iter()
                    .flatten()
                    .map(|(name, value)| format!("{name} {value:.4}"))
                    .collect();
                println!(
                    "set {set} {workload} seed {child_seed}: {}",
                    shown.join("  ")
                );
            }
            io::stdout().flush()?;
            problems += !output.status.success() as u64;
            for (name, value) in metrics.into_iter().flatten() {
                match values[w].iter_mut().find(|(n, _)| *n == name) {
                    Some((_, series)) => series.push(value),
                    None => values[w].push((name, vec![value])),
                }
            }
        }
    }
    if sets < 2 || traced {
        return Ok(problems);
    }

    let bounds = bounds();
    println!();
    println!("A/A over {sets} sets of the same code, {seconds} s each, seeds {seed}..");
    println!(
        "{:<12} {:<12} {:>12} {:>8} {:>7}  {:<8} values",
        "workload", "metric", "median", "spread", "bound", "verdict"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (name, series) in &values[w] {
            let mid = median(series);
            // The driver's spread wants quartiles; below four sets
            // there are none worth the name, so the range stands in.
            let spread = if series.len() >= 4 {
                let (q1, q3) = quartiles(series);
                (q3 - q1) / mid
            } else {
                let max = series.iter().copied().fold(f64::MIN, f64::max);
                let min = series.iter().copied().fold(f64::MAX, f64::min);
                (max - min) / mid
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            // The driver does not hold the spread of set-up time against
            // its bound, only the drift between two sets of runs.
            let verdict = match bound {
                None => "no bound",
                Some(_) if name == "setup_s" => "ungated",
                Some(b) if spread <= b => "PASS",
                Some(_) => {
                    problems += 1;
                    "FAIL"
                }
            };
            let shown: Vec<String> = series.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{workload:<12} {name:<12} {mid:>12.4} {:>7.2}% {:>6}%  {verdict:<8} {}",
                spread * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.0}", b * 100.0)),
                shown.join(" ")
            );
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let v = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];
        assert_eq!(quartiles(&v), (3.5, 160.0));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), (12.5, 37.5));
    }

    #[test]
    fn result_line_round_trips() {
        let line = crate::result_line(7, 0, &[("p50_us", 73.25, "us"), ("setup_s", 0.5, "s")]);
        let metrics = child_metrics(&line).expect("parses");
        assert_eq!(
            metrics,
            vec![("p50_us".to_owned(), 73.25), ("setup_s".to_owned(), 0.5)]
        );
    }
}
