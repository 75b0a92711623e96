//! `harness plot`: deterministic chart rendering into typed
//! [`Artifacts`](crate::Artifacts).
//!
//! Three chart families, both emitted as byte-stable artifact bodies so
//! they diff in CI exactly like report JSON:
//!
//! * **latency-vs-load** ([`latency_artifacts`]): one SVG + text panel
//!   per matrix report, one series per (workload, policy) summary —
//!   the figure's hockey-stick curves;
//! * **trajectory-over-commits** ([`trajectory_artifacts`]): the
//!   [`TrajectoryStore`]'s gated metrics and events/sec across entries,
//!   normalized to the first recorded value so disparate scales share
//!   one axis;
//! * **windowed time series** ([`series_artifacts`]): from a telemetry
//!   series store (`harness run --timeseries`), a per-core occupancy
//!   heatmap over time and a per-window p99 chart per job.
//!
//! Byte stability is the contract: rendering is a pure function of the
//! input structs (no timestamps, no float formatting that depends on
//! locale or hash order), and reports themselves are byte-identical for
//! any `--threads` value — so the plots are too. Golden-file tests pin
//! the exact bytes (`crates/harness/tests/plot_golden.rs`).

use std::fmt::Write as _;

use crate::report::SweepReport;
use crate::scenario::{Artifact, ArtifactBody};
use crate::trajectory::{TrajectoryStore, GATE_INFO};

/// One plotted series: a label and (x, y) points in data coordinates.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

/// Okabe–Ito colorblind-safe categorical palette, cycled per series.
const PALETTE: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#707070",
];

const GLYPHS: [char; 8] = ['o', '+', 'x', '*', '#', '@', '%', '&'];

const WIDTH: f64 = 800.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 72.0;
const MARGIN_R: f64 = 200.0;
const MARGIN_T: f64 = 44.0;
const MARGIN_B: f64 = 52.0;

/// Deterministic short rendering of an axis value.
fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_owned()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.1e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

struct Frame {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
    log_y: bool,
}

impl Frame {
    fn from_series(series: &[Series], log_y: bool) -> Frame {
        let xs = series.iter().flat_map(|s| s.points.iter().map(|p| p.0));
        let ys = series.iter().flat_map(|s| s.points.iter().map(|p| p.1));
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for x in xs {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
        }
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for y in ys {
            if !log_y || y > 0.0 {
                y_min = y_min.min(y);
                y_max = y_max.max(y);
            }
        }
        if !x_min.is_finite() {
            (x_min, x_max) = (0.0, 1.0);
        }
        if !y_min.is_finite() {
            (y_min, y_max) = (if log_y { 1.0 } else { 0.0 }, if log_y { 10.0 } else { 1.0 });
        }
        if !log_y {
            y_min = y_min.min(0.0); // linear charts anchor at zero
        }
        Frame {
            x_min,
            x_max,
            y_min,
            y_max,
            log_y,
        }
    }

    fn x_px(&self, x: f64) -> f64 {
        let span = self.x_max - self.x_min;
        let frac = if span > 0.0 {
            (x - self.x_min) / span
        } else {
            0.5
        };
        MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)
    }

    fn y_frac(&self, y: f64) -> f64 {
        if self.log_y {
            let (lo, hi) = (self.y_min.log10(), self.y_max.log10());
            let span = hi - lo;
            if span > 0.0 {
                (y.max(self.y_min).log10() - lo) / span
            } else {
                0.5
            }
        } else {
            let span = self.y_max - self.y_min;
            if span > 0.0 {
                (y - self.y_min) / span
            } else {
                0.5
            }
        }
    }

    fn y_px(&self, y: f64) -> f64 {
        HEIGHT - MARGIN_B - self.y_frac(y) * (HEIGHT - MARGIN_T - MARGIN_B)
    }

    /// Tick values: powers of ten on a log axis, five even steps on a
    /// linear one.
    fn y_ticks(&self) -> Vec<f64> {
        if self.log_y {
            let lo = self.y_min.log10().floor() as i32;
            let hi = self.y_max.log10().ceil() as i32;
            (lo..=hi).map(|e| 10f64.powi(e)).collect()
        } else {
            (0..=4)
                .map(|i| self.y_min + (self.y_max - self.y_min) * i as f64 / 4.0)
                .collect()
        }
    }

    fn x_ticks(&self) -> Vec<f64> {
        (0..=4)
            .map(|i| self.x_min + (self.x_max - self.x_min) * i as f64 / 4.0)
            .collect()
    }
}

/// Renders a line chart as a standalone SVG document. Pure function of
/// its inputs; every coordinate is formatted with fixed precision, so
/// the output is byte-stable.
pub fn svg_line_chart(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    log_y: bool,
) -> String {
    let frame = Frame::from_series(series, log_y);
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {WIDTH:.0} {HEIGHT:.0}\" \
         font-family=\"Helvetica, Arial, sans-serif\">"
    );
    let _ = writeln!(out, "<rect width=\"{WIDTH:.0}\" height=\"{HEIGHT:.0}\" fill=\"#ffffff\"/>");
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"15\" fill=\"#1a1a1a\">{}</text>",
        MARGIN_L,
        escape_xml(title)
    );

    // Gridlines + tick labels.
    for tick in frame.y_ticks() {
        let y = frame.y_px(tick);
        let _ = writeln!(
            out,
            "<line x1=\"{:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" \
             stroke=\"#e0e0e0\" stroke-width=\"1\"/>",
            MARGIN_L,
            WIDTH - MARGIN_R
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#555555\" \
             text-anchor=\"end\">{}</text>",
            MARGIN_L - 6.0,
            y + 4.0,
            fmt_num(tick)
        );
    }
    for tick in frame.x_ticks() {
        let x = frame.x_px(tick);
        let _ = writeln!(
            out,
            "<text x=\"{x:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#555555\" \
             text-anchor=\"middle\">{}</text>",
            HEIGHT - MARGIN_B + 18.0,
            fmt_num(tick)
        );
    }

    // Axes.
    let _ = writeln!(
        out,
        "<line x1=\"{l:.1}\" y1=\"{t:.1}\" x2=\"{l:.1}\" y2=\"{b:.1}\" stroke=\"#333333\" stroke-width=\"1\"/>",
        l = MARGIN_L,
        t = MARGIN_T,
        b = HEIGHT - MARGIN_B
    );
    let _ = writeln!(
        out,
        "<line x1=\"{l:.1}\" y1=\"{b:.1}\" x2=\"{r:.1}\" y2=\"{b:.1}\" stroke=\"#333333\" stroke-width=\"1\"/>",
        l = MARGIN_L,
        r = WIDTH - MARGIN_R,
        b = HEIGHT - MARGIN_B
    );
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" fill=\"#333333\" \
         text-anchor=\"middle\">{}</text>",
        MARGIN_L + (WIDTH - MARGIN_L - MARGIN_R) / 2.0,
        HEIGHT - 10.0,
        escape_xml(x_label)
    );
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"{:.1}\" font-size=\"12\" fill=\"#333333\" text-anchor=\"middle\" \
         transform=\"rotate(-90 16 {:.1})\">{}</text>",
        MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2.0,
        MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2.0,
        escape_xml(y_label)
    );

    // Series + legend.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        if s.points.len() > 1 {
            let mut path = String::new();
            for (j, (x, y)) in s.points.iter().enumerate() {
                let _ = write!(
                    path,
                    "{}{:.1},{:.1}",
                    if j == 0 { "" } else { " " },
                    frame.x_px(*x),
                    frame.y_px(*y)
                );
            }
            let _ = writeln!(
                out,
                "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\"/>"
            );
        }
        for (x, y) in &s.points {
            let _ = writeln!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.6\" fill=\"{color}\"/>",
                frame.x_px(*x),
                frame.y_px(*y)
            );
        }
        let ly = MARGIN_T + 8.0 + i as f64 * 18.0;
        let _ = writeln!(
            out,
            "<line x1=\"{x1:.1}\" y1=\"{ly:.1}\" x2=\"{x2:.1}\" y2=\"{ly:.1}\" \
             stroke=\"{color}\" stroke-width=\"2.5\"/>",
            x1 = WIDTH - MARGIN_R + 12.0,
            x2 = WIDTH - MARGIN_R + 34.0,
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#1a1a1a\">{}</text>",
            WIDTH - MARGIN_R + 40.0,
            ly + 4.0,
            escape_xml(&s.label)
        );
    }
    out.push_str("</svg>\n");
    out
}

fn escape_xml(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders the same series as a fixed-width character panel (for the
/// `.txt` artifact twin and terminal viewing).
pub fn text_panel(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    const W: usize = 64;
    const H: usize = 16;
    let frame = Frame::from_series(series, false);
    let mut grid = vec![vec![' '; W]; H];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (x, y) in &s.points {
            let xi = (((frame.x_px(*x) - MARGIN_L) / (WIDTH - MARGIN_L - MARGIN_R))
                * (W - 1) as f64)
                .round() as usize;
            let yi = ((1.0 - frame.y_frac(*y)) * (H - 1) as f64).round() as usize;
            grid[yi.min(H - 1)][xi.min(W - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  y: {y_label} [{} .. {}]   x: {x_label} [{} .. {}]",
        fmt_num(frame.y_min),
        fmt_num(frame.y_max),
        fmt_num(frame.x_min),
        fmt_num(frame.x_max)
    );
    for row in &grid {
        out.push_str("  |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(W));
    out.push('\n');
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} = {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

/// Latency-vs-load series for one report: per (workload, policy)
/// summary, p99 latency (µs) against offered load (Mrps when absolute,
/// raw when the matrix sweeps capacity fractions).
pub fn latency_series(report: &SweepReport) -> (Vec<Series>, &'static str) {
    let summaries = report.summaries();
    let absolute = summaries
        .iter()
        .flat_map(|s| s.curve.points.iter())
        .any(|p| p.offered_load > 1e4);
    let x_label = if absolute {
        "offered load (Mrps)"
    } else {
        "offered load (fraction of capacity)"
    };
    let series = summaries
        .iter()
        .map(|s| Series {
            label: format!("{} / {}", s.workload, s.policy),
            points: s
                .curve
                .points
                .iter()
                .map(|p| {
                    let x = if absolute {
                        p.offered_load / 1e6
                    } else {
                        p.offered_load
                    };
                    (x, p.p99_latency_ns / 1e3)
                })
                .collect(),
        })
        .collect();
    (series, x_label)
}

/// The latency-vs-load artifact pair (`<matrix>_latency.svg` / `.txt`)
/// for each matrix report of a scenario run.
pub fn latency_artifacts(reports: &[SweepReport]) -> Vec<Artifact> {
    let mut artifacts = Vec::new();
    for report in reports {
        let (series, x_label) = latency_series(report);
        if series.is_empty() {
            continue;
        }
        let y_values: Vec<f64> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .filter(|v| *v > 0.0)
            .collect();
        let spread = y_values.iter().cloned().fold(0.0, f64::max)
            / y_values.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-12);
        let log_y = spread > 50.0;
        let title = format!(
            "{}: p99 latency vs offered load (seed {})",
            report.matrix, report.master_seed
        );
        let svg = svg_line_chart(&title, x_label, "p99 latency (us)", &series, log_y);
        let txt = text_panel(&title, x_label, "p99 latency (us)", &series);
        artifacts.push(Artifact {
            name: format!("{}_latency", report.matrix),
            body: ArtifactBody::Svg(svg),
            display: String::new(),
        });
        artifacts.push(Artifact {
            name: format!("{}_latency", report.matrix),
            body: ArtifactBody::Text(txt.clone()),
            display: txt,
        });
    }
    artifacts
}

/// Renders `values` as a one-line Unicode sparkline, each value scaled
/// against `max` (values at or above `max` render as the tallest bar;
/// NaN renders as a space). The `harness watch` dashboard's building
/// block, but deterministic enough to golden-pin.
pub fn sparkline(values: &[f64], max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                ' '
            } else if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                let frac = (v / max).min(1.0);
                BARS[((frac * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Shade ramp for the occupancy heatmap: fraction 0..1 to a glyph.
fn shade(frac: f64) -> char {
    const RAMP: [char; 5] = ['·', '░', '▒', '▓', '█'];
    if frac.is_nan() {
        ' '
    } else {
        RAMP[(frac.clamp(0.0, 1.0) * 4.0).round() as usize]
    }
}

/// Grayscale-ish blue fill for the SVG heatmap cell at occupancy `frac`.
fn heat_fill(frac: f64) -> &'static str {
    const FILLS: [&str; 6] = [
        "#f7fbff", "#c6dbef", "#6baed6", "#3182bd", "#08519c", "#04234a",
    ];
    if frac.is_nan() {
        return "#eeeeee";
    }
    FILLS[(frac.clamp(0.0, 1.0) * 5.0).round() as usize]
}

/// Windows-per-column stride so at most `max_cols` columns render.
fn column_stride(windows: usize, max_cols: usize) -> usize {
    windows.div_ceil(max_cols).max(1)
}

/// A file-name-safe version of a series label.
fn sanitize_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('-');
        }
    }
    out
}

/// The per-core occupancy heatmap for one job series: x = time
/// (window index, resampled to ≤ 64 columns), y = core, shade =
/// fraction of that window's samples the core was busy.
pub fn occupancy_heatmap_text(job: &telemetry::JobSeries, interval_ps: u64) -> String {
    const MAX_COLS: usize = 64;
    let cores = job.cores as usize;
    let stride = column_stride(job.windows.len(), MAX_COLS);
    let folded = telemetry::resample(&job.windows, stride as u64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: per-core occupancy (col = {} window(s) of {:.3} ms, {} windows total)",
        job.label,
        stride,
        interval_ps as f64 * 1e-9,
        job.windows.len()
    );
    for core in 0..cores {
        let _ = write!(out, "  core {core:>3} |");
        for w in &folded {
            let frac = if w.samples == 0 {
                f64::NAN
            } else {
                *w.core_busy.get(core).unwrap_or(&0) as f64 / w.samples as f64
            };
            out.push(shade(frac));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  shade: · 0%  ░ 25%  ▒ 50%  ▓ 75%  █ 100% busy");
    out
}

/// The same heatmap as a standalone SVG (fixed-size cells, byte-stable).
pub fn occupancy_heatmap_svg(job: &telemetry::JobSeries, interval_ps: u64) -> String {
    const MAX_COLS: usize = 96;
    const CELL_W: f64 = 8.0;
    const CELL_H: f64 = 14.0;
    const LEFT: f64 = 64.0;
    const TOP: f64 = 36.0;
    let cores = job.cores as usize;
    let stride = column_stride(job.windows.len(), MAX_COLS);
    let folded = telemetry::resample(&job.windows, stride as u64);
    let width = LEFT + folded.len() as f64 * CELL_W + 16.0;
    let height = TOP + cores as f64 * CELL_H + 28.0;
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {width:.0} {height:.0}\" \
         font-family=\"Helvetica, Arial, sans-serif\">"
    );
    let _ = writeln!(out, "<rect width=\"{width:.0}\" height=\"{height:.0}\" fill=\"#ffffff\"/>");
    let _ = writeln!(
        out,
        "<text x=\"{LEFT:.0}\" y=\"22\" font-size=\"13\" fill=\"#1a1a1a\">{}: per-core \
         occupancy over time ({} windows)</text>",
        escape_xml(&job.label),
        job.windows.len()
    );
    for core in 0..cores {
        let y = TOP + core as f64 * CELL_H;
        let _ = writeln!(
            out,
            "<text x=\"{:.0}\" y=\"{:.1}\" font-size=\"10\" fill=\"#555555\" \
             text-anchor=\"end\">core {core}</text>",
            LEFT - 6.0,
            y + CELL_H - 4.0
        );
        for (col, w) in folded.iter().enumerate() {
            let frac = if w.samples == 0 {
                f64::NAN
            } else {
                *w.core_busy.get(core).unwrap_or(&0) as f64 / w.samples as f64
            };
            let _ = writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{y:.1}\" width=\"{CELL_W:.1}\" height=\"{CELL_H:.1}\" \
                 fill=\"{}\"/>",
                LEFT + col as f64 * CELL_W,
                heat_fill(frac)
            );
        }
    }
    let _ = writeln!(
        out,
        "<text x=\"{LEFT:.0}\" y=\"{:.1}\" font-size=\"10\" fill=\"#555555\">time -> \
         (col = {} window(s) of {:.3} ms)</text>",
        TOP + cores as f64 * CELL_H + 16.0,
        stride,
        interval_ps as f64 * 1e-9
    );
    out.push_str("</svg>\n");
    out
}

/// Chart kinds from a series store: per job, an occupancy heatmap
/// (SVG + text) and a per-window p99 line chart (SVG + text panel).
pub fn series_artifacts(store: &telemetry::SeriesStore) -> Vec<Artifact> {
    let interval_ps = store.meta.interval_ps;
    let mut artifacts = Vec::new();
    for (ji, job) in store.jobs.iter().enumerate() {
        let stem = format!("{}_job{ji}_{}", sanitize_label(&store.meta.label), sanitize_label(&job.label));

        let heat_txt = occupancy_heatmap_text(job, interval_ps);
        artifacts.push(Artifact {
            name: format!("{stem}_occupancy"),
            body: ArtifactBody::Svg(occupancy_heatmap_svg(job, interval_ps)),
            display: String::new(),
        });
        artifacts.push(Artifact {
            name: format!("{stem}_occupancy"),
            body: ArtifactBody::Text(heat_txt.clone()),
            display: heat_txt,
        });

        let derived = telemetry::derive_series(&job.windows, interval_ps, job.cores);
        let points: Vec<(f64, f64)> = derived
            .iter()
            .filter(|p| !p.p99_ns.is_nan())
            .map(|p| (p.index as f64, p.p99_ns / 1e3))
            .collect();
        if points.is_empty() {
            continue;
        }
        let series = vec![Series {
            label: job.label.clone(),
            points,
        }];
        let title = format!(
            "{}: p99 latency per {:.3} ms window",
            job.label,
            interval_ps as f64 * 1e-9
        );
        let svg = svg_line_chart(&title, "window index", "p99 latency (us)", &series, false);
        let txt = text_panel(&title, "window index", "p99 latency (us)", &series);
        artifacts.push(Artifact {
            name: format!("{stem}_window_p99"),
            body: ArtifactBody::Svg(svg),
            display: String::new(),
        });
        artifacts.push(Artifact {
            name: format!("{stem}_window_p99"),
            body: ArtifactBody::Text(txt.clone()),
            display: txt,
        });
    }
    artifacts
}

/// Every `(name, gate)` in the store, in first-seen order across all
/// entries — the one scan both the chart legend and the text table rows
/// derive from, so they cannot diverge.
fn metric_names(store: &TrajectoryStore, include_info: bool) -> Vec<(&str, &str)> {
    let mut names: Vec<(&str, &str)> = Vec::new();
    for entry in &store.entries {
        for m in &entry.metrics {
            if (include_info || m.gate != GATE_INFO) && !names.iter().any(|(n, _)| *n == m.name) {
                names.push((&m.name, &m.gate));
            }
        }
    }
    names
}

/// Trajectory series from a store: every gated (non-`info`) metric plus
/// the sidecar events/sec, each normalized to its first recorded value
/// (x = entry index, in append order).
pub fn trajectory_series(store: &TrajectoryStore) -> Vec<Series> {
    let mut series: Vec<Series> = Vec::new();
    for (name, _) in metric_names(store, false) {
        let mut points = Vec::new();
        // Normalize to the first *nonzero* value: a zero in the first
        // entry (e.g. no load point met the SLO yet) must not erase the
        // metric's whole trajectory.
        let mut base = None;
        for (i, entry) in store.entries.iter().enumerate() {
            if let Some(m) = entry.metrics.iter().find(|m| m.name == name) {
                if base.is_none() && m.value != 0.0 {
                    base = Some(m.value);
                }
                if let Some(base) = base {
                    points.push((i as f64, m.value / base));
                }
            }
        }
        if !points.is_empty() {
            series.push(Series {
                label: name.to_owned(),
                points,
            });
        }
    }
    let mut eps = Vec::new();
    let mut first = None;
    for (i, entry) in store.entries.iter().enumerate() {
        if entry.sidecar.events_per_sec > 0.0 {
            let base = *first.get_or_insert(entry.sidecar.events_per_sec);
            eps.push((i as f64, entry.sidecar.events_per_sec / base));
        }
    }
    if !eps.is_empty() {
        series.push(Series {
            label: "sidecar events/sec".to_owned(),
            points: eps,
        });
    }
    series
}

/// The trajectory-over-commits artifact pair
/// (`<scenario>_trajectory.svg` / `.txt`): the chart plus a fixed-width
/// table of every entry (commit, digest, sidecar, each metric).
pub fn trajectory_artifacts(store: &TrajectoryStore) -> Vec<Artifact> {
    let series = trajectory_series(store);
    let commits: Vec<&str> = store.entries.iter().map(|e| e.commit.as_str()).collect();
    let title = format!(
        "{}: benchmark trajectory over {} recorded run(s) [{}]",
        store.scenario,
        store.entries.len(),
        commits.join(", ")
    );
    let svg = svg_line_chart(
        &title,
        "entry (record order)",
        "value relative to first record",
        &series,
        false,
    );

    let mut txt = String::new();
    let _ = writeln!(txt, "{title}");
    let _ = writeln!(
        txt,
        "\n  {:<10} {:>8} {:>9} {:>12} {:>14}  digest",
        "commit", "jobs", "requests", "events(M)", "Mevents/s"
    );
    for e in &store.entries {
        let _ = writeln!(
            txt,
            "  {:<10} {:>8} {:>9} {:>12.2} {:>14.2}  {}",
            e.commit,
            e.jobs,
            e.requests,
            e.sidecar.events as f64 / 1e6,
            e.sidecar.events_per_sec / 1e6,
            if e.measurement_digest.is_empty() {
                "-"
            } else {
                &e.measurement_digest
            }
        );
    }
    let _ = writeln!(txt, "\n  {:<52} {:>7}  values (oldest -> newest)", "metric", "gate");
    for (name, gate) in metric_names(store, true) {
        let values: Vec<String> = store
            .entries
            .iter()
            .map(|e| {
                e.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| fmt_num(m.value))
                    .unwrap_or_else(|| "-".to_owned())
            })
            .collect();
        let _ = writeln!(txt, "  {:<52} {:>7}  {}", name, gate, values.join("  "));
    }

    let name = format!("{}_trajectory", store.scenario);
    vec![
        Artifact {
            name: name.clone(),
            body: ArtifactBody::Svg(svg),
            display: String::new(),
        },
        Artifact {
            name,
            body: ArtifactBody::Text(txt.clone()),
            display: txt,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<Series> {
        vec![
            Series {
                label: "a".to_owned(),
                points: vec![(0.0, 1.0), (1.0, 2.0), (2.0, 8.0)],
            },
            Series {
                label: "b".to_owned(),
                points: vec![(0.0, 3.0), (2.0, 3.5)],
            },
        ]
    }

    #[test]
    fn sparkline_maps_fractions_to_bars() {
        assert_eq!(sparkline(&[0.0, 0.5, 1.0], 1.0), "▁▅█");
        assert_eq!(sparkline(&[f64::NAN, 2.0], 1.0), " █", "NaN blanks, overflow clamps");
        assert_eq!(sparkline(&[1.0, 2.0], 0.0), "▁▁", "zero max degrades to the floor bar");
        assert_eq!(sparkline(&[], 1.0), "");
    }

    #[test]
    fn heatmap_stride_folds_long_series_to_the_column_budget() {
        assert_eq!(column_stride(0, 64), 1);
        assert_eq!(column_stride(64, 64), 1);
        assert_eq!(column_stride(65, 64), 2);
        assert_eq!(column_stride(1000, 64), 16);
        assert!(1000usize.div_ceil(column_stride(1000, 64)) <= 64);
    }

    #[test]
    fn labels_sanitize_to_file_safe_stems() {
        assert_eq!(sanitize_label("1x16 @ 4Mrps"), "1x16---4mrps");
        assert_eq!(sanitize_label("hw_single-t2"), "hw_single-t2");
    }

    #[test]
    fn svg_is_deterministic_and_wellformed() {
        let s = series();
        let one = svg_line_chart("t", "x", "y", &s, false);
        let two = svg_line_chart("t", "x", "y", &s, false);
        assert_eq!(one, two);
        assert!(one.starts_with("<svg "));
        assert!(one.trim_end().ends_with("</svg>"));
        assert_eq!(one.matches("<polyline").count(), 2);
        assert_eq!(one.matches("<circle").count(), 5);
    }

    #[test]
    fn log_axis_uses_power_ticks() {
        let s = vec![Series {
            label: "a".to_owned(),
            points: vec![(0.0, 1.0), (1.0, 1000.0)],
        }];
        let svg = svg_line_chart("t", "x", "y", &s, true);
        for tick in [">1000<", ">100<", ">10.00<", ">1.00<"] {
            assert!(svg.contains(tick), "missing tick {tick}");
        }
    }

    #[test]
    fn xml_escapes_labels() {
        let s = vec![Series {
            label: "a<b&c".to_owned(),
            points: vec![(0.0, 1.0)],
        }];
        let svg = svg_line_chart("t<&>", "x", "y", &s, false);
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(svg.contains("t&lt;&amp;&gt;"));
        assert!(!svg.contains("t<&>"));
    }

    #[test]
    fn text_panel_draws_each_series() {
        let panel = text_panel("t", "x", "y", &series());
        assert!(panel.contains('o') && panel.contains('+'));
        assert!(panel.contains("o = a"));
        assert_eq!(panel, text_panel("t", "x", "y", &series()));
    }

    #[test]
    fn trajectory_series_survives_zero_first_value() {
        use crate::trajectory::{SidecarStats, TrajectoryEntry, TrajectoryMetric, TrajectoryStore};
        let mut store = TrajectoryStore::new("z");
        for (i, v) in [0.0, 5.0, 6.0].into_iter().enumerate() {
            store
                .append(TrajectoryEntry {
                    commit: format!("c{i}"),
                    scenario: "z".to_owned(),
                    schema_version: 1,
                    quick: false,
                    requests: 0,
                    master_seed: 0,
                    jobs: 1,
                    measurement_digest: String::new(),
                    metrics: vec![TrajectoryMetric {
                        name: "m".to_owned(),
                        value: v,
                        gate: "higher".to_owned(),
                    }],
                    sidecar: SidecarStats::unknown(),
                })
                .unwrap();
        }
        let series = trajectory_series(&store);
        assert_eq!(series.len(), 1, "a zero first value must not drop the metric");
        // Base is the first nonzero value (5.0) at entry index 1.
        assert_eq!(series[0].points, vec![(1.0, 1.0), (2.0, 1.2)]);
    }

    #[test]
    fn fmt_num_is_compact() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(19.6e6), "2.0e7");
        assert_eq!(fmt_num(843.5), "844");
        assert_eq!(fmt_num(2.5), "2.50");
        assert_eq!(fmt_num(0.35), "0.350");
        assert_eq!(fmt_num(0.0001), "1.0e-4");
    }
}
