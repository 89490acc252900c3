//! `jem timeline`: inspect, export, and compare `.jts` sim-time-series
//! timelines.
//!
//! `--series` restricts the output to one series (repeatable; default:
//! all series) and `--window a:b` to samples with sim-time in `[a, b]`
//! sim-ms. One mode at most:
//! - none: a human summary (cadence, segments, samples, per-series
//!   window-end values);
//! - `--csv`: `segment,t_ns,<series…>` rows;
//! - `--json`: the `jem-timeline/v1` document, validated first against
//!   the JSON Schema `--schema` names, if any;
//! - `--sparkline`: one unicode sparkline per selected series;
//! - `--overlay <b.jts>`: A/B comparison, window-end values and deltas
//!   per series against a second timeline;
//! - `--follow`: tail a growing `.jts` (a live run started with
//!   `--flush-every`), streaming each decoded sample as a CSV row every
//!   `--refresh` wall-clock ms (default 500) until the footer lands.
//!   `jem top run.jts` is the dashboard over the same file.
//!
//! The first four write to stdout, or atomically to `--out <path>`.
//! All output is deterministic: the same `.jts` input yields
//! byte-identical output, so CI can diff exports across runs. Values
//! are printed with Rust's shortest-roundtrip float formatting —
//! re-parsing a CSV or JSON export recovers the sampled values
//! bit-for-bit.
//!
//! Label-coded series (`channel.*`, `breaker.state`) export their
//! label *ids* in CSV (plottable), and both id and label text in JSON
//! via the document's `labels` table.
//!
//! The `jem-timeline/v1` JSON document is validated in CI against
//! `schemas/timeline.schema.json`; per segment it carries parallel
//! arrays: `times` plus `values` (one inner array per selected series,
//! in `series` order).

use crate::{drain, load, one_input, schema_errors, usage_error, window, write_out};
use jem_bench::{arg_flag, arg_parse, arg_str, arg_values, Flag};
use jem_obs::timeline::{series_is_label, series_names};
use jem_obs::tui::spark_row;
use jem_obs::{JtsReader, Timeline};
use std::process::ExitCode;

const SELECT: &[Flag] = &[("--series", true), ("--window", true)];
const MODES: [&[Flag]; 5] = [
    &[("--csv", false), ("--out", true)],
    &[("--json", false), ("--out", true), ("--schema", true)],
    &[("--sparkline", false), ("--out", true)],
    &[("--overlay", true)],
    &[("--follow", false), ("--refresh", true)],
];
const SUMMARY: &[Flag] = &[("--out", true)];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut modes = MODES.iter().filter(|m| arg_flag(args, m[0].0));
    let mode = modes.next().copied();
    if modes.next().is_some() {
        usage_error("--csv, --json, --sparkline, --overlay and --follow are mutually exclusive");
    }
    let path = one_input(args, &[SELECT, mode.unwrap_or(SUMMARY)], "a .jts timeline");
    let series = arg_values(args, &[SELECT], "--series");
    let win_ns = window(args);
    let in_window = |t: f64| win_ns.is_none_or(|(a, b)| t >= a && t <= b);

    if arg_flag(args, "--follow") {
        // The follower checks the file header carries exactly the
        // static series catalogue.
        let catalogue = series_names();
        let selected = select(&catalogue, &series);
        return follow(
            &path,
            &catalogue,
            &selected,
            in_window,
            arg_parse(args, "--refresh", 500),
        );
    }

    let tl = read(&path)?;
    let selected = select(&tl.series, &series);
    if let Some(b_path) = arg_str(args, "--overlay") {
        let other = read(&b_path)?;
        render_overlay(&tl, &path, &other, &b_path, &selected, win_ns);
        return Ok(ExitCode::SUCCESS);
    }

    let rendered = if arg_flag(args, "--csv") {
        render_csv(&tl, &selected, &in_window)
    } else if arg_flag(args, "--json") {
        let doc = tl.export_json(&selected, in_window);
        if let Some(schema) = arg_str(args, "--schema") {
            let errors = schema_errors(&doc, &schema)?;
            if !errors.is_empty() {
                return Err(format!(
                    "output fails schema validation: {}",
                    errors.join("; ")
                ));
            }
            eprintln!("jem timeline: output validates against {schema}");
        }
        format!("{}\n", doc.render_pretty())
    } else if arg_flag(args, "--sparkline") {
        render_sparklines(&tl, &selected, &in_window)
    } else {
        render_summary(&tl, &path, &selected, win_ns)
    };
    match arg_str(args, "--out") {
        Some(out) => {
            write_out(&out, rendered.as_bytes())?;
            eprintln!("wrote {out}");
        }
        None => print!("{rendered}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn read(path: &str) -> Result<Timeline, String> {
    Timeline::read(&load(path)?.1).map_err(|e| format!("{path}: {e}"))
}

/// The column of each `wanted` series in `catalogue` (default: all);
/// an unknown name exits 2 listing the available ones.
fn select(catalogue: &[String], wanted: &[String]) -> Vec<usize> {
    if wanted.is_empty() {
        return (0..catalogue.len()).collect();
    }
    let column = |name: &String| {
        catalogue.iter().position(|s| s == name).unwrap_or_else(|| {
            usage_error(format!(
                "unknown series '{name}'; available:\n  {}",
                catalogue.join("\n  ")
            ))
        })
    };
    wanted.iter().map(column).collect()
}

/// CSV export: one row per kept sample, label series as numeric ids.
fn render_csv(tl: &Timeline, selected: &[usize], in_window: &dyn Fn(f64) -> bool) -> String {
    let mut out = String::from("segment,t_ns");
    for &idx in selected {
        out.push(',');
        out.push_str(&tl.series[idx]);
    }
    out.push('\n');
    for (si, seg) in tl.segments.iter().enumerate() {
        for (row, t) in seg.times.iter().enumerate() {
            if !in_window(*t) {
                continue;
            }
            out.push_str(&format!("{si},{t}"));
            for &idx in selected {
                out.push_str(&format!(",{}", seg.cols[idx][row]));
            }
            out.push('\n');
        }
    }
    out
}

/// One sparkline per series over the concatenated in-window samples
/// (row format shared with `jem top` via [`jem_obs::tui`]).
fn render_sparklines(tl: &Timeline, selected: &[usize], in_window: &dyn Fn(f64) -> bool) -> String {
    let mut out = String::new();
    let width = tl.series.iter().map(String::len).max().unwrap_or(0);
    for &idx in selected {
        let vals: Vec<f64> = tl
            .segments
            .iter()
            .flat_map(|seg| {
                seg.times
                    .iter()
                    .zip(&seg.cols[idx])
                    .filter(|(t, _)| in_window(**t))
                    .map(|(_, v)| *v)
            })
            .collect();
        out.push_str(&spark_row(&tl.series[idx], width, &vals));
        out.push('\n');
    }
    out
}

/// `--follow`: stream each decoded sample as a CSV row as the writer
/// flushes them; exit when the footer lands.
fn follow(
    path: &str,
    catalogue: &[String],
    selected: &[usize],
    in_window: impl Fn(f64) -> bool,
    refresh_ms: u64,
) -> Result<ExitCode, String> {
    let at = |e: String| format!("{path}: {e}");
    let mut follower = JtsReader::follow(path).map_err(at)?;
    let mut header = String::from("segment,t_ns");
    for &idx in selected {
        header.push(',');
        header.push_str(&catalogue[idx]);
    }
    println!("{header}");
    let row = |s: jem_obs::JtsSample| {
        if !in_window(s.t) {
            return;
        }
        let mut row = format!("{},{}", s.segment, s.t);
        for &idx in selected {
            row.push_str(&format!(",{}", s.vals[idx]));
        }
        println!("{row}");
    };
    while !drain(|| follower.poll(), row).map_err(at)? {
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
    Ok(ExitCode::SUCCESS)
}

/// Human summary: file shape plus per-series window-end values.
fn render_summary(
    tl: &Timeline,
    path: &str,
    selected: &[usize],
    win_ns: Option<(f64, f64)>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{path}: {} segments, {} samples, {} series, cadence {} sim-ns\n",
        tl.segments.len(),
        tl.samples(),
        tl.series.len(),
        tl.sample_every_ns
    ));
    if let Some((a, b)) = win_ns {
        out.push_str(&format!("window: [{a}, {b}] sim-ns\n"));
    }
    let width = tl.series.iter().map(String::len).max().unwrap_or(0);
    for (si, seg) in tl.segments.iter().enumerate() {
        let end = win_ns.map_or(seg.end_t, |(_, b)| b.min(seg.end_t));
        out.push_str(&format!("segment {si} (end {} sim-ns):\n", seg.end_t));
        for &idx in selected {
            let v = seg.value_at(idx, end);
            if series_is_label(idx) {
                let label = tl.labels.get(v as usize).map_or("?", String::as_str);
                out.push_str(&format!("  {:<width$}  {label}\n", tl.series[idx]));
            } else {
                out.push_str(&format!("  {:<width$}  {v}\n", tl.series[idx]));
            }
        }
    }
    out
}

/// A/B comparison: window-end value per series from each file, with
/// the B−A delta for numeric series.
fn render_overlay(
    a: &Timeline,
    a_path: &str,
    b: &Timeline,
    b_path: &str,
    selected: &[usize],
    win_ns: Option<(f64, f64)>,
) {
    let end_of = |tl: &Timeline, seg: usize| -> f64 {
        let end = tl.segments[seg].end_t;
        win_ns.map_or(end, |(_, w)| w.min(end))
    };
    let segs = a.segments.len().min(b.segments.len());
    if a.segments.len() != b.segments.len() {
        println!(
            "note: segment count differs (A={}, B={}); comparing the first {segs}",
            a.segments.len(),
            b.segments.len()
        );
    }
    let width = a.series.iter().map(String::len).max().unwrap_or(0);
    for seg in 0..segs {
        println!("segment {seg}: A={a_path} B={b_path}");
        for &idx in selected {
            let name = &a.series[idx];
            // Match by name, not index, so overlays survive future
            // series reordering between file versions.
            let Some(b_idx) = b.series_index(name) else {
                println!("  {name:<width$}  (missing in B)");
                continue;
            };
            let va = a.segments[seg].value_at(idx, end_of(a, seg));
            let vb = b.segments[seg].value_at(b_idx, end_of(b, seg));
            if series_is_label(idx) {
                let la = a.labels.get(va as usize).map_or("?", String::as_str);
                let lb = b.labels.get(vb as usize).map_or("?", String::as_str);
                let marker = if la == lb { "" } else { "  *" };
                println!("  {name:<width$}  A={la} B={lb}{marker}");
            } else {
                println!("  {name:<width$}  A={va} B={vb} delta={}", vb - va);
            }
        }
    }
}
