//! Minimal plain-ANSI terminal rendering helpers shared by the
//! `jem top` live dashboard and `jem timeline --sparkline`.
//!
//! Everything here is pure string formatting: no terminal probing, no
//! raw mode, no external crates. Callers print the returned strings
//! and, for refresh-loop UIs, prefix each frame with [`CLEAR_HOME`].

/// The 8-step unicode block ramp used for sparklines.
pub const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Sparklines are resampled down to at most this many cells.
pub const SPARK_WIDTH: usize = 64;

/// ANSI: move the cursor home and clear to end of screen. Clearing
/// forward (rather than `2J`) repaints in place without flicker.
pub const CLEAR_HOME: &str = "\x1b[H\x1b[J";

/// ANSI bold on/off wrappers for headings.
pub const BOLD: &str = "\x1b[1m";
/// Reset all ANSI attributes.
pub const RESET: &str = "\x1b[0m";

/// Resample `vals` down to at most `cells` values by keeping the last
/// sample of each equal-count chunk, so the final cell is always the
/// final sample. This is the shared series-rendering core behind the
/// unicode sparklines here and the SVG sparklines in the `jem lab`
/// HTML report ([`svg_sparkline`]).
pub fn resample(vals: &[f64], cells: usize) -> Vec<f64> {
    if vals.is_empty() || cells == 0 {
        return Vec::new();
    }
    let cells = vals.len().min(cells);
    let mut picked = Vec::with_capacity(cells);
    for c in 0..cells {
        let end = ((c + 1) * vals.len()).div_ceil(cells);
        picked.push(vals[end - 1]);
    }
    picked
}

/// Resample to at most [`SPARK_WIDTH`] cells (last sample per cell)
/// and map each value onto the 8-step block ramp.
pub fn sparkline(vals: &[f64]) -> String {
    sparkline_width(vals, SPARK_WIDTH)
}

/// [`sparkline`] with an explicit cell budget.
pub fn sparkline_width(vals: &[f64], width: usize) -> String {
    let picked = resample(vals, width);
    if picked.is_empty() {
        return "(no samples)".to_string();
    }
    let lo = picked.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = picked.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    picked
        .iter()
        .map(|v| {
            let step = if span > 0.0 {
                (((v - lo) / span) * 7.0).round() as usize
            } else {
                0
            };
            SPARK[step.min(7)]
        })
        .collect()
}

/// The same series rendering as [`sparkline`], generalized to an
/// inline SVG `<polyline>` for the self-contained `jem lab` HTML
/// report: resample to at most `cells`, normalize into a `w`×`h`
/// viewBox (y inverted so larger values plot higher), stroke with
/// `stroke`. Flat or single-sample series draw a midline. The output
/// is deterministic (fixed two-decimal coordinates) and references
/// nothing external.
pub fn svg_sparkline(vals: &[f64], w: u32, h: u32, cells: usize, stroke: &str) -> String {
    let picked = resample(vals, cells);
    if picked.is_empty() {
        return format!(
            "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
             xmlns=\"http://www.w3.org/2000/svg\"></svg>"
        );
    }
    let lo = picked.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = picked.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    let n = picked.len();
    let mut points = String::new();
    for (i, v) in picked.iter().enumerate() {
        let x = if n == 1 {
            f64::from(w) / 2.0
        } else {
            f64::from(w) * i as f64 / (n - 1) as f64
        };
        // 1px padding keeps extreme samples from clipping at the edge.
        let y = if span > 0.0 {
            1.0 + (f64::from(h) - 2.0) * (1.0 - (v - lo) / span)
        } else {
            f64::from(h) / 2.0
        };
        if i > 0 {
            points.push(' ');
        }
        points.push_str(&format!("{x:.2},{y:.2}"));
    }
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <polyline fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\" \
         points=\"{points}\"/></svg>"
    )
}

/// One aligned dashboard row: `name  ▁▂▃…  [lo .. hi]`, with the name
/// padded to `name_width`. The shared row format for per-series
/// sparkline panels.
pub fn spark_row(name: &str, name_width: usize, vals: &[f64]) -> String {
    let line = sparkline(vals);
    let (lo, hi) = match (
        vals.iter().cloned().reduce(f64::min),
        vals.iter().cloned().reduce(f64::max),
    ) {
        (Some(lo), Some(hi)) => (lo, hi),
        _ => (0.0, 0.0),
    };
    format!("{name:<name_width$}  {line}  [{lo} .. {hi}]")
}

/// Engineering-style short float: 4 significant digits with an SI
/// scale suffix (k/M/G), stable across locales. Used where dashboard
/// columns must stay narrow.
pub fn fmt_si(v: f64) -> String {
    let a = v.abs();
    if !v.is_finite() {
        return format!("{v}");
    }
    let (scaled, suffix) = if a >= 1e9 {
        (v / 1e9, "G")
    } else if a >= 1e6 {
        (v / 1e6, "M")
    } else if a >= 1e3 {
        (v / 1e3, "k")
    } else {
        (v, "")
    };
    if suffix.is_empty() && (a < 1000.0 && a.fract() == 0.0) {
        format!("{v}")
    } else {
        format!("{scaled:.3}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_empty_and_flat() {
        assert_eq!(sparkline(&[]), "(no samples)");
        assert_eq!(sparkline(&[2.0, 2.0, 2.0]), "▁▁▁");
    }

    #[test]
    fn sparkline_monotone_ramp_hits_extremes() {
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let line = sparkline(&vals);
        assert_eq!(line.chars().count(), 8);
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
    }

    #[test]
    fn sparkline_resamples_to_width() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let line = sparkline(&vals);
        assert_eq!(line.chars().count(), SPARK_WIDTH);
        // Last cell is always the final sample (the maximum here).
        assert_eq!(line.chars().last(), Some('█'));
    }

    #[test]
    fn spark_row_aligns_names() {
        let row = spark_row("ei", 10, &[1.0, 2.0]);
        assert!(row.starts_with("ei          "));
        assert!(row.ends_with("[1 .. 2]"));
    }

    #[test]
    fn svg_sparkline_is_deterministic_and_self_contained() {
        let vals: Vec<f64> = (0..300).map(|i| (i as f64).sin()).collect();
        let a = svg_sparkline(&vals, 160, 28, 64, "#345");
        let b = svg_sparkline(&vals, 160, 28, 64, "#345");
        assert_eq!(a, b);
        assert!(a.starts_with("<svg"));
        assert!(a.contains("<polyline"));
        // 64 cells -> 64 coordinate pairs.
        assert_eq!(a.split(',').count(), 65);
        // Empty and flat inputs still render valid SVG.
        assert!(svg_sparkline(&[], 160, 28, 64, "#345").starts_with("<svg"));
        let flat = svg_sparkline(&[3.0, 3.0], 160, 28, 64, "#345");
        assert!(flat.contains("14.00"), "flat series plots the midline");
    }

    #[test]
    fn resample_keeps_last_sample() {
        let vals: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(resample(&vals, 4), vec![2.0, 4.0, 7.0, 9.0]);
        assert_eq!(resample(&vals, 100), vals);
        assert!(resample(&[], 4).is_empty());
        assert!(resample(&vals, 0).is_empty());
    }

    #[test]
    fn fmt_si_scales() {
        assert_eq!(fmt_si(12.0), "12");
        assert_eq!(fmt_si(1234.5), "1.234k");
        assert_eq!(fmt_si(2_500_000.0), "2.500M");
        assert_eq!(fmt_si(7.25e9), "7.250G");
    }
}
