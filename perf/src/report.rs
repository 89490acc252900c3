//! Rendering a run: the human table, the full report document, and
//! the one-line result `bench` ends with.

use crate::bench::Run;
use crate::catalogue::{Catalogue, MetricSpec};
use jem_obs::Json;

/// A metric's value in `run`; metrics a workload does not exercise
/// (the JIT on interp-only, the sinks on faults-sweep) read 0.
fn value(run: &Run, name: &str) -> f64 {
    run.metrics.get(name).copied().unwrap_or(0.0)
}

/// The failure share of a run.
fn error_rate(run: &Run) -> f64 {
    run.failed as f64 / run.attempted as f64
}

fn metric_json(spec: &MetricSpec, v: f64) -> Json {
    Json::object()
        .with("value", v)
        .with("unit", spec.unit.as_str())
}

/// `bench`'s result line: `correct`, `attempted`, `failed`, and
/// the end-to-end metrics (`trace` false) or the per-layer metrics
/// (`trace` true).
pub fn result_line(run: &Run, cat: &Catalogue, trace: bool) -> String {
    let specs = if trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    };
    let mut metrics = Json::object();
    for spec in specs {
        metrics = metrics.with(&spec.name, metric_json(spec, value(run, &spec.name)));
    }
    Json::object()
        .with("correct", run.failed == 0)
        .with("attempted", run.attempted)
        .with("failed", run.failed)
        .with("metrics", metrics)
        .render()
}

/// The full report of one workload: every catalogued metric the run
/// measured, end-to-end metrics with their within-run spread.
pub fn report_json(run: &Run, cat: &Catalogue, seed: u64) -> Json {
    let mut metrics = Json::object();
    for spec in &cat.end_to_end {
        let mut m = metric_json(spec, value(run, &spec.name));
        if let Some(s) = run.spreads.get(spec.name.as_str()) {
            m = m.with("spread", *s);
        }
        metrics = metrics.with(&spec.name, m);
    }
    if run.traced {
        for spec in &cat.per_layer {
            metrics = metrics.with(&spec.name, metric_json(spec, value(run, &spec.name)));
        }
    }
    Json::object()
        .with("workload", run.kind.name())
        .with("seed", seed)
        .with("rounds", run.rounds)
        .with("correct", run.failed == 0)
        .with("attempted", run.attempted)
        .with("failed", run.failed)
        .with("error_rate", error_rate(run))
        .with(
            "failures",
            Json::Arr(
                run.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        )
        .with("metrics", metrics)
}

/// A report document as a table.
pub fn render_report(report: &Json) -> String {
    let s = |k: &str| report.get(k).map(Json::render).unwrap_or_default();
    let mut out = format!(
        "== {}: seed {}, {} rounds, {} unit runs, {} failed (error_rate {})\n",
        report.get("workload").and_then(Json::as_str).unwrap_or("?"),
        s("seed"),
        s("rounds"),
        s("attempted"),
        s("failed"),
        s("error_rate"),
    );
    for f in report
        .get("failures")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        out += &format!("   FAIL {}\n", f.as_str().unwrap_or("?"));
    }
    for (name, m) in report
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let spread = m
            .get("spread")
            .and_then(Json::as_f64)
            .map(|s| format!("  (within-run spread {:.1}%)", s * 100.0))
            .unwrap_or_default();
        out += &format!("   {name:<28} {v:>16.6} {unit}{spread}\n");
    }
    out
}
