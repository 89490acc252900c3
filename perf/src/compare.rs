//! Comparing runs of a parent commit with runs of a change.
//!
//! A gain needs at least ten alternating pairs, the change winning at
//! least nine tenths of them, and a median difference larger than the
//! parent's interquartile range. A metric whose run-to-run spread exceeds its
//! bound is unresolved unless every change run beats every parent
//! run. Otherwise the change regresses when its median is worse than
//! the parent's by more than the bound `BENCHMARK.json` fixes.

use crate::catalogue::{Better, Catalogue};
use crate::stats::{median, quartiles, rel_iqr};
use jem_obs::Json;

/// Fewest pairs a gain can rest on.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the paired rule.
    Improved,
    /// No worse than the bound allows.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The spread is too wide to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged pair.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Relative change, positive when the change is better.
    pub gain: f64,
    /// The wider of the two sides' interquartile spreads.
    pub spread: f64,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
}

/// Judge `change` against `parent` (the i-th entries of each form a
/// pair) for a metric with direction `better` and regression `bound`.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Judgement {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let (pm, cm) = (median(parent), median(change));
    let gain = sign * (cm - pm) / pm.abs();
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let (q1, q3) = quartiles(parent);
    let spread = rel_iqr(parent).max(rel_iqr(change));
    let key = |v: &f64| sign * v;
    let best = |xs: &[f64]| xs.iter().map(key).fold(f64::NEG_INFINITY, f64::max);
    let worst = |xs: &[f64]| xs.iter().map(key).fold(f64::INFINITY, f64::min);
    let all_better = worst(change) > best(parent);
    let all_worse = best(change) < worst(parent);
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && (cm - pm).abs() > q3 - q1
        && gain > 0.0
    {
        Verdict::Improved
    } else if spread > bound && !all_better && !(all_worse && gain < -bound) {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        parent: pm,
        change: cm,
        gain,
        spread,
        pairs,
        wins,
    }
}

/// `(workload, metric) → values`, one per document, from `jem-perf
/// run --out` documents; `error_rate` is read as a metric too.
fn collect(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| {
            let w = d
                .get("workloads")
                .and_then(Json::as_array)?
                .iter()
                .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))?;
            if metric == "error_rate" {
                return w.get("error_rate").and_then(Json::as_f64);
            }
            w.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

/// One line of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The judgement.
    pub judgement: Judgement,
}

/// Judge every (end-to-end metric, workload) pair, plus `error_rate`,
/// which may not rise at all.
///
/// # Errors
/// A metric missing from some document.
pub fn compare(cat: &Catalogue, parent: &[Json], change: &[Json]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &cat.workloads {
        for spec in &cat.end_to_end {
            let (p, c) = (
                collect(parent, workload, &spec.name),
                collect(change, workload, &spec.name),
            );
            if p.len() != parent.len() || c.len() != change.len() {
                return Err(format!(
                    "{workload}/{}: missing from some document",
                    spec.name
                ));
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                judgement: judge(&p, &c, spec.better, spec.bound.unwrap_or(0.0)),
            });
        }
        let (p, c) = (
            collect(parent, workload, "error_rate"),
            collect(change, workload, "error_rate"),
        );
        let worst_parent = p.iter().copied().fold(0.0, f64::max);
        let worst_change = c.iter().copied().fold(0.0, f64::max);
        rows.push(Row {
            workload: workload.clone(),
            metric: "error_rate".to_string(),
            judgement: Judgement {
                verdict: if worst_change > worst_parent {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                },
                parent: worst_parent,
                change: worst_change,
                gain: worst_parent - worst_change,
                spread: 0.0,
                pairs: p.len().min(c.len()),
                wins: 0,
            },
        });
    }
    Ok(rows)
}
