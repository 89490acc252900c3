//! Differential comparison of two runs' artifacts.
//!
//! Every exported artifact in this workspace — traces, metrics,
//! `--json-out` results, profiles — is deterministic JSON, so "what
//! changed between run A and run B?" reduces to a structural diff
//! with domain smarts layered on top:
//!
//! * [`diff_json`] walks two documents and reports value-level
//!   differences (missing keys, type changes, numeric deltas outside
//!   tolerance), with noise-aware per-key thresholds so wall-clock
//!   throughput figures don't trip the gate that energy figures must;
//! * [`diff_traces`] understands trace semantics: per-method ×
//!   per-mode energy deltas (via [`TraceProfile`]), adaptive-decision
//!   *flips* — invocation k chose `remote` in A but `local/L2` in B —
//!   reported with both runs' recorded candidate energies so the
//!   *why* is in the report, and event-kind count deltas
//!   (retries/breaker trips appearing or vanishing).
//!
//! The identity property — diffing a run against itself yields an
//! empty report — holds by construction (every entry requires an
//! observed inequality) and is enforced by tests and the CI gate.

use crate::json::Json;
use crate::profile::TraceProfile;
use crate::trace::{TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

/// How severe a difference is, which decides the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffKind {
    /// Informational: inside the noisy-key tolerance, never fails.
    Note,
    /// A genuine difference that fails the comparison.
    Changed,
}

/// One observed difference.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Severity.
    pub kind: DiffKind,
    /// JSON-pointer-ish path ("results/0/mean_nj") or a semantic
    /// locus ("decision-flip shard=0 invocation=17").
    pub path: String,
    /// Human-readable description of the difference.
    pub detail: String,
    /// Relative delta for numeric differences, when defined.
    pub rel_delta: Option<f64>,
}

/// Tolerances for [`diff_json`]. The default policy is *exact*:
/// any numeric difference is a change — right for identically-seeded
/// determinism checks. Perf gating raises `rel_tol` and marks the
/// wall-clock keys noisy.
#[derive(Debug, Clone)]
pub struct DiffPolicy {
    /// Relative tolerance for numeric values (0 = exact).
    pub rel_tol: f64,
    /// Absolute floor under which numeric differences are ignored
    /// (guards `rel_tol` near zero).
    pub abs_tol: f64,
    /// Relative tolerance for keys matching [`DiffPolicy::noisy_markers`];
    /// inside it they produce [`DiffKind::Note`] entries only.
    pub noisy_rel_tol: f64,
    /// Key substrings treated as machine-dependent noise (wall-clock
    /// throughput). Matched against the final path segment.
    pub noisy_markers: Vec<String>,
    /// Key substrings skipped entirely.
    pub ignore_markers: Vec<String>,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        DiffPolicy {
            rel_tol: 0.0,
            abs_tol: 0.0,
            noisy_rel_tol: 0.5,
            noisy_markers: vec![
                "wall_secs".to_string(),
                "sim_instructions_per_sec".to_string(),
                "throughput".to_string(),
            ],
            ignore_markers: Vec::new(),
        }
    }
}

impl DiffPolicy {
    /// The policy for perf gating: deterministic figures must match to
    /// `rel_tol`, machine-dependent throughput only warns inside
    /// `noisy_rel_tol`.
    pub fn perf_gate(rel_tol: f64, noisy_rel_tol: f64) -> DiffPolicy {
        DiffPolicy {
            rel_tol,
            abs_tol: 1e-9,
            noisy_rel_tol,
            ..DiffPolicy::default()
        }
    }

    fn classify(&self, path: &str) -> KeyClass {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        if self
            .ignore_markers
            .iter()
            .any(|m| leaf.contains(m.as_str()))
        {
            KeyClass::Ignored
        } else if self.noisy_markers.iter().any(|m| leaf.contains(m.as_str())) {
            KeyClass::Noisy
        } else {
            KeyClass::Strict
        }
    }
}

#[derive(PartialEq)]
enum KeyClass {
    Strict,
    Noisy,
    Ignored,
}

/// The accumulated outcome of one comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All entries, in discovery order.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Whether any failing ([`DiffKind::Changed`]) entry exists.
    pub fn has_changes(&self) -> bool {
        self.entries.iter().any(|e| e.kind == DiffKind::Changed)
    }

    /// Whether the report is completely empty (no notes either).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push(&mut self, kind: DiffKind, path: String, detail: String, rel_delta: Option<f64>) {
        self.entries.push(DiffEntry {
            kind,
            path,
            detail,
            rel_delta,
        });
    }

    /// Render as the machine-readable report document
    /// (`schemas/diff-report.schema.json`).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut obj = Json::object()
                    .with(
                        "kind",
                        match e.kind {
                            DiffKind::Note => "note",
                            DiffKind::Changed => "changed",
                        },
                    )
                    .with("path", e.path.as_str())
                    .with("detail", e.detail.as_str());
                if let Some(rd) = e.rel_delta {
                    obj = obj.with("rel_delta", rd);
                }
                obj
            })
            .collect();
        Json::object()
            .with("schema", "jem-diff/v1")
            .with("changed", self.has_changes())
            .with(
                "changes",
                self.entries
                    .iter()
                    .filter(|e| e.kind == DiffKind::Changed)
                    .count() as u64,
            )
            .with(
                "notes",
                self.entries
                    .iter()
                    .filter(|e| e.kind == DiffKind::Note)
                    .count() as u64,
            )
            .with("entries", Json::Arr(entries))
    }

    /// Render a human-readable summary, one line per entry.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "no differences\n".to_string();
        }
        let mut out = String::new();
        for e in &self.entries {
            let tag = match e.kind {
                DiffKind::Note => "note   ",
                DiffKind::Changed => "CHANGED",
            };
            out.push_str(&format!("{tag} {}: {}\n", e.path, e.detail));
        }
        out
    }
}

/// Structurally compare two JSON documents under `policy`, appending
/// differences to `report`. Objects compare by key union, arrays
/// element-wise (length mismatch is a change).
pub fn diff_json(a: &Json, b: &Json, policy: &DiffPolicy, report: &mut DiffReport) {
    diff_json_at(a, b, policy, "", report);
}

fn diff_json_at(a: &Json, b: &Json, policy: &DiffPolicy, path: &str, report: &mut DiffReport) {
    match policy.classify(path) {
        KeyClass::Ignored => return,
        KeyClass::Noisy | KeyClass::Strict => {}
    }
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            let ka: Vec<&str> = ma.iter().map(|(k, _)| k.as_str()).collect();
            let kb: Vec<&str> = mb.iter().map(|(k, _)| k.as_str()).collect();
            for k in &ka {
                let child = join(path, k);
                match b.get(k) {
                    Some(bv) => diff_json_at(a.get(k).unwrap(), bv, policy, &child, report),
                    None => report.push(
                        DiffKind::Changed,
                        child,
                        "present in A, missing in B".to_string(),
                        None,
                    ),
                }
            }
            for k in kb {
                if !ka.contains(&k) {
                    report.push(
                        DiffKind::Changed,
                        join(path, k),
                        "missing in A, present in B".to_string(),
                        None,
                    );
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            if xa.len() != xb.len() {
                report.push(
                    DiffKind::Changed,
                    path.to_string(),
                    format!("array length {} vs {}", xa.len(), xb.len()),
                    None,
                );
            }
            for (i, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
                diff_json_at(va, vb, policy, &join(path, &i.to_string()), report);
            }
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(na), Some(nb)) => {
                if na == nb {
                    return;
                }
                let denom = na
                    .abs()
                    .max(nb.abs())
                    .max(policy.abs_tol.max(f64::MIN_POSITIVE));
                let rel = (na - nb).abs() / denom;
                if (na - nb).abs() <= policy.abs_tol {
                    return;
                }
                let noisy = policy.classify(path) == KeyClass::Noisy;
                let tol = if noisy {
                    policy.noisy_rel_tol
                } else {
                    policy.rel_tol
                };
                let kind = if rel <= tol {
                    if noisy {
                        DiffKind::Note
                    } else {
                        return; // inside strict tolerance: not a difference
                    }
                } else {
                    DiffKind::Changed
                };
                report.push(
                    kind,
                    path.to_string(),
                    format!("{na} vs {nb} (rel {rel:.3e})"),
                    Some(rel),
                );
            }
            _ => {
                let ta = a.render();
                let tb = b.render();
                if ta != tb {
                    report.push(
                        DiffKind::Changed,
                        path.to_string(),
                        format!("{ta} vs {tb}"),
                        None,
                    );
                }
            }
        },
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}/{key}")
    }
}

/// Combine a baseline-vs-N-candidates batch of comparisons into one
/// `jem-diff/v1` document. The top-level `entries` are every
/// candidate's entries with the candidate name prefixed onto the
/// path (so the combined document is itself a valid, readable
/// `jem-diff/v1` report), and a `batch` table records the baseline
/// plus per-candidate outcome counts. The document `jem diff --batch`
/// emits.
pub fn combine_batch(baseline: &str, parts: &[(String, DiffReport)]) -> Json {
    let mut combined = DiffReport::default();
    let mut candidates = Vec::with_capacity(parts.len());
    for (name, report) in parts {
        for e in &report.entries {
            combined.entries.push(DiffEntry {
                kind: e.kind,
                path: format!("{name}/{}", e.path),
                detail: e.detail.clone(),
                rel_delta: e.rel_delta,
            });
        }
        candidates.push(
            Json::object()
                .with("name", name.as_str())
                .with("changed", report.has_changes())
                .with(
                    "changes",
                    report
                        .entries
                        .iter()
                        .filter(|e| e.kind == DiffKind::Changed)
                        .count() as u64,
                )
                .with(
                    "notes",
                    report
                        .entries
                        .iter()
                        .filter(|e| e.kind == DiffKind::Note)
                        .count() as u64,
                ),
        );
    }
    combined.to_json().with(
        "batch",
        Json::object()
            .with("baseline", baseline)
            .with("candidates", Json::Arr(candidates)),
    )
}

/// One run's decision record, for flip detection.
#[derive(Debug, Clone)]
struct Decision {
    chosen: String,
    interpret_nj: f64,
    remote_nj: f64,
    local_nj: [f64; 3],
    remote_allowed: bool,
}

fn collect_decisions(events: &[TraceEvent]) -> BTreeMap<(usize, u64, u64), Decision> {
    let mut out = BTreeMap::new();
    for (si, shard) in crate::trace::split_shards(events).into_iter().enumerate() {
        let mut ordinal: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in shard {
            if let TraceEventKind::DecisionEvaluated {
                chosen,
                interpret_nj,
                remote_nj,
                local_nj,
                remote_allowed,
                ..
            } = &ev.kind
            {
                let ord = ordinal.entry(ev.invocation).or_insert(0);
                out.insert(
                    (si, ev.invocation, *ord),
                    Decision {
                        chosen: chosen.clone(),
                        interpret_nj: *interpret_nj,
                        remote_nj: *remote_nj,
                        local_nj: *local_nj,
                        remote_allowed: *remote_allowed,
                    },
                );
                *ord += 1;
            }
        }
    }
    out
}

fn kind_counts(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for ev in events {
        *out.entry(ev.kind.name()).or_insert(0) += 1;
    }
    out
}

/// Semantically compare two trace streams: profile-cell energy deltas
/// (per method × mode × phase), adaptive-decision flips with both
/// runs' candidate energies, and event-kind count deltas.
pub fn diff_traces(a: &[TraceEvent], b: &[TraceEvent], policy: &DiffPolicy) -> DiffReport {
    let mut report = DiffReport::default();

    // Event-kind population: retries/breaker trips appearing or
    // vanishing is the loudest behavioural signal.
    let ca = kind_counts(a);
    let cb = kind_counts(b);
    let mut kinds: Vec<&&str> = ca.keys().chain(cb.keys()).collect();
    kinds.sort();
    kinds.dedup();
    for k in kinds {
        let na = ca.get(*k).copied().unwrap_or(0);
        let nb = cb.get(*k).copied().unwrap_or(0);
        if na != nb {
            report.push(
                DiffKind::Changed,
                format!("events/{k}"),
                format!("count {na} vs {nb}"),
                None,
            );
        }
    }

    // Decision flips, keyed by (shard, invocation, ordinal-within-
    // invocation) so retried decisions pair up positionally.
    let da = collect_decisions(a);
    let db = collect_decisions(b);
    for (key, x) in &da {
        match db.get(key) {
            Some(y) => {
                if x.chosen != y.chosen || x.remote_allowed != y.remote_allowed {
                    report.push(
                        DiffKind::Changed,
                        format!(
                            "decision-flip/shard={}/invocation={}/ordinal={}",
                            key.0, key.1, key.2
                        ),
                        format!(
                            "A chose '{}' (EI={:.1} ER={:.1} EL={:.1}/{:.1}/{:.1} remote_allowed={}), \
                             B chose '{}' (EI={:.1} ER={:.1} EL={:.1}/{:.1}/{:.1} remote_allowed={})",
                            x.chosen,
                            x.interpret_nj,
                            x.remote_nj,
                            x.local_nj[0],
                            x.local_nj[1],
                            x.local_nj[2],
                            x.remote_allowed,
                            y.chosen,
                            y.interpret_nj,
                            y.remote_nj,
                            y.local_nj[0],
                            y.local_nj[1],
                            y.local_nj[2],
                            y.remote_allowed,
                        ),
                        None,
                    );
                }
            }
            None => report.push(
                DiffKind::Changed,
                format!(
                    "decision-flip/shard={}/invocation={}/ordinal={}",
                    key.0, key.1, key.2
                ),
                "decision present in A, missing in B".to_string(),
                None,
            ),
        }
    }
    for key in db.keys() {
        if !da.contains_key(key) {
            report.push(
                DiffKind::Changed,
                format!(
                    "decision-flip/shard={}/invocation={}/ordinal={}",
                    key.0, key.1, key.2
                ),
                "decision missing in A, present in B".to_string(),
                None,
            );
        }
    }

    // Per-method / per-mode / per-phase energy deltas via the profile
    // fold — the structural diff inherits the policy's tolerances.
    let pa = TraceProfile::fold(a).to_json();
    let pb = TraceProfile::fold(b).to_json();
    let mut profile_report = DiffReport::default();
    diff_json(&pa, &pb, policy, &mut profile_report);
    for mut e in profile_report.entries {
        e.path = format!("profile/{}", e.path);
        report.entries.push(e);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::{Component, Energy, EnergyBreakdown, SimTime};

    fn doc(x: f64, wall: f64) -> Json {
        Json::object()
            .with("mean_nj", x)
            .with("wall_secs", wall)
            .with("nested", Json::object().with("list", vec![1.0, 2.0, x]))
    }

    #[test]
    fn self_diff_is_empty() {
        let a = doc(1234.5, 0.7);
        let mut r = DiffReport::default();
        diff_json(&a, &a.clone(), &DiffPolicy::default(), &mut r);
        assert!(r.is_empty());
    }

    #[test]
    fn strict_keys_fail_and_noisy_keys_note() {
        let a = doc(1000.0, 1.0);
        let b = doc(1001.0, 1.2); // 0.1% energy drift, 20% wall drift
        let mut r = DiffReport::default();
        diff_json(&a, &b, &DiffPolicy::perf_gate(1e-9, 0.5), &mut r);
        assert!(r.has_changes());
        let energy = r.entries.iter().find(|e| e.path == "mean_nj").unwrap();
        assert_eq!(energy.kind, DiffKind::Changed);
        let wall = r.entries.iter().find(|e| e.path == "wall_secs").unwrap();
        assert_eq!(wall.kind, DiffKind::Note);
        // The same wall drift past the noisy tolerance fails.
        let c = doc(1000.0, 2.5);
        let mut r2 = DiffReport::default();
        diff_json(&a, &c, &DiffPolicy::perf_gate(1e-9, 0.5), &mut r2);
        let wall = r2.entries.iter().find(|e| e.path == "wall_secs").unwrap();
        assert_eq!(wall.kind, DiffKind::Changed);
    }

    #[test]
    fn structural_differences_are_reported() {
        let a = Json::object().with("x", 1.0).with("only_a", true);
        let b = Json::object().with("x", "one").with("only_b", true);
        let mut r = DiffReport::default();
        diff_json(&a, &b, &DiffPolicy::default(), &mut r);
        let paths: Vec<&str> = r.entries.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"x"));
        assert!(paths.contains(&"only_a"));
        assert!(paths.contains(&"only_b"));
        // Array length mismatches too.
        let mut r2 = DiffReport::default();
        diff_json(
            &Json::Arr(vec![Json::Num(1.0)]),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
            &DiffPolicy::default(),
            &mut r2,
        );
        assert!(r2.has_changes());
    }

    fn decision_event(seq: u64, invocation: u64, chosen: &str) -> TraceEvent {
        let mut d = EnergyBreakdown::new();
        d.charge(Component::Core, Energy::from_nanojoules(5.0));
        TraceEvent {
            seq,
            invocation,
            ordinal: 0,
            at: SimTime::from_nanos(seq as f64 * 10.0),
            delta: d,
            kind: TraceEventKind::DecisionEvaluated {
                k: invocation,
                s_bar: 64.0,
                pa_bar_w: 0.4,
                interpret_nj: 900.0,
                remote_nj: 700.0,
                local_nj: [400.0, 300.0, 350.0],
                chosen: chosen.to_string(),
                remote_allowed: true,
            },
        }
    }

    #[test]
    fn trace_self_diff_is_empty_and_flips_are_caught() {
        let a = vec![
            decision_event(0, 1, "remote"),
            decision_event(1, 2, "remote"),
        ];
        let r = diff_traces(&a, &a, &DiffPolicy::default());
        assert!(r.is_empty(), "self diff: {}", r.render_text());

        let b = vec![
            decision_event(0, 1, "remote"),
            decision_event(1, 2, "local/L2"),
        ];
        let r = diff_traces(&a, &b, &DiffPolicy::default());
        assert!(r.has_changes());
        let flip = r
            .entries
            .iter()
            .find(|e| e.path.starts_with("decision-flip"))
            .expect("flip entry");
        assert!(flip.detail.contains("'remote'"));
        assert!(flip.detail.contains("'local/L2'"));
        assert!(flip.detail.contains("ER=700.0"));
    }

    #[test]
    fn combine_batch_prefixes_and_counts() {
        let base = doc(1.0, 1.0);
        let same = doc(1.0, 1.0);
        let changed = doc(2.0, 1.0);
        let policy = DiffPolicy::default();
        let mut r_same = DiffReport::default();
        diff_json(&base, &same, &policy, &mut r_same);
        let mut r_changed = DiffReport::default();
        diff_json(&base, &changed, &policy, &mut r_changed);
        let combined = combine_batch(
            "baseline.json",
            &[
                ("cand-a".to_string(), r_same),
                ("cand-b".to_string(), r_changed),
            ],
        );
        assert_eq!(
            combined.get("schema").and_then(Json::as_str),
            Some("jem-diff/v1")
        );
        assert_eq!(combined.get("changed").and_then(Json::as_bool), Some(true));
        let batch = combined.get("batch").unwrap();
        assert_eq!(
            batch.get("baseline").and_then(Json::as_str),
            Some("baseline.json")
        );
        let cands = batch.get("candidates").and_then(Json::as_array).unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].get("changed").and_then(Json::as_bool), Some(false));
        assert_eq!(cands[1].get("changed").and_then(Json::as_bool), Some(true));
        // Entries are prefixed with the candidate name.
        let entries = combined.get("entries").and_then(Json::as_array).unwrap();
        assert!(entries.iter().all(|e| e
            .get("path")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("cand-")));
    }

    #[test]
    fn report_json_shape() {
        let a = doc(1.0, 1.0);
        let b = doc(2.0, 1.0);
        let mut r = DiffReport::default();
        diff_json(&a, &b, &DiffPolicy::default(), &mut r);
        let j = r.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("jem-diff/v1"));
        assert_eq!(j.get("changed").and_then(Json::as_bool), Some(true));
        assert!(j.get("changes").and_then(Json::as_u64).unwrap() >= 1);
        let text = r.render_text();
        assert!(text.contains("CHANGED"));
    }
}
