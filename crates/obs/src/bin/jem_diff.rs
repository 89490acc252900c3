//! Compare two runs' exported artifacts — or one baseline against a
//! whole batch of candidates.
//!
//! ```text
//! jem-diff <a.jtb|a.json> <b.jtb|b.json> [options]
//! jem-diff --batch <baseline> <candidate>... [options]
//!   --rel-tol <x>        relative tolerance for strict numbers (default 0)
//!   --noisy-rel-tol <x>  tolerance for noisy keys before failing (default 0.5)
//!   --noisy <marker>     extra key substring treated as noisy (repeatable)
//!   --ignore <marker>    key substring skipped entirely (repeatable)
//!   --json-out <path>    write the machine-readable diff report
//! ```
//!
//! Inputs must be artifacts from this workspace: `.jtb` traces
//! (sniffed by magic), compared semantically (per-method × per-mode
//! energy deltas, adaptive decision flips with the recorded candidate
//! energies, event-kind count deltas), or any other JSON document
//! (`--json-out` results, metrics, profiles — compared structurally).
//! A Chrome-trace export (a document with `traceEvents`) is rejected
//! with exit 2: it is a one-way viewer format, so diff the `.jtb`
//! traces it was exported from.
//!
//! `--batch` compares the baseline against each candidate in turn and
//! emits one combined `jem-diff/v1` report with a `batch` table
//! (per-candidate outcomes) instead of requiring N separate
//! invocations.
//!
//! Exit status: 0 when no failing difference was found (notes inside
//! the noisy tolerance are fine), 1 when the runs differ (any
//! candidate, in batch mode), 2 on usage errors. Diffing an artifact
//! against itself is empty by construction; CI leans on that for the
//! determinism gate.

use jem_obs::diff::{combine_batch, diff_json, diff_traces, DiffPolicy, DiffReport};
use jem_obs::json::Json;
use jem_obs::trace::TraceEvent;
use jem_obs::wire::{is_jtb, load_jtb_bytes};
use std::process::ExitCode;

/// One parsed input: a `.jtb` trace (reduced to events) or an
/// arbitrary JSON artifact.
enum Input {
    Trace(Vec<TraceEvent>),
    Doc(Json),
}

const USAGE: &str = "usage: jem-diff <a.json> <b.json> [--rel-tol <x>] [--noisy-rel-tol <x>] \
                     [--noisy <marker>]... [--ignore <marker>]... [--json-out <path>]\n\
                     \u{20}      jem-diff --batch <baseline> <candidate>... [same options]";

/// Load one input; the error carries the exit status (1 for an
/// unreadable or corrupt input, 2 for one jem-diff does not accept).
fn load_input(path: &str) -> Result<Input, (u8, String)> {
    let fail = |e: String| (1, format!("{path}: {e}"));
    let bytes = std::fs::read(path).map_err(|e| (1, format!("cannot read {path}: {e}")))?;
    if is_jtb(&bytes) {
        return load_jtb_bytes(&bytes)
            .map(|l| Input::Trace(l.events()))
            .map_err(fail);
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| fail("input is neither .jtb (bad magic) nor UTF-8 JSON".into()))?;
    let doc = Json::parse(&text).map_err(|e| fail(e.to_string()))?;
    if doc.get("traceEvents").is_some() {
        return Err((
            2,
            format!(
                "{path}: Chrome trace JSON is an export-only viewer format; \
                 diff the .jtb traces instead"
            ),
        ));
    }
    Ok(Input::Doc(doc))
}

fn compare(a: &Input, b: &Input, policy: &DiffPolicy) -> Result<DiffReport, String> {
    match (a, b) {
        (Input::Trace(ea), Input::Trace(eb)) => Ok(diff_traces(ea, eb, policy)),
        (Input::Doc(da), Input::Doc(db)) => {
            let mut r = DiffReport::default();
            diff_json(da, db, policy, &mut r);
            Ok(r)
        }
        _ => Err("cannot compare a trace against a non-trace document".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut policy = DiffPolicy::default();
    let mut json_out = None;
    let mut batch = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Option<String> { args.get(i + 1).cloned() };
        match args[i].as_str() {
            "--rel-tol" => {
                let Some(v) = take(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("jem-diff: --rel-tol needs a number");
                    return ExitCode::from(2);
                };
                policy.rel_tol = v;
                policy.abs_tol = 1e-9;
                i += 2;
            }
            "--noisy-rel-tol" => {
                let Some(v) = take(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("jem-diff: --noisy-rel-tol needs a number");
                    return ExitCode::from(2);
                };
                policy.noisy_rel_tol = v;
                i += 2;
            }
            "--noisy" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-diff: --noisy needs a key marker");
                    return ExitCode::from(2);
                };
                policy.noisy_markers.push(v);
                i += 2;
            }
            "--ignore" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-diff: --ignore needs a key marker");
                    return ExitCode::from(2);
                };
                policy.ignore_markers.push(v);
                i += 2;
            }
            "--json-out" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-diff: --json-out needs a path");
                    return ExitCode::from(2);
                };
                json_out = Some(v);
                i += 2;
            }
            "--batch" => {
                batch = true;
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                if other.starts_with("--") {
                    eprintln!("jem-diff: unknown option '{other}'");
                    return ExitCode::from(2);
                }
                paths.push(other.to_string());
                i += 1;
            }
        }
    }

    if batch {
        if paths.len() < 2 {
            eprintln!("jem-diff: --batch needs a baseline and at least one candidate");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        let baseline = match load_input(&paths[0]) {
            Ok(input) => input,
            Err((code, e)) => {
                eprintln!("jem-diff: {e}");
                return ExitCode::from(code);
            }
        };
        let mut parts = Vec::with_capacity(paths.len() - 1);
        let mut any_changed = false;
        for path in &paths[1..] {
            let candidate = match load_input(path) {
                Ok(input) => input,
                Err((code, e)) => {
                    eprintln!("jem-diff: {e}");
                    return ExitCode::from(code);
                }
            };
            let report = match compare(&baseline, &candidate, &policy) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("jem-diff: {e} ({} vs {path})", paths[0]);
                    return ExitCode::from(2);
                }
            };
            any_changed = any_changed || report.has_changes();
            println!(
                "{path}: {}",
                if report.has_changes() {
                    "CHANGED"
                } else if report.is_empty() {
                    "identical"
                } else {
                    "notes only"
                }
            );
            print!("{}", report.render_text());
            parts.push((path.clone(), report));
        }
        if let Some(out) = json_out {
            let doc = combine_batch(&paths[0], &parts);
            if let Err(e) = jem_obs::write_atomic(&out, doc.render_pretty().as_bytes()) {
                eprintln!("jem-diff: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return if any_changed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if paths.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let (a_input, b_input) = match (load_input(&paths[0]), load_input(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err((code, e)), _) | (_, Err((code, e))) => {
            eprintln!("jem-diff: {e}");
            return ExitCode::from(code);
        }
    };
    let report = match compare(&a_input, &b_input, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jem-diff: {e} ({} vs {})", paths[0], paths[1]);
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());
    if let Some(path) = json_out {
        let doc = report
            .to_json()
            .with("a", paths[0].as_str())
            .with("b", paths[1].as_str());
        if let Err(e) = jem_obs::write_atomic(&path, doc.render_pretty().as_bytes()) {
            eprintln!("jem-diff: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.has_changes() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
