//! `jem diff`: compare two runs' exported artifacts — or one baseline
//! against a whole batch of candidates.
//!
//! Inputs must be artifacts from this workspace: `.jtb` traces,
//! compared semantically (per-method × per-mode energy deltas,
//! adaptive decision flips with the recorded candidate energies,
//! event-kind count deltas), or any other JSON document (`--json-out`
//! results, metrics, profiles — compared structurally). Two inputs are
//! refused with exit 2: a `.jts` timeline, which `jem timeline a.jts
//! --overlay b.jts` compares, and a Chrome-trace export (a document
//! with `traceEvents`), a one-way viewer format — diff the `.jtb`
//! traces it was exported from.
//!
//! Strict numbers may differ by `--rel-tol` (default 0); keys holding
//! a `--noisy` marker (repeatable, on top of the built-in ones) by
//! `--noisy-rel-tol` (default 0.5) before failing; keys holding an
//! `--ignore` marker (repeatable) are skipped. `--json-out` writes the
//! `jem-diff/v1` report.
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

use crate::{load, usage_error, write_out, Format};
use jem_bench::{arg_flag, arg_parse, arg_str, arg_values, positionals, Flag};
use jem_obs::diff::{combine_batch, diff_json, diff_traces, DiffPolicy, DiffReport};
use jem_obs::wire::load_jtb_bytes;
use jem_obs::{Json, TraceEvent};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    ("--rel-tol", true),
    ("--noisy-rel-tol", true),
    ("--noisy", true),
    ("--ignore", true),
    ("--json-out", true),
    ("--batch", false),
];

/// One parsed input: a `.jtb` trace (reduced to events) or an
/// arbitrary JSON artifact.
enum Input {
    Trace(Vec<TraceEvent>),
    Doc(Json),
}

fn load_input(path: &str) -> Result<Input, String> {
    let fail = |e: String| format!("{path}: {e}");
    let (format, bytes) = load(path)?;
    match format {
        Format::Jtb => load_jtb_bytes(&bytes)
            .map(|l| Input::Trace(l.events()))
            .map_err(fail),
        Format::Jts => usage_error(format!(
            "{path}: a .jts timeline; compare timelines with jem timeline --overlay"
        )),
        Format::Other => {
            let text = String::from_utf8(bytes)
                .map_err(|_| fail("input is neither .jtb (bad magic) nor UTF-8 JSON".into()))?;
            let doc = Json::parse(&text).map_err(|e| fail(e.to_string()))?;
            if doc.get("traceEvents").is_some() {
                usage_error(format!(
                    "{path}: Chrome trace JSON is an export-only viewer format; \
                     diff the .jtb traces instead"
                ));
            }
            Ok(Input::Doc(doc))
        }
    }
}

fn compare(a: &Input, b: &Input, policy: &DiffPolicy) -> Option<DiffReport> {
    match (a, b) {
        (Input::Trace(ea), Input::Trace(eb)) => Some(diff_traces(ea, eb, policy)),
        (Input::Doc(da), Input::Doc(db)) => {
            let mut r = DiffReport::default();
            diff_json(da, db, policy, &mut r);
            Some(r)
        }
        _ => None,
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    jem_bench::reject_unknown_flags(args, &[FLAGS]);
    let paths = positionals(args, &[FLAGS]);
    let batch = arg_flag(args, "--batch");
    if paths.len() < 2 || (!batch && paths.len() != 2) {
        usage_error("jem diff needs two inputs, or --batch with a baseline and candidates");
    }
    let mut policy = DiffPolicy::default();
    if arg_flag(args, "--rel-tol") {
        policy.rel_tol = arg_parse(args, "--rel-tol", 0.0);
        policy.abs_tol = 1e-9;
    }
    policy.noisy_rel_tol = arg_parse(args, "--noisy-rel-tol", policy.noisy_rel_tol);
    policy
        .noisy_markers
        .extend(arg_values(args, &[FLAGS], "--noisy"));
    policy
        .ignore_markers
        .extend(arg_values(args, &[FLAGS], "--ignore"));
    let json_out = arg_str(args, "--json-out");

    let baseline = load_input(&paths[0])?;
    let mut parts = Vec::with_capacity(paths.len() - 1);
    for path in &paths[1..] {
        let candidate = load_input(path)?;
        let report = compare(&baseline, &candidate, &policy).unwrap_or_else(|| {
            usage_error(format!(
                "cannot compare a trace against a non-trace document ({} vs {path})",
                paths[0]
            ))
        });
        if batch {
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
        }
        print!("{}", report.render_text());
        parts.push((path.clone(), report));
    }
    if let Some(out) = json_out {
        let doc = if batch {
            combine_batch(&paths[0], &parts)
        } else {
            parts[0]
                .1
                .to_json()
                .with("a", paths[0].as_str())
                .with("b", paths[1].as_str())
        };
        write_out(&out, doc.render_pretty().as_bytes())?;
    }
    Ok(if parts.iter().any(|(_, r)| r.has_changes()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
