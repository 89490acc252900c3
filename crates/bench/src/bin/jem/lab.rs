//! `jem lab`: the experiment-archive commands over [`jem_obs::lab`].
//!
//! * `ingest` stores a run's artifact files (`bench=BENCH_x.json
//!   trace=x.jtb timeline=x.jts health=x.json metrics=x.prom
//!   bench-history=baseline.json`) under the fingerprint derived from
//!   `--bin` and `--run-args` (output-path flags are stripped; the
//!   seed is parsed from `--seed` within the run args), creating the
//!   archive on first use. Bench bins do this automatically when run
//!   with `--archive <dir>`.
//! * `ls` lists the archived runs.
//! * `query` selects a timeline series (window-end value per segment)
//!   or a JSON column path (with `*` wildcards) across every archived
//!   run, grouped and reduced with Welford summaries. `--window` is in
//!   sim-ms, like `jem timeline`.
//! * `report` renders the self-contained static HTML report (inline
//!   SVG only, no external resources).
//! * `verify` recomputes every manifest fingerprint and blob hash.
//!
//! Every command but `ingest` only reads, and fails on a directory
//! that is not an archive. The archive gates nothing:
//! `bench-history check` gates simulated results against the
//! committed baselines, and `jem diff` compares any two documents.
//!
//! Exit status: 0 on success (for `verify`: archive intact), 1 when
//! the archive is damaged or missing or an operation failed, 2 on
//! usage errors.

use crate::{usage_error, window, write_out};
use jem_bench::{arg_flag, arg_str, positionals, reject_unknown_flags, Flag};
use jem_obs::lab::{html_report, query, Archive, LabGroupBy, LabQuery, LabSelector, RunMeta};
use jem_obs::tui::fmt_si;
use jem_obs::Json;
use std::process::ExitCode;

const INGEST: &[Flag] = &[("--bin", true), ("--run-args", true)];
const QUERY: &[Flag] = &[
    ("--series", true),
    ("--column", true),
    ("--window", true),
    ("--group-by", true),
    ("--json", false),
];
const REPORT: &[Flag] = &[("--out", true)];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    // The command's flag helpers skip its name like a program name.
    let args = &args[1.min(args.len())..];
    let flags = match args.first().map(String::as_str) {
        Some("ingest") => INGEST,
        Some("ls" | "verify") => &[],
        Some("query") => QUERY,
        Some("report") => REPORT,
        Some(other) => usage_error(format!("unknown jem lab command '{other}'")),
        None => usage_error("jem lab needs a command: ingest|ls|query|report|verify"),
    };
    let cmd = args[0].as_str();
    reject_unknown_flags(args, &[flags]);
    let operands = positionals(args, &[flags]);
    let Some(root) = operands.first() else {
        usage_error(format!("jem lab {cmd} needs an archive directory"));
    };
    if cmd != "ingest" && operands.len() > 1 {
        usage_error(format!(
            "jem lab {cmd}: unexpected argument '{}'",
            operands[1]
        ));
    }
    match cmd {
        "ingest" => ingest(root, &operands[1..], args),
        "ls" => ls(&Archive::open(root)?),
        "query" => cmd_query(root, args),
        "report" => {
            let Some(out) = arg_str(args, "--out") else {
                usage_error("jem lab report needs --out <report.html>");
            };
            let html = html_report(&Archive::open(root)?)?;
            write_out(&out, html.as_bytes())?;
            println!("wrote {out}");
            Ok(ExitCode::SUCCESS)
        }
        _ => verify(&Archive::open(root)?),
    }
}

fn ingest(root: &str, files: &[String], args: &[String]) -> Result<ExitCode, String> {
    let Some(bin) = arg_str(args, "--bin") else {
        usage_error("jem lab ingest needs --bin");
    };
    let files: Vec<(String, String)> = files
        .iter()
        .map(|f| match f.split_once('=') {
            Some((kind, path)) => (kind.to_string(), path.to_string()),
            None => usage_error(format!(
                "expected <kind>=<path>, got '{f}' \
                 (kinds: bench, bench-history, trace, timeline, health, metrics)"
            )),
        })
        .collect();
    if files.is_empty() {
        usage_error("jem lab ingest needs at least one <kind>=<path> artifact");
    }
    let mut argv = vec![bin];
    argv.extend(
        arg_str(args, "--run-args")
            .unwrap_or_default()
            .split_whitespace()
            .map(str::to_string),
    );
    let record = Archive::open_or_create(root)?.ingest_files(&RunMeta::from_argv(&argv), &files)?;
    println!(
        "ingested {} ({} artifact(s), run {})",
        record.label(),
        record.artifacts.len(),
        record.run_id
    );
    Ok(ExitCode::SUCCESS)
}

fn ls(archive: &Archive) -> Result<ExitCode, String> {
    let runs = archive.runs()?;
    for run in &runs {
        println!(
            "{}  seed={}  artifacts=[{}]  args=[{}]",
            run.label(),
            run.meta
                .seed
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            run.artifacts
                .iter()
                .map(|a| a.kind.as_str())
                .collect::<Vec<_>>()
                .join(","),
            run.meta.args.join(" ")
        );
    }
    println!("{} run(s)", runs.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(root: &str, args: &[String]) -> Result<ExitCode, String> {
    let selector = match (arg_str(args, "--series"), arg_str(args, "--column")) {
        (Some(s), None) => LabSelector::Series(s),
        (None, Some(c)) => LabSelector::Column(c),
        _ => usage_error("jem lab query needs one of --series <name> or --column <path>"),
    };
    let group_by = match arg_str(args, "--group-by").as_deref() {
        None | Some("fingerprint") => LabGroupBy::Fingerprint,
        Some("bin") => LabGroupBy::Bin,
        Some("args") => LabGroupBy::Args,
        Some(other) => usage_error(format!(
            "--group-by needs fingerprint|bin|args, got '{other}'"
        )),
    };
    let spec = LabQuery {
        selector,
        window: window(args),
        group_by,
    };
    let groups = query(&Archive::open(root)?, &spec)?;
    if arg_flag(args, "--json") {
        let doc = Json::object().with(
            "groups",
            Json::Arr(groups.iter().map(|g| g.to_json()).collect()),
        );
        println!("{}", doc.render_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    for g in &groups {
        println!(
            "{}: n={} mean={} stddev={} min={} max={} ({} run(s))",
            g.key,
            g.summary.count(),
            fmt_si(g.summary.mean()),
            fmt_si(g.summary.stddev()),
            fmt_si(g.summary.min()),
            fmt_si(g.summary.max()),
            g.runs.len()
        );
        for r in &g.runs {
            println!(
                "  {}: n={} mean={}",
                r.label,
                r.summary.count(),
                fmt_si(r.summary.mean())
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn verify(archive: &Archive) -> Result<ExitCode, String> {
    let findings = archive.verify()?;
    if findings.is_empty() {
        println!("archive OK");
        return Ok(ExitCode::SUCCESS);
    }
    for f in &findings {
        eprintln!("jem lab: {f}");
    }
    eprintln!("jem lab: {} integrity finding(s)", findings.len());
    Ok(ExitCode::FAILURE)
}
