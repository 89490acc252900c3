//! The experiment-archive CLI over [`jem_obs::lab`].
//!
//! ```text
//! jem-lab ingest <archive> --bin <name> [--run-args "<args>"] <kind>=<path>...
//! jem-lab ls <archive>
//! jem-lab query <archive> (--series <name> | --column <path>)
//!               [--window a:b] [--group-by fingerprint|bin|args] [--json]
//! jem-lab report <archive> --out <report.html>
//! jem-lab verify <archive>
//! ```
//!
//! * `ingest` stores a run's artifact files (`bench=BENCH_x.json
//!   trace=x.jtb timeline=x.jts health=x.json metrics=x.prom
//!   bench-history=baseline.json`) under the fingerprint derived from
//!   `--bin` and `--run-args` (output-path flags are stripped; the
//!   seed is parsed from `--seed` within the run args). Bench bins do
//!   this automatically when run with `--archive <dir>`.
//! * `query` selects a timeline series (window-end value per segment)
//!   or a JSON column path (with `*` wildcards) across every archived
//!   run, grouped and reduced with Welford summaries. `--window` is in
//!   sim-ms, like `jem-timeline`.
//! * `report` renders the self-contained static HTML report (inline
//!   SVG only, no external resources).
//! * `verify` recomputes every manifest fingerprint and blob hash.
//!
//! The archive gates nothing: `bench-history check` gates simulated
//! results against the committed baselines, and `jem-diff` compares
//! any two documents.
//!
//! Exit status: 0 on success (for `verify`: archive intact), 1 when
//! the archive is damaged or an operation failed, 2 on usage errors.

use jem_obs::json::Json;
use jem_obs::lab::{html_report, query, Archive, LabGroupBy, LabQuery, LabSelector, RunMeta};
use jem_obs::tui::fmt_si;
use std::process::ExitCode;

const USAGE: &str = "usage: jem-lab <ingest|ls|query|report|verify> <archive> [options]\n\
  ingest <archive> --bin <name> [--run-args \"<args>\"] <kind>=<path>...\n\
  ls     <archive>\n\
  query  <archive> (--series <name> | --column <path>) [--window a:b] \
[--group-by fingerprint|bin|args] [--json]\n\
  report <archive> --out <report.html>\n\
  verify <archive>";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("jem-lab: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage_err("missing command");
    };
    let Some(root) = args.get(1) else {
        return usage_err("missing archive directory");
    };
    let rest = &args[2..];
    match cmd.as_str() {
        "ingest" => cmd_ingest(root, rest),
        "ls" => cmd_ls(root),
        "query" => cmd_query(root, rest),
        "report" => cmd_report(root, rest),
        "verify" => cmd_verify(root),
        "--help" | "-h" => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_err(&format!("unknown command '{other}'")),
    }
}

fn open(root: &str) -> Result<Archive, ExitCode> {
    Archive::open_or_create(root).map_err(|e| {
        eprintln!("jem-lab: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_ingest(root: &str, rest: &[String]) -> ExitCode {
    let mut bin = None;
    let mut run_args: Vec<String> = Vec::new();
    let mut files: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--bin" => {
                let Some(v) = rest.get(i + 1) else {
                    return usage_err("--bin needs a name");
                };
                bin = Some(v.clone());
                i += 2;
            }
            "--run-args" => {
                let Some(v) = rest.get(i + 1) else {
                    return usage_err("--run-args needs a string");
                };
                run_args = v.split_whitespace().map(str::to_string).collect();
                i += 2;
            }
            other => {
                let Some((kind, path)) = other.split_once('=') else {
                    return usage_err(&format!(
                        "expected <kind>=<path>, got '{other}' \
                         (kinds: bench, bench-history, trace, timeline, health, metrics)"
                    ));
                };
                files.push((kind.to_string(), path.to_string()));
                i += 1;
            }
        }
    }
    let Some(bin) = bin else {
        return usage_err("ingest needs --bin");
    };
    if files.is_empty() {
        return usage_err("ingest needs at least one <kind>=<path> artifact");
    }
    let mut argv = vec![bin];
    argv.extend(run_args);
    let meta = RunMeta::from_argv(&argv);
    let archive = match open(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match archive.ingest_files(&meta, &files) {
        Ok(record) => {
            println!(
                "ingested {} ({} artifact(s), run {})",
                record.label(),
                record.artifacts.len(),
                record.run_id
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jem-lab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ls(root: &str) -> ExitCode {
    let archive = match open(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match archive.runs() {
        Ok(runs) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jem-lab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(root: &str, rest: &[String]) -> ExitCode {
    let mut selector = None;
    let mut window = None;
    let mut group_by = LabGroupBy::Fingerprint;
    let mut json = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--series" => {
                let Some(v) = rest.get(i + 1) else {
                    return usage_err("--series needs a name");
                };
                selector = Some(LabSelector::Series(v.clone()));
                i += 2;
            }
            "--column" => {
                let Some(v) = rest.get(i + 1) else {
                    return usage_err("--column needs a path");
                };
                selector = Some(LabSelector::Column(v.clone()));
                i += 2;
            }
            "--window" => {
                // Sim-ms for human ergonomics, like jem-timeline.
                let parsed = rest.get(i + 1).and_then(|v| {
                    let (a, b) = v.split_once(':')?;
                    let (a, b): (f64, f64) = (a.parse().ok()?, b.parse().ok()?);
                    (a <= b).then_some((a * 1e6, b * 1e6))
                });
                let Some(w) = parsed else {
                    return usage_err("--window needs a:b in sim-ms with a <= b");
                };
                window = Some(w);
                i += 2;
            }
            "--group-by" => {
                group_by = match rest.get(i + 1).map(String::as_str) {
                    Some("fingerprint") => LabGroupBy::Fingerprint,
                    Some("bin") => LabGroupBy::Bin,
                    Some("args") => LabGroupBy::Args,
                    _ => return usage_err("--group-by needs fingerprint|bin|args"),
                };
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => return usage_err(&format!("unknown query option '{other}'")),
        }
    }
    let Some(selector) = selector else {
        return usage_err("query needs --series <name> or --column <path>");
    };
    let archive = match open(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let spec = LabQuery {
        selector,
        window,
        group_by,
    };
    match query(&archive, &spec) {
        Ok(groups) => {
            if json {
                let doc = Json::object().with(
                    "groups",
                    Json::Arr(groups.iter().map(|g| g.to_json()).collect()),
                );
                println!("{}", doc.render_pretty());
            } else {
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
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jem-lab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_report(root: &str, rest: &[String]) -> ExitCode {
    let mut out = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => {
                let Some(v) = rest.get(i + 1) else {
                    return usage_err("--out needs a path");
                };
                out = Some(v.clone());
                i += 2;
            }
            other => return usage_err(&format!("unknown report option '{other}'")),
        }
    }
    let Some(out) = out else {
        return usage_err("report needs --out <report.html>");
    };
    let archive = match open(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match html_report(&archive) {
        Ok(html) => {
            if let Err(e) = jem_obs::write_atomic(&out, html.as_bytes()) {
                eprintln!("jem-lab: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jem-lab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_verify(root: &str) -> ExitCode {
    let archive = match open(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match archive.verify() {
        Ok(findings) if findings.is_empty() => {
            println!("archive OK");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("jem-lab: {f}");
            }
            eprintln!("jem-lab: {} integrity finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("jem-lab: {e}");
            ExitCode::FAILURE
        }
    }
}
