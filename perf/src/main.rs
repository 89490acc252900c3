//! `jem-perf` — the host-time benchmark's command line.
//!
//! ```text
//! jem-perf bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--report F]
//! jem-perf run [--seed N] [--out F]
//! jem-perf compare PARENT.json... -- CHANGE.json...
//! jem-perf bless
//! ```
//!
//! `bench` measures one workload in this process and prints one JSON
//! result line last on stdout (end-to-end metrics, or per-layer
//! metrics with `--trace 1`). Each workload runs a fixed number of
//! rounds, so `--seconds` changes nothing: it belongs to the calling
//! convention of `BENCHMARK.json`'s command and must equal its
//! `run_seconds`. `run` measures all four workloads, each
//! in its own child process, one after another, and prints every
//! metric. `compare` judges run documents of a parent against a
//! change. `bless` rewrites `golden.json` from the default seed.

use jem_obs::Json;
use jem_perf::bench::{self, Kind, RunOptions};
use jem_perf::catalogue::Catalogue;
use jem_perf::check;
use jem_perf::compare::{compare, Verdict};
use jem_perf::report::{render_report, report_json, result_line};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  jem-perf bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--report F]
  jem-perf run [--seed N] [--out F]
  jem-perf compare PARENT.json... -- CHANGE.json...
  jem-perf bless";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// `--flag value` pairs, each flag at most once, only from `allowed`.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if out.insert(flag.clone(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match f.get(flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: bad value `{v}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cat = Catalogue::load();
    let result = match args.first().map(String::as_str) {
        Some("bench") => cmd_bench(&cat, &args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&cat, &args[1..]),
        Some("bless") if args.len() == 1 => cmd_bless(),
        _ => Err("expected a command".to_string()),
    };
    result.unwrap_or_else(|e| usage_error(&e))
}

fn cmd_bench(cat: &Catalogue, args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--report"],
    )?;
    let name = f.get("--workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = parse(&f, "--seed", 0)?;
    if parse(&f, "--seconds", cat.run_seconds)? != cat.run_seconds {
        return Err(format!(
            "--seconds: the rounds are fixed; BENCHMARK.json's run length is {} s",
            cat.run_seconds
        ));
    }
    let trace = match f.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: bad value `{v}`")),
    };
    let run = match bench::run(kind, RunOptions { seed, trace }, &check::golden()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let report = report_json(&run, cat, seed);
    eprint!("{}", render_report(&report));
    if let Some(path) = f.get("--report") {
        if let Err(e) = jem_obs::write_atomic(path, report.render().as_bytes()) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    println!("{}", result_line(&run, cat, trace));
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--seed", "--out"])?;
    let seed: u64 = parse(&f, "--seed", 0)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let mut reports = Vec::new();
    let mut ok = true;
    for kind in Kind::ALL {
        // One child per workload, one after another: each measures in
        // a fresh process (its own peak RSS, no heap left over from
        // another workload).
        let path = dir.join(format!(
            "jem-perf-report-{}-{}.json",
            std::process::id(),
            kind.name()
        ));
        let child = Command::new(&exe)
            .args(["bench", "--workload", kind.name(), "--trace", "1"])
            .args(["--seed", &seed.to_string()])
            .arg("--report")
            .arg(&path)
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let text = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        let report = match (child.status.success(), text) {
            (true, Ok(t)) => Json::parse(&t).map_err(|e| format!("{}: {e}", kind.name()))?,
            _ => {
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                return Err(format!("{} run failed ({})", kind.name(), child.status));
            }
        };
        print!("{}", render_report(&report));
        ok &= report.get("failed").and_then(Json::as_u64) == Some(0);
        reports.push(report);
    }
    let doc = Json::object()
        .with("schema", "jem-perf-run/v1")
        .with("seed", seed)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("workloads", Json::Arr(reports));
    if let Some(out) = f.get("--out") {
        jem_obs::write_atomic(out, doc.render_pretty().as_bytes())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(cat: &Catalogue, args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between parent and change documents")?;
    let load = |paths: &[String]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (parent, change) = (load(&args[..split])?, load(&args[split + 1..])?);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one document on each side".to_string());
    }
    let rows = compare(cat, &parent, &change)?;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "gain", "spread", "wins"
    );
    let mut regressed = false;
    for r in &rows {
        let j = &r.judgement;
        regressed |= j.verdict == Verdict::Regressed;
        println!(
            "{:<16} {:<12} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>3}/{:<2}  {}",
            r.workload,
            r.metric,
            j.parent,
            j.change,
            j.gain * 100.0,
            j.spread * 100.0,
            j.wins,
            j.pairs,
            j.verdict.label()
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_bless() -> Result<ExitCode, String> {
    let mut golden = check::Golden::new();
    let oracle = check::faults_oracle();
    for kind in [Kind::Fig7Grid, Kind::InterpOnly, Kind::FaultsSweep] {
        let mut runner = bench::Runner::new(kind, 0, false).map_err(|e| e.to_string())?;
        let mut digests = BTreeMap::new();
        for i in 0..runner.units.len() {
            let out = runner.run_unit(i, true, bench::Probe::None);
            let name = &runner.units[i].name;
            if out.check == Some(false) {
                return Err(format!("{name}: Workload::check failed"));
            }
            if !kind.seeded() && oracle.get(name).copied() != out.totals {
                return Err(format!("{name}: differs from BENCH_faults.json"));
            }
            digests.insert(runner.units[i].name.clone(), out.digest);
        }
        golden.insert(kind.name().to_string(), digests);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
    jem_obs::write_atomic(path, check::render_golden(&golden).as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}
