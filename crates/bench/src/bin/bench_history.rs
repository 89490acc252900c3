//! Continuous-benchmark harness: record and gate `BENCH_<bin>.json`
//! baselines.
//!
//! ```text
//! bench-history record <bin> [--k N] [--out path] [-- <bin args>...]
//! bench-history check <baseline.json> [--k N] [--rel-tol x] [--threshold x]
//!                     [--min-instr N] [--fail-on-throughput] [--report out.json]
//! ```
//!
//! `record` runs a sibling bench binary (located next to this
//! executable) K times (default 3) with `--json-out`, and writes a
//! baseline capturing
//!
//! * **results** — the bin's machine-readable `--json-out` document.
//!   Energy figures are produced by a deterministic simulator over
//!   IEEE-754 `f64`, so they are bit-identical across machines and
//!   are gated *strictly*;
//! * **throughput** — median-of-K wall-clock seconds and, where the
//!   bin reports `total_sim_instructions`, simulated instructions per
//!   wall-second. Wall clock is machine-dependent, so the gate treats
//!   it as *soft*: past `--threshold` (default 0.5, i.e. ±50%) it
//!   warns, and fails only when `--fail-on-throughput` is given
//!   (intended for dedicated perf machines, not shared CI runners).
//!   Runs below `--min-instr` simulated instructions (default 1M) are
//!   process-overhead dominated — their instr/sec says nothing about
//!   the simulator — so the throughput comparison is reported but
//!   never gated, no matter the flags.
//!
//! `check` re-runs the binary with the args recorded in the baseline
//! and diffs the fresh results against it with the same noise-aware
//! policy `jem diff` uses. It is the one regression gate on simulated
//! results: CI runs it over every committed
//! `bench/baselines/BENCH_*.json`. Exit status: 0 clean, 1
//! regression, 2 usage error (including a flag the subcommand does
//! not accept; the arguments after `record`'s `--` belong to the bin
//! and are not checked).

use jem_bench::{arg_parse, arg_usize};
use jem_obs::diff::{diff_json, DiffPolicy, DiffReport};
use jem_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: bench-history record <bin> [--k N] [--out path] \
                     [-- <bin args>...]\n\
                     \x20      bench-history check <baseline.json> [--k N] [--rel-tol x] \
                     [--threshold x] [--min-instr N] [--fail-on-throughput] [--report out.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Each subcommand rejects a flag it does not read before anything
    // runs; `args[0]`, the subcommand, is skipped like a program name.
    match args.first().map(String::as_str) {
        Some("record") => {
            let own = args.split(|a| a == "--").next().unwrap_or_default();
            jem_bench::reject_unknown_flags(own, &[&[("--k", true), ("--out", true)]]);
            record(&args[1..])
        }
        Some("check") => {
            jem_bench::reject_unknown_flags(
                &args,
                &[&[
                    ("--k", true),
                    ("--rel-tol", true),
                    ("--threshold", true),
                    ("--min-instr", true),
                    ("--fail-on-throughput", false),
                    ("--report", true),
                ]],
            );
            check(&args[1..])
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The directory holding the sibling bench binaries.
fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run `bin` once with `--json-out` into a scratch file; returns the
/// parsed results document and the run's wall-clock seconds.
fn run_once(bin: &str, extra: &[String]) -> Result<(Json, f64), String> {
    let exe = bin_dir().join(bin);
    let scratch =
        std::env::temp_dir().join(format!("bench-history-{}-{bin}.json", std::process::id()));
    let started = Instant::now();
    let status = Command::new(&exe)
        .args(extra)
        .arg("--json-out")
        .arg(&scratch)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let wall = started.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("{bin} exited with {status}"));
    }
    let text = std::fs::read_to_string(&scratch)
        .map_err(|e| format!("{bin} wrote no --json-out ({e})"))?;
    let _ = std::fs::remove_file(&scratch);
    let doc = Json::parse(&text).map_err(|e| format!("{bin} --json-out: {e}"))?;
    Ok((doc, wall))
}

/// Run `bin` K times; results must be identical across repeats
/// (the determinism the whole workspace guarantees) and the median
/// wall-clock is the throughput sample.
fn run_k(bin: &str, extra: &[String], k: usize) -> Result<(Json, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(k);
    let mut results: Option<Json> = None;
    for i in 0..k {
        let (doc, wall) = run_once(bin, extra)?;
        walls.push(wall);
        match &results {
            None => results = Some(doc),
            Some(first) => {
                if *first != doc {
                    return Err(format!(
                        "{bin}: repeat {i} produced different results than repeat 0 — \
                         the bin is nondeterministic; fix that before baselining"
                    ));
                }
            }
        }
    }
    Ok((results.expect("k >= 1"), walls))
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[s.len() / 2]
}

fn throughput_json(results: &Json, k: usize, walls: &[f64]) -> Json {
    let med = median(walls);
    let mut t = Json::object()
        .with("k", k)
        .with(
            "wall_secs",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        )
        .with("median_wall_secs", med);
    if let Some(instr) = results.get("total_sim_instructions").and_then(Json::as_u64) {
        t = t
            .with("sim_instructions", instr)
            .with("sim_instructions_per_sec", instr as f64 / med.max(1e-9));
    }
    t
}

fn record(args: &[String]) -> ExitCode {
    let split = args.iter().position(|a| a == "--");
    let (own, extra): (&[String], &[String]) = match split {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (args, &[]),
    };
    let Some(bin) = own.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let k = arg_usize(own, "--k", 3).max(1);
    let out = jem_bench::arg_str(own, "--out").unwrap_or_else(|| format!("BENCH_{bin}.json"));

    eprintln!("bench-history: recording {bin} (k={k}, args: {extra:?})");
    let (results, walls) = match run_k(bin, extra, k) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-history: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = Json::object()
        .with("schema", "bench-history/v1")
        .with("bin", bin.as_str())
        .with(
            "args",
            Json::Arr(extra.iter().map(|a| Json::Str(a.clone())).collect()),
        )
        .with("results", results.clone())
        .with("throughput", throughput_json(&results, k, &walls));
    if let Err(e) =
        jem_obs::write_atomic(&out, format!("{}\n", baseline.render_pretty()).as_bytes())
    {
        eprintln!("bench-history: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "bench-history: {out}: recorded ({k} runs, median {:.2}s)",
        median(&walls)
    );
    ExitCode::SUCCESS
}

fn check(args: &[String]) -> ExitCode {
    let Some(baseline_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rel_tol: f64 = arg_parse(args, "--rel-tol", 1e-9);
    let threshold: f64 = arg_parse(args, "--threshold", 0.5);
    let fail_on_throughput = args.iter().any(|a| a == "--fail-on-throughput");
    let min_instr: u64 = arg_parse(args, "--min-instr", 1_000_000);
    let report_path = jem_bench::arg_str(args, "--report");

    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-history: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench-history: {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(bin) = baseline.get("bin").and_then(Json::as_str) else {
        eprintln!("bench-history: {baseline_path}: missing 'bin'");
        return ExitCode::FAILURE;
    };
    let extra: Vec<String> = baseline
        .get("args")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let k = arg_usize(
        args,
        "--k",
        baseline
            .get("throughput")
            .and_then(|t| t.get("k"))
            .and_then(Json::as_u64)
            .unwrap_or(3) as usize,
    )
    .max(1);

    eprintln!("bench-history: checking {bin} against {baseline_path} (k={k}, args: {extra:?})");
    let (fresh, walls) = match run_k(bin, &extra, k) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-history: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Deterministic figures: strict structural diff.
    let mut report = DiffReport::default();
    let policy = DiffPolicy::perf_gate(rel_tol, threshold);
    let empty = Json::object();
    let base_results = baseline.get("results").unwrap_or(&empty);
    diff_json(base_results, &fresh, &policy, &mut report);

    // Machine-dependent throughput: soft gate on instructions/sec.
    let base_ips = baseline
        .get("throughput")
        .and_then(|t| t.get("sim_instructions_per_sec"))
        .and_then(Json::as_f64);
    let fresh_tp = throughput_json(&fresh, k, &walls);
    let fresh_ips = fresh_tp
        .get("sim_instructions_per_sec")
        .and_then(Json::as_f64);
    let fresh_instr = fresh_tp.get("sim_instructions").and_then(Json::as_u64);
    if let (Some(old), Some(new)) = (base_ips, fresh_ips) {
        let rel = (new - old) / old;
        let line = format!(
            "throughput: {new:.3e} vs baseline {old:.3e} sim-instructions/sec ({:+.1}%)",
            rel * 100.0
        );
        if fresh_instr.is_some_and(|i| i < min_instr) {
            // Micro-runs: wall clock is dominated by process startup
            // and I/O, not the simulator. Report, never gate.
            eprintln!(
                "bench-history: {line} [not gated: {} sim-instructions is below the \
                 --min-instr floor of {min_instr}]",
                fresh_instr.unwrap_or(0)
            );
        } else if rel < -threshold {
            if fail_on_throughput {
                report.entries.push(jem_obs::DiffEntry {
                    kind: jem_obs::DiffKind::Changed,
                    path: "throughput/sim_instructions_per_sec".to_string(),
                    detail: line.clone(),
                    rel_delta: Some(rel.abs()),
                });
                eprintln!("bench-history: REGRESSION {line}");
            } else {
                eprintln!("bench-history: warning (soft gate): {line}");
            }
        } else {
            eprintln!("bench-history: {line}");
        }
    }

    print!("{}", report.render_text());
    if let Some(path) = report_path {
        let doc = report
            .to_json()
            .with("baseline", baseline_path.as_str())
            .with("bin", bin)
            .with("throughput", fresh_tp);
        if let Err(e) =
            jem_obs::write_atomic(&path, format!("{}\n", doc.render_pretty()).as_bytes())
        {
            eprintln!("bench-history: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-history: wrote report to {path}");
    }
    if report.has_changes() {
        eprintln!("bench-history: {bin}: REGRESSION vs {baseline_path}");
        ExitCode::FAILURE
    } else {
        println!("bench-history: {bin}: OK vs {baseline_path}");
        ExitCode::SUCCESS
    }
}
