//! # jem-bench — experiment harnesses
//!
//! Binaries that regenerate every table and figure of the paper
//! (see DESIGN.md §5 for the experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `tables` | Fig 1, Fig 2, Fig 3, Fig 5 (constant tables) |
//! | `fig6` | Fig 6 — static strategies, 3 benchmarks × 2 sizes |
//! | `fig7` | Fig 7 — all strategies × 3 situations × 8 benchmarks |
//! | `fig8` | Fig 8 — local vs remote compilation energies |
//! | `speedup` | §3.2 — remote-execution speedup (2.5–10×) |
//! | `estfit` | §3.2 — curve-fit estimator accuracy (≤ 2%) |
//! | `ablation` | design-choice ablations (EWMA weight, power-down, …) |
//! | `faults` | resilience sweep — AA vs naive AA vs AL under bursty loss |
//!
//! This library holds the shared plumbing: table rendering, parallel
//! profile construction, and the observability output options every
//! bin accepts (`--trace out.jtb`, `--metrics-out out.prom`,
//! `--json-out BENCH_x.json`) — see [`obs`].

#![warn(missing_docs)]

use jem_core::{Profile, Workload};

pub mod ckpt;
pub mod obs;

/// Render a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(ncols) {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Build profiles for a set of workloads in parallel.
pub fn build_profiles(workloads: &[Box<dyn Workload>], seed: u64) -> Vec<Profile> {
    let refs: Vec<&dyn Workload> = workloads.iter().map(AsRef::as_ref).collect();
    jem_sim::parallel::sweep(&refs, 0, |w| Profile::build(*w, seed))
}

/// Format a normalized (×100) value like the paper's tables.
pub fn fmt_norm(v: f64) -> String {
    format!("{v:.1}")
}

/// Parse a `--runs N`-style flag from argv, with a default.
///
/// A flag that is present but has no value, or whose value does not
/// parse as a `usize`, exits 2 with a message naming the flag (see
/// [`arg_parse`]).
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_parse(args, flag, default)
}

/// Parse a `--flag value` option from argv, with a default when the
/// flag is absent.
///
/// A present flag with no value, or with a value that does not parse
/// as a `T`, exits the process with status 2 before anything runs,
/// naming the flag and the value.
pub fn arg_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    match args.get(i + 1) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag}: cannot parse {v:?}");
            std::process::exit(2);
        }),
        None => {
            eprintln!("error: {flag} expects a value");
            std::process::exit(2);
        }
    }
}

/// True when `--full` was passed (run paper-scale workloads).
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Apply the `--slow-interp` engine flag: route every bytecode method
/// through the reference per-op interpreter instead of the pre-decoded
/// fast path (see `jem_jvm::set_slow_interp_default`). The two engines
/// are observationally identical — `fastpath_equiv.rs` and the CI
/// engine-differential step are the proof — so this only changes wall
/// clock, never results. Call before any VM is constructed.
pub fn apply_engine_flag(args: &[String]) {
    if arg_flag(args, "--slow-interp") {
        jem_jvm::set_slow_interp_default(true);
    }
}

/// Parse a `--flag value` string option from argv.
pub fn arg_str(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--runs", "42", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--runs", 7), 42);
        assert_eq!(arg_usize(&args, "--missing", 7), 7);
        assert!(arg_flag(&args, "--full"));
        assert!(!arg_flag(&args, "--quick"));
    }

    #[test]
    fn fmt_norm_one_decimal() {
        assert_eq!(fmt_norm(100.0), "100.0");
        assert_eq!(fmt_norm(33.333), "33.3");
    }
}
