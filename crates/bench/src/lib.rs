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
//! and the tools around them: `bench-history` records and gates the
//! committed baselines, `jem-chaos` kills and resumes a bin, and `jem`
//! reads what the bins write (`jem check`, `query`, `profile`,
//! `timeline`, `diff`, `lab` and `top`; see `src/bin/jem/main.rs`).
//!
//! This library holds the shared plumbing: table rendering, parallel
//! profile construction, the observability output options every
//! bin accepts (`--trace out.jtb`, `--metrics-out out.prom`,
//! `--json-out BENCH_x.json`) — see [`obs`] — and the argv helpers
//! every binary parses its flags with ([`reject_unknown_flags`],
//! [`arg_parse`], [`arg_str`], [`arg_values`], [`positionals`]).

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

/// A flag a bin accepts: its name and whether a value follows it.
pub type Flag = (&'static str, bool);

/// The flag [`apply_engine_flag`] reads.
pub const ENGINE_FLAGS: &[Flag] = &[("--slow-interp", false)];

/// One argument after the program name, read against the accepted
/// flags.
enum Arg<'a> {
    /// An accepted flag that takes a value, with the argument after it
    /// (`None` when argv ends first).
    Value(&'a str, Option<&'a str>),
    /// An accepted flag that takes no value.
    Switch,
    /// A `--` argument that is none of the accepted flags.
    Unknown(&'a str),
    /// Any other argument.
    Positional(&'a str),
}

/// Read argv after the program name against `accepted`. The argument
/// after a flag that takes a value is that value, whatever it looks
/// like, so it is never read as a flag or as a positional.
fn walk<'a>(args: &'a [String], accepted: &[&[Flag]]) -> Vec<Arg<'a>> {
    let mut out = Vec::new();
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            out.push(Arg::Positional(a));
            continue;
        }
        out.push(
            match accepted
                .iter()
                .flat_map(|f| f.iter())
                .find(|(name, _)| name == a)
            {
                Some((_, true)) => Arg::Value(a, rest.next().map(String::as_str)),
                Some((_, false)) => Arg::Switch,
                None => Arg::Unknown(a),
            },
        );
    }
    out
}

/// The first argument after the program name that starts with `--` and
/// is none of `accepted`. The value after a flag that takes one is
/// skipped, whatever it looks like.
pub fn unknown_flag<'a>(args: &'a [String], accepted: &[&[Flag]]) -> Option<&'a str> {
    walk(args, accepted).into_iter().find_map(|a| match a {
        Arg::Unknown(flag) => Some(flag),
        _ => None,
    })
}

/// Exit 2 before anything runs, naming the flag and listing the
/// accepted ones, when argv holds a `--` flag that is none of
/// `accepted` (see [`unknown_flag`]), gives a flag that takes a value
/// one of the accepted flag names as its value, or ends with a flag
/// that takes a value.
///
/// Once it returns, every accepted flag name in argv is a flag, so
/// [`arg_flag`], [`arg_str`] and [`arg_parse`], which take the first
/// argument equal to the name, read the same flags as [`arg_values`]
/// and [`positionals`], which skip flag values.
pub fn reject_unknown_flags(args: &[String], accepted: &[&[Flag]]) {
    let names: Vec<&str> = accepted
        .iter()
        .flat_map(|f| f.iter().map(|f| f.0))
        .collect();
    if let Some(flag) = unknown_flag(args, accepted) {
        eprintln!("error: unknown flag {flag} (accepted: {})", names.join(" "));
        std::process::exit(2);
    }
    for arg in walk(args, accepted) {
        match arg {
            Arg::Value(flag, Some(v)) if names.contains(&v) => {
                eprintln!("error: {flag} expects a value, got the flag {v}");
                std::process::exit(2);
            }
            Arg::Value(flag, None) => {
                eprintln!("error: {flag} expects a value");
                std::process::exit(2);
            }
            _ => {}
        }
    }
}

/// Every value given to the repeatable flag `flag`, in argv order.
pub fn arg_values(args: &[String], accepted: &[&[Flag]], flag: &str) -> Vec<String> {
    walk(args, accepted)
        .into_iter()
        .filter_map(|a| match a {
            Arg::Value(name, Some(v)) if name == flag => Some(v.to_string()),
            _ => None,
        })
        .collect()
}

/// The arguments after the program name that are neither flags nor
/// flag values.
pub fn positionals(args: &[String], accepted: &[&[Flag]]) -> Vec<String> {
    walk(args, accepted)
        .into_iter()
        .filter_map(|a| match a {
            Arg::Positional(p) => Some(p.to_string()),
            _ => None,
        })
        .collect()
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
    fn unknown_flags_are_found_and_values_skipped() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let own: &[Flag] = &[("--runs", true), ("--full", false)];
        let accepted = [own, ENGINE_FLAGS];
        let ok = argv(&["faults", "fig1", "--runs", "--x", "--full", "--slow-interp"]);
        assert_eq!(unknown_flag(&ok, &accepted), None);
        let typo = argv(&["faults", "--run", "3"]);
        assert_eq!(unknown_flag(&typo, &accepted), Some("--run"));
        let after_bool = argv(&["faults", "--full", "--runz"]);
        assert_eq!(unknown_flag(&after_bool, &accepted), Some("--runz"));
        assert_eq!(unknown_flag(&argv(&["--runz"]), &accepted), None);
    }

    #[test]
    fn values_and_positionals_skip_flag_values() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let own: &[Flag] = &[("--kind", true), ("--json", false)];
        let args = argv(&[
            "query", "t.jtb", "--kind", "a", "--json", "--kind", "--json", "b",
        ]);
        assert_eq!(arg_values(&args, &[own], "--kind"), ["a", "--json"]);
        assert_eq!(positionals(&args, &[own]), ["t.jtb", "b"]);
    }

    #[test]
    fn fmt_norm_one_decimal() {
        assert_eq!(fmt_norm(100.0), "100.0");
        assert_eq!(fmt_norm(33.333), "33.3");
    }
}
