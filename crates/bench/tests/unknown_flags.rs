//! An argument that starts with `--` and is not a flag the bin accepts
//! is rejected loudly (exit 2, naming it) before anything runs or is
//! written, instead of being ignored while the bin runs at its
//! defaults. A bin accepts only the output flags it reads, and
//! `bench-history` checks each subcommand's flags.

use jem_obs::scratch_dir;
use std::process::Command;

/// Each bin with flags it accepts that keep a run short, should a
/// misspelt flag be ignored, and the misspelt flag.
const CORPUS: &[(&str, &[&str], &str)] = &[
    (env!("CARGO_BIN_EXE_ablation"), &["--runs", "1"], "--run"),
    (env!("CARGO_BIN_EXE_estfit"), &[], "--seed"),
    (env!("CARGO_BIN_EXE_faults"), &["--runs", "1"], "--run"),
    (env!("CARGO_BIN_EXE_fig6"), &[], "--ful"),
    (env!("CARGO_BIN_EXE_fig7"), &["--runs", "1"], "--threads"),
    (env!("CARGO_BIN_EXE_fig8"), &[], "--runs"),
    (
        env!("CARGO_BIN_EXE_interp-bench"),
        &["--n", "1", "--reps", "1"],
        "--slow_interp",
    ),
    (env!("CARGO_BIN_EXE_speedup"), &[], "--tracee"),
    (env!("CARGO_BIN_EXE_tables"), &["fig1"], "--ckpt-evry"),
];

/// Each bin with flags that keep a run short, and the output and
/// checkpoint flags it does not read, so refuses.
const UNREAD: &[(&str, &[&str], &[&str])] = &[
    (
        env!("CARGO_BIN_EXE_tables"),
        &["fig1"],
        &[
            "--trace",
            "--timeline",
            "--sample-every",
            "--monitor",
            "--health-out",
            "--metrics-out",
            "--flush-every",
            "--ckpt",
            "--resume",
            "--ckpt-every",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fig8"),
        &[],
        &[
            "--trace",
            "--timeline",
            "--sample-every",
            "--monitor",
            "--health-out",
            "--metrics-out",
            "--flush-every",
            "--ckpt",
            "--resume",
            "--ckpt-every",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_estfit"),
        &[],
        &[
            "--trace",
            "--timeline",
            "--sample-every",
            "--monitor",
            "--health-out",
            "--flush-every",
            "--ckpt",
            "--resume",
            "--ckpt-every",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation"),
        &["--runs", "1"],
        &["--metrics-out", "--ckpt-every"],
    ),
    (env!("CARGO_BIN_EXE_speedup"), &[], &["--metrics-out"]),
];

/// Run `bin args flag 3 --json-out BENCH.json` in a fresh directory
/// and assert it exits 2 naming `flag` and leaves the directory empty.
fn assert_refused(bin: &str, args: &[&str], flag: &str) {
    let dir = scratch_dir();
    let json = dir.join("BENCH.json");
    let out = Command::new(bin)
        .args(args)
        .args([flag, "3", "--json-out"])
        .arg(&json)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ctx = format!("{bin} {args:?} {flag}: {stderr}");
    assert_eq!(out.status.code(), Some(2), "{ctx}");
    assert!(stderr.contains(&format!("unknown flag {flag} ")), "{ctx}");
    assert!(!json.exists(), "a rejected run wrote output: {ctx}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{ctx}");
}

#[test]
fn misspelt_flags_exit_2_and_write_nothing() {
    for &(bin, args, misspelt) in CORPUS {
        assert_refused(bin, args, misspelt);
    }
}

#[test]
fn unread_output_flags_exit_2_and_write_nothing() {
    for &(bin, args, flags) in UNREAD {
        for flag in flags {
            assert_refused(bin, args, flag);
        }
    }
}

/// `--serve` and its HTTP server are gone: a bin that took it refuses
/// it like any flag it does not read.
#[test]
fn removed_serve_flag_exits_2_and_writes_nothing() {
    assert_refused(env!("CARGO_BIN_EXE_faults"), &["--runs", "1"], "--serve");
}

#[test]
fn bench_history_check_rejects_misspelt_flags_before_running() {
    let dir = scratch_dir();
    let report = dir.join("report.json");
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_tables.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_bench-history"))
        .args(["check", baseline, "--report"])
        .arg(&report)
        .arg("--fail-on-througput")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag --fail-on-througput "),
        "{stderr}"
    );
    assert!(!stderr.contains("checking"), "the check ran: {stderr}");
    assert!(!report.exists(), "a rejected check wrote its report");
}

#[test]
fn bench_history_record_rejects_misspelt_flags_and_writes_nothing() {
    let dir = scratch_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_bench-history"))
        .args(["record", "tables", "--outt", "x.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --outt "), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{stderr}");
}

#[test]
fn chaos_rejects_misspelt_flags_before_its_golden_run() {
    let dir = scratch_dir().join("chaos");
    let out = Command::new(env!("CARGO_BIN_EXE_jem-chaos"))
        .args(["--kills", "0", "--runs", "1", "--dir"])
        .arg(&dir)
        .arg("--kill")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --kill "), "{stderr}");
    assert!(!dir.exists(), "a rejected run wrote output");
}

/// An accepted flag name given as another flag's value is refused:
/// read both ways, `--json-out --archive` would write the BENCH json
/// into a file named `--archive`.
#[test]
fn accepted_flag_names_are_refused_as_values() {
    let dir = scratch_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["fig1", "--json-out", "--archive"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--json-out expects a value, got the flag --archive"),
        "{stderr}"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{stderr}");
}

/// The value after a flag that takes one is not checked as a flag, and
/// a positional argument is not a flag.
#[test]
fn flag_values_and_positionals_are_accepted() {
    let dir = scratch_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["fig1", "--json-out", "--tables.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(dir.join("--tables.json").exists());
}
