//! A numeric flag whose value does not parse, or that has no value,
//! is rejected loudly (exit 2, naming the flag) before anything runs,
//! instead of silently falling back to the default.

use jem_obs::scratch_dir;
use std::process::Command;

#[test]
fn unparseable_runs_exits_2_and_writes_nothing() {
    let dir = scratch_dir();
    let bench = dir.join("BENCH_faults.json");
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .args(["--runs", "abc", "--json-out"])
        .arg(&bench)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--runs"), "stderr: {stderr}");
    assert!(!bench.exists(), "a rejected run wrote output");
}

#[test]
fn flag_without_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .arg("--seed")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--seed"), "stderr: {stderr}");
}

#[test]
fn unparseable_threshold_exits_2() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_tables.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_bench-history"))
        .args(["check", baseline, "--threshold", "5%"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--threshold"), "stderr: {stderr}");
}
