//! `--trace` writes only `.jtb`: any other destination is rejected
//! loudly (exit 2, pointing at the Chrome export) before the run
//! starts, so nothing is written.

use jem_obs::scratch_dir;
use std::process::Command;

#[test]
fn non_jtb_trace_path_exits_2_and_writes_nothing() {
    let dir = scratch_dir();
    let trace = dir.join("trace.json");
    let bench = dir.join("BENCH_faults.json");
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .args(["--runs", "1", "--trace"])
        .arg(&trace)
        .arg("--json-out")
        .arg(&bench)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("tracecheck"), "stderr: {stderr}");
    assert!(stderr.contains("--chrome"), "stderr: {stderr}");
    assert!(
        !trace.exists() && !bench.exists(),
        "a rejected run wrote output"
    );
}
