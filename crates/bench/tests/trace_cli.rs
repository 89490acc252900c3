//! The trace commands' contract with the one stored format: `jem check
//! --chrome` turns a `.jtb` into the Chrome/Perfetto document (and
//! `--schema` validates that export), while `jem diff` refuses the
//! export as input — Chrome JSON is one-way, so traces are diffed as
//! `.jtb`.

mod common;

use common::events;
use jem_obs::wire::{jtb_bytes, load_jtb_bytes};
use jem_obs::{chrome_trace, chrome_trace_sharded, scratch_path, TraceShard};
use std::process::Command;

#[test]
fn check_chrome_exports_and_schema_checks_the_trace() {
    let shards = [
        TraceShard::new("a", events(3)),
        TraceShard::new("b", events(2)),
    ];
    let jtb = scratch_path("t.jtb");
    std::fs::write(&jtb, jtb_bytes(&shards)).unwrap();
    let json = scratch_path("t.json");
    let schema = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_jem"))
        .args(["check", &jtb, "--chrome", &json, "--schema", schema])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let loaded = load_jtb_bytes(&std::fs::read(&jtb).unwrap()).unwrap();
    let want = format!("{}\n", chrome_trace_sharded(&loaded.shards).render());
    assert_eq!(std::fs::read_to_string(&json).unwrap(), want);
}

#[test]
fn diff_rejects_chrome_exports() {
    let mut paths = Vec::new();
    for tag in ["a", "b"] {
        let path = scratch_path(&format!("{tag}.json"));
        std::fs::write(&path, format!("{}\n", chrome_trace(&events(3)).render())).unwrap();
        paths.push(path);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_jem"))
        .arg("diff")
        .args(&paths)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(".jtb"), "stderr: {stderr}");
}
