//! The trace CLIs' contract with the one stored format: `tracecheck
//! --chrome` turns a `.jtb` into the Chrome/Perfetto document (and
//! `--schema` validates that export), while `jem-diff` refuses the
//! export as input — Chrome JSON is one-way, so traces are diffed as
//! `.jtb`.

use jem_energy::{Component, Energy, EnergyBreakdown, SimTime};
use jem_obs::wire::{jtb_bytes, load_jtb_bytes};
use jem_obs::{
    chrome_trace, chrome_trace_sharded, scratch_path, TraceEvent, TraceEventKind, TraceShard,
};
use std::process::Command;

/// `n` invocations of start/end pairs, one energy delta each.
fn events(n: u64) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for i in 0..n {
        let mut delta = EnergyBreakdown::new();
        delta.charge(Component::Core, Energy::from_nanojoules(5.0 + i as f64));
        for (ordinal, kind) in [
            TraceEventKind::InvocationStart {
                strategy: "AA".into(),
                method: "t::run".into(),
                size: 16,
                true_class: "C2".into(),
                chosen_class: "C2".into(),
            },
            TraceEventKind::InvocationEnd {
                mode: "interpret".into(),
                energy: Energy::from_nanojoules(5.0 + i as f64),
                time: SimTime::from_nanos(1e3),
                instructions: 100 * (i + 1),
            },
        ]
        .into_iter()
        .enumerate()
        {
            out.push(TraceEvent {
                seq: 2 * i + ordinal as u64,
                invocation: i + 1,
                ordinal: ordinal as u64,
                at: SimTime::from_nanos(1e3 * (2 * i + ordinal as u64) as f64),
                delta: if ordinal == 1 {
                    delta
                } else {
                    EnergyBreakdown::new()
                },
                kind,
            });
        }
    }
    out
}

#[test]
fn tracecheck_chrome_exports_and_schema_checks_the_trace() {
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
    let out = Command::new(env!("CARGO_BIN_EXE_tracecheck"))
        .args([&jtb, "--chrome", &json, "--schema", schema])
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
fn jem_diff_rejects_chrome_exports() {
    let mut paths = Vec::new();
    for tag in ["a", "b"] {
        let path = scratch_path(&format!("{tag}.json"));
        std::fs::write(&path, format!("{}\n", chrome_trace(&events(3)).render())).unwrap();
        paths.push(path);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_jem-diff"))
        .args(&paths)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(".jtb"), "stderr: {stderr}");
}
