//! `bench-history check` is the one regression gate on simulated
//! results: a committed baseline passes, and the same baseline with
//! one result figure off by a relative 1e-6 fails, naming the figure.

use jem_obs::{scratch_dir, Json};
use std::path::Path;
use std::process::{Command, Output};

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench/baselines/BENCH_tables.json"
);

fn check(baseline: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-history"))
        .arg("check")
        .arg(baseline)
        .output()
        .unwrap()
}

/// Multiply the number at `path` (object keys and array indices) by
/// `factor`.
fn scale_at(doc: &mut Json, path: &[&str], factor: f64) {
    let mut node = doc;
    for key in path {
        node = match node {
            Json::Obj(members) => {
                &mut members
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no member {key}"))
                    .1
            }
            Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("{key}: not a container: {}", other.type_name()),
        };
    }
    let Json::Num(v) = node else {
        panic!("{path:?} is not a number");
    };
    *v *= factor;
}

#[test]
fn committed_baseline_passes() {
    let out = check(Path::new(BASELINE));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("no differences"), "{stdout}");
}

#[test]
fn changed_result_fails_naming_its_path() {
    let mut doc = Json::parse(&std::fs::read_to_string(BASELINE).unwrap()).unwrap();
    scale_at(&mut doc, &["results", "fig1", "0", "nj"], 1.0 + 1e-6);
    let changed = scratch_dir().join("BENCH_tables.json");
    std::fs::write(&changed, doc.render_pretty()).unwrap();

    let out = check(&changed);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("CHANGED fig1/0/nj:"), "{stdout}");
    assert!(stderr.contains("REGRESSION"), "{stderr}");
}
