//! A checkpointed run writes the same bytes as a plain one. The plain
//! run drains its units on every core, buffering the ones that finish
//! out of turn; the checkpointed run streams every unit on one worker.
//! fig7's AA units open one `.jtb` shard per cell; ablation's variant
//! units carry the `.jtb` and `.jts` writer state through the
//! checkpoint. Resuming a finished checkpoint reopens both streams and
//! rewrites the same files.

use jem_obs::scratch_dir;
use std::path::Path;
use std::process::Command;

/// Run `bin` in `dir` with the whitespace-separated `args`.
fn run(bin: &str, dir: &Path, args: &str) {
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{bin} {args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_same(dir: &Path, a: &str, b: &str) {
    let read = |f: &str| std::fs::read(dir.join(f)).unwrap();
    assert!(read(a) == read(b), "{a} and {b} differ");
}

#[test]
fn fig7_ckpt_trace_and_timeline_match_a_plain_run() {
    let bin = env!("CARGO_BIN_EXE_fig7");
    let dir = scratch_dir();
    run(
        bin,
        &dir,
        "--runs 1 --trace a.jtb --timeline a.jts --json-out a.json",
    );
    for mode in ["--ckpt", "--resume"] {
        let args =
            format!("--runs 1 --trace b.jtb --timeline b.jts --json-out b.json {mode} c.jck");
        run(bin, &dir, &args);
        assert_same(&dir, "a.jtb", "b.jtb");
        assert_same(&dir, "a.jts", "b.jts");
        assert_same(&dir, "a.json", "b.json");
    }
}

#[test]
fn ablation_ckpt_trace_and_timeline_match_a_plain_run() {
    let bin = env!("CARGO_BIN_EXE_ablation");
    let dir = scratch_dir();
    run(
        bin,
        &dir,
        "--runs 2 --trace a.jtb --timeline a.jts --json-out a.json",
    );
    for mode in ["--ckpt", "--resume"] {
        let args =
            format!("--runs 2 --trace b.jtb --timeline b.jts --json-out b.json {mode} c.jck");
        run(bin, &dir, &args);
        assert_same(&dir, "a.jtb", "b.jtb");
        assert_same(&dir, "a.jts", "b.jts");
        assert_same(&dir, "a.json", "b.json");
    }
}
