//! The argv and input corpus of `jem`. Every subcommand, and every
//! `lab` command, refuses a flag its mode does not read and a value
//! flag given no value (exit 2, naming the flag) before any input is
//! read; flags, modes and inputs that were once accepted without
//! effect exit 2 as well, and `lab`'s read commands never create an
//! archive.

mod common;

use jem_obs::wire::jtb_bytes;
use jem_obs::{scratch_dir, Archive, RunMeta, TimelineSink, TraceShard};
use std::process::{Command, Output};

fn jem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jem"))
        .args(args)
        .output()
        .unwrap()
}

/// Run `jem args`, assert it exits `code` with `needle` in stderr, and
/// return stderr.
fn assert_exit(args: &[&str], code: i32, needle: &str) -> String {
    let out = jem(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let ctx = format!("jem {args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{ctx}");
    assert!(stderr.contains(needle), "{ctx}");
    stderr
}

#[test]
fn misspelt_and_valueless_flags_exit_2_before_any_input_is_read() {
    let dir = scratch_dir();
    let missing = dir.join("missing.jts");
    let m = missing.to_str().unwrap();
    // Each command line, a value flag it reads, and a flag it does not.
    let cases: &[(&[&str], Option<&str>, &str)] = &[
        (&["check", m], Some("--chrome"), "--sumary"),
        (&["check", m, "--follow"], None, "--summary"),
        (&["query", m], Some("--kind"), "--kinds"),
        (&["profile", m], Some("--top"), "--collapse"),
        (&["timeline", m], Some("--window"), "--serie"),
        (&["timeline", m, "--json"], Some("--schema"), "--csv-out"),
        (&["timeline", m, "--follow"], Some("--refresh"), "--out"),
        (&["timeline", m, "--overlay", m], Some("--series"), "--out"),
        (&["diff", m, m], Some("--noisy"), "--noisy-tol"),
        (
            &["lab", "ingest", m, "bench=b.json"],
            Some("--run-args"),
            "--bins",
        ),
        (&["lab", "ls", m], None, "--bogus"),
        (
            &["lab", "query", m, "--series", "x"],
            Some("--window"),
            "--colum",
        ),
        (&["lab", "report", m], Some("--out"), "--json"),
        (&["lab", "verify", m], None, "--fix"),
        (&["top", m], Some("--frames"), "--onse"),
    ];
    for &(args, value_flag, misspelt) in cases {
        let mut argv = args.to_vec();
        argv.push(misspelt);
        let stderr = assert_exit(&argv, 2, &format!("unknown flag {misspelt} "));
        assert!(!stderr.contains("cannot read"), "input read: {stderr}");
        if let Some(flag) = value_flag {
            let mut argv = args.to_vec();
            argv.push(flag);
            assert_exit(&argv, 2, &format!("{flag} expects a value"));
        }
    }
    assert!(!missing.exists(), "a refused command created its input");
}

#[test]
fn usage_text_and_unknown_commands() {
    for args in [&[][..], &["--help"]] {
        let out = jem(args);
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("timeline <a.jts> --overlay"));
    }
    assert_exit(&["trace"], 2, "usage: jem");
    assert_exit(&["lab", "check", "lab"], 2, "unknown jem lab command");
}

#[test]
fn flags_and_inputs_once_accepted_without_effect_exit_2() {
    let dir = scratch_dir();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (jtb, jts, lab) = (path("t.jtb"), path("t.jts"), path("lab"));
    let events = common::events(4);
    std::fs::write(&jtb, jtb_bytes(&[TraceShard::new("a", events.clone())])).unwrap();
    let mut sink = TimelineSink::create(&jts, 1e3).unwrap();
    for ev in &events {
        sink.observe(ev, None);
    }
    sink.finish().unwrap();
    Archive::open_or_create(&lab)
        .unwrap()
        .ingest_files(
            &RunMeta::from_argv(&["faults".to_string()]),
            &[("timeline".to_string(), jts.clone())],
        )
        .unwrap();
    let schema = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/timeline.schema.json"
    );
    let (jtb, jts, lab) = (jtb.as_str(), jts.as_str(), lab.as_str());
    let series = "energy.core.cum_nj";

    // Each refused command line, what it must name, and the command it
    // differs from by the refused part, which must succeed.
    let cases: &[(&[&str], &str, &[&str])] = &[
        (
            &["timeline", jts, "--schema", schema],
            "unknown flag --schema ",
            &["timeline", jts, "--json", "--schema", schema],
        ),
        (
            &["query", jtb, "--mode", "remote", "--top", "5"],
            "unknown flag --top ",
            &["query", jtb, "--mode", "remote"],
        ),
        (
            &["timeline", jts, "--sparkline", "--live"],
            "unknown flag --live ",
            &["timeline", jts, "--sparkline"],
        ),
        (
            &["lab", "ls", lab, "--bogus"],
            "unknown flag --bogus ",
            &["lab", "ls", lab],
        ),
        (
            &["lab", "verify", lab, "extra"],
            "unexpected argument 'extra'",
            &["lab", "verify", lab],
        ),
        (
            &[
                "lab", "query", lab, "--series", series, "--window", "inf:inf",
            ],
            "--window",
            &["lab", "query", lab, "--series", series, "--window", "0:1"],
        ),
        (
            &["diff", jts, jts],
            "jem timeline --overlay",
            &["timeline", jts, "--overlay", jts],
        ),
    ];
    for &(refused, needle, accepted) in cases {
        let out = jem(refused);
        assert!(out.stdout.is_empty(), "jem {refused:?} printed output");
        assert_exit(refused, 2, needle);
        let out = jem(accepted);
        let ctx = format!("jem {accepted:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "{ctx}");
    }

    // The dashboard renders one frame from a finished timeline.
    let out = jem(&["top", jts, "--once"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("energy rate"));
}

#[test]
fn lab_read_commands_never_create_an_archive() {
    let dir = scratch_dir();
    let missing = dir.join("typo-dir");
    let m = missing.to_str().unwrap();
    let out = dir.join("r.html");
    let read_commands: &[&[&str]] = &[
        &["lab", "verify", m],
        &["lab", "ls", m],
        &["lab", "query", m, "--column", "points/*/aa/total_energy_nj"],
        &["lab", "report", m, "--out", out.to_str().unwrap()],
    ];
    for &args in read_commands {
        assert_exit(args, 1, "jem-lab.json");
        assert!(!missing.exists(), "jem {args:?} created an archive");
    }
    assert!(!out.exists());
}
