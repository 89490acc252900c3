//! jem-chaos — kill-level crash harness for the checkpointed bench
//! bins.
//!
//! Proves the crash-safety contract end to end: run a bench bin as a
//! subprocess, SIGKILL it at seeded random points mid-run, resume it
//! from its checkpoint, repeat until at least `--kills` kills have
//! landed, and assert that the survivor's outputs are **byte-equal**
//! to a golden uninterrupted run — the `BENCH_*.json` document, the
//! `.jtb` trace stream, and the trace's canonical re-encoding. Each
//! torn `.jtb` left by a kill is additionally salvaged in place
//! ([`jem_obs::salvage_jtb`]) and the salvaged prefix must load
//! cleanly with an explicit `recovered` marker.
//!
//! Usage: `jem-chaos [--bin faults] [--kills 3] [--seed 1] [--runs
//! N] [--bench-seed S] [--ckpt-every N] [--dir DIR] [--keep]
//! [--verbose]`
//!
//! `--runs N` and `--bench-seed S` reach the target bin as `--runs N
//! --seed S`, and `--ckpt-every N` reaches its checkpointed runs, each
//! only when given: without them the bin runs at its own defaults, so
//! a bin that takes none of them (`ablation` has no `--seed` and no
//! `--ckpt-every`) runs too.
//!
//! The target bin must live next to `jem-chaos` in the build tree and
//! take `--trace`, `--json-out`, `--ckpt` and `--resume`: `faults`
//! (the default — long scenario runs, fault injection, and a `.jtb`
//! trace exercise every piece of checkpointed state), `fig6`, `fig7`,
//! `speedup` or `ablation`. The golden run is the bin's sweep on every
//! core; the killed and resumed runs are its one-worker checkpointed
//! sweep (`jem_bench::ckpt`), so a pass also shows the two drain the
//! same bytes. Kill k of K lands 5–85% of the way through the k-th
//! K-th of the run, measured in the wall time of one uninterrupted
//! checkpointed run, timed before the first kill, so the kills spread
//! over the whole run. A resumed run first redoes the work since its
//! last checkpoint, so a later kill's clock starts only once the
//! resumed run has saved a checkpoint the killed run never wrote (the
//! `.jck` bytes change): every kill lands past the one before.

use jem_core::ckpt::{CkptFile, RunSnapshot};
use jem_obs::{load_trace_bytes, salvage_jtb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

struct Opts {
    bin: String,
    kills: usize,
    seed: u64,
    /// `--runs`/`--seed` for the target bin, as given.
    bin_args: Vec<String>,
    /// `--ckpt-every` for the checkpointed runs, as given.
    every: Option<usize>,
    dir: Option<String>,
    keep: bool,
    verbose: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("jem-chaos: error: {msg}");
    std::process::exit(1);
}

/// The target bin sits next to jem-chaos in the build tree.
fn sibling_bin(name: &str) -> PathBuf {
    let me = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let dir = me.parent().unwrap_or_else(|| fail("exe has no parent"));
    let p = dir.join(name);
    if !p.exists() {
        fail(&format!(
            "{} not found next to jem-chaos — build the bench bins first",
            p.display()
        ));
    }
    p
}

fn command(opts: &Opts, bin: &Path, dir: &Path, extra: &[String]) -> Command {
    let mut c = Command::new(bin);
    c.args(&opts.bin_args).args(extra).current_dir(dir);
    if opts.verbose {
        c.stdout(Stdio::inherit()).stderr(Stdio::inherit());
    } else {
        c.stdout(Stdio::null()).stderr(Stdio::null());
    }
    c
}

/// Salvage a torn `.jtb` copy and require a loadable,
/// recovered-marked prefix.
fn check_salvage(bytes: &[u8], label: &str) {
    match salvage_jtb(bytes) {
        Ok((salvaged, report)) => {
            let loaded = load_trace_bytes(&salvaged)
                .unwrap_or_else(|e| fail(&format!("{label}: salvaged trace does not load: {e}")));
            if report.already_complete {
                return;
            }
            if loaded.recovered.is_none() {
                fail(&format!(
                    "{label}: salvaged trace is missing its recovered marker"
                ));
            }
            println!(
                "  salvage {label}: kept {} events in {} blocks, dropped {} bytes (marker ok)",
                report.kept_events, report.kept_blocks, report.dropped_bytes
            );
        }
        Err(e) => {
            // A kill can land before the stream header is complete;
            // only a torn file *with* a header must salvage.
            if bytes.len() >= 16 {
                fail(&format!("{label}: salvage failed: {e}"));
            }
        }
    }
}

/// Wait until the checkpoint at `jck` differs from `left`, the one the
/// killed run left behind (`None`: it left none); `false` when `child`
/// exits first.
fn past_checkpoint(child: &mut Child, jck: &Path, left: Option<&[u8]>) -> bool {
    loop {
        if std::fs::read(jck).ok().as_deref() != left {
            return true;
        }
        match child.try_wait() {
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Ok(Some(_)) => return false,
            Err(e) => fail(&format!("try_wait: {e}")),
        }
    }
}

/// How far the checkpoint `jck` had taken the sweep.
fn progress(jck: Option<&[u8]>) -> String {
    let Some(file) = jck.and_then(|b| CkptFile::decode(b).ok()) else {
        return "no checkpoint".into();
    };
    let mut out = format!("{} unit(s) done", file.completed.len());
    if let Some(inflight) = &file.inflight {
        if let Ok(snap) = RunSnapshot::decode(&inflight.snapshot) {
            let (unit, n) = (&inflight.unit, snap.invocation);
            out.push_str(&format!(", `{unit}` at invocation {n}"));
        }
    }
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[&[
            ("--bin", true),
            ("--kills", true),
            ("--seed", true),
            ("--runs", true),
            ("--bench-seed", true),
            ("--ckpt-every", true),
            ("--dir", true),
            ("--keep", false),
            ("--verbose", false),
        ]],
    );
    let mut bin_args = Vec::new();
    for (flag, to) in [("--runs", "--runs"), ("--bench-seed", "--seed")] {
        if jem_bench::arg_flag(&args, flag) {
            let n = jem_bench::arg_usize(&args, flag, 0);
            bin_args.extend([to.to_string(), n.to_string()]);
        }
    }
    let opts = Opts {
        bin: jem_bench::arg_str(&args, "--bin").unwrap_or_else(|| "faults".to_string()),
        kills: jem_bench::arg_usize(&args, "--kills", 3),
        seed: jem_bench::arg_usize(&args, "--seed", 1) as u64,
        bin_args,
        every: jem_bench::arg_flag(&args, "--ckpt-every")
            .then(|| jem_bench::arg_usize(&args, "--ckpt-every", 0)),
        dir: jem_bench::arg_str(&args, "--dir"),
        keep: jem_bench::arg_flag(&args, "--keep"),
        verbose: jem_bench::arg_flag(&args, "--verbose"),
    };
    let bin = sibling_bin(&opts.bin);
    let dir = match &opts.dir {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("jem-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("mkdir: {e}")));
    let mut rng = SmallRng::seed_from_u64(opts.seed);

    // Golden uninterrupted run — the byte-equality oracle.
    println!(
        "golden: {} {} (uninterrupted)",
        opts.bin,
        opts.bin_args.join(" ")
    );
    let golden_start = Instant::now();
    let status = command(
        &opts,
        &bin,
        &dir,
        &[
            "--json-out".into(),
            "golden.json".into(),
            "--trace".into(),
            "golden.jtb".into(),
        ],
    )
    .status()
    .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", bin.display())));
    if !status.success() {
        fail(&format!("golden run failed with {status}"));
    }
    println!("golden: done in {:.2?}", golden_start.elapsed());

    let chaos_flags = |resume: bool| -> Vec<String> {
        let mut v = vec![
            "--json-out".into(),
            "chaos.json".into(),
            "--trace".into(),
            "chaos.jtb".into(),
        ];
        if let Some(every) = opts.every {
            v.extend(["--ckpt-every".into(), every.to_string()]);
        }
        v.push(if resume { "--resume" } else { "--ckpt" }.into());
        v.push("chaos.jck".into());
        v
    };
    let wipe = || {
        for f in ["chaos.json", "chaos.jtb", "chaos.jck"] {
            let _ = std::fs::remove_file(dir.join(f));
        }
    };

    // The killed runs are one-worker checkpointed sweeps, up to twice
    // as long as the all-cores golden run: time an uninterrupted one,
    // so kills spread over the whole of the runs they hit.
    let ckpt_start = Instant::now();
    let status = command(&opts, &bin, &dir, &chaos_flags(false))
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", bin.display())));
    if !status.success() {
        fail(&format!("checkpointed run failed with {status}"));
    }
    let wall = ckpt_start.elapsed().max(Duration::from_millis(20));
    println!("checkpointed: uninterrupted in {wall:.2?}");
    wipe();

    // Kill/resume lineage: start fresh, kill at seeded points of the
    // checkpointed wall time, resume, until the run survives with at
    // least `kills` landed kills. A lineage that finishes too early is
    // wiped and restarted with new kill points.
    let mut landed = 0usize;
    // Where the lineage's last kill landed, as a share of the
    // checkpointed wall time: a resumed run has only the rest left.
    let mut at = 0.0f64;
    // The checkpoint the last killed run left behind.
    let mut left: Option<Vec<u8>> = None;
    let jck = dir.join("chaos.jck");
    let mut resumes = 0usize;
    let mut attempts = 0usize;
    let mut lineage_started = false;
    loop {
        attempts += 1;
        if attempts > 40 * opts.kills.max(1) {
            fail("kill points keep missing the run — is the target bin too fast?");
        }
        let resumed = lineage_started;
        let mut child = command(&opts, &bin, &dir, &chaos_flags(resumed))
            .spawn()
            .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", bin.display())));
        lineage_started = true;
        if landed < opts.kills {
            // A resumed run redoes the work since the killed run's
            // last checkpoint first: start the clock once it has saved
            // a checkpoint of its own, past the last kill.
            let running = !resumed || past_checkpoint(&mut child, &jck, left.as_deref());
            // The first kill hits the sweep's first units; later ones
            // land mid-trace with checkpoints behind them.
            let point = (landed as f64 + rng.gen_range(0.05..0.85)) / opts.kills as f64;
            if running {
                std::thread::sleep(wall.mul_f64(point - at));
            }
            match child.try_wait() {
                Ok(None) => {
                    child.kill().unwrap_or_else(|e| fail(&format!("kill: {e}")));
                    let _ = child.wait();
                    landed += 1;
                    left = std::fs::read(&jck).ok();
                    println!(
                        "kill {landed}/{} landed at ~{:.0}% of checkpointed wall time, past {}",
                        opts.kills,
                        point * 100.0,
                        progress(left.as_deref())
                    );
                    at = point;
                    let torn = dir.join("chaos.jtb");
                    if torn.exists() {
                        check_salvage(&read(&torn), &format!("kill {landed}"));
                    }
                    continue;
                }
                Ok(Some(status)) => {
                    // Finished before the kill fired: not enough
                    // crash points in this lineage — restart it.
                    if !status.success() {
                        fail(&format!("chaos run failed with {status}"));
                    }
                    println!("  run finished before kill point — restarting lineage");
                    wipe();
                    landed = 0;
                    resumes = 0;
                    at = 0.0;
                    lineage_started = false;
                    continue;
                }
                Err(e) => fail(&format!("try_wait: {e}")),
            }
        }
        // Enough kills landed — let this resume run to completion.
        resumes += 1;
        let status = child.wait().unwrap_or_else(|e| fail(&format!("wait: {e}")));
        if !status.success() {
            fail(&format!("final resumed run failed with {status}"));
        }
        break;
    }
    println!(
        "survivor: {landed} kill(s), {resumes} clean resume(s) + {} mid-kill resume(s)",
        landed.saturating_sub(1)
    );

    // Byte-equality verdicts.
    let mut ok = true;
    let mut check_eq = |name: &str| {
        let g = read(&dir.join(format!("golden.{name}")));
        let c = read(&dir.join(format!("chaos.{name}")));
        if g == c {
            println!("PASS {name}: {} bytes, byte-identical", g.len());
        } else {
            ok = false;
            let first = g.iter().zip(&c).position(|(a, b)| a != b);
            println!(
                "FAIL {name}: golden {} bytes vs chaos {} bytes, first difference at {:?}",
                g.len(),
                c.len(),
                first
            );
        }
    };
    check_eq("json");
    check_eq("jtb");

    // Re-encode oracle: both traces must load and re-encode to the
    // same canonical bytes (catches any well-formedness drift that
    // raw byte equality alone would also catch, but with a loader's
    // eyes — and verifies the survivor is a complete, footer-valid
    // stream, not a salvage artifact).
    let golden_trace = load_trace_bytes(&read(&dir.join("golden.jtb")))
        .unwrap_or_else(|e| fail(&format!("golden.jtb does not load: {e}")));
    let chaos_trace = load_trace_bytes(&read(&dir.join("chaos.jtb")))
        .unwrap_or_else(|e| fail(&format!("chaos.jtb does not load: {e}")));
    if chaos_trace.recovered.is_some() {
        ok = false;
        println!("FAIL reencode: survivor trace carries a recovered marker — it should be a complete stream");
    }
    let g_re = jem_obs::jtb_bytes(&golden_trace.shards);
    let c_re = jem_obs::jtb_bytes(&chaos_trace.shards);
    if g_re == c_re {
        println!(
            "PASS reencode: canonical re-encodings identical ({} bytes)",
            g_re.len()
        );
    } else {
        ok = false;
        println!("FAIL reencode: canonical re-encodings differ");
    }

    if opts.keep || !ok {
        println!("artifacts kept in {}", dir.display());
    } else if opts.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if ok {
        println!(
            "chaos: {} survived {landed} SIGKILLs with byte-identical outputs",
            opts.bin
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
