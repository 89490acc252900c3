//! Fold an exported trace into an energy/time profile.
//!
//! ```text
//! jem-profile <trace.jtb | -> [options]
//!   --collapsed <out.folded>    write energy-weighted collapsed stacks
//!   --collapsed-time <out>      write time-weighted collapsed stacks
//!   --json-out <out.json>       write the machine-readable profile
//!   --top <n>                   rows in the printed tables (default 20)
//!   --no-reconcile              skip the conservation check
//! ```
//!
//! The input is the `.jtb` trace the bench bins write with `--trace`
//! (`-` reads stdin). The profiler attributes every event's energy
//! delta to a `[method, mode, phase…]` stack; by construction the
//! profile's column sums telescope to the total the trace footer
//! declares (its block-index partial sums), and the run fails
//! (exit 1) if they do not — a profile that cannot reconcile is a bug,
//! not a report. A truncated trace (dropped events) can never
//! reconcile, so it fails the same way unless `--no-reconcile` opts
//! into a partial profile.
//!
//! The collapsed-stack outputs are one `frame;frame;… weight` line per
//! stack — the format `inferno-flamegraph`, speedscope and
//! `flamegraph.pl` consume directly; weights are integer nanojoules
//! (or nanoseconds for `--collapsed-time`).

use jem_obs::profile::{CollapseWeight, TraceProfile};
use jem_obs::wire::{load_jtb_bytes, JtbIndex};
use jem_obs::write_atomic;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: jem-profile <trace.jtb | -> [--collapsed <out>] \
                     [--collapsed-time <out>] [--json-out <out>] [--top <n>] [--no-reconcile]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut collapsed = None;
    let mut collapsed_time = None;
    let mut json_out = None;
    let mut top = 20usize;
    let mut reconcile = true;
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Option<String> { args.get(i + 1).cloned() };
        match args[i].as_str() {
            "--collapsed" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-profile: --collapsed needs a path");
                    return ExitCode::from(2);
                };
                collapsed = Some(v);
                i += 2;
            }
            "--collapsed-time" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-profile: --collapsed-time needs a path");
                    return ExitCode::from(2);
                };
                collapsed_time = Some(v);
                i += 2;
            }
            "--json-out" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-profile: --json-out needs a path");
                    return ExitCode::from(2);
                };
                json_out = Some(v);
                i += 2;
            }
            "--top" => {
                let parsed = take(i).and_then(|v| v.parse().ok());
                let Some(v) = parsed else {
                    eprintln!("jem-profile: --top needs an integer");
                    return ExitCode::from(2);
                };
                top = v;
                i += 2;
            }
            "--no-reconcile" => {
                reconcile = false;
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                if trace_path.is_some() {
                    eprintln!("jem-profile: unexpected argument '{other}'");
                    return ExitCode::from(2);
                }
                trace_path = Some(other.to_string());
                i += 1;
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let bytes = match read_input(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jem-profile: cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = match load_jtb_bytes(&bytes) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("jem-profile: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(note) = loaded.recovered {
        eprintln!(
            "jem-profile: {trace_path}: crash-recovered trace (salvage cut {} bytes / \
             {} events); the kept prefix is invocation-aligned and profiles normally",
            note.dropped_bytes, note.dropped_events
        );
    }
    let events = loaded.events();
    let profile = TraceProfile::fold(&events);

    // The profile must account for exactly the energy the trace
    // declares — the ledger property that makes the tables trustable.
    if reconcile {
        if loaded.dropped > 0 {
            eprintln!(
                "jem-profile: {trace_path}: trace truncated ({} events dropped) — \
                 the profile cannot reconcile; use --no-reconcile for a partial profile",
                loaded.dropped
            );
            return ExitCode::FAILURE;
        }
        let declared = match JtbIndex::read(&bytes) {
            Ok(index) => index.total_energy(),
            Err(e) => {
                eprintln!("jem-profile: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = profile.reconcile(&declared, 1e-6) {
            eprintln!("jem-profile: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "jem-profile: {trace_path}: {} events, {} invocations, {} shard(s), {:.3} uJ, {:.4} ms sim-time",
        profile.events(),
        profile.invocations(),
        profile.shards(),
        profile.total().total().microjoules(),
        profile.total_time().millis(),
    );
    println!();
    println!("Per-method x per-mode energy (hottest first):");
    println!("{}", profile.render_method_table(top));
    println!();
    println!("Hot frames (self/total):");
    println!("{}", profile.render_hot_frames(top));

    if let Some(path) = collapsed {
        if let Err(e) = write_atomic(
            &path,
            profile
                .collapsed(CollapseWeight::EnergyNanojoules)
                .as_bytes(),
        ) {
            eprintln!("jem-profile: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote energy-weighted collapsed stacks to {path}");
    }
    if let Some(path) = collapsed_time {
        if let Err(e) = write_atomic(
            &path,
            profile.collapsed(CollapseWeight::TimeNanos).as_bytes(),
        ) {
            eprintln!("jem-profile: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote time-weighted collapsed stacks to {path}");
    }
    if let Some(path) = json_out {
        if let Err(e) = write_atomic(&path, profile.to_json().render_pretty().as_bytes()) {
            eprintln!("jem-profile: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote profile JSON to {path}");
    }
    ExitCode::SUCCESS
}

/// Read the trace bytes from a file, or stdin when the path is `-`.
fn read_input(path: &str) -> std::io::Result<Vec<u8>> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read(path)
    }
}
