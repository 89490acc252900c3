//! `jem profile`: fold a trace into an energy/time profile.
//!
//! The input is the `.jtb` trace the bench bins write with `--trace`
//! (`-` reads stdin), streamed in bounded memory. The profiler
//! attributes every event's energy delta to a `[method, mode, phase…]`
//! stack; by construction the profile's column sums telescope to the
//! total the trace footer declares (its block-index partial sums), and
//! the run fails (exit 1) if they do not — a profile that cannot
//! reconcile is a bug, not a report. A truncated trace (dropped
//! events) can never reconcile, so it fails the same way unless
//! `--no-reconcile` opts into a partial profile. `--top` sets the rows
//! of the printed tables (default 20).
//!
//! The collapsed-stack outputs (`--collapsed`, `--collapsed-time`) are
//! one `frame;frame;… weight` line per stack — the format
//! `inferno-flamegraph`, speedscope and `flamegraph.pl` consume
//! directly; weights are integer nanojoules (or nanoseconds for
//! `--collapsed-time`). `--json-out` writes the machine-readable
//! `jem-profile/v1` document.

use crate::{one_input, stream_jtb, write_out};
use jem_bench::{arg_flag, arg_str, arg_usize, Flag};
use jem_obs::profile::{CollapseWeight, ProfileFolder, TraceProfile};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    ("--collapsed", true),
    ("--collapsed-time", true),
    ("--json-out", true),
    ("--top", true),
    ("--no-reconcile", false),
];

/// Each output flag, its document, and what it holds.
type Output = (&'static str, fn(&TraceProfile) -> String, &'static str);
const OUTPUTS: [Output; 3] = [
    (
        "--collapsed",
        |p| p.collapsed(CollapseWeight::EnergyNanojoules),
        "energy-weighted collapsed stacks",
    ),
    (
        "--collapsed-time",
        |p| p.collapsed(CollapseWeight::TimeNanos),
        "time-weighted collapsed stacks",
    ),
    (
        "--json-out",
        |p| p.to_json().render_pretty(),
        "profile JSON",
    ),
];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let path = one_input(args, &[FLAGS], "a .jtb trace");
    let top = arg_usize(args, "--top", 20);
    let mut folder = ProfileFolder::new();
    let end = stream_jtb(&path, false, |_, _, ev| folder.push(ev))?;
    if let Some(note) = end.recovered {
        eprintln!(
            "jem profile: {path}: crash-recovered trace (salvage cut {} bytes / \
             {} events); the kept prefix is invocation-aligned and profiles normally",
            note.dropped_bytes, note.dropped_events
        );
    }
    let profile = folder.finish();

    // The profile must account for exactly the energy the trace
    // declares — the ledger property that makes the tables trustable.
    if !arg_flag(args, "--no-reconcile") {
        if end.dropped > 0 {
            return Err(format!(
                "{path}: trace truncated ({} events dropped) — \
                 the profile cannot reconcile; use --no-reconcile for a partial profile",
                end.dropped
            ));
        }
        profile
            .reconcile(&end.declared, 1e-6)
            .map_err(|e| format!("{path}: {e}"))?;
    }

    println!(
        "jem profile: {path}: {} events, {} invocations, {} shard(s), {:.3} uJ, {:.4} ms sim-time",
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

    for (flag, render, what) in OUTPUTS {
        if let Some(out) = arg_str(args, flag) {
            write_out(&out, render(&profile).as_bytes())?;
            println!("wrote {what} to {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}
