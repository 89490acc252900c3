//! `jem query`: filter, group and aggregate a trace without
//! materializing the run.
//!
//! The trace is a `.jtb` file (`-` reads stdin), streamed
//! block-by-block in O(block) memory. `--kind` keeps one event kind
//! (repeatable); `--method`, `--mode` and `--shard` keep events whose
//! resolved context contains the substring; `--since`/`--until` keep
//! events in `[since, until]` sim-ns; `--group-by` takes a comma list
//! of `kind|method|mode|shard`; `--hist` adds a per-group histogram of
//! per-event energy deltas; `--json` prints the `jem-query/v1`
//! document.
//!
//! Method and mode predicates apply to the *resolved* invocation
//! context: a `tx-window` event matches `--mode remote` because its
//! enclosing invocation executed remotely, exactly as the profiler
//! attributes it. With `--group-by method,mode` and no predicates, the
//! aggregates reconcile bit-exactly with `jem profile`'s table — same
//! fold, same order.
//!
//! `--follow` tails a growing `.jtb` file (a live run started with
//! `--flush-every`): appended events feed the query as the writer
//! flushes them, and the result prints once the footer lands.
//!
//! Truncated inputs (dropped events) are processed but loudly flagged.

use crate::{arg_opt, one_input, stream_jtb, usage_error};
use jem_bench::{arg_flag, arg_str, arg_values, Flag};
use jem_obs::query::{GroupKey, Query, QueryEngine};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    ("--kind", true),
    ("--method", true),
    ("--mode", true),
    ("--shard", true),
    ("--since", true),
    ("--until", true),
    ("--group-by", true),
    ("--hist", false),
    ("--follow", false),
    ("--json", false),
];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let path = one_input(args, &[FLAGS], "a .jtb trace");
    let follow = arg_flag(args, "--follow");
    if follow && path == "-" {
        usage_error("--follow needs a file path, not stdin");
    }
    let group_by = arg_str(args, "--group-by").unwrap_or_default();
    let query = Query {
        kinds: arg_values(args, &[FLAGS], "--kind"),
        method: arg_str(args, "--method"),
        mode: arg_str(args, "--mode"),
        shard: arg_str(args, "--shard"),
        since_ns: arg_opt(args, "--since"),
        until_ns: arg_opt(args, "--until"),
        group_by: group_by
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|k| GroupKey::parse(k).unwrap_or_else(|e| usage_error(e)))
            .collect(),
        histogram: arg_flag(args, "--hist"),
    };

    let mut engine = QueryEngine::new(query);
    let end = stream_jtb(&path, follow, |names, shard, ev| {
        if let Some(name) = names.get(shard) {
            engine.name_shard(shard, name);
        }
        engine.push(ev);
    })?;
    engine.note_dropped(end.dropped);
    if let Some(note) = end.recovered {
        eprintln!(
            "jem query: {path}: crash-recovered trace (salvage cut {} bytes / \
             {} events); queries run over the invocation-aligned prefix",
            note.dropped_bytes, note.dropped_events
        );
    }
    let result = engine.finish();
    if arg_flag(args, "--json") {
        println!("{}", result.to_json().render_pretty());
    } else {
        println!("{}", result.render_text());
    }
    Ok(ExitCode::SUCCESS)
}
