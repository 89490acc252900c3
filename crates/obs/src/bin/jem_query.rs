//! Query a trace without materializing the run.
//!
//! ```text
//! jem-query <trace.jtb | -> [options]
//!   --kind <name>         keep only this event kind (repeatable)
//!   --method <substr>     keep invocations whose method contains this
//!   --mode <substr>       keep invocations whose resolved mode contains this
//!   --shard <substr>      keep shards whose name contains this
//!   --since <ns>          keep events at sim-time >= ns (inclusive)
//!   --until <ns>          keep events at sim-time <= ns (inclusive)
//!   --group-by <k,k,…>    group by kind|method|mode|shard (comma list)
//!   --hist                per-group histogram of per-event energy deltas
//!   --top <n>             hot-frame mode: print the n hottest profile
//!                         frames instead (predicates are ignored)
//!   --series <name>       timeline mode: windowed aggregation of one
//!                         series from a `.jts` timeline (only
//!                         `--since`/`--until`/`--json` apply)
//!   --follow              tail a growing `.jtb` file (a live run
//!                         started with `--flush-every`): keep polling
//!                         for appended events and print the query
//!                         result once the writer lands the footer
//!   --json                machine-readable output (jem-query/v1)
//! ```
//!
//! With `--series`, the input must be a `.jts` timeline sidecar (from
//! `--timeline`). Per segment the engine reports the sampled value at
//! the window end, the delta across the window, and min/max of the
//! in-window samples; label-coded series report the label at the
//! window end plus the distinct labels seen. Windows anchored at 0
//! over cumulative `energy.<c>.trace_nj` series reconcile *bit-exactly*
//! with summing the same component's deltas from the run's `.jtb`
//! trace over the same window — both are the identical sequence of
//! f64 additions.
//!
//! The trace is a `.jtb` file (`-` reads stdin), streamed
//! block-by-block in O(block) memory. Method and mode
//! predicates apply to the *resolved* invocation context: a `tx-window`
//! event matches `--mode remote` because its enclosing invocation
//! executed remotely, exactly as the profiler attributes it. With
//! `--group-by method,mode` and no predicates, the aggregates reconcile
//! bit-exactly with `jem-profile`'s table — same fold, same order.
//!
//! Truncated inputs (dropped events) are processed but loudly flagged;
//! exit status is 0 on success, 1 on errors, 2 on usage errors.

use jem_obs::json::Json;
use jem_obs::profile::ProfileFolder;
use jem_obs::query::{GroupKey, Query, QueryEngine};
use jem_obs::timeline::series_is_label;
use jem_obs::wire::{FollowStatus, JtbStream};
use jem_obs::Timeline;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: jem-query <trace.jtb | timeline.jts | -> \
                     [--kind <name>]... \
                     [--method <s>] [--mode <s>] [--shard <s>] [--since <ns>] [--until <ns>] \
                     [--group-by <k,k,…>] [--hist] [--top <n>] [--series <name>] \
                     [--follow] [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut query = Query::default();
    let mut top: Option<usize> = None;
    let mut series: Option<String> = None;
    let mut follow = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> Option<String> { args.get(i + 1).cloned() };
        match args[i].as_str() {
            "--kind" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --kind needs an event-kind name");
                    return ExitCode::from(2);
                };
                query.kinds.push(v);
                i += 2;
            }
            "--method" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --method needs a substring");
                    return ExitCode::from(2);
                };
                query.method = Some(v);
                i += 2;
            }
            "--mode" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --mode needs a substring");
                    return ExitCode::from(2);
                };
                query.mode = Some(v);
                i += 2;
            }
            "--shard" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --shard needs a substring");
                    return ExitCode::from(2);
                };
                query.shard = Some(v);
                i += 2;
            }
            "--since" => {
                let Some(v) = take(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("jem-query: --since needs a number (ns)");
                    return ExitCode::from(2);
                };
                query.since_ns = Some(v);
                i += 2;
            }
            "--until" => {
                let Some(v) = take(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("jem-query: --until needs a number (ns)");
                    return ExitCode::from(2);
                };
                query.until_ns = Some(v);
                i += 2;
            }
            "--group-by" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --group-by needs a comma list of keys");
                    return ExitCode::from(2);
                };
                for part in v.split(',').filter(|p| !p.is_empty()) {
                    match GroupKey::parse(part) {
                        Ok(k) => query.group_by.push(k),
                        Err(e) => {
                            eprintln!("jem-query: {e}");
                            return ExitCode::from(2);
                        }
                    }
                }
                i += 2;
            }
            "--hist" => {
                query.histogram = true;
                i += 1;
            }
            "--top" => {
                let Some(v) = take(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("jem-query: --top needs an integer");
                    return ExitCode::from(2);
                };
                top = Some(v);
                i += 2;
            }
            "--series" => {
                let Some(v) = take(i) else {
                    eprintln!("jem-query: --series needs a series name");
                    return ExitCode::from(2);
                };
                series = Some(v);
                i += 2;
            }
            "--follow" => {
                follow = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                if other.starts_with("--") {
                    eprintln!("jem-query: unknown option '{other}'");
                    return ExitCode::from(2);
                }
                if trace_path.is_some() {
                    eprintln!("jem-query: unexpected argument '{other}'");
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

    if follow {
        if series.is_some() || top.is_some() {
            eprintln!("jem-query: --follow cannot be combined with --series or --top");
            return ExitCode::from(2);
        }
        if trace_path == "-" {
            eprintln!("jem-query: --follow needs a file path, not stdin");
            return ExitCode::from(2);
        }
        return follow_query(&trace_path, query, json);
    }

    if let Some(name) = series {
        return series_window(&trace_path, &name, query.since_ns, query.until_ns, json);
    }

    if let Some(top) = top {
        return hot_frames(&trace_path, top);
    }

    let mut engine = QueryEngine::new(query);

    let mut stream = match open_stream(&trace_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jem-query: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        match stream.next_event() {
            Ok(Some((shard_idx, ev))) => {
                if let Some(name) = stream.shard_names().get(shard_idx) {
                    let name = name.clone();
                    engine.name_shard(shard_idx, &name);
                }
                engine.push(ev);
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("jem-query: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    engine.note_dropped(stream.dropped());
    if let Some(note) = stream.recovered() {
        eprintln!(
            "jem-query: {trace_path}: crash-recovered trace (salvage cut {} bytes / \
             {} events); queries run over the invocation-aligned prefix",
            note.dropped_bytes, note.dropped_events
        );
    }

    let result = engine.finish();
    if json {
        println!("{}", result.to_json().render_pretty());
    } else {
        println!("{}", result.render_text());
    }
    ExitCode::SUCCESS
}

/// `--follow` mode: tail a growing `.jtb` file, feeding appended
/// events into the engine as the writer flushes them, and print the
/// query result once the footer lands. Torn tails (a block the writer
/// is mid-way through) park the follower until more bytes arrive;
/// real corruption still fails loudly.
fn follow_query(trace_path: &str, query: Query, json: bool) -> ExitCode {
    let mut engine = QueryEngine::new(query);
    let mut follower = match JtbStream::follow(trace_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("jem-query: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        match follower.poll() {
            Ok(FollowStatus::Events(events)) => {
                for (shard_idx, ev) in events {
                    if let Some(name) = follower.shard_names().get(shard_idx) {
                        let name = name.clone();
                        engine.name_shard(shard_idx, &name);
                    }
                    engine.push(ev);
                }
            }
            Ok(FollowStatus::Idle) => std::thread::sleep(std::time::Duration::from_millis(100)),
            Ok(FollowStatus::End) => break,
            Err(e) => {
                eprintln!("jem-query: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    engine.note_dropped(follower.dropped());
    let result = engine.finish();
    if json {
        println!("{}", result.to_json().render_pretty());
    } else {
        println!("{}", result.render_text());
    }
    ExitCode::SUCCESS
}

/// `--series` mode: windowed aggregation of one timeline series.
///
/// The window is `[since, until]` sim-ns (defaults: segment start /
/// segment end). Value-at-window-end is the last sample at or before
/// `until`; the window delta subtracts the last sample at or before
/// `since`, so a window anchored at 0 returns the plain cumulative
/// value — bit-exact against a sequential `.jtb` sum for the
/// `energy.<c>.trace_nj` family.
fn series_window(
    trace_path: &str,
    name: &str,
    since: Option<f64>,
    until: Option<f64>,
    json: bool,
) -> ExitCode {
    let bytes = match read_input(trace_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("jem-query: cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tl = match Timeline::read(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jem-query: {trace_path}: {e} (--series needs a .jts timeline)");
            return ExitCode::FAILURE;
        }
    };
    let Some(idx) = tl.series_index(name) else {
        eprintln!("jem-query: unknown series '{name}'; available:");
        for s in &tl.series {
            eprintln!("  {s}");
        }
        return ExitCode::from(2);
    };
    let a = since;
    let b = until;
    let is_label = series_is_label(idx);
    let label_of = |v: f64| -> String {
        tl.labels
            .get(v as usize)
            .cloned()
            .unwrap_or_else(|| format!("#{v}"))
    };

    let mut seg_rows = Vec::new();
    let mut total_delta = 0.0f64;
    for (si, seg) in tl.segments.iter().enumerate() {
        let lo = a.unwrap_or(f64::NEG_INFINITY);
        let hi = b.unwrap_or(seg.end_t);
        let end_val = seg.value_at(idx, hi);
        let start_val = match a {
            Some(a) => seg.value_at(idx, a),
            None => 0.0,
        };
        let in_window: Vec<f64> = seg
            .times
            .iter()
            .zip(&seg.cols[idx])
            .filter(|(t, _)| **t >= lo && **t <= hi)
            .map(|(_, v)| *v)
            .collect();
        let samples = in_window.len();
        if is_label {
            let mut seen: Vec<String> = Vec::new();
            for v in &in_window {
                let l = label_of(*v);
                if !seen.contains(&l) {
                    seen.push(l);
                }
            }
            seg_rows.push((
                si,
                samples,
                Json::object()
                    .with("segment", si as u64)
                    .with("samples", samples as u64)
                    .with("value_at_end", label_of(end_val))
                    .with(
                        "labels_seen",
                        Json::Arr(seen.iter().map(|l| Json::from(l.as_str())).collect()),
                    ),
                format!(
                    "segment {si}: samples={samples} value@end={} labels-seen=[{}]",
                    label_of(end_val),
                    seen.join(", ")
                ),
            ));
        } else {
            let delta = end_val - start_val;
            total_delta += delta;
            let min = in_window.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = in_window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut obj = Json::object()
                .with("segment", si as u64)
                .with("samples", samples as u64)
                .with("value_at_end", end_val)
                .with("delta", delta);
            let mut line =
                format!("segment {si}: samples={samples} value@end={end_val} delta={delta}");
            if samples > 0 {
                obj = obj.with("min", min).with("max", max);
                line.push_str(&format!(" min={min} max={max}"));
            }
            seg_rows.push((si, samples, obj, line));
        }
    }

    if json {
        let mut doc = Json::object()
            .with("format", "jem-query/v1")
            .with("series", name)
            .with("sample_every_ns", tl.sample_every_ns);
        if let Some(a) = since {
            doc = doc.with("since_ns", a);
        }
        if let Some(b) = until {
            doc = doc.with("until_ns", b);
        }
        doc = doc.with(
            "segments",
            Json::Arr(seg_rows.into_iter().map(|(_, _, obj, _)| obj).collect()),
        );
        if !is_label {
            doc = doc.with("total_delta", total_delta);
        }
        println!("{}", doc.render_pretty());
    } else {
        let window = match (since, until) {
            (Some(a), Some(b)) => format!("[{a}, {b}] sim-ns"),
            (Some(a), None) => format!("[{a}, end] sim-ns"),
            (None, Some(b)) => format!("[start, {b}] sim-ns"),
            (None, None) => "[start, end]".to_string(),
        };
        println!("series {name} over {window}");
        for (_, _, _, line) in &seg_rows {
            println!("{line}");
        }
        if !is_label {
            println!("total delta: {total_delta}");
        }
    }
    ExitCode::SUCCESS
}

/// `--top` mode: fold the whole trace into a profile and print the
/// hottest frames (self/total energy), like `jem-profile` but without
/// the reconcile gate.
fn hot_frames(trace_path: &str, top: usize) -> ExitCode {
    let mut folder = ProfileFolder::new();
    let streamed = open_stream(trace_path).and_then(|mut stream| {
        while let Some((_, ev)) = stream.next_event()? {
            folder.push(ev);
        }
        Ok(stream.dropped())
    });
    let dropped = match streamed {
        Ok(d) => d,
        Err(e) => {
            eprintln!("jem-query: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = folder.finish();
    println!("Hot frames (self/total):");
    println!("{}", profile.render_hot_frames(top));
    if dropped > 0 {
        println!("WARNING: trace truncated ({dropped} events dropped)");
    }
    ExitCode::SUCCESS
}

/// Open the `.jtb` trace at `path` (`-` = stdin) as a stream.
fn open_stream(path: &str) -> Result<JtbStream<Box<dyn Read>>, String> {
    let input: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin())
    } else {
        Box::new(std::fs::File::open(path).map_err(|e| e.to_string())?)
    };
    JtbStream::new(input)
}

/// Read the trace bytes from a file, or stdin when the path is `-`.
fn read_input(path: &str) -> Result<Vec<u8>, String> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(path).map_err(|e| e.to_string())
    }
}
