//! `jem` — the one CLI over the artifacts the bench bins write: `.jtb`
//! traces, `.jts` timelines, JSON results, the run archive and a live
//! `--serve` endpoint.
//!
//! `jem --help` prints every subcommand with its flags (`USAGE`
//! below); each subcommand's module documents what it does.
//!
//! Every subcommand reads argv through `jem_bench`'s helpers and
//! accepts exactly the flags its mode reads: anything else, or a flag
//! that needs a value and has none, exits 2 naming it before any input
//! is read. Inputs are sniffed by magic, not by extension, and `-`
//! reads stdin wherever a whole input is read. `--window a:b` is
//! always in sim-ms; `query`'s `--since`/`--until` are in sim-ns.
//!
//! Exit status: 0 on success, 1 on a failure (for `diff`: the inputs
//! differ), 2 on a usage error.

mod check;
mod diff;
mod lab;
mod profile;
mod query;
mod timeline;
mod top;

use jem_bench::Flag;
use jem_energy::EnergyBreakdown;
use jem_obs::wire::{is_jtb, FollowStatus, JtbIndex, JtbStream, RecoveredNote};
use jem_obs::{is_jts, Json, TraceEvent};
use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: jem <command> [args]
  check    <trace.jtb | timeline.jts | -> [--summary] [--chrome <out.json>]
           [--schema <schema.json>] [--salvage <out.jtb>]
  check    <run.jtb | run.jts> --follow
  query    <trace.jtb | -> [--kind <name>]... [--method <s>] [--mode <s>] [--shard <s>]
           [--since <ns>] [--until <ns>] [--group-by <k,k,…>] [--hist] [--follow] [--json]
  profile  <trace.jtb | -> [--collapsed <out>] [--collapsed-time <out>] [--json-out <out>]
           [--top <n>] [--no-reconcile]
  timeline <timeline.jts | -> [--series <name>]... [--window a:b]
           [--csv | --json [--schema <schema.json>] | --sparkline] [--out <path>]
  timeline <a.jts> --overlay <b.jts> [--series <name>]... [--window a:b]
  timeline <run.jts> --follow [--series <name>]... [--window a:b] [--refresh <ms>]
  diff     <a> <b> [--rel-tol <x>] [--noisy-rel-tol <x>] [--noisy <marker>]...
           [--ignore <marker>]... [--json-out <path>]
  diff     --batch <baseline> <candidate>... [same options]
  lab      ingest <archive> --bin <name> [--run-args \"<args>\"] <kind>=<path>...
  lab      ls <archive> | verify <archive>
  lab      query <archive> (--series <name> | --column <path>) [--window a:b]
           [--group-by fingerprint|bin|args] [--json]
  lab      report <archive> --out <report.html>
  top      <http://HOST:PORT | HOST:PORT | run.jts> [--refresh <ms>] [--once] [--frames <n>]
           [--window a:b] [--timeout <ms>]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // A subcommand gets argv from its own name on; the flag helpers
    // skip that name like a program name.
    let sub = &args[1.min(args.len())..];
    let run = match sub.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("check") => check::run,
        Some("query") => query::run,
        Some("profile") => profile::run,
        Some("timeline") => timeline::run,
        Some("diff") => diff::run,
        Some("lab") => lab::run,
        Some("top") => top::run,
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(sub).unwrap_or_else(|e| {
        eprintln!("jem {}: {e}", sub[0]);
        ExitCode::FAILURE
    })
}

/// Exit 2 with `msg`: a usage error.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Reject every flag outside `accepted`, then return the one
/// positional argument, `what` the command reads.
fn one_input(args: &[String], accepted: &[&[Flag]], what: &str) -> String {
    jem_bench::reject_unknown_flags(args, accepted);
    match jem_bench::positionals(args, accepted).as_slice() {
        [one] => one.clone(),
        [] => usage_error(format!("jem {} needs {what}", args[0])),
        [_, extra, ..] => usage_error(format!("jem {}: unexpected argument '{extra}'", args[0])),
    }
}

/// A numeric flag's value, `None` when the flag is absent (a value that
/// does not parse exits 2, see [`jem_bench::arg_parse`]).
fn arg_opt<T: std::str::FromStr + Default>(args: &[String], flag: &str) -> Option<T> {
    jem_bench::arg_flag(args, flag).then(|| jem_bench::arg_parse(args, flag, T::default()))
}

/// The `--window a:b` flag (sim-ms, finite, `a <= b`), in sim-ns.
fn window(args: &[String]) -> Option<(f64, f64)> {
    let v = jem_bench::arg_str(args, "--window")?;
    let parsed = v.split_once(':').and_then(|(a, b)| {
        let (a, b): (f64, f64) = (a.parse().ok()?, b.parse().ok()?);
        (a.is_finite() && b.is_finite() && a <= b).then_some((a * 1e6, b * 1e6))
    });
    parsed.or_else(|| {
        usage_error(format!(
            "--window needs a:b in sim-ms with a <= b, got {v:?}"
        ))
    })
}

/// Open an input for reading; `-` is stdin.
fn open_input(path: &str) -> Result<Box<dyn Read>, String> {
    Ok(if path == "-" {
        Box::new(std::io::stdin())
    } else {
        Box::new(std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?)
    })
}

/// A stored format, told by its magic.
#[derive(PartialEq)]
enum Format {
    Jtb,
    Jts,
    Other,
}

/// Read a whole input (`-` is stdin) and sniff its format.
fn load(path: &str) -> Result<(Format, Vec<u8>), String> {
    let mut bytes = Vec::new();
    open_input(path)?
        .read_to_end(&mut bytes)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let format = if is_jtb(&bytes) {
        Format::Jtb
    } else if is_jts(&bytes) {
        Format::Jts
    } else {
        Format::Other
    };
    Ok((format, bytes))
}

/// What a `.jtb` stream's footer declared.
struct StreamEnd {
    dropped: u64,
    recovered: Option<RecoveredNote>,
    declared: EnergyBreakdown,
}

/// Feed every event of the `.jtb` at `path` (`-` is stdin) to `push`,
/// with the shard names seen so far and its shard index, in bounded
/// memory. With `follow`, tail a file that is still being written
/// until its footer lands; a torn tail waits for more bytes.
fn stream_jtb(
    path: &str,
    follow: bool,
    mut push: impl FnMut(&[String], usize, TraceEvent),
) -> Result<StreamEnd, String> {
    fn end<R: Read>(s: &JtbStream<R>) -> StreamEnd {
        StreamEnd {
            dropped: s.dropped(),
            recovered: s.recovered(),
            declared: s
                .index()
                .map(JtbIndex::total_energy)
                .expect("a stream ends only at its validated footer"),
        }
    }
    let at = |e: String| format!("{path}: {e}");
    if follow {
        let mut s = JtbStream::follow(path)?;
        loop {
            match s.poll().map_err(at)? {
                FollowStatus::Events(events) => {
                    for (shard, ev) in events {
                        push(s.shard_names(), shard, ev);
                    }
                }
                FollowStatus::Idle => std::thread::sleep(Duration::from_millis(100)),
                FollowStatus::End => return Ok(end(&s)),
            }
        }
    }
    let mut s = JtbStream::new(open_input(path)?).map_err(at)?;
    while let Some((shard, ev)) = s.next_event().map_err(at)? {
        push(s.shard_names(), shard, ev);
    }
    Ok(end(&s))
}

/// Hand every item that has fully arrived in a followed file to `each`:
/// `true` once the file is complete, `false` when the reader caught up
/// with a file still being written.
fn drain<T>(
    mut poll: impl FnMut() -> Result<FollowStatus<T>, String>,
    mut each: impl FnMut(T),
) -> Result<bool, String> {
    loop {
        match poll()? {
            FollowStatus::Events(items) => items.into_iter().for_each(&mut each),
            FollowStatus::Idle => return Ok(false),
            FollowStatus::End => return Ok(true),
        }
    }
}

/// The violations of `doc` against the JSON Schema at `schema_path`.
fn schema_errors(doc: &Json, schema_path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read schema {schema_path}: {e}"))?;
    let schema = Json::parse(&text).map_err(|e| format!("schema {schema_path}: {e}"))?;
    Ok(jem_obs::schema::validate(doc, &schema))
}

/// Write an output file atomically.
fn write_out(path: &str, bytes: &[u8]) -> Result<(), String> {
    jem_obs::write_atomic(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}
