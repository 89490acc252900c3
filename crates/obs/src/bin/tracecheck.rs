//! Validate a stored trace or timeline, and export a trace for viewers.
//!
//! ```text
//! tracecheck <trace.jtb | timeline.jts | -> [--summary]
//!            [--chrome <out.json>] [--schema schemas/trace.schema.json]
//!            [--salvage <out.jtb>] [--follow]
//! ```
//!
//! Accepts the two stored formats, sniffed by magic regardless of
//! extension: the binary `.jtb` trace and the `.jts` sim-time timeline
//! sidecar. `-` reads from stdin (for piping straight out of a bench
//! bin).
//!
//! A `.jts` input is fully decoded and checked for monotone sim-time,
//! samples within segment bounds, monotone counter series, and the
//! bit-exact rate-integral-vs-footer reconciliation; the other flags
//! do not apply to timelines. A `.jtb` input checks, in order:
//! 1. header, block, footer and trailer integrity, with every event
//!    decoding back into a `TraceEvent` record;
//! 2. the energy-conservation ledger: the per-event `EnergyBreakdown`
//!    deltas sum to the total declared by the footer's block-index
//!    partial sums. A truncated trace (dropped events) cannot balance,
//!    so the check is skipped there and the truncation reported
//!    instead;
//! 3. (with `--schema`) the Chrome-trace export of the trace validates
//!    against the given JSON Schema.
//!
//! With `--summary`, prints recorded/dropped event counts, per-kind
//! counts and the per-component delta totals after the checks, so CI
//! logs show *what* was validated, not just that something was.
//!
//! With `--chrome <out.json>`, exports the validated trace as a Chrome
//! `trace_event` JSON document (one track per run) for Perfetto and
//! `chrome://tracing`. The export is one-way: nothing reads it back.
//!
//! With `--salvage <out.jtb>`, a crash-torn `.jtb` (no footer/trailer
//! — the writer was SIGKILLed mid-stream) is cut back to its last
//! invocation-aligned block boundary and written out as a complete,
//! first-class trace carrying an explicit `recovered` marker; the
//! salvaged file is then validated like any other input. A file that
//! is already complete is copied through unchanged. All outputs are
//! written atomically (temp file + rename).
//!
//! With `--follow`, validate-the-prefix mode for a run still in
//! flight (`.jtb` or `.jts`, sniffed by magic): every complete record
//! currently in the file is decoded and checked, a torn tail — the
//! block the writer is mid-way through — parks cleanly instead of
//! failing, and the exit status is 0 whether the file is complete or
//! still growing. Only real corruption exits non-zero.
//!
//! Exits non-zero with a diagnostic on the first failure; prints a
//! one-line summary on success. CI runs this against every trace the
//! smoke job produces.

use jem_energy::EnergyBreakdown;
use jem_obs::json::Json;
use jem_obs::schema::validate;
use jem_obs::timeline::is_jts;
use jem_obs::wire::{is_jtb, load_jtb_bytes, salvage_jtb, FollowStatus, JtbIndex, JtbStream};
use jem_obs::{chrome_trace_sharded, write_atomic, JtsReader, TraceShard};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: tracecheck <trace.jtb | timeline.jts | -> [--summary] \
     [--chrome <out.json>] [--schema <schema.json>] [--salvage <out.jtb>] [--follow]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path = None;
    let mut schema_path = None;
    let mut chrome_path = None;
    let mut salvage_path = None;
    let mut summary = false;
    let mut follow = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--salvage" => {
                if i + 1 >= args.len() {
                    eprintln!("tracecheck: --salvage needs a path");
                    return ExitCode::from(2);
                }
                salvage_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--schema" => {
                if i + 1 >= args.len() {
                    eprintln!("tracecheck: --schema needs a path");
                    return ExitCode::from(2);
                }
                schema_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--chrome" => {
                if i + 1 >= args.len() {
                    eprintln!("tracecheck: --chrome needs a path");
                    return ExitCode::from(2);
                }
                chrome_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--summary" => {
                summary = true;
                i += 1;
            }
            "--follow" => {
                follow = true;
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                if trace_path.is_some() {
                    eprintln!("tracecheck: unexpected argument '{other}'");
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
        if schema_path.is_some() || chrome_path.is_some() || salvage_path.is_some() {
            eprintln!("tracecheck: --follow cannot be combined with --schema/--chrome/--salvage");
            return ExitCode::from(2);
        }
        if trace_path == "-" {
            eprintln!("tracecheck: --follow needs a file path, not stdin");
            return ExitCode::from(2);
        }
        return follow_validate(&trace_path);
    }

    let mut bytes = match read_input(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if is_jts(&bytes) {
        if schema_path.is_some() || chrome_path.is_some() || salvage_path.is_some() {
            eprintln!("tracecheck: --schema/--chrome/--salvage do not apply to .jts timelines");
            return ExitCode::from(2);
        }
        return match jem_obs::validate_jts(&bytes) {
            Ok(s) => {
                println!(
                    "tracecheck: {trace_path}: OK (jts, {} segments, {} samples, \
                     {} series, cadence {} sim-ns, rate integrals reconcile bit-exactly)",
                    s.segments, s.samples, s.series, s.sample_every_ns
                );
                if summary {
                    println!("  segments:             {}", s.segments);
                    println!("  samples:              {}", s.samples);
                    println!("  series:               {}", s.series);
                    println!("  sample cadence:       {} sim-ns", s.sample_every_ns);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tracecheck: {trace_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(out) = &salvage_path {
        // Cut a crash-torn stream back to its last invocation-aligned
        // boundary, then validate the salvaged bytes below like any
        // other input.
        let (salvaged, report) = match salvage_jtb(&bytes) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("tracecheck: {trace_path}: salvage failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = write_atomic(out, &salvaged) {
            eprintln!("tracecheck: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        if report.already_complete {
            println!(
                "tracecheck: {trace_path}: already complete ({} events), copied to {out}",
                report.kept_events
            );
        } else {
            println!(
                "tracecheck: {trace_path}: salvaged {} events in {} blocks to {out} \
                 (dropped {} bytes, {} decoded events past the last invocation boundary)",
                report.kept_events, report.kept_blocks, report.dropped_bytes, report.dropped_events
            );
        }
        bytes = salvaged;
    }

    let loaded = match load_jtb_bytes(&bytes) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tracecheck: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = match JtbIndex::read(&bytes) {
        Ok(index) => index.total_energy(),
        Err(e) => {
            eprintln!("tracecheck: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(note) = loaded.recovered {
        println!(
            "tracecheck: {trace_path}: crash-recovered trace — salvage dropped {} bytes \
             ({} decoded events) past the last invocation boundary; the kept prefix is \
             complete and invocation-aligned",
            note.dropped_bytes, note.dropped_events
        );
    }

    let mut sum = EnergyBreakdown::new();
    let mut recorded = 0u64;
    for shard in &loaded.shards {
        for ev in &shard.events {
            sum += ev.delta;
            recorded += 1;
        }
    }
    let total = sum.total().nanojoules();
    if loaded.dropped > 0 {
        // Evicted events take their deltas with them — the ledger
        // cannot balance, and pretending otherwise would hide the gap.
        println!(
            "tracecheck: {trace_path}: OK (jtb, {recorded} events, \
             conservation skipped: trace truncated, {} events dropped)",
            loaded.dropped
        );
    } else {
        let declared = declared.total().nanojoules();
        let tolerance = 1e-6 * declared.abs().max(1.0);
        if (total - declared).abs() > tolerance {
            eprintln!(
                "tracecheck: {trace_path}: energy conservation violated: \
                 sum of deltas {total} nJ != declared total {declared} nJ"
            );
            return ExitCode::FAILURE;
        }
        println!("tracecheck: {trace_path}: OK (jtb, {recorded} events, {total:.1} nJ conserved)");
    }
    if summary {
        println!("  recorded events:      {recorded}");
        println!("  dropped events:       {}", loaded.dropped);
        println!("  shards:               {}", loaded.shards.len());
        match loaded.recovered {
            Some(n) => println!(
                "  recovered:            yes ({} bytes / {} events cut at salvage)",
                n.dropped_bytes, n.dropped_events
            ),
            None => println!("  recovered:            no"),
        }
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for shard in &loaded.shards {
            for ev in &shard.events {
                *counts.entry(ev.kind.name()).or_insert(0) += 1;
            }
        }
        println!("  event kinds:");
        for (kind, n) in counts {
            println!("    {kind:<20} {n}");
        }
        println!("  delta totals:");
        for (c, e) in sum.iter() {
            println!("    {:<20} {:.1} nJ", c.name(), e.nanojoules());
        }
        println!("    {:<20} {:.1} nJ", "total", sum.total().nanojoules());
    }
    if chrome_path.is_none() && schema_path.is_none() {
        return ExitCode::SUCCESS;
    }
    // The Chrome export: one track per run, with the stream-level
    // truncation count re-attached so the document declares it.
    let mut shards: Vec<TraceShard> = loaded.shards;
    if let Some(first) = shards.first_mut() {
        first.dropped = loaded.dropped;
    }
    let text = format!("{}\n", chrome_trace_sharded(&shards).render());
    if let Some(schema_path) = &schema_path {
        let schema = match std::fs::read_to_string(schema_path)
            .map_err(|e| format!("cannot read schema {schema_path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("schema {schema_path}: {e}")))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tracecheck: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = Json::parse(&text).expect("the exporter renders valid JSON");
        let errors = validate(&doc, &schema);
        if !errors.is_empty() {
            eprintln!("tracecheck: the Chrome export of {trace_path} fails schema validation:");
            for e in errors.iter().take(20) {
                eprintln!("  {e}");
            }
            if errors.len() > 20 {
                eprintln!("  … and {} more", errors.len() - 20);
            }
            return ExitCode::FAILURE;
        }
        println!("tracecheck: {trace_path}: Chrome export validates against {schema_path}");
    }
    if let Some(out) = chrome_path {
        if let Err(e) = write_atomic(&out, text.as_bytes()) {
            eprintln!("tracecheck: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("tracecheck: exported {trace_path} -> {out}");
    }
    ExitCode::SUCCESS
}

/// `--follow`: validate every complete record currently in a growing
/// `.jtb` or `.jts` file (sniffed by magic). A torn tail — the record
/// the writer is mid-way through — is expected and parks cleanly;
/// only real corruption fails. Exit 0 whether the file is complete or
/// still growing, so scripts can poll a live run.
fn follow_validate(trace_path: &str) -> ExitCode {
    let head = {
        let mut f = match std::fs::File::open(trace_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("tracecheck: cannot read {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut head = [0u8; 4];
        match f.read(&mut head) {
            Ok(n) => head[..n].to_vec(),
            Err(e) => {
                eprintln!("tracecheck: cannot read {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if head.len() < 4 {
        // Not even a magic yet: a writer that just created the file.
        println!("tracecheck: {trace_path}: OK prefix (0 records, header still being written)");
        return ExitCode::SUCCESS;
    }
    if is_jts(&head) {
        let mut follower = match JtsReader::follow(trace_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("tracecheck: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let complete = loop {
            match follower.poll() {
                Ok(FollowStatus::Events(_)) => {}
                Ok(FollowStatus::Idle) => break false,
                Ok(FollowStatus::End) => break true,
                Err(e) => {
                    eprintln!("tracecheck: {trace_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        println!(
            "tracecheck: {trace_path}: OK prefix (jts, {} segments, {} samples, {})",
            follower.segments(),
            follower.samples(),
            if complete {
                "complete"
            } else {
                "still growing"
            }
        );
        return ExitCode::SUCCESS;
    }
    if !is_jtb(&head) {
        eprintln!("tracecheck: {trace_path}: --follow needs a .jtb or .jts input (bad magic)");
        return ExitCode::FAILURE;
    }
    let mut follower = match JtbStream::follow(trace_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tracecheck: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let complete = loop {
        match follower.poll() {
            Ok(FollowStatus::Events(_)) => {}
            Ok(FollowStatus::Idle) => break false,
            Ok(FollowStatus::End) => break true,
            Err(e) => {
                eprintln!("tracecheck: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "tracecheck: {trace_path}: OK prefix (jtb, {} events, {} dropped, {})",
        follower.events_read(),
        follower.dropped(),
        if complete {
            "complete"
        } else {
            "still growing"
        }
    );
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
