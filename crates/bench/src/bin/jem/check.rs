//! `jem check`: validate a stored trace or timeline, and export a trace
//! for viewers.
//!
//! A `.jts` input is fully decoded and checked for monotone sim-time,
//! samples within segment bounds, monotone counter series, and the
//! bit-exact rate-integral-vs-footer reconciliation; only `--summary`
//! applies to timelines. A `.jtb` input checks, in order:
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
//! With `--follow` (no other flag), validate-the-prefix mode for a run
//! still in flight (`.jtb` or `.jts`): every complete record currently
//! in the file is decoded and checked, a torn tail — the block the
//! writer is mid-way through — parks cleanly instead of failing, and
//! the exit status is 0 whether the file is complete or still growing.
//! Only real corruption exits non-zero.
//!
//! Exits non-zero with a diagnostic on the first failure; prints a
//! one-line summary on success. CI runs this against every trace the
//! smoke job produces.

use crate::{drain, load, one_input, schema_errors, usage_error, write_out, Format};
use jem_bench::{arg_flag, arg_str, Flag};
use jem_energy::EnergyBreakdown;
use jem_obs::wire::{load_jtb_bytes, salvage_jtb, JtbIndex, JtbStream};
use jem_obs::{chrome_trace_sharded, Json, JtsReader};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    ("--summary", false),
    ("--chrome", true),
    ("--schema", true),
    ("--salvage", true),
];
const FOLLOW: &[Flag] = &[("--follow", false)];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    if arg_flag(args, "--follow") {
        let path = one_input(args, &[FOLLOW], "a .jtb or .jts file");
        if path == "-" {
            usage_error("--follow needs a file path, not stdin");
        }
        return follow(&path);
    }
    let path = one_input(args, &[FLAGS], "a .jtb or .jts input");
    let summary = arg_flag(args, "--summary");
    let (chrome, schema, salvage) = (
        arg_str(args, "--chrome"),
        arg_str(args, "--schema"),
        arg_str(args, "--salvage"),
    );
    let (format, mut bytes) = load(&path)?;

    if format == Format::Jts {
        if chrome.is_some() || schema.is_some() || salvage.is_some() {
            usage_error("--schema/--chrome/--salvage do not apply to .jts timelines");
        }
        let s = jem_obs::validate_jts(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "jem check: {path}: OK (jts, {} segments, {} samples, \
             {} series, cadence {} sim-ns, rate integrals reconcile bit-exactly)",
            s.segments, s.samples, s.series, s.sample_every_ns
        );
        if summary {
            println!("  segments:             {}", s.segments);
            println!("  samples:              {}", s.samples);
            println!("  series:               {}", s.series);
            println!("  sample cadence:       {} sim-ns", s.sample_every_ns);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(out) = &salvage {
        // Cut a crash-torn stream back to its last invocation-aligned
        // boundary, then validate the salvaged bytes below like any
        // other input.
        let (salvaged, report) =
            salvage_jtb(&bytes).map_err(|e| format!("{path}: salvage failed: {e}"))?;
        write_out(out, &salvaged)?;
        if report.already_complete {
            println!(
                "jem check: {path}: already complete ({} events), copied to {out}",
                report.kept_events
            );
        } else {
            println!(
                "jem check: {path}: salvaged {} events in {} blocks to {out} \
                 (dropped {} bytes, {} decoded events past the last invocation boundary)",
                report.kept_events, report.kept_blocks, report.dropped_bytes, report.dropped_events
            );
        }
        bytes = salvaged;
    }

    let at = |e: String| format!("{path}: {e}");
    let loaded = load_jtb_bytes(&bytes).map_err(at)?;
    let declared = JtbIndex::read(&bytes).map_err(at)?.total_energy();

    if let Some(note) = loaded.recovered {
        println!(
            "jem check: {path}: crash-recovered trace — salvage dropped {} bytes \
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
            "jem check: {path}: OK (jtb, {recorded} events, \
             conservation skipped: trace truncated, {} events dropped)",
            loaded.dropped
        );
    } else {
        let declared = declared.total().nanojoules();
        let tolerance = 1e-6 * declared.abs().max(1.0);
        if (total - declared).abs() > tolerance {
            return Err(format!(
                "{path}: energy conservation violated: \
                 sum of deltas {total} nJ != declared total {declared} nJ"
            ));
        }
        println!("jem check: {path}: OK (jtb, {recorded} events, {total:.1} nJ conserved)");
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
    if chrome.is_none() && schema.is_none() {
        return Ok(ExitCode::SUCCESS);
    }
    // The Chrome export: one track per run, with the stream-level
    // truncation count re-attached so the document declares it.
    let mut shards = loaded.shards;
    if let Some(first) = shards.first_mut() {
        first.dropped = loaded.dropped;
    }
    let text = format!("{}\n", chrome_trace_sharded(&shards).render());
    if let Some(schema) = &schema {
        let doc = Json::parse(&text).expect("the exporter renders valid JSON");
        let errors = schema_errors(&doc, schema)?;
        if !errors.is_empty() {
            eprintln!("jem check: the Chrome export of {path} fails schema validation:");
            for e in errors.iter().take(20) {
                eprintln!("  {e}");
            }
            if errors.len() > 20 {
                eprintln!("  … and {} more", errors.len() - 20);
            }
            return Ok(ExitCode::FAILURE);
        }
        println!("jem check: {path}: Chrome export validates against {schema}");
    }
    if let Some(out) = chrome {
        write_out(&out, text.as_bytes())?;
        println!("jem check: exported {path} -> {out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `--follow`: validate every complete record currently in a growing
/// `.jtb` or `.jts` file. A torn tail — the record the writer is
/// mid-way through — is expected and parks cleanly; only real
/// corruption fails. Exit 0 whether the file is complete or still
/// growing, so scripts can poll a live run.
fn follow(path: &str) -> Result<ExitCode, String> {
    let mut head = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(4).read_to_end(&mut head))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let state = |complete| {
        if complete {
            "complete"
        } else {
            "still growing"
        }
    };
    let at = |e: String| format!("{path}: {e}");
    if head.len() < 4 {
        // Not even a magic yet: a writer that just created the file.
        println!("jem check: {path}: OK prefix (0 records, header still being written)");
    } else if jem_obs::is_jts(&head) {
        let mut f = JtsReader::follow(path).map_err(at)?;
        let complete = drain(|| f.poll(), drop).map_err(at)?;
        println!(
            "jem check: {path}: OK prefix (jts, {} segments, {} samples, {})",
            f.segments(),
            f.samples(),
            state(complete)
        );
    } else if jem_obs::is_jtb(&head) {
        let mut f = JtbStream::follow(path).map_err(at)?;
        let complete = drain(|| f.poll(), drop).map_err(at)?;
        println!(
            "jem check: {path}: OK prefix (jtb, {} events, {} dropped, {})",
            f.events_read(),
            f.dropped(),
            state(complete)
        );
    } else {
        return Err(format!(
            "{path}: --follow needs a .jtb or .jts input (bad magic)"
        ));
    }
    Ok(ExitCode::SUCCESS)
}
