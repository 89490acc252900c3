//! Shared observability plumbing for the bench bins.
//!
//! The optional output flags come in groups, and each bin accepts
//! exactly the groups it reads; any other `--` flag exits 2 before the
//! run starts ([`crate::reject_unknown_flags`]):
//!
//! | group | flags | bins |
//! |---|---|---|
//! | [`ObsArgs::RESULT_FLAGS`] | `--json-out` `--archive` | all |
//! | [`ObsArgs::METRICS_FLAGS`] | `--metrics-out` | `fig6` `fig7` `faults` `estfit` |
//! | [`ObsArgs::EVENT_FLAGS`] | `--trace` `--timeline` `--sample-every` `--monitor` `--health-out` `--flush-every` | `fig6` `fig7` `faults` `speedup` `ablation` |
//!
//! The flags:
//!
//! * `--trace out.jtb` — stream a `.jtb` trace of the scenario runs to
//!   disk in bounded memory. Any other extension exits 2: Chrome
//!   `trace_event` JSON for Perfetto / `chrome://tracing` is a one-way
//!   export, `jem check out.jtb --chrome out.json`;
//! * `--timeline out.jts` — stream the sim-time-series sidecar: the
//!   deterministic `.jts` timeline of derived run state (cumulative
//!   energy, predictor estimates, channel/breaker state, counters)
//!   sampled every `--sample-every` sim-milliseconds (default 1, 0 =
//!   invocation boundaries only) plus a forced sample at every
//!   invocation end;
//! * `--monitor` — run the online invariant monitors over the event
//!   stream and print the health report;
//! * `--health-out out.json` — write the health report as JSON
//!   (implies `--monitor`);
//! * `--metrics-out out.prom` — write the run's metrics registry in
//!   Prometheus text format;
//! * `--json-out BENCH_x.json` — write machine-readable results;
//! * `--flush-every SIM-MS` — flush `--trace`/`--timeline` streams to
//!   disk on the first invocation boundary after every SIM-MS of
//!   sim-time, so `--follow` readers and `jem top` can tail a run in
//!   flight (the one live channel: readers of the files the run writes
//!   anyway). Changes where `.jtb`/`.jts` blocks are cut (the decoded
//!   stream is identical); leave unset for byte-identical output;
//! * `--archive DIR` — after all outputs are written, ingest them into
//!   the experiment archive at DIR (`jem lab`) under the run's
//!   deterministic fingerprint (bin, identity args, seed, schema
//!   versions). A pure post-hoc observer: the archive copies the
//!   already-written files, so every output stays byte-identical with
//!   or without the flag.
//!
//! Outputs are deterministic: identically-seeded runs write
//! byte-identical files (sim-time timestamps only, sorted label sets,
//! insertion-ordered JSON objects), which CI exploits by diffing two
//! traced runs. Monitoring never perturbs the simulation — alerts are
//! injected into the exported trace, not the run.

use crate::print_table;
use jem_core::{accuracy_of, Profile, ScenarioResult};
use jem_energy::EnergyBreakdown;
use jem_obs::wire::FileSink;
use jem_obs::{
    AccuracyTracker, HealthReport, Json, MetricsRegistry, MonitorConfig, MonitorTee, NullSink,
    TimelineSink, TraceEvent, TraceSink,
};

/// Where a bin should write its optional observability outputs.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// `--trace` path (a `.jtb` trace).
    pub trace: Option<String>,
    /// `--monitor`: run the online invariant monitors.
    pub monitor: bool,
    /// `--health-out` path (health report JSON; implies `--monitor`).
    pub health_out: Option<String>,
    /// `--metrics-out` path (Prometheus text format).
    pub metrics_out: Option<String>,
    /// `--json-out` path (machine-readable results).
    pub json_out: Option<String>,
    /// `--timeline` path (`.jts` sim-time-series sidecar).
    pub timeline: Option<String>,
    /// `--sample-every` cadence in sim-milliseconds (0 = invocation
    /// boundaries only).
    pub sample_every_ms: f64,
    /// `--flush-every` cadence in sim-milliseconds (invocation-aligned
    /// stream flushing for live followers).
    pub flush_every_ms: Option<f64>,
    /// `--archive` directory (the `jem lab` experiment archive to ingest
    /// this run's artifacts into after they are written).
    pub archive: Option<String>,
}

/// The sink handed to traced bench runs: a destination plus an
/// optional monitor tee in front of it.
pub struct BenchSink {
    /// The `--trace` stream (bounded memory regardless of trace
    /// length); `None` when the events only feed the monitors or the
    /// timeline.
    file: Option<FileSink>,
    tee: Option<MonitorTee>,
    /// `.jts` sidecar writer. A side observer, not part of the sink
    /// chain: it sees the raw (pre-monitor) stream with the tracer's
    /// exact cumulative ledger.
    timeline: Option<TimelineSink>,
}

impl BenchSink {
    /// Start a new shard named `name` in the `--trace` stream.
    pub fn begin_shard(&mut self, name: &str) {
        if let Some(file) = self.file.as_mut() {
            file.begin_shard(name);
        }
    }

    /// Forward one event down the (tee ->) file chain.
    fn forward(&mut self, event: TraceEvent) {
        match (&mut self.tee, &mut self.file) {
            (Some(tee), Some(file)) => tee.process(event, file),
            (Some(tee), None) => tee.process(event, &mut NullSink),
            (None, Some(file)) => file.record(event),
            (None, None) => {}
        }
    }
}

impl TraceSink for BenchSink {
    fn enabled(&self) -> bool {
        // Monitoring and the timeline need the event stream even when
        // no trace is persisted.
        self.tee.is_some() || self.timeline.is_some() || self.file.is_some()
    }
    fn record(&mut self, event: TraceEvent) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.observe(&event, None);
        }
        self.forward(event);
    }
    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.observe(&event, Some(ledger));
        }
        self.forward(event);
    }
    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        // Monitor tees carry unserialized window state and cannot
        // resume mid-stream (the checkpoint flags reject them up front).
        if self.tee.is_some() {
            return None;
        }
        let jtb = match &mut self.file {
            // A file sink that cannot checkpoint poisons the whole
            // state — resuming without it would desync the trace.
            Some(f) => Some(TraceSink::ckpt_state(f)?),
            None => None,
        };
        match self.timeline.as_mut() {
            None => jtb,
            Some(tl) => {
                let jts = TraceSink::ckpt_state(tl)?;
                Some(encode_composite_state(jtb.as_deref(), &jts))
            }
        }
    }
}

/// Composite writer-state magic: a `.jtb` writer state and a `.jts`
/// timeline state packed into the one opaque blob the checkpoint file
/// carries.
const JCS_MAGIC: &[u8; 4] = b"JCS1";

fn encode_composite_state(jtb: Option<&[u8]>, jts: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + jtb.map_or(0, <[u8]>::len) + jts.len());
    out.extend_from_slice(JCS_MAGIC);
    match jtb {
        Some(s) => {
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s);
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(jts.len() as u32).to_le_bytes());
    out.extend_from_slice(jts);
    out
}

/// The two writer-state parts a checkpoint can carry.
type SplitState<'a> = (Option<&'a [u8]>, Option<&'a [u8]>);

/// Split a checkpointed writer state into its `.jtb` and `.jts`
/// parts. Plain (non-composite) states are `.jtb`-only.
fn split_composite_state(state: &[u8]) -> SplitState<'_> {
    if state.len() < 5 || &state[..4] != JCS_MAGIC {
        return (Some(state), None);
    }
    let parse = || -> Option<SplitState<'_>> {
        let mut pos = 4;
        let has_jtb = state[pos] == 1;
        pos += 1;
        let jtb = if has_jtb {
            let len = u32::from_le_bytes(state.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let part = state.get(pos..pos + len)?;
            pos += len;
            Some(part)
        } else {
            None
        };
        let len = u32::from_le_bytes(state.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let jts = state.get(pos..pos + len)?;
        if pos + len != state.len() {
            return None;
        }
        Some((jtb, Some(jts)))
    };
    match parse() {
        Some(parts) => parts,
        None => {
            eprintln!("error: corrupt composite writer state in checkpoint");
            std::process::exit(1);
        }
    }
}

impl ObsArgs {
    /// `--json-out` and `--archive`: every bin writes a results
    /// document and can archive it.
    pub const RESULT_FLAGS: &'static [crate::Flag] = &[("--json-out", true), ("--archive", true)];

    /// `--metrics-out`: bins that fill a metrics registry.
    pub const METRICS_FLAGS: &'static [crate::Flag] = &[("--metrics-out", true)];

    /// The event-stream flags: bins whose scenario runs record into a
    /// [`BenchSink`].
    pub const EVENT_FLAGS: &'static [crate::Flag] = &[
        ("--trace", true),
        ("--timeline", true),
        ("--sample-every", true),
        ("--monitor", false),
        ("--health-out", true),
        ("--flush-every", true),
    ];

    /// Parse the output flags from argv.
    pub fn parse(args: &[String]) -> ObsArgs {
        let trace = crate::arg_str(args, "--trace");
        if let Some(path) = trace.as_deref().filter(|p| !p.ends_with(".jtb")) {
            eprintln!(
                "error: --trace writes a .jtb trace, not {path}; export Chrome/Perfetto JSON \
                 from it with `jem check <trace.jtb> --chrome <out.json>`"
            );
            std::process::exit(2);
        }
        let sample_every_ms = match crate::arg_str(args, "--sample-every") {
            None => 1.0,
            Some(raw) => match raw.parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms >= 0.0 => ms,
                _ => {
                    eprintln!("error: --sample-every expects a non-negative sim-ms number");
                    std::process::exit(2);
                }
            },
        };
        let flush_every_ms = match crate::arg_str(args, "--flush-every") {
            None => None,
            Some(raw) => match raw.parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms > 0.0 => Some(ms),
                _ => {
                    eprintln!("error: --flush-every expects a positive sim-ms number");
                    std::process::exit(2);
                }
            },
        };
        ObsArgs {
            trace,
            monitor: crate::arg_flag(args, "--monitor"),
            health_out: crate::arg_str(args, "--health-out"),
            metrics_out: crate::arg_str(args, "--metrics-out"),
            json_out: crate::arg_str(args, "--json-out"),
            timeline: crate::arg_str(args, "--timeline"),
            sample_every_ms,
            flush_every_ms,
            archive: crate::arg_str(args, "--archive"),
        }
    }

    /// Whether the invariant monitors should run.
    pub fn monitoring(&self) -> bool {
        self.monitor || self.health_out.is_some()
    }

    /// Whether traced runs are wanted at all (`--trace`, a
    /// `--timeline` sidecar, or monitors that need the event stream).
    pub fn wants_events(&self) -> bool {
        self.trace.is_some() || self.timeline.is_some() || self.monitoring()
    }

    /// The sampling cadence in sim-nanoseconds.
    fn sample_every_ns(&self) -> f64 {
        self.sample_every_ms * 1e6
    }

    /// The sink for trace collection, if [`ObsArgs::wants_events`]. A
    /// `--trace` destination streams to disk. Given a checkpointed
    /// `writer_state`, the `.jtb` and `.jts` sinks reopen the existing
    /// files and continue exactly where the checkpoint left them
    /// (post-checkpoint bytes from the crashed run are truncated away).
    pub fn trace_sink(&self, writer_state: Option<&[u8]>) -> Option<BenchSink> {
        let (jtb_state, jts_state) = match writer_state {
            Some(state) => split_composite_state(state),
            None => (None, None),
        };
        if !self.wants_events() {
            return None;
        }
        let file = self.trace.as_ref().map(|path| {
            let sink = match jtb_state {
                Some(state) => FileSink::resume(path, state)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
                None => FileSink::create(path),
            };
            match sink {
                Ok(mut f) => {
                    if let Some(ms) = self.flush_every_ms {
                        f.set_flush_every(ms * 1e6);
                    }
                    f
                }
                Err(err) => {
                    eprintln!("error: cannot create {path}: {err}");
                    std::process::exit(1);
                }
            }
        });
        let timeline = self.timeline.as_ref().map(|path| {
            let sink = match jts_state {
                Some(state) => TimelineSink::resume(path, state)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
                None => TimelineSink::create(path, self.sample_every_ns()),
            };
            match sink {
                Ok(mut tl) => {
                    if let Some(ms) = self.flush_every_ms {
                        tl.set_flush_every(ms * 1e6);
                    }
                    tl
                }
                Err(err) => {
                    eprintln!("error: cannot create {path}: {err}");
                    std::process::exit(1);
                }
            }
        });
        Some(BenchSink {
            file,
            tee: self
                .monitoring()
                .then(|| MonitorTee::new(MonitorConfig::default())),
            timeline,
        })
    }

    /// Finish whatever the sink collected: the trace and timeline
    /// files and the health report (printed, and written when
    /// `--health-out` was given).
    pub fn finish_trace(&self, sink: Option<BenchSink>) {
        let Some(sink) = sink else {
            return;
        };
        if let Some(tee) = sink.tee {
            self.emit_health(&tee.finish());
        }
        if let Some(tl) = sink.timeline {
            let path = tl.path().to_string();
            match tl.finish() {
                Ok(()) => eprintln!("wrote {path}"),
                Err(err) => {
                    eprintln!("error: cannot write {path}: {err}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(f) = sink.file {
            let path = f.path().to_string();
            match f.finish() {
                Ok(()) => eprintln!("wrote {path}"),
                Err(err) => {
                    eprintln!("error: cannot write {path}: {err}");
                    std::process::exit(1);
                }
            }
        }
    }

    fn emit_health(&self, report: &HealthReport) {
        println!();
        println!("{}", report.render_text());
        if let Some(path) = &self.health_out {
            write_file(
                path,
                format!("{}\n", report.to_json().render_pretty()).as_bytes(),
            );
        }
    }

    /// Write the metrics registry (no-op without `--metrics-out`).
    pub fn write_metrics(&self, registry: &MetricsRegistry) {
        if let Some(path) = &self.metrics_out {
            write_file(path, registry.render_prometheus().as_bytes());
        }
    }

    /// Write the results document (no-op without `--json-out`).
    pub fn write_json(&self, doc: &Json) {
        if let Some(path) = &self.json_out {
            write_file(path, format!("{}\n", doc.render_pretty()).as_bytes());
        }
    }

    /// Ingest this run's written artifacts into the `--archive`
    /// experiment archive (no-op without the flag). Bins call this
    /// last, after every output file exists — the archive reads the
    /// files back from disk, so archiving can never perturb them.
    /// `argv` is the bin's full argv (program name first); the run's
    /// fingerprint is derived from its identity arguments.
    pub fn archive_run(&self, argv: &[String]) {
        let Some(root) = &self.archive else {
            return;
        };
        let mut files: Vec<(String, String)> = Vec::new();
        if let Some(p) = &self.json_out {
            files.push(("bench".to_string(), p.clone()));
        }
        if let Some(p) = &self.trace {
            files.push(("trace".to_string(), p.clone()));
        }
        if let Some(p) = &self.timeline {
            files.push(("timeline".to_string(), p.clone()));
        }
        if let Some(p) = &self.health_out {
            files.push(("health".to_string(), p.clone()));
        }
        if let Some(p) = &self.metrics_out {
            files.push(("metrics".to_string(), p.clone()));
        }
        if files.is_empty() {
            eprintln!(
                "warning: --archive {root}: nothing to ingest (no --json-out / --trace / \
                 --timeline / --health-out / --metrics-out)"
            );
            return;
        }
        let meta = jem_obs::RunMeta::from_argv(argv);
        let ingested = jem_obs::Archive::open_or_create(root)
            .and_then(|archive| archive.ingest_files(&meta, &files));
        match ingested {
            Ok(record) => eprintln!(
                "archived {} ({} artifact(s)) into {root}",
                record.label(),
                record.artifacts.len()
            ),
            Err(err) => {
                eprintln!("error: --archive {root}: {err}");
                std::process::exit(1);
            }
        }
    }
}

fn write_file(path: &str, content: &[u8]) {
    match jem_obs::write_atomic(path, content) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
    }
}

/// Fold one run's predictor accuracy into `tracker` and return the
/// run's contribution (convenience over [`jem_core::accuracy_of`]).
pub fn accumulate_accuracy(
    tracker: &mut AccuracyTracker,
    profile: &Profile,
    result: &ScenarioResult,
) {
    tracker.merge(&accuracy_of(profile, result));
}

/// Print the `fig_regret`-style predictor-accuracy table.
pub fn print_regret_table(title: &str, tracker: &AccuracyTracker) {
    if tracker.invocations() == 0 {
        return;
    }
    let header_owned = AccuracyTracker::table_header();
    let headers: Vec<&str> = header_owned.iter().map(String::as_str).collect();
    print_table(title, &headers, &tracker.table_rows());
}
