//! # jem-obs — sim-time tracing, metrics, and predictor observability
//!
//! The simulator's experiments answer *what* a strategy spent; this
//! crate answers *why*. It provides three layers, all deterministic
//! and all driven purely by simulated time (no wall clock ever appears
//! in an exported artifact):
//!
//! * [`trace`] — structured per-event tracing with [`SimTime`]
//!   timestamps and per-event [`EnergyBreakdown`] deltas, a no-op
//!   default sink (zero overhead, zero RNG impact when disabled), a
//!   bounded ring sink, and a one-way Chrome `trace_event` /
//!   Perfetto exporter,
//! * [`metrics`] — counters, gauges and log-bucketed histograms with
//!   Prometheus text-format and JSON exposition,
//! * [`accuracy`] — predicted-vs-actual energy per chosen mode and
//!   cumulative regret against the post-hoc oracle,
//! * [`profile`] — folds a trace stream into per-method ×
//!   per-execution-mode × per-component energy/sim-time profiles with
//!   flamegraph (collapsed-stack) export, reconciling exactly with the
//!   run's breakdown,
//! * [`diff`] — noise-aware differential comparison of two runs'
//!   traces / metrics / results (decision flips, per-method energy
//!   deltas); a run diffed against itself is provably empty,
//! * [`wire`] — the compact `.jtb` binary trace format, the one
//!   stored trace format: streaming bounded-memory writer sinks, a
//!   block index footer for cheap skipping, and one decoder behind
//!   every reader (streaming, follow-mode, whole-file and crash
//!   salvage), lossless back to [`trace::TraceEvent`],
//! * [`query`](mod@query) — a streaming filter / project / aggregate engine over
//!   traces (`jem query`), reconciling bit-exactly with [`profile`],
//! * [`monitor`] — online invariant monitors (energy conservation,
//!   negative deltas, retry storms, breaker flap, predictor regret,
//!   regret trend, energy-rate anomalies) that tee any sink, inject
//!   structured alert events, and emit an end-of-run health report,
//! * [`timeline`] — the `.jts` sim-time-series sidecar: a
//!   deterministic sampler that snapshots derived run state (energy
//!   cumulative/rates, predictor estimates, channel/breaker state,
//!   counters) at a sim-time cadence into a compact columnar format
//!   whose energy-rate integrals reconcile bit-exactly with the run's
//!   final breakdown; [`JtsFollower`] and [`JtbFollower`] tail a
//!   `.jts` and a `.jtb` while a run writes them, the one live channel
//!   (`jem top` and the `--follow` modes),
//! * [`tui`] — shared plain-ANSI rendering (unicode sparklines,
//!   refresh-frame helpers) for `jem top` and `jem timeline
//!   --sparkline`,
//! * [`lab`] — the cross-run experiment archive (`jem lab`):
//!   content-addressed artifact storage keyed by deterministic run
//!   fingerprints, a cross-run query engine with Welford-summary
//!   grouping, and a self-contained static HTML report with inline
//!   SVG sparklines.
//!
//! Because the workspace's vendored `serde` is a no-op stub, the
//! [`json`] module supplies the deterministic JSON reader/writer that
//! every artifact here flows through; [`schema`] adds the small
//! JSON-Schema validator CI uses to gate exported traces.
//!
//! [`SimTime`]: jem_energy::SimTime
//! [`EnergyBreakdown`]: jem_energy::EnergyBreakdown

#![warn(missing_docs)]

pub mod accuracy;
pub mod diff;
pub mod fsio;
pub mod json;
pub mod lab;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod query;
pub mod schema;
pub mod timeline;
pub mod trace;
pub mod tui;
pub mod wire;

pub use accuracy::AccuracyTracker;
pub use diff::{combine_batch, DiffEntry, DiffKind, DiffPolicy, DiffReport};
pub use fsio::{scratch_dir, scratch_path, write_atomic};
pub use json::{Json, JsonError};
pub use lab::{
    html_report, identity_args, query, sha256, sha256_hex, Archive, ArtifactRef, GroupResult,
    LabGroupBy, LabQuery, LabSelector, RunMeta, RunRecord, RunValues,
};
pub use metrics::{Buckets, Histogram, MetricsRegistry};
pub use monitor::{AlertRecord, HealthReport, Monitor, MonitorConfig, MonitorSink, MonitorTee};
pub use profile::{
    CellStats, CollapseWeight, InvocationResolver, ProfileFolder, ResolvedEvent, TraceProfile,
};
pub use query::{GroupKey, Query, QueryEngine, QueryResult, QueryRow};
pub use timeline::{
    is_jts, series_names, validate_jts, JtsFollower, JtsReader, JtsSample, JtsSummary, Timeline,
    TimelineSegment, TimelineSink,
};
pub use trace::{
    chrome_trace, chrome_trace_sharded, chrome_trace_truncated, split_shards, NullSink, RingSink,
    TraceEvent, TraceEventKind, TraceShard, TraceSink, Tracer, TracerState,
};
pub use wire::{
    is_jtb, jtb_bytes, load_trace_bytes, load_trace_path, salvage_jtb, FileSink, FollowStatus,
    JtbFollower, JtbIndex, JtbStream, JtbWriter, LoadedTrace, RecoveredNote, SalvageReport,
    WriterSink,
};
