//! Structured sim-time event tracing.
//!
//! The runtime emits one [`TraceEvent`] per interesting step of an
//! invocation — decision evaluations, compilations, radio windows,
//! power-downs, retries, breaker transitions, fallbacks. Every event
//! is timestamped with [`SimTime`] (never wall clock: exported traces
//! from identically-seeded runs must be byte-identical) and carries
//! the [`EnergyBreakdown`] *delta* charged since the previous event,
//! so a trace doubles as an energy-conservation ledger: the per-event
//! deltas sum to the run's total breakdown.
//!
//! Sinks implement [`TraceSink`]; the default is no sink at all
//! ([`Tracer::off`]), which costs one branch per would-be event and
//! draws nothing from the RNG, so tracing cannot perturb seeded runs.
//! [`RingSink`] keeps a bounded in-memory window; [`chrome_trace`]
//! exports events (one way) in the Chrome `trace_event` JSON format
//! that Perfetto and `chrome://tracing` load directly. The stored
//! format is `.jtb` ([`crate::wire`]).

use crate::json::Json;
use jem_energy::{Energy, EnergyBreakdown, SimTime};
use std::collections::VecDeque;

/// What happened. String fields are stable labels (strategy keys,
/// mode names, channel classes) rather than foreign types, so this
/// crate stays below the simulator in the dependency order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A top-level invocation began.
    InvocationStart {
        /// Strategy key ("AA", "AL", "R", …).
        strategy: String,
        /// Qualified potential-method label ("fe::Main.integrate") —
        /// the call-structure root the profiler attributes energy to.
        method: String,
        /// Input size parameter.
        size: u32,
        /// True channel class label.
        true_class: String,
        /// Class the pilot estimator chose.
        chosen_class: String,
    },
    /// The helper method evaluated the five candidate energies.
    DecisionEvaluated {
        /// Invocation counter `k` used in the estimates.
        k: u64,
        /// Predicted size parameter `s̄`.
        s_bar: f64,
        /// Predicted PA power `p̄` (watts).
        pa_bar_w: f64,
        /// `EI` candidate (nJ).
        interpret_nj: f64,
        /// `ER` candidate (nJ).
        remote_nj: f64,
        /// `EL1..EL3` candidates (nJ).
        local_nj: [f64; 3],
        /// The winning mode label.
        chosen: String,
        /// Whether the remote candidate was admissible (breaker).
        remote_allowed: bool,
    },
    /// A compilation began (`source` is "local" or "download").
    CompileStart {
        /// Optimization level label ("L1".."L3").
        level: String,
        /// "local" (client JIT) or "download" (remote compilation).
        source: String,
    },
    /// The matching compilation finished (or failed, for downloads).
    CompileEnd {
        /// Optimization level label.
        level: String,
        /// "local" or "download".
        source: String,
        /// Whether the compiled code was installed.
        ok: bool,
    },
    /// A radio transmit window.
    TxWindow {
        /// Wire bytes sent.
        bytes: u64,
        /// Airtime of the window.
        airtime: SimTime,
        /// Whether this was a retransmission at higher power.
        retransmit: bool,
    },
    /// A radio receive window.
    RxWindow {
        /// Wire bytes received.
        bytes: u64,
        /// Airtime of the window.
        airtime: SimTime,
    },
    /// The client powered down (leakage only) for `duration`.
    PowerDown {
        /// Length of the power-down window.
        duration: SimTime,
        /// Why ("server-wait", "backoff", "airtime", "timeout-overlap").
        reason: String,
    },
    /// The client woke before the server's result was ready and idled
    /// awake for `wait`.
    EarlyWake {
        /// Awake idle time burned at nominal power.
        wait: SimTime,
    },
    /// A remote retry is about to run.
    RetryAttempt {
        /// 1-based retry number within the invocation.
        attempt: u32,
        /// The jittered backoff nap preceding it.
        backoff: SimTime,
    },
    /// The circuit breaker changed state.
    BreakerTransition {
        /// State label before ("closed", "open", "half-open").
        from: String,
        /// State label after.
        to: String,
    },
    /// Remote execution failed for good; execution fell back locally.
    Fallback {
        /// Failure label ("connection-lost", "server-unavailable",
        /// "corrupt-response").
        reason: String,
    },
    /// The breaker forced this invocation away from a remote decision.
    Degraded {
        /// What degraded ("remote-exec" or "remote-compile").
        what: String,
    },
    /// An online monitor fired (injected by
    /// [`crate::monitor::MonitorSink`], never by the runtime itself).
    /// Alerts carry a zero energy delta, so a monitored trace remains
    /// a valid conservation ledger.
    Alert {
        /// Which invariant fired ("conservation", "negative-delta",
        /// "retry-storm", "breaker-flap", "predictor-regret").
        monitor: String,
        /// Severity label ("warn" or "critical").
        severity: String,
        /// Human-readable diagnostic.
        message: String,
    },
    /// The invocation completed.
    InvocationEnd {
        /// Mode the invocation executed in.
        mode: String,
        /// Client energy of the whole invocation.
        energy: Energy,
        /// Client wall time of the whole invocation.
        time: SimTime,
        /// Cumulative sim-instructions retired on the client machine
        /// at invocation end (a run-level counter, not per-invocation:
        /// consumers difference consecutive events for rates).
        instructions: u64,
    },
}

impl TraceEventKind {
    /// Stable kebab-case name of this event kind.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::InvocationStart { .. } => "invocation-start",
            TraceEventKind::DecisionEvaluated { .. } => "decision-evaluated",
            TraceEventKind::CompileStart { .. } => "compile-start",
            TraceEventKind::CompileEnd { .. } => "compile-end",
            TraceEventKind::TxWindow { .. } => "tx-window",
            TraceEventKind::RxWindow { .. } => "rx-window",
            TraceEventKind::PowerDown { .. } => "power-down",
            TraceEventKind::EarlyWake { .. } => "early-wake",
            TraceEventKind::RetryAttempt { .. } => "retry-attempt",
            TraceEventKind::BreakerTransition { .. } => "breaker-transition",
            TraceEventKind::Fallback { .. } => "fallback",
            TraceEventKind::Degraded { .. } => "degraded",
            TraceEventKind::Alert { .. } => "alert",
            TraceEventKind::InvocationEnd { .. } => "invocation-end",
        }
    }

    /// The duration of windowed kinds (drives Chrome `X` events).
    pub fn duration(&self) -> Option<SimTime> {
        match self {
            TraceEventKind::TxWindow { airtime, .. } | TraceEventKind::RxWindow { airtime, .. } => {
                Some(*airtime)
            }
            TraceEventKind::PowerDown { duration, .. } => Some(*duration),
            TraceEventKind::EarlyWake { wait } => Some(*wait),
            _ => None,
        }
    }

    fn args_json(&self) -> Json {
        match self {
            TraceEventKind::InvocationStart {
                strategy,
                method,
                size,
                true_class,
                chosen_class,
            } => Json::object()
                .with("strategy", strategy.as_str())
                .with("method", method.as_str())
                .with("size", *size)
                .with("true_class", true_class.as_str())
                .with("chosen_class", chosen_class.as_str()),
            TraceEventKind::DecisionEvaluated {
                k,
                s_bar,
                pa_bar_w,
                interpret_nj,
                remote_nj,
                local_nj,
                chosen,
                remote_allowed,
            } => Json::object()
                .with("k", *k)
                .with("s_bar", *s_bar)
                .with("pa_bar_w", *pa_bar_w)
                .with("interpret_nj", *interpret_nj)
                .with("remote_nj", *remote_nj)
                .with("local_nj", local_nj.to_vec())
                .with("chosen", chosen.as_str())
                .with("remote_allowed", *remote_allowed),
            TraceEventKind::CompileStart { level, source } => Json::object()
                .with("level", level.as_str())
                .with("source", source.as_str()),
            TraceEventKind::CompileEnd { level, source, ok } => Json::object()
                .with("level", level.as_str())
                .with("source", source.as_str())
                .with("ok", *ok),
            TraceEventKind::TxWindow {
                bytes,
                airtime,
                retransmit,
            } => Json::object()
                .with("bytes", *bytes)
                .with("airtime_ns", airtime.nanos())
                .with("retransmit", *retransmit),
            TraceEventKind::RxWindow { bytes, airtime } => Json::object()
                .with("bytes", *bytes)
                .with("airtime_ns", airtime.nanos()),
            TraceEventKind::PowerDown { duration, reason } => Json::object()
                .with("duration_ns", duration.nanos())
                .with("reason", reason.as_str()),
            TraceEventKind::EarlyWake { wait } => Json::object().with("wait_ns", wait.nanos()),
            TraceEventKind::RetryAttempt { attempt, backoff } => Json::object()
                .with("attempt", *attempt)
                .with("backoff_ns", backoff.nanos()),
            TraceEventKind::BreakerTransition { from, to } => Json::object()
                .with("from", from.as_str())
                .with("to", to.as_str()),
            TraceEventKind::Fallback { reason } => Json::object().with("reason", reason.as_str()),
            TraceEventKind::Degraded { what } => Json::object().with("what", what.as_str()),
            TraceEventKind::Alert {
                monitor,
                severity,
                message,
            } => Json::object()
                .with("monitor", monitor.as_str())
                .with("severity", severity.as_str())
                .with("message", message.as_str()),
            TraceEventKind::InvocationEnd {
                mode,
                energy,
                time,
                instructions,
            } => Json::object()
                .with("mode", mode.as_str())
                .with("energy_nj", energy.nanojoules())
                .with("time_ns", time.nanos())
                .with("instructions", *instructions),
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number within the run.
    pub seq: u64,
    /// 1-based index of the enclosing top-level invocation.
    pub invocation: u64,
    /// Invocation-scoped sequence number: resets to 0 at every
    /// [`Tracer::next_invocation`]. Lets block-oriented consumers (the
    /// `.jtb` wire format, monitors) align block boundaries on
    /// invocation starts without scanning for kind.
    pub ordinal: u64,
    /// Client sim-time when the event was recorded (end of the window
    /// for windowed kinds).
    pub at: SimTime,
    /// Energy charged to the client since the previous event — the
    /// conservation ledger: these deltas sum to the run's breakdown.
    pub delta: EnergyBreakdown,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Serialize a breakdown as a `{component: nJ}` object plus a total.
pub fn breakdown_json(b: &EnergyBreakdown) -> Json {
    let mut obj = Json::object();
    for (c, e) in b.iter() {
        obj = obj.with(c.name(), e.nanojoules());
    }
    obj.with("total", b.total().nanojoules())
}

impl TraceEvent {
    /// The exported record format (one JSON object per event).
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("seq", self.seq)
            .with("invocation", self.invocation)
            .with("ordinal", self.ordinal)
            .with("t_ns", self.at.nanos())
            .with("kind", self.kind.name())
            .with("delta_nj", breakdown_json(&self.delta))
            .with("args", self.kind.args_json())
    }
}

/// Destination for trace events.
pub trait TraceSink {
    /// Whether events should be produced at all. Emission sites skip
    /// every snapshot and allocation when this is false.
    fn enabled(&self) -> bool {
        true
    }
    /// Record one event.
    fn record(&mut self, event: TraceEvent);
    /// Record one event together with the machine's *cumulative*
    /// energy ledger at that instant. [`Tracer::emit`] always calls
    /// this entry point; the default drops the ledger and forwards to
    /// [`TraceSink::record`], so ordinary sinks never see it. Sinks
    /// that derive running state from the exact ledger (the timeline
    /// sampler — prefix-summing the per-event deltas re-rounds every
    /// step, so only the ledger value is bit-exact) override it.
    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        let _ = ledger;
        self.record(event);
    }
    /// Checkpoint hook: flush buffered I/O to durable storage and
    /// return an opaque serialized writer state from which the sink
    /// can later be resumed ([`crate::wire::FileSink::resume`]).
    /// Sinks that do not support crash-safe resumption return `None`
    /// (the default) — checkpointing callers must then either reject
    /// the configuration or checkpoint at coarser boundaries.
    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        None
    }
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory ring of trace events. When full, the oldest
/// event is dropped (and counted), so long runs keep the most recent
/// window instead of growing without bound.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Consume the sink, returning the retained events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        (**self).record_with_ledger(event, ledger);
    }
    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        (**self).ckpt_state()
    }
}

/// Serializable snapshot of a [`Tracer`]'s counters (see
/// [`Tracer::export_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TracerState {
    /// Cumulative breakdown at the last emitted event (delta base).
    pub last: EnergyBreakdown,
    /// Next event sequence number.
    pub seq: u64,
    /// Current 1-based invocation index.
    pub invocation: u64,
    /// Next ordinal within the invocation.
    pub ordinal: u64,
}

/// The runtime's handle: an optional sink plus the delta bookkeeping.
///
/// With no sink attached every emission site reduces to one branch —
/// no snapshots, no allocation, no RNG draws — so traced and untraced
/// runs of the same seed produce bit-identical energy totals.
pub struct Tracer<'s> {
    sink: Option<&'s mut dyn TraceSink>,
    last: EnergyBreakdown,
    seq: u64,
    invocation: u64,
    ordinal: u64,
}

impl Default for Tracer<'_> {
    fn default() -> Self {
        Tracer::off()
    }
}

impl<'s> Tracer<'s> {
    /// A tracer with no sink: all emissions are no-ops.
    pub fn off() -> Tracer<'s> {
        Tracer {
            sink: None,
            last: EnergyBreakdown::new(),
            seq: 0,
            invocation: 0,
            ordinal: 0,
        }
    }

    /// A tracer feeding `sink`. A sink whose `enabled()` is false is
    /// treated exactly like no sink.
    pub fn attached(sink: &'s mut dyn TraceSink) -> Tracer<'s> {
        if sink.enabled() {
            Tracer {
                sink: Some(sink),
                last: EnergyBreakdown::new(),
                seq: 0,
                invocation: 0,
                ordinal: 0,
            }
        } else {
            Tracer::off()
        }
    }

    /// Like [`Tracer::attached`], but resuming from a checkpointed
    /// [`TracerState`]: sequence numbers, the invocation counter and
    /// the delta baseline continue exactly where the original tracer
    /// stopped.
    pub fn attached_with(sink: &'s mut dyn TraceSink, state: &TracerState) -> Tracer<'s> {
        let mut t = Tracer::attached(sink);
        if t.sink.is_some() {
            t.last = state.last;
            t.seq = state.seq;
            t.invocation = state.invocation;
            t.ordinal = state.ordinal;
        }
        t
    }

    /// Snapshot the tracer's counters and delta baseline for
    /// checkpointing (meaningful only between invocations).
    pub fn export_state(&self) -> TracerState {
        TracerState {
            last: self.last,
            seq: self.seq,
            invocation: self.invocation,
            ordinal: self.ordinal,
        }
    }

    /// Checkpoint hook pass-through to the attached sink (see
    /// [`TraceSink::ckpt_state`]); `None` when no sink is attached or
    /// the sink does not support resumption.
    pub fn sink_ckpt_state(&mut self) -> Option<Vec<u8>> {
        self.sink.as_deref_mut().and_then(|s| s.ckpt_state())
    }

    /// Whether events are being recorded. Callers may skip building
    /// event arguments when false (emission itself also checks).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Mark the start of the next top-level invocation; subsequent
    /// events carry its 1-based index.
    #[inline]
    pub fn next_invocation(&mut self) {
        if self.sink.is_some() {
            self.invocation += 1;
            self.ordinal = 0;
        }
    }

    /// Emit one event. `breakdown` is the machine's *cumulative*
    /// ledger at this instant; the tracer derives the per-event delta.
    #[inline]
    pub fn emit(&mut self, at: SimTime, breakdown: EnergyBreakdown, kind: TraceEventKind) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let delta = breakdown - self.last;
            self.last = breakdown;
            let event = TraceEvent {
                seq: self.seq,
                invocation: self.invocation,
                ordinal: self.ordinal,
                at,
                delta,
                kind,
            };
            self.seq += 1;
            self.ordinal += 1;
            sink.record_with_ledger(event, &breakdown);
        }
    }
}

/// One independently traced event stream destined for its own thread
/// track in the exported document — e.g. one `fig7` grid cell. Shards
/// keep their own `seq` and sim-time origins; merging is deterministic
/// because shards are emitted in input order and events within a shard
/// in `seq` order.
#[derive(Debug, Clone)]
pub struct TraceShard {
    /// Track label shown by trace viewers ("fe/iii", …).
    pub name: String,
    /// The shard's events, `seq`-ordered from 0.
    pub events: Vec<TraceEvent>,
    /// Events the producing sink evicted before export (ring
    /// overflow). Non-zero means `events` is a *suffix* of the run —
    /// exports must carry this forward so truncation is never silent.
    pub dropped: u64,
}

impl TraceShard {
    /// A named shard over `events` (nothing dropped).
    pub fn new(name: impl Into<String>, events: Vec<TraceEvent>) -> TraceShard {
        TraceShard {
            name: name.into(),
            events,
            dropped: 0,
        }
    }

    /// Record that `dropped` earlier events were evicted by the sink.
    pub fn with_dropped(mut self, dropped: u64) -> TraceShard {
        self.dropped = dropped;
        self
    }
}

/// Render events as a Chrome `trace_event` JSON document — the format
/// Perfetto and `chrome://tracing` open directly. Point events become
/// instants (`ph:"i"`), windowed events become complete spans
/// (`ph:"X"`, with `ts` backdated by the window duration). Timestamps
/// are sim-time microseconds; every event's `args` carries the full
/// exported record, so the document is a self-describing conservation
/// ledger. It is a one-way export: `.jtb` is the stored format, and
/// nothing reads this document back.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    chrome_trace_truncated(events, 0)
}

/// [`chrome_trace`] for a stream whose sink evicted `dropped` events:
/// the count lands in `otherData.dropped_events` so downstream tools
/// can refuse to reconcile a partial ledger.
pub fn chrome_trace_truncated(events: &[TraceEvent], dropped: u64) -> Json {
    chrome_trace_sharded(std::slice::from_ref(
        &TraceShard::new("client", events.to_vec()).with_dropped(dropped),
    ))
}

/// Multi-shard [`chrome_trace`]: each shard becomes its own Chrome
/// thread track (tid = shard index + 1, labelled by a `thread_name`
/// metadata event), and `otherData.total_energy` telescopes over every
/// shard — the merged document stays one conservation ledger.
pub fn chrome_trace_sharded(shards: &[TraceShard]) -> Json {
    let n_events: usize = shards.iter().map(|s| s.events.len()).sum();
    let mut out = Vec::with_capacity(n_events + shards.len() + 1);
    // Process-name metadata event, so trace viewers label the track.
    out.push(
        Json::object()
            .with("name", "process_name")
            .with("ph", "M")
            .with("pid", 1u64)
            .with("tid", 1u64)
            .with("args", Json::object().with("name", "jem client (sim time)")),
    );
    let mut total = EnergyBreakdown::new();
    let mut shard_names = Vec::with_capacity(shards.len());
    for (si, shard) in shards.iter().enumerate() {
        let tid = si as u64 + 1;
        shard_names.push(Json::Str(shard.name.clone()));
        out.push(
            Json::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("tid", tid)
                .with("args", Json::object().with("name", shard.name.as_str())),
        );
        for ev in &shard.events {
            total += ev.delta;
            let us = ev.at.nanos() * 1e-3;
            let mut obj = Json::object().with("name", ev.kind.name());
            obj = match ev.kind.duration() {
                Some(dur) => {
                    let dur_us = dur.nanos() * 1e-3;
                    obj.with("ph", "X")
                        .with("ts", us - dur_us)
                        .with("dur", dur_us)
                }
                None => obj.with("ph", "i").with("ts", us).with("s", "t"),
            };
            out.push(
                obj.with("pid", 1u64)
                    .with("tid", tid)
                    .with("args", ev.to_json()),
            );
        }
    }
    let dropped: u64 = shards.iter().map(|s| s.dropped).sum();
    Json::object()
        .with("traceEvents", Json::Arr(out))
        .with("displayTimeUnit", "ns")
        .with(
            "otherData",
            Json::object()
                .with("events", n_events)
                .with("dropped_events", dropped)
                .with("shards", Json::Arr(shard_names))
                .with("total_energy", breakdown_json(&total)),
        )
}

/// Split a flattened event stream (e.g. several runs streamed through
/// one sink) back into its shards: a new shard starts wherever the
/// monotonic `seq` counter restarts. A
/// single-shard stream comes back as one slice; an empty stream as
/// none.
pub fn split_shards(events: &[TraceEvent]) -> Vec<&[TraceEvent]> {
    let mut shards = Vec::new();
    let mut start = 0usize;
    for i in 1..events.len() {
        if events[i].seq <= events[i - 1].seq {
            shards.push(&events[start..i]);
            start = i;
        }
    }
    if start < events.len() {
        shards.push(&events[start..]);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::Component;

    fn sample_events() -> Vec<TraceEvent> {
        let mut tracer_events = Vec::new();
        let mut b = EnergyBreakdown::new();
        b.charge(Component::Core, Energy::from_nanojoules(10.0));
        tracer_events.push(TraceEvent {
            seq: 0,
            invocation: 1,
            ordinal: 0,
            at: SimTime::from_nanos(100.0),
            delta: b,
            kind: TraceEventKind::DecisionEvaluated {
                k: 3,
                s_bar: 64.0,
                pa_bar_w: 0.37,
                interpret_nj: 5000.0,
                remote_nj: 1200.0,
                local_nj: [4000.0, 3500.0, 3600.0],
                chosen: "remote".to_string(),
                remote_allowed: true,
            },
        });
        let mut d = EnergyBreakdown::new();
        d.charge(Component::RadioTx, Energy::from_nanojoules(700.5));
        tracer_events.push(TraceEvent {
            seq: 1,
            invocation: 1,
            ordinal: 1,
            at: SimTime::from_nanos(2100.0),
            delta: d,
            kind: TraceEventKind::TxWindow {
                bytes: 128,
                airtime: SimTime::from_nanos(2000.0),
                retransmit: false,
            },
        });
        tracer_events
    }

    #[test]
    fn ring_sink_bounds_and_counts() {
        let mut ring = RingSink::new(2);
        for ev in sample_events() {
            ring.record(ev.clone());
            ring.record(ev);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 4);
        assert_eq!(ring.dropped(), 2);
        // Oldest-first: the survivors are the last two recorded.
        assert_eq!(ring.events().next().unwrap().seq, 1);
    }

    #[test]
    fn null_sink_disables_tracer() {
        let mut null = NullSink;
        let tracer = Tracer::attached(&mut null);
        assert!(!tracer.enabled());
        let off = Tracer::off();
        assert!(!off.enabled());
    }

    #[test]
    fn tracer_computes_telescoping_deltas() {
        let mut ring = RingSink::new(16);
        {
            let mut t = Tracer::attached(&mut ring);
            t.next_invocation();
            let mut b = EnergyBreakdown::new();
            b.charge(Component::Core, Energy::from_nanojoules(5.0));
            t.emit(
                SimTime::from_nanos(1.0),
                b,
                TraceEventKind::Degraded {
                    what: "remote-exec".into(),
                },
            );
            b.charge(Component::RadioTx, Energy::from_nanojoules(3.0));
            t.emit(
                SimTime::from_nanos(2.0),
                b,
                TraceEventKind::Fallback {
                    reason: "connection-lost".into(),
                },
            );
        }
        let events = ring.into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].delta.total().nanojoules(), 5.0);
        assert_eq!(events[1].delta.total().nanojoules(), 3.0);
        assert_eq!(events[0].invocation, 1);
        assert_eq!(events[1].seq, 1);
        // Ordinals count within the invocation, from 0.
        assert_eq!(events[0].ordinal, 0);
        assert_eq!(events[1].ordinal, 1);
    }

    #[test]
    fn chrome_trace_shape() {
        let events = sample_events();
        let doc = chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Process + thread metadata + two events.
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(arr[1].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(arr[2].get("ph").and_then(Json::as_str), Some("i"));
        // The tx window is a complete span backdated by its airtime.
        assert_eq!(arr[3].get("ph").and_then(Json::as_str), Some("X"));
        let ts = arr[3].get("ts").and_then(Json::as_f64).unwrap();
        let dur = arr[3].get("dur").and_then(Json::as_f64).unwrap();
        assert!((ts + dur - 2.1).abs() < 1e-12);
        // The embedded total matches the deltas.
        let total = doc
            .get("otherData")
            .and_then(|o| o.get("total_energy"))
            .and_then(|t| t.get("total"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((total - 710.5).abs() < 1e-9);
    }

    #[test]
    fn sharded_trace_merges_and_splits_back() {
        let shard_a = TraceShard::new("a", sample_events());
        let shard_b = TraceShard::new("b", sample_events());
        let doc = chrome_trace_sharded(&[shard_a.clone(), shard_b.clone()]);
        // Shard names land in otherData, every shard gets a
        // thread_name metadata event, and the total telescopes over
        // both shards.
        let names = doc
            .get("otherData")
            .and_then(|o| o.get("shards"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].as_str(), Some("a"));
        let total = doc
            .get("otherData")
            .and_then(|o| o.get("total_energy"))
            .and_then(|t| t.get("total"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((total - 2.0 * 710.5).abs() < 1e-9);
        // The flattened stream splits back at the seq restart.
        let back: Vec<TraceEvent> = shard_a
            .events
            .iter()
            .chain(&shard_b.events)
            .cloned()
            .collect();
        let shards = split_shards(&back);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0], &shard_a.events[..]);
        assert_eq!(shards[1], &shard_b.events[..]);
        // Degenerate cases.
        assert!(split_shards(&[]).is_empty());
        assert_eq!(split_shards(&back[..2]).len(), 1);
    }
}
