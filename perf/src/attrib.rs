//! Host-time attribution of a traced scenario run.
//!
//! [`HostClockSink`] is a trace sink that stamps every event the
//! runtime emits with the host's monotonic clock and keeps the stamps
//! in memory. [`attribute`] then assigns the host time between each
//! pair of consecutive events to one layer, by the table in
//! [`layer_of`], so the layer times of a unit sum to its wall time by
//! construction. Nothing inside the simulator is instrumented: the
//! events are the ones `run_scenario_traced` already emits.

use jem_obs::{TraceEvent, TraceEventKind, TraceSink};
use std::time::{Duration, Instant};

/// A layer host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Runtime construction (`EnergyAwareVm::new`, server L3 install)
    /// up to the first invocation.
    VmNew,
    /// The scenario loop between invocations.
    Loop,
    /// Argument materialization (`Workload::make_args`).
    MakeArgs,
    /// The helper decision and the invocation prologue.
    Decide,
    /// Local compilation (install of profiled code) or code download.
    Compile,
    /// Request serialization and uplink.
    Send,
    /// Server-side handling (deserialize, L3 execution, serialize).
    Server,
    /// Downlink, response deserialization and failure bookkeeping.
    Recv,
    /// Interpreted execution.
    Interp,
    /// Native execution at Local1..Local3.
    Exec(usize),
    /// An event pair the table does not name.
    Other,
}

impl Layer {
    /// The per-layer metric this layer's time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::VmNew => "core.vm_new_s",
            Layer::Loop => "core.loop_s",
            Layer::MakeArgs => "apps.make_args_s",
            Layer::Decide => "core.decide_s",
            Layer::Compile => "core.compile_s",
            Layer::Send => "core.remote.send_s",
            Layer::Server => "core.remote.server_s",
            Layer::Recv => "core.remote.recv_s",
            Layer::Interp => "jvm.interp_s",
            Layer::Exec(0) => "jvm.exec.l1_s",
            Layer::Exec(1) => "jvm.exec.l2_s",
            Layer::Exec(_) => "jvm.exec.l3_s",
            Layer::Other => "other",
        }
    }
}

/// Where an invocation executed, from its `InvocationEnd` mode label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// `interpret`.
    Interp,
    /// `local/LocalN` (0-based level index).
    Local(usize),
    /// `remote`.
    Remote,
}

impl ExecMode {
    fn parse(label: &str) -> ExecMode {
        match label {
            "interpret" => ExecMode::Interp,
            "local/Local1" => ExecMode::Local(0),
            "local/Local2" => ExecMode::Local(1),
            "local/Local3" => ExecMode::Local(2),
            _ => ExecMode::Remote,
        }
    }
}

/// The parts of an event the attribution table keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// `InvocationStart`.
    InvStart,
    /// `DecisionEvaluated`.
    Decision,
    /// `Degraded`.
    Degraded,
    /// `CompileStart`.
    CompileStart,
    /// `CompileEnd` (with whether code was installed).
    CompileEnd(bool),
    /// `TxWindow`.
    Tx,
    /// `PowerDown` with reason `server-wait`.
    ServerWait,
    /// Any other `PowerDown`.
    PowerDown,
    /// `EarlyWake`.
    EarlyWake,
    /// `RxWindow`.
    Rx,
    /// `RetryAttempt`.
    Retry,
    /// `BreakerTransition`.
    Breaker,
    /// `Fallback`.
    Fallback,
    /// `Alert` (monitor-injected; never emitted by the runtime).
    Alert,
    /// `InvocationEnd`, with the mode and the client's cumulative
    /// sim-instruction count.
    InvEnd(ExecMode, u64),
}

impl Tag {
    fn of(kind: &TraceEventKind) -> Tag {
        match kind {
            TraceEventKind::InvocationStart { .. } => Tag::InvStart,
            TraceEventKind::DecisionEvaluated { .. } => Tag::Decision,
            TraceEventKind::Degraded { .. } => Tag::Degraded,
            TraceEventKind::CompileStart { .. } => Tag::CompileStart,
            TraceEventKind::CompileEnd { ok, .. } => Tag::CompileEnd(*ok),
            TraceEventKind::TxWindow { .. } => Tag::Tx,
            TraceEventKind::PowerDown { reason, .. } if reason == "server-wait" => Tag::ServerWait,
            TraceEventKind::PowerDown { .. } => Tag::PowerDown,
            TraceEventKind::EarlyWake { .. } => Tag::EarlyWake,
            TraceEventKind::RxWindow { .. } => Tag::Rx,
            TraceEventKind::RetryAttempt { .. } => Tag::Retry,
            TraceEventKind::BreakerTransition { .. } => Tag::Breaker,
            TraceEventKind::Fallback { .. } => Tag::Fallback,
            TraceEventKind::Alert { .. } => Tag::Alert,
            TraceEventKind::InvocationEnd {
                mode, instructions, ..
            } => Tag::InvEnd(ExecMode::parse(mode), *instructions),
        }
    }
}

/// Attribution state carried along the event stream.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Between an `InvocationStart` and its `InvocationEnd`.
    in_invocation: bool,
    /// Between a `CompileStart` and the `CompileEnd` that installed
    /// code (a failed download stays in compilation through its local
    /// fallback compile).
    compiling: bool,
}

impl Cursor {
    fn advance(&mut self, tag: Tag) {
        match tag {
            Tag::InvStart => self.in_invocation = true,
            Tag::InvEnd(..) => {
                self.in_invocation = false;
                self.compiling = false;
            }
            Tag::CompileStart => self.compiling = true,
            Tag::CompileEnd(true) => self.compiling = false,
            _ => {}
        }
    }
}

/// The attribution table: the layer that owns the host time between
/// `prev` (`None` at the start of a unit) and `next`, given the state
/// after `prev`. The README documents the same table.
fn layer_of(prev: Option<Tag>, next: Tag, cur: Cursor) -> Layer {
    if cur.compiling {
        // Everything between CompileStart and the installing
        // CompileEnd: local install, or the download's radio windows,
        // a failed download's fallback and the local recompile.
        return Layer::Compile;
    }
    let Some(prev) = prev else {
        return if next == Tag::InvStart || next == Tag::Breaker {
            Layer::VmNew
        } else {
            Layer::Other
        };
    };
    match next {
        Tag::InvStart => Layer::Loop,
        Tag::Breaker if !cur.in_invocation => Layer::Loop,
        Tag::Decision | Tag::Degraded | Tag::CompileStart => Layer::Decide,
        Tag::Tx => Layer::Send,
        Tag::ServerWait => Layer::Server,
        // The fault draw between the uplink and a timeout nap.
        Tag::PowerDown => Layer::Send,
        Tag::EarlyWake | Tag::Rx | Tag::Retry | Tag::Fallback | Tag::Breaker => Layer::Recv,
        Tag::InvEnd(mode, _) => match prev {
            Tag::Rx | Tag::Breaker | Tag::EarlyWake => Layer::Recv,
            // A remote invocation that fell back interprets locally.
            Tag::Fallback => Layer::Interp,
            _ => match mode {
                ExecMode::Interp => Layer::Interp,
                ExecMode::Local(l) => Layer::Exec(l),
                ExecMode::Remote => Layer::Other,
            },
        },
        Tag::CompileEnd(_) | Tag::Alert => Layer::Other,
    }
}

/// One stamped event.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Host time the sink received the event.
    pub at: Instant,
    /// What the event was.
    pub tag: Tag,
}

/// A trace sink that stamps events with host time and keeps them in
/// memory until the run ends.
#[derive(Debug, Default)]
pub struct HostClockSink {
    /// Stamped events, in emission order.
    pub marks: Vec<Mark>,
}

impl HostClockSink {
    /// Stamp one event now.
    pub fn stamp(&mut self, kind: &TraceEventKind) {
        let at = Instant::now();
        self.marks.push(Mark {
            at,
            tag: Tag::of(kind),
        });
    }
}

impl TraceSink for HostClockSink {
    fn record(&mut self, event: TraceEvent) {
        self.stamp(&event.kind);
    }
}

/// Host time per layer, plus the native-execution instruction
/// ledger behind `jvm.exec.ns_per_kinstr`.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `(layer, seconds)`, one entry per layer seen.
    pub secs: Vec<(Layer, f64)>,
    /// Host seconds of native execution in invocations that did not
    /// compile.
    pub exec_secs: f64,
    /// Client sim-instructions of those invocations.
    pub exec_instructions: u64,
    /// Host seconds of interpreted invocations (including remote ones
    /// that fell back, whose failed attempt adds a few serialization
    /// instructions).
    pub interp_secs: f64,
    /// Client sim-instructions of those invocations.
    pub interp_instructions: u64,
}

impl LayerTimes {
    /// Add `d` to `layer`.
    pub fn add(&mut self, layer: Layer, d: Duration) {
        let s = d.as_secs_f64();
        match self.secs.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, v)) => *v += s,
            None => self.secs.push((layer, s)),
        }
    }

    /// Seconds attributed to `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.secs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Seconds attributed to all layers.
    pub fn total(&self) -> f64 {
        self.secs.iter().map(|(_, v)| v).sum()
    }

    /// Fold another unit's times in.
    pub fn merge(&mut self, other: &LayerTimes) {
        for &(l, s) in &other.secs {
            self.add(l, Duration::from_secs_f64(s));
        }
        self.exec_secs += other.exec_secs;
        self.exec_instructions += other.exec_instructions;
        self.interp_secs += other.interp_secs;
        self.interp_instructions += other.interp_instructions;
    }
}

/// Attribute one unit's wall time `[start, end]` from its stamped
/// events. `make_args` lists the host time of each `make_args` call in
/// invocation order; each is carved out of the interval that follows
/// its invocation's `InvocationStart`, where the runtime calls it.
pub fn attribute(
    start: Instant,
    end: Instant,
    marks: &[Mark],
    make_args: &[Duration],
) -> LayerTimes {
    let mut out = LayerTimes::default();
    let mut cur = Cursor::default();
    let mut prev: Option<Tag> = None;
    let mut prev_at = start;
    let mut args = make_args.iter();
    // Per-invocation ledger for the ns-per-kinstr ratios.
    let mut last_instr = 0u64;
    let mut compiled = false;
    for m in marks {
        let mut d = m.at.saturating_duration_since(prev_at);
        if prev == Some(Tag::InvStart) {
            if let Some(&a) = args.next() {
                let a = a.min(d);
                out.add(Layer::MakeArgs, a);
                d -= a;
            }
        }
        let layer = layer_of(prev, m.tag, cur);
        out.add(layer, d);
        match m.tag {
            Tag::CompileStart => compiled = true,
            Tag::InvEnd(_, instr) => {
                let n = instr - last_instr;
                last_instr = instr;
                match layer {
                    Layer::Exec(_) if !compiled => {
                        out.exec_secs += d.as_secs_f64();
                        out.exec_instructions += n;
                    }
                    Layer::Interp => {
                        out.interp_secs += d.as_secs_f64();
                        out.interp_instructions += n;
                    }
                    _ => {}
                }
                compiled = false;
            }
            _ => {}
        }
        cur.advance(m.tag);
        prev = Some(m.tag);
        prev_at = m.at;
    }
    out.add(
        if prev.is_some() {
            Layer::Loop
        } else {
            Layer::Other
        },
        end.saturating_duration_since(prev_at),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Marks at the given millisecond offsets from `t0`.
    fn marks(t0: Instant, events: &[(u64, Tag)]) -> Vec<Mark> {
        events
            .iter()
            .map(|&(ms, tag)| Mark {
                at: t0 + Duration::from_millis(ms),
                tag,
            })
            .collect()
    }

    fn ms(layers: &LayerTimes, layer: Layer) -> u64 {
        (layers.get(layer) * 1000.0).round() as u64
    }

    #[test]
    fn table_splits_a_remote_and_a_compiling_invocation() {
        let t0 = Instant::now();
        let m = marks(
            t0,
            &[
                (2, Tag::InvStart),
                (5, Tag::Decision),
                (6, Tag::Tx),
                (16, Tag::ServerWait),
                (17, Tag::Rx),
                (19, Tag::InvEnd(ExecMode::Remote, 100)),
                (20, Tag::InvStart),
                (21, Tag::Decision),
                (22, Tag::CompileStart),
                (26, Tag::CompileEnd(true)),
                (36, Tag::InvEnd(ExecMode::Local(1), 900)),
                (37, Tag::Breaker),
                (38, Tag::InvStart),
                (40, Tag::InvEnd(ExecMode::Local(1), 1500)),
            ],
        );
        let args = [
            Duration::from_millis(2),
            Duration::ZERO,
            Duration::from_millis(1),
        ];
        let l = attribute(t0, t0 + Duration::from_millis(41), &m, &args);
        assert_eq!(ms(&l, Layer::VmNew), 2);
        assert_eq!(ms(&l, Layer::MakeArgs), 3);
        assert_eq!(ms(&l, Layer::Decide), 3);
        assert_eq!(ms(&l, Layer::Send), 1);
        assert_eq!(ms(&l, Layer::Server), 10);
        assert_eq!(ms(&l, Layer::Recv), 3);
        assert_eq!(ms(&l, Layer::Compile), 4);
        assert_eq!(ms(&l, Layer::Exec(1)), 11);
        assert_eq!(ms(&l, Layer::Loop), 4);
        assert_eq!(ms(&l, Layer::Other), 0);
        assert_eq!(
            ms(&l, Layer::Other) + (l.total() * 1000.0).round() as u64,
            41
        );
        // Only the invocation that did not compile counts towards the
        // native ns-per-instruction ratio.
        assert_eq!(
            (l.exec_instructions, (l.exec_secs * 1000.0).round()),
            (600, 1.0)
        );
    }

    #[test]
    fn a_failed_download_stays_in_compilation_until_code_is_installed() {
        let t0 = Instant::now();
        let m = marks(
            t0,
            &[
                (0, Tag::InvStart),
                (1, Tag::Decision),
                (2, Tag::CompileStart),
                (3, Tag::Tx),
                (5, Tag::EarlyWake),
                (6, Tag::CompileEnd(false)),
                (7, Tag::Fallback),
                (8, Tag::CompileStart),
                (9, Tag::CompileEnd(true)),
                (12, Tag::InvEnd(ExecMode::Local(2), 50)),
            ],
        );
        let l = attribute(t0, t0 + Duration::from_millis(12), &m, &[]);
        assert_eq!(ms(&l, Layer::Compile), 7);
        assert_eq!(ms(&l, Layer::Exec(2)), 3);
        assert_eq!(ms(&l, Layer::Send), 0);
    }
}
