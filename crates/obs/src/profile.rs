//! Trace-stream profiling: per-method / per-mode / per-component
//! energy and sim-time attribution, with flamegraph export.
//!
//! A trace is an energy-conservation ledger (every event carries the
//! [`EnergyBreakdown`] delta charged since the previous event — see
//! [`crate::trace`]). This module *consumes* that ledger: it folds an
//! event stream into a stack-structured [`TraceProfile`] whose cells
//! answer "where did the joules go?" at three altitudes:
//!
//! * **method** — the potential method of the enclosing invocation
//!   (`invocation-start` carries its qualified label);
//! * **mode** — how that invocation executed (`interpret`, `remote`,
//!   `local/L1..L3`), resolved from its `invocation-end`;
//! * **phase frames** — the call structure within the invocation:
//!   decision evaluation, compilations (with radio windows of a code
//!   download nested *inside* the compile frame), remote tx/rx
//!   windows, power-down naps, retry backoffs, fallbacks, and the
//!   final execute span.
//!
//! Every event's delta is attributed to exactly one stack, so the
//! profile telescopes: the sum over all cells equals the sum of the
//! deltas equals (within float round-off of the telescoped ledger)
//! the run's `EnergyBreakdown`. [`TraceProfile::reconcile`] checks
//! this, and `jem profile` enforces it on every export.
//!
//! Exports: top-N hot tables ([`TraceProfile::render_method_table`],
//! [`TraceProfile::render_hot_frames`]) and collapsed-stack text
//! ([`TraceProfile::collapsed`]) that `inferno-flamegraph`,
//! speedscope, and `flamegraph.pl` all ingest directly — one line per
//! stack, `frame;frame;frame weight`, energy- or time-weighted.

use crate::json::Json;
use crate::trace::{breakdown_json, TraceEvent, TraceEventKind};
use jem_energy::{Component, EnergyBreakdown, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Method label used when a shard never saw an `invocation-start`
/// (e.g. a ring sink that dropped the head of the stream).
pub const UNKNOWN_METHOD: &str = "(unknown-method)";
/// Mode label used when an invocation's `invocation-end` is missing
/// (truncated stream).
pub const UNKNOWN_MODE: &str = "(truncated)";
/// Mode label of events that follow a shard's last completed
/// invocation with no `invocation-start` after them (e.g. a monitor's
/// end-of-run alerts): nothing is missing.
pub const AFTER_RUN_MODE: &str = "(after-run)";
/// Method label of the [`AFTER_RUN_MODE`] events: they belong to no
/// invocation, so to no method either.
pub const NO_METHOD: &str = "(no-method)";

/// Aggregated weight of one profile cell (a unique frame stack).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellStats {
    /// Energy attributed to this stack, per component.
    pub energy: EnergyBreakdown,
    /// Sim-time attributed to this stack.
    pub time: SimTime,
    /// Trace events attributed to this stack.
    pub events: u64,
}

impl CellStats {
    fn absorb(&mut self, delta: EnergyBreakdown, dt: SimTime) {
        self.energy += delta;
        self.time += dt;
        self.events += 1;
    }

    /// Fold another cell into this one (used for prefix roll-ups).
    pub fn merge(&mut self, other: &CellStats) {
        self.energy += other.energy;
        self.time += other.time;
        self.events += other.events;
    }
}

/// Which weight a collapsed-stack export carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseWeight {
    /// Total energy in nanojoules (rounded to integer counts).
    EnergyNanojoules,
    /// Sim-time in nanoseconds (rounded to integer counts).
    TimeNanos,
}

/// A folded trace: leaf cells keyed by frame stack
/// `[method, mode, phase…]`, plus stream-level totals.
#[derive(Debug, Clone, Default)]
pub struct TraceProfile {
    cells: BTreeMap<Vec<String>, CellStats>,
    total: EnergyBreakdown,
    total_time: SimTime,
    invocations: u64,
    shards: usize,
    events: u64,
}

/// One row of the per-method × per-mode table.
#[derive(Debug, Clone)]
pub struct MethodModeRow {
    /// Qualified method label.
    pub method: String,
    /// Execution-mode label.
    pub mode: String,
    /// Aggregated weight over every phase of that pair.
    pub stats: CellStats,
}

impl TraceProfile {
    /// Fold a (possibly multi-shard) event stream into a profile.
    /// Shard boundaries are detected wherever the `seq` counter
    /// restarts; each shard carries its own sim-time origin. This is
    /// the batch face of [`ProfileFolder`], which streams.
    pub fn fold(events: &[TraceEvent]) -> TraceProfile {
        let mut folder = ProfileFolder::new();
        for ev in events {
            folder.push(ev.clone());
        }
        folder.finish()
    }

    fn absorb_resolved(&mut self, r: &ResolvedEvent) {
        self.total += r.event.delta;
        self.total_time += r.dt;
        self.events += 1;
        if matches!(r.event.kind, TraceEventKind::InvocationStart { .. }) {
            self.invocations += 1;
        }
        let mut stack = Vec::with_capacity(r.frames.len() + 2);
        stack.push(r.method.clone());
        stack.push(r.mode.clone());
        stack.extend(r.frames.iter().cloned());
        self.cells
            .entry(stack)
            .or_default()
            .absorb(r.event.delta, r.dt);
    }

    /// Leaf cells: `(stack, stats)` in deterministic (lexicographic)
    /// order.
    pub fn cells(&self) -> impl Iterator<Item = (&[String], &CellStats)> {
        self.cells.iter().map(|(k, v)| (k.as_slice(), v))
    }

    /// Total energy over the whole stream (the telescoped ledger).
    pub fn total(&self) -> EnergyBreakdown {
        self.total
    }

    /// Total sim-time over the whole stream (summed per shard).
    pub fn total_time(&self) -> SimTime {
        self.total_time
    }

    /// Top-level invocations seen.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Shards detected in the stream.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Events folded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Roll leaf cells up into every stack prefix: the returned map
    /// holds, for each prefix, the *total* weight of its subtree
    /// (a frame's *self* weight is its own leaf cell, if any).
    pub fn rollup(&self) -> BTreeMap<Vec<String>, CellStats> {
        let mut out: BTreeMap<Vec<String>, CellStats> = BTreeMap::new();
        for (stack, stats) in &self.cells {
            for depth in 1..=stack.len() {
                out.entry(stack[..depth].to_vec()).or_default().merge(stats);
            }
        }
        out
    }

    /// Per-method × per-mode rows, hottest (by total energy) first;
    /// ties break lexicographically so the table is deterministic.
    pub fn method_mode_rows(&self) -> Vec<MethodModeRow> {
        let mut agg: BTreeMap<(String, String), CellStats> = BTreeMap::new();
        for (stack, stats) in &self.cells {
            let method = stack.first().cloned().unwrap_or_default();
            let mode = stack.get(1).cloned().unwrap_or_default();
            agg.entry((method, mode)).or_default().merge(stats);
        }
        let mut rows: Vec<MethodModeRow> = agg
            .into_iter()
            .map(|((method, mode), stats)| MethodModeRow {
                method,
                mode,
                stats,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.stats
                .energy
                .total()
                .nanojoules()
                .partial_cmp(&a.stats.energy.total().nanojoules())
                .expect("finite energies")
                .then_with(|| (&a.method, &a.mode).cmp(&(&b.method, &b.mode)))
        });
        rows
    }

    /// Collapsed-stack text (one `frame;frame;… weight` line per leaf
    /// cell, lexicographically ordered) — the format `inferno`,
    /// speedscope and `flamegraph.pl` consume. Weights are rounded to
    /// integers; zero-weight lines are dropped.
    pub fn collapsed(&self, weight: CollapseWeight) -> String {
        let mut out = String::new();
        for (stack, stats) in &self.cells {
            let w = match weight {
                CollapseWeight::EnergyNanojoules => stats.energy.total().nanojoules(),
                CollapseWeight::TimeNanos => stats.time.nanos(),
            }
            .round();
            if w <= 0.0 {
                continue;
            }
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&format!("{w:.0}"));
            out.push('\n');
        }
        out
    }

    /// Check the profile's column sums against an externally known
    /// breakdown (the run's `EnergyBreakdown`, or a trace document's
    /// `otherData.total_energy`), component by component, within
    /// `rel_tol` relative tolerance.
    ///
    /// # Errors
    /// A message naming the first component whose attributed sum
    /// disagrees.
    pub fn reconcile(&self, expected: &EnergyBreakdown, rel_tol: f64) -> Result<(), String> {
        // Column sums over the *cells* (not the running total), so a
        // lost delta in attribution is caught, not papered over.
        let mut summed = EnergyBreakdown::new();
        for stats in self.cells.values() {
            summed += stats.energy;
        }
        for c in Component::ALL {
            let got = summed[c].nanojoules();
            let want = expected[c].nanojoules();
            let tol = rel_tol * want.abs().max(1.0);
            if (got - want).abs() > tol {
                return Err(format!(
                    "profile does not reconcile: component '{}' sums to {got} nJ, expected {want} nJ (tol {tol})",
                    c.name()
                ));
            }
        }
        Ok(())
    }

    /// Fixed-width per-method × per-mode table, hottest first,
    /// truncated to `top` rows; column sums reconcile with the run's
    /// breakdown.
    pub fn render_method_table(&self, top: usize) -> String {
        let rows = self.method_mode_rows();
        let mut lines = Vec::new();
        lines.push(format!(
            "{:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>13} {:>8}",
            "method / mode",
            "core uJ",
            "dram uJ",
            "leak uJ",
            "tx uJ",
            "rx uJ",
            "total uJ",
            "time ms",
            "events"
        ));
        let shown = rows.iter().take(top);
        for row in shown {
            let e = &row.stats.energy;
            lines.push(format!(
                "{:<34} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>13.4} {:>8}",
                format!("{} {}", row.method, row.mode),
                e[Component::Core].microjoules(),
                e[Component::Dram].microjoules(),
                e[Component::Leakage].microjoules(),
                e[Component::RadioTx].microjoules(),
                e[Component::RadioRx].microjoules(),
                e.total().microjoules(),
                row.stats.time.millis(),
                row.stats.events,
            ));
        }
        if rows.len() > top {
            lines.push(format!("… and {} more rows", rows.len() - top));
        }
        lines.push(format!(
            "{:<34} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>13.4} {:>8}",
            "TOTAL",
            self.total[Component::Core].microjoules(),
            self.total[Component::Dram].microjoules(),
            self.total[Component::Leakage].microjoules(),
            self.total[Component::RadioTx].microjoules(),
            self.total[Component::RadioRx].microjoules(),
            self.total.total().microjoules(),
            self.total_time.millis(),
            self.events,
        ));
        lines.join("\n")
    }

    /// Self/total hot-frame table over every stack prefix, hottest by
    /// total energy first, truncated to `top` rows.
    pub fn render_hot_frames(&self, top: usize) -> String {
        let rollup = self.rollup();
        let mut entries: Vec<(&Vec<String>, &CellStats)> = rollup.iter().collect();
        entries.sort_by(|a, b| {
            b.1.energy
                .total()
                .nanojoules()
                .partial_cmp(&a.1.energy.total().nanojoules())
                .expect("finite energies")
                .then_with(|| a.0.cmp(b.0))
        });
        let mut lines = Vec::new();
        lines.push(format!(
            "{:<56} {:>12} {:>12} {:>13}",
            "frame stack", "self uJ", "total uJ", "time ms"
        ));
        for (stack, total_stats) in entries.into_iter().take(top) {
            let self_stats = self.cells.get(stack).copied().unwrap_or_default();
            lines.push(format!(
                "{:<56} {:>12.3} {:>12.3} {:>13.4}",
                stack.join(";"),
                self_stats.energy.total().microjoules(),
                total_stats.energy.total().microjoules(),
                total_stats.time.millis(),
            ));
        }
        lines.join("\n")
    }

    /// Machine-readable profile document.
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|(stack, stats)| {
                Json::object()
                    .with(
                        "stack",
                        Json::Arr(stack.iter().map(|f| Json::Str(f.clone())).collect()),
                    )
                    .with("energy_nj", breakdown_json(&stats.energy))
                    .with("time_ns", stats.time.nanos())
                    .with("events", stats.events)
            })
            .collect();
        let rows: Vec<Json> = self
            .method_mode_rows()
            .into_iter()
            .map(|row| {
                Json::object()
                    .with("method", row.method.as_str())
                    .with("mode", row.mode.as_str())
                    .with("energy_nj", breakdown_json(&row.stats.energy))
                    .with("time_ns", row.stats.time.nanos())
                    .with("events", row.stats.events)
            })
            .collect();
        Json::object()
            .with("schema", "jem-profile/v1")
            .with("shards", self.shards)
            .with("invocations", self.invocations)
            .with("events", self.events)
            .with("total_energy_nj", breakdown_json(&self.total))
            .with("total_time_ns", self.total_time.nanos())
            .with("methods", Json::Arr(rows))
            .with("cells", Json::Arr(cells))
    }
}

fn frames(open: &[String], leaf: &str) -> Vec<String> {
    let mut s = Vec::with_capacity(open.len() + 1);
    s.extend(open.iter().cloned());
    s.push(leaf.to_string());
    s
}

fn compile_frame(level: &str, source: &str) -> String {
    format!("compile-{level}-{source}")
}

/// An event with the invocation-level context that is only knowable
/// once the whole invocation has been seen: the enclosing method, the
/// retroactively resolved execution mode, the phase-frame suffix, the
/// per-shard time delta, and the shard ordinal.
#[derive(Debug, Clone)]
pub struct ResolvedEvent {
    /// The raw trace event.
    pub event: TraceEvent,
    /// 0-based shard ordinal in the stream.
    pub shard: usize,
    /// Qualified method of the enclosing invocation
    /// ([`UNKNOWN_METHOD`] if the stream head was dropped,
    /// [`NO_METHOD`] after the shard's last invocation).
    pub method: String,
    /// Execution mode from the invocation's `invocation-end`
    /// ([`UNKNOWN_MODE`] if the stream was truncated mid-invocation,
    /// [`AFTER_RUN_MODE`] after the shard's last invocation).
    pub mode: String,
    /// Sim-time elapsed since the previous event of the same shard.
    pub dt: SimTime,
    /// Phase-frame suffix — the profile stack below `[method, mode]`.
    pub frames: Vec<String>,
}

impl ResolvedEvent {
    /// The full profile stack `[method, mode, frames…]`.
    pub fn stack(&self) -> Vec<String> {
        let mut s = Vec::with_capacity(self.frames.len() + 2);
        s.push(self.method.clone());
        s.push(self.mode.clone());
        s.extend(self.frames.iter().cloned());
        s
    }
}

/// The streaming core shared by the profiler and `jem query`: buffers
/// one invocation at a time (the mode is only revealed by its
/// `invocation-end`), detects shard restarts on the `seq` counter, and
/// yields [`ResolvedEvent`]s in input order. Memory is O(one
/// invocation), never O(run).
#[derive(Debug, Default)]
pub struct InvocationResolver {
    started: bool,
    shard: usize,
    prev_seq: u64,
    prev_at: SimTime,
    pending: Vec<(TraceEvent, Vec<String>, SimTime)>,
    method: Option<String>,
    open: Vec<String>,
    /// An invocation ended in this shard and none has started since.
    after_end: bool,
    out: VecDeque<ResolvedEvent>,
}

impl InvocationResolver {
    /// A fresh resolver.
    pub fn new() -> InvocationResolver {
        InvocationResolver::default()
    }

    /// Feed the next event of the stream. Resolved events become
    /// available from [`InvocationResolver::next_resolved`] as soon as
    /// their invocation completes.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.started && ev.seq <= self.prev_seq {
            // seq restarted: a new shard begins. Anything pending
            // belongs to an invocation the old shard never finished,
            // or follows its last one.
            self.flush_tail();
            self.after_end = false;
            self.shard += 1;
            self.prev_at = SimTime::ZERO;
            self.method = None;
            self.open.clear();
        }
        self.started = true;
        self.prev_seq = ev.seq;
        let dt = ev.at - self.prev_at;
        self.prev_at = ev.at;
        let mut finished_mode: Option<String> = None;
        let suffix: Vec<String> = match &ev.kind {
            TraceEventKind::InvocationStart { method: m, .. } => {
                self.method = Some(m.clone());
                self.after_end = false;
                vec!["start".to_string()]
            }
            TraceEventKind::DecisionEvaluated { .. } => frames(&self.open, "decision"),
            TraceEventKind::CompileStart { level, source } => {
                // The pre-compile residue is tiny; charging it to
                // the compile frame keeps "one event, one stack".
                let frame = compile_frame(level, source);
                let s = frames(&self.open, &frame);
                self.open.push(frame);
                s
            }
            TraceEventKind::CompileEnd { .. } => {
                let s = self.open.clone();
                self.open.pop();
                if s.is_empty() {
                    // Unmatched end (truncated head): own frame.
                    vec!["compile-end".to_string()]
                } else {
                    s
                }
            }
            TraceEventKind::InvocationEnd { mode, .. } => {
                finished_mode = Some(mode.clone());
                vec!["execute".to_string()]
            }
            // Windowed and point events are leaves named by kind,
            // nested under any open compile frame (a download's
            // radio windows belong to the compile).
            other => frames(&self.open, other.name()),
        };
        self.pending.push((ev, suffix, dt));
        if let Some(mode) = finished_mode {
            self.flush(&mode);
            self.open.clear();
            self.after_end = true;
        }
    }

    /// Flush events no `invocation-end` resolved: under
    /// [`AFTER_RUN_MODE`] when they follow a completed invocation with
    /// no start after them, under [`UNKNOWN_MODE`] otherwise.
    fn flush_tail(&mut self) {
        self.flush(if self.after_end {
            AFTER_RUN_MODE
        } else {
            UNKNOWN_MODE
        });
    }

    fn flush(&mut self, mode: &str) {
        let method = if mode == AFTER_RUN_MODE {
            NO_METHOD
        } else {
            self.method.as_deref().unwrap_or(UNKNOWN_METHOD)
        };
        for (event, frames, dt) in self.pending.drain(..) {
            self.out.push_back(ResolvedEvent {
                event,
                shard: self.shard,
                method: method.to_string(),
                mode: mode.to_string(),
                dt,
                frames,
            });
        }
    }

    /// Declare the stream over: any buffered tail resolves under
    /// [`UNKNOWN_MODE`] (an invocation whose end was never seen) or
    /// [`AFTER_RUN_MODE`] (events after the last invocation).
    pub fn finish(&mut self) {
        self.flush_tail();
    }

    /// The next resolved event, if one is ready.
    pub fn next_resolved(&mut self) -> Option<ResolvedEvent> {
        self.out.pop_front()
    }

    /// Shards seen so far (0 before the first event).
    pub fn shards_seen(&self) -> usize {
        if self.started {
            self.shard + 1
        } else {
            0
        }
    }
}

/// Streaming profile construction: push events as they arrive (from a
/// [`crate::wire::JtbStream`], a live sink, …), then [`finish`] into a
/// [`TraceProfile`]. Equivalent to [`TraceProfile::fold`] by
/// construction — both run on [`InvocationResolver`] — but in O(one
/// invocation + cells) memory instead of O(run).
///
/// [`finish`]: ProfileFolder::finish
#[derive(Debug, Default)]
pub struct ProfileFolder {
    resolver: InvocationResolver,
    profile: TraceProfile,
}

impl ProfileFolder {
    /// A fresh folder.
    pub fn new() -> ProfileFolder {
        ProfileFolder::default()
    }

    /// Feed the next event of the stream.
    pub fn push(&mut self, ev: TraceEvent) {
        self.resolver.push(ev);
        self.absorb();
    }

    fn absorb(&mut self) {
        while let Some(r) = self.resolver.next_resolved() {
            self.profile.absorb_resolved(&r);
        }
    }

    /// Complete the profile (flushes any truncated tail invocation).
    pub fn finish(mut self) -> TraceProfile {
        self.resolver.finish();
        self.absorb();
        self.profile.shards = self.resolver.shards_seen();
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::Energy;

    fn delta(c: Component, nj: f64) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.charge(c, Energy::from_nanojoules(nj));
        b
    }

    fn ev(seq: u64, at_ns: f64, d: EnergyBreakdown, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            invocation: 1,
            ordinal: seq,
            at: SimTime::from_nanos(at_ns),
            delta: d,
            kind,
        }
    }

    /// A hand-built two-invocation stream: an AA invocation that
    /// downloads L2 code (radio windows inside the compile frame) and
    /// runs natively, then a remote invocation with a retry.
    fn synthetic_stream() -> Vec<TraceEvent> {
        let start = |seq, at| {
            ev(
                seq,
                at,
                delta(Component::Core, 1.0),
                TraceEventKind::InvocationStart {
                    strategy: "AA".into(),
                    method: "fe::Main.integrate".into(),
                    size: 64,
                    true_class: "C3".into(),
                    chosen_class: "C3".into(),
                },
            )
        };
        vec![
            start(0, 10.0),
            ev(
                1,
                20.0,
                delta(Component::Core, 5.0),
                TraceEventKind::DecisionEvaluated {
                    k: 1,
                    s_bar: 64.0,
                    pa_bar_w: 0.4,
                    interpret_nj: 900.0,
                    remote_nj: 700.0,
                    local_nj: [400.0, 300.0, 350.0],
                    chosen: "local/L2".into(),
                    remote_allowed: true,
                },
            ),
            ev(
                2,
                30.0,
                delta(Component::Core, 2.0),
                TraceEventKind::CompileStart {
                    level: "L2".into(),
                    source: "download".into(),
                },
            ),
            ev(
                3,
                50.0,
                delta(Component::RadioTx, 40.0),
                TraceEventKind::TxWindow {
                    bytes: 64,
                    airtime: SimTime::from_nanos(20.0),
                    retransmit: false,
                },
            ),
            ev(
                4,
                90.0,
                delta(Component::RadioRx, 60.0),
                TraceEventKind::RxWindow {
                    bytes: 512,
                    airtime: SimTime::from_nanos(40.0),
                },
            ),
            ev(
                5,
                100.0,
                delta(Component::Core, 3.0),
                TraceEventKind::CompileEnd {
                    level: "L2".into(),
                    source: "download".into(),
                    ok: true,
                },
            ),
            ev(
                6,
                200.0,
                delta(Component::Core, 250.0),
                TraceEventKind::InvocationEnd {
                    mode: "local/L2".into(),
                    energy: Energy::from_nanojoules(361.0),
                    time: SimTime::from_nanos(190.0),
                    instructions: 1_000,
                },
            ),
            // Second invocation: remote with a backoff retry.
            start(7, 210.0),
            ev(
                8,
                240.0,
                delta(Component::RadioTx, 30.0),
                TraceEventKind::TxWindow {
                    bytes: 64,
                    airtime: SimTime::from_nanos(30.0),
                    retransmit: false,
                },
            ),
            ev(
                9,
                300.0,
                delta(Component::Leakage, 6.0),
                TraceEventKind::RetryAttempt {
                    attempt: 1,
                    backoff: SimTime::from_nanos(60.0),
                },
            ),
            ev(
                10,
                340.0,
                delta(Component::RadioTx, 45.0),
                TraceEventKind::TxWindow {
                    bytes: 64,
                    airtime: SimTime::from_nanos(30.0),
                    retransmit: true,
                },
            ),
            ev(
                11,
                400.0,
                delta(Component::RadioRx, 25.0),
                TraceEventKind::RxWindow {
                    bytes: 16,
                    airtime: SimTime::from_nanos(20.0),
                },
            ),
            ev(
                12,
                410.0,
                delta(Component::Core, 4.0),
                TraceEventKind::InvocationEnd {
                    mode: "remote".into(),
                    energy: Energy::from_nanojoules(110.0),
                    time: SimTime::from_nanos(200.0),
                    instructions: 2_000,
                },
            ),
        ]
    }

    #[test]
    fn download_windows_nest_inside_compile_frame() {
        let p = TraceProfile::fold(&synthetic_stream());
        let tx_in_compile: Vec<String> = [
            "fe::Main.integrate",
            "local/L2",
            "compile-L2-download",
            "tx-window",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cell = p.cells.get(&tx_in_compile).expect("nested tx cell");
        assert_eq!(cell.energy[Component::RadioTx].nanojoules(), 40.0);
        // The remote invocation's tx windows are NOT under a compile.
        let tx_remote: Vec<String> = ["fe::Main.integrate", "remote", "tx-window"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cell = p.cells.get(&tx_remote).expect("remote tx cell");
        assert_eq!(cell.energy[Component::RadioTx].nanojoules(), 75.0);
        assert_eq!(cell.events, 2);
    }

    #[test]
    fn profile_telescopes_to_stream_totals() {
        let events = synthetic_stream();
        let p = TraceProfile::fold(&events);
        let mut expected = EnergyBreakdown::new();
        for e in &events {
            expected += e.delta;
        }
        p.reconcile(&expected, 0.0).expect("exact reconciliation");
        assert_eq!(p.invocations(), 2);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.events(), events.len() as u64);
        assert!((p.total_time().nanos() - 410.0).abs() < 1e-12);
        // A perturbed expectation is rejected.
        let mut wrong = expected;
        wrong.charge(Component::Core, Energy::from_nanojoules(5000.0));
        assert!(p.reconcile(&wrong, 1e-9).is_err());
    }

    #[test]
    fn rollup_totals_cover_leaf_self_weights() {
        let p = TraceProfile::fold(&synthetic_stream());
        let rollup = p.rollup();
        let method_total = rollup
            .get(&vec!["fe::Main.integrate".to_string()])
            .expect("method prefix");
        assert!(
            (method_total.energy.total().nanojoules() - p.total().total().nanojoules()).abs()
                < 1e-9
        );
        let compile_total = rollup
            .get(
                &["fe::Main.integrate", "local/L2", "compile-L2-download"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
            )
            .expect("compile prefix");
        // Self (2 start + 3 end) + nested tx 40 + rx 60.
        assert_eq!(compile_total.energy.total().nanojoules(), 105.0);
    }

    #[test]
    fn collapsed_stack_golden() {
        let p = TraceProfile::fold(&synthetic_stream());
        let expected = "\
fe::Main.integrate;local/L2;compile-L2-download 5
fe::Main.integrate;local/L2;compile-L2-download;rx-window 60
fe::Main.integrate;local/L2;compile-L2-download;tx-window 40
fe::Main.integrate;local/L2;decision 5
fe::Main.integrate;local/L2;execute 250
fe::Main.integrate;local/L2;start 1
fe::Main.integrate;remote;execute 4
fe::Main.integrate;remote;retry-attempt 6
fe::Main.integrate;remote;rx-window 25
fe::Main.integrate;remote;start 1
fe::Main.integrate;remote;tx-window 75
";
        assert_eq!(p.collapsed(CollapseWeight::EnergyNanojoules), expected);
        let time_weighted = p.collapsed(CollapseWeight::TimeNanos);
        assert!(time_weighted.contains("fe::Main.integrate;local/L2;execute 100"));
    }

    #[test]
    fn truncated_stream_flushes_under_unknown_mode() {
        let mut events = synthetic_stream();
        events.truncate(10); // cut inside the second invocation
        let p = TraceProfile::fold(&events);
        let mut expected = EnergyBreakdown::new();
        for e in &events {
            expected += e.delta;
        }
        p.reconcile(&expected, 0.0).expect("still conserves");
        assert!(p
            .cells()
            .any(|(stack, _)| stack.get(1).map(String::as_str) == Some(UNKNOWN_MODE)));
    }

    /// An alert after the shard's last `invocation-end`.
    fn alert(seq: u64, at_ns: f64) -> TraceEvent {
        ev(
            seq,
            at_ns,
            EnergyBreakdown::new(),
            TraceEventKind::Alert {
                monitor: "retry-storm".into(),
                severity: "warn".into(),
                message: "end of run".into(),
            },
        )
    }

    #[test]
    fn events_after_the_last_invocation_flush_under_after_run_mode() {
        let mut events = synthetic_stream();
        let n = events.len() as u64;
        events.push(alert(n, 500.0));
        events.push(alert(n + 1, 510.0));
        // A second shard, whose tail follows its last invocation too.
        events.extend(synthetic_stream());
        events.push(alert(n, 500.0));
        let p = TraceProfile::fold(&events);
        let mut expected = EnergyBreakdown::new();
        for e in &events {
            expected += e.delta;
        }
        p.reconcile(&expected, 0.0).expect("still conserves");
        let modes: Vec<&str> = p.cells().map(|(stack, _)| stack[1].as_str()).collect();
        assert!(!modes.contains(&UNKNOWN_MODE), "{modes:?}");
        let after: Vec<u64> = p
            .cells()
            .filter(|(stack, _)| stack[1] == AFTER_RUN_MODE)
            .map(|(_, c)| c.events)
            .collect();
        assert_eq!(after, [3], "{modes:?}");
    }

    #[test]
    fn after_run_events_belong_to_no_method() {
        // The last invocation's method must not claim the alerts that
        // follow its end.
        let mut events = synthetic_stream();
        let n = events.len() as u64;
        events.push(alert(n, 500.0));
        events.push(alert(n + 1, 510.0));
        let p = TraceProfile::fold(&events);
        let after: Vec<(&str, u64)> = p
            .cells()
            .filter(|(stack, _)| stack[1] == AFTER_RUN_MODE)
            .map(|(stack, c)| (stack[0].as_str(), c.events))
            .collect();
        assert_eq!(after, [(NO_METHOD, 2)]);
    }

    #[test]
    fn a_started_invocation_without_its_end_stays_truncated() {
        // Alerts after the last end, then an invocation that never ends:
        // everything after the end is one truncated tail.
        let mut events = synthetic_stream();
        let n = events.len() as u64;
        events.push(alert(n, 500.0));
        events.extend(synthetic_stream().into_iter().take(3).map(|mut e| {
            e.seq += n + 1;
            e
        }));
        let p = TraceProfile::fold(&events);
        let modes: Vec<&str> = p.cells().map(|(stack, _)| stack[1].as_str()).collect();
        assert!(modes.contains(&UNKNOWN_MODE), "{modes:?}");
        assert!(!modes.contains(&AFTER_RUN_MODE), "{modes:?}");
    }

    #[test]
    fn multi_shard_streams_fold_per_shard() {
        let mut events = synthetic_stream();
        let second = synthetic_stream();
        events.extend(second);
        let p = TraceProfile::fold(&events);
        assert_eq!(p.shards(), 2);
        assert_eq!(p.invocations(), 4);
        // Time telescopes per shard: 410 + 410.
        assert!((p.total_time().nanos() - 820.0).abs() < 1e-12);
    }

    #[test]
    fn method_mode_rows_are_hottest_first_and_sum_to_total() {
        let p = TraceProfile::fold(&synthetic_stream());
        let rows = p.method_mode_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].stats.energy.total() >= rows[1].stats.energy.total());
        let sum: f64 = rows
            .iter()
            .map(|r| r.stats.energy.total().nanojoules())
            .sum();
        assert!((sum - p.total().total().nanojoules()).abs() < 1e-9);
        let table = p.render_method_table(10);
        assert!(table.contains("TOTAL"));
        assert!(p.render_hot_frames(5).contains("frame stack"));
    }

    #[test]
    fn profile_json_is_parseable_and_complete() {
        let p = TraceProfile::fold(&synthetic_stream());
        let doc = p.to_json();
        let back = Json::parse(&doc.render_pretty()).expect("parses");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("jem-profile/v1")
        );
        assert_eq!(back.get("invocations").and_then(Json::as_u64), Some(2));
        assert_eq!(
            back.get("cells")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(p.cells.len())
        );
    }
}
