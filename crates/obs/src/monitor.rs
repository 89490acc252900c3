//! Online invariant monitors: streaming checks that run *while* the
//! simulation executes, not after it.
//!
//! A [`MonitorSink`] tees any [`TraceSink`]: every event passes
//! through unchanged and is simultaneously evaluated against a set of
//! streaming invariants. Violations inject structured
//! [`TraceEventKind::Alert`] events into the trace (zero energy delta,
//! so the conservation ledger stays intact) and accumulate into a
//! final [`HealthReport`].
//!
//! Invariants:
//!
//! * **conservation** — per invocation, the event deltas after
//!   `invocation-start` must telescope to the `invocation-end` energy
//!   (the runtime checkpoints *after* emitting the start event, so the
//!   start delta belongs to the previous invocation's tail);
//! * **negative-delta** — no event may carry a negative component
//!   delta: cumulative meters are monotone, so a correctly-derived
//!   delta can never go below zero;
//! * **retry-storm** — retries across a sliding invocation window
//!   above a threshold;
//! * **breaker-flap** — breaker transitions across a sliding
//!   invocation window above a threshold;
//! * **predictor-regret** — once enough decisions have been observed,
//!   the running mean relative error between the chosen candidate's
//!   predicted energy and the invocation's actual energy must stay
//!   under a threshold (only invocations that executed in the chosen
//!   mode count — fallbacks measure resilience, not prediction);
//! * **regret-trend** — the series-driven twin of predictor-regret:
//!   compares the mean relative prediction error of the most recent
//!   decision window against the window before it and fires when the
//!   error is *worsening* past a factor — a converged predictor that
//!   starts diverging (channel drift, faults) trips this long before
//!   the running mean crosses the absolute regret threshold;
//! * **energy-rate-anomaly** — tracks the per-invocation energy rate
//!   (invocation energy over invocation sim-time, the same derived
//!   series the `.jts` timeline exports) across a sliding window and
//!   fires when one invocation's rate jumps past a multiple of the
//!   window mean — the signature of retry storms burning PA power or
//!   a mispredicted offload under a degraded channel.
//!
//! Monitoring draws nothing from the RNG and never mutates the
//! simulation: monitored and unmonitored runs are bit-identical in
//! results, and on an alert-free run the monitored *trace* is
//! byte-identical too (sequence numbers are only rewritten after the
//! first injected alert). Both properties are enforced by tests in
//! `crates/core`.

use crate::json::Json;
use crate::trace::{TraceEvent, TraceEventKind, TraceSink};
use jem_energy::EnergyBreakdown;
use std::collections::{BTreeMap, VecDeque};

/// Thresholds for the streaming invariants. Defaults are lenient
/// enough that clean paper-scenario runs never alert (zero retries,
/// zero transitions, converged predictor) while real pathologies still
/// fire; tighten them for watchdog tests.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Relative tolerance of the per-invocation conservation check
    /// (absorbs only float summation-order noise).
    pub conservation_rel_tol: f64,
    /// Sliding window (in invocations) of the retry-storm watchdog.
    pub retry_window: u64,
    /// Retries tolerated within the window before alerting.
    pub retry_max: u64,
    /// Sliding window (in invocations) of the breaker-flap watchdog.
    pub flap_window: u64,
    /// Breaker transitions tolerated within the window.
    pub flap_max: u64,
    /// Decisions observed before the regret check arms.
    pub regret_min_decisions: u64,
    /// Maximum tolerated mean relative error of chosen-candidate
    /// predictions.
    pub regret_mean_threshold: f64,
    /// Followed decisions per comparison window of the regret-trend
    /// watchdog (it compares two adjacent windows of this size).
    pub trend_window: u64,
    /// Fire when the recent window's mean relative error exceeds the
    /// prior window's mean by this factor …
    pub trend_factor: f64,
    /// … and is at least this large in absolute terms (a converged
    /// predictor tripling a near-zero error is not a pathology).
    pub trend_min_err: f64,
    /// Sliding window (in completed invocations) of the
    /// energy-rate-anomaly watchdog.
    pub rate_window: u64,
    /// Fire when an invocation's energy rate (nJ/ns) exceeds the
    /// window mean by this factor.
    pub rate_factor: f64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            conservation_rel_tol: 1e-6,
            retry_window: 50,
            retry_max: 25,
            flap_window: 50,
            flap_max: 12,
            regret_min_decisions: 50,
            regret_mean_threshold: 1.0,
            trend_window: 25,
            trend_factor: 4.0,
            trend_min_err: 0.5,
            rate_window: 30,
            rate_factor: 8.0,
        }
    }
}

/// One fired alert, as recorded in the health report.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Which invariant fired.
    pub monitor: String,
    /// "warn" or "critical".
    pub severity: String,
    /// Human-readable diagnostic.
    pub message: String,
    /// Invocation the triggering event belonged to.
    pub invocation: u64,
    /// Sim-time of the triggering event (ns).
    pub at_ns: f64,
}

/// Alerts retained verbatim in the report; beyond this only counts
/// grow, so a pathological run cannot balloon the report.
const REPORT_ALERT_CAP: usize = 64;

/// The end-of-run verdict of a monitored stream.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Fired alerts, stream order, capped at `REPORT_ALERT_CAP`.
    pub alerts: Vec<AlertRecord>,
    /// Total alerts per monitor (uncapped).
    pub counts: BTreeMap<String, u64>,
    /// Total alerts fired (uncapped).
    pub total_alerts: u64,
    /// Events observed.
    pub events: u64,
    /// Invocations observed.
    pub invocations: u64,
    /// Shards observed.
    pub shards: u64,
}

impl HealthReport {
    /// Whether the run finished without a single alert.
    pub fn healthy(&self) -> bool {
        self.total_alerts == 0
    }

    /// Deterministic text rendering (CI greps the first line).
    pub fn render_text(&self) -> String {
        let mut lines = Vec::new();
        if self.healthy() {
            lines.push(format!(
                "health: OK — 0 alerts over {} invocations / {} events / {} shards",
                self.invocations, self.events, self.shards
            ));
        } else {
            lines.push(format!(
                "health: ALERT — {} alerts over {} invocations / {} events / {} shards",
                self.total_alerts, self.invocations, self.events, self.shards
            ));
            for (monitor, n) in &self.counts {
                lines.push(format!("  {monitor}: {n}"));
            }
            for a in &self.alerts {
                lines.push(format!(
                    "  [{}] {} @ invocation {} t={:.1}ns: {}",
                    a.severity, a.monitor, a.invocation, a.at_ns, a.message
                ));
            }
            if self.total_alerts as usize > self.alerts.len() {
                lines.push(format!(
                    "  … and {} more alerts",
                    self.total_alerts as usize - self.alerts.len()
                ));
            }
        }
        lines.join("\n")
    }

    /// Machine-readable report document.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::object();
        for (monitor, n) in &self.counts {
            counts = counts.with(monitor.as_str(), *n);
        }
        let alerts: Vec<Json> = self
            .alerts
            .iter()
            .map(|a| {
                Json::object()
                    .with("monitor", a.monitor.as_str())
                    .with("severity", a.severity.as_str())
                    .with("message", a.message.as_str())
                    .with("invocation", a.invocation)
                    .with("t_ns", a.at_ns)
            })
            .collect();
        Json::object()
            .with("schema", "jem-health/v1")
            .with("healthy", self.healthy())
            .with("total_alerts", self.total_alerts)
            .with("events", self.events)
            .with("invocations", self.invocations)
            .with("shards", self.shards)
            .with("counts", counts)
            .with("alerts", Json::Arr(alerts))
    }
}

/// Per-shard regret bookkeeping.
#[derive(Debug, Clone, Default)]
struct RegretState {
    /// Chosen mode + predicted nJ of the most recent decision.
    pending: Option<(String, f64)>,
    decisions: u64,
    rel_err_sum: f64,
    fired: bool,
}

/// The pure streaming evaluator: feed events, collect alerts. Holds a
/// few counters and two sliding windows — O(window) memory, no event
/// buffering.
#[derive(Debug)]
pub struct Monitor {
    config: MonitorConfig,
    report: HealthReport,
    /// Conservation accumulator: Some(sum) once the current
    /// invocation's start has been seen.
    inv_sum_nj: Option<f64>,
    current_invocation: u64,
    /// (invocation, retries) per recent invocation with retries.
    retry_window: VecDeque<(u64, u64)>,
    retry_cooldown_until: u64,
    /// Invocation numbers of recent breaker transitions.
    flap_window: VecDeque<u64>,
    flap_cooldown_until: u64,
    regret: RegretState,
    /// Relative errors of recent followed decisions (regret-trend),
    /// capped at two comparison windows.
    trend_errs: VecDeque<f64>,
    trend_cooldown_until: u64,
    /// Energy rates (nJ/ns) of recent completed invocations.
    rate_window: VecDeque<f64>,
    rate_cooldown_until: u64,
}

impl Monitor {
    /// A monitor with the given thresholds.
    pub fn new(config: MonitorConfig) -> Monitor {
        Monitor {
            config,
            report: HealthReport::default(),
            inv_sum_nj: None,
            current_invocation: 0,
            retry_window: VecDeque::new(),
            retry_cooldown_until: 0,
            flap_window: VecDeque::new(),
            flap_cooldown_until: 0,
            regret: RegretState::default(),
            trend_errs: VecDeque::new(),
            trend_cooldown_until: 0,
            rate_window: VecDeque::new(),
            rate_cooldown_until: 0,
        }
    }

    /// Reset per-run state at a shard boundary (each shard is an
    /// independent run; report totals keep accumulating).
    pub fn begin_shard(&mut self) {
        self.report.shards += 1;
        self.inv_sum_nj = None;
        self.current_invocation = 0;
        self.retry_window.clear();
        self.retry_cooldown_until = 0;
        self.flap_window.clear();
        self.flap_cooldown_until = 0;
        self.regret = RegretState::default();
        self.trend_errs.clear();
        self.trend_cooldown_until = 0;
        self.rate_window.clear();
        self.rate_cooldown_until = 0;
    }

    /// Evaluate one event; returns the alerts it fired (usually none).
    pub fn observe(&mut self, ev: &TraceEvent) -> Vec<AlertRecord> {
        if self.report.shards == 0 {
            self.begin_shard();
        }
        self.report.events += 1;
        let mut alerts = Vec::new();
        if ev.invocation != self.current_invocation {
            self.current_invocation = ev.invocation;
            self.report.invocations += 1;
        }
        // Non-negative component deltas: exact check — cumulative
        // meters are monotone, so any negative delta is a real bug.
        for (c, e) in ev.delta.iter() {
            if e.nanojoules() < 0.0 {
                alerts.push(self.fire(
                    ev,
                    "negative-delta",
                    "critical",
                    format!(
                        "component '{}' delta {:.6} nJ < 0 at event kind '{}'",
                        c.name(),
                        e.nanojoules(),
                        ev.kind.name()
                    ),
                ));
            }
        }
        if let Some(sum) = self.inv_sum_nj.as_mut() {
            *sum += ev.delta.total().nanojoules();
        }
        match &ev.kind {
            TraceEventKind::InvocationStart { .. } => {
                // The runtime checkpoints after emitting this event,
                // so the conservation sum starts here at zero.
                self.inv_sum_nj = Some(0.0);
            }
            TraceEventKind::DecisionEvaluated {
                interpret_nj,
                remote_nj,
                local_nj,
                chosen,
                ..
            } => {
                let predicted = match chosen.as_str() {
                    "interpret" => Some(*interpret_nj),
                    "remote" => Some(*remote_nj),
                    "local/L1" => Some(local_nj[0]),
                    "local/L2" => Some(local_nj[1]),
                    "local/L3" => Some(local_nj[2]),
                    _ => None,
                };
                if let Some(p) = predicted {
                    self.regret.pending = Some((chosen.clone(), p));
                }
            }
            TraceEventKind::RetryAttempt { .. } => {
                match self.retry_window.back_mut() {
                    Some((inv, n)) if *inv == ev.invocation => *n += 1,
                    _ => self.retry_window.push_back((ev.invocation, 1)),
                }
                while let Some(&(inv, _)) = self.retry_window.front() {
                    if inv + self.config.retry_window <= ev.invocation {
                        self.retry_window.pop_front();
                    } else {
                        break;
                    }
                }
                let total: u64 = self.retry_window.iter().map(|&(_, n)| n).sum();
                if total > self.config.retry_max && ev.invocation >= self.retry_cooldown_until {
                    // One alert per window span, not per retry.
                    self.retry_cooldown_until = ev.invocation + self.config.retry_window;
                    alerts.push(self.fire(
                        ev,
                        "retry-storm",
                        "warn",
                        format!(
                            "{} retries within {} invocations (max {})",
                            total, self.config.retry_window, self.config.retry_max
                        ),
                    ));
                }
            }
            TraceEventKind::BreakerTransition { from, to } => {
                self.flap_window.push_back(ev.invocation);
                while let Some(&inv) = self.flap_window.front() {
                    if inv + self.config.flap_window <= ev.invocation {
                        self.flap_window.pop_front();
                    } else {
                        break;
                    }
                }
                let total = self.flap_window.len() as u64;
                if total > self.config.flap_max && ev.invocation >= self.flap_cooldown_until {
                    self.flap_cooldown_until = ev.invocation + self.config.flap_window;
                    alerts.push(self.fire(
                        ev,
                        "breaker-flap",
                        "warn",
                        format!(
                            "{} breaker transitions ({from}->{to} latest) within {} invocations (max {})",
                            total, self.config.flap_window, self.config.flap_max
                        ),
                    ));
                }
            }
            TraceEventKind::InvocationEnd {
                mode, energy, time, ..
            } => {
                if let Some(sum) = self.inv_sum_nj.take() {
                    let want = energy.nanojoules();
                    let tol = self.config.conservation_rel_tol * want.abs().max(1.0);
                    if (sum - want).abs() > tol {
                        alerts.push(self.fire(
                            ev,
                            "conservation",
                            "critical",
                            format!(
                                "invocation deltas sum to {sum:.6} nJ but invocation-end declares {want:.6} nJ (tol {tol:.3e})"
                            ),
                        ));
                    }
                }
                if let Some((chosen, predicted)) = self.regret.pending.take() {
                    // Only score decisions the runtime actually
                    // followed — a fallback measures resilience.
                    if chosen == *mode {
                        let actual = energy.nanojoules();
                        let rel_err = (predicted - actual).abs() / actual.abs().max(1.0);
                        self.regret.decisions += 1;
                        self.regret.rel_err_sum += rel_err;
                        let mean = self.regret.rel_err_sum / self.regret.decisions as f64;
                        if self.regret.decisions >= self.config.regret_min_decisions
                            && mean > self.config.regret_mean_threshold
                            && !self.regret.fired
                        {
                            self.regret.fired = true;
                            alerts.push(self.fire(
                                ev,
                                "predictor-regret",
                                "warn",
                                format!(
                                    "mean relative prediction error {:.3} over {} followed decisions (max {:.3})",
                                    mean, self.regret.decisions, self.config.regret_mean_threshold
                                ),
                            ));
                        }
                        // Regret trend: adjacent-window comparison of
                        // the same error series the timeline exports.
                        let w = self.config.trend_window as usize;
                        if w > 0 {
                            self.trend_errs.push_back(rel_err);
                            while self.trend_errs.len() > 2 * w {
                                self.trend_errs.pop_front();
                            }
                            if self.trend_errs.len() == 2 * w
                                && ev.invocation >= self.trend_cooldown_until
                            {
                                let prior = self.trend_errs.iter().take(w).sum::<f64>() / w as f64;
                                let recent = self.trend_errs.iter().skip(w).sum::<f64>() / w as f64;
                                if recent > self.config.trend_min_err
                                    && recent > self.config.trend_factor * prior
                                {
                                    self.trend_cooldown_until =
                                        ev.invocation + self.config.trend_window;
                                    alerts.push(self.fire(
                                        ev,
                                        "regret-trend",
                                        "warn",
                                        format!(
                                            "mean relative prediction error rose from {prior:.3} to {recent:.3} \
                                             across adjacent {w}-decision windows (max factor {:.1})",
                                            self.config.trend_factor
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
                // Energy-rate anomaly: per-invocation energy rate
                // (nJ/ns ≡ W) against the sliding-window mean.
                let t_ns = time.nanos();
                let w = self.config.rate_window as usize;
                if t_ns > 0.0 && w > 0 {
                    let rate = energy.nanojoules() / t_ns;
                    if self.rate_window.len() >= w && ev.invocation >= self.rate_cooldown_until {
                        let mean =
                            self.rate_window.iter().sum::<f64>() / self.rate_window.len() as f64;
                        if mean > 0.0 && rate > self.config.rate_factor * mean {
                            self.rate_cooldown_until = ev.invocation + self.config.rate_window;
                            alerts.push(self.fire(
                                ev,
                                "energy-rate-anomaly",
                                "warn",
                                format!(
                                    "invocation energy rate {rate:.6} nJ/ns is {:.1}x the \
                                     {w}-invocation mean {mean:.6} (max factor {:.1})",
                                    rate / mean,
                                    self.config.rate_factor
                                ),
                            ));
                        }
                    }
                    self.rate_window.push_back(rate);
                    while self.rate_window.len() > w {
                        self.rate_window.pop_front();
                    }
                }
            }
            _ => {}
        }
        alerts
    }

    fn fire(
        &mut self,
        ev: &TraceEvent,
        monitor: &str,
        severity: &str,
        message: String,
    ) -> AlertRecord {
        let record = AlertRecord {
            monitor: monitor.to_string(),
            severity: severity.to_string(),
            message,
            invocation: ev.invocation,
            at_ns: ev.at.nanos(),
        };
        self.report.total_alerts += 1;
        *self.report.counts.entry(monitor.to_string()).or_default() += 1;
        if self.report.alerts.len() < REPORT_ALERT_CAP {
            self.report.alerts.push(record.clone());
        }
        record
    }

    /// Consume the monitor, yielding the final report.
    pub fn finish(self) -> HealthReport {
        self.report
    }
}

/// The sink-agnostic tee core: forwards events to any sink, injecting
/// alert events after their trigger. Sequence numbers are passed
/// through untouched until the first alert of a shard; after that,
/// subsequent events shift up so `seq` stays dense and
/// shard-detection (`seq` restart) still works. On an alert-free run
/// the output stream is byte-identical to the input.
#[derive(Debug)]
pub struct MonitorTee {
    monitor: Monitor,
    prev_in_seq: Option<u64>,
    seq_offset: u64,
}

impl MonitorTee {
    /// A tee running `config`'s invariants.
    pub fn new(config: MonitorConfig) -> MonitorTee {
        MonitorTee {
            monitor: Monitor::new(config),
            prev_in_seq: None,
            seq_offset: 0,
        }
    }

    /// Reset at a shard boundary: the input's `seq` restarted, so a new
    /// run streams through the tee (a sweep streams one run per unit).
    fn begin_shard(&mut self) {
        self.monitor.begin_shard();
        self.prev_in_seq = None;
        self.seq_offset = 0;
    }

    /// Observe `ev`, forward it (and any fired alerts) to `out`.
    pub fn process(&mut self, ev: TraceEvent, out: &mut dyn TraceSink) {
        if self.prev_in_seq.is_some_and(|prev| ev.seq <= prev) {
            self.begin_shard();
        }
        self.prev_in_seq = Some(ev.seq);
        let alerts = self.monitor.observe(&ev);
        let base_seq = ev.seq + self.seq_offset;
        let (invocation, ordinal, at) = (ev.invocation, ev.ordinal, ev.at);
        let mut forwarded = ev;
        forwarded.seq = base_seq;
        out.record(forwarded);
        for (i, alert) in alerts.iter().enumerate() {
            out.record(TraceEvent {
                seq: base_seq + 1 + i as u64,
                invocation,
                ordinal: ordinal.saturating_add(1),
                at,
                delta: EnergyBreakdown::new(),
                kind: TraceEventKind::Alert {
                    monitor: alert.monitor.clone(),
                    severity: alert.severity.clone(),
                    message: alert.message.clone(),
                },
            });
        }
        self.seq_offset += alerts.len() as u64;
    }

    /// Finish monitoring and yield the health report.
    pub fn finish(self) -> HealthReport {
        self.monitor.finish()
    }
}

/// A [`TraceSink`] adapter over [`MonitorTee`]: wrap any sink, run a
/// traced scenario against it, then call [`MonitorSink::finish`].
pub struct MonitorSink<'a> {
    tee: MonitorTee,
    inner: &'a mut dyn TraceSink,
}

impl<'a> MonitorSink<'a> {
    /// Monitor `inner` with `config`'s thresholds.
    pub fn new(inner: &'a mut dyn TraceSink, config: MonitorConfig) -> MonitorSink<'a> {
        MonitorSink {
            tee: MonitorTee::new(config),
            inner,
        }
    }

    /// Finish monitoring and yield the health report.
    pub fn finish(self) -> HealthReport {
        self.tee.finish()
    }
}

impl TraceSink for MonitorSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record(&mut self, event: TraceEvent) {
        self.tee.process(event, self.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RingSink;
    use jem_energy::{Component, Energy, SimTime};

    fn delta(c: Component, nj: f64) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.charge(c, Energy::from_nanojoules(nj));
        b
    }

    fn ev(
        seq: u64,
        invocation: u64,
        ordinal: u64,
        d: EnergyBreakdown,
        kind: TraceEventKind,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            invocation,
            ordinal,
            at: SimTime::from_nanos(seq as f64 * 10.0),
            delta: d,
            kind,
        }
    }

    fn start(seq: u64, invocation: u64) -> TraceEvent {
        ev(
            seq,
            invocation,
            0,
            delta(Component::Core, 1.0),
            TraceEventKind::InvocationStart {
                strategy: "AA".into(),
                method: "fe::Main.integrate".into(),
                size: 64,
                true_class: "C3".into(),
                chosen_class: "C3".into(),
            },
        )
    }

    fn end(seq: u64, invocation: u64, ordinal: u64, core_nj: f64, declared_nj: f64) -> TraceEvent {
        ev(
            seq,
            invocation,
            ordinal,
            delta(Component::Core, core_nj),
            TraceEventKind::InvocationEnd {
                mode: "interpret".into(),
                energy: Energy::from_nanojoules(declared_nj),
                time: SimTime::from_nanos(10.0),
                instructions: 100 * invocation,
            },
        )
    }

    #[test]
    fn clean_invocation_produces_no_alerts() {
        let mut m = Monitor::new(MonitorConfig::default());
        assert!(m.observe(&start(0, 1)).is_empty());
        assert!(m.observe(&end(1, 1, 1, 50.0, 50.0)).is_empty());
        let report = m.finish();
        assert!(report.healthy());
        assert_eq!(report.invocations, 1);
        assert_eq!(report.events, 2);
        assert!(report.render_text().starts_with("health: OK"));
    }

    #[test]
    fn conservation_violation_fires_critical() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.observe(&start(0, 1));
        let alerts = m.observe(&end(1, 1, 1, 50.0, 99.0));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].monitor, "conservation");
        assert_eq!(alerts[0].severity, "critical");
        assert!(!m.finish().healthy());
    }

    #[test]
    fn start_delta_is_excluded_from_conservation() {
        // The start event's own delta (pre-checkpoint energy) must not
        // count against the invocation's declared energy.
        let mut m = Monitor::new(MonitorConfig::default());
        let mut s = start(0, 1);
        s.delta = delta(Component::Core, 1e9);
        assert!(m.observe(&s).is_empty());
        assert!(m.observe(&end(1, 1, 1, 50.0, 50.0)).is_empty());
    }

    #[test]
    fn negative_component_delta_fires() {
        let mut m = Monitor::new(MonitorConfig::default());
        let alerts = m.observe(&ev(
            0,
            1,
            0,
            delta(Component::Dram, -0.5),
            TraceEventKind::EarlyWake {
                wait: SimTime::from_nanos(1.0),
            },
        ));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].monitor, "negative-delta");
    }

    #[test]
    fn retry_storm_fires_once_per_window() {
        let config = MonitorConfig {
            retry_window: 10,
            retry_max: 2,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(config);
        let mut fired = 0;
        for i in 0..6u64 {
            let alerts = m.observe(&ev(
                i,
                i + 1,
                1,
                delta(Component::Leakage, 1.0),
                TraceEventKind::RetryAttempt {
                    attempt: 1,
                    backoff: SimTime::from_nanos(5.0),
                },
            ));
            fired += alerts.len();
        }
        // 3rd retry crosses the threshold; cooldown suppresses the
        // rest of the window.
        assert_eq!(fired, 1);
        let report = m.finish();
        assert_eq!(report.counts.get("retry-storm"), Some(&1));
    }

    #[test]
    fn breaker_flap_fires_and_old_transitions_age_out() {
        let config = MonitorConfig {
            flap_window: 5,
            flap_max: 2,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(config);
        let transition = |seq, inv| {
            ev(
                seq,
                inv,
                0,
                EnergyBreakdown::new(),
                TraceEventKind::BreakerTransition {
                    from: "closed".into(),
                    to: "open".into(),
                },
            )
        };
        // Two transitions far apart: no alert (window slides past).
        assert!(m.observe(&transition(0, 1)).is_empty());
        assert!(m.observe(&transition(1, 20)).is_empty());
        // Three within a window: alert.
        assert!(m.observe(&transition(2, 21)).is_empty());
        let alerts = m.observe(&transition(3, 22));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].monitor, "breaker-flap");
    }

    #[test]
    fn regret_fires_only_after_min_decisions_and_when_followed() {
        let config = MonitorConfig {
            regret_min_decisions: 3,
            regret_mean_threshold: 0.5,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(config);
        let decision = |seq, inv, chosen: &str| {
            ev(
                seq,
                inv,
                1,
                EnergyBreakdown::new(),
                TraceEventKind::DecisionEvaluated {
                    k: inv,
                    s_bar: 64.0,
                    pa_bar_w: 0.4,
                    interpret_nj: 1000.0,
                    remote_nj: 500.0,
                    local_nj: [800.0, 700.0, 600.0],
                    chosen: chosen.into(),
                    remote_allowed: true,
                },
            )
        };
        let mut fired = 0;
        let mut seq = 0;
        for inv in 1..=4u64 {
            m.observe(&start(seq, inv));
            fired += m.observe(&decision(seq + 1, inv, "interpret")).len();
            // Actual is 10x the prediction: rel error ~0.9 each time.
            let e = ev(
                seq + 2,
                inv,
                2,
                delta(Component::Core, 10_000.0),
                TraceEventKind::InvocationEnd {
                    mode: "interpret".into(),
                    energy: Energy::from_nanojoules(10_000.0),
                    time: SimTime::from_nanos(10.0),
                    instructions: 100 * inv,
                },
            );
            fired += m.observe(&e).len();
            seq += 3;
        }
        assert_eq!(fired, 1, "fires exactly once after the 3rd decision");
        // Fallback invocations (mode != chosen) never count.
        let mut m2 = Monitor::new(MonitorConfig {
            regret_min_decisions: 1,
            regret_mean_threshold: 0.1,
            ..MonitorConfig::default()
        });
        m2.observe(&start(0, 1));
        m2.observe(&decision(1, 1, "remote"));
        let e = ev(
            2,
            1,
            2,
            delta(Component::Core, 10_000.0),
            TraceEventKind::InvocationEnd {
                mode: "local/L3".into(), // fell back
                energy: Energy::from_nanojoules(10_000.0),
                time: SimTime::from_nanos(10.0),
                instructions: 100,
            },
        );
        assert!(m2.observe(&e).is_empty());
        assert!(m2.finish().healthy());
    }

    #[test]
    fn tee_is_transparent_on_clean_streams() {
        let events = vec![start(0, 1), end(1, 1, 1, 50.0, 50.0)];
        let mut plain = RingSink::new(16);
        let mut monitored = RingSink::new(16);
        for e in &events {
            plain.record(e.clone());
        }
        let mut tee = MonitorTee::new(MonitorConfig::default());
        for e in &events {
            tee.process(e.clone(), &mut monitored);
        }
        assert!(tee.finish().healthy());
        assert_eq!(plain.into_events(), monitored.into_events());
    }

    #[test]
    fn tee_injects_alert_events_with_dense_seq() {
        let events = vec![start(0, 1), end(1, 1, 1, 50.0, 99.0), start(2, 2), {
            let mut e = end(3, 2, 1, 10.0, 10.0);
            e.at = SimTime::from_nanos(40.0);
            e
        }];
        let mut out = RingSink::new(16);
        let mut tee = MonitorTee::new(MonitorConfig::default());
        for e in &events {
            tee.process(e.clone(), &mut out);
        }
        let report = tee.finish();
        assert_eq!(report.total_alerts, 1);
        let got = out.into_events();
        assert_eq!(got.len(), 5);
        // Dense seq: 0,1,2(alert),3,4 — no restart introduced.
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
        assert!(matches!(got[2].kind, TraceEventKind::Alert { .. }));
        assert_eq!(got[2].delta.total().nanojoules(), 0.0);
        assert_eq!(got[2].invocation, 1);
    }

    #[test]
    fn tee_resets_on_shard_restart() {
        // Two shards, each starting at seq 0; the second is clean and
        // must not inherit the first's offset or windows.
        let mut out = RingSink::new(32);
        let mut tee = MonitorTee::new(MonitorConfig::default());
        tee.process(start(0, 1), &mut out);
        tee.process(end(1, 1, 1, 50.0, 99.0), &mut out); // alert
        tee.process(start(0, 1), &mut out); // seq restart: new shard
        tee.process(end(1, 1, 1, 50.0, 50.0), &mut out);
        let report = tee.finish();
        assert_eq!(report.shards, 2);
        assert_eq!(report.total_alerts, 1);
        let got = out.into_events();
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 0, 1]);
    }

    #[test]
    fn energy_rate_anomaly_fires_on_spike_not_on_steady_load() {
        let config = MonitorConfig {
            rate_window: 5,
            rate_factor: 3.0,
            ..MonitorConfig::default()
        };
        // Steady energy rate: never fires.
        let mut m = Monitor::new(config.clone());
        let mut seq = 0;
        for inv in 1..=20u64 {
            m.observe(&start(seq, inv));
            m.observe(&end(seq + 1, inv, 1, 100.0, 100.0));
            seq += 2;
        }
        assert!(m.finish().healthy());

        // One invocation spikes to 20x the window mean: fires once,
        // then the cooldown suppresses the rest of the window.
        let mut m = Monitor::new(config);
        let mut fired = 0;
        let mut seq = 0;
        for inv in 1..=12u64 {
            let nj = if inv >= 7 { 2000.0 } else { 100.0 };
            m.observe(&start(seq, inv));
            fired += m.observe(&end(seq + 1, inv, 1, nj, nj)).len();
            seq += 2;
        }
        assert_eq!(fired, 1, "spike fires exactly once inside the cooldown");
        let report = m.finish();
        assert_eq!(report.counts.get("energy-rate-anomaly"), Some(&1));
    }

    #[test]
    fn regret_trend_fires_when_prediction_error_worsens() {
        let config = MonitorConfig {
            trend_window: 3,
            trend_factor: 2.0,
            trend_min_err: 0.1,
            ..MonitorConfig::default()
        };
        let decision = |seq, inv| {
            ev(
                seq,
                inv,
                1,
                EnergyBreakdown::new(),
                TraceEventKind::DecisionEvaluated {
                    k: inv,
                    s_bar: 64.0,
                    pa_bar_w: 0.4,
                    interpret_nj: 1000.0,
                    remote_nj: 500.0,
                    local_nj: [800.0, 700.0, 600.0],
                    chosen: "interpret".into(),
                    remote_allowed: true,
                },
            )
        };
        // Converged predictor (error ~0) that suddenly degrades to a
        // large error: the adjacent-window comparison fires.
        let mut m = Monitor::new(config.clone());
        let mut fired = 0;
        let mut seq = 0;
        for inv in 1..=6u64 {
            let actual = if inv > 3 { 3000.0 } else { 1000.0 };
            m.observe(&start(seq, inv));
            m.observe(&decision(seq + 1, inv));
            fired += m.observe(&end(seq + 2, inv, 2, actual, actual)).len();
            seq += 3;
        }
        assert_eq!(fired, 1, "worsening trend fires once");
        let report = m.finish();
        assert_eq!(report.counts.get("regret-trend"), Some(&1));

        // A constantly-bad-but-stable predictor does not trend.
        let mut m = Monitor::new(config);
        let mut fired = 0;
        let mut seq = 0;
        for inv in 1..=12u64 {
            m.observe(&start(seq, inv));
            m.observe(&decision(seq + 1, inv));
            fired += m.observe(&end(seq + 2, inv, 2, 1400.0, 1400.0)).len();
            seq += 3;
        }
        assert_eq!(fired, 0, "stable error is regret, not a trend");
    }
}
