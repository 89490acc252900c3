//! Live run exposition: a dependency-free HTTP server over a
//! published snapshot of the running simulation.
//!
//! The design splits run state in two (the ROADMAP item-4 refactor):
//! the simulation keeps its private mutable state, and *publishes*
//! copies of derived observability state into a shared [`LiveState`].
//! Data flows strictly sim → server; nothing the server does (or any
//! client connected to it) can reach back into the simulation, which
//! is why a run with `--serve` stays bit-identical to one without —
//! the same invariant the tracing/monitoring/timeline layers already
//! hold, and it is test- and CI-enforced the same way.
//!
//! Endpoints (plain HTTP/1.1, one thread per connection, `GET` only):
//!
//! * `/metrics` — the last published Prometheus registry rendering,
//!   plus `jem_live_*` families derived from the event stream
//!   (decision mix, retries, breaker state, predictor error),
//! * `/health` — the live `jem-health/v1` document from an embedded
//!   [`Monitor`] fed with every published event,
//! * `/series?name=..[&window=a:b]` — windowed samples of one
//!   timeline series (same catalogue as `.jts` files; `a:b` in
//!   sim-ms), sampled by an embedded timeline `Sampler`,
//! * `/events` — a Server-Sent-Events tail of the trace event ring
//!   (`id:` is the publish ordinal, `data:` the event JSON).
//!
//! Memory is bounded: the event ring and per-segment sample buffers
//! cap out and drop the oldest entries (`/series` reports
//! `truncated` when that happened). The server threads are detached;
//! they die with the process.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::monitor::{Monitor, MonitorConfig};
use crate::timeline::{
    series_is_label, series_names, Sampler, N_SERIES, S_BREAKER, S_ERR, S_RETRIES,
};
use crate::trace::{TraceEvent, TraceEventKind};
use jem_energy::EnergyBreakdown;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Trace events kept for `/events` late joiners.
const EVENT_RING: usize = 1024;
/// Samples kept per segment for `/series` windows.
const SERIES_RING: usize = 8192;
/// Default live sampling cadence when the run has no `--timeline`
/// cadence to inherit: 10 sim-ms.
pub const DEFAULT_LIVE_CADENCE_NS: f64 = 10.0e6;

/// One sampled segment held for `/series` (a bounded mirror of what a
/// `.jts` segment would contain).
struct LiveSegment {
    samples: VecDeque<(f64, [f64; N_SERIES])>,
    truncated: bool,
}

struct LiveInner {
    sampler: Sampler,
    segment_open: bool,
    segments: Vec<LiveSegment>,
    monitor: Monitor,
    decisions: BTreeMap<String, u64>,
    events_seen: u64,
    ring: VecDeque<(u64, String)>,
    next_id: u64,
    metrics_text: Option<String>,
    closed: bool,
}

/// The published snapshot the sim thread writes into and server
/// threads read from. All publish methods take `&self` (internally
/// locked) and copy data in; they never hand references back out.
pub struct LiveState {
    inner: Mutex<LiveInner>,
    cv: Condvar,
}

impl std::fmt::Debug for LiveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveState").finish_non_exhaustive()
    }
}

impl LiveState {
    /// A fresh snapshot store sampling `/series` at `sample_every_ns`
    /// sim-ns (use the run's `--sample-every-ms` cadence when a
    /// timeline is enabled, [`DEFAULT_LIVE_CADENCE_NS`] otherwise).
    pub fn new(sample_every_ns: f64) -> LiveState {
        LiveState {
            inner: Mutex::new(LiveInner {
                sampler: Sampler::new(sample_every_ns),
                segment_open: false,
                segments: Vec::new(),
                monitor: Monitor::new(MonitorConfig::default()),
                decisions: BTreeMap::new(),
                events_seen: 0,
                ring: VecDeque::new(),
                next_id: 0,
                metrics_text: None,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Publish one trace event (with the tracer's cumulative ledger
    /// when available). Updates the embedded sampler, monitor,
    /// decision counters, and the SSE ring. Pure observer: takes the
    /// event by reference and copies what it keeps.
    pub fn publish_event(&self, ev: &TraceEvent, ledger: Option<&EnergyBreakdown>) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let inner = &mut *g;
        if inner.sampler.prev_seq.is_some_and(|prev| ev.seq <= prev) {
            inner.segment_open = false;
        }
        if !inner.segment_open {
            inner.sampler.reset();
            inner.segments.push(LiveSegment {
                samples: VecDeque::new(),
                truncated: false,
            });
            inner.segment_open = true;
        }
        inner.sampler.prev_seq = Some(ev.seq);
        let at = ev.at.nanos();
        if inner.sampler.every > 0.0 {
            while inner.sampler.next_t < at {
                let t = inner.sampler.next_t;
                push_sample(inner, t);
                inner.sampler.next_t += inner.sampler.every;
            }
        }
        inner.sampler.apply(ev, ledger);
        if let TraceEventKind::InvocationEnd { mode, .. } = &ev.kind {
            push_sample(inner, at);
            if inner.sampler.every > 0.0 {
                while inner.sampler.next_t <= at {
                    inner.sampler.next_t += inner.sampler.every;
                }
            }
            *inner.decisions.entry(mode.clone()).or_default() += 1;
        }
        inner.events_seen += 1;
        let alerts = inner.monitor.observe(ev);
        push_ring(inner, ev.to_json().render());
        for (i, alert) in alerts.iter().enumerate() {
            // Synthesize the same alert event a MonitorTee would
            // inject, so SSE consumers see alerts inline even when
            // `--monitor` is off.
            let alert_ev = TraceEvent {
                seq: ev.seq + 1 + i as u64,
                invocation: ev.invocation,
                ordinal: ev.ordinal.saturating_add(1),
                at: ev.at,
                delta: EnergyBreakdown::new(),
                kind: TraceEventKind::Alert {
                    monitor: alert.monitor.clone(),
                    severity: alert.severity.clone(),
                    message: alert.message.clone(),
                },
            };
            push_ring(inner, alert_ev.to_json().render());
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Publish the current Prometheus registry rendering (bench bins
    /// call this after filling per-point metrics).
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.metrics_text = Some(registry.render_prometheus());
        drop(g);
        self.cv.notify_all();
    }

    /// Mark the run complete: `/events` streams terminate after
    /// draining and `/health` is final.
    pub fn publish_done(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.closed = true;
        drop(g);
        self.cv.notify_all();
    }

    /// The live `jem-health/v1` document.
    pub fn health_json(&self) -> String {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        format!("{}\n", g.monitor.report().to_json().render_pretty())
    }

    /// The `/metrics` exposition: last published registry text plus
    /// the event-derived `jem_live_*` families.
    pub fn metrics_text(&self) -> String {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = g.metrics_text.clone().unwrap_or_default();
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("# TYPE jem_live_events_total counter\n");
        out.push_str(&format!("jem_live_events_total {}\n", g.events_seen));
        let report = g.monitor.report();
        out.push_str("# TYPE jem_live_invocations_total counter\n");
        out.push_str(&format!(
            "jem_live_invocations_total {}\n",
            report.invocations
        ));
        out.push_str("# TYPE jem_live_alerts_total counter\n");
        out.push_str(&format!("jem_live_alerts_total {}\n", report.total_alerts));
        out.push_str("# TYPE jem_live_decisions_total counter\n");
        for (mode, n) in &g.decisions {
            out.push_str(&format!(
                "jem_live_decisions_total{{mode=\"{mode}\"}} {n}\n"
            ));
        }
        out.push_str("# TYPE jem_live_err_rel gauge\n");
        out.push_str(&format!("jem_live_err_rel {}\n", g.sampler.vals[S_ERR]));
        out.push_str("# TYPE jem_live_retries_total counter\n");
        out.push_str(&format!(
            "jem_live_retries_total {}\n",
            g.sampler.vals[S_RETRIES]
        ));
        let breaker = g
            .sampler
            .labels
            .get(g.sampler.vals[S_BREAKER] as usize)
            .cloned()
            .unwrap_or_default();
        out.push_str("# TYPE jem_live_breaker_state gauge\n");
        out.push_str(&format!(
            "jem_live_breaker_state{{state=\"{breaker}\"}} 1\n"
        ));
        out.push_str("# TYPE jem_live_run_complete gauge\n");
        out.push_str(&format!("jem_live_run_complete {}\n", g.closed as u64));
        out
    }

    /// The `/series` document for `name`, optionally windowed to
    /// `[a, b]` sim-ns.
    ///
    /// # Errors
    /// Unknown series name (the message lists the catalogue).
    pub fn series_json(&self, name: &str, window_ns: Option<(f64, f64)>) -> Result<String, String> {
        let names = series_names();
        let Some(idx) = names.iter().position(|n| n == name) else {
            return Err(format!(
                "unknown series '{name}'; available: {}",
                names.join(", ")
            ));
        };
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let keep = |t: f64| window_ns.is_none_or(|(a, b)| t >= a && t <= b);
        let mut segments = Vec::with_capacity(g.segments.len());
        let mut end_value = 0.0f64;
        for (si, seg) in g.segments.iter().enumerate() {
            let mut times = Vec::new();
            let mut values = Vec::new();
            for &(t, vals) in &seg.samples {
                if !keep(t) {
                    continue;
                }
                times.push(Json::from(t));
                values.push(Json::from(vals[idx]));
                end_value = vals[idx];
            }
            segments.push(
                Json::object()
                    .with("segment", si as u64)
                    .with("truncated", seg.truncated)
                    .with("times_ns", Json::Arr(times))
                    .with("values", Json::Arr(values)),
            );
        }
        let mut doc = Json::object()
            .with("format", "jem-series/v1")
            .with("name", name)
            .with("sample_every_ns", g.sampler.every)
            .with("complete", g.closed)
            .with("segments", Json::Arr(segments))
            .with("end_value", end_value);
        if series_is_label(idx) {
            let labels: Vec<Json> = g
                .sampler
                .labels
                .iter()
                .map(|l| Json::from(l.as_str()))
                .collect();
            doc = doc.with("labels", Json::Arr(labels)).with(
                "end_label",
                g.sampler
                    .labels
                    .get(end_value as usize)
                    .cloned()
                    .unwrap_or_default(),
            );
        }
        if let Some((a, b)) = window_ns {
            doc = doc.with("window_ns", Json::Arr(vec![Json::from(a), Json::from(b)]));
        }
        Ok(format!("{}\n", doc.render_pretty()))
    }

    /// Events in the ring with id ≥ `from`, plus whether the run is
    /// closed (used by the SSE pump).
    fn events_since(&self, from: u64) -> (Vec<(u64, String)>, bool) {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let out = g
            .ring
            .iter()
            .filter(|(id, _)| *id >= from)
            .cloned()
            .collect();
        (out, g.closed)
    }

    /// Block until the ring advances past `seen` or the run closes,
    /// with a timeout so disconnected clients get noticed.
    fn wait_for_events(&self, seen: u64, timeout: Duration) {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if g.next_id > seen || g.closed {
            return;
        }
        let _ = self
            .cv
            .wait_timeout(g, timeout)
            .map(|(g, _)| drop(g))
            .map_err(|p| drop(p.into_inner()));
    }
}

fn push_sample(inner: &mut LiveInner, t: f64) {
    let seg = inner.segments.last_mut().expect("segment opened above");
    seg.samples.push_back((t, inner.sampler.vals));
    if seg.samples.len() > SERIES_RING {
        seg.samples.pop_front();
        seg.truncated = true;
    }
    inner.sampler.dirty = false;
}

fn push_ring(inner: &mut LiveInner, json: String) {
    let id = inner.next_id;
    inner.next_id += 1;
    inner.ring.push_back((id, json));
    if inner.ring.len() > EVENT_RING {
        inner.ring.pop_front();
    }
}

// ---------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------

/// The embedded HTTP server: an accept loop on a background thread,
/// one detached handler thread per connection.
pub struct LiveServer {
    state: Arc<LiveState>,
    addr: SocketAddr,
}

impl LiveServer {
    /// Bind `addr` (e.g. `127.0.0.1:9900`; port 0 picks a free port)
    /// and start serving `state`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(addr: &str, state: Arc<LiveState>) -> Result<LiveServer, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("serve: no local addr: {e}"))?;
        let accept_state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("jem-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { continue };
                    let state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("jem-serve-conn".into())
                        .spawn(move || handle_connection(stream, &state));
                }
            })
            .map_err(|e| format!("serve: cannot spawn accept thread: {e}"))?;
        Ok(LiveServer { state, addr: local })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The state this server exposes.
    pub fn state(&self) -> &Arc<LiveState> {
        &self.state
    }
}

/// Read the request head (we only care about the request line) and
/// dispatch. Everything is `Connection: close`.
fn handle_connection(mut stream: TcpStream, state: &LiveState) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
        if head.len() > 16 * 1024 {
            return;
        }
    }
    let line = match std::str::from_utf8(&head) {
        Ok(t) => t.lines().next().unwrap_or("").to_string(),
        Err(_) => return,
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => respond(
            &mut stream,
            200,
            "OK",
            "text/plain; charset=utf-8",
            "jem live observability\n\n\
             /metrics                    Prometheus exposition\n\
             /health                     jem-health/v1 JSON\n\
             /series?name=..&window=a:b  one timeline series (window in sim-ms)\n\
             /events                     SSE tail of trace events\n",
        ),
        "/metrics" => {
            let body = state.metrics_text();
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/health" => {
            let body = state.health_json();
            respond(&mut stream, 200, "OK", "application/json", &body);
        }
        "/series" => {
            let mut name = None;
            let mut window = None;
            let mut bad = None;
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                match k {
                    "name" => name = Some(v.to_string()),
                    "window" => match parse_window_ms(v) {
                        Some(w) => window = Some(w),
                        None => bad = Some("window must be a:b in sim-ms with a <= b"),
                    },
                    _ => bad = Some("unknown query parameter"),
                }
            }
            if let Some(msg) = bad {
                respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    &format!("{msg}\n"),
                );
                return;
            }
            let Some(name) = name else {
                respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    "missing ?name=<series>\n",
                );
                return;
            };
            match state.series_json(&name, window) {
                Ok(body) => respond(&mut stream, 200, "OK", "application/json", &body),
                Err(e) => respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    &format!("{e}\n"),
                ),
            }
        }
        "/events" => serve_events(&mut stream, state),
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

/// `a:b` in sim-ms → `(a, b)` in sim-ns.
fn parse_window_ms(v: &str) -> Option<(f64, f64)> {
    let (a, b) = v.split_once(':')?;
    let a: f64 = a.parse().ok()?;
    let b: f64 = b.parse().ok()?;
    (a.is_finite() && b.is_finite() && a <= b).then_some((a * 1e6, b * 1e6))
}

fn respond(stream: &mut TcpStream, code: u16, reason: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

/// SSE pump: replay the ring, then stream new events until the run
/// closes or the client disconnects.
fn serve_events(stream: &mut TcpStream, state: &LiveState) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut next = 0u64;
    loop {
        let (events, closed) = state.events_since(next);
        for (id, json) in &events {
            let frame = format!("id: {id}\ndata: {json}\n\n");
            if stream.write_all(frame.as_bytes()).is_err() {
                return;
            }
            next = id + 1;
        }
        if stream.flush().is_err() {
            return;
        }
        if closed && events.is_empty() {
            let _ = stream.write_all(b"event: end\ndata: {}\n\n");
            return;
        }
        if events.is_empty() {
            state.wait_for_events(next, Duration::from_millis(250));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::{Component, Energy, SimTime};
    use std::io::BufRead;

    fn ev(seq: u64, invocation: u64, ordinal: u64, at: f64, kind: TraceEventKind) -> TraceEvent {
        let mut delta = EnergyBreakdown::new();
        delta.charge(Component::Core, Energy::from_nanojoules(5.0));
        TraceEvent {
            seq,
            invocation,
            ordinal,
            at: SimTime::from_nanos(at),
            delta,
            kind,
        }
    }

    fn feed(state: &LiveState) {
        let mut ledger = EnergyBreakdown::new();
        for i in 0..4u64 {
            let t0 = 1.0e6 * i as f64;
            ledger.charge(Component::Core, Energy::from_nanojoules(5.0));
            state.publish_event(
                &ev(
                    3 * i,
                    i + 1,
                    0,
                    t0,
                    TraceEventKind::InvocationStart {
                        strategy: "ics".into(),
                        method: "m".into(),
                        size: 100,
                        true_class: "good".into(),
                        chosen_class: "good".into(),
                    },
                ),
                Some(&ledger),
            );
            ledger.charge(Component::Core, Energy::from_nanojoules(5.0));
            state.publish_event(
                &ev(
                    3 * i + 1,
                    i + 1,
                    1,
                    t0 + 0.4e6,
                    TraceEventKind::InvocationEnd {
                        mode: "interpret".into(),
                        // Conservation: deltas after InvocationStart
                        // (just this event's 5 nJ) must sum to this.
                        energy: Energy::from_nanojoules(5.0),
                        time: SimTime::from_nanos(0.4e6),
                        instructions: 1000,
                    },
                ),
                Some(&ledger),
            );
        }
    }

    #[test]
    fn metrics_text_carries_live_families() {
        let state = LiveState::new(DEFAULT_LIVE_CADENCE_NS);
        feed(&state);
        let text = state.metrics_text();
        assert!(text.contains("jem_live_events_total 8"));
        assert!(text.contains("jem_live_decisions_total{mode=\"interpret\"} 4"));
        assert!(text.contains("jem_live_breaker_state{state=\"closed\"} 1"));
        let mut reg = MetricsRegistry::new();
        reg.inc("jem_points_total");
        state.publish_metrics(&reg);
        assert!(state.metrics_text().contains("jem_points_total"));
    }

    #[test]
    fn health_json_is_live_and_alert_free_on_clean_stream() {
        let state = LiveState::new(DEFAULT_LIVE_CADENCE_NS);
        feed(&state);
        let doc = Json::parse(&state.health_json()).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("jem-health/v1")
        );
        assert_eq!(doc.get("total_alerts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("invocations").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn series_json_windows_and_rejects_unknown() {
        let state = LiveState::new(DEFAULT_LIVE_CADENCE_NS);
        feed(&state);
        assert!(state.series_json("nope", None).is_err());
        let doc =
            Json::parse(&state.series_json("energy.core.cum_nj", None).unwrap()).expect("json");
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("jem-series/v1")
        );
        let end = doc.get("end_value").and_then(Json::as_f64).unwrap();
        assert_eq!(end, 40.0);
        // Window [0, 1] sim-ms keeps only the first invocation's
        // boundary sample.
        let windowed = state
            .series_json("energy.core.cum_nj", Some((0.0, 1.0e6)))
            .unwrap();
        let doc = Json::parse(&windowed).expect("json");
        assert_eq!(doc.get("end_value").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn http_endpoints_round_trip_over_tcp() {
        let state = Arc::new(LiveState::new(DEFAULT_LIVE_CADENCE_NS));
        feed(&state);
        let server = LiveServer::start("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("read");
            out
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("jem_live_events_total"));
        let health = get("/health");
        assert!(health.contains("jem-health/v1"));
        let series = get("/series?name=energy.core.cum_nj&window=0:10");
        assert!(series.contains("jem-series/v1"));
        assert!(get("/series?name=bogus").starts_with("HTTP/1.1 400"));
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn sse_streams_ring_then_end_marker() {
        let state = Arc::new(LiveState::new(DEFAULT_LIVE_CADENCE_NS));
        feed(&state);
        state.publish_done();
        let server = LiveServer::start("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        write!(s, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
        let mut reader = std::io::BufReader::new(s);
        let mut data_lines = 0;
        let mut saw_end = false;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if line.starts_with("data: {\"seq\"") {
                data_lines += 1;
            }
            if line.starts_with("event: end") {
                saw_end = true;
            }
            line.clear();
        }
        assert_eq!(data_lines, 8);
        assert!(saw_end);
    }
}
