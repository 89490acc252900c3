//! `jem top`: a live terminal dashboard for a running bench.
//!
//! Two sources, picked by the argument's shape:
//!
//! * an address (`http://127.0.0.1:6220` or bare `127.0.0.1:6220`) —
//!   polls the embedded `--serve` endpoints of a live bench run:
//!   `/series` for the sparkline panels, `/health` for alerts, and
//!   `/metrics` for the decision mix and completion flag. Every
//!   request carries a connect *and* read/write deadline
//!   (`--timeout`, default 5000 ms), so `--once` against a server that
//!   never comes up fails fast with a clear error instead of hanging;
//! * a `.jts` path — tails the growing timeline of a run started with
//!   `--timeline run.jts --flush-every N` (no server needed), showing
//!   the same panels minus the decision mix and alerts, which only the
//!   live endpoints carry.
//!
//! Panels: per-component energy rate sparklines (per-sample deltas of
//! the cumulative ledger) with running totals, predictor relative
//! error, channel/breaker state, retry/fallback/degraded counters —
//! the run state the paper's adaptive strategies act on. `--window
//! a:b` restricts the sparklines to `[a, b]` sim-ms. The dashboard
//! redraws every `--refresh` wall-clock ms (default 500) until the run
//! completes or `--frames` redraws are done; `--once` renders a single
//! frame without the ANSI clear (the scriptable/CI snapshot mode). It
//! is a pure reader: it never writes anywhere and the observed run is
//! byte-identical with or without it.

use crate::{drain, one_input, usage_error, window};
use jem_bench::{arg_flag, arg_parse, Flag};
use jem_obs::timeline::{series_names, N_SERIES};
use jem_obs::tui::{fmt_si, spark_row, BOLD, CLEAR_HOME, RESET};
use jem_obs::{Json, JtsReader};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

const FLAGS: &[Flag] = &[
    ("--refresh", true),
    ("--once", false),
    ("--frames", true),
    ("--window", true),
    ("--timeout", true),
];

/// Per-series sample cap; sparkline resampling keeps the shape when
/// old samples roll off.
const KEEP: usize = 8192;

/// The energy components shown as rate panels, in ledger order.
const COMPONENTS: [&str; 5] = ["core", "dram", "leakage", "radio-tx", "radio-rx"];

/// The counters on the breaker line.
const COUNTERS: [&str; 3] = ["retries", "fallbacks", "degraded"];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let source = one_input(args, &[FLAGS], "an address or a .jts path");
    let refresh = Duration::from_millis(arg_parse(args, "--refresh", 500));
    let once = arg_flag(args, "--once");
    let frames = if once {
        Some(1)
    } else {
        crate::arg_opt(args, "--frames")
    };
    let win_ns = window(args);
    let timeout_ms: u64 = arg_parse(args, "--timeout", 5000);
    if timeout_ms == 0 {
        usage_error("--timeout needs a positive millisecond count");
    }
    let clear = if once { "" } else { CLEAR_HOME };

    // An existing .jts file (or a .jts-suffixed path) selects follow
    // mode; everything else is treated as a live-server address.
    if source.ends_with(".jts") || std::path::Path::new(&source).exists() {
        let mut view = JtsView::open(&source, win_ns)?;
        watch(refresh, frames, || view.frame(clear))
    } else {
        let addr = source.strip_prefix("http://").unwrap_or(&source);
        let timeout = Duration::from_millis(timeout_ms);
        watch(refresh, frames, || http_frame(addr, win_ns, clear, timeout))
    }
}

/// Print frames every `refresh` until one reports a complete run or
/// `frames` are drawn.
fn watch(
    refresh: Duration,
    frames: Option<usize>,
    mut frame: impl FnMut() -> Result<(String, bool), String>,
) -> Result<ExitCode, String> {
    let mut drawn = 0usize;
    loop {
        let (text, complete) = frame()?;
        print!("{text}");
        let _ = std::io::stdout().flush();
        drawn += 1;
        if complete || frames.is_some_and(|n| drawn >= n) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(refresh);
    }
}

/// The panels both sources show.
#[derive(Default)]
struct Panels {
    /// Per-component energy rates (nJ/sample) and running totals.
    rates: Vec<Vec<f64>>,
    totals: Vec<f64>,
    /// Predictor relative error samples and the latest value.
    errs: Vec<f64>,
    err_now: f64,
    breaker: String,
    /// [`COUNTERS`], latest values.
    counters: [f64; 3],
}

impl Panels {
    fn render(&self) -> String {
        let mut out = format!("{BOLD}energy rate (nJ/sample){RESET}\n");
        let name_w = COMPONENTS.iter().map(|c| c.len()).max().unwrap_or(0);
        for (slot, c) in COMPONENTS.iter().enumerate() {
            out.push_str(&format!(
                "  {}  total {} nJ\n",
                spark_row(c, name_w, &self.rates[slot]),
                fmt_si(self.totals[slot])
            ));
        }
        out.push_str(&format!(
            "\n{BOLD}predictor{RESET}\n  {}  now {}\n",
            spark_row("err_rel", name_w, &self.errs),
            fmt_si(self.err_now)
        ));
        let [retries, fallbacks, degraded] = self.counters.map(fmt_si);
        out.push_str(&format!(
            "\nbreaker: {}  retries={retries} fallbacks={fallbacks} degraded={degraded}\n",
            self.breaker
        ));
        out
    }
}

/// Append `v`, dropping the oldest samples past [`KEEP`].
fn push_capped(buf: &mut Vec<f64>, v: f64) {
    buf.push(v);
    if buf.len() > KEEP {
        buf.drain(..buf.len() - KEEP);
    }
}

// ---------------------------------------------------------------
// HTTP source
// ---------------------------------------------------------------

/// One `GET` against the embedded server; returns the body of a 200.
/// Connect, read and write all carry `timeout` as their deadline, so
/// a server that never comes up (or stops mid-response) surfaces as a
/// prompt, explicit error rather than an indefinite hang.
fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}: no addresses"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout).map_err(|e| {
        format!(
            "cannot connect {addr} within {}ms: {e}",
            timeout.as_millis()
        )
    })?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read from {addr}: {e}"))?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(format!("{addr}: malformed HTTP response"));
    };
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

/// Fetch one `/series` document and flatten it: all in-window sample
/// values across segments, plus the end value/label.
fn fetch_series(
    addr: &str,
    name: &str,
    win_ns: Option<(f64, f64)>,
    timeout: Duration,
) -> Result<(Vec<f64>, f64, Option<String>), String> {
    let mut path = format!("/series?name={name}");
    if let Some((a, b)) = win_ns {
        // The endpoint's window= is in sim-ms, like --window.
        path.push_str(&format!("&window={}:{}", a / 1e6, b / 1e6));
    }
    let body = http_get(addr, &path, timeout)?;
    let doc = Json::parse(&body).map_err(|e| format!("{name}: {e}"))?;
    let mut vals = Vec::new();
    if let Some(Json::Arr(segments)) = doc.get("segments") {
        for seg in segments {
            if let Some(Json::Arr(values)) = seg.get("values") {
                vals.extend(values.iter().filter_map(Json::as_f64));
            }
        }
    }
    let end = doc.get("end_value").and_then(Json::as_f64).unwrap_or(0.0);
    let end_label = doc
        .get("end_label")
        .and_then(Json::as_str)
        .map(str::to_string);
    Ok((vals, end, end_label))
}

/// Per-sample deltas of a cumulative column — the "rate" view the
/// energy panels sparkline.
fn deltas(cum: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(cum.len());
    let mut prev = 0.0;
    for &v in cum {
        out.push(v - prev);
        prev = v;
    }
    out
}

fn http_frame(
    addr: &str,
    win_ns: Option<(f64, f64)>,
    clear: &str,
    timeout: Duration,
) -> Result<(String, bool), String> {
    let metrics = http_get(addr, "/metrics", timeout)?;
    let health =
        Json::parse(&http_get(addr, "/health", timeout)?).map_err(|e| format!("/health: {e}"))?;
    let complete = metric_value(&metrics, "jem_live_run_complete").unwrap_or(0.0) > 0.0;
    let events = metric_value(&metrics, "jem_live_events_total").unwrap_or(0.0);
    let invocations = metric_value(&metrics, "jem_live_invocations_total").unwrap_or(0.0);
    let series = |name: &str| fetch_series(addr, name, win_ns, timeout);

    let mut out = format!(
        "{clear}{BOLD}jem top{RESET}  http://{addr}  events={} invocations={}  {}\n",
        fmt_si(events),
        fmt_si(invocations),
        if complete { "(complete)" } else { "(running)" }
    );
    let healthy = health.get("healthy").map(|h| matches!(h, Json::Bool(true)));
    let total_alerts = health
        .get("total_alerts")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "health: {}  alerts={total_alerts}\n\n",
        match healthy {
            Some(true) => "OK",
            _ => "DEGRADED",
        }
    ));

    let mut panels = Panels::default();
    for c in COMPONENTS {
        let (cum, end, _) = series(&format!("energy.{c}.cum_nj"))?;
        panels.rates.push(deltas(&cum));
        panels.totals.push(end);
    }
    (panels.errs, panels.err_now, _) = series("predictor.err_rel")?;
    panels.breaker = series("breaker.state")?.2.unwrap_or_else(|| "?".into());
    for (slot, c) in COUNTERS.iter().enumerate() {
        panels.counters[slot] = series(&format!("counters.{c}"))?.1;
    }
    out.push_str(&panels.render());

    let decisions = decision_mix(&metrics);
    if !decisions.is_empty() {
        out.push_str("decisions:");
        for (mode, n) in &decisions {
            out.push_str(&format!("  {mode}={n}"));
        }
        out.push('\n');
    }

    if let Some(Json::Arr(alerts)) = health.get("alerts") {
        if !alerts.is_empty() {
            out.push_str(&format!("\n{BOLD}active alerts{RESET}\n"));
            for a in alerts.iter().take(8) {
                match (
                    a.get("monitor").and_then(Json::as_str),
                    a.get("message").and_then(Json::as_str),
                ) {
                    (Some(m), Some(msg)) => out.push_str(&format!("  [{m}] {msg}\n")),
                    _ => out.push_str(&format!("  {}\n", a.render())),
                }
            }
            if alerts.len() > 8 {
                out.push_str(&format!("  … and {} more\n", alerts.len() - 8));
            }
        }
    }
    Ok((out, complete))
}

/// First sample of an unlabeled metric family in Prometheus text.
fn metric_value(text: &str, family: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(family)?;
        let rest = rest.trim_start();
        if rest.is_empty() || line.starts_with('#') {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `jem_live_decisions_total{mode="…"} N` pairs, in exposition order.
fn decision_mix(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("jem_live_decisions_total{mode=\"") else {
            continue;
        };
        let Some((mode, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(n) = rest
            .trim_start_matches('}')
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<f64>().ok())
        else {
            continue;
        };
        out.push((mode.to_string(), n as u64));
    }
    out
}

// ---------------------------------------------------------------
// .jts source
// ---------------------------------------------------------------

/// A followed `.jts` and the panel buffers its samples fill.
struct JtsView {
    path: String,
    follower: jem_obs::JtsFollower,
    win_ns: Option<(f64, f64)>,
    /// Catalogue columns: each component's cumulative energy, the
    /// predictor error, the breaker state and [`COUNTERS`].
    cum_idx: Vec<usize>,
    err_idx: usize,
    breaker_idx: usize,
    counter_idx: Vec<usize>,
    panels: Panels,
    prev_cum: Vec<f64>,
    prev_segment: usize,
    /// The latest in-window sample.
    last: [f64; N_SERIES],
}

impl JtsView {
    fn open(path: &str, win_ns: Option<(f64, f64)>) -> Result<JtsView, String> {
        let catalogue = series_names();
        let idx_of = |name: String| -> usize {
            catalogue
                .iter()
                .position(|s| *s == name)
                .expect("v1 series catalogue")
        };
        Ok(JtsView {
            path: path.to_string(),
            follower: JtsReader::follow(path).map_err(|e| format!("{path}: {e}"))?,
            win_ns,
            cum_idx: COMPONENTS
                .map(|c| idx_of(format!("energy.{c}.cum_nj")))
                .to_vec(),
            err_idx: idx_of("predictor.err_rel".into()),
            breaker_idx: idx_of("breaker.state".into()),
            counter_idx: COUNTERS.map(|c| idx_of(format!("counters.{c}"))).to_vec(),
            panels: Panels {
                rates: vec![Vec::new(); COMPONENTS.len()],
                ..Panels::default()
            },
            prev_cum: vec![0.0; COMPONENTS.len()],
            prev_segment: usize::MAX,
            last: [0.0; N_SERIES],
        })
    }

    fn absorb(&mut self, s: jem_obs::JtsSample) {
        if self.win_ns.is_some_and(|(a, b)| s.t < a || s.t > b) {
            return;
        }
        if s.segment != self.prev_segment {
            // Cumulative columns restart per segment.
            self.prev_segment = s.segment;
            self.prev_cum.iter_mut().for_each(|v| *v = 0.0);
        }
        for (slot, &idx) in self.cum_idx.iter().enumerate() {
            push_capped(
                &mut self.panels.rates[slot],
                s.vals[idx] - self.prev_cum[slot],
            );
            self.prev_cum[slot] = s.vals[idx];
        }
        push_capped(&mut self.panels.errs, s.vals[self.err_idx]);
        self.last.copy_from_slice(&s.vals);
    }

    fn frame(&mut self, clear: &str) -> Result<(String, bool), String> {
        let mut samples = Vec::new();
        let done = drain(|| self.follower.poll(), |s| samples.push(s))
            .map_err(|e| format!("{}: {e}", self.path))?;
        samples.into_iter().for_each(|s| self.absorb(s));
        let last = &self.last;
        self.panels.totals = self.cum_idx.iter().map(|&i| last[i]).collect();
        self.panels.err_now = last[self.err_idx];
        // The .jts label table only lands in the footer, so a run
        // still in flight shows the numeric label id.
        self.panels.breaker = self
            .follower
            .labels()
            .get(last[self.breaker_idx] as usize)
            .cloned()
            .unwrap_or_else(|| format!("#{}", last[self.breaker_idx]));
        for (slot, &idx) in self.counter_idx.iter().enumerate() {
            self.panels.counters[slot] = last[idx];
        }
        // The decision mix and alerts only exist server-side; the .jts
        // panel set is the subset the timeline carries.
        let text = format!(
            "{clear}{BOLD}jem top{RESET}  {}  segments={} samples={}  {}\n\n{}",
            self.path,
            self.follower.segments(),
            self.follower.samples(),
            if done { "(complete)" } else { "(following)" },
            self.panels.render()
        );
        Ok((text, done))
    }
}
