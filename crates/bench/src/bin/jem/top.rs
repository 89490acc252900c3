//! `jem top`: a live terminal dashboard for a running bench.
//!
//! It tails the files of a run started with `--timeline run.jts
//! --flush-every N` and, optionally, `--trace run.jtb`, telling the two
//! arguments apart by extension. The `.jts` fills the panels:
//! per-component energy rate sparklines (per-sample deltas of the
//! cumulative ledger) with running totals, predictor relative error,
//! and the breaker line's retry/fallback/degraded counters — the run
//! state the paper's adaptive strategies act on. The `.jtb` adds the
//! event and invocation counts, the decision mix (`invocation-end`
//! modes, the AL/AA choices), the `alert` events a `--monitor` run
//! writes (counted per monitor, the latest listed), and the breaker
//! state by name, from the last `breaker-transition`. Without it, a
//! run in flight shows the breaker's numeric label id: the `.jts`
//! label table only lands in its footer.
//!
//! `--window a:b` restricts the sparklines to `[a, b]` sim-ms. The
//! dashboard redraws every `--refresh` wall-clock ms (default 500)
//! until both files are complete or `--frames` redraws are done;
//! `--once` renders a single frame without the ANSI clear (the
//! scriptable/CI snapshot mode). It is a pure reader: it never writes
//! anywhere and the observed run is byte-identical with or without it.

use crate::{drain, usage_error, window};
use jem_bench::{arg_flag, arg_parse, Flag};
use jem_obs::timeline::{series_names, N_SERIES};
use jem_obs::tui::{fmt_si, spark_row, BOLD, CLEAR_HOME, RESET};
use jem_obs::{
    JtbFollower, JtbStream, JtsFollower, JtsReader, JtsSample, TraceEvent, TraceEventKind,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const FLAGS: &[Flag] = &[
    ("--refresh", true),
    ("--once", false),
    ("--frames", true),
    ("--window", true),
];

/// Per-series sample cap; sparkline resampling keeps the shape when
/// old samples roll off.
const KEEP: usize = 8192;

/// The latest alerts the alerts panel lists.
const ALERTS_SHOWN: usize = 8;

/// The energy components shown as rate panels, in ledger order.
const COMPONENTS: [&str; 5] = ["core", "dram", "leakage", "radio-tx", "radio-rx"];

/// The counters on the breaker line.
const COUNTERS: [&str; 3] = ["retries", "fallbacks", "degraded"];

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    jem_bench::reject_unknown_flags(args, &[FLAGS]);
    let (mut jts, mut jtb) = (None, None);
    for arg in jem_bench::positionals(args, &[FLAGS]) {
        let slot = if arg.ends_with(".jts") {
            &mut jts
        } else if arg.ends_with(".jtb") {
            &mut jtb
        } else {
            usage_error(format!(
                "jem top: '{arg}' is neither a .jts timeline nor a .jtb trace"
            ))
        };
        if slot.is_some() {
            usage_error(format!("jem top: unexpected argument '{arg}'"));
        }
        *slot = Some(arg);
    }
    let jts = jts.unwrap_or_else(|| usage_error("jem top needs a .jts timeline"));
    let refresh = Duration::from_millis(arg_parse(args, "--refresh", 500));
    let once = arg_flag(args, "--once");
    let frames = if once {
        Some(1)
    } else {
        crate::arg_opt(args, "--frames")
    };
    let clear = if once { "" } else { CLEAR_HOME };

    let mut view = View::open(jts, jtb, window(args))?;
    let mut drawn = 0usize;
    loop {
        let (text, complete) = view.frame(clear)?;
        print!("{text}");
        let _ = std::io::stdout().flush();
        drawn += 1;
        if complete || frames.is_some_and(|n| drawn >= n) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(refresh);
    }
}

/// The followed files and what each adds to the panels.
struct View {
    jts_path: String,
    jts: JtsFollower,
    series: Series,
    jtb: Option<(String, JtbFollower, Events)>,
}

/// The `.jts` panel buffers.
struct Series {
    win_ns: Option<(f64, f64)>,
    /// Catalogue columns: each component's cumulative energy, the
    /// predictor error, the breaker state and [`COUNTERS`].
    cum_idx: Vec<usize>,
    err_idx: usize,
    breaker_idx: usize,
    counter_idx: Vec<usize>,
    /// Per-component energy rates (nJ/sample) and predictor relative
    /// error samples.
    rates: Vec<Vec<f64>>,
    errs: Vec<f64>,
    prev_cum: Vec<f64>,
    prev_segment: usize,
    /// The latest in-window sample.
    last: [f64; N_SERIES],
}

/// What the `.jtb` events add.
#[derive(Default)]
struct Events {
    count: u64,
    /// `invocation-end` events per mode.
    decisions: BTreeMap<String, u64>,
    /// The state named by the run's last `breaker-transition`.
    breaker: String,
    /// `alert` events per monitor, and the latest [`ALERTS_SHOWN`].
    alerts: BTreeMap<String, u64>,
    latest_alerts: VecDeque<String>,
}

impl Events {
    fn absorb(&mut self, ev: TraceEvent) {
        self.count += 1;
        if ev.seq == 0 {
            // Each run of a sweep numbers its events from 0 and starts
            // with its breaker closed.
            self.breaker = "closed".into();
        }
        match ev.kind {
            TraceEventKind::InvocationEnd { mode, .. } => {
                *self.decisions.entry(mode).or_default() += 1;
            }
            TraceEventKind::BreakerTransition { to, .. } => self.breaker = to,
            TraceEventKind::Alert {
                monitor,
                severity,
                message,
            } => {
                if self.latest_alerts.len() == ALERTS_SHOWN {
                    self.latest_alerts.pop_front();
                }
                self.latest_alerts
                    .push_back(format!("[{severity}] {monitor}: {message}"));
                *self.alerts.entry(monitor).or_default() += 1;
            }
            _ => {}
        }
    }
}

/// `  key=n` for each of `counts`, after `label`.
fn counts(label: &str, counts: &BTreeMap<String, u64>) -> String {
    let mut out = label.to_string();
    for (key, n) in counts {
        out.push_str(&format!("  {key}={n}"));
    }
    out
}

impl Series {
    fn new(win_ns: Option<(f64, f64)>) -> Series {
        let catalogue = series_names();
        let idx_of = |name: String| -> usize {
            catalogue
                .iter()
                .position(|s| *s == name)
                .expect("v1 series catalogue")
        };
        Series {
            win_ns,
            cum_idx: COMPONENTS
                .map(|c| idx_of(format!("energy.{c}.cum_nj")))
                .to_vec(),
            err_idx: idx_of("predictor.err_rel".into()),
            breaker_idx: idx_of("breaker.state".into()),
            counter_idx: COUNTERS.map(|c| idx_of(format!("counters.{c}"))).to_vec(),
            rates: vec![Vec::new(); COMPONENTS.len()],
            errs: Vec::new(),
            prev_cum: vec![0.0; COMPONENTS.len()],
            prev_segment: usize::MAX,
            last: [0.0; N_SERIES],
        }
    }

    fn absorb(&mut self, s: JtsSample) {
        if self.win_ns.is_some_and(|(a, b)| s.t < a || s.t > b) {
            return;
        }
        if s.segment != self.prev_segment {
            // Cumulative columns restart per segment.
            self.prev_segment = s.segment;
            self.prev_cum.iter_mut().for_each(|v| *v = 0.0);
        }
        for (slot, &idx) in self.cum_idx.iter().enumerate() {
            push_capped(&mut self.rates[slot], s.vals[idx] - self.prev_cum[slot]);
            self.prev_cum[slot] = s.vals[idx];
        }
        push_capped(&mut self.errs, s.vals[self.err_idx]);
        self.last = s.vals;
    }
}

/// Append `v`, dropping the oldest samples past [`KEEP`].
fn push_capped(buf: &mut Vec<f64>, v: f64) {
    buf.push(v);
    if buf.len() > KEEP {
        buf.drain(..buf.len() - KEEP);
    }
}

impl View {
    fn open(jts: String, jtb: Option<String>, win_ns: Option<(f64, f64)>) -> Result<View, String> {
        let jtb = match jtb {
            Some(path) => {
                let follower = JtbStream::follow(&path).map_err(|e| format!("{path}: {e}"))?;
                let events = Events {
                    breaker: "closed".into(),
                    ..Events::default()
                };
                Some((path, follower, events))
            }
            None => None,
        };
        Ok(View {
            jts: JtsReader::follow(&jts).map_err(|e| format!("{jts}: {e}"))?,
            jts_path: jts,
            series: Series::new(win_ns),
            jtb,
        })
    }

    fn frame(&mut self, clear: &str) -> Result<(String, bool), String> {
        let series = &mut self.series;
        let mut done = drain(|| self.jts.poll(), |s| series.absorb(s))
            .map_err(|e| format!("{}: {e}", self.jts_path))?;
        if let Some((path, follower, events)) = &mut self.jtb {
            done &= drain(|| follower.poll(), |(_, ev)| events.absorb(ev))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        let s = &self.series;
        let mut out = format!(
            "{clear}{BOLD}jem top{RESET}  {}  segments={} samples={}",
            self.jts_path,
            self.jts.segments(),
            self.jts.samples()
        );
        if let Some((path, _, events)) = &self.jtb {
            out.push_str(&format!(
                "  {path}  events={} invocations={}",
                events.count,
                events.decisions.values().sum::<u64>()
            ));
        }
        out.push_str(if done {
            "  (complete)\n\n"
        } else {
            "  (following)\n\n"
        });

        out.push_str(&format!("{BOLD}energy rate (nJ/sample){RESET}\n"));
        let name_w = COMPONENTS.iter().map(|c| c.len()).max().unwrap_or(0);
        for (slot, c) in COMPONENTS.iter().enumerate() {
            out.push_str(&format!(
                "  {}  total {} nJ\n",
                spark_row(c, name_w, &s.rates[slot]),
                fmt_si(s.last[s.cum_idx[slot]])
            ));
        }
        out.push_str(&format!(
            "\n{BOLD}predictor{RESET}\n  {}  now {}\n",
            spark_row("err_rel", name_w, &s.errs),
            fmt_si(s.last[s.err_idx])
        ));

        let breaker = match &self.jtb {
            Some((_, _, events)) => events.breaker.clone(),
            // The .jts label table only lands in the footer, so a run
            // still in flight shows the numeric label id.
            None => {
                let id = s.last[s.breaker_idx];
                self.jts
                    .labels()
                    .get(id as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("#{id}"))
            }
        };
        let [retries, fallbacks, degraded] = [0, 1, 2].map(|i| fmt_si(s.last[s.counter_idx[i]]));
        out.push_str(&format!(
            "\nbreaker: {breaker}  retries={retries} fallbacks={fallbacks} degraded={degraded}\n"
        ));
        if let Some((_, _, events)) = &self.jtb {
            let total: u64 = events.alerts.values().sum();
            out.push_str(&counts("decisions:", &events.decisions));
            out.push_str(&counts(
                &format!("\n\n{BOLD}alerts: {total}{RESET}"),
                &events.alerts,
            ));
            out.push('\n');
            for alert in &events.latest_alerts {
                out.push_str(&format!("  {alert}\n"));
            }
        }
        Ok((out, done))
    }
}
