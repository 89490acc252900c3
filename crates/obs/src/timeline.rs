//! Sim-time-series telemetry: the deterministic `.jts` timeline layer.
//!
//! A trace answers "what happened"; the timeline answers "what did the
//! run *look like over sim-time*". [`TimelineSink`] observes the same
//! event stream every other sink sees and, at a configurable sim-time
//! cadence (plus a forced sample at every invocation end), snapshots
//! derived run state into a fixed catalogue of named series:
//!
//! * `energy.<component>.cum_nj` — the run's cumulative
//!   [`EnergyBreakdown`], snapshotted from the tracer's exact ledger
//!   (see [`crate::trace::TraceSink::record_with_ledger`]). Energy
//!   *rates* are derived on read as `Δcum/Δt` (nJ/ns ≡ watts), so the
//!   integral of every rate series telescopes to the final cumulative
//!   value: `∫ rate dt = cum(T) − cum(0) = cum(T)`. That makes the
//!   "rate integral reconciles with the final breakdown" invariant a
//!   *bit-exact* equality rather than an epsilon comparison — the
//!   final forced sample IS the machine's cumulative ledger.
//! * `energy.<component>.trace_nj` — sequential prefix sums of the
//!   per-event deltas, in event order. These reconcile bit-exactly
//!   with windowed delta sums over the corresponding `.jtb` trace
//!   (both are the same sequence of f64 additions), which is what
//!   the per-segment window-end values of `jem timeline --series
//!   … --window 0:T` exploit.
//! * `predictor.{ei,er,el1,el2,el3}_nj` and `predictor.err_rel` — the
//!   EWMA candidate estimates from the latest decision and the
//!   relative prediction error of the latest *followed* decision.
//! * `channel.true_class` / `channel.chosen_class` / `breaker.state` —
//!   label-coded state series: values are indices into the file's
//!   label table (id 0 is the empty "unknown" label).
//! * `counters.{retries,fallbacks,degraded}`, `instructions`,
//!   `invocations` — monotone run counters.
//!
//! Samples are derived purely from observed events: the sink never
//! touches the simulation, so runs with the timeline on are
//! bit-identical to runs with it off (test-enforced).
//!
//! # The `.jts` format
//!
//! Columnar, append-only, and byte-deterministic:
//!
//! ```text
//! "JTS1" varint(version=1) msf(sample_every_ns)
//! varint(n_series) { varint(len) bytes }*        // series name table
//! records:
//!   0x01                                         // segment start
//!   0x02 varint(len) payload                     // sample block
//! footer (0x03 varint(len) payload):
//!   label table, per-segment sample counts + end time + final
//!   ledger/trace column values (raw f64 bits), total sample count
//! trailer: u64le footer_offset "JTSE"
//! ```
//!
//! A sample block holds up to [`BLOCK_SAMPLES`] samples: a
//! delta-of-delta timestamp column (on the `wire.rs` maybe-scaled
//! integer path, raw-bits fallback) followed by one column per series
//! where each value is either a zigzag varint of the scaled delta
//! against the previous value or an XOR of raw f64 bits — every value
//! round-trips bit-for-bit. A new run streamed through the same sink
//! (detected by a sequence-number restart, exactly like
//! [`crate::trace::split_shards`]) opens a new segment with fresh
//! state.
//!
//! Checkpoint/resume mirrors the `.jtb` writer: `ckpt_state` flushes
//! and fsyncs the prefix, then serializes the writer offset, the
//! per-series carry values, the un-flushed sample buffer, and the full
//! sampler state; [`TimelineSink::resume`] truncates the file to the
//! checkpointed offset and continues, so a resumed timeline is
//! byte-identical to an uninterrupted one.

use crate::trace::{TraceEvent, TraceEventKind, TraceSink};
use crate::wire::{is_torn_tail, put_msf, put_varint, unzigzag, zigzag, Cur, Feed, FollowStatus};
use jem_energy::{Component, EnergyBreakdown};
use std::io::Write;

/// `.jts` leading magic.
pub const JTS_MAGIC: &[u8; 4] = b"JTS1";
/// `.jts` trailing magic (after the footer offset).
const JTS_END_MAGIC: &[u8; 4] = b"JTSE";
/// Timeline writer checkpoint-state magic.
const JSS_MAGIC: &[u8; 4] = b"JSS2";
/// Record tags.
const R_SEGMENT: u8 = 0x01;
const R_SAMPLES: u8 = 0x02;
const R_FOOTER: u8 = 0x03;
/// Samples per encoded block (flush granularity).
pub const BLOCK_SAMPLES: usize = 512;

/// Sniff: does `bytes` look like a `.jts` timeline?
pub fn is_jts(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == JTS_MAGIC
}

// ---------------------------------------------------------------
// Series catalogue
// ---------------------------------------------------------------

const COMPONENTS: usize = 5;
const S_CUM: usize = 0; // + component index
const S_TRACE: usize = S_CUM + COMPONENTS; // + component index
const S_EI: usize = 10;
const S_ER: usize = 11;
const S_EL1: usize = 12;
const S_ERR: usize = 15;
const S_TRUE_CLASS: usize = 16;
const S_CHOSEN_CLASS: usize = 17;
const S_BREAKER: usize = 18;
const S_RETRIES: usize = 19;
const S_FALLBACKS: usize = 20;
const S_DEGRADED: usize = 21;
const S_INSTRUCTIONS: usize = 22;
const S_INVOCATIONS: usize = 23;
/// Number of series every `.jts` file carries (the catalogue is
/// fixed: series identity is positional, names are self-describing).
pub const N_SERIES: usize = 24;

/// The fixed series catalogue, in column order.
pub fn series_names() -> Vec<String> {
    let mut names = Vec::with_capacity(N_SERIES);
    for c in Component::ALL {
        names.push(format!("energy.{}.cum_nj", c.name()));
    }
    for c in Component::ALL {
        names.push(format!("energy.{}.trace_nj", c.name()));
    }
    for n in [
        "predictor.ei_nj",
        "predictor.er_nj",
        "predictor.el1_nj",
        "predictor.el2_nj",
        "predictor.el3_nj",
        "predictor.err_rel",
        "channel.true_class",
        "channel.chosen_class",
        "breaker.state",
        "counters.retries",
        "counters.fallbacks",
        "counters.degraded",
        "instructions",
        "invocations",
    ] {
        names.push(n.to_string());
    }
    debug_assert_eq!(names.len(), N_SERIES);
    names
}

/// Whether column `idx` holds label-table ids rather than quantities.
pub fn series_is_label(idx: usize) -> bool {
    matches!(idx, S_TRUE_CLASS | S_CHOSEN_CLASS | S_BREAKER)
}

// ---------------------------------------------------------------
// Value codec (maybe-scaled delta, XOR raw-bits fallback)
// ---------------------------------------------------------------

/// The `wire.rs` maybe-scaled test: `Some(v * 1000)` when that product
/// is an exactly-invertible integer.
fn scaled(v: f64) -> Option<i64> {
    let s = v * 1000.0;
    if s.is_finite() && s.fract() == 0.0 && s.abs() < 9.0e15 {
        let i = s as i64;
        if (i as f64) == s && (i as f64) / 1000.0 == v {
            return Some(i);
        }
    }
    None
}

fn put_val(out: &mut Vec<u8>, prev: f64, v: f64) {
    if let (Some(p), Some(c)) = (scaled(prev), scaled(v)) {
        put_varint(out, (zigzag(c - p) << 1) | 1);
        return;
    }
    out.push(0x00);
    out.extend_from_slice(&(v.to_bits() ^ prev.to_bits()).to_le_bytes());
}

fn get_val(cur: &mut Cur<'_>, prev: f64) -> Result<f64, String> {
    let tag = cur.varint()?;
    if tag & 1 == 1 {
        let p = scaled(prev).ok_or("jts: scaled delta against unscalable previous value")?;
        let c = p + unzigzag(tag >> 1);
        return Ok(c as f64 / 1000.0);
    }
    if tag != 0 {
        return Err("jts: reserved value tag".into());
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(cur.bytes(8)?);
    Ok(f64::from_bits(u64::from_le_bytes(a) ^ prev.to_bits()))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(cur: &mut Cur<'_>) -> Result<String, String> {
    let len = cur.varint()? as usize;
    if len > 1 << 20 {
        return Err("jts: implausible string length".into());
    }
    String::from_utf8(cur.bytes(len)?.to_vec()).map_err(|_| "jts: invalid utf-8".into())
}

fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f64_bits(cur: &mut Cur<'_>) -> Result<f64, String> {
    let mut a = [0u8; 8];
    a.copy_from_slice(cur.bytes(8)?);
    Ok(f64::from_bits(u64::from_le_bytes(a)))
}

// ---------------------------------------------------------------
// Sampler: event stream -> derived state vector
// ---------------------------------------------------------------

/// Derived run state, updated per event and copied out per sample.
struct Sampler {
    /// Sample cadence in sim-ns (0 = invocation boundaries only).
    every: f64,
    /// Current value of every series.
    vals: [f64; N_SERIES],
    /// Next scheduled sample time.
    next_t: f64,
    /// Timestamp of the last applied event.
    last_t: f64,
    /// State changed since the last emitted sample.
    dirty: bool,
    /// Last event sequence number (restart detection).
    prev_seq: Option<u64>,
    /// Chosen mode + predicted nJ of the pending decision, for the
    /// prediction-error series (same semantics as the regret monitor).
    pending: Option<(String, f64)>,
    /// Label table for the label-coded series; id 0 is "" (unknown).
    labels: Vec<String>,
}

impl Sampler {
    fn new(every: f64) -> Sampler {
        let mut s = Sampler {
            every,
            vals: [0.0; N_SERIES],
            next_t: every,
            last_t: 0.0,
            dirty: false,
            prev_seq: None,
            pending: None,
            labels: vec![String::new()],
        };
        s.reset();
        s
    }

    /// Reset per-segment state (the label table is file-global).
    fn reset(&mut self) {
        self.vals = [0.0; N_SERIES];
        self.next_t = self.every;
        self.last_t = 0.0;
        self.dirty = false;
        self.prev_seq = None;
        self.pending = None;
        let closed = self.intern("closed");
        self.vals[S_BREAKER] = closed;
    }

    fn intern(&mut self, label: &str) -> f64 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as f64;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as f64
    }

    fn apply(&mut self, ev: &TraceEvent, ledger: Option<&EnergyBreakdown>) {
        self.dirty = true;
        self.last_t = ev.at.nanos();
        for c in Component::ALL {
            self.vals[S_TRACE + c.index()] += ev.delta[c].nanojoules();
        }
        match ledger {
            // The exact cumulative ledger the tracer carries: these
            // snapshots ARE the machine's meters, so the final sample
            // equals the run's breakdown bit-for-bit.
            Some(l) => {
                for c in Component::ALL {
                    self.vals[S_CUM + c.index()] = l[c].nanojoules();
                }
            }
            // Events recorded without a ledger (`TraceSink::record`):
            // fall back to the delta prefix sums.
            None => {
                for c in Component::ALL {
                    self.vals[S_CUM + c.index()] = self.vals[S_TRACE + c.index()];
                }
            }
        }
        match &ev.kind {
            TraceEventKind::InvocationStart {
                true_class,
                chosen_class,
                ..
            } => {
                self.vals[S_TRUE_CLASS] = self.intern(true_class);
                self.vals[S_CHOSEN_CLASS] = self.intern(chosen_class);
            }
            TraceEventKind::DecisionEvaluated {
                interpret_nj,
                remote_nj,
                local_nj,
                chosen,
                ..
            } => {
                self.vals[S_EI] = *interpret_nj;
                self.vals[S_ER] = *remote_nj;
                for (i, nj) in local_nj.iter().enumerate() {
                    self.vals[S_EL1 + i] = *nj;
                }
                let predicted = match chosen.as_str() {
                    "interpret" => Some(*interpret_nj),
                    "remote" => Some(*remote_nj),
                    "local/L1" => Some(local_nj[0]),
                    "local/L2" => Some(local_nj[1]),
                    "local/L3" => Some(local_nj[2]),
                    _ => None,
                };
                if let Some(p) = predicted {
                    self.pending = Some((chosen.clone(), p));
                }
            }
            TraceEventKind::RetryAttempt { .. } => self.vals[S_RETRIES] += 1.0,
            TraceEventKind::Fallback { .. } => self.vals[S_FALLBACKS] += 1.0,
            TraceEventKind::Degraded { .. } => self.vals[S_DEGRADED] += 1.0,
            TraceEventKind::BreakerTransition { to, .. } => {
                self.vals[S_BREAKER] = self.intern(to);
            }
            TraceEventKind::InvocationEnd {
                mode,
                energy,
                instructions,
                ..
            } => {
                self.vals[S_INSTRUCTIONS] = *instructions as f64;
                self.vals[S_INVOCATIONS] += 1.0;
                if let Some((chosen, predicted)) = self.pending.take() {
                    if chosen == *mode {
                        let actual = energy.nanojoules();
                        self.vals[S_ERR] = (predicted - actual).abs() / actual.abs().max(1.0);
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------
// Writer sink
// ---------------------------------------------------------------

/// A completed segment's footer entry.
#[derive(Clone)]
struct SegMeta {
    samples: u64,
    end_t: f64,
    final_ledger: [f64; COMPONENTS],
    final_trace: [f64; COMPONENTS],
}

impl SegMeta {
    /// Parse one entry as the footer and the checkpoint state store it.
    fn read(cur: &mut Cur<'_>) -> Result<SegMeta, String> {
        let samples = cur.varint()?;
        let end_t = get_f64_bits(cur)?;
        let mut final_ledger = [0.0; COMPONENTS];
        let mut final_trace = [0.0; COMPONENTS];
        for v in final_ledger.iter_mut().chain(final_trace.iter_mut()) {
            *v = get_f64_bits(cur)?;
        }
        Ok(SegMeta {
            samples,
            end_t,
            final_ledger,
            final_trace,
        })
    }
}

/// Streaming `.jts` writer: a [`TraceSink`] that derives and persists
/// the timeline while never touching the simulation (see module docs).
pub struct TimelineSink {
    path: String,
    out: Option<std::io::BufWriter<std::fs::File>>,
    error: Option<std::io::Error>,
    /// Bytes handed to the writer so far (the checkpoint offset).
    offset: u64,
    sampler: Sampler,
    /// Buffered, not-yet-encoded samples of the open block.
    buf: Vec<(f64, [f64; N_SERIES])>,
    /// Per-series carry: last value written to the flushed stream in
    /// the current segment (0.0 at segment start).
    prev_vals: [f64; N_SERIES],
    /// Flushed sample count of the open segment (`None` = no segment).
    cur_flushed: Option<u64>,
    closed: Vec<SegMeta>,
    /// Invocation-aligned flush cadence (`--flush-every`); `None` (the
    /// default) keeps the output byte-identical to previous releases.
    flush_every_ns: Option<f64>,
    last_flush_t: f64,
}

impl TimelineSink {
    /// Create (truncate) `path` and write the `.jts` header.
    /// `sample_every_ns` is the sampling cadence in sim-nanoseconds;
    /// 0 samples at invocation boundaries only.
    ///
    /// # Errors
    /// File creation or header write errors.
    pub fn create(path: &str, sample_every_ns: f64) -> std::io::Result<TimelineSink> {
        let file = std::fs::File::create(path)?;
        let mut sink = TimelineSink {
            path: path.to_string(),
            out: Some(std::io::BufWriter::new(file)),
            error: None,
            offset: 0,
            sampler: Sampler::new(sample_every_ns),
            buf: Vec::new(),
            prev_vals: [0.0; N_SERIES],
            cur_flushed: None,
            closed: Vec::new(),
            flush_every_ns: None,
            last_flush_t: 0.0,
        };
        let mut header = Vec::new();
        header.extend_from_slice(JTS_MAGIC);
        put_varint(&mut header, 1);
        put_msf(&mut header, sample_every_ns);
        let names = series_names();
        put_varint(&mut header, names.len() as u64);
        for name in &names {
            put_string(&mut header, name);
        }
        sink.write(&header);
        match sink.error.take() {
            Some(e) => Err(e),
            None => Ok(sink),
        }
    }

    /// The destination path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Flush the open block and the file whenever an invocation ends
    /// at least `sim_ns` of sim-time after the previous flush — the
    /// `--flush-every` backend. Flushes land right after the forced
    /// invocation-end sample, so followers always see whole
    /// invocations. Blocks are cut early (the byte layout changes) but
    /// the decoded timeline is identical; off by default, keeping
    /// output byte-identical.
    pub fn set_flush_every(&mut self, sim_ns: f64) {
        self.flush_every_ns = Some(sim_ns);
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Some(out) = self.out.as_mut() {
            match out.write_all(bytes) {
                Ok(()) => self.offset += bytes.len() as u64,
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Observe one event (with the tracer's exact cumulative ledger
    /// when available). This is the whole sink: derived sampling only,
    /// no simulation state anywhere near it.
    pub fn observe(&mut self, ev: &TraceEvent, ledger: Option<&EnergyBreakdown>) {
        if let Some(prev) = self.sampler.prev_seq {
            if ev.seq <= prev {
                // Sequence restart: a new run is streaming through
                // the same sink (multi-unit sweeps).
                self.end_segment();
            }
        }
        if self.cur_flushed.is_none() {
            self.begin_segment();
        }
        self.sampler.prev_seq = Some(ev.seq);
        let at = ev.at.nanos();
        if self.sampler.every > 0.0 {
            while self.sampler.next_t < at {
                let t = self.sampler.next_t;
                self.push_sample(t);
                self.sampler.next_t += self.sampler.every;
            }
        }
        self.sampler.apply(ev, ledger);
        if matches!(ev.kind, TraceEventKind::InvocationEnd { .. }) {
            self.push_sample(at);
            if self.sampler.every > 0.0 {
                while self.sampler.next_t <= at {
                    self.sampler.next_t += self.sampler.every;
                }
            }
            if let Some(every) = self.flush_every_ns {
                if at >= self.last_flush_t + every {
                    self.last_flush_t = at;
                    self.flush_block();
                    if self.error.is_none() {
                        if let Some(out) = self.out.as_mut() {
                            if let Err(e) = out.flush() {
                                self.error = Some(e);
                            }
                        }
                    }
                }
            }
        }
    }

    fn begin_segment(&mut self) {
        self.sampler.reset();
        // A segment is one run, whose sim time starts at 0 again.
        self.last_flush_t = 0.0;
        self.prev_vals = [0.0; N_SERIES];
        self.cur_flushed = Some(0);
        self.write(&[R_SEGMENT]);
    }

    fn end_segment(&mut self) {
        if self.cur_flushed.is_none() {
            return;
        }
        // Events after the last sample (rare: trailing non-boundary
        // events) would otherwise leave the footer finals ahead of the
        // last sample; force a closing sample so "last sample == footer
        // finals" holds bit-for-bit in every segment.
        if self.sampler.dirty {
            self.push_sample(self.sampler.last_t);
        }
        self.flush_block();
        let samples = self.cur_flushed.unwrap_or(0);
        let mut final_ledger = [0.0; COMPONENTS];
        let mut final_trace = [0.0; COMPONENTS];
        final_ledger.copy_from_slice(&self.sampler.vals[S_CUM..S_CUM + COMPONENTS]);
        final_trace.copy_from_slice(&self.sampler.vals[S_TRACE..S_TRACE + COMPONENTS]);
        self.closed.push(SegMeta {
            samples,
            end_t: self.sampler.last_t,
            final_ledger,
            final_trace,
        });
        self.cur_flushed = None;
    }

    fn push_sample(&mut self, t: f64) {
        self.buf.push((t, self.sampler.vals));
        self.sampler.dirty = false;
        if self.buf.len() >= BLOCK_SAMPLES {
            self.flush_block();
        }
    }

    fn flush_block(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut payload = Vec::with_capacity(self.buf.len() * (N_SERIES + 2));
        put_varint(&mut payload, self.buf.len() as u64);
        // Timestamp column: absolute first, then delta-of-delta on the
        // scaled-integer path.
        put_msf(&mut payload, self.buf[0].0);
        let mut prev_t = self.buf[0].0;
        let mut prev_d: i64 = 0;
        for &(t, _) in &self.buf[1..] {
            if let (Some(a), Some(b)) = (scaled(prev_t), scaled(t)) {
                let d = b - a;
                put_varint(&mut payload, (zigzag(d - prev_d) << 1) | 1);
                prev_d = d;
            } else {
                payload.push(0x00);
                put_f64_bits(&mut payload, t);
                prev_d = 0;
            }
            prev_t = t;
        }
        // Value columns, one per series, delta-chained across blocks.
        for s in 0..N_SERIES {
            let mut prev = self.prev_vals[s];
            for &(_, vals) in &self.buf {
                put_val(&mut payload, prev, vals[s]);
                prev = vals[s];
            }
            self.prev_vals[s] = prev;
        }
        let mut rec = Vec::with_capacity(payload.len() + 8);
        rec.push(R_SAMPLES);
        put_varint(&mut rec, payload.len() as u64);
        rec.extend_from_slice(&payload);
        if let Some(f) = self.cur_flushed.as_mut() {
            *f += self.buf.len() as u64;
        }
        self.buf.clear();
        self.write(&rec);
    }

    /// Finish the stream: close the open segment, write the footer
    /// (label table, per-segment finals) and trailer, flush the file.
    ///
    /// # Errors
    /// Any latched write error or the footer write error.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.end_segment();
        let footer_offset = self.offset;
        let mut payload = Vec::new();
        put_varint(&mut payload, self.sampler.labels.len() as u64);
        for label in &self.sampler.labels {
            put_string(&mut payload, label);
        }
        put_varint(&mut payload, self.closed.len() as u64);
        let mut total = 0u64;
        for seg in &self.closed {
            put_varint(&mut payload, seg.samples);
            put_f64_bits(&mut payload, seg.end_t);
            for v in seg.final_ledger {
                put_f64_bits(&mut payload, v);
            }
            for v in seg.final_trace {
                put_f64_bits(&mut payload, v);
            }
            total += seg.samples;
        }
        put_varint(&mut payload, total);
        let mut rec = vec![R_FOOTER];
        put_varint(&mut rec, payload.len() as u64);
        rec.extend_from_slice(&payload);
        rec.extend_from_slice(&footer_offset.to_le_bytes());
        rec.extend_from_slice(JTS_END_MAGIC);
        self.write(&rec);
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match self.out.take() {
            Some(mut out) => out.flush(),
            None => Ok(()),
        }
    }

    // -----------------------------------------------------------
    // Checkpoint / resume
    // -----------------------------------------------------------

    /// Serialize the resumable writer state: the flushed-byte offset,
    /// the per-series carries, the buffered (un-flushed) samples, and
    /// the sampler. Call after a successful flush+fsync (see
    /// [`TraceSink::ckpt_state`]).
    fn encode_ckpt(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(JSS_MAGIC);
        out.extend_from_slice(&self.offset.to_le_bytes());
        put_f64_bits(&mut out, self.sampler.every);
        put_f64_bits(&mut out, self.last_flush_t);
        put_varint(&mut out, self.closed.len() as u64);
        for seg in &self.closed {
            put_varint(&mut out, seg.samples);
            put_f64_bits(&mut out, seg.end_t);
            for v in seg.final_ledger {
                put_f64_bits(&mut out, v);
            }
            for v in seg.final_trace {
                put_f64_bits(&mut out, v);
            }
        }
        match self.cur_flushed {
            Some(flushed) => {
                out.push(1);
                put_varint(&mut out, flushed);
            }
            None => out.push(0),
        }
        for v in self.prev_vals {
            put_f64_bits(&mut out, v);
        }
        put_varint(&mut out, self.buf.len() as u64);
        for (t, vals) in &self.buf {
            put_f64_bits(&mut out, *t);
            for v in vals {
                put_f64_bits(&mut out, *v);
            }
        }
        // Sampler.
        put_f64_bits(&mut out, self.sampler.next_t);
        put_f64_bits(&mut out, self.sampler.last_t);
        out.push(self.sampler.dirty as u8);
        match self.sampler.prev_seq {
            Some(seq) => {
                out.push(1);
                put_varint(&mut out, seq);
            }
            None => out.push(0),
        }
        match &self.sampler.pending {
            Some((chosen, predicted)) => {
                out.push(1);
                put_string(&mut out, chosen);
                put_f64_bits(&mut out, *predicted);
            }
            None => out.push(0),
        }
        put_varint(&mut out, self.sampler.labels.len() as u64);
        for label in &self.sampler.labels {
            put_string(&mut out, label);
        }
        for v in self.sampler.vals {
            put_f64_bits(&mut out, v);
        }
        out
    }

    /// Reopen `path` at a checkpointed writer state: the file is
    /// truncated to the state's recorded offset and the sampler,
    /// carries, buffered samples and last flush time are restored, so
    /// the finished file is byte-identical to one from an
    /// uninterrupted run.
    ///
    /// # Errors
    /// State corruption, or the file being shorter than the
    /// checkpointed offset.
    pub fn resume(path: &str, state: &[u8]) -> Result<TimelineSink, String> {
        use std::io::{Seek, SeekFrom};
        let mut cur = Cur::new(state);
        if cur.bytes(4)? != JSS_MAGIC {
            return Err("jts: checkpoint state has wrong magic".into());
        }
        let mut off = [0u8; 8];
        off.copy_from_slice(cur.bytes(8)?);
        let offset = u64::from_le_bytes(off);
        let every = get_f64_bits(&mut cur)?;
        let last_flush_t = get_f64_bits(&mut cur)?;
        let n_closed = cur.varint()? as usize;
        if n_closed > 1 << 20 {
            return Err("jts: implausible segment count in checkpoint".into());
        }
        let mut closed = Vec::with_capacity(n_closed);
        for _ in 0..n_closed {
            closed.push(SegMeta::read(&mut cur)?);
        }
        let cur_flushed = match cur.u8()? {
            0 => None,
            1 => Some(cur.varint()?),
            _ => return Err("jts: bad segment-open flag in checkpoint".into()),
        };
        let mut prev_vals = [0.0; N_SERIES];
        for v in prev_vals.iter_mut() {
            *v = get_f64_bits(&mut cur)?;
        }
        let n_buf = cur.varint()? as usize;
        if n_buf > BLOCK_SAMPLES {
            return Err("jts: implausible buffered-sample count in checkpoint".into());
        }
        let mut buf = Vec::with_capacity(n_buf);
        for _ in 0..n_buf {
            let t = get_f64_bits(&mut cur)?;
            let mut vals = [0.0; N_SERIES];
            for v in vals.iter_mut() {
                *v = get_f64_bits(&mut cur)?;
            }
            buf.push((t, vals));
        }
        let mut sampler = Sampler::new(every);
        sampler.next_t = get_f64_bits(&mut cur)?;
        sampler.last_t = get_f64_bits(&mut cur)?;
        sampler.dirty = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err("jts: bad dirty flag in checkpoint".into()),
        };
        sampler.prev_seq = match cur.u8()? {
            0 => None,
            1 => Some(cur.varint()?),
            _ => return Err("jts: bad prev-seq flag in checkpoint".into()),
        };
        sampler.pending = match cur.u8()? {
            0 => None,
            1 => {
                let chosen = get_string(&mut cur)?;
                let predicted = get_f64_bits(&mut cur)?;
                Some((chosen, predicted))
            }
            _ => return Err("jts: bad pending flag in checkpoint".into()),
        };
        let n_labels = cur.varint()? as usize;
        if n_labels > 1 << 20 {
            return Err("jts: implausible label count in checkpoint".into());
        }
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            labels.push(get_string(&mut cur)?);
        }
        sampler.labels = labels;
        for v in sampler.vals.iter_mut() {
            *v = get_f64_bits(&mut cur)?;
        }
        if cur.remaining() != 0 {
            return Err("jts: trailing bytes in checkpoint state".into());
        }

        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("jts: cannot reopen {path}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("jts: cannot stat {path}: {e}"))?
            .len();
        if len < offset {
            return Err(format!(
                "jts: {path} is shorter ({len} bytes) than its checkpointed offset {offset}"
            ));
        }
        file.set_len(offset)
            .map_err(|e| format!("jts: cannot truncate {path}: {e}"))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("jts: cannot seek {path}: {e}"))?;
        Ok(TimelineSink {
            path: path.to_string(),
            out: Some(std::io::BufWriter::new(file)),
            error: None,
            offset,
            sampler,
            buf,
            prev_vals,
            cur_flushed,
            closed,
            flush_every_ns: None,
            last_flush_t,
        })
    }
}

impl TraceSink for TimelineSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.observe(&event, None);
    }

    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        self.observe(&event, Some(ledger));
    }

    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        if self.error.is_some() {
            return None;
        }
        if let Some(out) = self.out.as_mut() {
            // The checkpoint claims every byte below `offset` is in
            // the file; make that durable before the state escapes.
            if let Err(e) = out.flush().and_then(|()| out.get_ref().sync_data()) {
                self.error = Some(e);
                return None;
            }
        }
        Some(self.encode_ckpt())
    }
}

// ---------------------------------------------------------------
// Reader
// ---------------------------------------------------------------

/// One record decoded by [`JtsDecoder::step`].
enum JtsRecord {
    /// The header (cadence and series names land in the decoder).
    Header,
    /// A new segment starts.
    Segment,
    /// One sample block of the open segment: the timestamps and one
    /// column per series.
    Samples {
        times: Vec<f64>,
        cols: Vec<Vec<f64>>,
    },
    /// The footer, cross-checked against the decoded records and
    /// followed by a trailer that points back at it: one entry per
    /// segment.
    Footer(Vec<SegMeta>),
}

/// The one `.jts` read-side decoder, behind both [`Timeline::read`]
/// (whole buffer) and [`JtsFollower`] (growing file). It parses the
/// header or one record from the front of a byte slice; a slice that
/// ends mid-record fails with a torn-tail error and leaves the state
/// untouched, exactly like the `.jtb` decoder.
#[derive(Default)]
struct JtsDecoder {
    header_done: bool,
    sample_every_ns: f64,
    series: Vec<String>,
    /// Decoded sample count per segment so far.
    seg_samples: Vec<u64>,
    /// Per-series delta-chain carry of the open segment.
    prev_vals: [f64; N_SERIES],
    labels: Vec<String>,
    done: bool,
}

impl JtsDecoder {
    /// Decode the header or the record at the front of `data`, which
    /// starts at file offset `offset`; returns it with the number of
    /// bytes it spans.
    fn step(&mut self, data: &[u8], offset: u64) -> Result<(JtsRecord, usize), String> {
        let mut cur = Cur::new(data);
        if !self.header_done {
            if cur.bytes(4)? != JTS_MAGIC {
                return Err("jts: missing JTS1 magic".into());
            }
            let version = cur.varint()?;
            if version != 1 {
                return Err(format!("jts: unsupported version {version}"));
            }
            let sample_every_ns = cur.msf()?;
            let n_series = cur.varint()? as usize;
            if n_series != N_SERIES {
                return Err(format!(
                    "jts: file has {n_series} series, this build expects {N_SERIES}"
                ));
            }
            let mut series = Vec::with_capacity(n_series);
            for _ in 0..n_series {
                series.push(get_string(&mut cur)?);
            }
            self.sample_every_ns = sample_every_ns;
            self.series = series;
            self.header_done = true;
            return Ok((JtsRecord::Header, cur.pos()));
        }
        let record = match cur.u8()? {
            R_SEGMENT => {
                self.seg_samples.push(0);
                self.prev_vals = [0.0; N_SERIES];
                JtsRecord::Segment
            }
            R_SAMPLES => {
                let len = cur.varint()? as usize;
                let block = cur.bytes(len)?;
                let Some(count) = self.seg_samples.last_mut() else {
                    return Err("jts: sample block before any segment record".into());
                };
                let (times, cols) = decode_samples(block, &mut self.prev_vals)?;
                *count += times.len() as u64;
                JtsRecord::Samples { times, cols }
            }
            R_FOOTER => {
                let flen = cur.varint()? as usize;
                let mut fcur = Cur::new(cur.bytes(flen)?);
                let trailer = cur.bytes(12)?;
                let n_labels = fcur.varint()? as usize;
                if n_labels > 1 << 20 {
                    return Err("jts: implausible label count".into());
                }
                let mut labels = Vec::with_capacity(n_labels);
                for _ in 0..n_labels {
                    labels.push(get_string(&mut fcur)?);
                }
                let n_segments = fcur.varint()? as usize;
                if n_segments != self.seg_samples.len() {
                    return Err(format!(
                        "jts: {} segment records but footer declares {n_segments}",
                        self.seg_samples.len()
                    ));
                }
                let mut metas = Vec::with_capacity(n_segments);
                for &decoded in &self.seg_samples {
                    let meta = SegMeta::read(&mut fcur)?;
                    if meta.samples != decoded {
                        return Err(format!(
                            "jts: segment holds {decoded} samples but footer declares {}",
                            meta.samples
                        ));
                    }
                    metas.push(meta);
                }
                let total: u64 = self.seg_samples.iter().sum();
                let footer_total = fcur.varint()?;
                if fcur.remaining() != 0 {
                    return Err("jts: trailing bytes in footer".into());
                }
                if total != footer_total {
                    return Err(format!(
                        "jts: {total} decoded samples but footer declares {footer_total}"
                    ));
                }
                if trailer[..8] != offset.to_le_bytes() || &trailer[8..] != JTS_END_MAGIC {
                    return Err("jts: bad trailer (truncated or corrupt file)".into());
                }
                self.labels = labels;
                self.done = true;
                JtsRecord::Footer(metas)
            }
            other => return Err(format!("jts: unknown record tag {other}")),
        };
        Ok((record, cur.pos()))
    }
}

/// Decode one sample block payload against the per-series carry
/// `prev`, which is updated only when the whole block decodes.
fn decode_samples(
    block: &[u8],
    prev: &mut [f64; N_SERIES],
) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
    let mut bcur = Cur::new(block);
    let n = bcur.varint()? as usize;
    if n == 0 || n > BLOCK_SAMPLES {
        return Err(format!("jts: implausible block sample count {n}"));
    }
    let mut times = Vec::with_capacity(n);
    let mut t = bcur.msf()?;
    times.push(t);
    let mut prev_d: i64 = 0;
    for _ in 1..n {
        let tag = bcur.varint()?;
        if tag & 1 == 1 {
            let a = scaled(t).ok_or("jts: scaled timestamp delta against raw previous")?;
            let d = prev_d + unzigzag(tag >> 1);
            t = (a + d) as f64 / 1000.0;
            prev_d = d;
        } else if tag == 0 {
            t = get_f64_bits(&mut bcur)?;
            prev_d = 0;
        } else {
            return Err("jts: reserved timestamp tag".into());
        }
        times.push(t);
    }
    let mut carry = *prev;
    let mut cols = Vec::with_capacity(N_SERIES);
    for p in carry.iter_mut() {
        let mut col = Vec::with_capacity(n);
        for _ in 0..n {
            *p = get_val(&mut bcur, *p)?;
            col.push(*p);
        }
        cols.push(col);
    }
    if bcur.remaining() != 0 {
        return Err("jts: trailing bytes in sample block".into());
    }
    *prev = carry;
    Ok((times, cols))
}

/// One decoded segment (one run streamed through the sink).
pub struct TimelineSegment {
    /// Sample timestamps (sim-ns, non-decreasing).
    pub times: Vec<f64>,
    /// One column per series, each `times.len()` long.
    pub cols: Vec<Vec<f64>>,
    /// Sim-time of the segment's last event.
    pub end_t: f64,
    /// Footer copy of the final ledger-cumulative column values (nJ,
    /// [`Component::ALL`] order).
    pub final_ledger: [f64; 5],
    /// Footer copy of the final delta-prefix-sum column values.
    pub final_trace: [f64; 5],
}

impl TimelineSegment {
    /// `∫ rate dt` over `[0, end]` for the component's derived
    /// energy-rate series. The rate series is the difference quotient
    /// of the cumulative column, so the integral telescopes to the
    /// final cumulative sample — an exact value, not a quadrature
    /// estimate, which is what makes the conservation check bit-exact.
    pub fn rate_integral_nj(&self, component: Component) -> f64 {
        self.cols[S_CUM + component.index()]
            .last()
            .copied()
            .unwrap_or(0.0)
    }

    /// Value of series `idx` at the last sample with `time <= t`
    /// (0.0 before the first sample — every column starts from zero
    /// state). For prefix-sum columns this is the windowed `[0, t]`
    /// aggregate.
    pub fn value_at(&self, idx: usize, t: f64) -> f64 {
        let n = self.times.partition_point(|&st| st <= t);
        if n == 0 {
            0.0
        } else {
            self.cols[idx][n - 1]
        }
    }
}

/// A fully-decoded `.jts` timeline.
pub struct Timeline {
    /// Sampling cadence (sim-ns; 0 = boundaries only).
    pub sample_every_ns: f64,
    /// Series names, column order.
    pub series: Vec<String>,
    /// Label table for label-coded series.
    pub labels: Vec<String>,
    /// Decoded segments in stream order.
    pub segments: Vec<TimelineSegment>,
}

impl Timeline {
    /// Decode a `.jts` byte stream (header, records, footer, trailer)
    /// with the same decoder [`JtsFollower`] runs, which cross-checks
    /// the record structure against the footer.
    ///
    /// # Errors
    /// Corrupt or truncated input.
    pub fn read(bytes: &[u8]) -> Result<Timeline, String> {
        let mut dec = JtsDecoder::default();
        let mut segments: Vec<TimelineSegment> = Vec::new();
        let mut pos = 0;
        let metas = loop {
            let (record, used) = dec.step(&bytes[pos..], pos as u64).map_err(|e| {
                if is_torn_tail(&e) {
                    "jts: missing JTSE trailer (torn file?)".to_string()
                } else {
                    e
                }
            })?;
            pos += used;
            match record {
                JtsRecord::Header => {}
                JtsRecord::Segment => segments.push(TimelineSegment {
                    times: Vec::new(),
                    cols: vec![Vec::new(); N_SERIES],
                    end_t: 0.0,
                    final_ledger: [0.0; COMPONENTS],
                    final_trace: [0.0; COMPONENTS],
                }),
                JtsRecord::Samples { times, cols } => {
                    let seg = segments
                        .last_mut()
                        .expect("decoder checks a segment is open");
                    seg.times.extend(times);
                    for (col, block) in seg.cols.iter_mut().zip(cols) {
                        col.extend(block);
                    }
                }
                JtsRecord::Footer(metas) => break metas,
            }
        };
        if pos != bytes.len() {
            return Err("jts: trailing bytes after the trailer".into());
        }
        for (seg, meta) in segments.iter_mut().zip(metas) {
            seg.end_t = meta.end_t;
            seg.final_ledger = meta.final_ledger;
            seg.final_trace = meta.final_trace;
        }
        Ok(Timeline {
            sample_every_ns: dec.sample_every_ns,
            series: dec.series,
            labels: dec.labels,
            segments,
        })
    }

    /// Column index of a series by name.
    pub fn series_index(&self, name: &str) -> Option<usize> {
        self.series.iter().position(|s| s == name)
    }

    /// Total sample count across segments.
    pub fn samples(&self) -> usize {
        self.segments.iter().map(|s| s.times.len()).sum()
    }

    /// Render the `jem-timeline/v1` JSON export (the document
    /// `schemas/timeline.schema.json` pins): `selected` names the
    /// column indices to export, `keep` filters samples by sim-time.
    /// Per segment the document carries parallel arrays — `times_ns`
    /// plus `values`, one inner array per selected series in `series`
    /// order — so it stays within the workspace's JSON-Schema
    /// validator subset (no name-keyed maps of varying keys).
    pub fn export_json(&self, selected: &[usize], keep: impl Fn(f64) -> bool) -> crate::Json {
        use crate::Json;
        let series: Vec<Json> = selected
            .iter()
            .map(|&idx| Json::from(self.series[idx].as_str()))
            .collect();
        let labels: Vec<Json> = self.labels.iter().map(|l| Json::from(l.as_str())).collect();
        let mut segments = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            let rows: Vec<usize> = (0..seg.times.len())
                .filter(|&row| keep(seg.times[row]))
                .collect();
            let times: Vec<Json> = rows.iter().map(|&row| Json::from(seg.times[row])).collect();
            let values: Vec<Json> = selected
                .iter()
                .map(|&idx| {
                    Json::Arr(
                        rows.iter()
                            .map(|&row| Json::from(seg.cols[idx][row]))
                            .collect(),
                    )
                })
                .collect();
            segments.push(
                Json::object()
                    .with("end_t_ns", seg.end_t)
                    .with("times_ns", Json::Arr(times))
                    .with("values", Json::Arr(values)),
            );
        }
        Json::object()
            .with("format", "jem-timeline/v1")
            .with("sample_every_ns", self.sample_every_ns)
            .with("series", Json::Arr(series))
            .with("labels", Json::Arr(labels))
            .with("segments", Json::Arr(segments))
    }
}

// ---------------------------------------------------------------
// Follow-mode reader
// ---------------------------------------------------------------

/// One decoded live sample from a followed `.jts` file.
#[derive(Debug, Clone, PartialEq)]
pub struct JtsSample {
    /// Zero-based segment index the sample belongs to.
    pub segment: usize,
    /// Sim-time of the sample (ns).
    pub t: f64,
    /// All [`N_SERIES`] column values at the sample.
    pub vals: [f64; N_SERIES],
}

/// Tail a growing `.jts` file: decodes complete sample blocks as they
/// land, treats torn tails as [`FollowStatus::Idle`], and carries the
/// per-series delta chain across polls so the concatenation of polled
/// samples converges to exactly the [`Timeline::read`] full-file
/// decode once the writer finishes. Labels live only in the footer,
/// so [`JtsFollower::labels`] is empty until the file completes —
/// live consumers show `label#N` for label-coded series meanwhile.
pub struct JtsFollower {
    feed: Feed<std::fs::File>,
    dec: JtsDecoder,
}

impl JtsFollower {
    /// Open `path` for tailing. The file must exist but may be empty
    /// or torn mid-record.
    ///
    /// # Errors
    /// Only filesystem errors; nothing is decoded yet.
    pub fn open(path: &str) -> Result<JtsFollower, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("jts: cannot open {path}: {e}"))?;
        Ok(JtsFollower {
            feed: Feed::new(file),
            dec: JtsDecoder::default(),
        })
    }

    /// Read newly-appended bytes and decode every complete record.
    ///
    /// # Errors
    /// Real corruption only; short data is [`FollowStatus::Idle`].
    pub fn poll(&mut self) -> Result<FollowStatus<JtsSample>, String> {
        let mut out = Vec::new();
        while !self.dec.done {
            let dec = &mut self.dec;
            let Some(record) = self.feed.decode(|data, offset| dec.step(data, offset))? else {
                break;
            };
            if let JtsRecord::Samples { times, cols } = record {
                let segment = self.dec.seg_samples.len() - 1;
                for (row, &t) in times.iter().enumerate() {
                    let mut vals = [0.0; N_SERIES];
                    for (v, col) in vals.iter_mut().zip(&cols) {
                        *v = col[row];
                    }
                    out.push(JtsSample { segment, t, vals });
                }
            }
        }
        Ok(FollowStatus::of(out, self.dec.done))
    }

    /// Segments seen so far.
    pub fn segments(&self) -> usize {
        self.dec.seg_samples.len()
    }

    /// Samples decoded so far across all segments.
    pub fn samples(&self) -> u64 {
        self.dec.seg_samples.iter().sum()
    }

    /// Label table — only populated after [`FollowStatus::End`]
    /// (labels are written with the footer).
    pub fn labels(&self) -> &[String] {
        &self.dec.labels
    }
}

/// Reader-role alias for [`Timeline`], so follow mode reads as
/// `JtsReader::follow(path)` next to `JtbStream::follow(path)`.
pub type JtsReader = Timeline;

impl Timeline {
    /// Open `path` in follow (tail) mode.
    ///
    /// # Errors
    /// Filesystem errors opening the path.
    pub fn follow(path: &str) -> Result<JtsFollower, String> {
        JtsFollower::open(path)
    }
}

/// Validation summary for a `.jts` file (the `jem check` contract).
pub struct JtsSummary {
    /// Segments in the file.
    pub segments: usize,
    /// Total samples across segments.
    pub samples: usize,
    /// Series count (always [`N_SERIES`] for version 1).
    pub series: usize,
    /// Sampling cadence (sim-ns).
    pub sample_every_ns: f64,
}

/// Fully validate a `.jts` byte stream: decode everything, require
/// non-decreasing sim-time per segment, and require the rate-series
/// integral of every energy column to equal the footer finals
/// *bit-for-bit* (the integral telescopes to the last cumulative
/// sample, so any mismatch means the stream and footer disagree).
///
/// # Errors
/// Describes the first violated invariant.
pub fn validate_jts(bytes: &[u8]) -> Result<JtsSummary, String> {
    let tl = Timeline::read(bytes)?;
    for (i, seg) in tl.segments.iter().enumerate() {
        for w in seg.times.windows(2) {
            if w[1] < w[0] {
                return Err(format!(
                    "jts: segment {i} sim-time goes backwards ({} -> {})",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&last_t) = seg.times.last() {
            if last_t > seg.end_t {
                return Err(format!(
                    "jts: segment {i} samples past its declared end time"
                ));
            }
        }
        for c in Component::ALL {
            let integral = seg.rate_integral_nj(c);
            let want = seg.final_ledger[c.index()];
            if integral.to_bits() != want.to_bits() {
                return Err(format!(
                    "jts: segment {i} {} rate integral {integral} != footer final {want} \
                     (bit-exact check)",
                    c.name()
                ));
            }
            let trace_last = seg.cols[S_TRACE + c.index()].last().copied().unwrap_or(0.0);
            let trace_want = seg.final_trace[c.index()];
            if trace_last.to_bits() != trace_want.to_bits() {
                return Err(format!(
                    "jts: segment {i} {} trace prefix {trace_last} != footer final {trace_want}",
                    c.name()
                ));
            }
        }
        for idx in [S_RETRIES, S_FALLBACKS, S_DEGRADED, S_INVOCATIONS] {
            let col = &seg.cols[idx];
            for w in col.windows(2) {
                if w[1] < w[0] {
                    return Err(format!(
                        "jts: segment {i} counter series '{}' decreases",
                        tl.series[idx]
                    ));
                }
            }
        }
    }
    Ok(JtsSummary {
        segments: tl.segments.len(),
        samples: tl.samples(),
        series: tl.series.len(),
        sample_every_ns: tl.sample_every_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::{Energy, SimTime};

    fn delta(c: Component, nj: f64) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.charge(c, Energy::from_nanojoules(nj));
        b
    }

    fn ev(seq: u64, at: f64, d: EnergyBreakdown, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            invocation: 1 + seq / 4,
            ordinal: seq % 4,
            at: SimTime::from_nanos(at),
            delta: d,
            kind,
        }
    }

    fn end(seq: u64, at: f64, nj: f64) -> TraceEvent {
        ev(
            seq,
            at,
            delta(Component::Core, nj),
            TraceEventKind::InvocationEnd {
                mode: "interpret".into(),
                energy: Energy::from_nanojoules(nj),
                time: SimTime::from_nanos(10.0),
                instructions: 100 * seq,
            },
        )
    }

    fn drive(sink: &mut TimelineSink, events: &[TraceEvent]) {
        let mut ledger = EnergyBreakdown::new();
        for e in events {
            ledger += e.delta;
            sink.observe(e, Some(&ledger));
        }
    }

    fn synthetic_events(n: u64) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for i in 0..n {
            let base = i * 4;
            out.push(ev(
                base,
                (base * 25) as f64,
                delta(Component::Dram, 0.125 * i as f64),
                TraceEventKind::InvocationStart {
                    strategy: "AA".into(),
                    method: "t::m".into(),
                    size: 32,
                    true_class: "C2".into(),
                    chosen_class: "C3".into(),
                },
            ));
            out.push(ev(
                base + 1,
                (base * 25 + 10) as f64,
                delta(Component::Leakage, 0.5),
                TraceEventKind::DecisionEvaluated {
                    k: i,
                    s_bar: 31.5,
                    pa_bar_w: 0.1,
                    interpret_nj: 100.0 + i as f64,
                    remote_nj: 90.0,
                    local_nj: [80.0, 70.0, 60.0 + 0.001 * i as f64],
                    chosen: "interpret".into(),
                    remote_allowed: true,
                },
            ));
            if i % 3 == 0 {
                out.push(ev(
                    base + 2,
                    (base * 25 + 20) as f64,
                    delta(Component::RadioTx, 7.25),
                    TraceEventKind::RetryAttempt {
                        attempt: 1,
                        backoff: SimTime::from_nanos(5.0),
                    },
                ));
            }
            out.push(end(base + 3, (base * 25 + 90) as f64, 105.0 + i as f64));
        }
        out
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(40);
        let mut sink = TimelineSink::create(path, 100.0).unwrap();
        drive(&mut sink, &events);
        sink.finish().unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert!(is_jts(&bytes));
        let tl = Timeline::read(&bytes).unwrap();
        assert_eq!(tl.series, series_names());
        assert_eq!(tl.segments.len(), 1);
        let seg = &tl.segments[0];
        // Bit-exact reconstruction of the sampled state: replay the
        // sampler in-memory and compare every sample.
        let mut sampler = Sampler::new(100.0);
        sampler.reset();
        let mut ledger = EnergyBreakdown::new();
        let mut want: Vec<(f64, [f64; N_SERIES])> = Vec::new();
        for e in &events {
            ledger += e.delta;
            let at = e.at.nanos();
            while sampler.next_t < at {
                want.push((sampler.next_t, sampler.vals));
                sampler.next_t += 100.0;
            }
            sampler.apply(e, Some(&ledger));
            if matches!(e.kind, TraceEventKind::InvocationEnd { .. }) {
                want.push((at, sampler.vals));
                while sampler.next_t <= at {
                    sampler.next_t += 100.0;
                }
            }
        }
        assert_eq!(seg.times.len(), want.len());
        for (i, (t, vals)) in want.iter().enumerate() {
            assert_eq!(seg.times[i].to_bits(), t.to_bits(), "time {i}");
            for (s, v) in vals.iter().enumerate() {
                assert_eq!(
                    seg.cols[s][i].to_bits(),
                    v.to_bits(),
                    "sample {i} series {}",
                    tl.series[s]
                );
            }
        }
        validate_jts(&bytes).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rate_integral_telescopes_to_final_ledger() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(25);
        let mut ledger = EnergyBreakdown::new();
        let mut sink = TimelineSink::create(path, 1000.0).unwrap();
        for e in &events {
            ledger += e.delta;
            sink.observe(e, Some(&ledger));
        }
        sink.finish().unwrap();
        let tl = Timeline::read(&std::fs::read(path).unwrap()).unwrap();
        let seg = &tl.segments[0];
        for c in Component::ALL {
            assert_eq!(
                seg.rate_integral_nj(c).to_bits(),
                ledger[c].nanojoules().to_bits(),
                "{} integral vs ledger",
                c.name()
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn seq_restart_opens_new_segment() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(6);
        let mut sink = TimelineSink::create(path, 0.0).unwrap();
        drive(&mut sink, &events);
        drive(&mut sink, &events); // seq restarts at 0
        sink.finish().unwrap();
        let bytes = std::fs::read(path).unwrap();
        let tl = Timeline::read(&bytes).unwrap();
        assert_eq!(tl.segments.len(), 2);
        assert_eq!(tl.segments[0].times.len(), tl.segments[1].times.len());
        for c in Component::ALL {
            assert_eq!(
                tl.segments[0].final_ledger[c.index()].to_bits(),
                tl.segments[1].final_ledger[c.index()].to_bits(),
            );
        }
        validate_jts(&bytes).unwrap();
        std::fs::remove_file(path).ok();
    }

    /// Two runs streamed through one sink, the second restarting `seq`
    /// and sim time at 0: the `--flush-every` clock restarts with it,
    /// so both runs' blocks are cut alike.
    #[test]
    fn flush_clock_restarts_with_each_run() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        // An invocation is 100 sim-ns: a flush every tenth one.
        let events = synthetic_events(40);
        let mut sink = TimelineSink::create(path, 0.0).unwrap();
        sink.set_flush_every(1_000.0);
        drive(&mut sink, &events);
        drive(&mut sink, &events); // seq restarts at 0
        sink.finish().unwrap();
        let bytes = std::fs::read(path).unwrap();
        // Sample blocks per segment.
        let (mut dec, mut pos, mut blocks) = (JtsDecoder::default(), 0, Vec::new());
        loop {
            let (record, used) = dec.step(&bytes[pos..], pos as u64).unwrap();
            pos += used;
            match record {
                JtsRecord::Header => {}
                JtsRecord::Segment => blocks.push(0),
                JtsRecord::Samples { .. } => *blocks.last_mut().unwrap() += 1,
                JtsRecord::Footer(_) => break,
            }
        }
        assert_eq!(blocks, [4, 4]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ckpt_resume_is_byte_identical() {
        let dir = crate::fsio::scratch_dir();
        let golden_path = dir.join("golden.jts");
        let golden_path = golden_path.to_str().unwrap();
        let resumed_path = dir.join("resumed.jts");
        let resumed_path = resumed_path.to_str().unwrap();
        let events = synthetic_events(300); // crosses a block boundary
        let mut ledgers = Vec::new();
        let mut ledger = EnergyBreakdown::new();
        for e in &events {
            ledger += e.delta;
            ledgers.push(ledger);
        }

        // With and without `--flush-every` cuts (an invocation is 100
        // sim-ns, so about every tenth one flushes): a resumed sink
        // must cut where the uninterrupted one does.
        let mut goldens = Vec::new();
        for flush in [None, Some(1_000.0)] {
            let with_flush = |mut sink: TimelineSink| {
                if let Some(ns) = flush {
                    sink.set_flush_every(ns);
                }
                sink
            };
            let mut golden = with_flush(TimelineSink::create(golden_path, 50.0).unwrap());
            for (e, l) in events.iter().zip(&ledgers) {
                golden.observe(e, Some(l));
            }
            golden.finish().unwrap();
            let golden = std::fs::read(golden_path).unwrap();

            for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
                let mut sink = with_flush(TimelineSink::create(resumed_path, 50.0).unwrap());
                for (e, l) in events[..cut].iter().zip(&ledgers) {
                    sink.observe(e, Some(l));
                }
                let state = TraceSink::ckpt_state(&mut sink).unwrap();
                // Simulate a crash: garbage lands after the checkpoint.
                drop(sink);
                {
                    use std::io::Write as _;
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(resumed_path)
                        .unwrap();
                    f.write_all(b"torn garbage from the crashed run").unwrap();
                }
                let mut resumed = with_flush(TimelineSink::resume(resumed_path, &state).unwrap());
                for (e, l) in events[cut..].iter().zip(&ledgers[cut..]) {
                    resumed.observe(e, Some(l));
                }
                resumed.finish().unwrap();
                assert!(
                    golden == std::fs::read(resumed_path).unwrap(),
                    "resume at event {cut} diverged ({flush:?})"
                );
            }
            goldens.push(golden);
        }
        assert_ne!(goldens[0], goldens[1], "the flush cadence cut no block");
        std::fs::remove_file(golden_path).ok();
        std::fs::remove_file(resumed_path).ok();
    }

    #[test]
    fn windowed_prefix_matches_sequential_trace_sum() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(30);
        let mut sink = TimelineSink::create(path, 100.0).unwrap();
        drive(&mut sink, &events);
        sink.finish().unwrap();
        let tl = Timeline::read(&std::fs::read(path).unwrap()).unwrap();
        let seg = &tl.segments[0];
        let idx = tl.series_index("energy.core.trace_nj").unwrap();
        // Scheduled-sample boundaries: [0, T] prefix equals the
        // sequential delta sum over events with at <= T.
        for &t in seg.times.iter().step_by(7) {
            let mut sum = 0.0;
            for e in &events {
                if e.at.nanos() <= t {
                    sum += e.delta[Component::Core].nanojoules();
                }
            }
            assert_eq!(
                seg.value_at(idx, t).to_bits(),
                sum.to_bits(),
                "window [0, {t}]"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn validation_rejects_corruption() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(10);
        let mut sink = TimelineSink::create(path, 100.0).unwrap();
        drive(&mut sink, &events);
        sink.finish().unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert!(validate_jts(&bytes).is_ok());
        // Torn tail.
        assert!(Timeline::read(&bytes[..bytes.len() - 6]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Timeline::read(&bad).is_err());
        // Flip a byte in the middle of the stream: either decoding
        // fails structurally or the bit-exact footer check trips.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(validate_jts(&bad).is_err(), "corruption at byte {mid}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn label_series_round_trip() {
        let dir = crate::fsio::scratch_dir();
        let path = dir.join("t.jts");
        let path = path.to_str().unwrap();
        let events = synthetic_events(5);
        let mut sink = TimelineSink::create(path, 0.0).unwrap();
        drive(&mut sink, &events);
        sink.finish().unwrap();
        let tl = Timeline::read(&std::fs::read(path).unwrap()).unwrap();
        assert_eq!(tl.labels[0], "");
        let seg = &tl.segments[0];
        let idx = tl.series_index("channel.true_class").unwrap();
        let id = seg.cols[idx].last().copied().unwrap() as usize;
        assert_eq!(tl.labels[id], "C2");
        let idx = tl.series_index("breaker.state").unwrap();
        let id = seg.cols[idx].last().copied().unwrap() as usize;
        assert_eq!(tl.labels[id], "closed");
        std::fs::remove_file(path).ok();
    }
}
