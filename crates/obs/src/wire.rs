//! The `.jtb` binary trace format ("Jem Trace Binary") — the one
//! stored trace format.
//!
//! [`WriterSink`] / [`FileSink`] stream a run into it in O(block)
//! memory while the run executes, and every reader decodes it back
//! **losslessly**: every [`TraceEvent`] field survives the round trip
//! bit-for-bit. The Chrome JSON document ([`crate::chrome_trace`]) is
//! a one-way export of a `.jtb` (`jem check --chrome`) for viewers;
//! nothing reads it back.
//!
//! One decoder (`JtbDecoder`) parses the header and the records from
//! the front of a byte slice and reports a torn tail when the slice
//! ends mid-record. [`JtbStream`] feeds it from a [`Read`] (and, in
//! follow mode, from a growing file), [`load_jtb_bytes`] and
//! [`salvage_jtb`] from a whole buffer, so the full-file, follow-mode
//! and salvage reads run the same code.
//!
//! # Layout
//!
//! ```text
//! file    := header record* footer trailer
//! header  := "JTB1"  version:varint (=1)
//! record  := 0x01 shard-name:str          -- start a new shard
//!          | 0x02 bytes:str               -- define next interned string
//!          | 0x03 len:varint payload      -- one event block
//!          | 0x04 dropped:varint          -- sink evicted events (truncated!)
//!          | 0x06 bytes:varint events:varint -- crash-salvage marker
//! footer  := 0x05 block-index             -- per-block counts + energy sums
//! trailer := footer-offset:u64le  "JTBE"
//! str     := len:varint utf8-bytes
//! ```
//!
//! A block payload carries the first event's absolute `seq` /
//! `invocation` / `t` and then per-event deltas: zigzag-varint
//! sequence and invocation deltas, the invocation-scoped `ordinal` as
//! a plain varint, and sim-time / energy values in the *maybe-scaled*
//! codec below. Strings (method names, mode labels, reasons) are
//! interned once per file — definition records precede the first block
//! that references them, so a reader that skips block payloads (using
//! the footer index) still resolves every id.
//!
//! # The maybe-scaled f64 codec
//!
//! Energy deltas and durations are usually "nice" decimals (whole
//! picojoules / fractions of a nanosecond from rational power ×
//! time products). Each value `v` is encoded as:
//!
//! * `varint(zigzag(v*1000) << 1 | 1)` when `v*1000` is exactly
//!   representable as an integer **and** dividing back returns the
//!   identical f64 — typically 1–3 bytes; or
//! * a single `0x00` byte followed by the 8 raw little-endian IEEE
//!   bytes otherwise.
//!
//! The scaled path is opportunistic compression; the raw fallback
//! guarantees losslessness unconditionally.
//!
//! # Truncation is never silent
//!
//! If the producing sink evicted events (ring overflow), the writer
//! emits an explicit `0x04` record and the footer repeats the count.
//! Loaders surface it as [`LoadedTrace::dropped`]; `jem profile`
//! refuses to reconcile such a ledger.

use crate::trace::{split_shards, TraceEvent, TraceEventKind, TraceShard, TraceSink};
use jem_energy::{Component, Energy, EnergyBreakdown, SimTime};
use std::collections::HashMap;
use std::io::{Read, Write};

/// Leading file magic.
pub const JTB_MAGIC: &[u8; 4] = b"JTB1";
/// Trailing file magic.
pub const JTB_END_MAGIC: &[u8; 4] = b"JTBE";
const JTB_VERSION: u64 = 1;

const R_SHARD: u8 = 0x01;
const R_STRDEF: u8 = 0x02;
const R_BLOCK: u8 = 0x03;
const R_TRUNC: u8 = 0x04;
const R_FOOTER: u8 = 0x05;
/// Crash-salvage marker appended by [`salvage_jtb`]: the payload is
/// `dropped-bytes:varint dropped-events:varint` describing the torn
/// tail that had to be discarded.
const R_RECOVER: u8 = 0x06;

/// Leading magic of a serialized [`JtbWriter`] checkpoint state.
const JWS_MAGIC: &[u8; 4] = b"JWS2";

/// Preferred events per block: flushed at the next invocation start
/// once this many are buffered.
const BLOCK_EVENTS: usize = 1024;
/// Hard flush threshold — bounds writer memory even if one invocation
/// emits absurdly many events.
const BLOCK_EVENTS_MAX: usize = 4 * BLOCK_EVENTS;

/// Whether `bytes` begin with the `.jtb` magic (the sniff that tells a
/// `.jtb` trace from a `.jts` timeline).
pub fn is_jtb(bytes: &[u8]) -> bool {
    bytes.starts_with(JTB_MAGIC)
}

// ---------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------

pub(crate) fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

pub(crate) fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encode `v` in the maybe-scaled codec (see module docs).
pub(crate) fn put_msf(out: &mut Vec<u8>, v: f64) {
    let s = v * 1000.0;
    if s.is_finite() && s.fract() == 0.0 && s.abs() < 9.0e15 {
        let i = s as i64;
        if (i as f64) == s && (i as f64) / 1000.0 == v {
            let z = zigzag(i);
            if z < (1u64 << 63) {
                put_varint(out, (z << 1) | 1);
                return;
            }
        }
    }
    out.push(0x00);
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A byte cursor with decode-error context.
pub(crate) struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Cur<'a> {
        Cur { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far (follow-mode readers commit up to here).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or("jtb: unexpected end of data")?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("jtb: unexpected end of data".into());
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err("jtb: varint overflow".into());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(a)))
    }

    pub(crate) fn msf(&mut self) -> Result<f64, String> {
        let tag = self.varint()?;
        if tag & 1 == 1 {
            return Ok(unzigzag(tag >> 1) as f64 / 1000.0);
        }
        if tag != 0 {
            return Err("jtb: reserved msf tag".into());
        }
        self.f64()
    }
}

// ---------------------------------------------------------------
// Event payload codec
// ---------------------------------------------------------------

/// Numeric tags for [`TraceEventKind`], stable wire contract.
fn kind_tag(kind: &TraceEventKind) -> u8 {
    match kind {
        TraceEventKind::InvocationStart { .. } => 0,
        TraceEventKind::DecisionEvaluated { .. } => 1,
        TraceEventKind::CompileStart { .. } => 2,
        TraceEventKind::CompileEnd { .. } => 3,
        TraceEventKind::TxWindow { .. } => 4,
        TraceEventKind::RxWindow { .. } => 5,
        TraceEventKind::PowerDown { .. } => 6,
        TraceEventKind::EarlyWake { .. } => 7,
        TraceEventKind::RetryAttempt { .. } => 8,
        TraceEventKind::BreakerTransition { .. } => 9,
        TraceEventKind::Fallback { .. } => 10,
        TraceEventKind::Degraded { .. } => 11,
        TraceEventKind::Alert { .. } => 12,
        TraceEventKind::InvocationEnd { .. } => 13,
    }
}

#[derive(Clone)]
struct Interner {
    ids: HashMap<String, u64>,
    /// Definition records accumulated since the last flush, written to
    /// the stream before the block that references them.
    pending_defs: Vec<u8>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            ids: HashMap::new(),
            pending_defs: Vec::new(),
        }
    }

    /// The interned strings in id order (id `i` at index `i`).
    fn table(&self) -> Vec<String> {
        let mut v = vec![String::new(); self.ids.len()];
        for (s, &id) in &self.ids {
            v[id as usize] = s.clone();
        }
        v
    }

    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.ids.len() as u64;
        self.ids.insert(s.to_string(), id);
        self.pending_defs.push(R_STRDEF);
        put_varint(&mut self.pending_defs, s.len() as u64);
        self.pending_defs.extend_from_slice(s.as_bytes());
        id
    }
}

fn put_str(out: &mut Vec<u8>, strings: &mut Interner, s: &str) {
    let id = strings.intern(s);
    put_varint(out, id);
}

fn encode_kind(out: &mut Vec<u8>, strings: &mut Interner, kind: &TraceEventKind) {
    out.push(kind_tag(kind));
    match kind {
        TraceEventKind::InvocationStart {
            strategy,
            method,
            size,
            true_class,
            chosen_class,
        } => {
            put_str(out, strings, strategy);
            put_str(out, strings, method);
            put_varint(out, u64::from(*size));
            put_str(out, strings, true_class);
            put_str(out, strings, chosen_class);
        }
        TraceEventKind::DecisionEvaluated {
            k,
            s_bar,
            pa_bar_w,
            interpret_nj,
            remote_nj,
            local_nj,
            chosen,
            remote_allowed,
        } => {
            put_varint(out, *k);
            put_msf(out, *s_bar);
            put_msf(out, *pa_bar_w);
            put_msf(out, *interpret_nj);
            put_msf(out, *remote_nj);
            for v in local_nj {
                put_msf(out, *v);
            }
            put_str(out, strings, chosen);
            out.push(u8::from(*remote_allowed));
        }
        TraceEventKind::CompileStart { level, source } => {
            put_str(out, strings, level);
            put_str(out, strings, source);
        }
        TraceEventKind::CompileEnd { level, source, ok } => {
            put_str(out, strings, level);
            put_str(out, strings, source);
            out.push(u8::from(*ok));
        }
        TraceEventKind::TxWindow {
            bytes,
            airtime,
            retransmit,
        } => {
            put_varint(out, *bytes);
            put_msf(out, airtime.nanos());
            out.push(u8::from(*retransmit));
        }
        TraceEventKind::RxWindow { bytes, airtime } => {
            put_varint(out, *bytes);
            put_msf(out, airtime.nanos());
        }
        TraceEventKind::PowerDown { duration, reason } => {
            put_msf(out, duration.nanos());
            put_str(out, strings, reason);
        }
        TraceEventKind::EarlyWake { wait } => {
            put_msf(out, wait.nanos());
        }
        TraceEventKind::RetryAttempt { attempt, backoff } => {
            put_varint(out, u64::from(*attempt));
            put_msf(out, backoff.nanos());
        }
        TraceEventKind::BreakerTransition { from, to } => {
            put_str(out, strings, from);
            put_str(out, strings, to);
        }
        TraceEventKind::Fallback { reason } => {
            put_str(out, strings, reason);
        }
        TraceEventKind::Degraded { what } => {
            put_str(out, strings, what);
        }
        TraceEventKind::Alert {
            monitor,
            severity,
            message,
        } => {
            put_str(out, strings, monitor);
            put_str(out, strings, severity);
            put_str(out, strings, message);
        }
        TraceEventKind::InvocationEnd {
            mode,
            energy,
            time,
            instructions,
        } => {
            put_str(out, strings, mode);
            put_msf(out, energy.nanojoules());
            put_msf(out, time.nanos());
            put_varint(out, *instructions);
        }
    }
}

fn decode_kind(cur: &mut Cur<'_>, strings: &[String]) -> Result<TraceEventKind, String> {
    let get = |cur: &mut Cur<'_>| -> Result<String, String> {
        let id = cur.varint()? as usize;
        strings
            .get(id)
            .cloned()
            .ok_or_else(|| format!("jtb: string id {id} not defined"))
    };
    let tag = cur.u8()?;
    Ok(match tag {
        0 => TraceEventKind::InvocationStart {
            strategy: get(cur)?,
            method: get(cur)?,
            size: cur.varint()? as u32,
            true_class: get(cur)?,
            chosen_class: get(cur)?,
        },
        1 => {
            let k = cur.varint()?;
            let s_bar = cur.msf()?;
            let pa_bar_w = cur.msf()?;
            let interpret_nj = cur.msf()?;
            let remote_nj = cur.msf()?;
            let mut local_nj = [0.0; 3];
            for v in &mut local_nj {
                *v = cur.msf()?;
            }
            TraceEventKind::DecisionEvaluated {
                k,
                s_bar,
                pa_bar_w,
                interpret_nj,
                remote_nj,
                local_nj,
                chosen: get(cur)?,
                remote_allowed: cur.u8()? != 0,
            }
        }
        2 => TraceEventKind::CompileStart {
            level: get(cur)?,
            source: get(cur)?,
        },
        3 => TraceEventKind::CompileEnd {
            level: get(cur)?,
            source: get(cur)?,
            ok: cur.u8()? != 0,
        },
        4 => TraceEventKind::TxWindow {
            bytes: cur.varint()?,
            airtime: SimTime::from_nanos(cur.msf()?),
            retransmit: cur.u8()? != 0,
        },
        5 => TraceEventKind::RxWindow {
            bytes: cur.varint()?,
            airtime: SimTime::from_nanos(cur.msf()?),
        },
        6 => TraceEventKind::PowerDown {
            duration: SimTime::from_nanos(cur.msf()?),
            reason: get(cur)?,
        },
        7 => TraceEventKind::EarlyWake {
            wait: SimTime::from_nanos(cur.msf()?),
        },
        8 => TraceEventKind::RetryAttempt {
            attempt: cur.varint()? as u32,
            backoff: SimTime::from_nanos(cur.msf()?),
        },
        9 => TraceEventKind::BreakerTransition {
            from: get(cur)?,
            to: get(cur)?,
        },
        10 => TraceEventKind::Fallback { reason: get(cur)? },
        11 => TraceEventKind::Degraded { what: get(cur)? },
        12 => TraceEventKind::Alert {
            monitor: get(cur)?,
            severity: get(cur)?,
            message: get(cur)?,
        },
        13 => TraceEventKind::InvocationEnd {
            mode: get(cur)?,
            energy: Energy::from_nanojoules(cur.msf()?),
            time: SimTime::from_nanos(cur.msf()?),
            instructions: cur.varint()?,
        },
        other => return Err(format!("jtb: unknown event kind tag {other}")),
    })
}

fn encode_block(events: &[TraceEvent], strings: &mut Interner) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 16);
    let first = &events[0];
    put_varint(&mut out, events.len() as u64);
    put_varint(&mut out, first.seq);
    put_varint(&mut out, first.invocation);
    out.extend_from_slice(&first.at.nanos().to_bits().to_le_bytes());
    let mut prev_seq = first.seq;
    let mut prev_inv = first.invocation;
    let mut prev_at = first.at.nanos();
    for ev in events {
        put_varint(&mut out, zigzag(ev.seq as i64 - prev_seq as i64));
        put_varint(&mut out, zigzag(ev.invocation as i64 - prev_inv as i64));
        put_varint(&mut out, ev.ordinal);
        put_msf(&mut out, ev.at.nanos() - prev_at);
        prev_seq = ev.seq;
        prev_inv = ev.invocation;
        prev_at = ev.at.nanos();
        let mut mask = 0u8;
        for (i, (_, e)) in ev.delta.iter().enumerate() {
            if e.nanojoules() != 0.0 {
                mask |= 1 << i;
            }
        }
        out.push(mask);
        for (i, (_, e)) in ev.delta.iter().enumerate() {
            if mask & (1 << i) != 0 {
                put_msf(&mut out, e.nanojoules());
            }
        }
        encode_kind(&mut out, strings, &ev.kind);
    }
    out
}

fn decode_block(payload: &[u8], strings: &[String]) -> Result<Vec<TraceEvent>, String> {
    let mut cur = Cur::new(payload);
    let count = cur.varint()? as usize;
    let mut prev_seq = cur.varint()?;
    let mut prev_inv = cur.varint()?;
    let mut prev_at = cur.f64()?;
    // Every event takes at least one payload byte, so a corrupt count
    // cannot force a huge allocation.
    let mut out = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let seq = (prev_seq as i64 + unzigzag(cur.varint()?)) as u64;
        let invocation = (prev_inv as i64 + unzigzag(cur.varint()?)) as u64;
        let ordinal = cur.varint()?;
        let at = prev_at + cur.msf()?;
        prev_seq = seq;
        prev_inv = invocation;
        prev_at = at;
        let mask = cur.u8()?;
        let mut delta = EnergyBreakdown::new();
        for (i, c) in Component::ALL.iter().enumerate() {
            if mask & (1 << i) != 0 {
                delta.charge(*c, Energy::from_nanojoules(cur.msf()?));
            }
        }
        let kind = decode_kind(&mut cur, strings)?;
        out.push(TraceEvent {
            seq,
            invocation,
            ordinal,
            at: SimTime::from_nanos(at),
            delta,
            kind,
        });
    }
    if cur.remaining() != 0 {
        return Err("jtb: trailing bytes in block payload".into());
    }
    Ok(out)
}

// ---------------------------------------------------------------
// Block index (footer)
// ---------------------------------------------------------------

/// Per-block metadata recorded in the footer: enough to answer coarse
/// queries (event counts, per-component energy partial sums, sim-time
/// range) without decoding the block, and to seek straight to it.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Byte offset of the block's `R_BLOCK` record in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Events in the block.
    pub events: u64,
    /// Index of the shard the block belongs to.
    pub shard: u64,
    /// First event's run-level sequence number.
    pub first_seq: u64,
    /// First event's invocation index.
    pub first_invocation: u64,
    /// Sim-time of the first event (ns).
    pub t_first: f64,
    /// Sim-time of the last event (ns).
    pub t_last: f64,
    /// Per-component energy-delta partial sums over the block (nJ),
    /// in [`Component::ALL`] order.
    pub energy_nj: [f64; 5],
}

/// The footer index: one [`BlockMeta`] per block plus file totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JtbIndex {
    /// Per-block metadata, file order.
    pub blocks: Vec<BlockMeta>,
    /// Number of shards in the file.
    pub shards: u64,
    /// Total events across all blocks.
    pub events: u64,
    /// Events the producing sink evicted (0 = complete ledger).
    pub dropped: u64,
}

impl BlockMeta {
    /// The footer entry for `events` written as a block record at
    /// `offset` with a `len`-byte payload, in shard `shard`.
    fn of(offset: u64, len: u64, shard: u64, events: &[TraceEvent]) -> BlockMeta {
        let mut energy_nj = [0.0; 5];
        for ev in events {
            for (i, (_, e)) in ev.delta.iter().enumerate() {
                energy_nj[i] += e.nanojoules();
            }
        }
        let (first, last) = (&events[0], &events[events.len() - 1]);
        BlockMeta {
            offset,
            len,
            events: events.len() as u64,
            shard,
            first_seq: first.seq,
            first_invocation: first.invocation,
            t_first: first.at.nanos(),
            t_last: last.at.nanos(),
            energy_nj,
        }
    }
}

impl JtbIndex {
    /// Total energy breakdown telescoped from the per-block partial
    /// sums — the footer-only answer to "what did this run cost".
    pub fn total_energy(&self) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        for blk in &self.blocks {
            for (i, c) in Component::ALL.iter().enumerate() {
                b.charge(*c, Energy::from_nanojoules(blk.energy_nj[i]));
            }
        }
        b
    }

    /// Parse just the footer of a complete `.jtb` file — O(index), no
    /// block decoding.
    ///
    /// # Errors
    /// A message describing the corruption (bad magic, out-of-range
    /// footer offset, malformed index).
    pub fn read(data: &[u8]) -> Result<JtbIndex, String> {
        if !is_jtb(data) {
            return Err("jtb: bad leading magic (not a .jtb file)".into());
        }
        if data.len() < JTB_MAGIC.len() + 12 {
            return Err("jtb: file too short for trailer".into());
        }
        let tail = &data[data.len() - 12..];
        if &tail[8..] != JTB_END_MAGIC {
            return Err("jtb: bad trailing magic (truncated file?)".into());
        }
        let mut off = [0u8; 8];
        off.copy_from_slice(&tail[..8]);
        let footer_offset = u64::from_le_bytes(off) as usize;
        if footer_offset >= data.len() - 12 {
            return Err("jtb: footer offset out of range".into());
        }
        let mut cur = Cur::new(&data[footer_offset..data.len() - 12]);
        if cur.u8()? != R_FOOTER {
            return Err("jtb: footer offset does not point at a footer record".into());
        }
        parse_footer(&mut cur)
    }
}

fn parse_footer(cur: &mut Cur<'_>) -> Result<JtbIndex, String> {
    let n_blocks = cur.varint()? as usize;
    // Each entry takes dozens of bytes, so a corrupt count cannot force
    // a huge allocation.
    let mut blocks = Vec::with_capacity(n_blocks.min(cur.remaining()));
    for _ in 0..n_blocks {
        let offset = cur.varint()?;
        let len = cur.varint()?;
        let events = cur.varint()?;
        let shard = cur.varint()?;
        let first_seq = cur.varint()?;
        let first_invocation = cur.varint()?;
        let t_first = cur.f64()?;
        let t_last = cur.f64()?;
        let mut energy_nj = [0.0; 5];
        for e in &mut energy_nj {
            *e = cur.f64()?;
        }
        blocks.push(BlockMeta {
            offset,
            len,
            events,
            shard,
            first_seq,
            first_invocation,
            t_first,
            t_last,
            energy_nj,
        });
    }
    let shards = cur.varint()?;
    let events = cur.varint()?;
    let dropped = cur.varint()?;
    Ok(JtbIndex {
        blocks,
        shards,
        events,
        dropped,
    })
}

fn render_footer(index: &JtbIndex) -> Vec<u8> {
    let mut out = vec![R_FOOTER];
    put_varint(&mut out, index.blocks.len() as u64);
    for blk in &index.blocks {
        put_varint(&mut out, blk.offset);
        put_varint(&mut out, blk.len);
        put_varint(&mut out, blk.events);
        put_varint(&mut out, blk.shard);
        put_varint(&mut out, blk.first_seq);
        put_varint(&mut out, blk.first_invocation);
        out.extend_from_slice(&blk.t_first.to_bits().to_le_bytes());
        out.extend_from_slice(&blk.t_last.to_bits().to_le_bytes());
        for e in &blk.energy_nj {
            out.extend_from_slice(&e.to_bits().to_le_bytes());
        }
    }
    put_varint(&mut out, index.shards);
    put_varint(&mut out, index.events);
    put_varint(&mut out, index.dropped);
    out
}

// ---------------------------------------------------------------
// Writer
// ---------------------------------------------------------------

/// Streaming `.jtb` encoder over any [`Write`]. Buffers at most one
/// block of events (a few thousand), so memory stays O(block) no
/// matter how long the run is. Call [`JtbWriter::finish`] to write the
/// footer — a file without its trailer is detectably truncated.
pub struct JtbWriter<W: Write> {
    out: W,
    offset: u64,
    buf: Vec<TraceEvent>,
    strings: Interner,
    index: JtbIndex,
    /// Shard count so far; 0 means no shard started (the first pushed
    /// event auto-starts "client").
    shards: u64,
    /// Sim-time of the last `--flush-every` cut ([`WriterSink`]), kept
    /// with the resumable state so a resumed stream cuts where an
    /// uninterrupted one does.
    flushed_at: f64,
    finished: bool,
}

impl<W: Write> JtbWriter<W> {
    /// Start a `.jtb` stream on `out` (writes the header immediately).
    ///
    /// # Errors
    /// Propagates the underlying write error.
    pub fn new(out: W) -> std::io::Result<JtbWriter<W>> {
        let mut w = JtbWriter {
            out,
            offset: 0,
            buf: Vec::new(),
            strings: Interner::new(),
            index: JtbIndex::default(),
            shards: 0,
            flushed_at: 0.0,
            finished: false,
        };
        let mut header = JTB_MAGIC.to_vec();
        put_varint(&mut header, JTB_VERSION);
        w.write_all(&header)?;
        Ok(w)
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Begin a new shard (flushes the pending block first).
    ///
    /// # Errors
    /// Propagates the underlying write error.
    pub fn begin_shard(&mut self, name: &str) -> std::io::Result<()> {
        self.flush_block()?;
        let mut rec = vec![R_SHARD];
        put_varint(&mut rec, name.len() as u64);
        rec.extend_from_slice(name.as_bytes());
        self.write_all(&rec)?;
        self.shards += 1;
        self.index.shards = self.shards;
        Ok(())
    }

    /// Append one event. Blocks are cut at invocation starts once
    /// `BLOCK_EVENTS` are buffered (hard cap `BLOCK_EVENTS_MAX`).
    ///
    /// # Errors
    /// Propagates the underlying write error.
    pub fn push(&mut self, event: TraceEvent) -> std::io::Result<()> {
        if self.shards == 0 {
            self.begin_shard("client")?;
        }
        let aligned = event.ordinal == 0 && self.buf.len() >= BLOCK_EVENTS;
        if aligned || self.buf.len() >= BLOCK_EVENTS_MAX {
            self.flush_block()?;
        }
        self.buf.push(event);
        Ok(())
    }

    /// Record that the producing sink evicted `n` events before they
    /// reached this writer.
    pub fn note_dropped(&mut self, n: u64) {
        self.index.dropped += n;
    }

    /// Flush the buffered block (even below the preferred block size)
    /// and the underlying writer, so live followers see every event
    /// recorded so far. Changes where blocks are cut — only the
    /// `--flush-every` opt-in path calls this; the default cadence
    /// keeps output byte-identical to previous releases.
    ///
    /// # Errors
    /// Propagates the underlying write/flush error.
    pub fn flush_now(&mut self) -> std::io::Result<()> {
        self.flush_block()?;
        self.out.flush()
    }

    fn flush_block(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let payload = encode_block(&self.buf, &mut self.strings);
        // String definitions referenced by this block must precede it.
        let defs = std::mem::take(&mut self.strings.pending_defs);
        self.write_all(&defs)?;
        let block_offset = self.offset;
        let mut header = vec![R_BLOCK];
        put_varint(&mut header, payload.len() as u64);
        self.write_all(&header)?;
        self.write_all(&payload)?;
        self.index.blocks.push(BlockMeta::of(
            block_offset,
            payload.len() as u64,
            self.shards - 1,
            &self.buf,
        ));
        self.index.events += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush, write the truncation record (if any drops were noted),
    /// the footer and the trailer, and return the underlying writer.
    ///
    /// # Errors
    /// Propagates the underlying write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.flush_block()?;
        if self.index.dropped > 0 {
            let mut rec = vec![R_TRUNC];
            put_varint(&mut rec, self.index.dropped);
            self.write_all(&rec)?;
        }
        let footer_offset = self.offset;
        let footer = render_footer(&self.index);
        self.write_all(&footer)?;
        let mut trailer = footer_offset.to_le_bytes().to_vec();
        trailer.extend_from_slice(JTB_END_MAGIC);
        self.write_all(&trailer)?;
        self.out.flush()?;
        self.finished = true;
        Ok(self.out)
    }

    /// Events written (excluding the still-buffered block).
    pub fn events_written(&self) -> u64 {
        self.index.events
    }

    /// Byte offset the next record will land at (buffered events are
    /// not yet included — they flush later, exactly as they would in
    /// an uninterrupted run).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Mutable access to the underlying output (to flush it before a
    /// checkpoint is taken).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Serialize the writer's resumable state: offset, interner,
    /// block index, last flush time and the still-buffered events. Restoring via
    /// [`JtbWriter::resume`] onto an output truncated to
    /// [`JtbWriter::offset`] continues the stream **byte-identically**
    /// to an uninterrupted run — the block buffer is deliberately not
    /// flushed, so block boundaries stay where they would have been.
    pub fn encode_ckpt(&self) -> Vec<u8> {
        let mut out = JWS_MAGIC.to_vec();
        put_varint(&mut out, self.offset);
        put_varint(&mut out, self.shards);
        out.extend_from_slice(&self.flushed_at.to_bits().to_le_bytes());
        // Buffered events are encoded as a regular block against a
        // scratch interner so decode can reuse `decode_block`. Ids in
        // the payload resolve against the scratch table (existing
        // strings plus any the buffer introduces); the restored
        // interner keeps only the original prefix — the resumed
        // flush re-interns the new ones in the same order, emitting
        // the same definition records an uninterrupted run would.
        let mut scratch = self.strings.clone();
        let payload = if self.buf.is_empty() {
            Vec::new()
        } else {
            encode_block(&self.buf, &mut scratch)
        };
        let all = scratch.table();
        put_varint(&mut out, self.strings.ids.len() as u64);
        put_varint(&mut out, all.len() as u64);
        for s in &all {
            put_varint(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        put_varint(&mut out, self.strings.pending_defs.len() as u64);
        out.extend_from_slice(&self.strings.pending_defs);
        let footer = render_footer(&self.index);
        put_varint(&mut out, footer.len() as u64);
        out.extend_from_slice(&footer);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Rebuild a writer from checkpoint `state` on an output already
    /// positioned at the state's recorded offset. Writes no header —
    /// every byte up to the offset is already in the output.
    ///
    /// # Errors
    /// A message describing the state corruption.
    pub fn resume(out: W, state: &[u8]) -> Result<JtbWriter<W>, String> {
        Ok(JtbWriter::from_state(out, decode_writer_state(state)?))
    }

    fn from_state(out: W, st: WriterState) -> JtbWriter<W> {
        JtbWriter {
            out,
            offset: st.offset,
            buf: st.buf,
            strings: st.strings,
            index: st.index,
            shards: st.shards,
            flushed_at: st.flushed_at,
            finished: false,
        }
    }
}

/// Decoded [`JtbWriter::encode_ckpt`] state.
struct WriterState {
    offset: u64,
    shards: u64,
    flushed_at: f64,
    strings: Interner,
    index: JtbIndex,
    buf: Vec<TraceEvent>,
}

fn decode_writer_state(state: &[u8]) -> Result<WriterState, String> {
    let mut cur = Cur::new(state);
    if cur.bytes(4)? != JWS_MAGIC {
        return Err("jtb: bad writer-state magic".into());
    }
    let offset = cur.varint()?;
    let shards = cur.varint()?;
    let flushed_at = f64::from_bits(u64::from_le_bytes(
        cur.bytes(8)?.try_into().expect("8 bytes"),
    ));
    let n_orig = cur.varint()? as usize;
    let n_all = cur.varint()? as usize;
    if n_orig > n_all {
        return Err("jtb: writer-state string counts inconsistent".into());
    }
    let mut all = Vec::with_capacity(n_all.min(state.len()));
    for _ in 0..n_all {
        let len = cur.varint()? as usize;
        let s = std::str::from_utf8(cur.bytes(len)?)
            .map_err(|_| "jtb: writer-state string not utf-8".to_string())?;
        all.push(s.to_string());
    }
    let n_pending = cur.varint()? as usize;
    let pending_defs = cur.bytes(n_pending)?.to_vec();
    let n_footer = cur.varint()? as usize;
    let mut fcur = Cur::new(cur.bytes(n_footer)?);
    if fcur.u8()? != R_FOOTER {
        return Err("jtb: writer-state index is not a footer record".into());
    }
    let index = parse_footer(&mut fcur)?;
    let n_payload = cur.varint()? as usize;
    let payload = cur.bytes(n_payload)?;
    let buf = if payload.is_empty() {
        Vec::new()
    } else {
        decode_block(payload, &all)?
    };
    if cur.remaining() != 0 {
        return Err("jtb: trailing bytes in writer state".into());
    }
    let mut strings = Interner::new();
    for s in all.into_iter().take(n_orig) {
        let id = strings.ids.len() as u64;
        strings.ids.insert(s, id);
    }
    strings.pending_defs = pending_defs;
    Ok(WriterState {
        offset,
        shards,
        flushed_at,
        strings,
        index,
        buf,
    })
}

/// A [`TraceSink`] streaming straight into a `.jtb` writer. Since
/// `record` cannot return errors, the first I/O failure is latched and
/// reported by [`WriterSink::finish`].
pub struct WriterSink<W: Write> {
    writer: Option<JtbWriter<W>>,
    error: Option<std::io::Error>,
    flush_every_ns: Option<f64>,
}

impl<W: Write> WriterSink<W> {
    /// Wrap `out` in a streaming `.jtb` sink.
    ///
    /// # Errors
    /// Propagates the header write error.
    pub fn new(out: W) -> std::io::Result<WriterSink<W>> {
        Ok(WriterSink {
            writer: Some(JtbWriter::new(out)?),
            error: None,
            flush_every_ns: None,
        })
    }

    /// Flush the open block and the output whenever a new invocation
    /// starts at least `sim_ns` of sim-time after the previous flush —
    /// the `--flush-every` backend. Flushes land on invocation
    /// boundaries so followers always see whole invocations; the block
    /// layout changes (blocks are cut early), but the decoded stream
    /// is identical. Off by default, keeping output byte-identical.
    pub fn set_flush_every(&mut self, sim_ns: f64) {
        self.flush_every_ns = Some(sim_ns);
    }

    /// Flush the buffered block and the output now, latching errors.
    pub fn flush_now(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.flush_now() {
                self.error = Some(e);
            }
        }
    }

    /// Begin a new shard in the underlying writer.
    pub fn begin_shard(&mut self, name: &str) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.begin_shard(name) {
                self.error = Some(e);
            }
        }
    }

    /// Record sink-side drops (forwarded to the truncation record).
    pub fn note_dropped(&mut self, n: u64) {
        if let Some(w) = self.writer.as_mut() {
            w.note_dropped(n);
        }
    }

    /// Write footer + trailer, surfacing any latched record error.
    ///
    /// # Errors
    /// The first error hit by `record`, or the footer write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let writer = self.writer.take().expect("WriterSink::finish called twice");
        writer.finish()
    }

    /// Flush the underlying output and serialize resumable writer
    /// state (see [`JtbWriter::encode_ckpt`]). `None` if an I/O error
    /// is latched — the error stays latched for
    /// [`WriterSink::finish`] to report.
    pub fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        if self.error.is_some() {
            return None;
        }
        let w = self.writer.as_mut()?;
        if let Err(e) = w.get_mut().flush() {
            self.error = Some(e);
            return None;
        }
        Some(w.encode_ckpt())
    }
}

impl<W: Write> TraceSink for WriterSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        // Flush *before* pushing an invocation's first event, so the
        // flushed prefix ends exactly at the previous invocation's
        // final event — followers never see a half-invocation. Each
        // run of a sweep numbers its events and counts its sim time
        // from 0, so its first event restarts the clock too.
        let due = match (self.flush_every_ns, self.writer.as_mut()) {
            (Some(every), Some(w)) => {
                if event.seq == 0 {
                    w.flushed_at = 0.0;
                }
                let due = event.ordinal == 0 && event.at.nanos() >= w.flushed_at + every;
                if due {
                    w.flushed_at = event.at.nanos();
                }
                due
            }
            _ => false,
        };
        if due {
            self.flush_now();
            if self.error.is_some() {
                return;
            }
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.push(event) {
                self.error = Some(e);
            }
        }
    }

    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        WriterSink::ckpt_state(self)
    }
}

/// A [`WriterSink`] over a buffered file — the `--trace out.jtb`
/// backend: every sweep bin streams its units through it in O(block)
/// memory, in unit order.
pub struct FileSink {
    path: String,
    inner: WriterSink<std::io::BufWriter<std::fs::File>>,
}

impl FileSink {
    /// Create (truncate) `path` and start a `.jtb` stream on it.
    ///
    /// # Errors
    /// Propagates file-creation and header write errors.
    pub fn create(path: &str) -> std::io::Result<FileSink> {
        let file = std::fs::File::create(path)?;
        Ok(FileSink {
            path: path.to_string(),
            inner: WriterSink::new(std::io::BufWriter::new(file))?,
        })
    }

    /// The destination path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Reopen `path` at a checkpointed writer state: the file is
    /// truncated to the state's recorded offset — discarding any
    /// bytes written after the checkpoint was taken — and appending
    /// resumes exactly where the checkpoint left off, so the finished
    /// file is byte-identical to one from an uninterrupted run.
    ///
    /// # Errors
    /// State corruption, or the file being shorter than the
    /// checkpointed offset (it was checkpointed flushed, so a later
    /// crash can only leave it longer).
    pub fn resume(path: &str, state: &[u8]) -> Result<FileSink, String> {
        use std::io::{Seek, SeekFrom};
        let st = decode_writer_state(state)?;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("jtb: cannot reopen {path}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("jtb: cannot stat {path}: {e}"))?
            .len();
        if len < st.offset {
            return Err(format!(
                "jtb: {path} is shorter ({len} bytes) than its checkpointed offset {}",
                st.offset
            ));
        }
        file.set_len(st.offset)
            .map_err(|e| format!("jtb: cannot truncate {path}: {e}"))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("jtb: cannot seek {path}: {e}"))?;
        Ok(FileSink {
            path: path.to_string(),
            inner: WriterSink {
                writer: Some(JtbWriter::from_state(std::io::BufWriter::new(file), st)),
                error: None,
                flush_every_ns: None,
            },
        })
    }

    /// Enable invocation-aligned flushing every `sim_ns` of sim-time
    /// (see [`WriterSink::set_flush_every`]) — the `--flush-every`
    /// flag. A resumed sink keeps the checkpointed last flush time, so
    /// it cuts blocks where an uninterrupted run does.
    pub fn set_flush_every(&mut self, sim_ns: f64) {
        self.inner.set_flush_every(sim_ns);
    }

    /// Begin a new shard.
    pub fn begin_shard(&mut self, name: &str) {
        self.inner.begin_shard(name);
    }

    /// Record sink-side drops.
    pub fn note_dropped(&mut self, n: u64) {
        self.inner.note_dropped(n);
    }

    /// Finish the stream and flush the file.
    ///
    /// # Errors
    /// Any latched record error or the footer write error.
    pub fn finish(self) -> std::io::Result<()> {
        self.inner.finish()?.flush()
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, event: TraceEvent) {
        self.inner.record(event);
    }

    fn ckpt_state(&mut self) -> Option<Vec<u8>> {
        let state = self.inner.ckpt_state()?;
        // The checkpoint claims every byte below `offset` is in the
        // file; make that durable before the state escapes.
        if let Some(w) = self.inner.writer.as_mut() {
            if let Err(e) = w.get_mut().get_ref().sync_data() {
                self.inner.error = Some(e);
                return None;
            }
        }
        Some(state)
    }
}

/// Encode shards to `.jtb` bytes in one call (the batch counterpart of
/// [`FileSink`], for already-collected event vectors).
pub fn jtb_bytes(shards: &[TraceShard]) -> Vec<u8> {
    let mut w = JtbWriter::new(Vec::new()).expect("vec write cannot fail");
    for shard in shards {
        w.begin_shard(&shard.name).expect("vec write cannot fail");
        w.note_dropped(shard.dropped);
        for ev in &shard.events {
            w.push(ev.clone()).expect("vec write cannot fail");
        }
    }
    w.finish().expect("vec write cannot fail")
}

// ---------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------

/// One record decoded by [`JtbDecoder::step`].
enum Record {
    /// The file header.
    Header,
    /// A shard start (the name is the decoder's last shard name).
    Shard,
    /// A string definition (appended to the decoder's string table).
    StrDef,
    /// An event block and its payload length.
    Block { len: u64, events: Vec<TraceEvent> },
    /// A truncation record: events the producing sink evicted.
    Trunc(u64),
    /// A crash-salvage marker.
    Recover(RecoveredNote),
    /// The footer, checked against the records before it and followed
    /// by a trailer that points back at it: the trace is complete.
    Footer,
}

/// The one `.jtb` read-side decoder: parses the header or one record
/// from the front of a byte slice and keeps the state the records
/// build up (string table, shard names, counts, footer). A slice that
/// ends mid-record fails with a torn-tail error ([`is_torn_tail`]) and
/// leaves the state untouched, so the caller can retry with more
/// bytes: [`JtbStream`] reads more (or, following a growing file,
/// parks), [`load_jtb_bytes`] fails, and [`salvage_jtb`] cuts there.
#[derive(Default)]
struct JtbDecoder {
    header_done: bool,
    strings: Vec<String>,
    shard_names: Vec<String>,
    dropped: u64,
    recovered: Option<RecoveredNote>,
    blocks_read: u64,
    events_read: u64,
    footer: Option<JtbIndex>,
}

impl JtbDecoder {
    /// Decode the header or the record at the front of `data`, which
    /// starts at file offset `offset`; returns it with the number of
    /// bytes it spans.
    fn step(&mut self, data: &[u8], offset: u64) -> Result<(Record, usize), String> {
        let mut cur = Cur::new(data);
        if !self.header_done {
            if cur.bytes(JTB_MAGIC.len())? != JTB_MAGIC {
                return Err("jtb: bad leading magic (not a .jtb file)".into());
            }
            let version = cur.varint()?;
            if version != JTB_VERSION {
                return Err(format!("jtb: unsupported version {version}"));
            }
            self.header_done = true;
            return Ok((Record::Header, cur.pos()));
        }
        let record = match cur.u8()? {
            R_SHARD => {
                let name = cur_string(&mut cur)?;
                self.shard_names.push(name);
                Record::Shard
            }
            R_STRDEF => {
                let s = cur_string(&mut cur)?;
                self.strings.push(s);
                Record::StrDef
            }
            R_BLOCK => {
                let len = cur.varint()?;
                let events = decode_block(cur.bytes(len as usize)?, &self.strings)?;
                if events.is_empty() {
                    // The writer never emits empty blocks.
                    return Err("jtb: empty event block".into());
                }
                self.blocks_read += 1;
                self.events_read += events.len() as u64;
                Record::Block { len, events }
            }
            R_TRUNC => {
                self.dropped = cur.varint()?;
                Record::Trunc(self.dropped)
            }
            R_RECOVER => {
                let note = RecoveredNote {
                    dropped_bytes: cur.varint()?,
                    dropped_events: cur.varint()?,
                };
                self.recovered = Some(note);
                Record::Recover(note)
            }
            R_FOOTER => {
                let footer = parse_footer(&mut cur)?;
                let trailer = cur.bytes(12)?;
                if trailer[..8] != offset.to_le_bytes() || &trailer[8..] != JTB_END_MAGIC {
                    return Err("jtb: bad trailer (truncated or corrupt file)".into());
                }
                if footer.blocks.len() as u64 != self.blocks_read
                    || footer.events != self.events_read
                {
                    return Err(format!(
                        "jtb: footer disagrees with stream ({} blocks / {} events vs {} / {})",
                        footer.blocks.len(),
                        footer.events,
                        self.blocks_read,
                        self.events_read
                    ));
                }
                self.dropped = self.dropped.max(footer.dropped);
                self.footer = Some(footer);
                Record::Footer
            }
            other => return Err(format!("jtb: unknown record tag 0x{other:02x}")),
        };
        Ok((record, cur.pos()))
    }

    /// Index of the shard the next block belongs to.
    fn shard(&self) -> usize {
        self.shard_names.len().saturating_sub(1)
    }
}

fn cur_string(cur: &mut Cur<'_>) -> Result<String, String> {
    let len = cur.varint()? as usize;
    if len > 1 << 20 {
        return Err("jtb: implausible string length".into());
    }
    String::from_utf8(cur.bytes(len)?.to_vec()).map_err(|_| "jtb: invalid utf-8 string".into())
}

/// Whether a decode error means "ran off the end of the bytes read so
/// far" (a torn tail — retryable) rather than real corruption. Every
/// short read goes through [`Cur`], which reports it with this one
/// message.
pub(crate) fn is_torn_tail(err: &str) -> bool {
    err.contains("unexpected end of data")
}

/// Bytes a [`Feed`] asks its reader for at a time; a record that does
/// not fit doubles the request.
const READ_CHUNK: usize = 64 * 1024;

/// Input for a record decoder: the bytes read from `r` that no record
/// has consumed yet, and their file offset. It holds at most the
/// record being decoded plus one read.
pub(crate) struct Feed<R> {
    r: R,
    buf: Vec<u8>,
    /// The unconsumed bytes start at `buf[pos]`.
    pos: usize,
    /// File offset of `buf[0]`.
    offset: u64,
}

impl<R: Read> Feed<R> {
    pub(crate) fn new(r: R) -> Feed<R> {
        Feed {
            r,
            buf: Vec::new(),
            pos: 0,
            offset: 0,
        }
    }

    /// Decode one record with `step` (given the unconsumed bytes and
    /// their file offset, returning the record and the bytes it spans),
    /// reading more input while `step` reports a torn tail. `None` when
    /// the input ends mid-record; on a growing file, a later call
    /// resumes at the same record boundary.
    ///
    /// # Errors
    /// Read errors and any non-torn decode error.
    pub(crate) fn decode<T>(
        &mut self,
        mut step: impl FnMut(&[u8], u64) -> Result<(T, usize), String>,
    ) -> Result<Option<T>, String> {
        loop {
            match step(&self.buf[self.pos..], self.offset + self.pos as u64) {
                Ok((record, used)) => {
                    self.pos += used;
                    return Ok(Some(record));
                }
                Err(e) if is_torn_tail(&e) => {
                    if !self.fill()? {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drop the consumed bytes and append the next read; `false` when
    /// the input has nothing more (yet).
    fn fill(&mut self) -> Result<bool, String> {
        self.buf.drain(..self.pos);
        self.offset += self.pos as u64;
        self.pos = 0;
        let want = self.buf.len().max(READ_CHUNK) as u64;
        let n = (&mut self.r)
            .take(want)
            .read_to_end(&mut self.buf)
            .map_err(|e| format!("read failed: {e}"))?;
        Ok(n > 0)
    }
}

// ---------------------------------------------------------------
// Streaming and follow-mode reader
// ---------------------------------------------------------------

/// Streaming `.jtb` reader: yields events one at a time, holding at
/// most one decoded block and one undecoded record in memory. The
/// footer is validated when the stream ends (block/event counts must
/// match what was read). Opened with [`JtbStream::follow`], it tails a
/// growing file instead ([`JtbStream::poll`]).
pub struct JtbStream<R: Read> {
    feed: Feed<R>,
    dec: JtbDecoder,
    pending: std::vec::IntoIter<TraceEvent>,
    pending_shard: usize,
}

/// A [`JtbStream`] tailing a growing `.jtb` file.
pub type JtbFollower = JtbStream<std::fs::File>;

impl<R: Read> JtbStream<R> {
    fn lazy(r: R) -> JtbStream<R> {
        JtbStream {
            feed: Feed::new(r),
            dec: JtbDecoder::default(),
            pending: Vec::new().into_iter(),
            pending_shard: 0,
        }
    }

    /// Open a stream, checking the header magic and version.
    ///
    /// # Errors
    /// "bad leading magic" / unsupported version / short read.
    pub fn new(r: R) -> Result<JtbStream<R>, String> {
        let mut s = JtbStream::lazy(r);
        s.next_record()?;
        Ok(s)
    }

    /// The next record, or `None` when the input ends mid-record.
    fn try_record(&mut self) -> Result<Option<Record>, String> {
        let dec = &mut self.dec;
        self.feed.decode(|data, offset| dec.step(data, offset))
    }

    /// The next record; input that ends mid-record is an error.
    fn next_record(&mut self) -> Result<Record, String> {
        self.try_record()?
            .ok_or_else(|| "jtb: unexpected end of stream (truncated file?)".to_string())
    }

    /// The next event with its shard index, or `None` at a validated
    /// end of stream.
    ///
    /// # Errors
    /// Any decode error, including a missing or inconsistent footer.
    pub fn next_event(&mut self) -> Result<Option<(usize, TraceEvent)>, String> {
        loop {
            if let Some(ev) = self.pending.next() {
                return Ok(Some((self.pending_shard, ev)));
            }
            if self.dec.footer.is_some() {
                return Ok(None);
            }
            if let Record::Block { events, .. } = self.next_record()? {
                self.pending_shard = self.dec.shard();
                self.pending = events.into_iter();
            }
        }
    }

    /// Shard names seen so far (all of them once the stream ends).
    pub fn shard_names(&self) -> &[String] {
        &self.dec.shard_names
    }

    /// Declared dropped-event count (final once the stream ends).
    pub fn dropped(&self) -> u64 {
        self.dec.dropped
    }

    /// The crash-salvage marker, if this trace went through
    /// [`salvage_jtb`].
    pub fn recovered(&self) -> Option<RecoveredNote> {
        self.dec.recovered
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.dec.events_read
    }

    /// The validated footer index (available once the stream ends).
    pub fn index(&self) -> Option<&JtbIndex> {
        self.dec.footer.as_ref()
    }
}

/// One [`JtbStream::poll`] / [`crate::timeline::JtsFollower::poll`]
/// outcome.
#[derive(Debug, PartialEq)]
pub enum FollowStatus<T> {
    /// New complete items decoded since the previous poll.
    Events(Vec<T>),
    /// No complete new records yet — the writer is (or may still be)
    /// mid-record. A torn tail is indistinguishable from a live
    /// writer, so this never errors; poll again later.
    Idle,
    /// The footer and trailer arrived and validated: the file is
    /// complete and no further items will appear.
    End,
}

impl<T> FollowStatus<T> {
    /// The outcome of a poll that decoded `items`; `done` once the
    /// footer validated.
    pub(crate) fn of(items: Vec<T>, done: bool) -> FollowStatus<T> {
        if !items.is_empty() {
            FollowStatus::Events(items)
        } else if done {
            FollowStatus::End
        } else {
            FollowStatus::Idle
        }
    }
}

impl JtbStream<std::fs::File> {
    /// Open `path` in follow (tail) mode. The file must exist but may
    /// be empty or torn mid-record — even a partial header is just
    /// [`FollowStatus::Idle`] until more bytes land.
    ///
    /// # Errors
    /// Only filesystem errors; nothing is decoded yet.
    pub fn follow(path: &str) -> Result<JtbFollower, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("jtb: cannot open {path}: {e}"))?;
        Ok(JtbStream::lazy(file))
    }

    /// Decode every record that has fully arrived. A torn tail is
    /// [`FollowStatus::Idle`] instead of an error, and the next poll
    /// resumes at the same record boundary, so the concatenation of
    /// all polled events converges to exactly the
    /// [`JtbStream::next_event`] fold once the writer finishes.
    ///
    /// # Errors
    /// Real corruption only (bad magic, unknown tag, inconsistent
    /// footer). Short data is never an error here.
    pub fn poll(&mut self) -> Result<FollowStatus<(usize, TraceEvent)>, String> {
        let mut out = Vec::new();
        while self.dec.footer.is_none() {
            match self.try_record()? {
                Some(Record::Block { events, .. }) => {
                    let shard = self.dec.shard();
                    out.extend(events.into_iter().map(|ev| (shard, ev)));
                }
                Some(_) => {}
                None => break,
            }
        }
        Ok(FollowStatus::of(out, self.dec.footer.is_some()))
    }
}

// ---------------------------------------------------------------
// Crash salvage
// ---------------------------------------------------------------

/// What a [`salvage_jtb`] pass kept and discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageReport {
    /// The input already had a valid footer and trailer; it was
    /// returned unchanged (and no salvage marker was added).
    pub already_complete: bool,
    /// Blocks kept — all decode cleanly and the last one ends on an
    /// `InvocationEnd` event.
    pub kept_blocks: u64,
    /// Events kept.
    pub kept_events: u64,
    /// Bytes discarded (torn tail plus dropped trailing blocks).
    pub dropped_bytes: u64,
    /// Fully-decoded events discarded with dropped trailing blocks.
    pub dropped_events: u64,
}

/// Salvage a crash-torn `.jtb` file: decode the valid record prefix
/// (up to the first error), cut trailing blocks until the kept events
/// end on an invocation boundary (`InvocationEnd`), then emit a
/// complete file — kept bytes verbatim, an explicit [`RecoveredNote`]
/// record, and a rebuilt footer + trailer. The result loads through
/// every normal path ([`load_trace_bytes`], `jem profile`,
/// `jem query`, `jem check`) as a first-class trace. A file that
/// already ends with a valid trailer is returned unchanged.
///
/// # Errors
/// Bad leading magic, an unsupported version, or a tear inside the
/// header itself — the cases where nothing is salvageable.
pub fn salvage_jtb(bytes: &[u8]) -> Result<(Vec<u8>, SalvageReport), String> {
    if !is_jtb(bytes) {
        return Err("jtb: bad leading magic (not a .jtb file)".into());
    }
    if let Ok(index) = JtbIndex::read(bytes) {
        return Ok((
            bytes.to_vec(),
            SalvageReport {
                already_complete: true,
                kept_blocks: index.blocks.len() as u64,
                kept_events: index.events,
                dropped_bytes: 0,
                dropped_events: 0,
            },
        ));
    }
    let mut dec = JtbDecoder::default();
    let header_end = match dec.step(bytes, 0) {
        Ok((_, used)) => used,
        Err(e) if is_torn_tail(&e) => {
            return Err("jtb: torn inside the header — nothing salvageable".into())
        }
        Err(e) => return Err(e),
    };

    // Kept blocks, each with the offset one past its record and
    // whether its last event ends an invocation.
    let mut blocks: Vec<(BlockMeta, usize, bool)> = Vec::new();
    let mut shard_offsets: Vec<usize> = Vec::new();
    // Ring-eviction count from a kept R_TRUNC record (pre-footer, so
    // only present if the crash hit mid-finish), and counts from a
    // prior salvage pass to fold into the new marker.
    let mut prior_dropped = 0u64;
    let mut prior_recover = (0u64, 0u64);
    let mut pos = header_end;
    // The first decode error (a torn tail, corruption, or a footer
    // without a valid trailer) ends the valid prefix; the tail from
    // there on is regenerated.
    while let Ok((record, used)) = dec.step(&bytes[pos..], pos as u64) {
        match record {
            Record::Shard => shard_offsets.push(pos),
            Record::Block { len, events } => {
                let meta = BlockMeta::of(pos as u64, len, dec.shard() as u64, &events);
                let ends_invocation = matches!(
                    events[events.len() - 1].kind,
                    TraceEventKind::InvocationEnd { .. }
                );
                blocks.push((meta, pos + used, ends_invocation));
            }
            Record::Trunc(n) => prior_dropped = prior_dropped.max(n),
            Record::Recover(note) => {
                prior_recover.0 += note.dropped_bytes;
                prior_recover.1 += note.dropped_events;
            }
            Record::Footer => break,
            Record::Header | Record::StrDef => {}
        }
        pos += used;
    }

    // Cut trailing blocks until the kept events are a complete,
    // invocation-aligned prefix.
    let mut dropped_events = prior_recover.1;
    while let Some((meta, _, false)) = blocks.last() {
        dropped_events += meta.events;
        blocks.pop();
    }
    let keep_end = blocks.last().map_or(header_end, |b| b.1);
    let dropped_bytes = (bytes.len() - keep_end) as u64 + prior_recover.0;

    let index = JtbIndex {
        shards: shard_offsets.iter().filter(|&&o| o < keep_end).count() as u64,
        events: blocks.iter().map(|b| b.0.events).sum(),
        blocks: blocks.into_iter().map(|b| b.0).collect(),
        dropped: prior_dropped,
    };
    let mut out = bytes[..keep_end].to_vec();
    if prior_dropped > 0 {
        out.push(R_TRUNC);
        put_varint(&mut out, prior_dropped);
    }
    out.push(R_RECOVER);
    put_varint(&mut out, dropped_bytes);
    put_varint(&mut out, dropped_events);
    let footer_offset = out.len() as u64;
    out.extend_from_slice(&render_footer(&index));
    out.extend_from_slice(&footer_offset.to_le_bytes());
    out.extend_from_slice(JTB_END_MAGIC);
    let report = SalvageReport {
        already_complete: false,
        kept_blocks: index.blocks.len() as u64,
        kept_events: index.events,
        dropped_bytes,
        dropped_events,
    };
    Ok((out, report))
}

// ---------------------------------------------------------------
// Whole-trace loader
// ---------------------------------------------------------------

/// A fully decoded `.jtb` trace with its truncation state.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The shards, input order, with per-shard events `seq`-ordered.
    pub shards: Vec<TraceShard>,
    /// Events evicted by the producing sink (0 = complete ledger).
    pub dropped: u64,
    /// The crash-salvage marker for traces that went through
    /// [`salvage_jtb`]; `None` for traces written uninterrupted. The
    /// kept events are a complete, invocation-aligned prefix — every
    /// consumer can treat a recovered trace as first-class.
    pub recovered: Option<RecoveredNote>,
}

/// The explicit marker a salvaged `.jtb` carries: what the salvage
/// pass discarded after the last intact invocation-aligned block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredNote {
    /// Bytes discarded (torn tail plus dropped trailing blocks).
    pub dropped_bytes: u64,
    /// Fully-decoded events discarded with trailing blocks cut to
    /// restore invocation alignment (events inside the torn tail
    /// itself are uncountable and excluded).
    pub dropped_events: u64,
}

impl LoadedTrace {
    /// All events flattened in shard order (shard boundaries remain
    /// recoverable via [`split_shards`], since `seq` restarts at 0).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.shards.iter().map(|s| s.events.len()).sum());
        for s in &self.shards {
            out.extend(s.events.iter().cloned());
        }
        out
    }

    /// Total event count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Load a `.jtb` trace from raw bytes — the entry point every CLI
/// uses (same as [`load_jtb_bytes`]).
///
/// # Errors
/// Any decode error, including footer/trailer validation.
pub fn load_trace_bytes(bytes: &[u8]) -> Result<LoadedTrace, String> {
    load_jtb_bytes(bytes)
}

/// Load a `.jtb` byte buffer completely.
///
/// # Errors
/// Any decode error, including footer/trailer validation.
pub fn load_jtb_bytes(bytes: &[u8]) -> Result<LoadedTrace, String> {
    let mut dec = JtbDecoder::default();
    let mut events = Vec::new();
    let mut pos = 0;
    while dec.footer.is_none() {
        let (record, used) = dec.step(&bytes[pos..], pos as u64)?;
        if let Record::Block { events: block, .. } = record {
            events.extend(block);
        }
        pos += used;
    }
    Ok(LoadedTrace {
        dropped: dec.dropped,
        recovered: dec.recovered,
        shards: name_shards(events, dec.shard_names),
    })
}

/// Split a flattened event stream on `seq` restarts and attach the
/// declared track names, so several runs streamed into one declared
/// track (the single-sink bench bins) load back as per-run shards.
/// Names only line up when the declared list matches the split count;
/// otherwise positional labels avoid misattributing.
fn name_shards(events: Vec<TraceEvent>, names: Vec<String>) -> Vec<TraceShard> {
    let splits: Vec<Vec<TraceEvent>> = split_shards(&events)
        .into_iter()
        .map(|s| s.to_vec())
        .collect();
    let named = names.len() == splits.len();
    splits
        .into_iter()
        .enumerate()
        .map(|(i, events)| {
            let name = if named {
                names[i].clone()
            } else {
                format!("shard-{i}")
            };
            TraceShard::new(name, events)
        })
        .collect()
}

/// Read `path` (`-` = stdin) and load it as a `.jtb` trace.
///
/// # Errors
/// I/O errors (as text) or the decode error.
pub fn load_trace_path(path: &str) -> Result<LoadedTrace, String> {
    let bytes = if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    load_jtb_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(c: Component, nj: f64) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.charge(c, Energy::from_nanojoules(nj));
        b
    }

    /// One event of every kind, with awkward float values mixed in.
    fn all_kinds() -> Vec<TraceEvent> {
        let kinds = vec![
            TraceEventKind::InvocationStart {
                strategy: "AA".into(),
                method: "fe::Main.integrate".into(),
                size: 64,
                true_class: "C3".into(),
                chosen_class: "C4".into(),
            },
            TraceEventKind::DecisionEvaluated {
                k: 3,
                s_bar: 64.0,
                pa_bar_w: 0.37,
                interpret_nj: 5000.0,
                remote_nj: 1.0 / 3.0, // not milli-representable: raw path
                local_nj: [4000.0, 3500.5, f64::MAX],
                chosen: "remote".into(),
                remote_allowed: true,
            },
            TraceEventKind::CompileStart {
                level: "L2".into(),
                source: "download".into(),
            },
            TraceEventKind::CompileEnd {
                level: "L2".into(),
                source: "download".into(),
                ok: false,
            },
            TraceEventKind::TxWindow {
                bytes: 128,
                airtime: SimTime::from_nanos(2000.0),
                retransmit: false,
            },
            TraceEventKind::RxWindow {
                bytes: 4096,
                airtime: SimTime::from_micros(12.0),
            },
            TraceEventKind::PowerDown {
                duration: SimTime::from_millis(1.5),
                reason: "server-wait".into(),
            },
            TraceEventKind::EarlyWake {
                wait: SimTime::from_micros(3.0),
            },
            TraceEventKind::RetryAttempt {
                attempt: 2,
                backoff: SimTime::from_millis(100.0),
            },
            TraceEventKind::BreakerTransition {
                from: "closed".into(),
                to: "open".into(),
            },
            TraceEventKind::Fallback {
                reason: "connection-lost".into(),
            },
            TraceEventKind::Degraded {
                what: "remote-exec".into(),
            },
            TraceEventKind::Alert {
                monitor: "retry-storm".into(),
                severity: "warn".into(),
                message: "6 retries in 20 invocations".into(),
            },
            TraceEventKind::InvocationEnd {
                mode: "local/L3".into(),
                energy: Energy::from_microjoules(7.0),
                time: SimTime::from_millis(2.0),
                instructions: 987_654_321,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64,
                invocation: 1 + i as u64 / 5,
                ordinal: (i as u64) % 5,
                at: SimTime::from_nanos(100.0 * i as f64 + 0.125),
                delta: delta(Component::ALL[i % 5], 0.1 * i as f64 + 1.0 / 7.0),
                kind,
            })
            .collect()
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 62] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Cur::new(&buf).varint().unwrap(), v);
        }
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn msf_is_lossless_for_nice_and_nasty_values() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.001,
            -0.125,
            1.0 / 3.0,
            6.02e23,
            f64::MIN_POSITIVE,
            f64::MAX,
            1234.567,
        ] {
            let mut buf = Vec::new();
            put_msf(&mut buf, v);
            let back = Cur::new(&buf).msf().unwrap();
            assert_eq!(back, v, "msf round-trip of {v}");
        }
        // Nice values take the 1–3 byte path.
        let mut buf = Vec::new();
        put_msf(&mut buf, 0.0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn single_shard_round_trip_is_exact() {
        let events = all_kinds();
        let bytes = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        let loaded = load_trace_bytes(&bytes).unwrap();
        assert_eq!(loaded.shards.len(), 1);
        assert_eq!(loaded.shards[0].name, "client");
        assert_eq!(loaded.shards[0].events, events);
        assert_eq!(loaded.dropped, 0);
    }

    #[test]
    fn multi_shard_round_trip_preserves_names_and_order() {
        let a = TraceShard::new("fe/iii", all_kinds());
        let b = TraceShard::new("kernel/i", all_kinds());
        let bytes = jtb_bytes(&[a.clone(), b.clone()]);
        let loaded = load_jtb_bytes(&bytes).unwrap();
        assert_eq!(loaded.shards.len(), 2);
        assert_eq!(loaded.shards[0].name, "fe/iii");
        assert_eq!(loaded.shards[1].name, "kernel/i");
        assert_eq!(loaded.shards[0].events, a.events);
        assert_eq!(loaded.shards[1].events, b.events);
    }

    #[test]
    fn truncation_marker_survives_round_trip() {
        let bytes = jtb_bytes(&[TraceShard::new("client", all_kinds()).with_dropped(42)]);
        let loaded = load_jtb_bytes(&bytes).unwrap();
        assert_eq!(loaded.dropped, 42);
        // And the footer-only read agrees.
        assert_eq!(JtbIndex::read(&bytes).unwrap().dropped, 42);
    }

    #[test]
    fn footer_index_partial_sums_telescope() {
        let events = all_kinds();
        let bytes = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        let index = JtbIndex::read(&bytes).unwrap();
        assert_eq!(index.events, events.len() as u64);
        assert_eq!(index.shards, 1);
        assert!(!index.blocks.is_empty());
        let mut want = EnergyBreakdown::new();
        for ev in &events {
            want += ev.delta;
        }
        let got = index.total_energy();
        for (c, e) in want.iter() {
            assert!(
                (got[c].nanojoules() - e.nanojoules()).abs() <= 1e-12 * e.nanojoules().abs(),
                "component {}",
                c.name()
            );
        }
    }

    #[test]
    fn blocks_split_on_invocation_boundaries() {
        // 3 invocations × 600 events: the second block must start at
        // an ordinal-0 event even though 1024 is mid-invocation.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for inv in 1..=3u64 {
            for ord in 0..600u64 {
                events.push(TraceEvent {
                    seq,
                    invocation: inv,
                    ordinal: ord,
                    at: SimTime::from_nanos(seq as f64),
                    delta: delta(Component::Core, 1.0),
                    kind: TraceEventKind::EarlyWake {
                        wait: SimTime::from_nanos(1.0),
                    },
                });
                seq += 1;
            }
        }
        let bytes = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        let index = JtbIndex::read(&bytes).unwrap();
        assert!(index.blocks.len() >= 2);
        for blk in &index.blocks[1..] {
            let first = &events[blk.first_seq as usize];
            assert_eq!(first.ordinal, 0, "block must start at an invocation start");
        }
        assert_eq!(load_jtb_bytes(&bytes).unwrap().shards[0].events, events);
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let mut bytes = jtb_bytes(&[TraceShard::new("client", all_kinds())]);
        bytes[0] = b'X';
        assert!(load_trace_bytes(&bytes).unwrap_err().contains("magic"));
        assert!(JtbIndex::read(&bytes).unwrap_err().contains("magic"));
        // A corrupt version is caught too.
        let mut bytes2 = jtb_bytes(&[TraceShard::new("client", all_kinds())]);
        bytes2[4] = 9;
        assert!(load_trace_bytes(&bytes2)
            .unwrap_err()
            .contains("unsupported version"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = jtb_bytes(&[TraceShard::new("client", all_kinds())]);
        // Chop the trailer: the stream must fail, not silently succeed.
        for cut in [bytes.len() - 1, bytes.len() - 13, bytes.len() / 2, 5] {
            let err = load_jtb_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                err.contains("end of stream") || err.contains("trailer") || err.contains("jtb"),
                "cut at {cut}: {err}"
            );
        }
        assert!(JtbIndex::read(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn corrupted_footer_count_is_rejected() {
        let events = all_kinds();
        let mut w = JtbWriter::new(Vec::new()).unwrap();
        w.begin_shard("client").unwrap();
        for ev in &events {
            w.push(ev.clone()).unwrap();
        }
        // Forge the index before finish: claim one extra event.
        w.index.events += 1;
        let bytes = w.finish().unwrap();
        assert!(load_jtb_bytes(&bytes)
            .unwrap_err()
            .contains("footer disagrees"));
    }

    #[test]
    fn writer_sink_streams_like_a_ring() {
        let mut sink = WriterSink::new(Vec::new()).unwrap();
        for ev in all_kinds() {
            sink.record(ev);
        }
        let bytes = sink.finish().unwrap();
        assert_eq!(
            load_jtb_bytes(&bytes).unwrap().shards[0].events,
            all_kinds()
        );
    }

    #[test]
    fn jtb_is_much_smaller_than_chrome_json() {
        // Repeat the kind mix to amortize the string table, as a real
        // run does; the acceptance bar (≥5×) is checked end-to-end in
        // integration tests, this is the unit-level sanity version.
        let mut events = Vec::new();
        for rep in 0..50u64 {
            for mut ev in all_kinds() {
                ev.seq += rep * 14;
                ev.invocation = rep + 1;
                ev.at = SimTime::from_nanos(ev.at.nanos() + 1e5 * rep as f64);
                events.push(ev);
            }
        }
        let jtb = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        let json = format!("{}\n", crate::trace::chrome_trace(&events).render());
        assert!(
            jtb.len() * 5 <= json.len(),
            ".jtb {} bytes vs JSON {} bytes",
            jtb.len(),
            json.len()
        );
    }

    /// A realistic invocation-shaped stream: `InvocationStart`, body
    /// events, `InvocationEnd`, repeated — what the runtime actually
    /// emits, and what salvage's alignment rule is defined over.
    fn invocation_stream(invocations: u64, per_inv: u64) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut seq = 0u64;
        for inv in 1..=invocations {
            for ord in 0..per_inv {
                let kind = if ord == 0 {
                    TraceEventKind::InvocationStart {
                        strategy: "AA".into(),
                        method: format!("fe::M{}.run", inv % 7),
                        size: 64,
                        true_class: "C3".into(),
                        chosen_class: "C4".into(),
                    }
                } else if ord == per_inv - 1 {
                    TraceEventKind::InvocationEnd {
                        mode: "local/L2".into(),
                        energy: Energy::from_nanojoules(5.0 * inv as f64),
                        time: SimTime::from_micros(2.0),
                        instructions: 100 * inv,
                    }
                } else {
                    TraceEventKind::EarlyWake {
                        wait: SimTime::from_nanos(ord as f64),
                    }
                };
                events.push(TraceEvent {
                    seq,
                    invocation: inv,
                    ordinal: ord,
                    at: SimTime::from_nanos(seq as f64 * 10.0),
                    delta: delta(Component::ALL[(seq % 5) as usize], 0.25 * ord as f64),
                    kind,
                });
                seq += 1;
            }
        }
        events
    }

    /// Two runs streamed through one sink, the second restarting `seq`
    /// and sim time at 0: the `--flush-every` clock restarts with it,
    /// so both runs' blocks are cut alike.
    #[test]
    fn flush_clock_restarts_with_each_run() {
        // An invocation is 300 sim-ns: a flush every fifth one.
        let run = invocation_stream(20, 30);
        let mut sink = WriterSink::new(Vec::new()).unwrap();
        sink.set_flush_every(1_300.0);
        for ev in run.iter().chain(&run) {
            sink.record(ev.clone());
        }
        let bytes = sink.finish().unwrap();
        // The invocation each block starts at; the first run's last
        // block runs on into the second run.
        let starts: Vec<u64> = JtbIndex::read(&bytes)
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.first_invocation)
            .collect();
        assert_eq!(starts, [1, 6, 11, 16, 6, 11, 16]);
    }

    #[test]
    fn file_sink_resume_is_byte_identical() {
        let dir = crate::fsio::scratch_dir();
        let golden_path = dir.join("golden.jtb");
        let resumed_path = dir.join("resumed.jtb");
        let events = invocation_stream(60, 30);
        // With and without `--flush-every` cuts (an invocation is 300
        // sim-ns, so every fifth one flushes, and neither resume lands
        // right before a flush): a resumed sink must cut where the
        // uninterrupted one does.
        let mut goldens = Vec::new();
        for flush in [None, Some(1_300.0)] {
            let create = |path: &std::path::Path| {
                let mut sink = FileSink::create(path.to_str().unwrap()).unwrap();
                if let Some(ns) = flush {
                    sink.set_flush_every(ns);
                }
                sink
            };
            let resume = |state: &[u8]| {
                let mut sink = FileSink::resume(resumed_path.to_str().unwrap(), state).unwrap();
                if let Some(ns) = flush {
                    sink.set_flush_every(ns);
                }
                sink
            };
            let mut sink = create(&golden_path);
            for ev in &events {
                sink.record(ev.clone());
            }
            sink.finish().unwrap();

            // Two kill/resume cycles: one checkpoint before any block
            // has flushed (pure buffered state) and one after the first
            // flush (interner + index state). Each "crash" writes extra
            // events past the checkpoint that resume must discard.
            let (cut1, cut2) = (700, 1300);
            let mut sink = create(&resumed_path);
            for ev in &events[..cut1] {
                sink.record(ev.clone());
            }
            let state1 = sink.ckpt_state().unwrap();
            for ev in &events[cut1..cut1 + 90] {
                sink.record(ev.clone());
            }
            drop(sink); // crash: no finish

            let mut sink = resume(&state1);
            for ev in &events[cut1..cut2] {
                sink.record(ev.clone());
            }
            let state2 = sink.ckpt_state().unwrap();
            for ev in &events[cut2..cut2 + 90] {
                sink.record(ev.clone());
            }
            drop(sink); // crash again

            let mut sink = resume(&state2);
            for ev in &events[cut2..] {
                sink.record(ev.clone());
            }
            sink.finish().unwrap();

            let golden = std::fs::read(&golden_path).unwrap();
            assert_eq!(
                golden,
                std::fs::read(&resumed_path).unwrap(),
                "resumed stream must be byte-identical to the uninterrupted one ({flush:?})"
            );
            goldens.push(golden);
        }
        assert_ne!(goldens[0], goldens[1], "the flush cadence cut no block");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_recovers_invocation_aligned_prefix() {
        let events = invocation_stream(60, 30);
        let bytes = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        assert!(load_jtb_bytes(&bytes).unwrap().recovered.is_none());

        let torn = &bytes[..bytes.len() * 2 / 3];
        assert!(load_jtb_bytes(torn).is_err(), "torn file must not load");
        let (salvaged, report) = salvage_jtb(torn).unwrap();
        assert!(!report.already_complete);
        assert!(report.kept_events > 0);
        assert!(report.dropped_bytes > 0);

        let loaded = load_jtb_bytes(&salvaged).unwrap();
        let note = loaded.recovered.expect("salvaged trace carries the marker");
        assert_eq!(note.dropped_bytes, report.dropped_bytes);
        assert_eq!(note.dropped_events, report.dropped_events);
        assert_eq!(loaded.dropped, 0, "salvage drops are not ring evictions");
        let kept = &loaded.shards[0].events;
        assert_eq!(
            kept.as_slice(),
            &events[..kept.len()],
            "kept prefix verbatim"
        );
        assert!(
            matches!(
                kept.last().unwrap().kind,
                TraceEventKind::InvocationEnd { .. }
            ),
            "kept prefix ends on an invocation boundary"
        );
        let index = JtbIndex::read(&salvaged).unwrap();
        assert_eq!(index.events, kept.len() as u64);

        let (again, rep2) = salvage_jtb(&salvaged).unwrap();
        assert!(rep2.already_complete);
        assert_eq!(
            again, salvaged,
            "salvage of a complete file is the identity"
        );
    }

    #[test]
    fn salvage_any_cut_yields_a_loadable_prefix() {
        let events = invocation_stream(20, 25);
        let bytes = jtb_bytes(&[TraceShard::new("client", events.clone())]);
        for cut in (5..bytes.len()).step_by(97) {
            let (salvaged, _) = salvage_jtb(&bytes[..cut]).unwrap();
            let loaded = load_jtb_bytes(&salvaged)
                .unwrap_or_else(|e| panic!("cut {cut}: salvaged file must load: {e}"));
            let kept = loaded.events();
            assert_eq!(kept.as_slice(), &events[..kept.len()], "cut {cut}");
        }
    }

    /// Every cut of a corpus exercising each salvage branch (two
    /// shards, a truncation record, a salvaged file torn again)
    /// salvages to pinned bytes: a digest over all outputs and reports.
    #[test]
    fn salvage_output_is_pinned_for_every_cut() {
        let a = TraceShard::new("a", invocation_stream(8, 25));
        let b = TraceShard::new("b", invocation_stream(6, 30)).with_dropped(7);
        let bytes = jtb_bytes(&[a, b]);
        let (salvaged, _) = salvage_jtb(&bytes[..bytes.len() * 3 / 4]).unwrap();
        let mut all = Vec::new();
        for input in [&bytes, &salvaged] {
            for cut in 0..=input.len() {
                match salvage_jtb(&input[..cut]) {
                    Ok((out, report)) => {
                        all.extend_from_slice(&out);
                        all.extend_from_slice(format!("{report:?}").as_bytes());
                    }
                    Err(_) => all.push(0xff),
                }
            }
        }
        assert_eq!(
            crate::lab::sha256_hex(&all),
            "849adf8f3f684e422c139e6cdd5714dec06e23b51c79be61c1411d9f1f3ef885"
        );
    }
}
