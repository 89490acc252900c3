//! Streaming trace queries: filter / group / aggregate an event
//! stream without materializing the run.
//!
//! The query algebra is deliberately small and closed:
//!
//! * **predicates** — event kind (exact name), method / mode / shard
//!   (substring), and a sim-time window `[since, until]` in ns;
//! * **group-by** — any subset of `{kind, method, mode, shard}`;
//! * **aggregates** — per group: event count, per-component energy
//!   sums, sim-time sum, and optionally a log-bucketed histogram of
//!   per-event energy deltas.
//!
//! Method and mode predicates apply to the *resolved* invocation
//! context — filtering `--mode remote` selects every event of remote
//! invocations (tx windows, retries, …), not just the `invocation-end`
//! that names the mode. Resolution runs on the same
//! [`InvocationResolver`] the profiler uses, so an unfiltered
//! `--group-by method,mode` query reconciles **bit-exactly** with
//! [`crate::profile::TraceProfile::method_mode_rows`] (group sums are
//! accumulated per profile cell and merged in the profiler's own
//! cell order — property-tested in `crates/core`).
//!
//! Memory is O(one invocation + groups); `jem query` feeds
//! this from a [`crate::wire::JtbStream`] so whole-run buffering never
//! happens on the binary path.

use crate::json::Json;
use crate::metrics::{Buckets, Histogram};
use crate::profile::{InvocationResolver, ResolvedEvent};
use crate::trace::{breakdown_json, TraceEvent};
use jem_energy::{EnergyBreakdown, SimTime};
use std::collections::BTreeMap;

/// A dimension events can be grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    /// Event kind name ("tx-window", …).
    Kind,
    /// Resolved method label of the enclosing invocation.
    Method,
    /// Resolved execution mode of the enclosing invocation.
    Mode,
    /// Shard name.
    Shard,
}

impl GroupKey {
    /// Parse a key name as used on the CLI.
    ///
    /// # Errors
    /// Names the unknown key.
    pub fn parse(s: &str) -> Result<GroupKey, String> {
        Ok(match s {
            "kind" => GroupKey::Kind,
            "method" => GroupKey::Method,
            "mode" => GroupKey::Mode,
            "shard" => GroupKey::Shard,
            other => {
                return Err(format!(
                    "unknown group key '{other}' (kind|method|mode|shard)"
                ))
            }
        })
    }

    /// The CLI / column name.
    pub fn name(self) -> &'static str {
        match self {
            GroupKey::Kind => "kind",
            GroupKey::Method => "method",
            GroupKey::Mode => "mode",
            GroupKey::Shard => "shard",
        }
    }
}

/// A compiled query: predicates plus the group-by spec.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Exact kind names to keep (empty = all kinds).
    pub kinds: Vec<String>,
    /// Substring the resolved method must contain.
    pub method: Option<String>,
    /// Substring the resolved mode must contain.
    pub mode: Option<String>,
    /// Substring the shard name must contain.
    pub shard: Option<String>,
    /// Inclusive lower sim-time bound (ns).
    pub since_ns: Option<f64>,
    /// Inclusive upper sim-time bound (ns).
    pub until_ns: Option<f64>,
    /// Group-by dimensions, output-column order.
    pub group_by: Vec<GroupKey>,
    /// Attach a per-group histogram of per-event energy deltas (nJ).
    pub histogram: bool,
}

/// Log buckets for the per-event energy-delta histogram: 0.1 nJ … 10 J
/// in decades, wide enough for every event this simulator emits.
fn energy_buckets() -> Buckets {
    Buckets::log(0.1, 10.0, 12)
}

/// Aggregates of one group.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Matching events.
    pub count: u64,
    /// Per-component energy-delta sums.
    pub energy: EnergyBreakdown,
    /// Sim-time sum (inter-event deltas of matching events).
    pub time: SimTime,
    /// Per-event energy-delta histogram, when requested.
    pub histogram: Option<Histogram>,
}

impl GroupStats {
    fn new(histogram: bool) -> GroupStats {
        GroupStats {
            count: 0,
            energy: EnergyBreakdown::new(),
            time: SimTime::ZERO,
            histogram: histogram.then(|| Histogram::new(&energy_buckets())),
        }
    }

    fn absorb(&mut self, delta: EnergyBreakdown, dt: SimTime) {
        self.count += 1;
        self.energy += delta;
        self.time += dt;
        if let Some(h) = self.histogram.as_mut() {
            h.observe(delta.total().nanojoules());
        }
    }

    fn merge(&mut self, other: &GroupStats) {
        self.count += other.count;
        self.energy += other.energy;
        self.time += other.time;
        if let (Some(a), Some(b)) = (self.histogram.as_mut(), other.histogram.as_ref()) {
            a.merge(b);
        }
    }
}

/// One output row: the group-key values (one per `group_by` entry; a
/// single empty key when no grouping was requested) and the stats.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Key values, aligned with the query's `group_by`.
    pub key: Vec<String>,
    /// The group's aggregates.
    pub stats: GroupStats,
}

/// The result of running a query over a stream.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The group-by spec the rows are keyed by.
    pub group_by: Vec<GroupKey>,
    /// Rows in deterministic (lexicographic key) order.
    pub rows: Vec<QueryRow>,
    /// Events scanned (before predicates).
    pub scanned: u64,
    /// Events matched (after predicates).
    pub matched: u64,
    /// Dropped-event count reported by the source (truncated trace).
    pub dropped: u64,
}

/// Streaming query evaluator. Feed raw events with
/// [`QueryEngine::push`] (shard names via
/// [`QueryEngine::name_shard`]), then [`QueryEngine::finish`].
pub struct QueryEngine {
    query: Query,
    resolver: InvocationResolver,
    shard_names: Vec<String>,
    /// Group accumulators keyed `(group key, profile stack)`. The
    /// second level mirrors the profiler's cells so that merging in
    /// iteration order reproduces `method_mode_rows` sums bit-exactly
    /// (same additions, same order).
    cells: BTreeMap<(Vec<String>, Vec<String>), GroupStats>,
    scanned: u64,
    matched: u64,
    dropped: u64,
}

impl QueryEngine {
    /// An engine for `query`.
    pub fn new(query: Query) -> QueryEngine {
        QueryEngine {
            query,
            resolver: InvocationResolver::new(),
            shard_names: Vec::new(),
            cells: BTreeMap::new(),
            scanned: 0,
            matched: 0,
            dropped: 0,
        }
    }

    /// Name the shard with ordinal `idx` (unnamed shards render as
    /// `shard-N`).
    pub fn name_shard(&mut self, idx: usize, name: &str) {
        while self.shard_names.len() <= idx {
            let n = self.shard_names.len();
            self.shard_names.push(format!("shard-{n}"));
        }
        self.shard_names[idx] = name.to_string();
    }

    /// Record the source's dropped-event count (surfaced in the
    /// result so truncation is visible in query output too).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped = n;
    }

    /// Feed the next raw event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.scanned += 1;
        self.resolver.push(ev);
        self.drain();
    }

    fn drain(&mut self) {
        while let Some(r) = self.resolver.next_resolved() {
            self.absorb(r);
        }
    }

    fn shard_name(&self, idx: usize) -> String {
        self.shard_names
            .get(idx)
            .cloned()
            .unwrap_or_else(|| format!("shard-{idx}"))
    }

    fn absorb(&mut self, r: ResolvedEvent) {
        let q = &self.query;
        if !q.kinds.is_empty() && !q.kinds.iter().any(|k| k == r.event.kind.name()) {
            return;
        }
        if let Some(m) = &q.method {
            if !r.method.contains(m.as_str()) {
                return;
            }
        }
        if let Some(m) = &q.mode {
            if !r.mode.contains(m.as_str()) {
                return;
            }
        }
        let shard_name = self.shard_name(r.shard);
        if let Some(s) = &q.shard {
            if !shard_name.contains(s.as_str()) {
                return;
            }
        }
        let at = r.event.at.nanos();
        if q.since_ns.is_some_and(|t| at < t) || q.until_ns.is_some_and(|t| at > t) {
            return;
        }
        self.matched += 1;
        let key: Vec<String> = q
            .group_by
            .iter()
            .map(|k| match k {
                GroupKey::Kind => r.event.kind.name().to_string(),
                GroupKey::Method => r.method.clone(),
                GroupKey::Mode => r.mode.clone(),
                GroupKey::Shard => shard_name.clone(),
            })
            .collect();
        let histogram = q.histogram;
        self.cells
            .entry((key, r.stack()))
            .or_insert_with(|| GroupStats::new(histogram))
            .absorb(r.event.delta, r.dt);
    }

    /// Flush the tail invocation and produce the sorted result.
    pub fn finish(mut self) -> QueryResult {
        self.resolver.finish();
        self.drain();
        // Merge the per-stack cells into their groups in BTreeMap
        // (lexicographic) order — the profiler's own merge order.
        let mut groups: BTreeMap<Vec<String>, GroupStats> = BTreeMap::new();
        let histogram = self.query.histogram;
        for ((key, _stack), stats) in &self.cells {
            groups
                .entry(key.clone())
                .or_insert_with(|| GroupStats::new(histogram))
                .merge(stats);
        }
        let rows = groups
            .into_iter()
            .map(|(key, stats)| QueryRow { key, stats })
            .collect();
        QueryResult {
            group_by: self.query.group_by.clone(),
            rows,
            scanned: self.scanned,
            matched: self.matched,
            dropped: self.dropped,
        }
    }
}

impl QueryResult {
    /// Deterministic fixed-width text table.
    pub fn render_text(&self) -> String {
        let key_header = if self.group_by.is_empty() {
            "(all)".to_string()
        } else {
            self.group_by
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(" / ")
        };
        let mut lines = Vec::new();
        lines.push(format!(
            "{:<44} {:>10} {:>14} {:>14} {:>14}",
            key_header, "events", "energy uJ", "radio uJ", "time ms"
        ));
        for row in &self.rows {
            let key = if row.key.is_empty() {
                "(all)".to_string()
            } else {
                row.key.join(" / ")
            };
            let radio = row.stats.energy.total() - row.stats.energy.computation();
            lines.push(format!(
                "{:<44} {:>10} {:>14.3} {:>14.3} {:>14.4}",
                key,
                row.stats.count,
                row.stats.energy.total().microjoules(),
                radio.microjoules(),
                row.stats.time.millis(),
            ));
        }
        for row in &self.rows {
            if let Some(h) = &row.stats.histogram {
                let key = if row.key.is_empty() {
                    "(all)".to_string()
                } else {
                    row.key.join(" / ")
                };
                lines.push(format!(
                    "hist {key}: n={} mean={:.3} nJ min={:.3} max={:.3}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                ));
                for (bound, cum) in h.cumulative() {
                    if bound.is_finite() {
                        lines.push(format!("  le {bound:>14.1} nJ: {cum}"));
                    } else {
                        lines.push(format!("  le           +Inf nJ: {cum}"));
                    }
                }
            }
        }
        lines.push(format!(
            "scanned {} events, matched {}{}",
            self.scanned,
            self.matched,
            if self.dropped > 0 {
                format!(
                    " — WARNING: trace truncated ({} events dropped)",
                    self.dropped
                )
            } else {
                String::new()
            }
        ));
        lines.join("\n")
    }

    /// Machine-readable result document.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                let mut obj = Json::object();
                let mut key_obj = Json::object();
                for (k, v) in self.group_by.iter().zip(&row.key) {
                    key_obj = key_obj.with(k.name(), v.as_str());
                }
                obj = obj
                    .with("key", key_obj)
                    .with("events", row.stats.count)
                    .with("energy_nj", breakdown_json(&row.stats.energy))
                    .with("time_ns", row.stats.time.nanos());
                if let Some(h) = &row.stats.histogram {
                    let buckets: Vec<Json> = h
                        .cumulative()
                        .into_iter()
                        .map(|(bound, cum)| {
                            Json::object()
                                .with(
                                    "le",
                                    if bound.is_finite() {
                                        Json::Num(bound)
                                    } else {
                                        Json::Str("+Inf".to_string())
                                    },
                                )
                                .with("cumulative", cum)
                        })
                        .collect();
                    obj = obj.with(
                        "histogram",
                        Json::object()
                            .with("count", h.count())
                            .with("sum_nj", h.sum())
                            .with("buckets", Json::Arr(buckets)),
                    );
                }
                obj
            })
            .collect();
        Json::object()
            .with("schema", "jem-query/v1")
            .with(
                "group_by",
                Json::Arr(
                    self.group_by
                        .iter()
                        .map(|k| Json::Str(k.name().to_string()))
                        .collect(),
                ),
            )
            .with("scanned", self.scanned)
            .with("matched", self.matched)
            .with("dropped", self.dropped)
            .with("rows", Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind;
    use jem_energy::{Component, Energy};

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

    fn stream() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                10.0,
                delta(Component::Core, 1.0),
                TraceEventKind::InvocationStart {
                    strategy: "AA".into(),
                    method: "fe::Main.integrate".into(),
                    size: 64,
                    true_class: "C3".into(),
                    chosen_class: "C3".into(),
                },
            ),
            ev(
                1,
                30.0,
                delta(Component::RadioTx, 40.0),
                TraceEventKind::TxWindow {
                    bytes: 64,
                    airtime: SimTime::from_nanos(20.0),
                    retransmit: false,
                },
            ),
            ev(
                2,
                60.0,
                delta(Component::Core, 9.0),
                TraceEventKind::InvocationEnd {
                    mode: "remote".into(),
                    energy: Energy::from_nanojoules(49.0),
                    time: SimTime::from_nanos(50.0),
                    instructions: 500,
                },
            ),
        ]
    }

    fn run(query: Query, events: &[TraceEvent]) -> QueryResult {
        let mut engine = QueryEngine::new(query);
        engine.name_shard(0, "client");
        for e in events {
            engine.push(e.clone());
        }
        engine.finish()
    }

    #[test]
    fn ungrouped_query_totals_the_stream() {
        let r = run(Query::default(), &stream());
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].stats.count, 3);
        assert_eq!(r.scanned, 3);
        assert_eq!(r.matched, 3);
        assert!((r.rows[0].stats.energy.total().nanojoules() - 50.0).abs() < 1e-12);
        assert!((r.rows[0].stats.time.nanos() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn mode_filter_selects_whole_invocations() {
        // The tx-window event itself carries no mode; resolution must
        // attach the invocation's "remote" so the filter keeps it.
        let r = run(
            Query {
                mode: Some("remote".into()),
                kinds: vec!["tx-window".into()],
                ..Query::default()
            },
            &stream(),
        );
        assert_eq!(r.matched, 1);
        assert!((r.rows[0].stats.energy.total().nanojoules() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn group_by_kind_is_deterministic_and_complete() {
        let r = run(
            Query {
                group_by: vec![GroupKey::Kind],
                ..Query::default()
            },
            &stream(),
        );
        let keys: Vec<&str> = r.rows.iter().map(|row| row.key[0].as_str()).collect();
        assert_eq!(keys, ["invocation-end", "invocation-start", "tx-window"]);
        let total: f64 = r
            .rows
            .iter()
            .map(|row| row.stats.energy.total().nanojoules())
            .sum();
        assert!((total - 50.0).abs() < 1e-12);
    }

    #[test]
    fn time_window_filters_inclusively() {
        let r = run(
            Query {
                since_ns: Some(30.0),
                until_ns: Some(30.0),
                ..Query::default()
            },
            &stream(),
        );
        assert_eq!(r.matched, 1);
    }

    #[test]
    fn histogram_rows_carry_cumulative_buckets() {
        let r = run(
            Query {
                histogram: true,
                ..Query::default()
            },
            &stream(),
        );
        let h = r.rows[0].stats.histogram.as_ref().expect("histogram");
        assert_eq!(h.count(), 3);
        let text = r.render_text();
        assert!(text.contains("hist"));
        let doc = r.to_json();
        assert!(doc
            .get("rows")
            .and_then(Json::as_array)
            .and_then(|rows| rows[0].get("histogram"))
            .is_some());
    }

    #[test]
    fn dropped_count_surfaces_in_output() {
        let mut engine = QueryEngine::new(Query::default());
        for e in stream() {
            engine.push(e);
        }
        engine.note_dropped(7);
        let r = engine.finish();
        assert_eq!(r.dropped, 7);
        assert!(r.render_text().contains("truncated (7 events dropped)"));
        assert_eq!(r.to_json().get("dropped").and_then(Json::as_u64), Some(7));
    }
}
