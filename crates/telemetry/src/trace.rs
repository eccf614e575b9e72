//! Hierarchical causal spans with dual sim-time + wall-time stamps.
//!
//! The paper's attribution argument (per port, per transceiver, per bit)
//! applies to the simulator's own runtime too: "fast as the hardware
//! allows" (ROADMAP) needs stage-level wall-clock attribution, not one
//! end-to-end number. This module provides it without breaking the FJ01
//! determinism contract:
//!
//! * **[`StageSpan`] / [`SpanRecord`] / [`SpanBuffer`]** — the worker
//!   side. Shard workers (`fj_par`) record fixed-size, allocation-free
//!   span records into a bounded per-router buffer keyed by poll round.
//!   Overflow evicts the oldest record and is *counted*, never silent
//!   (the EventLog `evicted()` pattern, mirrored for spans).
//! * **[`TraceSink`]** — the merge side. Spans become part of the causal
//!   tree here: sequential span ids are assigned on the single merge
//!   thread in the same deterministic `(round, router-index)` order as
//!   `RoundRecord` replay, so the span *stream* (ids, parents, names,
//!   lanes, sim stamps, fields) is bit-identical at any shard count.
//!   Worker spans arrive in batches ([`TraceSink::adopt_tail`]): the
//!   batch takes its ids by arithmetic and the ring evicts and counts as
//!   span-by-span adoption would, but only the spans the ring keeps are
//!   built, so a chunk's adoption costs O(ring capacity), not O(spans).
//!   Wall-clock stamps are the one sanctioned nondeterminism — they come
//!   from the audited [`WallEpoch`] seam and measure real elapsed time.
//! * **Exporters** — Chrome/Perfetto `trace_event` JSON
//!   ([`TraceSink::to_trace_event_json`]) and a self-time profile table
//!   ([`TraceSink::render_profile`]) built from per-stage totals that
//!   cover *every* recorded span, including ones later evicted from the
//!   bounded rings.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Value;

use fj_units::SimInstant;

use crate::clock::WallEpoch;
use crate::metrics::Counter;

/// Default bound for the per-worker span buffers and the sink ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// A finished span as recorded by a shard worker: fixed-size and
/// allocation-free so recording never skews the hot loop it measures.
/// Attribution (router, lane, parent) is attached at merge time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (snake_case, catalogued in DESIGN.md's span catalogue).
    pub name: &'static str,
    /// Sim clock when the stage began.
    pub sim_start: SimInstant,
    /// Sim clock when the stage ended.
    pub sim_end: SimInstant,
    /// Wall clock at begin, µs since the owning sink's [`WallEpoch`].
    pub wall_start_us: u64,
    /// Wall clock at end, µs since the owning sink's [`WallEpoch`].
    pub wall_end_us: u64,
}

impl SpanRecord {
    /// Wall-clock duration in microseconds (0 if the clock stepped back).
    pub fn wall_micros(&self) -> u64 {
        self.wall_end_us.saturating_sub(self.wall_start_us)
    }

    /// Wall-clock duration in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_micros() as f64 / 1e6
    }
}

/// An in-progress worker-side span: a sim stamp and a wall stamp at
/// begin, two more at finish.
///
/// The caller reads the wall stamps, as µs since the owning sink's epoch
/// ([`TraceSink::epoch`], then [`WallEpoch::elapsed_micros`]), so worker
/// and merge stamps share one time base. Spans that touch pass the same
/// stamp (one read ends a span and opens the next), and a span that is
/// never recorded needs no read.
#[derive(Debug)]
pub struct StageSpan {
    name: &'static str,
    sim_start: SimInstant,
    wall_start_us: u64,
}

impl StageSpan {
    /// Opens a stage span at sim time `sim` and wall stamp `wall_us`.
    pub fn begin(name: &'static str, sim: SimInstant, wall_us: u64) -> Self {
        Self {
            name,
            sim_start: sim,
            wall_start_us: wall_us,
        }
    }

    /// Closes the span at `sim_end` and wall stamp `wall_us` into an
    /// immutable record.
    pub fn finish(self, sim_end: SimInstant, wall_us: u64) -> SpanRecord {
        SpanRecord {
            name: self.name,
            sim_start: self.sim_start,
            sim_end,
            wall_start_us: self.wall_start_us,
            wall_end_us: wall_us,
        }
    }
}

/// Running totals for one stage name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Spans recorded under this name.
    pub count: u64,
    /// Total wall time, µs.
    pub wall_us: u64,
    /// Wall time attributed to child stages, µs (for self-time).
    pub child_wall_us: u64,
}

/// Per-stage totals, keyed by `&'static str` stage name. Unlike the
/// bounded span rings these are complete: a span evicted from a ring has
/// already been folded in, so the profile never undercounts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTotals {
    entries: Vec<(&'static str, StageTotal)>,
}

impl StageTotals {
    fn entry(&mut self, name: &'static str) -> &mut StageTotal {
        if let Some(i) = self.entries.iter().position(|(n, _)| *n == name) {
            return &mut self.entries[i].1;
        }
        self.entries.push((name, StageTotal::default()));
        // Just pushed, so the last entry exists; index rather than
        // unwrap to keep the panic-freedom rule trivially satisfied.
        let last = self.entries.len() - 1;
        &mut self.entries[last].1
    }

    /// Folds one span into the totals.
    pub fn add(&mut self, name: &'static str, wall_us: u64) {
        let e = self.entry(name);
        e.count += 1;
        e.wall_us += wall_us;
    }

    /// Attributes `wall_us` of child time to `parent` (for self-time).
    pub fn add_child(&mut self, parent: &'static str, wall_us: u64) {
        self.entry(parent).child_wall_us += wall_us;
    }

    /// Merges another totals table into this one.
    pub fn absorb(&mut self, other: &StageTotals) {
        for &(name, t) in &other.entries {
            let e = self.entry(name);
            e.count += t.count;
            e.wall_us += t.wall_us;
            e.child_wall_us += t.child_wall_us;
        }
    }

    /// Iterates `(name, totals)` pairs in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, StageTotal)> + '_ {
        self.entries.iter().copied()
    }

    /// Totals for one stage name, if recorded.
    pub fn get(&self, name: &str) -> Option<StageTotal> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
    }
}

/// A bounded per-worker span buffer keyed by an ordinal (the poll round).
///
/// Workers push records in round order, so the retained records stay
/// sorted by ordinal: the merge counts them by ordinal
/// ([`SpanBuffer::count_before`]), reads one ordinal's records
/// ([`SpanBuffer::round`]), and discards what it adopted
/// ([`SpanBuffer::discard`]). When full, the *oldest* record is evicted
/// and counted in [`SpanBuffer::dropped`] — recent history survives,
/// which is what a flight-recorder dump wants.
#[derive(Debug)]
pub struct SpanBuffer {
    ring: VecDeque<(u64, SpanRecord)>,
    capacity: usize,
    dropped: u64,
    totals: StageTotals,
}

impl SpanBuffer {
    /// An empty buffer retaining up to `capacity` records, with room for
    /// the first `expected` of them (at most `capacity`) reserved up front.
    pub fn new(capacity: usize, expected: usize) -> Self {
        assert!(capacity > 0, "span buffer needs capacity");
        Self {
            ring: VecDeque::with_capacity(expected.min(capacity)),
            capacity,
            dropped: 0,
            totals: StageTotals::default(),
        }
    }

    /// Records a finished span under `ordinal` (the poll round). Ordinals
    /// must be pushed non-decreasing. Totals always absorb the span, even
    /// when the ring evicts it.
    pub fn push(&mut self, ordinal: u64, rec: SpanRecord) {
        self.totals.add(rec.name, rec.wall_micros());
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((ordinal, rec));
    }

    /// Records retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by the bound since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Complete per-stage totals (evicted spans included).
    pub fn totals(&self) -> &StageTotals {
        &self.totals
    }

    /// Retained records with an ordinal below `ordinal`.
    pub fn count_before(&self, ordinal: u64) -> usize {
        self.ring.partition_point(|&(o, _)| o < ordinal)
    }

    /// The retained records pushed under `ordinal`, oldest first.
    pub fn round(&self, ordinal: u64) -> impl DoubleEndedIterator<Item = &SpanRecord> + '_ {
        let end = self.ring.partition_point(|&(o, _)| o <= ordinal);
        self.ring
            .range(self.count_before(ordinal)..end)
            .map(|(_, r)| r)
    }

    /// Drops the oldest `count` retained records (all of them, if fewer).
    pub fn discard(&mut self, count: usize) {
        self.ring.drain(..count.min(self.ring.len()));
    }
}

/// Handle to an open (or finished) span in a [`TraceSink`]; pass it as
/// `parent` to nest children under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    raw: u64,
    name: &'static str,
}

impl SpanId {
    /// The numeric span id (unique per sink, assigned sequentially).
    pub fn raw(&self) -> u64 {
        self.raw
    }

    /// The span's stage name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A span in the sink's causal tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Sequential id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Parent stage name ("" for roots) — self-time bookkeeping.
    pub parent_name: &'static str,
    /// Stage name.
    pub name: &'static str,
    /// Display lane (Perfetto `tid`): 0 for orchestrator spans, `i + 1`
    /// for spans adopted from router `i`'s worker buffer.
    pub lane: u32,
    /// Sim clock at begin.
    pub sim_start: SimInstant,
    /// Sim clock at end (== start while open).
    pub sim_end: SimInstant,
    /// Wall µs since the sink epoch at begin.
    pub wall_start_us: u64,
    /// Wall µs since the sink epoch at end (== start while open).
    pub wall_end_us: u64,
    /// The span's leading `router` field, shared with every other span of
    /// that router: adopting a worker span clones a pointer, not the name.
    pub router: Option<Arc<str>>,
    /// The remaining structured attribution, in annotation order.
    pub fields: Vec<(&'static str, String)>,
}

impl Span {
    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.rendered_fields()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// The fields as every renderer writes them: `router` first when the
    /// span has one, then [`Span::fields`] in order.
    pub fn rendered_fields(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        let router = self.router.as_deref().map(|r| (ROUTER_FIELD, r));
        router
            .into_iter()
            .chain(self.fields.iter().map(|(k, v)| (*k, v.as_str())))
    }

    /// Appends a field. A `router` field that would render first goes to
    /// the shared slot, so a span reads the same however it was built:
    /// annotated, adopted, or restored from a checkpoint.
    fn push_field(&mut self, key: &'static str, value: String) {
        if key == ROUTER_FIELD && self.router.is_none() && self.fields.is_empty() {
            self.router = Some(value.into());
        } else {
            self.fields.push((key, value));
        }
    }
}

/// The field key of [`Span::router`].
const ROUTER_FIELD: &str = "router";

struct SinkState {
    finished: VecDeque<Span>,
    open: Vec<Span>,
    next_id: u64,
    dropped: u64,
    totals: StageTotals,
}

/// The merge-side span store: bounded ring of finished spans, open-span
/// list, deterministic sequential ids, and complete per-stage totals.
///
/// Determinism contract: every mutating call site runs on the single
/// deterministic merge/driver thread (or on real-time paths outside the
/// sim contract), so ids and stream order are a pure function of the call
/// sequence. Wall stamps are taken from the sink's [`WallEpoch`] and are
/// the only nondeterministic content — determinism tests strip them.
pub struct TraceSink {
    state: Mutex<SinkState>,
    epoch: WallEpoch,
    capacity: usize,
    dropped_counter: Counter,
}

impl TraceSink {
    /// A sink retaining up to `capacity` finished spans; ring overflow
    /// increments `dropped_counter` (the `spans_dropped_total` metric).
    pub fn new(capacity: usize, dropped_counter: Counter) -> Self {
        assert!(capacity > 0, "trace sink needs capacity");
        Self {
            state: Mutex::new(SinkState {
                finished: VecDeque::with_capacity(capacity.min(1024)),
                open: Vec::new(),
                next_id: 1,
                dropped: 0,
                totals: StageTotals::default(),
            }),
            epoch: WallEpoch::now(),
            capacity,
            dropped_counter,
        }
    }

    /// The wall-clock epoch all span stamps are relative to. Workers pass
    /// this to [`StageSpan::begin`] so both sides share one time base.
    pub fn epoch(&self) -> WallEpoch {
        self.epoch
    }

    /// How many finished spans the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Opens a span. The wall stamp is taken now; the sim stamp is the
    /// caller's (deterministic) sim clock.
    pub fn begin_span(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        sim: SimInstant,
    ) -> SpanId {
        let wall = self.epoch.elapsed_micros();
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.open.push(Span {
            id,
            parent: parent.map_or(0, |p| p.raw),
            parent_name: parent.map_or("", |p| p.name),
            name,
            lane: 0,
            sim_start: sim,
            sim_end: sim,
            wall_start_us: wall,
            wall_end_us: wall,
            router: None,
            fields: Vec::new(),
        });
        SpanId { raw: id, name }
    }

    /// Attaches a field to an open span (no-op if already closed).
    pub fn annotate(&self, id: SpanId, key: &'static str, value: impl Into<String>) {
        let mut state = self.state.lock();
        if let Some(span) = state.open.iter_mut().rfind(|s| s.id == id.raw) {
            span.push_field(key, value.into());
        }
    }

    /// Closes an open span, stamping its end and moving it into the
    /// finished ring. Closing an unknown id is a no-op.
    pub fn end_span(&self, id: SpanId, sim_end: SimInstant) {
        let wall = self.epoch.elapsed_micros();
        let evicted;
        {
            let mut state = self.state.lock();
            let Some(pos) = state.open.iter().rposition(|s| s.id == id.raw) else {
                return;
            };
            let mut span = state.open.remove(pos);
            span.sim_end = sim_end;
            span.wall_end_us = wall;
            let wall_us = span.wall_end_us.saturating_sub(span.wall_start_us);
            state.totals.add(span.name, wall_us);
            if span.parent != 0 {
                state.totals.add_child(span.parent_name, wall_us);
            }
            evicted = push_finished(&mut state, self.capacity, span);
        }
        if evicted {
            self.dropped_counter.inc();
        }
    }

    /// Adopts a batch of `total` worker-recorded spans into the causal
    /// tree as `total` single adoptions would, under one lock: the batch
    /// takes the next `total` sequential ids, each span is parented under
    /// `parent`, placed on its display lane and tagged with its router
    /// label (shared, not copied), and the ring evicts and counts exactly
    /// what one-at-a-time adoption would have. Returns the batch's first
    /// id.
    ///
    /// Only the spans the ring keeps are built, so `tail` holds just the
    /// newest `min(total, capacity)` spans of the batch as `(lane, record,
    /// router)`, in adoption order. Anything older in `tail` is skipped,
    /// and spans a shorter `tail` leaves out count as adopted and evicted.
    ///
    /// Totals are *not* touched — the worker buffer's complete totals are
    /// folded in once via [`TraceSink::absorb_worker`], which also covers
    /// spans the bounded buffer already evicted.
    pub fn adopt_tail<'a>(
        &self,
        parent: Option<SpanId>,
        total: u64,
        tail: impl ExactSizeIterator<Item = (u32, SpanRecord, Option<&'a Arc<str>>)>,
    ) -> u64 {
        let keep = tail
            .len()
            .min(self.capacity)
            .min(usize::try_from(total).unwrap_or(usize::MAX));
        let kept = u64::try_from(keep).unwrap_or(u64::MAX);
        let skip = tail.len() - keep;
        let evicted;
        let first;
        {
            let mut state = self.state.lock();
            first = state.next_id;
            state.next_id += total;
            // Old spans leave first, so the kept ones always fit.
            let room = (state.finished.len() + keep).saturating_sub(self.capacity);
            state.finished.drain(..room);
            let ids = first + (total - kept)..;
            let spans = tail
                .skip(skip)
                .take(keep)
                .zip(ids)
                .map(|((lane, rec, router), id)| Span {
                    id,
                    parent: parent.map_or(0, |p| p.raw),
                    parent_name: parent.map_or("", |p| p.name),
                    name: rec.name,
                    lane,
                    sim_start: rec.sim_start,
                    sim_end: rec.sim_end,
                    wall_start_us: rec.wall_start_us,
                    wall_end_us: rec.wall_end_us,
                    router: router.cloned(),
                    fields: Vec::new(),
                });
            state.finished.extend(spans);
            evicted = total - kept + u64::try_from(room).unwrap_or(u64::MAX);
            state.dropped += evicted;
        }
        if evicted > 0 {
            self.dropped_counter.add(evicted);
        }
        first
    }

    /// Folds a worker buffer's complete stage totals (and its drop count)
    /// into the sink, attributing the worker wall time as child time of
    /// `parent` for the self-time profile.
    pub fn absorb_worker(&self, parent: Option<SpanId>, buf: &SpanBuffer) {
        let drops = buf.dropped();
        {
            let mut state = self.state.lock();
            state.totals.absorb(buf.totals());
            if let Some(p) = parent {
                for (_, t) in buf.totals().iter() {
                    state.totals.add_child(p.name, t.wall_us);
                }
            }
            state.dropped += drops;
        }
        if drops > 0 {
            self.dropped_counter.add(drops);
        }
    }

    /// Re-acquires a handle to the newest *open* span named `name` —
    /// the resume path for a checkpointed sink whose root span was still
    /// open when the process died. Returns `None` when no such span is
    /// open.
    pub fn resume_open_span(&self, name: &'static str) -> Option<SpanId> {
        let state = self.state.lock();
        state
            .open
            .iter()
            .rfind(|s| s.name == name)
            .map(|s| SpanId { raw: s.id, name })
    }

    /// Captures the sink — both rings, the id counter, totals — for a
    /// [`TelemetryCheckpoint`](crate::checkpoint::TelemetryCheckpoint).
    pub(crate) fn checkpoint(&self) -> crate::checkpoint::TraceCheckpoint {
        let state = self.state.lock();
        crate::checkpoint::TraceCheckpoint {
            next_id: state.next_id,
            dropped: state.dropped,
            totals: state
                .totals
                .iter()
                .map(|(name, t)| crate::checkpoint::StageTotalCheckpoint {
                    name: name.to_owned(),
                    count: t.count,
                    wall_us: t.wall_us,
                    child_wall_us: t.child_wall_us,
                })
                .collect(),
            finished: state.finished.iter().map(span_checkpoint).collect(),
            open: state.open.iter().map(span_checkpoint).collect(),
        }
    }

    /// Restores a checkpointed sink into this (freshly created) one,
    /// re-interning every span/field name against `names`. Validates the
    /// whole checkpoint before mutating, so an `Err` leaves the sink
    /// untouched.
    pub(crate) fn restore(
        &self,
        ckpt: &crate::checkpoint::TraceCheckpoint,
        names: &[&'static str],
    ) -> Result<(), String> {
        let mut totals = StageTotals::default();
        for t in &ckpt.totals {
            let name = crate::checkpoint::intern(names, &t.name)?;
            let e = totals.entry(name);
            e.count = t.count;
            e.wall_us = t.wall_us;
            e.child_wall_us = t.child_wall_us;
        }
        let mut finished = VecDeque::with_capacity(ckpt.finished.len());
        for s in &ckpt.finished {
            finished.push_back(restore_span(s, names)?);
        }
        let mut open = Vec::with_capacity(ckpt.open.len());
        for s in &ckpt.open {
            open.push(restore_span(s, names)?);
        }
        let mut state = self.state.lock();
        state.next_id = ckpt.next_id;
        state.dropped = ckpt.dropped;
        state.totals = totals;
        state.finished = finished;
        state.open = open;
        Ok(())
    }

    /// Finished spans, oldest first (deterministic adoption order).
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().finished.iter().cloned().collect()
    }

    /// Currently open spans, in open order.
    pub fn open_spans(&self) -> Vec<Span> {
        self.state.lock().open.clone()
    }

    /// Spans dropped by any bounded ring feeding this sink (its own
    /// finished ring plus absorbed worker-buffer evictions).
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Complete per-stage totals.
    pub fn totals(&self) -> StageTotals {
        self.state.lock().totals.clone()
    }

    /// Per-stage profile rows, heaviest total wall time first. Self time
    /// clamps at zero: a parent of parallel children can legitimately be
    /// "covered" by more child wall time than its own span.
    pub fn profile(&self) -> Vec<StageProfile> {
        let totals = self.totals();
        let mut rows: Vec<StageProfile> = totals
            .iter()
            .map(|(name, t)| StageProfile {
                name,
                count: t.count,
                total_wall_secs: t.wall_us as f64 / 1e6,
                self_wall_secs: t.wall_us.saturating_sub(t.child_wall_us) as f64 / 1e6,
                mean_wall_us: if t.count > 0 {
                    t.wall_us as f64 / t.count as f64
                } else {
                    0.0
                },
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_wall_secs
                .total_cmp(&a.total_wall_secs)
                .then(a.name.cmp(b.name))
        });
        rows
    }

    /// Renders [`TraceSink::profile`] as an aligned text table.
    pub fn render_profile(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>12} {:>12} {:>12}",
            "stage", "count", "total(s)", "self(s)", "mean(us)"
        );
        for row in self.profile() {
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>12.4} {:>12.4} {:>12.1}",
                row.name, row.count, row.total_wall_secs, row.self_wall_secs, row.mean_wall_us
            );
        }
        out
    }

    /// Renders retained spans (finished then open) as Chrome/Perfetto
    /// `trace_event` JSON — importable at `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Complete (`ph: "X"`) events; `ts`/`dur`
    /// are wall µs since the sink epoch; sim stamps and fields ride in
    /// `args`; lanes map to `tid` so per-router work gets its own track.
    pub fn to_trace_event_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        {
            let state = self.state.lock();
            events.reserve(state.finished.len() + state.open.len());
            for span in &state.finished {
                events.push(trace_event_value(span, false));
            }
            for span in &state.open {
                events.push(trace_event_value(span, true));
            }
        }
        let doc = Value::Map(vec![
            ("traceEvents".to_owned(), Value::Array(events)),
            ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ]);
        serde_json::to_string_pretty(&doc)
            .unwrap_or_else(|e| format!("{{\"error\":\"trace serialization failed: {e}\"}}"))
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("TraceSink")
            .field("finished", &state.finished.len())
            .field("open", &state.open.len())
            .field("dropped", &state.dropped)
            .finish()
    }
}

/// One row of the self-time profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage name.
    pub name: &'static str,
    /// Spans recorded (evicted ones included).
    pub count: u64,
    /// Total wall time across all spans, seconds.
    pub total_wall_secs: f64,
    /// Total minus attributed child time, clamped at zero, seconds.
    pub self_wall_secs: f64,
    /// Mean wall time per span, microseconds.
    pub mean_wall_us: f64,
}

/// Serializable form of one span, for checkpoints.
fn span_checkpoint(span: &Span) -> crate::checkpoint::SpanCheckpoint {
    crate::checkpoint::SpanCheckpoint {
        id: span.id,
        parent: span.parent,
        parent_name: span.parent_name.to_owned(),
        name: span.name.to_owned(),
        lane: u64::from(span.lane),
        sim_start_secs: span.sim_start.as_secs(),
        sim_end_secs: span.sim_end.as_secs(),
        wall_start_us: span.wall_start_us,
        wall_end_us: span.wall_end_us,
        fields: span
            .rendered_fields()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
    }
}

/// Rebuilds a live span from its checkpointed form, re-interning names.
/// A leading `router` field moves back into the shared slot.
fn restore_span(
    s: &crate::checkpoint::SpanCheckpoint,
    names: &[&'static str],
) -> Result<Span, String> {
    let mut span = Span {
        id: s.id,
        parent: s.parent,
        parent_name: crate::checkpoint::intern(names, &s.parent_name)?,
        name: crate::checkpoint::intern(names, &s.name)?,
        lane: u32::try_from(s.lane).unwrap_or(u32::MAX),
        sim_start: SimInstant::from_secs(s.sim_start_secs),
        sim_end: SimInstant::from_secs(s.sim_end_secs),
        wall_start_us: s.wall_start_us,
        wall_end_us: s.wall_end_us,
        router: None,
        fields: Vec::with_capacity(s.fields.len()),
    };
    for (k, v) in &s.fields {
        span.push_field(crate::checkpoint::intern(names, k)?, v.clone());
    }
    Ok(span)
}

/// Pushes into the bounded finished ring; returns whether one was evicted.
fn push_finished(state: &mut SinkState, capacity: usize, span: Span) -> bool {
    let evicted = state.finished.len() == capacity;
    if evicted {
        state.finished.pop_front();
        state.dropped += 1;
    }
    state.finished.push_back(span);
    evicted
}

/// One `trace_event` entry for a span.
fn trace_event_value(span: &Span, open: bool) -> Value {
    let mut args = vec![
        ("span_id".to_owned(), Value::UInt(span.id)),
        ("parent".to_owned(), Value::UInt(span.parent)),
        (
            "sim_start_s".to_owned(),
            Value::Int(span.sim_start.as_secs()),
        ),
        ("sim_end_s".to_owned(), Value::Int(span.sim_end.as_secs())),
    ];
    if open {
        args.push(("open".to_owned(), Value::Bool(true)));
    }
    for (k, v) in span.rendered_fields() {
        args.push((k.to_owned(), Value::Str(v.to_owned())));
    }
    Value::Map(vec![
        ("name".to_owned(), Value::Str(span.name.to_owned())),
        ("cat".to_owned(), Value::Str("fj".to_owned())),
        ("ph".to_owned(), Value::Str("X".to_owned())),
        ("ts".to_owned(), Value::UInt(span.wall_start_us)),
        (
            "dur".to_owned(),
            Value::UInt(span.wall_end_us.saturating_sub(span.wall_start_us)),
        ),
        ("pid".to_owned(), Value::UInt(1)),
        ("tid".to_owned(), Value::UInt(u64::from(span.lane))),
        ("args".to_owned(), Value::Map(args)),
    ])
}

/// JSON value for a span in flight-recorder dumps.
pub(crate) fn span_value(span: &Span) -> Value {
    Value::Map(vec![
        ("id".to_owned(), Value::UInt(span.id)),
        ("parent".to_owned(), Value::UInt(span.parent)),
        ("name".to_owned(), Value::Str(span.name.to_owned())),
        ("lane".to_owned(), Value::UInt(u64::from(span.lane))),
        (
            "sim_start_s".to_owned(),
            Value::Int(span.sim_start.as_secs()),
        ),
        ("sim_end_s".to_owned(), Value::Int(span.sim_end.as_secs())),
        ("wall_start_us".to_owned(), Value::UInt(span.wall_start_us)),
        ("wall_end_us".to_owned(), Value::UInt(span.wall_end_us)),
        (
            "fields".to_owned(),
            Value::Map(
                span.rendered_fields()
                    .map(|(k, v)| (k.to_owned(), Value::Str(v.to_owned())))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn rec(name: &'static str, t: i64, wall: (u64, u64)) -> SpanRecord {
        SpanRecord {
            name,
            sim_start: SimInstant::from_secs(t),
            sim_end: SimInstant::from_secs(t),
            wall_start_us: wall.0,
            wall_end_us: wall.1,
        }
    }

    fn sink(capacity: usize) -> (TraceSink, Counter) {
        let r = Registry::new();
        let c = r.counter("spans_dropped_total", &[]);
        (TraceSink::new(capacity, c.clone()), c)
    }

    #[test]
    fn buffer_bounds_and_counts_drops() {
        let mut buf = SpanBuffer::new(3, 3);
        for i in 0..5u64 {
            buf.push(i, rec("router_step", i as i64, (i, i + 2)));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        // Totals cover all five pushes, evicted ones included.
        let t = buf.totals().get("router_step").unwrap();
        assert_eq!(t.count, 5);
        assert_eq!(t.wall_us, 10);
        // Only the retained (newest) ordinals are counted and viewed.
        assert_eq!(buf.count_before(10), 3);
        assert_eq!(buf.count_before(2), 0, "ordinals 0 and 1 were evicted");
        assert_eq!(buf.round(1).count(), 0);
        assert_eq!(
            buf.round(4)
                .map(|r| r.sim_start.as_secs())
                .collect::<Vec<_>>(),
            [4]
        );
        buf.discard(10);
        assert!(buf.is_empty());
    }

    #[test]
    fn buffer_counts_views_and_discards_by_ordinal() {
        let mut buf = SpanBuffer::new(16, 4);
        for i in 0..6u64 {
            buf.push(i / 2, rec("predict", i as i64, (0, 1)));
        }
        assert_eq!(buf.count_before(0), 0);
        assert_eq!(buf.count_before(2), 4);
        assert_eq!(buf.count_before(9), 6);
        let secs = |buf: &SpanBuffer, o| {
            buf.round(o)
                .map(|r| r.sim_start.as_secs())
                .collect::<Vec<_>>()
        };
        assert_eq!(secs(&buf, 1), [2, 3], "one ordinal's records, oldest first");
        assert_eq!(
            buf.round(1).next_back().map(|r| r.sim_start.as_secs()),
            Some(3)
        );
        assert!(secs(&buf, 7).is_empty());
        buf.discard(3);
        assert_eq!(buf.len(), 3);
        assert_eq!(secs(&buf, 1), [3], "the discarded prefix is gone");
        assert_eq!(buf.count_before(2), 1);
    }

    #[test]
    fn sink_assigns_sequential_ids_and_parents() {
        let (sink, _) = sink(64);
        let root = sink.begin_span("fleet_collect", None, SimInstant::EPOCH);
        let child = sink.begin_span("fleet_merge", Some(root), SimInstant::EPOCH);
        sink.annotate(child, "router", "r0");
        sink.end_span(child, SimInstant::from_secs(5));
        let r2: Arc<str> = Arc::from("r2");
        let adopted = sink.adopt_tail(
            Some(root),
            1,
            [(3, rec("snmp_poll", 5, (1, 4)), Some(&r2))].into_iter(),
        );
        sink.end_span(root, SimInstant::from_secs(5));

        assert_eq!(root.raw(), 1);
        assert_eq!(child.raw(), 2);
        assert_eq!(adopted, 3);
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        // Finished order: child, adopted, root.
        assert_eq!(spans[0].name, "fleet_merge");
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[0].field("router"), Some("r0"));
        assert_eq!(spans[1].name, "snmp_poll");
        assert_eq!(spans[1].lane, 3);
        assert_eq!(spans[1].field("router"), Some("r2"));
        assert_eq!(spans[2].name, "fleet_collect");
        assert_eq!(spans[2].parent, 0);
        assert!(sink.open_spans().is_empty());
    }

    #[test]
    fn sink_ring_evicts_and_counts() {
        let (sink, counter) = sink(2);
        for i in 0..4 {
            sink.adopt_tail(None, 1, [(0, rec("predict", i, (0, 1)), None)].into_iter());
        }
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn absorb_worker_folds_totals_and_drops() {
        let (sink, counter) = sink(8);
        let parent = sink.begin_span("fleet_simulate", None, SimInstant::EPOCH);
        let mut buf = SpanBuffer::new(2, 2);
        for i in 0..5u64 {
            buf.push(i, rec("router_step", 0, (0, 10)));
        }
        sink.absorb_worker(Some(parent), &buf);
        sink.end_span(parent, SimInstant::EPOCH);

        assert_eq!(sink.dropped(), 3);
        assert_eq!(counter.get(), 3);
        let totals = sink.totals();
        assert_eq!(totals.get("router_step").unwrap().count, 5);
        assert_eq!(totals.get("router_step").unwrap().wall_us, 50);
        // All worker wall time is child time of the parent stage.
        assert_eq!(totals.get("fleet_simulate").unwrap().child_wall_us, 50);
        let profile = sink.profile();
        let sim = profile.iter().find(|r| r.name == "fleet_simulate").unwrap();
        assert!(sim.self_wall_secs >= 0.0, "self time clamps at zero");
    }

    #[test]
    fn profile_orders_by_total_and_computes_self_time() {
        let (sink, _) = sink(64);
        let parent = sink.begin_span("fleet_collect", None, SimInstant::EPOCH);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(parent, SimInstant::EPOCH);
        sink.adopt_tail(
            None,
            1,
            [(0, rec("predict", 0, (0, 100)), None)].into_iter(),
        );
        let profile = sink.profile();
        assert_eq!(profile[0].name, "fleet_collect", "heaviest first");
        // Adopted spans do not enter totals (absorb_worker owns that), so
        // only worker-absorbed or sink-ended spans appear.
        assert!(profile.iter().all(|r| r.name != "predict"));
        let text = sink.render_profile();
        assert!(text.contains("fleet_collect"));
        assert!(text.contains("stage"));
    }

    #[test]
    fn trace_event_export_is_valid_json() {
        let (sink, _) = sink(64);
        let root = sink.begin_span("fleet_collect", None, SimInstant::EPOCH);
        let r0: Arc<str> = Arc::from("r0");
        let span = (1, rec("snmp_poll", 300, (10, 20)), Some(&r0));
        sink.adopt_tail(Some(root), 1, [span].into_iter());
        sink.end_span(root, SimInstant::from_secs(300));
        let still_open = sink.begin_span("fleet_merge", None, SimInstant::from_secs(300));
        let json = sink.to_trace_event_json();
        let back: Value = serde_json::from_str(&json).unwrap();
        let events = serde::field(back.as_map().unwrap(), "traceEvents")
            .as_array()
            .unwrap();
        assert_eq!(events.len(), 3);
        for e in events {
            let map = e.as_map().unwrap();
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(
                    map.iter().any(|(k, _)| k == key),
                    "trace event missing {key}: {e:?}"
                );
            }
            assert_eq!(serde::field(map, "ph").as_str(), Some("X"));
        }
        sink.end_span(still_open, SimInstant::from_secs(300));
    }

    #[test]
    fn end_span_on_unknown_id_is_a_noop() {
        let (sink, _) = sink(4);
        let id = sink.begin_span("predict", None, SimInstant::EPOCH);
        sink.end_span(id, SimInstant::EPOCH);
        sink.end_span(id, SimInstant::EPOCH); // double close
        assert_eq!(sink.spans().len(), 1);
    }
}
