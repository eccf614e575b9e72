//! Checkpoint/restore for a whole [`Telemetry`] bundle.
//!
//! The crash-recoverable fleet engine (fj-isp) serializes its telemetry
//! alongside the sim state at every chunk boundary, so a resumed run can
//! continue the event ring (sequence numbers!), the span sink (span
//! ids!), and every deterministic counter/gauge exactly where the
//! interrupted run left them — the FJ01 determinism contract extends
//! across a process death.
//!
//! Three deliberate exclusions:
//!
//! * **The diagnostic registry is not checkpointed.** Its series are fed
//!   by a wall clock, the recovery schedule, or an optional feature, so
//!   a resumed process starts them from zero — the way Prometheus
//!   counters behave across a process restart.
//! * **Histograms are not checkpointed.** The fleet engine's histograms
//!   time the host and live on the diagnostic registry anyway. Engines
//!   re-register their histogram series on every run, so the series
//!   still exists after a resume; only its observations start over.
//! * **The flight recorder is not checkpointed.** Arming is a
//!   per-process decision; a resumed run re-arms (or not) on its own.
//!
//! Span and field names are `&'static str` in the live structures. The
//! checkpoint stores them as owned strings and restore re-interns them
//! against a caller-supplied catalogue of static names — an unknown name
//! is a restore error (the checkpoint was written by an engine with a
//! different span vocabulary), never a dangling reference.

use serde::{Deserialize, Serialize};

use crate::metrics::MetricValue;
use crate::Telemetry;

/// Serializable state of a whole [`Telemetry`] bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryCheckpoint {
    /// Sim clock at checkpoint time (seconds since the sim epoch).
    pub now_secs: i64,
    /// The event ring, sequence counters included.
    pub events: EventLogCheckpoint,
    /// Every deterministic counter series.
    pub counters: Vec<ScalarMetricCheckpoint>,
    /// Every deterministic gauge series (value stored as `f64::to_bits`
    /// for lossless round-tripping through JSON).
    pub gauges: Vec<ScalarMetricCheckpoint>,
    /// The span sink: rings, id counter, and per-stage totals.
    pub trace: TraceCheckpoint,
}

/// One counter or gauge series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalarMetricCheckpoint {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter reading, or `f64::to_bits` of the gauge reading.
    pub value: u64,
}

/// Serializable state of an [`EventLog`](crate::EventLog).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventLogCheckpoint {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Events evicted by the ring bound.
    pub evicted: u64,
    /// Events dropped by the level filter.
    pub filtered: u64,
    /// Lifetime emission counts per level (Debug..Error, always 4).
    pub emitted_by_level: Vec<u64>,
    /// Retained events, oldest first.
    pub events: Vec<EventCheckpoint>,
}

/// One retained event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventCheckpoint {
    /// Sequence number.
    pub seq: u64,
    /// Sim timestamp, seconds.
    pub ts_secs: i64,
    /// Level as its discriminant (0..=3).
    pub level: u8,
    /// Dotted target.
    pub target: String,
    /// Message.
    pub message: String,
    /// Key/value fields.
    pub fields: Vec<(String, String)>,
}

/// Serializable state of a [`TraceSink`](crate::TraceSink).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceCheckpoint {
    /// Next span id to assign.
    pub next_id: u64,
    /// Spans dropped by bounded rings so far.
    pub dropped: u64,
    /// Per-stage totals.
    pub totals: Vec<StageTotalCheckpoint>,
    /// Finished spans, oldest first.
    pub finished: Vec<SpanCheckpoint>,
    /// Open spans, in open order (a mid-run checkpoint has the root
    /// span — and possibly others — still open; resume reopens them).
    pub open: Vec<SpanCheckpoint>,
}

/// Totals for one stage name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTotalCheckpoint {
    /// Stage name.
    pub name: String,
    /// Span count.
    pub count: u64,
    /// Total wall µs.
    pub wall_us: u64,
    /// Child wall µs.
    pub child_wall_us: u64,
}

/// One span in either ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanCheckpoint {
    /// Span id.
    pub id: u64,
    /// Parent id (0 for roots).
    pub parent: u64,
    /// Parent stage name ("" for roots).
    pub parent_name: String,
    /// Stage name.
    pub name: String,
    /// Display lane.
    pub lane: u64,
    /// Sim start, seconds.
    pub sim_start_secs: i64,
    /// Sim end, seconds.
    pub sim_end_secs: i64,
    /// Wall start, µs since the writing sink's epoch.
    pub wall_start_us: u64,
    /// Wall end, µs since the writing sink's epoch.
    pub wall_end_us: u64,
    /// Structured fields.
    pub fields: Vec<(String, String)>,
}

/// Re-interns a checkpointed name against the caller's static catalogue.
/// The empty string (a root span's parent name) always interns.
pub(crate) fn intern(names: &[&'static str], s: &str) -> Result<&'static str, String> {
    if s.is_empty() {
        return Ok("");
    }
    names
        .iter()
        .copied()
        .find(|n| *n == s)
        .ok_or_else(|| format!("checkpoint names unknown span/field name {s:?}"))
}

impl Telemetry {
    /// Captures the whole bundle — event ring, deterministic counters
    /// and gauges, span sink, sim clock — as a serializable checkpoint.
    /// The diagnostic registry, histograms, and the flight recorder are
    /// deliberately excluded (see the module docs).
    pub fn checkpoint_state(&self) -> TelemetryCheckpoint {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for m in self.registry().snapshot() {
            match m.value {
                MetricValue::Counter(v) => counters.push(ScalarMetricCheckpoint {
                    name: m.name,
                    labels: m.labels,
                    value: v,
                }),
                MetricValue::Gauge(v) => gauges.push(ScalarMetricCheckpoint {
                    name: m.name,
                    labels: m.labels,
                    value: v.to_bits(),
                }),
                MetricValue::Histogram(_) => {}
            }
        }
        TelemetryCheckpoint {
            now_secs: self.now().as_secs(),
            events: self.events().checkpoint(),
            counters,
            gauges,
            trace: self.tracer().checkpoint(),
        }
    }

    /// Restores a checkpoint into this bundle. Must be called on a
    /// *freshly created* bundle (counters are restored additively);
    /// `names` is the static catalogue span/field names are re-interned
    /// against. On error the bundle may be partially restored and must
    /// be discarded.
    pub fn restore_state(
        &self,
        ckpt: &TelemetryCheckpoint,
        names: &[&'static str],
    ) -> Result<(), String> {
        // The span sink restores first: it is the only step that can
        // fail (name interning), and it validates fully before applying.
        self.tracer().restore(&ckpt.trace, names)?;
        self.events().restore(&ckpt.events)?;
        for c in &ckpt.counters {
            let labels: Vec<(&str, &str)> = c
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            self.registry().counter(&c.name, &labels).add(c.value);
        }
        for g in &ckpt.gauges {
            let labels: Vec<(&str, &str)> = g
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            self.registry()
                .gauge(&g.name, &labels)
                .set(f64::from_bits(g.value));
        }
        self.set_now(fj_units::SimInstant::from_secs(ckpt.now_secs));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, SpanRecord};
    use fj_units::SimInstant;

    const NAMES: &[&str] = &["fleet_collect", "snmp_poll", "router"];

    #[test]
    fn bundle_round_trips_through_a_checkpoint() {
        let t = Telemetry::with_capacity(64);
        t.set_now(SimInstant::from_secs(900));
        t.registry().counter("polls_total", &[]).add(7);
        t.registry()
            .counter("gaps_total", &[("source", "snmp")])
            .add(2);
        t.registry()
            .gauge("fleet_router_health", &[("router", "r0")])
            .set(2.0);
        t.registry().histogram("latency_seconds", &[]).observe(0.5);
        t.diagnostics().counter("restarts_total", &[]).inc();
        t.event(
            Level::Warn,
            "fleet.collect",
            "snmp poll dropped, gap recorded",
            &[("router", "r0".to_owned())],
        );
        let root = t
            .tracer()
            .begin_span("fleet_collect", None, SimInstant::EPOCH);
        let rec = SpanRecord {
            name: "snmp_poll",
            sim_start: SimInstant::from_secs(300),
            sim_end: SimInstant::from_secs(300),
            wall_start_us: 10,
            wall_end_us: 25,
        };
        t.tracer().adopt(Some(root), 1, rec, Some(&"r0".into()));

        let ckpt = t.checkpoint_state();
        let json = serde_json::to_string_pretty(&ckpt).expect("serializes");
        let back: TelemetryCheckpoint = serde_json::from_str(&json).expect("parses");

        let fresh = Telemetry::with_capacity(64);
        fresh.restore_state(&back, NAMES).expect("restores");

        assert_eq!(fresh.now(), SimInstant::from_secs(900));
        assert_eq!(fresh.registry().counter_total("polls_total"), 7);
        assert_eq!(fresh.registry().counter_total("gaps_total"), 2);
        let events = fresh.events().events();
        assert_eq!(events, t.events().events());
        // The shared router label is written as a plain leading field and
        // read back into the shared slot.
        let fields = [("router".to_owned(), "r0".to_owned())];
        assert_eq!(ckpt.trace.finished[0].fields, fields);
        assert_eq!(fresh.tracer().spans()[0].router.as_deref(), Some("r0"));
        // Span stream continues: same retained spans, same next id.
        assert_eq!(fresh.tracer().spans(), t.tracer().spans());
        assert_eq!(fresh.tracer().open_spans(), t.tracer().open_spans());
        // The open root span can be re-acquired and closed after resume.
        let resumed = fresh
            .tracer()
            .resume_open_span("fleet_collect")
            .expect("root still open");
        assert_eq!(resumed.raw(), root.raw());
        fresh.tracer().end_span(resumed, SimInstant::from_secs(900));
        assert!(fresh.tracer().open_spans().is_empty());
        // New ids continue the sequence, never reuse.
        let next = fresh
            .tracer()
            .begin_span("snmp_poll", None, SimInstant::EPOCH);
        assert_eq!(next.raw(), 3, "id counter restored past 2 used ids");
        // Histograms and the diagnostic registry are excluded by design.
        assert!(!fresh.render_prometheus().contains("latency_seconds"));
        assert!(!fresh.render_prometheus().contains("restarts_total"));
    }

    #[test]
    fn seq_and_eviction_counters_survive_restore() {
        let t = Telemetry::with_capacity(2);
        for i in 0..5 {
            t.event(Level::Info, "t", format!("e{i}"), &[]);
        }
        t.event(Level::Debug, "t", "filtered out", &[]);
        let ckpt = t.checkpoint_state();

        let fresh = Telemetry::with_capacity(2);
        fresh.restore_state(&ckpt, NAMES).expect("restores");
        assert_eq!(fresh.events().evicted(), 3);
        assert_eq!(fresh.events().filtered(), 1);
        fresh.event(Level::Info, "t", "after resume", &[]);
        let events = fresh.events().events();
        assert_eq!(
            events.last().map(|e| e.seq),
            Some(5),
            "sequence numbers continue after the restored ring"
        );
    }

    #[test]
    fn unknown_span_name_is_a_restore_error() {
        let t = Telemetry::with_capacity(8);
        let s = t.tracer().begin_span("snmp_poll", None, SimInstant::EPOCH);
        t.tracer().end_span(s, SimInstant::EPOCH);
        let ckpt = t.checkpoint_state();
        let fresh = Telemetry::with_capacity(8);
        let err = fresh
            .restore_state(&ckpt, &["fleet_collect"])
            .expect_err("snmp_poll is not in the catalogue");
        assert!(err.contains("snmp_poll"), "error names the culprit: {err}");
    }
}
