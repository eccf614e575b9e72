//! `fj-telemetry` — structured events, metrics, and span timing for the
//! measurement plane.
//!
//! PR 1 made the measurement pipeline lossy *by design* — drops, backoff,
//! quarantine, gap markers. This crate makes the losses observable. The
//! paper's central diagnostic move (§5–§6) is comparing data sources that
//! disagree; doing that honestly requires watching the pipeline itself,
//! or collection artifacts silently become wrong energy numbers.
//!
//! Three primitives, zero external dependencies:
//!
//! * **metrics** — [`Counter`], [`Gauge`], and log-linear-bucket
//!   [`Histogram`]s with labels, registered in a [`Registry`] that
//!   renders a Prometheus-style text snapshot and a JSON snapshot;
//! * **events** — a leveled, bounded-ring [`EventLog`] of structured
//!   [`Event`]s, replacing every `eprintln!`-style site;
//! * **spans** — a [`SpanTimer`] producing per-stage latency histograms,
//!   wall-clock for real network paths and sim-clock for simulation
//!   paths (no `std::time::Instant` ever feeds simulated behaviour);
//! * **traces** — a [`TraceSink`] of hierarchical causal spans with dual
//!   sim+wall stamps, merged deterministically from bounded per-worker
//!   buffers and exportable as Chrome/Perfetto `trace_event` JSON or a
//!   self-time profile table (see [`trace`]);
//! * **flight recorder** — an armable dump of the recent span+event rings
//!   written when a fault-health ladder leaves `Healthy` or a shard
//!   worker panics (see [`Telemetry::arm_flight_recorder`]).
//!
//! A [`Telemetry`] bundle ties these together with a settable sim
//! clock: sim drivers call [`Telemetry::set_now`] each tick, so every
//! event carries the simulation timestamp of its cause and gap markers
//! can be joined against their cause events exactly. Components default
//! to the process-wide [`global`] bundle; tests that need isolation pass
//! their own via each component's `with_telemetry` hook.
//!
//! A bundle holds two registries, and the one a series is registered on
//! decides whether the FJ01 determinism suites compare it.
//! [`Telemetry::registry`] is the deterministic one: its rendering must
//! be bit-identical across shard counts, chunk sizes, and kill→resume,
//! and checkpoints carry it. [`Telemetry::diagnostics`] holds every
//! series a wall clock, the recovery schedule, or an optional feature
//! feeds; it is never compared or checkpointed. Operators see both as
//! one exposition ([`Telemetry::metrics_snapshot`],
//! [`Telemetry::render_prometheus`]).

pub mod checkpoint;
pub mod clock;
pub mod events;
mod flightrec;
pub mod histogram;
pub mod metrics;
pub mod progress;
pub mod render;
pub mod span;
pub mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use fj_units::SimInstant;

pub use checkpoint::TelemetryCheckpoint;
pub use clock::{WallDeadline, WallEpoch};
pub use events::{Event, EventLog, Level};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge, MetricSnapshot, MetricValue, Registry, RegistrySnapshot};
pub use progress::RunProgress;
pub use span::SpanTimer;
pub use trace::{Span, SpanBuffer, SpanId, SpanRecord, StageSpan, TraceSink};

use flightrec::FlightRecorder;

/// Metrics, events, causal traces, and the sim clock they are stamped
/// with.
pub struct Telemetry {
    registry: Registry,
    diagnostics: Registry,
    events: EventLog,
    trace: TraceSink,
    flightrec: Mutex<Option<FlightRecorder>>,
    progress: Mutex<progress::ProgressPlane>,
    now_secs: AtomicI64,
}

impl Telemetry {
    /// A fresh, isolated bundle (default ring capacity, Info retention).
    pub fn new() -> Arc<Telemetry> {
        Self::with_capacity(events::DEFAULT_CAPACITY)
    }

    /// A fresh bundle retaining up to `capacity` events and `capacity`
    /// finished trace spans.
    pub fn with_capacity(capacity: usize) -> Arc<Telemetry> {
        let registry = Registry::new();
        // Ring overflow is visible, never silent: the trace sink feeds
        // the same counter pattern EventLog uses for `evicted()`.
        let dropped = registry.counter("spans_dropped_total", &[]);
        Arc::new(Telemetry {
            trace: TraceSink::new(capacity, dropped),
            registry,
            diagnostics: Registry::new(),
            events: EventLog::new(capacity),
            flightrec: Mutex::new(None),
            progress: Mutex::new(progress::ProgressPlane::default()),
            now_secs: AtomicI64::new(0),
        })
    }

    /// The deterministic metric registry: the series FJ01 compares, and
    /// the only ones a checkpoint carries. Every series not fed by a wall
    /// clock, the recovery schedule, or an optional feature lives here.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The diagnostic metric registry: series a wall clock, the recovery
    /// schedule, or an optional feature feeds. They render alongside the
    /// deterministic ones but are never compared or checkpointed, so a
    /// resumed process starts them from zero.
    pub fn diagnostics(&self) -> &Registry {
        &self.diagnostics
    }

    /// Every series of both registries, sorted by name then labels
    /// exactly as one registry sorts — the operator-facing view.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut all = self.registry.snapshot();
        all.extend(self.diagnostics.snapshot());
        all.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        all
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Sets the sim clock used to stamp subsequent events. Sim drivers
    /// call this once per tick; real-time paths inherit whatever the
    /// surrounding driver set (EPOCH by default).
    pub fn set_now(&self, t: SimInstant) {
        // fj-lint: allow(FJ09) — event-timestamp cell: the sim driver is
        // the single writer and ticks strictly forward; a racing reader
        // can only see the previous tick's stamp, never a torn or
        // reordered value.
        self.now_secs.store(t.as_secs(), Ordering::Relaxed);
    }

    /// The current sim-clock reading.
    pub fn now(&self) -> SimInstant {
        // fj-lint: allow(FJ09) — see set_now: worst case an event carries
        // the previous tick's stamp, which the FJ01 suites tolerate.
        SimInstant::from_secs(self.now_secs.load(Ordering::Relaxed))
    }

    /// Emits an event stamped with the current sim clock.
    pub fn event(
        &self,
        level: Level,
        target: &str,
        message: impl Into<String>,
        fields: &[(&str, String)],
    ) {
        self.events.emit(self.now(), level, target, message, fields);
    }

    /// Prometheus-style text rendering of both registries, merged.
    pub fn render_prometheus(&self) -> String {
        render::to_prometheus_text(&self.metrics_snapshot())
    }

    /// Pretty-printed JSON snapshot of metrics (both registries) and
    /// retained events.
    pub fn snapshot_json(&self) -> String {
        let value = render::to_json_value(&self.metrics_snapshot(), &self.events);
        serde_json::to_string_pretty(&value)
            .unwrap_or_else(|e| format!("{{\"error\":\"snapshot serialization failed: {e}\"}}"))
    }

    /// Writes the JSON snapshot to `path`, creating parent directories.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.snapshot_json())
    }

    /// The causal trace sink.
    pub fn tracer(&self) -> &TraceSink {
        &self.trace
    }

    /// Publishes a live-progress snapshot into the bounded progress ring.
    ///
    /// Progress is wall-clock-derived and lives off the FJ01 surface:
    /// publishing touches no metric, event, or span state.
    pub fn publish_progress(&self, snapshot: RunProgress) {
        self.progress.lock().publish(snapshot);
    }

    /// The most recently published progress snapshot, if any.
    pub fn latest_progress(&self) -> Option<RunProgress> {
        self.progress.lock().latest()
    }

    /// The retained progress history, oldest first (bounded ring of
    /// [`progress::PROGRESS_CAPACITY`] snapshots).
    pub fn progress_history(&self) -> Vec<RunProgress> {
        self.progress.lock().history()
    }

    /// Snapshots ever published (including ones the ring has evicted).
    pub fn progress_published(&self) -> u64 {
        self.progress.lock().published()
    }

    /// Prometheus text for the latest progress snapshot — rendered on
    /// demand from the progress ring, separate from both registries'
    /// [`Telemetry::render_prometheus`]. Empty when nothing was published.
    pub fn render_progress_prometheus(&self) -> String {
        let latest = self.latest_progress();
        progress::to_prometheus_text(latest.as_ref())
    }

    /// Writes the Chrome/Perfetto `trace_event` JSON export of the trace
    /// sink to `path`, creating parent directories.
    pub fn write_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.trace.to_trace_event_json())
    }

    /// Arms the flight recorder: the first fault trip after this call
    /// dumps the recent span+event rings to `dir/flightrec-<exp>.json`.
    /// Re-arming resets the trip-once latch.
    pub fn arm_flight_recorder(&self, experiment: &str, dir: impl Into<PathBuf>) {
        *self.flightrec.lock() = Some(FlightRecorder {
            experiment: experiment.to_owned(),
            dir: dir.into(),
            dumped: None,
        });
    }

    /// Whether a trip now would write a dump: the recorder is armed and
    /// has not tripped yet.
    pub fn flight_recorder_armed(&self) -> bool {
        self.flightrec
            .lock()
            .as_ref()
            .is_some_and(|r| r.dumped.is_none())
    }

    /// The dump path, once the armed recorder has tripped.
    pub fn flight_recorder_path(&self) -> Option<PathBuf> {
        self.flightrec
            .lock()
            .as_ref()
            .and_then(|r| r.dumped.clone())
    }

    /// Trips the flight recorder: dumps the current span+event rings with
    /// `reason` and `extra` context fields, returning the dump path.
    /// Strict no-op when unarmed (no event, no metric — fault paths in
    /// deterministic scenarios stay byte-identical) and after the first
    /// trip (the dump captures the *first* failure).
    pub fn trip_flight_recorder(&self, reason: &str, extra: &[(&str, String)]) -> Option<PathBuf> {
        let experiment;
        let path;
        {
            let mut armed = self.flightrec.lock();
            let rec = armed.as_mut()?;
            if rec.dumped.is_some() {
                return None;
            }
            let p = rec.dir.join(format!("flightrec-{}.json", rec.experiment));
            rec.dumped = Some(p.clone());
            experiment = rec.experiment.clone();
            path = p;
        }
        // Guard released before touching the event/span rings below.
        let doc = flightrec::document(self, &experiment, reason, extra);
        let text = serde_json::to_string_pretty(&doc)
            .unwrap_or_else(|e| format!("{{\"error\":\"flightrec serialization failed: {e}\"}}"));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            self.event(
                Level::Error,
                "telemetry.flightrec",
                "flight recorder dump failed",
                &[
                    ("path", path.display().to_string()),
                    ("error", e.to_string()),
                ],
            );
            return None;
        }
        self.registry.counter("flightrec_dumps_total", &[]).inc();
        self.event(
            Level::Warn,
            "telemetry.flightrec",
            "flight recorder dumped",
            &[
                ("path", path.display().to_string()),
                ("reason", reason.to_owned()),
                ("spans_dropped", self.trace.dropped().to_string()),
            ],
        );
        Some(path)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.metrics_snapshot().len())
            .field("events", &self.events.len())
            .field("now", &self.now())
            .finish()
    }
}

/// The process-wide default bundle. Components fall back to it when not
/// given an explicit [`Telemetry`]; experiment binaries snapshot it at
/// exit.
pub fn global() -> &'static Arc<Telemetry> {
    static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_the_sim_clock() {
        let t = Telemetry::new();
        t.set_now(SimInstant::from_secs(300));
        t.event(Level::Warn, "test", "gap", &[]);
        let events = t.events().events();
        assert_eq!(events[0].ts, SimInstant::from_secs(300));
        assert_eq!(t.now(), SimInstant::from_secs(300));
    }

    #[test]
    fn snapshot_json_contains_registered_series() {
        let t = Telemetry::new();
        t.registry().counter("polls_total", &[]).add(3);
        let json = t.snapshot_json();
        assert!(json.contains("polls_total"));
        let back: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(back.as_map().is_some());
    }

    #[test]
    fn global_is_shared() {
        let a = global();
        a.registry().counter("global_smoke_total", &[]).inc();
        assert_eq!(global().registry().counter_total("global_smoke_total"), 1);
    }

    #[test]
    fn flight_recorder_trips_once_and_joins_cause_events() {
        let t = Telemetry::with_capacity(64);
        let dir = std::env::temp_dir().join("fj-flightrec-test");
        let _ = std::fs::remove_dir_all(&dir);

        // Unarmed trips are strict no-ops: no dump, no event, no metric.
        assert!(t.trip_flight_recorder("unarmed", &[]).is_none());
        assert!(t.events().events().is_empty());
        assert!(!t.flight_recorder_armed());

        t.arm_flight_recorder("unit", &dir);
        assert!(t.flight_recorder_armed());
        t.set_now(SimInstant::from_secs(600));
        let poll = t.tracer().begin_span("snmp_poll", None, t.now());
        t.tracer().annotate(poll, "router", "7");
        t.tracer().end_span(poll, t.now());
        t.event(
            Level::Warn,
            "fleet.collect",
            "snmp poll dropped, gap recorded",
            &[("router", "7".to_owned()), ("series", "snmp".to_owned())],
        );

        let path = t
            .trip_flight_recorder("health ladder left Healthy", &[("router", "7".to_owned())])
            .expect("armed trip dumps");
        assert!(path.exists());
        let back: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let doc = back.as_map().unwrap();
        let joins = serde::field(doc, "joins").as_array().unwrap();
        assert_eq!(joins.len(), 1, "gap event joins its snmp_poll span");
        assert_eq!(
            serde::field(doc, "unjoined_fault_events"),
            &serde::Value::UInt(0)
        );
        assert_eq!(t.flight_recorder_path().as_deref(), Some(path.as_path()));
        assert_eq!(t.registry().counter_total("flightrec_dumps_total"), 1);

        // Trip-once: the second trip is a no-op.
        assert!(!t.flight_recorder_armed());
        assert!(t.trip_flight_recorder("again", &[]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_plane_publishes_and_renders() {
        let t = Telemetry::new();
        assert!(t.latest_progress().is_none());
        assert_eq!(t.render_progress_prometheus(), "");
        let dir = std::env::temp_dir().join("fj-progress-test");
        let _ = std::fs::remove_dir_all(&dir);

        let p = RunProgress {
            chunk: 2,
            rounds_done: 192,
            rounds_total: 960,
            routers: 11,
            shards: 4,
            wall_secs: 1.0,
            rounds_per_sec: 192.0,
            eta_secs: 4.0,
            est_peak_record_bytes: 4096,
            checkpoints_written: 2,
            checkpoints_rejected: 0,
            recoveries: 1,
            efficiency: 0.75,
            merge_fraction: 0.2,
        };
        t.publish_progress(p.clone());
        assert_eq!(t.latest_progress(), Some(p.clone()));
        assert_eq!(t.progress_published(), 1);
        let prom = t.render_progress_prometheus();
        assert!(prom.contains("fj_progress_rounds_done 192"));
        // Progress never leaks into the deterministic exposition.
        assert!(!t.render_prometheus().contains("fj_progress"));

        // The flight recorder dump carries the latest snapshot.
        t.arm_flight_recorder("progress-unit", &dir);
        let dump = t.trip_flight_recorder("unit", &[]).expect("armed trip");
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        let progress = serde::field(doc.as_map().unwrap(), "progress");
        let got: RunProgress = serde::from_value(progress).unwrap();
        assert_eq!(got, p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_creates_directories() {
        let t = Telemetry::new();
        t.registry().gauge("g", &[]).set(1.0);
        let dir = std::env::temp_dir().join("fj-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("snap.json");
        t.write_snapshot(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
