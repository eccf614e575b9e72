//! `fj-alerts` — a deterministic alerting and SLO plane over
//! `fj-telemetry`.
//!
//! The paper's operational story — spotting mispredicting power models,
//! stale meters, and fleet-wide drift across a 10-month census — needs
//! more than raw counters: it needs *rules* that say when a run is
//! unhealthy, evaluated reproducibly. This crate supplies that layer:
//!
//! * **rules** ([`rule`]) — declarative alert rules (threshold,
//!   rate-of-change, absence/staleness, multi-window burn rate) with a
//!   one-line text format that round-trips, so rule packs embed in
//!   checkpoints and diff cleanly;
//! * **engine** ([`engine`]) — evaluation against live registry
//!   snapshots in **sim time**, a `pending → firing → resolved` state
//!   machine with `for`-durations and `keep_firing_for` hysteresis, a
//!   bounded verdict log, Prometheus `ALERTS{...}`-style rendering,
//!   atomic `alerts-<exp>.json` dumps, and flight-recorder trips that
//!   attach the triggering rule;
//! * **pack** ([`pack`]) — the default SLO rule pack for fleet runs
//!   (gap-rate SLO, prediction-error burn rate, checkpoint-rejection
//!   spike, dispatch-wait budget, progress stall, collector health).
//!
//! Determinism contract: evaluation consumes only sim time and registry
//! snapshots. The deterministic registry is bit-identical at any
//! shard/chunk count under FJ01, so a verdict stream over its series is
//! too, and survives crash/resume via [`engine::EngineState`] embedded
//! in fleet checkpoints. The engine's own series (`fleet_alerts_*`,
//! registered by the fleet engine only when alerting is configured) live
//! on the diagnostic registry (`Telemetry::diagnostics`), off the base
//! FJ01 surface, exactly like the profiler and recovery planes.

pub mod engine;
pub mod pack;
pub mod rule;

pub use engine::{
    burn_rate, step_phase, window_sum, AlertEngine, AlertTransition, EngineState, Phase,
    TransitionKind, Watch, TRANSITION_LOG_CAPACITY,
};
pub use pack::default_pack;
pub use rule::{
    fmt_duration, parse_duration, parse_rules, render_rules, AlertExpr, AlertRule, Cmp,
    MetricSelector, RuleParseError, Severity,
};
