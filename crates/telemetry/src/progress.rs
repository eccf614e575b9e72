//! Live run-progress plane.
//!
//! A census-scale streaming run (1000 routers × months, chunked and
//! checkpointed) can take long enough that "is it stuck?" becomes a real
//! operational question. This module gives the engine a place to publish
//! per-chunk [`RunProgress`] snapshots into a bounded ring, which
//! observers read *mid-run* through
//! [`Telemetry::latest_progress`](crate::Telemetry::latest_progress),
//! [`Telemetry::progress_history`](crate::Telemetry::progress_history),
//! or as Prometheus text for the latest snapshot from
//! [`Telemetry::render_progress_prometheus`](crate::Telemetry::render_progress_prometheus),
//! rendered on demand and entirely separate from both metric registries.
//!
//! Everything here is wall-clock-derived (rates, ETAs) and therefore
//! lives **off** the FJ01 deterministic surface: snapshots never enter
//! the event log, the trace sink, or either metric registry; the flight
//! recorder dump carries the latest one as a side channel. The FJ01
//! regression test `crates/isp/tests/profiler_fj01.rs` holds the engine
//! to that.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize, Value};

/// Snapshots retained in the ring; older ones are evicted silently
/// (the Prometheus view only ever needs the latest, the history is for
/// post-hoc rate inspection).
pub const PROGRESS_CAPACITY: usize = 256;

/// One per-chunk progress snapshot published by the streaming engine.
///
/// All rates and durations are wall-clock-derived and nondeterministic;
/// counts (`rounds_done`, `checkpoints_written`, …) mirror the engine's
/// own state at publish time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunProgress {
    /// Chunks merged so far in this process (resumed chunks excluded).
    pub chunk: u64,
    /// Rounds merged into the trace, including any resumed prefix.
    pub rounds_done: u64,
    /// Total rounds the run will produce.
    pub rounds_total: u64,
    /// Routers in the fleet.
    pub routers: u64,
    /// Worker shards the run was configured with.
    pub shards: u64,
    /// Wall seconds since the run (this process) started.
    pub wall_secs: f64,
    /// Merge throughput of this process: rounds merged / wall seconds.
    pub rounds_per_sec: f64,
    /// Remaining rounds / `rounds_per_sec` (0 when the rate is 0).
    pub eta_secs: f64,
    /// Estimated peak resident bytes for in-flight round records.
    pub est_peak_record_bytes: u64,
    /// Checkpoints written by this process.
    pub checkpoints_written: u64,
    /// Checkpoint candidates rejected during resume.
    pub checkpoints_rejected: u64,
    /// Supervised in-memory restarts after shard panics.
    pub recoveries: u64,
    /// Parallel efficiency folded over the chunks so far (0 when the
    /// profiler is off).
    pub efficiency: f64,
    /// Serial-merge fraction folded over the chunks so far.
    pub merge_fraction: f64,
}

impl RunProgress {
    /// Completion percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        if self.rounds_total == 0 {
            100.0
        } else {
            100.0 * self.rounds_done as f64 / self.rounds_total as f64
        }
    }
}

/// The bounded snapshot ring held by [`crate::Telemetry`].
#[derive(Debug, Default)]
pub(crate) struct ProgressPlane {
    ring: VecDeque<RunProgress>,
    published: u64,
}

impl ProgressPlane {
    pub fn publish(&mut self, p: RunProgress) {
        if self.ring.len() == PROGRESS_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(p);
        self.published += 1;
    }

    pub fn latest(&self) -> Option<RunProgress> {
        self.ring.back().cloned()
    }

    pub fn history(&self) -> Vec<RunProgress> {
        self.ring.iter().cloned().collect()
    }

    pub fn published(&self) -> u64 {
        self.published
    }
}

/// Renders the latest snapshot as Prometheus text (empty string when
/// nothing was published). Deliberately separate from the registry
/// renderer: these series are wall-derived and must never mix into the
/// deterministic exposition.
pub(crate) fn to_prometheus_text(latest: Option<&RunProgress>) -> String {
    use std::fmt::Write as _;
    let Some(p) = latest else {
        return String::new();
    };
    let mut out = String::new();
    let gauges: [(&str, f64); 12] = [
        ("fj_progress_chunk", p.chunk as f64),
        ("fj_progress_rounds_done", p.rounds_done as f64),
        ("fj_progress_rounds_total", p.rounds_total as f64),
        ("fj_progress_percent", p.percent()),
        ("fj_progress_rounds_per_sec", p.rounds_per_sec),
        ("fj_progress_eta_seconds", p.eta_secs),
        ("fj_progress_wall_seconds", p.wall_secs),
        (
            "fj_progress_est_peak_record_bytes",
            p.est_peak_record_bytes as f64,
        ),
        (
            "fj_progress_checkpoints_written",
            p.checkpoints_written as f64,
        ),
        (
            "fj_progress_checkpoints_rejected",
            p.checkpoints_rejected as f64,
        ),
        ("fj_progress_recoveries", p.recoveries as f64),
        ("fj_progress_parallel_efficiency", p.efficiency),
    ];
    for (name, value) in gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(out, "# TYPE fj_progress_merge_fraction gauge");
    let _ = writeln!(out, "fj_progress_merge_fraction {}", p.merge_fraction);
    out
}

/// The latest snapshot as a JSON value (`Null` when none), for the
/// flight recorder dump.
pub(crate) fn to_value(latest: Option<&RunProgress>) -> Value {
    latest.map_or(Value::Null, Serialize::to_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(chunk: u64) -> RunProgress {
        RunProgress {
            chunk,
            rounds_done: chunk * 96,
            rounds_total: 960,
            routers: 11,
            shards: 2,
            wall_secs: 0.5,
            rounds_per_sec: 192.0,
            eta_secs: 2.0,
            est_peak_record_bytes: 4096,
            checkpoints_written: chunk,
            checkpoints_rejected: 0,
            recoveries: 0,
            efficiency: 0.8,
            merge_fraction: 0.1,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut plane = ProgressPlane::default();
        assert!(plane.latest().is_none());
        for c in 0..(PROGRESS_CAPACITY as u64 + 10) {
            plane.publish(snap(c));
        }
        assert_eq!(plane.published(), PROGRESS_CAPACITY as u64 + 10);
        let history = plane.history();
        assert_eq!(history.len(), PROGRESS_CAPACITY);
        assert_eq!(history[0].chunk, 10);
        assert_eq!(
            plane.latest().map(|p| p.chunk),
            Some(PROGRESS_CAPACITY as u64 + 9)
        );
    }

    #[test]
    fn percent_is_total_aware() {
        let mut p = snap(5);
        assert!((p.percent() - 50.0).abs() < 1e-9);
        p.rounds_total = 0;
        assert_eq!(p.percent(), 100.0);
    }

    #[test]
    fn prometheus_text_renders_every_series_once() {
        let text = to_prometheus_text(Some(&snap(3)));
        for name in [
            "fj_progress_chunk",
            "fj_progress_rounds_done",
            "fj_progress_rounds_total",
            "fj_progress_percent",
            "fj_progress_rounds_per_sec",
            "fj_progress_eta_seconds",
            "fj_progress_wall_seconds",
            "fj_progress_est_peak_record_bytes",
            "fj_progress_checkpoints_written",
            "fj_progress_checkpoints_rejected",
            "fj_progress_recoveries",
            "fj_progress_parallel_efficiency",
            "fj_progress_merge_fraction",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} gauge")),
                "missing TYPE for {name}"
            );
            assert_eq!(
                text.lines().filter(|l| l.starts_with(name)).count(),
                1,
                "exactly one sample line for {name}"
            );
        }
        assert_eq!(to_prometheus_text(None), "");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let p = snap(7);
        let text = serde_json::to_string(&p).expect("serialize");
        let back: RunProgress = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, p);
    }
}
