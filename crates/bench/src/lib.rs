//! Experiment regenerators and shared harness utilities.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that rebuilds it from the simulated substrate and prints
//! paper-vs-measured rows (recorded in the repository's `EXPERIMENTS.md`).
//! Criterion performance benches live in `benches/`.
//!
//! Run an experiment with e.g.:
//!
//! ```text
//! cargo run --release -p fj-bench --bin exp_table2_power_models
//! ```

pub mod derive_report;
pub mod paper;
pub mod table;

use std::path::PathBuf;
use std::sync::Arc;

use fj_alerts::AlertEngine;
use fj_isp::{build_fleet, Fleet, FleetConfig};
use fj_telemetry::{Level, MetricValue, Telemetry};
use fj_units::{SimDuration, SimInstant};

/// The standard seed used by every experiment, so all printed numbers are
/// reproducible verbatim.
pub const EXPERIMENT_SEED: u64 = 7;

/// Builds the standard Switch-like fleet used across experiments.
pub fn standard_fleet() -> Fleet {
    build_fleet(&FleetConfig::switch_like(EXPERIMENT_SEED))
}

/// Standard trace window for the long-horizon experiments: the paper's
/// SNMP dataset spans 10 months; most figures show a 2-month window
/// (Sep 08 – Nov 03). We simulate a comparable 8-week window by default,
/// which keeps the regenerators at tens-of-seconds scale in release mode.
pub fn standard_window() -> (SimInstant, SimInstant, SimDuration) {
    (
        SimInstant::EPOCH,
        SimInstant::from_days(56),
        SimDuration::from_mins(5),
    )
}

/// A shorter window (one week) for the quicker experiments.
pub fn short_window() -> (SimInstant, SimInstant, SimDuration) {
    (
        SimInstant::EPOCH,
        SimInstant::from_days(7),
        SimDuration::from_mins(5),
    )
}

/// Where experiment binaries drop their telemetry snapshots
/// (`target/telemetry/<binary>.json`).
pub fn telemetry_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/telemetry"
    ))
}

/// Prints the standard experiment banner and arms the telemetry summary:
/// the returned guard, dropped at the end of `main`, prints a metric
/// summary table and writes the process-wide snapshot to
/// [`telemetry_dir`]`/<binary>.json`. Info-and-up events echo to stderr
/// while the experiment runs, so progress notes stay out of the
/// machine-readable stdout tables.
#[must_use = "bind to a variable (`let _run = banner(...)`) so the telemetry summary prints at exit"]
pub fn banner(id: &str, title: &str) -> ExperimentRun {
    println!("==============================================================");
    println!("{id} — {title}");
    println!("seed {EXPERIMENT_SEED}; all numbers deterministic");
    println!("==============================================================");
    let telemetry = Arc::clone(fj_telemetry::global());
    telemetry.events().set_stderr_echo(Some(Level::Info));
    // Crash context for free: the first health-ladder departure or shard
    // panic in this run dumps spans + events + joins under telemetry_dir.
    telemetry.arm_flight_recorder(id, telemetry_dir());
    ExperimentRun {
        telemetry,
        alerts: Some(AlertEngine::new(fj_alerts::default_pack())),
    }
}

/// The experiment slug used for artifact filenames: the binary's name.
fn exe_slug() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "experiment".to_owned())
}

/// Guard returned by [`banner`]; see there.
pub struct ExperimentRun {
    telemetry: Arc<Telemetry>,
    /// Default SLO pack, evaluated once over the whole run at drop so
    /// the exit summary carries run-level verdicts (an engine's first
    /// sample counts the full reading, so one evaluation computes
    /// whole-run SLIs). `banner` attaches the default pack; clear or
    /// replace via [`ExperimentRun::set_alert_rules`].
    alerts: Option<AlertEngine>,
}

impl ExperimentRun {
    /// Replaces the alert rule pack evaluated at exit; `None` disables
    /// alerting for this run.
    pub fn set_alert_rules(&mut self, rules: Option<Vec<fj_alerts::AlertRule>>) {
        self.alerts = rules.map(AlertEngine::new);
    }
}

impl Drop for ExperimentRun {
    fn drop(&mut self) {
        let metrics = self.telemetry.metrics_snapshot();
        if metrics.is_empty() && self.telemetry.events().is_empty() {
            return; // nothing instrumented ran; keep the output clean
        }
        if let Some(engine) = &mut self.alerts {
            let now = self.telemetry.now();
            engine.eval_and_trip(&self.telemetry, now);
            let rendered = engine.render_prometheus();
            if !rendered.is_empty() {
                println!("\n--- alerts ---");
                print!("{rendered}");
            }
            let path = telemetry_dir().join(format!("alerts-{}.json", exe_slug()));
            match engine.write_alerts_json(&path) {
                Ok(()) => println!("alert dump: {}", path.display()),
                Err(e) => eprintln!("alert dump failed: {e}"),
            }
        }
        println!(
            "\n--- telemetry ({} series, {} events) ---",
            metrics.len(),
            self.telemetry.events().len()
        );
        for m in &metrics {
            let labels = if m.labels.is_empty() {
                String::new()
            } else {
                let inner: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
                format!("{{{}}}", inner.join(","))
            };
            match &m.value {
                MetricValue::Counter(c) => println!("  {}{labels} {c}", m.name),
                MetricValue::Gauge(g) => println!("  {}{labels} {g}", m.name),
                MetricValue::Histogram(h) => println!(
                    "  {}{labels} count={} mean={:.6} p99={:.6}",
                    m.name,
                    h.count,
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                ),
            }
        }
        let path = telemetry_dir().join(format!("{}.json", exe_slug()));
        match self.telemetry.write_snapshot(&path) {
            Ok(()) => println!("telemetry snapshot: {}", path.display()),
            Err(e) => eprintln!("telemetry snapshot failed: {e}"),
        }
        if let Some(dump) = self.telemetry.flight_recorder_path() {
            println!("flight recorder dump: {}", dump.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fleet_builds() {
        let fleet = standard_fleet();
        assert_eq!(fleet.routers.len(), 107);
    }

    #[test]
    fn windows_are_ordered() {
        let (start, end, step) = standard_window();
        assert!(start < end);
        assert!(step.is_positive());
    }
}
