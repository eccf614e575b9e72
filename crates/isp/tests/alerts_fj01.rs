//! FJ01 extended to the alerting plane: the rule verdict stream —
//! firing and resolved transitions with sim timestamps — is itself a
//! deterministic output, bit-identical at any shard count and across
//! kill-and-resume, while evaluation adds nothing to the base
//! deterministic surface.
//!
//! Three contracts, mirroring `profiler_fj01.rs` and `recovery.rs`:
//!
//! 1. **Shard invariance** — the same scenario with alerting configured
//!    produces the identical transition log at 1/2/4/8/1024 shards.
//! 2. **Off-surface evaluation** — an alerting run's trace, span
//!    stream, deterministic registry, and non-alert events are
//!    bit-identical to a plain run's; the alert-plane series
//!    (`fleet_alerts_*`) exist exactly when alerting is on, and only on
//!    the diagnostic registry.
//! 3. **Crash recovery** — a killed run resumed from its newest
//!    checkpoint restores the engine (phases, watches, and the full
//!    transition log) and finishes with a verdict stream bit-identical
//!    to an uninterrupted run's; a checkpoint written under a different
//!    rule pack is transactionally rejected.
//!
//! The scenario mixes the default SLO pack with two synthetic rules
//! whose verdicts are fixed by construction: `warmup_window`
//! (`fleet_poll_rounds_total < 200`) fires at the first 8 h boundary
//! and resolves at 24 h, and `sustained_collection`
//! (`>= 100` held for 8 h) walks pending → firing — so the stream is
//! guaranteed to exercise both transition kinds and the for-duration
//! machinery regardless of how the fault plan lands.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fj_alerts::{
    default_pack, AlertExpr, AlertRule, AlertTransition, Cmp, MetricSelector, Severity,
    TransitionKind,
};
use fj_faults::FaultPlan;
use fj_isp::checkpoint::CheckpointConfig;
use fj_isp::trace::{collect_streaming, AlertsConfig, StreamConfig, StreamOutcome};
use fj_isp::{build_fleet, EventKind, FleetConfig, ScheduledEvent};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

use common::{assert_diagnostic_split, deterministic_prometheus, stable_spans};

const CHUNK_ROUNDS: u64 = 96; // 8 h of 5-min polls; 575-round horizon → 6 chunks
const KILL_AFTER_CHUNKS: u64 = 3;

/// The default pack plus two rules with verdicts fixed by construction.
fn test_pack() -> Vec<AlertRule> {
    let mut pack = default_pack();
    pack.push(AlertRule::new(
        "warmup_window",
        Severity::Info,
        AlertExpr::Threshold {
            metric: MetricSelector::name("fleet_poll_rounds_total"),
            cmp: Cmp::Lt,
            value: 200.0,
        },
    ));
    pack.push(
        AlertRule::new(
            "sustained_collection",
            Severity::Info,
            AlertExpr::Threshold {
                metric: MetricSelector::name("fleet_poll_rounds_total"),
                cmp: Cmp::Ge,
                value: 100.0,
            },
        )
        .for_duration(SimDuration::from_hours(8)),
    );
    pack
}

fn config(shards: usize, alerts: bool) -> StreamConfig {
    StreamConfig {
        shards,
        chunk_rounds: CHUNK_ROUNDS,
        alerts: alerts.then(|| AlertsConfig {
            rules: test_pack(),
            json_path: None,
        }),
        ..StreamConfig::default()
    }
}

/// The profiler_fj01 scenario: two days of 5-minute polls over a small
/// fleet with drops and a mid-run OS update.
fn run(config: &StreamConfig) -> (StreamOutcome, Arc<Telemetry>) {
    let mut fleet = build_fleet(&FleetConfig::small(11));
    let events = vec![ScheduledEvent {
        at: SimInstant::from_days(1),
        kind: EventKind::OsUpdate {
            router: 3,
            version: "7.11.2".into(),
            delta: Watts::new(45.0),
        },
    }];
    let plan = FaultPlan::new(0x6A9_0007).with_drop_rate(0.15);
    let telemetry = Telemetry::with_capacity(1 << 16);
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        config,
    )
    .expect("collection succeeds");
    (outcome, telemetry)
}

/// A fresh, empty checkpoint directory unique to this test run.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fj-alerts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpointed(shards: usize, dir: &Path, alerts: bool) -> StreamConfig {
    StreamConfig {
        checkpoints: Some(CheckpointConfig::new(dir)),
        ..config(shards, alerts)
    }
}

/// Event log projected onto its deterministic content minus the alert
/// plane's own emissions: alert events consume sequence numbers, so the
/// on/off comparison drops `seq` and keeps everything else.
fn non_alert_events(t: &Telemetry) -> Vec<String> {
    t.events()
        .events()
        .iter()
        .filter(|e| e.target != "alerts")
        .map(|e| {
            format!(
                "{:?} {} {} sim={} fields={:?}",
                e.level,
                e.target,
                e.message,
                e.ts.as_secs(),
                e.fields
            )
        })
        .collect()
}

fn transitions(outcome: &StreamOutcome) -> Vec<AlertTransition> {
    outcome
        .alerts
        .as_ref()
        .expect("alerting run returns its engine")
        .transitions()
        .to_vec()
}

#[test]
fn alert_verdict_stream_is_shard_invariant() {
    let (baseline, _) = run(&config(1, true));
    let verdicts = transitions(&baseline);

    // The synthetic rules pin both transition kinds to known instants:
    // `warmup_window` fires at the first boundary and resolves once the
    // round counter passes 200; `sustained_collection` breaches at 16 h
    // but must hold for 8 h before firing at 24 h.
    let find = |rule: &str, kind: TransitionKind| {
        verdicts
            .iter()
            .find(|t| t.rule == rule && t.kind == kind)
            .unwrap_or_else(|| panic!("{rule} has a {} transition", kind.as_str()))
    };
    assert_eq!(
        find("warmup_window", TransitionKind::Firing).at,
        SimInstant::from_secs(8 * 3600)
    );
    assert_eq!(
        find("warmup_window", TransitionKind::Resolved).at,
        SimInstant::from_secs(24 * 3600)
    );
    assert_eq!(
        find("sustained_collection", TransitionKind::Firing).at,
        SimInstant::from_secs(24 * 3600)
    );

    for shards in [2usize, 4, 8, 1024] {
        let (outcome, _) = run(&config(shards, true));
        assert_eq!(
            transitions(&outcome),
            verdicts,
            "{shards}-shard verdict stream diverged from sequential"
        );
    }
}

#[test]
fn alert_evaluation_stays_off_the_deterministic_surface() {
    for shards in [1usize, 4] {
        let (off, off_tel) = run(&config(shards, false));
        let (on, on_tel) = run(&config(shards, true));

        assert_eq!(
            off.trace, on.trace,
            "{shards}-shard trace diverged when alerting"
        );
        assert_eq!(
            deterministic_prometheus(&off_tel),
            deterministic_prometheus(&on_tel),
            "{shards}-shard metric snapshot diverged when alerting"
        );
        assert_eq!(
            stable_spans(&off_tel),
            stable_spans(&on_tel),
            "{shards}-shard span stream diverged when alerting"
        );
        assert_eq!(
            non_alert_events(&off_tel),
            non_alert_events(&on_tel),
            "{shards}-shard non-alert events diverged when alerting"
        );

        // The alert-plane series exist exactly when alerting is on, and
        // only on the diagnostic registry.
        let off_prom = off_tel.render_prometheus();
        let on_prom = on_tel.render_prometheus();
        let alert_series = [
            "fleet_alerts_firing",
            "fleet_alerts_pending",
            "fleet_alert_evals_total",
            "fleet_alert_transitions_total",
        ];
        for name in alert_series {
            assert!(!off_prom.contains(name), "{name} leaked into a plain run");
            assert!(
                on_prom.contains(name),
                "{name} missing from an alerting run"
            );
        }
        assert_diagnostic_split(&on_tel, &alert_series);

        // A plain run emits no alert events; an alerting run's verdicts
        // all reach the event log.
        assert_eq!(
            non_alert_events(&off_tel).len(),
            off_tel.events().events().len()
        );
        let alert_events = on_tel
            .events()
            .events()
            .iter()
            .filter(|e| e.target == "alerts")
            .count();
        assert_eq!(alert_events as u64, transitions(&on).len() as u64);
    }
}

#[test]
fn alert_state_survives_kill_and_resume() {
    // Uninterrupted checkpointed baseline.
    let dir = checkpoint_dir("baseline");
    let (baseline, baseline_tel) = run(&checkpointed(4, &dir, true));
    assert!(baseline.completed);
    let baseline_verdicts = transitions(&baseline);

    // Kill after three chunks (24 h) — past the warmup resolve and the
    // sustained fire, so restored state must carry real transitions —
    // then resume in a fresh "process".
    let dir = checkpoint_dir("resume");
    let kill = StreamConfig {
        stop_after_chunks: Some(KILL_AFTER_CHUNKS),
        ..checkpointed(4, &dir, true)
    };
    let (killed, _) = run(&kill);
    assert!(!killed.completed, "killed run stops early");
    assert_eq!(killed.rounds_done, KILL_AFTER_CHUNKS * CHUNK_ROUNDS);

    let resume = StreamConfig {
        resume: true,
        ..checkpointed(4, &dir, true)
    };
    let (resumed, resumed_tel) = run(&resume);
    assert!(resumed.completed);
    assert_eq!(
        resumed.resumed_at_round,
        Some(KILL_AFTER_CHUNKS * CHUNK_ROUNDS)
    );
    assert_eq!(
        transitions(&resumed),
        baseline_verdicts,
        "resumed verdict stream diverged from uninterrupted baseline"
    );
    assert_eq!(resumed.trace, baseline.trace);
    assert_eq!(
        deterministic_prometheus(&resumed_tel),
        deterministic_prometheus(&baseline_tel)
    );

    // The restored engine reports the same live state as the baseline's.
    let (b, r) = (baseline.alerts.unwrap(), resumed.alerts.unwrap());
    assert_eq!(b.firing(), r.firing());
    assert_eq!(b.render_prometheus(), r.render_prometheus());
    assert_eq!(b.evals(), r.evals());
}

#[test]
fn changed_rule_pack_rejects_the_checkpoint() {
    let dir = checkpoint_dir("packchange");
    let kill = StreamConfig {
        stop_after_chunks: Some(KILL_AFTER_CHUNKS),
        ..checkpointed(4, &dir, true)
    };
    let (killed, _) = run(&kill);
    assert!(!killed.completed);

    // Resuming under the bare default pack (different rules_text) must
    // transactionally reject every candidate and restart from zero
    // rather than splice verdicts from a different contract.
    let resume = StreamConfig {
        resume: true,
        alerts: Some(AlertsConfig {
            rules: default_pack(),
            json_path: None,
        }),
        ..checkpointed(4, &dir, false)
    };
    let (outcome, _) = run(&resume);
    assert!(outcome.completed);
    assert_eq!(outcome.resumed_at_round, None, "no candidate accepted");
    assert!(
        outcome.checkpoints_rejected >= 1,
        "rejections are counted, got {}",
        outcome.checkpoints_rejected
    );
}
