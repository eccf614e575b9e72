//! FJ01 regression for the shard-utilization profiler and the live
//! progress plane: enabling `StreamConfig::profile` must leave the
//! deterministic surface — trace, events, span stream, and the whole
//! deterministic registry — bit-identical to an unprofiled run at every
//! shard count.
//!
//! The profiler's series (`fleet_parallel_efficiency`,
//! `fleet_merge_fraction`, `fleet_progress_rounds_per_sec`,
//! `fleet_shard_busy_seconds`, `fleet_pool_dispatch_wait_seconds`) are
//! wall-clock-derived and live on the diagnostic registry, exactly like
//! the recovery counters in `recovery.rs` — they exist only when the
//! profiler is on and *should* differ between otherwise identical runs.
//! Everything else must not.

mod common;

use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig, StreamOutcome};
use fj_isp::{build_fleet, EventKind, FleetConfig, ScheduledEvent};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

use common::{assert_diagnostic_split, deterministic_prometheus, stable_spans};

/// The profiler-only series: present exactly when profiling is on.
const PROFILER_SERIES: [&str; 5] = [
    "fleet_parallel_efficiency",
    "fleet_merge_fraction",
    "fleet_progress_rounds_per_sec",
    "fleet_shard_busy_seconds",
    "fleet_pool_dispatch_wait_seconds",
];

/// A two-day chunked run over a small fleet with drops and a mid-run
/// event — enough rounds for several chunks per shard count.
fn run(shards: usize, profile: bool) -> (StreamOutcome, Arc<Telemetry>) {
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
    let config = StreamConfig {
        shards,
        chunk_rounds: 96,
        profile,
        ..StreamConfig::default()
    };
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        &config,
    )
    .expect("collection succeeds");
    (outcome, telemetry)
}

#[test]
fn profiler_adds_nothing_to_the_deterministic_surface() {
    for shards in [1usize, 2, 4, 8, 1024] {
        let (off, off_tel) = run(shards, false);
        let (on, on_tel) = run(shards, true);

        assert_eq!(
            off.trace, on.trace,
            "{shards}-shard trace diverged when profiling"
        );
        assert_eq!(
            off_tel.events().events(),
            on_tel.events().events(),
            "{shards}-shard event log diverged when profiling"
        );
        assert_eq!(
            deterministic_prometheus(&off_tel),
            deterministic_prometheus(&on_tel),
            "{shards}-shard metric snapshot diverged when profiling"
        );
        assert_eq!(
            stable_spans(&off_tel),
            stable_spans(&on_tel),
            "{shards}-shard span stream diverged when profiling"
        );

        // The profiler-only series exist exactly when profiling: a plain
        // run's exposition carries none of them, so existing callers see
        // a byte-identical registry.
        let off_prom = off_tel.render_prometheus();
        for name in &PROFILER_SERIES {
            assert!(
                !off_prom.contains(name),
                "{name} leaked into an unprofiled run"
            );
        }
        let on_prom = on_tel.render_prometheus();
        for name in &PROFILER_SERIES {
            assert!(on_prom.contains(name), "{name} missing from a profiled run");
        }
        assert_diagnostic_split(&on_tel, &PROFILER_SERIES);

        // Progress snapshots publish only when profiling, and only into
        // the side-channel ring — never the event log or the registry.
        assert!(off_tel.latest_progress().is_none());
        let latest = on_tel.latest_progress().expect("progress published");
        assert_eq!(latest.rounds_done, on.rounds_total);
        assert_eq!(latest.rounds_total, on.rounds_total);
        assert_eq!(latest.shards, shards as u64);
        assert!(
            on_tel.progress_published() >= on.rounds_total / 96,
            "one snapshot per chunk"
        );

        // The efficiency report rides the outcome side channel.
        assert!(off.efficiency.is_none());
        let report = on.efficiency.expect("profiled run reports efficiency");
        assert_eq!(report.chunks, on_tel.progress_published());
        assert!(report.wall_secs > 0.0);
        assert!(report.efficiency > 0.0 && report.efficiency <= 1.0);
        assert!(report.imbalance >= 1.0);
        // At most one worker per router; the report records what ran.
        assert_eq!(report.shards, shards.min(on.trace.routers.len()));

        // The pool-path fields are always present on a fresh report.
        // Dispatch wait exists only on the pooled engine (shards > 1);
        // merge overlap is bounded by the merge time it overlapped.
        let wait = report
            .pool_dispatch_wait_secs
            .expect("fresh report carries dispatch wait");
        let overlap = report.merge_overlap_secs;
        let fraction = report
            .merge_overlap_fraction
            .expect("fresh report carries overlap fraction");
        assert!(wait >= 0.0);
        assert!(overlap >= 0.0);
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        if shards == 1 {
            assert_eq!(wait, 0.0, "inline engine never queues a dispatch");
            assert_eq!(overlap, 0.0, "inline engine never overlaps merges");
        }
    }
}
