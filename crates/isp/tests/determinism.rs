//! The FJ01 determinism contract for the sharded collection engine
//! (tier-1): the shard count must change wall-clock time and nothing
//! else. Traces, gap markers, telemetry events, spans, and the whole
//! deterministic registry are bit-identical whether the fleet runs on
//! one worker or many. The wall-clock round timing lives on the
//! diagnostic registry and is never compared.

mod common;

use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{build_fleet, EventKind, Fleet, FleetConfig, FleetTrace, ScheduledEvent};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

use common::{assert_diagnostic_split, deterministic_prometheus, stable_spans};

/// A week of 5-minute polls over a small fleet with drops, Autopower
/// meters, and mid-run events — every code path the engine has.
fn scenario() -> (Fleet, Vec<ScheduledEvent>, FaultPlan) {
    let fleet = build_fleet(&FleetConfig::small(11));
    let n = fleet.routers.len();
    assert!(n >= 5, "scenario expects a multi-router fleet");
    let iface = fleet.routers[1].plan[0].index;
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_days(1),
            kind: EventKind::AdminDown { router: 1, iface },
        },
        ScheduledEvent {
            at: SimInstant::from_days(2),
            kind: EventKind::OsUpdate {
                router: n - 1,
                version: "7.11.2".into(),
                delta: Watts::new(45.0),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(3),
            kind: EventKind::AdminUp { router: 1, iface },
        },
        ScheduledEvent {
            at: SimInstant::from_days(4),
            kind: EventKind::PsuFailure { router: 2, slot: 1 },
        },
    ];
    // 15 % drop rate is high enough to walk routers down the health
    // ladder into quarantine and back within a week.
    let plan = FaultPlan::new(0x6A9_0004).with_drop_rate(0.15);
    (fleet, events, plan)
}

/// The scenario at `shards` in `chunk_rounds`-round chunks; 0 runs the
/// whole horizon as one chunk. At 96 rounds per chunk the 2016-round
/// week splits into 21 chunks, none aligned to event days, so every
/// chunk boundary crosses the pipelined prefetch path: while the caller
/// merges chunk N, the pool is already simulating chunk N+1.
fn run(shards: usize, chunk_rounds: u64) -> (FleetTrace, Arc<Telemetry>) {
    let (mut fleet, events, plan) = scenario();
    collect(&mut fleet, 7, events, &[0, 3], &plan, shards, chunk_rounds)
}

/// The 1,000-router census over a day in 96-round chunks: three chunks
/// whose shards each hold hundreds of routers, with 5 % drops and an
/// event on router 500 (first of a shard at 2 and 4 shards) and on the
/// last router.
fn run_census(shards: usize) -> (FleetTrace, Arc<Telemetry>) {
    let mut fleet = build_fleet(&FleetConfig::census(7));
    let iface = fleet.routers[500].plan[0].index;
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_secs(6 * 3600),
            kind: EventKind::AdminDown { router: 500, iface },
        },
        ScheduledEvent {
            at: SimInstant::from_secs(12 * 3600),
            kind: EventKind::OsUpdate {
                router: 999,
                version: "7.11.2".into(),
                delta: Watts::new(45.0),
            },
        },
    ];
    let plan = FaultPlan::new(0x6A9_0005).with_drop_rate(0.05);
    collect(&mut fleet, 1, events, &[], &plan, shards, 96)
}

fn collect(
    fleet: &mut Fleet,
    days: i64,
    events: Vec<ScheduledEvent>,
    instrumented: &[usize],
    plan: &FaultPlan,
    shards: usize,
    chunk_rounds: u64,
) -> (FleetTrace, Arc<Telemetry>) {
    let telemetry = Telemetry::with_capacity(1 << 16);
    let outcome = collect_streaming(
        fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(days),
        SimDuration::from_mins(5),
        events,
        instrumented,
        plan,
        &telemetry,
        &StreamConfig {
            shards,
            chunk_rounds,
            ..StreamConfig::default()
        },
    )
    .expect("collection succeeds");
    assert!(outcome.completed, "full horizon collected");
    (outcome.trace, telemetry)
}

/// The engine's only always-on diagnostic series: host wall-clock timing.
const WALL_SERIES: [&str; 1] = ["fleet_poll_round_duration_seconds"];

/// Runs `run` sequentially and at each of `shards`, asserting that the
/// trace, the event log, the deterministic registry and the span stream
/// match the sequential run's; returns the sequential run.
fn assert_shard_invariant(
    run: impl Fn(usize) -> (FleetTrace, Arc<Telemetry>),
    shards: &[usize],
) -> (FleetTrace, Arc<Telemetry>) {
    let (seq_trace, seq_tel) = run(1);
    for &n in shards {
        let (par_trace, par_tel) = run(n);
        assert_eq!(
            seq_trace, par_trace,
            "{n}-shard trace diverged from sequential"
        );
        assert_eq!(
            seq_tel.events().events(),
            par_tel.events().events(),
            "{n}-shard event log diverged from sequential"
        );
        assert_eq!(
            deterministic_prometheus(&seq_tel),
            deterministic_prometheus(&par_tel),
            "{n}-shard metric snapshot diverged from sequential"
        );
        assert_eq!(
            stable_spans(&seq_tel),
            stable_spans(&par_tel),
            "{n}-shard span stream diverged from sequential"
        );
        assert_diagnostic_split(&par_tel, &WALL_SERIES);
    }
    (seq_trace, seq_tel)
}

#[test]
fn shard_count_never_changes_results() {
    let (seq_trace, seq_tel) = assert_shard_invariant(|n| run(n, 0), &[2, 3, 4, 8]);

    // The scenario actually exercised the interesting paths.
    assert!(seq_trace.missed_polls > 0, "drops occurred");
    assert!(
        !seq_trace.total_reported.gaps().is_empty(),
        "fleet total had unknowable rounds"
    );
    assert!(!seq_tel.events().events().is_empty(), "events were emitted");
    assert!(
        !seq_tel.tracer().spans().is_empty(),
        "causal spans were recorded"
    );
}

#[test]
fn shard_count_beyond_fleet_size_is_fine() {
    assert_shard_invariant(|n| run(n, 0), &[1024]);
}

/// FJ01 on the pool path: the chunked streaming engine — persistent
/// workers, pipelined merge, cells ping-ponging between dispatch and
/// merge — produces the same trace, events, metrics, and spans at any
/// shard count, including the 1024-shard placement-stress case.
#[test]
fn pool_path_chunking_never_changes_results() {
    let (seq_trace, _) = assert_shard_invariant(|n| run(n, 96), &[2, 4, 8, 1024]);

    // Chunking itself must not change the physics either: the chunked
    // sequential trace equals the whole-horizon sequential trace.
    let (whole_trace, _) = run(1, 0);
    assert_eq!(
        seq_trace, whole_trace,
        "chunked trace diverged from the whole-horizon engine"
    );
}

/// FJ01 at census scale, where each shard's slice of a chunk is
/// hundreds of routers wide rather than a handful.
#[test]
fn census_scale_sharding_never_changes_results() {
    let (seq_trace, _) = assert_shard_invariant(run_census, &[2, 4]);
    assert_eq!(seq_trace.routers.len(), 1000);
    assert!(seq_trace.missed_polls > 0, "drops occurred");
}
