//! Bit identity across commits (tier-1): FNV-1a digests of one small
//! collection, pinned as constants.
//!
//! The other FJ01 suites compare the engine with itself (shard counts,
//! chunk sizes, kill→resume) or with the naive oracle. All of them call
//! the same `wall_power`, PSU sensor and §6.2 predictor, so a change to
//! the power arithmetic that moves every number the same way passes
//! them all. These digests do not move with the code. A refactor that
//! is meant to keep outputs must leave them as they are; a change that
//! moves outputs on purpose updates them and says why.

mod common;

use std::sync::Arc;

use fj_core::InterfaceClass;
use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{
    build_fleet, CheckpointConfig, EventKind, Fleet, FleetConfig, FleetRouter, FleetTrace,
    ScheduledEvent,
};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, TimeSeries, Watts};
use serde::Value;

use common::{assert_diagnostic_split, deterministic_prometheus, stable_spans};

/// Every series' sample times, value bits and gap markers.
const SERIES_DIGEST: u64 = 0xfac0_6c3d_4f56_f92d;
/// The deterministic registry's Prometheus text.
const PROMETHEUS_DIGEST: u64 = 0xe274_5b37_67c1_a07d;
/// The span stream without wall stamps (`common::stable_spans`).
const SPANS_DIGEST: u64 = 0xdf63_b679_aa9d_8069;
/// The checkpoint files a checkpointed run of the same scenario leaves,
/// payloads only, with every wall-clock key projected out
/// ([`WALL_KEYS`]).
const CHECKPOINT_DIGEST: u64 = 0x0b0a_f08e_b45f_bba6;
/// The span streams, drop counts and flight-recorder dumps of two runs
/// whose span rings overflow mid-chunk ([`overflow_digest`]).
const OVERFLOW_DIGEST: u64 = 0x3011_8bf2_440d_3319;

/// Checkpoint keys that carry wall-clock time: span stamps and the
/// per-stage wall totals. They measure the host, not the simulation.
const WALL_KEYS: [&str; 4] = ["wall_start_us", "wall_end_us", "wall_us", "child_wall_us"];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn series(&mut self, s: &TimeSeries) {
        self.write(&(s.len() as u64).to_le_bytes());
        for (at, v) in s.iter() {
            self.write(&at.as_secs().to_le_bytes());
            self.write(&v.to_bits().to_le_bytes());
        }
        self.write(&(s.gap_count() as u64).to_le_bytes());
        for g in s.gaps() {
            self.write(&g.as_secs().to_le_bytes());
        }
    }
}

/// An empty cage of `r` whose port type one of its planned interfaces
/// shares, with that interface's class: a plug the truth model prices.
fn empty_cage(r: &FleetRouter) -> (usize, InterfaceClass) {
    let ports = &r.sim.spec().ports;
    (0..r.sim.interface_count())
        .filter(|&i| r.sim.interface(i).is_ok_and(|st| st.transceiver.is_none()))
        .find_map(|i| {
            r.plan
                .iter()
                .find(|p| p.class.port == ports[i].port)
                .map(|p| (i, p.class))
        })
        .expect("the router has an empty cage of a planned port type")
}

/// 50 census routers, a 10 % seeded drop plan, two Autopower meters and
/// one event of each kind, 55 minutes apart inside the 8 h horizon.
fn scenario() -> (Fleet, Vec<ScheduledEvent>, FaultPlan) {
    let fleet = build_fleet(&FleetConfig::census_of(1, 50));
    let iface = |router: usize| fleet.routers[router].plan[0].index;
    let (plug, class) = empty_cage(&fleet.routers[4]);
    let kinds = vec![
        EventKind::UnplugTransceiver {
            router: 1,
            iface: iface(1),
        },
        EventKind::AdminDown {
            router: 2,
            iface: iface(2),
        },
        EventKind::PowerCyclePsu { router: 3, slot: 0 },
        EventKind::PlugAndEnable {
            router: 4,
            iface: plug,
            class,
        },
        EventKind::OsUpdate {
            router: 5,
            version: "7.11.2".into(),
            delta: Watts::new(45.0),
        },
        EventKind::AdminUp {
            router: 2,
            iface: iface(2),
        },
        EventKind::PsuFailure { router: 6, slot: 1 },
        EventKind::PowerStep {
            router: 7,
            delta: Watts::new(-30.0),
        },
    ];
    let events = kinds
        .into_iter()
        .zip(1..)
        .map(|(kind, k)| ScheduledEvent {
            at: SimInstant::from_secs(k * 55 * 60),
            kind,
        })
        .collect();
    let plan = FaultPlan::new(0x6A9_0017).with_drop_rate(0.10);
    (fleet, events, plan)
}

fn run() -> (FleetTrace, Arc<Telemetry>) {
    run_with(None)
}

fn run_with(checkpoints: Option<CheckpointConfig>) -> (FleetTrace, Arc<Telemetry>) {
    let telemetry = Telemetry::with_capacity(1 << 16);
    let trace = run_into(&telemetry, checkpoints);
    (trace, telemetry)
}

/// The digest scenario, collected into `telemetry`.
fn run_into(telemetry: &Arc<Telemetry>, checkpoints: Option<CheckpointConfig>) -> FleetTrace {
    let (mut fleet, events, plan) = scenario();
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_secs(8 * 3600),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        telemetry,
        &StreamConfig {
            shards: 2,
            chunk_rounds: 32,
            checkpoints,
            ..StreamConfig::default()
        },
    )
    .expect("collection succeeds");
    assert!(outcome.completed, "full horizon collected");
    outcome.trace
}

#[test]
fn outputs_match_the_pinned_digests() {
    let (trace, telemetry) = run();
    assert!(trace.missed_polls > 0, "drops occurred");
    assert!(
        trace.routers.iter().all(|rt| !rt.predicted.is_empty()),
        "every router was priced"
    );
    assert_diagnostic_split(&telemetry, &["fleet_poll_round_duration_seconds"]);

    let mut series = Fnv::new();
    for rt in &trace.routers {
        series.write(rt.name.as_bytes());
        for s in [&rt.psu_reported, &rt.wall, &rt.traffic, &rt.predicted] {
            series.series(s);
        }
    }
    let totals = [
        &trace.total_wall,
        &trace.total_reported,
        &trace.total_traffic,
    ];
    for s in totals {
        series.series(s);
    }
    series.write(&trace.missed_polls.to_le_bytes());

    let mut prometheus = Fnv::new();
    prometheus.write(deterministic_prometheus(&telemetry).as_bytes());

    let mut spans = Fnv::new();
    for line in stable_spans(&telemetry) {
        spans.write(line.as_bytes());
        spans.write(b"\n");
    }

    assert_eq!(
        [series.0, prometheus.0, spans.0],
        [SERIES_DIGEST, PROMETHEUS_DIGEST, SPANS_DIGEST],
        "series, Prometheus and span digests"
    );
}

/// Drops every [`WALL_KEYS`] entry from the tree, at any depth.
fn without_wall_keys(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            entries.retain(|(k, _)| !WALL_KEYS.contains(&k.as_str()));
            entries.iter_mut().for_each(|(_, v)| without_wall_keys(v));
        }
        Value::Array(items) => items.iter_mut().for_each(without_wall_keys),
        _ => {}
    }
}

/// FNV-1a over the checkpoint payloads one checkpointed run writes at
/// its chunk boundaries (rounds 32 and 64), wall keys projected out.
fn checkpoint_digest(tag: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("fj-digest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_with(Some(CheckpointConfig::new(&dir)));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "one checkpoint per inner chunk boundary");
    let mut h = Fnv::new();
    for path in files {
        let framed = std::fs::read(&path).expect("checkpoint readable");
        let payload = fj_faults::frame::unseal(&framed).expect("checkpoint frame verifies");
        let mut tree: Value = serde_json::from_slice(payload).expect("payload parses");
        without_wall_keys(&mut tree);
        h.write(&serde_json::to_vec(&tree).expect("tree serializes"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.0
}

#[test]
fn checkpoint_bytes_match_the_pinned_digest() {
    let first = checkpoint_digest("a");
    assert_eq!(
        first,
        checkpoint_digest("b"),
        "two runs write the same bytes"
    );
    assert_eq!(first, CHECKPOINT_DIGEST, "checkpoint digest {first:#018x}");
}

/// Feeds one run's overflow-sensitive outputs into `h`: the stable span
/// stream (ids, parents, lanes, `dropped()`), `spans_dropped_total`, and
/// the flight-recorder dump with wall keys projected out. Returns the ids
/// of the dump's finished spans, so a caller can check the ring had
/// overflowed when the recorder tripped.
fn hash_overflowed(h: &mut Fnv, telemetry: &Telemetry) -> Vec<u64> {
    for line in stable_spans(telemetry) {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    let dropped_total = telemetry.registry().counter_total("spans_dropped_total");
    h.write(&dropped_total.to_le_bytes());
    let path = telemetry
        .flight_recorder_path()
        .expect("a health trip dumped a flight record");
    let text = std::fs::read_to_string(&path).expect("dump readable");
    let mut dump: Value = serde_json::from_str(&text).expect("dump parses");
    without_wall_keys(&mut dump);
    h.write(&serde_json::to_vec(&dump).expect("dump serializes"));
    let spans = serde::field(dump.as_map().expect("dump is an object"), "spans");
    let spans = spans.as_array().expect("dump spans");
    spans
        .iter()
        .map(|s| match serde::field(s.as_map().expect("span"), "id") {
            Value::UInt(id) => *id,
            other => panic!("span id {other:?}"),
        })
        .collect()
}

/// Two runs whose 1 000-span sink ring overflows mid-chunk, each with an
/// armed flight recorder: the digest scenario (32-round chunks), and eight
/// routers through one whole-horizon chunk of 2 100 rounds, long enough
/// that the 4 096-span worker buffers evict too.
fn overflow_digest(tag: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("fj-digest-overflow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = Fnv::new();

    let telemetry = Telemetry::with_capacity(1_000);
    telemetry.arm_flight_recorder("digest-scenario", &dir);
    run_into(&telemetry, None);
    hash_overflowed(&mut h, &telemetry);
    assert!(telemetry.tracer().dropped() > 0, "the sink ring overflowed");

    let telemetry = Telemetry::with_capacity(1_000);
    telemetry.arm_flight_recorder("digest-long-chunk", &dir);
    let mut fleet = build_fleet(&FleetConfig::census_of(1, 8));
    let rounds: i64 = 2_100;
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_secs((rounds + 1) * 300),
        SimDuration::from_mins(5),
        vec![],
        &[0],
        &FaultPlan::new(0x6A9_0020).with_drop_rate(0.05),
        &telemetry,
        &StreamConfig {
            shards: 2,
            ..StreamConfig::default()
        },
    )
    .expect("collection succeeds");
    assert_eq!(
        outcome.rounds_done, rounds as u64,
        "one whole-horizon chunk"
    );
    let dumped = hash_overflowed(&mut h, &telemetry);
    assert!(
        dumped.len() == 1_000 && dumped[0] > 1_000,
        "the recorder tripped after the ring overflowed"
    );
    // Every span is finished, so ids issued minus spans kept is what the
    // sink ring evicted; the rest of `dropped()` the worker buffers did.
    let spans = telemetry.tracer().spans();
    let issued = spans.iter().map(|s| s.id).max().unwrap_or(0);
    assert!(
        telemetry.tracer().dropped() > issued - spans.len() as u64,
        "worker buffers evicted spans too"
    );

    let _ = std::fs::remove_dir_all(&dir);
    h.0
}

#[test]
fn overflowing_rings_match_the_pinned_digest() {
    let first = overflow_digest("a");
    assert_eq!(first, overflow_digest("b"), "two runs hash the same");
    assert_eq!(first, OVERFLOW_DIGEST, "overflow digest {first:#018x}");
}
