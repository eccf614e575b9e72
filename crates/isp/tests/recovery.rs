//! The FJ01 determinism contract extended to crash recovery (tier-1):
//! resume-from-checkpoint is bit-identical — traces, gap markers, span
//! streams, events, counters — to an uninterrupted run at any shard
//! count. Three interruption modes are proven against the same baseline:
//!
//! 1. an injected mid-run shard panic, absorbed by the supervisor;
//! 2. a killed run resumed from its newest checkpoint in a fresh
//!    "process" (new telemetry bundle, fresh fleet);
//! 3. a corrupt (bit-flipped) latest checkpoint, forcing fallback to the
//!    previous chunk's file.
//!
//! Recovery bookkeeping is the sanctioned out-of-band surface: the
//! recovery-only counters (`fleet_recoveries_total`,
//! `fleet_checkpoints_rejected_total`) live on the diagnostic registry,
//! which is never compared, and the flight recorder — armed in dedicated
//! tests below — must trip on every supervised restart and checkpoint
//! rejection.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::checkpoint::CheckpointConfig;
use fj_isp::trace::{collect_streaming, ChaosPanic, StreamConfig, StreamOutcome};
use fj_isp::{build_fleet, EventKind, Fleet, FleetConfig, ScheduledEvent};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

use common::{assert_diagnostic_split, deterministic_prometheus, stable_spans};

const HORIZON_DAYS: i64 = 2;
const CHUNK_ROUNDS: u64 = 96; // 8 h of 5-min polls; 575-round horizon → 6 chunks
const KILL_AFTER_CHUNKS: u64 = 3;

/// Two days of 5-minute polls over a small fleet with drops, Autopower
/// meters, and mid-run events — the determinism scenario compressed to
/// recovery-test length.
fn scenario_fleet() -> (Fleet, Vec<ScheduledEvent>, FaultPlan) {
    let fleet = build_fleet(&FleetConfig::small(11));
    let n = fleet.routers.len();
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_secs(12 * 3600),
            kind: EventKind::AdminDown {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(1),
            kind: EventKind::OsUpdate {
                router: n - 1,
                version: "7.11.2".into(),
                delta: Watts::new(45.0),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_secs(36 * 3600),
            kind: EventKind::AdminUp {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
    ];
    let plan = FaultPlan::new(0x6A9_0006).with_drop_rate(0.15);
    (fleet, events, plan)
}

fn run(config: &StreamConfig) -> (StreamOutcome, Arc<Telemetry>, Fleet) {
    let (mut fleet, events, plan) = scenario_fleet();
    let telemetry = Telemetry::with_capacity(1 << 16);
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(HORIZON_DAYS),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        config,
    )
    .expect("collection succeeds");
    (outcome, telemetry, fleet)
}

/// A fresh, empty checkpoint directory unique to this test run.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fj-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpointed(shards: usize, dir: &Path) -> StreamConfig {
    StreamConfig {
        shards,
        chunk_rounds: CHUNK_ROUNDS,
        checkpoints: Some(CheckpointConfig::new(dir)),
        ..StreamConfig::default()
    }
}

/// The diagnostic series every checkpointed run registers: host
/// wall-clock timing plus the two recovery counters.
const DIAGNOSTIC_SERIES: [&str; 3] = [
    "fleet_poll_round_duration_seconds",
    "fleet_recoveries_total",
    "fleet_checkpoints_rejected_total",
];

fn assert_matches_baseline(
    label: &str,
    baseline: &(StreamOutcome, Arc<Telemetry>, Fleet),
    candidate: &(StreamOutcome, Arc<Telemetry>, Fleet),
) {
    assert!(candidate.0.completed, "{label}: run completed");
    assert_eq!(
        baseline.0.trace, candidate.0.trace,
        "{label}: trace diverged from uninterrupted run"
    );
    assert_eq!(
        baseline.1.events().events(),
        candidate.1.events().events(),
        "{label}: event log diverged from uninterrupted run"
    );
    assert_eq!(
        deterministic_prometheus(&baseline.1),
        deterministic_prometheus(&candidate.1),
        "{label}: metric snapshot diverged from uninterrupted run"
    );
    assert_eq!(
        stable_spans(&baseline.1),
        stable_spans(&candidate.1),
        "{label}: span stream diverged from uninterrupted run"
    );
    assert_diagnostic_split(&candidate.1, &DIAGNOSTIC_SERIES);
    // Final simulator state converged too: the next collection would
    // start from identical fleets.
    assert_eq!(
        baseline.2.routers.len(),
        candidate.2.routers.len(),
        "{label}: fleet size"
    );
    for (b, c) in baseline.2.routers.iter().zip(&candidate.2.routers) {
        assert_eq!(b.sim.now(), c.sim.now(), "{label}: {} clock", b.name);
        assert_eq!(
            b.sim.wall_power(),
            c.sim.wall_power(),
            "{label}: {} wall power",
            b.name
        );
    }
}

/// Flips one bit in the middle of the file — a torn/corrupt write the
/// CRC seal must catch.
fn corrupt_file(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, bytes).expect("write corrupted checkpoint");
}

fn newest_checkpoint(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fjck"))
        .collect();
    files.sort();
    files.pop().expect("at least one checkpoint written")
}

#[test]
fn recovery_is_bit_identical_at_every_shard_count() {
    for shards in [1usize, 2, 4, 8] {
        // Uninterrupted baseline, itself checkpointing (so the
        // deterministic `fleet_checkpoints_written_total` counter is
        // comparable across all runs below).
        let base_dir = checkpoint_dir(&format!("base-{shards}"));
        let baseline = run(&checkpointed(shards, &base_dir));
        assert!(baseline.0.completed);
        assert_eq!(baseline.0.rounds_done, baseline.0.rounds_total);
        assert!(baseline.0.trace.missed_polls > 0, "drops occurred");
        assert!(
            !baseline.0.trace.total_reported.gaps().is_empty(),
            "fleet total had unknowable rounds"
        );

        // 1. Supervised recovery from an injected mid-run shard panic:
        // round 150 sits mid-chunk (96..192), so the supervisor must
        // rewind half-simulated state to the chunk boundary.
        let panic_dir = checkpoint_dir(&format!("panic-{shards}"));
        let panicked = run(&StreamConfig {
            max_restarts: 2,
            chaos_panic: Some(ChaosPanic::once(150, 2)),
            ..checkpointed(shards, &panic_dir)
        });
        assert_eq!(panicked.0.restarts, 1, "supervisor absorbed the panic");
        assert_matches_baseline(&format!("panic shards={shards}"), &baseline, &panicked);

        // 2. Kill-and-resume: stop after 3 chunks (the deterministic
        // stand-in for a killed process), then resume in a fresh
        // "process" — new telemetry bundle, fresh round-zero fleet.
        let kill_dir = checkpoint_dir(&format!("kill-{shards}"));
        let killed = run(&StreamConfig {
            stop_after_chunks: Some(KILL_AFTER_CHUNKS),
            ..checkpointed(shards, &kill_dir)
        });
        assert!(!killed.0.completed);
        assert_eq!(killed.0.rounds_done, KILL_AFTER_CHUNKS * CHUNK_ROUNDS);
        let resumed = run(&StreamConfig {
            resume: true,
            ..checkpointed(shards, &kill_dir)
        });
        assert_eq!(
            resumed.0.resumed_at_round,
            Some(KILL_AFTER_CHUNKS * CHUNK_ROUNDS),
            "resumed from the newest checkpoint"
        );
        assert_eq!(resumed.0.checkpoints_rejected, 0);
        assert_matches_baseline(&format!("resume shards={shards}"), &baseline, &resumed);

        // 3. Corrupt latest checkpoint: the CRC seal rejects it and the
        // resume falls back to the previous chunk's file.
        let corrupt_dir = checkpoint_dir(&format!("corrupt-{shards}"));
        let _ = run(&StreamConfig {
            stop_after_chunks: Some(KILL_AFTER_CHUNKS),
            ..checkpointed(shards, &corrupt_dir)
        });
        corrupt_file(&newest_checkpoint(&corrupt_dir));
        let fallback = run(&StreamConfig {
            resume: true,
            ..checkpointed(shards, &corrupt_dir)
        });
        assert_eq!(
            fallback.0.resumed_at_round,
            Some((KILL_AFTER_CHUNKS - 1) * CHUNK_ROUNDS),
            "fell back to the previous chunk's checkpoint"
        );
        assert!(fallback.0.checkpoints_rejected >= 1);
        assert_matches_baseline(&format!("fallback shards={shards}"), &baseline, &fallback);

        for dir in [base_dir, panic_dir, kill_dir, corrupt_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[test]
fn supervised_rewind_without_checkpoints() {
    // The checkpointed panic above only ever rewinds to a boundary that
    // also wrote a checkpoint. Without checkpoints, round 40 panics in
    // the first chunk, which rewinds to the snapshot taken before the
    // first dispatch, and round 150 rewinds to a boundary snapshot kept
    // for supervision alone.
    for shards in [1usize, 4] {
        let supervised = StreamConfig {
            shards,
            chunk_rounds: CHUNK_ROUNDS,
            max_restarts: 2,
            ..StreamConfig::default()
        };
        let baseline = run(&supervised);
        for round in [40, 150] {
            let panicked = run(&StreamConfig {
                chaos_panic: Some(ChaosPanic::once(round, 2)),
                ..supervised.clone()
            });
            assert_eq!(panicked.0.restarts, 1, "supervisor absorbed the panic");
            assert_matches_baseline(
                &format!("rewind round={round} shards={shards}"),
                &baseline,
                &panicked,
            );
        }
    }
}

#[test]
fn streaming_defaults_match_plain_sharded_engine() {
    // StreamConfig::default() — no chunking, no checkpoints, no
    // supervision — must be the plain engine bit-for-bit, counters
    // included (the recovery counters are registered only for
    // supervised/checkpointed runs).
    let plain = run(&StreamConfig {
        shards: 2,
        ..StreamConfig::default()
    });
    assert!(!plain
        .1
        .render_prometheus()
        .contains("fleet_checkpoints_written_total"));

    let dir = checkpoint_dir("defaults");
    let checkpointed_run = run(&checkpointed(2, &dir));
    assert!(checkpointed_run
        .1
        .render_prometheus()
        .contains("fleet_checkpoints_written_total"));
    assert_eq!(plain.0.trace, checkpointed_run.0.trace);
    assert_eq!(
        plain.1.events().events(),
        checkpointed_run.1.events().events()
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flight_recorder_trips_on_supervised_recovery() {
    let dir = checkpoint_dir("flightrec-panic");
    // Clean poll plan: the recorder dumps the *first* trip, so no
    // health-ladder trip may precede the injected panic.
    let (mut fleet, events, _) = scenario_fleet();
    let plan = FaultPlan::clean();
    let telemetry = Telemetry::with_capacity(1 << 16);
    telemetry.arm_flight_recorder("recovery-panic", &dir);
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(HORIZON_DAYS),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        &StreamConfig {
            max_restarts: 2,
            chaos_panic: Some(ChaosPanic::once(150, 2)),
            ..checkpointed(4, &dir)
        },
    )
    .expect("collection succeeds");
    assert_eq!(outcome.restarts, 1);
    assert_eq!(
        telemetry
            .diagnostics()
            .counter("fleet_recoveries_total", &[])
            .get(),
        1
    );

    let dump = telemetry
        .flight_recorder_path()
        .expect("recovery tripped the armed recorder");
    let doc = std::fs::read_to_string(&dump).expect("dump readable");
    assert!(
        doc.contains("shard worker panicked"),
        "dump names the trip reason"
    );
    assert!(doc.contains("chunk_first_round"), "dump carries the window");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flight_recorder_trips_on_checkpoint_rejection() {
    let dir = checkpoint_dir("flightrec-reject");
    let _ = run(&StreamConfig {
        stop_after_chunks: Some(KILL_AFTER_CHUNKS),
        ..checkpointed(4, &dir)
    });
    corrupt_file(&newest_checkpoint(&dir));

    let (mut fleet, events, plan) = scenario_fleet();
    let telemetry = Telemetry::with_capacity(1 << 16);
    telemetry.arm_flight_recorder("recovery-reject", &dir);
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(HORIZON_DAYS),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        &StreamConfig {
            resume: true,
            ..checkpointed(4, &dir)
        },
    )
    .expect("collection succeeds");
    assert_eq!(outcome.checkpoints_rejected, 1);
    assert_eq!(
        telemetry
            .diagnostics()
            .counter("fleet_checkpoints_rejected_total", &[])
            .get(),
        1
    );

    let dump = telemetry
        .flight_recorder_path()
        .expect("rejection tripped the armed recorder");
    let doc = std::fs::read_to_string(&dump).expect("dump readable");
    assert!(
        doc.contains("checkpoint rejected"),
        "dump names the trip reason"
    );
    assert!(
        doc.contains("BadCrc") || doc.contains("crc"),
        "dump carries the frame error"
    );
    let _ = std::fs::remove_dir_all(dir);
}
