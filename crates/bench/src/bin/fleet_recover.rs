//! Crash-recovery smoke: the CI-runnable proof that resume-from-
//! checkpoint is bit-identical to an uninterrupted run.
//!
//! The sequence mirrors `crates/isp/tests/recovery.rs` but runs as a
//! standalone binary so CI can archive what it produces (checkpoint
//! files, the flight-recorder dump) as artifacts:
//!
//! 1. collect an uninterrupted baseline trace (checkpointing as it
//!    goes);
//! 2. run the same scenario again and "kill" it after a few chunks
//!    (`stop_after_chunks` — the deterministic stand-in for SIGKILL);
//! 3. resume from the surviving checkpoints in a fresh telemetry
//!    bundle, with a chaos panic injected *after* the resume point and
//!    an armed flight recorder, so the supervised restart path runs and
//!    dumps;
//! 4. diff the resumed trace against the baseline — any divergence is a
//!    determinism-contract violation and fails the gate.
//!
//! The baseline run also prints its self-time profile per stage and
//! exports its causal span trace as Chrome `trace_event` JSON
//! (`trace-fleet.json` in the artifact directory), which Perfetto and
//! chrome://tracing load.
//!
//! Flags:
//!
//! * `--dir PATH` — artifact directory (default:
//!   `target/telemetry/recovery`); checkpoints, the span trace and the
//!   flightrec dump land here and are uploaded by the workflow.
//!
//! Exit codes: 0 pass, 1 contract violation, 2 usage/setup failure.

use std::path::PathBuf;
use std::process::ExitCode;

use fj_bench::EXPERIMENT_SEED;
use fj_faults::FaultPlan;
use fj_isp::checkpoint::CheckpointConfig;
use fj_isp::trace::{collect_streaming, ChaosPanic, StreamConfig, StreamOutcome};
use fj_isp::{build_fleet, FleetConfig};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant};

const CHUNK_ROUNDS: u64 = 96;
const KILL_AFTER_CHUNKS: u64 = 3;

fn parse_args() -> Result<PathBuf, String> {
    let mut dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/telemetry/recovery"
    ));
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => match it.next() {
                Some(p) => dir = PathBuf::from(p),
                None => return Err("--dir needs a path".to_owned()),
            },
            other => return Err(format!("unknown flag {other} (known: --dir PATH)")),
        }
    }
    Ok(dir)
}

fn run(
    config: &StreamConfig,
    telemetry: &std::sync::Arc<Telemetry>,
) -> Result<StreamOutcome, String> {
    let mut fleet = build_fleet(&FleetConfig::small(EXPERIMENT_SEED));
    let plan = FaultPlan::new(EXPERIMENT_SEED).with_drop_rate(0.1);
    collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        vec![],
        &[0, 3],
        &plan,
        telemetry,
        config,
    )
    .map_err(|e| format!("collection failed: {e}"))
}

fn main() -> ExitCode {
    let dir = match parse_args() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fleet_recover: {e}");
            return ExitCode::from(2);
        }
    };
    let ckpt_dir = dir.join("checkpoints");
    let base_dir = dir.join("baseline-checkpoints");
    for d in [&ckpt_dir, &base_dir] {
        if std::fs::remove_dir_all(d).is_err() {
            // Nothing to clean on the first run.
        }
    }

    println!("==============================================================");
    println!("fleet_recover — kill-and-resume determinism smoke");
    println!("artifacts: {}", dir.display());
    println!("==============================================================");

    // 1. Uninterrupted baseline (checkpointing, so counter registration
    // matches the resumed run's).
    let base_tel = Telemetry::with_capacity(1 << 16);
    let baseline = match run(
        &StreamConfig {
            shards: 4,
            chunk_rounds: CHUNK_ROUNDS,
            checkpoints: Some(CheckpointConfig::new(&base_dir)),
            ..StreamConfig::default()
        },
        &base_tel,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet_recover: baseline {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "baseline: {} rounds, {} missed polls",
        baseline.rounds_done, baseline.trace.missed_polls
    );
    println!("\n--- self-time profile (baseline run) ---");
    print!("{}", base_tel.tracer().render_profile());
    let trace_path = dir.join("trace-fleet.json");
    if let Err(e) = base_tel.write_trace(&trace_path) {
        eprintln!(
            "fleet_recover: writing {} failed: {e}",
            trace_path.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "trace: {} (load in Perfetto / chrome://tracing)",
        trace_path.display()
    );

    // 2. "Kill" the same scenario mid-run.
    let kill_tel = Telemetry::with_capacity(1 << 16);
    let killed = match run(
        &StreamConfig {
            shards: 4,
            chunk_rounds: CHUNK_ROUNDS,
            checkpoints: Some(CheckpointConfig::new(&ckpt_dir)),
            stop_after_chunks: Some(KILL_AFTER_CHUNKS),
            ..StreamConfig::default()
        },
        &kill_tel,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet_recover: kill run {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "killed after {} of {} rounds; checkpoints in {}",
        killed.rounds_done,
        killed.rounds_total,
        ckpt_dir.display()
    );

    // 3. Resume in a fresh "process", with a supervised chaos panic
    // after the resume point and the flight recorder armed.
    let resume_tel = Telemetry::with_capacity(1 << 16);
    resume_tel.arm_flight_recorder("fleet-recover", &dir);
    let resumed = match run(
        &StreamConfig {
            shards: 4,
            chunk_rounds: CHUNK_ROUNDS,
            checkpoints: Some(CheckpointConfig::new(&ckpt_dir)),
            resume: true,
            max_restarts: 2,
            chaos_panic: Some(ChaosPanic::once(
                KILL_AFTER_CHUNKS * CHUNK_ROUNDS + CHUNK_ROUNDS / 2,
                2,
            )),
            ..StreamConfig::default()
        },
        &resume_tel,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet_recover: resume {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "resumed at round {:?}, {} supervised restart(s), {} checkpoint(s) rejected",
        resumed.resumed_at_round, resumed.restarts, resumed.checkpoints_rejected
    );

    // 4. The contract: the stitched run equals the uninterrupted one.
    let mut failures = 0u32;
    if resumed.resumed_at_round != Some(KILL_AFTER_CHUNKS * CHUNK_ROUNDS) {
        eprintln!("FAIL: resume did not pick up at the kill point");
        failures += 1;
    }
    if resumed.restarts != 1 {
        eprintln!("FAIL: supervisor did not absorb the injected panic");
        failures += 1;
    }
    if resumed.trace != baseline.trace {
        eprintln!("FAIL: resumed trace diverged from the uninterrupted baseline");
        failures += 1;
    }
    match resume_tel.flight_recorder_path() {
        Some(p) => println!("flight recorder dump: {}", p.display()),
        None => {
            eprintln!("FAIL: supervised restart did not trip the armed flight recorder");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("\nfleet_recover: {failures} contract violation(s)");
        return ExitCode::FAILURE;
    }
    println!("\nresumed trace bit-identical to uninterrupted baseline — recovery contract holds");
    ExitCode::SUCCESS
}
