//! Fleet collection throughput across shard counts.
//!
//! Times [`fj_isp::trace::collect_streaming`] over a routers × horizon
//! sweep at 1/2/4/8 shards, reporting router-rounds per second and the
//! speedup over the single-shard run. Every parallel trace is compared
//! against the sequential one — the determinism contract means the
//! numbers may *only* differ in wall-clock time, and this bench asserts
//! it on every cell. The sweep itself lives in
//! [`fj_bench::fleetbench`], shared with the `bench_compare` perf gate.
//!
//! Flags (hand-rolled, no CLI dependency):
//!
//! * `--smoke` — one tiny configuration at 1/2 shards, for CI;
//! * `--json` — also write the report JSON (see `--out`);
//! * `--out PATH` — where `--json` writes (default: `BENCH_fleet.json`
//!   at the repository root, the committed baseline the perf gate
//!   diffs against);
//! * `--trace PATH` — run one extra 4-shard traced smoke collection and
//!   write its Perfetto `trace_event` JSON to PATH, printing the
//!   self-time profile table;
//! * `--max-dispatch-wait-secs F` — fail (exit 1) if any profiled
//!   ≥ 2-shard run spent more than F seconds of cumulative pool
//!   dispatch wait (jobs queued behind busy workers). Skipped with a
//!   printed note on single-core hosts, where the pool's one worker
//!   makes queueing wait unavoidable by construction.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fj_bench::fleetbench::{run_sweep, version_string};
use fj_bench::EXPERIMENT_SEED;
use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{build_fleet, FleetConfig};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant};

struct Args {
    json: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    max_dispatch_wait_secs: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        smoke: false,
        out: None,
        trace: None,
        max_dispatch_wait_secs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--smoke" => args.smoke = true,
            "--out" => match it.next() {
                Some(p) => args.out = Some(PathBuf::from(p)),
                None => return Err("--out needs a path".to_owned()),
            },
            "--trace" => match it.next() {
                Some(p) => args.trace = Some(PathBuf::from(p)),
                None => return Err("--trace needs a path".to_owned()),
            },
            "--max-dispatch-wait-secs" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(f)) if f > 0.0 => args.max_dispatch_wait_secs = Some(f),
                _ => return Err("--max-dispatch-wait-secs needs a positive number".to_owned()),
            },
            other => {
                return Err(format!(
                    "unknown flag {other} (known: --json --smoke --out PATH --trace PATH \
                     --max-dispatch-wait-secs F)"
                ))
            }
        }
    }
    Ok(args)
}

/// The `--max-dispatch-wait-secs` throughput smoke gate: every profiled
/// ≥ 2-shard run must have kept its cumulative pool dispatch wait (time
/// shards sat queued behind busy workers) under the budget. Returns the
/// violations as `(cell label, shards, waited secs)`.
fn dispatch_wait_violations(
    report: &fj_bench::fleetbench::Report,
    budget: f64,
) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for cfg in &report.sweep {
        for run in &cfg.runs {
            let Some(wait) = run
                .efficiency
                .as_ref()
                .and_then(|e| e.pool_dispatch_wait_secs)
            else {
                continue;
            };
            if run.shards >= 2 && wait > budget {
                let label = format!("{} × {}d chunk {}", cfg.fleet, cfg.days, cfg.chunk_rounds);
                out.push((label, run.shards, wait));
            }
        }
    }
    out
}

/// One instrumented 4-shard smoke collection with the causal tracer on,
/// exported as Chrome `trace_event` JSON plus a printed self-time
/// profile.
fn write_trace(path: &Path) -> Result<(), String> {
    let mut fleet = build_fleet(&FleetConfig::small(EXPERIMENT_SEED));
    let telemetry = Telemetry::with_capacity(1 << 10);
    collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        vec![],
        &[0, 3],
        &FaultPlan::clean(),
        &telemetry,
        &StreamConfig {
            shards: 4,
            ..StreamConfig::default()
        },
    )
    .map_err(|e| format!("traced collection failed: {e}"))?;
    println!("\n--- self-time profile (4-shard traced smoke run) ---");
    print!("{}", telemetry.tracer().render_profile());
    telemetry
        .write_trace(path)
        .map_err(|e| format!("writing {} failed: {e}", path.display()))?;
    println!(
        "trace: {} (load in Perfetto / chrome://tracing)",
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_fleet: {e}");
            return ExitCode::from(2);
        }
    };

    println!("==============================================================");
    println!("bench_fleet — sharded collection throughput");
    println!(
        "seed {EXPERIMENT_SEED}; {} cores available; traces asserted bit-identical",
        fj_par::available_shards()
    );
    println!("generated by {}", version_string());
    println!("==============================================================");

    let report = match run_sweep(args.smoke, true) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_fleet: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("\nall parallel traces bit-identical to sequential — determinism holds");

    if let Some(budget) = args.max_dispatch_wait_secs {
        if fj_par::available_shards() <= 1 {
            println!(
                "dispatch-wait budget skipped: single-core host, the pool's one worker \
                 queues ≥2-shard dispatches by construction"
            );
        } else {
            let violations = dispatch_wait_violations(&report, budget);
            if violations.is_empty() {
                println!("pool dispatch wait within the {budget:.3}s budget on every ≥2-shard run");
            } else {
                for (cell, shards, wait) in &violations {
                    eprintln!(
                        "bench_fleet: {cell} at {shards} shards spent {wait:.3}s in pool \
                         dispatch wait (budget {budget:.3}s)"
                    );
                }
                return ExitCode::FAILURE;
            }
        }
    }

    if args.json {
        let path = args
            .out
            .unwrap_or_else(|| repo_root().join("BENCH_fleet.json"));
        let body = serde_json::to_string_pretty(&report).expect("report serialises");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("bench_fleet: creating {} failed: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        match std::fs::write(&path, body + "\n") {
            Ok(()) => println!("report: {}", path.display()),
            Err(e) => {
                eprintln!("bench_fleet: writing {} failed: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(trace_path) = &args.trace {
        if let Err(e) = write_trace(trace_path) {
            eprintln!("bench_fleet: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}
