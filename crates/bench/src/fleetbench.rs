//! Shared fleet-bench harness: the shard-count sweep behind
//! `bench_fleet`, the `BENCH_fleet.json` report shape, and the
//! baseline diff behind `bench_compare` (the CI perf-regression gate).
//!
//! The sweep times [`fj_isp::trace::collect_streaming`] over a
//! routers × horizon × chunk grid, reporting router-rounds per second,
//! the speedup over the single-shard run, and the estimated peak
//! resident record bytes — the streaming engine's
//! `O(routers × chunk_rounds)` memory bound made visible next to the
//! whole-horizon `O(routers × rounds)` cells. Every cell asserts that
//! its trace is bit-identical to the cell's first run (the determinism
//! contract: shard count and chunk size may only change wall-clock time
//! and memory).

use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, estimated_peak_record_bytes, StreamConfig};
use fj_isp::{build_fleet, FleetConfig, FleetTrace};
use fj_obs::ParallelEfficiencyReport;
use fj_router_sim::SimError;
use fj_telemetry::{Telemetry, WallEpoch};
use fj_units::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};

use crate::table::{fmt, TablePrinter};
use crate::EXPERIMENT_SEED;

/// The `BENCH_fleet.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Always `"bench_fleet"`.
    pub bench: String,
    /// Seed the swept fleets were built from.
    pub seed: u64,
    /// Cores available where the report was produced.
    pub cores: usize,
    /// Whether this was the `--smoke` sweep.
    pub smoke: bool,
    /// Provenance of the report (absent in pre-provenance baselines).
    pub generated_by: Option<GeneratedBy>,
    /// One entry per fleet × horizon × chunk cell.
    pub sweep: Vec<ConfigReport>,
}

/// Provenance block for `BENCH_fleet.json`: which commit recorded the
/// report, so a regression can be traced to the baseline that defined it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedBy {
    /// `git describe`-style version string (`<tag|short-sha>[-dirty]`),
    /// falling back to the crate version when git is unavailable.
    pub version: String,
    /// Whether the recording sweep ran in `--smoke` mode.
    pub smoke: bool,
    /// Cores detected on the recording host
    /// (`std::thread::available_parallelism`), recorded honestly so a
    /// single-core baseline is self-describing: speedup and efficiency
    /// gates skip rather than compare against numbers parallelism could
    /// never have produced there. Absent in pre-pool baselines (the
    /// top-level `cores` field covers those).
    pub cores: Option<usize>,
}

/// A `git describe --always --dirty --tags` of the repository this
/// binary was built from; `cargo-<version>` when git is not available
/// (no repo, no binary, sandboxed CI).
pub fn version_string() -> String {
    let described = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output();
    match described {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            if text.is_empty() {
                format!("cargo-{}", env!("CARGO_PKG_VERSION"))
            } else {
                text
            }
        }
        _ => format!("cargo-{}", env!("CARGO_PKG_VERSION")),
    }
}

/// One sweep cell's results across shard counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigReport {
    /// Fleet label (`small` / `switch` / `census`).
    pub fleet: String,
    /// Router count of the fleet.
    pub routers: usize,
    /// Horizon in days.
    pub days: u64,
    /// Epoch chunk size in poll rounds (0 = whole horizon in one chunk,
    /// the pre-streaming engine's memory profile).
    pub chunk_rounds: u64,
    /// One entry per shard count.
    pub runs: Vec<RunReport>,
}

/// One timed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Shard count of this run.
    pub shards: usize,
    /// Wall-clock seconds for the whole collection.
    pub secs: f64,
    /// Poll rounds simulated.
    pub rounds: usize,
    /// Throughput: router-rounds per wall second.
    pub router_rounds_per_sec: f64,
    /// Speedup over the single-shard run of the same cell.
    pub speedup: f64,
    /// Estimated peak resident bytes of in-flight round records:
    /// `routers × min(2 × chunk, rounds) × sizeof(record)`. The column
    /// the streaming engine exists for — chunked cells hold two chunks
    /// (one merging, one simulating), whole-horizon cells hold every
    /// round at once.
    pub est_peak_record_bytes: u64,
    /// Whether the trace matched the cell's first run (always true —
    /// a divergence aborts the sweep — but recorded for the artifact).
    pub identical: bool,
    /// Parallel-efficiency profile of this run (worker utilization,
    /// merge fraction, imbalance, Amdahl ceiling). Absent in baselines
    /// recorded before the profiler existed.
    pub efficiency: Option<ParallelEfficiencyReport>,
}

/// One sweep cell: a fleet size, a horizon, and a chunk size.
struct Config {
    label: &'static str,
    fleet: FleetConfig,
    days: u64,
    chunk_rounds: u64,
    shards: &'static [usize],
}

fn sweep_grid(smoke: bool) -> Vec<Config> {
    if smoke {
        vec![
            Config {
                label: "small",
                fleet: FleetConfig::small(EXPERIMENT_SEED),
                days: 2,
                chunk_rounds: 0,
                shards: &[1, 2],
            },
            Config {
                label: "small",
                fleet: FleetConfig::small(EXPERIMENT_SEED),
                days: 2,
                chunk_rounds: 96,
                shards: &[2],
            },
            // The census-scale cell: 1 000 routers, one day, 8-hour
            // chunks — the configuration the O(routers × chunk) bound
            // is aimed at. The 4-shard run is the acceptance cell for
            // pool-path speedup on multi-core hosts.
            Config {
                label: "census",
                fleet: FleetConfig::census(EXPERIMENT_SEED),
                days: 1,
                chunk_rounds: 96,
                shards: &[1, 2, 4],
            },
        ]
    } else {
        vec![
            Config {
                label: "small",
                fleet: FleetConfig::small(EXPERIMENT_SEED),
                days: 28,
                chunk_rounds: 0,
                shards: &[1, 2, 4, 8],
            },
            Config {
                label: "switch",
                fleet: FleetConfig::switch_like(EXPERIMENT_SEED),
                days: 28,
                chunk_rounds: 0,
                shards: &[1, 2, 4, 8],
            },
            Config {
                label: "switch",
                fleet: FleetConfig::switch_like(EXPERIMENT_SEED),
                days: 28,
                chunk_rounds: 288,
                shards: &[1, 2, 4, 8],
            },
            Config {
                label: "census",
                fleet: FleetConfig::census(EXPERIMENT_SEED),
                days: 7,
                chunk_rounds: 288,
                shards: &[1, 2, 4, 8],
            },
            // The scaled census cells: one day each, chunk sizes kept
            // small so peak record memory stays bounded while the pool
            // ping-pongs 10k/50k cells per chunk.
            Config {
                label: "census10k",
                fleet: FleetConfig::census_of(EXPERIMENT_SEED, 10_000),
                days: 1,
                chunk_rounds: 96,
                shards: &[1, 2, 4, 8],
            },
            Config {
                label: "census50k",
                fleet: FleetConfig::census_of(EXPERIMENT_SEED, 50_000),
                days: 1,
                chunk_rounds: 48,
                shards: &[1, 4, 8],
            },
        ]
    }
}

/// Conservative absolute throughput floor (router-rounds per second) for
/// a fleet of `routers` routers — an order of magnitude under what a
/// single 2020s core sustains, so it catches a collapsed engine (a
/// serialized pool, an accidentally quadratic merge) on any plausible
/// host without flagging slow CI boxes. Larger fleets get lower floors:
/// cache pressure grows with the working set.
pub fn scale_floor(routers: usize) -> f64 {
    if routers >= 50_000 {
        5_000.0
    } else if routers >= 10_000 {
        10_000.0
    } else {
        20_000.0
    }
}

/// Whether a report was recorded on a single-core host: the honest
/// `generated_by.cores` when present, the top-level `cores` field for
/// older baselines. Single-core reports carry no meaningful speedup or
/// parallel-efficiency signal — at ≥ 2 shards the pool's one worker
/// serializes the shards by construction — so the parallel gates skip.
pub fn single_core(report: &Report) -> bool {
    report
        .generated_by
        .as_ref()
        .and_then(|g| g.cores)
        .unwrap_or(report.cores)
        <= 1
}

/// One timed run: a fresh fleet and a private telemetry bundle, so
/// repeated runs never share counter state. The profiler is always on —
/// its per-chunk clock reads are noise next to the simulate/merge work
/// it measures — and the live progress file lands beside the other
/// telemetry artifacts for CI to upload.
fn run_once(
    cfg: &Config,
    shards: usize,
) -> Result<(FleetTrace, f64, Option<ParallelEfficiencyReport>), SimError> {
    let mut fleet = build_fleet(&cfg.fleet);
    let telemetry = Telemetry::with_capacity(1 << 10);
    let stream = StreamConfig {
        shards,
        chunk_rounds: cfg.chunk_rounds,
        profile: true,
        progress_path: Some(crate::telemetry_dir().join("progress-bench_fleet.json")),
        ..StreamConfig::default()
    };
    let epoch = WallEpoch::now();
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(cfg.days as i64),
        SimDuration::from_mins(5),
        vec![],
        &[],
        &FaultPlan::clean(),
        &telemetry,
        &stream,
    )?;
    Ok((
        outcome.trace,
        epoch.elapsed().as_secs_f64(),
        outcome.efficiency,
    ))
}

/// Runs the full sweep (or the `--smoke` subset), printing a table as it
/// goes when `print` is set, and returns the report document.
pub fn run_sweep(smoke: bool, print: bool) -> Result<Report, SimError> {
    let configs = sweep_grid(smoke);
    let t = TablePrinter::new(&[10, 9, 7, 7, 8, 10, 14, 9, 10, 7, 8]);
    if print {
        t.header(&[
            "fleet",
            "routers",
            "days",
            "chunk",
            "shards",
            "secs",
            "rounds/sec",
            "speedup",
            "peak MiB",
            "eff",
            "merge%",
        ]);
    }

    let mut sweep = Vec::new();
    for cfg in &configs {
        let routers = cfg.fleet.router_count();
        let mut baseline: Option<(FleetTrace, f64)> = None;
        let mut cells = Vec::new();
        for &shards in cfg.shards {
            let (trace, secs, efficiency) = run_once(cfg, shards)?;
            let rounds = trace.total_wall.len();
            let router_rounds = (rounds * routers) as f64;
            // The chunk being merged plus the one simulating behind it.
            let rounds_in_flight = if cfg.chunk_rounds == 0 {
                rounds as u64
            } else {
                cfg.chunk_rounds.saturating_mul(2).min(rounds as u64)
            };
            let peak_bytes = estimated_peak_record_bytes(routers, rounds_in_flight);
            let speedup = match &baseline {
                None => 1.0,
                Some((seq, seq_secs)) => {
                    assert_eq!(
                        seq, &trace,
                        "{}-shard trace diverged from the cell baseline ({} × {}d, chunk {})",
                        shards, cfg.label, cfg.days, cfg.chunk_rounds
                    );
                    seq_secs / secs
                }
            };
            if print {
                t.row(&[
                    cfg.label.to_owned(),
                    format!("{routers}"),
                    format!("{}", cfg.days),
                    format!("{}", cfg.chunk_rounds),
                    format!("{shards}"),
                    fmt(secs, 3),
                    fmt(router_rounds / secs, 0),
                    format!("{speedup:.2}x"),
                    fmt(peak_bytes as f64 / (1024.0 * 1024.0), 2),
                    efficiency
                        .as_ref()
                        .map_or("-".to_owned(), |e| format!("{:.2}", e.efficiency)),
                    efficiency.as_ref().map_or("-".to_owned(), |e| {
                        format!("{:.1}", e.merge_fraction * 100.0)
                    }),
                ]);
            }
            cells.push(RunReport {
                shards,
                secs,
                rounds,
                router_rounds_per_sec: router_rounds / secs,
                speedup,
                est_peak_record_bytes: peak_bytes,
                identical: true,
                efficiency,
            });
            if baseline.is_none() {
                baseline = Some((trace, secs));
            }
        }
        sweep.push(ConfigReport {
            fleet: cfg.label.to_owned(),
            routers,
            days: cfg.days,
            chunk_rounds: cfg.chunk_rounds,
            runs: cells,
        });
    }

    Ok(Report {
        bench: "bench_fleet".to_owned(),
        seed: EXPERIMENT_SEED,
        cores: fj_par::available_shards(),
        smoke,
        generated_by: Some(GeneratedBy {
            version: version_string(),
            smoke,
            cores: Some(fj_par::available_shards()),
        }),
        sweep,
    })
}

/// One cell of a baseline-vs-fresh throughput diff.
#[derive(Debug, Clone, Serialize)]
pub struct CellComparison {
    /// Fleet label of the matched cell.
    pub fleet: String,
    /// Router count of the matched cell.
    pub routers: usize,
    /// Horizon in days of the matched cell.
    pub days: u64,
    /// Chunk size of the matched cell.
    pub chunk_rounds: u64,
    /// Shard count of the matched cell.
    pub shards: usize,
    /// Baseline throughput (router-rounds per second).
    pub baseline_rate: f64,
    /// Freshly measured throughput.
    pub fresh_rate: f64,
    /// `fresh / baseline` — below 1.0 means slower than baseline.
    pub ratio: f64,
    /// Whether `ratio` fell below the floor: a perf regression.
    pub regressed: bool,
    /// Fresh parallel efficiency (absent when either report lacks a
    /// profile for this cell).
    pub fresh_efficiency: Option<f64>,
    /// Baseline parallel efficiency.
    pub baseline_efficiency: Option<f64>,
    /// Fresh serial-merge fraction.
    pub fresh_merge_fraction: Option<f64>,
    /// Baseline serial-merge fraction.
    pub baseline_merge_fraction: Option<f64>,
    /// Whether fresh efficiency fell below `floor × baseline` at ≥ 2
    /// shards: the parallelism stopped paying relative to the baseline.
    pub efficiency_regressed: bool,
    /// Whether the fresh merge fraction blew past the baseline's ceiling
    /// at ≥ 2 shards: the serial merge grew into the parallel budget.
    pub merge_regressed: bool,
    /// Whether the fresh speedup over the cell's single-shard run fell
    /// below `floor × baseline speedup` at ≥ 2 shards.
    pub speedup_regressed: bool,
    /// Whether the fresh absolute throughput fell under the
    /// [`scale_floor`] for this fleet size — a collapsed engine, caught
    /// even when the committed baseline was recorded equally collapsed.
    pub below_scale_floor: bool,
    /// Whether the speedup/efficiency/merge gates were skipped because
    /// one of the reports came from a single-core host.
    pub parallel_gates_skipped: bool,
}

/// Diffs a fresh report against a committed baseline: every fresh cell
/// that also exists in the baseline — matched on
/// `(fleet, routers, days, chunk_rounds, shards)` — is compared on
/// throughput, and flagged as regressed when `fresh < floor × baseline`.
/// Cells present in only one report are skipped (the gate compares like
/// with like, so a baseline recorded by the full sweep still gates a
/// `--smoke` run's overlapping cells — and vice versa; where the overlap
/// is empty, the returned list is too, which callers must treat as
/// "gate did not run", not as a pass).
///
/// When both runs of a ≥ 2-shard cell carry an efficiency profile, two
/// further gates apply with the same noise-calibrated `floor`:
///
/// * **efficiency floor** — fresh parallel efficiency must reach
///   `floor × baseline` (parallelism keeps paying at least as well,
///   up to noise);
/// * **merge ceiling** — the fresh serial-merge fraction must stay under
///   `max(baseline / floor, baseline + 0.10)` (the serial section may
///   wobble with noise but not grow into the parallel budget).
///
/// Cells without profiles on both sides (pre-profiler baselines) skip
/// the extra gates rather than failing them. Every parallel gate —
/// efficiency, merge, and the speedup floor — also skips when either
/// report was recorded on a single-core host ([`single_core`]): there,
/// the pool's one worker serializes ≥ 2-shard runs by construction, so
/// "speedup" and "efficiency" measure the hardware, not the engine.
/// Absolute throughput still gates via [`scale_floor`] on every cell.
pub fn compare(baseline: &Report, fresh: &Report, floor: f64) -> Vec<CellComparison> {
    let parallel_gates = !single_core(baseline) && !single_core(fresh);
    let mut out = Vec::new();
    for fresh_cfg in &fresh.sweep {
        let Some(base_cfg) = baseline.sweep.iter().find(|c| {
            c.fleet == fresh_cfg.fleet
                && c.routers == fresh_cfg.routers
                && c.days == fresh_cfg.days
                && c.chunk_rounds == fresh_cfg.chunk_rounds
        }) else {
            continue;
        };
        for fresh_run in &fresh_cfg.runs {
            let Some(base_run) = base_cfg.runs.iter().find(|r| r.shards == fresh_run.shards) else {
                continue;
            };
            let (base_rate, fresh_rate) = (
                base_run.router_rounds_per_sec,
                fresh_run.router_rounds_per_sec,
            );
            let ratio = if base_rate > 0.0 {
                fresh_rate / base_rate
            } else {
                1.0
            };
            let profiles = fresh_run
                .efficiency
                .as_ref()
                .zip(base_run.efficiency.as_ref());
            let mut efficiency_regressed = false;
            let mut merge_regressed = false;
            let mut speedup_regressed = false;
            if fresh_run.shards >= 2 && parallel_gates {
                if let Some((f, b)) = profiles {
                    if b.efficiency > 0.0 && floor > 0.0 {
                        efficiency_regressed = f.efficiency < floor * b.efficiency;
                        let ceiling = (b.merge_fraction / floor).max(b.merge_fraction + 0.10);
                        merge_regressed = f.merge_fraction > ceiling;
                    }
                }
                if base_run.speedup > 0.0 && floor > 0.0 {
                    speedup_regressed = fresh_run.speedup < floor * base_run.speedup;
                }
            }
            out.push(CellComparison {
                fleet: fresh_cfg.fleet.clone(),
                routers: fresh_cfg.routers,
                days: fresh_cfg.days,
                chunk_rounds: fresh_cfg.chunk_rounds,
                shards: fresh_run.shards,
                baseline_rate: base_rate,
                fresh_rate,
                ratio,
                regressed: ratio < floor,
                fresh_efficiency: fresh_run.efficiency.as_ref().map(|e| e.efficiency),
                baseline_efficiency: base_run.efficiency.as_ref().map(|e| e.efficiency),
                fresh_merge_fraction: fresh_run.efficiency.as_ref().map(|e| e.merge_fraction),
                baseline_merge_fraction: base_run.efficiency.as_ref().map(|e| e.merge_fraction),
                efficiency_regressed,
                merge_regressed,
                speedup_regressed,
                below_scale_floor: fresh_rate < scale_floor(fresh_cfg.routers),
                parallel_gates_skipped: fresh_run.shards >= 2 && !parallel_gates,
            });
        }
    }
    out
}

/// Parallel (≥ 2-shard) runs of a report that carry an efficiency
/// profile — the cells the efficiency/merge gates can act on. Zero on a
/// fresh sweep means the profiler went missing, which `bench_compare`
/// treats as a hard failure rather than a silent skip.
pub fn profiled_parallel_runs(report: &Report) -> usize {
    report
        .sweep
        .iter()
        .flat_map(|c| &c.runs)
        .filter(|r| r.shards >= 2 && r.efficiency.is_some())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rates: &[(usize, f64)]) -> Report {
        Report {
            bench: "bench_fleet".to_owned(),
            seed: EXPERIMENT_SEED,
            cores: 4,
            smoke: true,
            generated_by: Some(GeneratedBy {
                version: "test-0000000".to_owned(),
                smoke: true,
                cores: Some(4),
            }),
            sweep: vec![ConfigReport {
                fleet: "small".to_owned(),
                routers: 17,
                days: 2,
                chunk_rounds: 0,
                runs: rates
                    .iter()
                    .map(|&(shards, rate)| RunReport {
                        shards,
                        secs: 1.0,
                        rounds: 100,
                        router_rounds_per_sec: rate,
                        speedup: 1.0,
                        est_peak_record_bytes: estimated_peak_record_bytes(17, 100),
                        identical: true,
                        efficiency: None,
                    })
                    .collect(),
            }],
        }
    }

    /// Attaches an efficiency profile to every run of `report`.
    fn with_profiles(mut doc: Report, eff: f64, merge: f64) -> Report {
        for cfg in &mut doc.sweep {
            for run in &mut cfg.runs {
                let mut profile = fj_obs::ParallelEfficiencyReport::empty(run.shards);
                profile.efficiency = eff;
                profile.merge_fraction = merge;
                run.efficiency = Some(profile);
            }
        }
        doc
    }

    #[test]
    fn report_round_trips_through_json() {
        let doc = report(&[(1, 1000.0), (2, 1800.0)]);
        let text = serde_json::to_string_pretty(&doc).expect("serialises");
        let back: Report = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.generated_by, doc.generated_by);
        assert_eq!(back.sweep.len(), 1);
        assert_eq!(back.sweep[0].fleet, "small");
        assert_eq!(back.sweep[0].runs[1].shards, 2);
        assert!((back.sweep[0].runs[1].router_rounds_per_sec - 1800.0).abs() < 1e-9);
        assert_eq!(
            back.sweep[0].runs[0].est_peak_record_bytes,
            estimated_peak_record_bytes(17, 100)
        );
    }

    #[test]
    fn compare_flags_only_cells_below_the_floor() {
        let baseline = report(&[(1, 1000.0), (2, 2000.0)]);
        let fresh = report(&[(1, 900.0), (2, 400.0)]);
        let cells = compare(&baseline, &fresh, 0.5);
        assert_eq!(cells.len(), 2);
        assert!(!cells[0].regressed, "0.9 of baseline clears a 0.5 floor");
        assert!(cells[1].regressed, "0.2 of baseline violates a 0.5 floor");
        assert!((cells[1].ratio - 0.2).abs() < 1e-9);
    }

    #[test]
    fn efficiency_gate_fires_only_at_parallel_shards_with_profiles() {
        let baseline = with_profiles(report(&[(1, 1000.0), (2, 2000.0)]), 0.8, 0.10);
        // Fresh efficiency collapsed to 0.2 of 0.8 — below a 0.5 floor —
        // while throughput stayed fine.
        let fresh = with_profiles(report(&[(1, 1000.0), (2, 2000.0)]), 0.16, 0.10);
        let cells = compare(&baseline, &fresh, 0.5);
        assert!(!cells[0].regressed && !cells[1].regressed);
        assert!(
            !cells[0].efficiency_regressed,
            "1-shard cells never gate on efficiency"
        );
        assert!(cells[1].efficiency_regressed, "0.16 < 0.5 × 0.8");
        assert!(!cells[1].merge_regressed);
        assert_eq!(cells[1].fresh_efficiency, Some(0.16));
        assert_eq!(cells[1].baseline_efficiency, Some(0.8));
    }

    #[test]
    fn merge_ceiling_flags_a_grown_serial_fraction() {
        let baseline = with_profiles(report(&[(2, 2000.0)]), 0.8, 0.10);
        // Ceiling at floor 0.5: max(0.10 / 0.5, 0.10 + 0.10) = 0.20.
        let ok = with_profiles(report(&[(2, 2000.0)]), 0.8, 0.19);
        assert!(!compare(&baseline, &ok, 0.5)[0].merge_regressed);
        let bad = with_profiles(report(&[(2, 2000.0)]), 0.8, 0.35);
        let cells = compare(&baseline, &bad, 0.5);
        assert!(cells[0].merge_regressed, "0.35 > 0.20 ceiling");
        assert!(!cells[0].efficiency_regressed);
    }

    #[test]
    fn single_core_reports_skip_the_parallel_gates() {
        // A collapsed fresh run that would trip every parallel gate on
        // multi-core hardware...
        let collapsed = |mut doc: Report| {
            doc = with_profiles(doc, 0.01, 0.99);
            for cfg in &mut doc.sweep {
                for run in &mut cfg.runs {
                    run.speedup = 0.1;
                }
            }
            doc
        };
        let baseline = with_profiles(report(&[(2, 2000.0)]), 0.8, 0.10);

        // ...fails them when both reports are multi-core...
        let fresh = collapsed(report(&[(2, 2000.0)]));
        let cells = compare(&baseline, &fresh, 0.5);
        assert!(cells[0].efficiency_regressed && cells[0].speedup_regressed);
        assert!(!cells[0].parallel_gates_skipped);

        // ...and skips them when either side is single-core, whether
        // recorded in the provenance block or (old baselines) only in
        // the top-level field. Throughput still gates.
        let mut one_core_fresh = collapsed(report(&[(2, 100.0)]));
        one_core_fresh.generated_by.as_mut().unwrap().cores = Some(1);
        let cells = compare(&baseline, &one_core_fresh, 0.5);
        assert!(!cells[0].efficiency_regressed && !cells[0].merge_regressed);
        assert!(!cells[0].speedup_regressed);
        assert!(cells[0].parallel_gates_skipped);
        assert!(cells[0].regressed, "throughput floor still applies");

        let mut one_core_base = baseline.clone();
        one_core_base.generated_by = None;
        one_core_base.cores = 1;
        let cells = compare(&one_core_base, &fresh, 0.5);
        assert!(!cells[0].efficiency_regressed && !cells[0].speedup_regressed);
        assert!(cells[0].parallel_gates_skipped);
    }

    #[test]
    fn speedup_gate_fires_when_parallelism_stops_paying() {
        let mut baseline = report(&[(1, 1000.0), (4, 3000.0)]);
        baseline.sweep[0].runs[1].speedup = 3.0;
        // Fresh throughput holds (ratio 1.0) but the 4-shard run no
        // longer beats single-shard: a serialized pool.
        let mut fresh = report(&[(1, 3000.0), (4, 3000.0)]);
        fresh.sweep[0].runs[1].speedup = 1.0;
        let cells = compare(&baseline, &fresh, 0.5);
        assert!(!cells[1].regressed, "throughput itself held");
        assert!(cells[1].speedup_regressed, "1.0 < 0.5 × 3.0");
        assert!(!cells[0].speedup_regressed, "1-shard cells never gate");
    }

    #[test]
    fn scale_floor_is_conservative_and_monotone() {
        assert_eq!(scale_floor(17), 20_000.0);
        assert_eq!(scale_floor(1000), 20_000.0);
        assert_eq!(scale_floor(10_000), 10_000.0);
        assert_eq!(scale_floor(50_000), 5_000.0);

        let baseline = report(&[(2, 50.0)]);
        // Baseline itself collapsed, so the relative gate passes — the
        // absolute floor still catches the fresh run.
        let fresh = report(&[(2, 60.0)]);
        let cells = compare(&baseline, &fresh, 0.5);
        assert!(!cells[0].regressed, "relative ratio 1.2 clears the floor");
        assert!(cells[0].below_scale_floor, "60 rr/s is a collapsed engine");
    }

    #[test]
    fn full_grid_covers_the_census_scales() {
        let scales: Vec<usize> = sweep_grid(false)
            .iter()
            .map(|c| c.fleet.router_count())
            .collect();
        assert!(scales.contains(&1000), "1k census cell");
        assert!(scales.contains(&10_000), "10k census cell");
        assert!(scales.contains(&50_000), "50k census cell");
    }

    #[test]
    fn unprofiled_baselines_skip_the_extra_gates() {
        // A pre-profiler baseline (no efficiency blocks) must not trip
        // the new gates against a profiled fresh run.
        let baseline = report(&[(2, 2000.0)]);
        let fresh = with_profiles(report(&[(2, 2000.0)]), 0.01, 0.99);
        let cells = compare(&baseline, &fresh, 0.5);
        assert!(!cells[0].efficiency_regressed);
        assert!(!cells[0].merge_regressed);
        assert_eq!(cells[0].baseline_efficiency, None);
        assert_eq!(cells[0].fresh_efficiency, Some(0.01));
    }

    #[test]
    fn profiled_parallel_runs_counts_gateable_cells() {
        assert_eq!(profiled_parallel_runs(&report(&[(1, 1.0), (2, 1.0)])), 0);
        let profiled = with_profiles(report(&[(1, 1.0), (2, 1.0), (4, 1.0)]), 0.8, 0.1);
        assert_eq!(profiled_parallel_runs(&profiled), 2);
    }

    #[test]
    fn compare_skips_unmatched_cells() {
        let baseline = report(&[(1, 1000.0)]);
        let mut fresh = report(&[(1, 1000.0), (8, 5000.0)]);
        let cells = compare(&baseline, &fresh, 0.5);
        assert_eq!(cells.len(), 1, "8-shard cell has no baseline to gate on");
        assert_eq!(cells[0].shards, 1);

        // A chunked cell never gates against a whole-horizon baseline:
        // peak memory differs, so throughput is not like-for-like.
        fresh.sweep[0].chunk_rounds = 96;
        assert!(compare(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn smoke_sweep_produces_the_expected_grid() {
        let doc = run_sweep(true, false).expect("smoke sweep runs");
        assert!(doc.smoke);
        assert_eq!(doc.sweep.len(), 3);
        // Provenance and the per-run efficiency profile always ride along.
        let provenance = doc.generated_by.as_ref().expect("generated_by recorded");
        assert!(provenance.smoke);
        assert!(!provenance.version.is_empty());
        assert_eq!(
            provenance.cores,
            Some(fj_par::available_shards()),
            "detected cores recorded honestly"
        );
        for cfg in &doc.sweep {
            for run in &cfg.runs {
                let profile = run.efficiency.as_ref().expect("profiled run");
                assert!(profile.chunks > 0);
                assert!(profile.efficiency > 0.0 && profile.efficiency <= 1.0);
                assert_eq!(profile.shards, run.shards.min(cfg.routers));
            }
        }
        let shards: Vec<usize> = doc.sweep[0].runs.iter().map(|r| r.shards).collect();
        assert_eq!(shards, [1, 2]);
        assert!(doc.sweep.iter().all(|c| c.runs.iter().all(|r| r.identical)));
        // The census cell is there, chunked, at scale.
        let census = doc
            .sweep
            .iter()
            .find(|c| c.fleet == "census")
            .expect("census smoke cell");
        assert_eq!(census.routers, 1000);
        assert_eq!(census.chunk_rounds, 96);
        // The pool-path acceptance cell: the 1k chunked fleet measured
        // through 4 shards.
        let census_shards: Vec<usize> = census.runs.iter().map(|r| r.shards).collect();
        assert_eq!(census_shards, [1, 2, 4]);
        // The chunked small cell holds two chunks of records, not the
        // whole horizon.
        let whole = &doc.sweep[0];
        let chunked = &doc.sweep[1];
        assert!(
            chunked.runs[0].est_peak_record_bytes < whole.runs[0].est_peak_record_bytes,
            "chunking shrinks peak record memory"
        );
    }
}
