//! The `census_stream` workload: `collect_streaming` over the 1 000-router
//! census fleet. It has two configurations: the stream configuration
//! (the per-router-round hot path on the worker pool), which the
//! untraced run times, and the ops configuration (every ops layer on one
//! thread), which only the traced run prices. An untraced ops workload
//! spread too far from run to run on a memory-contended host to carry an
//! end-to-end bound, so its layers are priced but not timed end to end.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fj_isp::trace::AlertsConfig;
use fj_isp::{collect_streaming, CheckpointConfig, StreamConfig, StreamOutcome};
use fj_telemetry::{MetricValue, Telemetry};

use crate::alloc;
use crate::inputs::{self, CensusInputs};
use crate::ledger::{self, Ledger, Term};
use crate::replay;
use crate::stats::{self, Clock, Outcome};

/// Which census configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Census {
    Stream,
    Ops,
}

impl Census {
    /// The configuration's name in printed output.
    pub fn name(self) -> &'static str {
        match self {
            Census::Stream => "stream",
            Census::Ops => "ops",
        }
    }

    /// The configuration's inputs for `seed`.
    pub fn inputs(self, seed: u64) -> CensusInputs {
        match self {
            Census::Stream => inputs::census_stream(seed),
            Census::Ops => inputs::census_ops(seed),
        }
    }

    /// Shards the configuration pins through the API.
    pub fn shards(self) -> usize {
        match self {
            Census::Stream => 2,
            Census::Ops => 1,
        }
    }

    /// The stream configuration for `inputs`. The ops configuration
    /// checkpoints into `dir` when one is given.
    pub fn config(self, inputs: &CensusInputs, dir: Option<&Path>, profile: bool) -> StreamConfig {
        let base = StreamConfig {
            shards: self.shards(),
            chunk_rounds: inputs.chunk_rounds,
            profile,
            ..StreamConfig::default()
        };
        match self {
            Census::Stream => base,
            Census::Ops => StreamConfig {
                max_restarts: 2,
                checkpoints: dir.map(CheckpointConfig::new),
                alerts: Some(AlertsConfig::default_pack()),
                ..base
            },
        }
    }
}

/// Where the ops configuration writes its checkpoints: a directory of
/// this process's own inside the checkout, removed when the run ends.
fn ckpt_dir() -> PathBuf {
    PathBuf::from(format!(".bench_scratch/ckpt-{}", std::process::id()))
}

/// Removes a checkpoint directory and everything in it, if present.
fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clearing {}: {e}", dir.display())),
    }
}

/// Empties (and recreates) a checkpoint directory.
fn reset_dir(dir: &Path) -> Result<(), String> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// One engine run over a fresh copy of the inputs: returns the outcome,
/// its telemetry bundle, and the seconds `collect_streaming` took.
pub fn run_engine(
    inputs: &CensusInputs,
    config: &StreamConfig,
    clock: &Clock,
) -> Result<(StreamOutcome, Arc<Telemetry>, f64), String> {
    let mut fleet = inputs.fleet.clone();
    let events = inputs.events.clone();
    let telemetry = Telemetry::new();
    let (result, secs) = clock.time(|| {
        collect_streaming(
            &mut fleet,
            inputs.start,
            inputs.end,
            inputs.step,
            events,
            &inputs.instrumented,
            &inputs.plan,
            &telemetry,
            config,
        )
    });
    let outcome = result.map_err(|e| format!("engine error: {e}"))?;
    Ok((outcome, telemetry, secs))
}

/// A counter's value for one exact label set (0 when absent).
pub fn counter(telemetry: &Telemetry, name: &str, labels: &[(&str, &str)]) -> u64 {
    telemetry
        .registry()
        .snapshot()
        .into_iter()
        .find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
        .map_or(0, |m| match m.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
}

/// The output checks every census repetition runs; they hold for any
/// seed. Returns the trace digest for the cross-repetition check.
pub fn check(
    kind: Census,
    inputs: &CensusInputs,
    outcome: &StreamOutcome,
    telemetry: &Telemetry,
) -> Result<u64, String> {
    let rounds = inputs.rounds();
    let n = rounds as usize;
    if !outcome.completed || outcome.rounds_done != rounds || outcome.rounds_total != rounds {
        return Err(format!(
            "run stopped at round {} of {} (expected {rounds})",
            outcome.rounds_done, outcome.rounds_total
        ));
    }
    let trace = &outcome.trace;
    if trace.routers.len() != inputs.fleet.routers.len() {
        return Err(format!("{} router traces", trace.routers.len()));
    }
    for s in [&trace.total_wall, &trace.total_traffic] {
        if s.len() != n || s.has_gaps() {
            return Err(format!(
                "fleet total has {} samples, {} gaps",
                s.len(),
                s.gap_count()
            ));
        }
    }
    let predicted: usize = trace.routers.iter().map(|r| r.predicted.len()).sum();
    let predictions = counter(telemetry, "fleet_predictions_total", &[]);
    if predictions != predicted as u64 {
        return Err(format!(
            "fleet_predictions_total {predictions} != {predicted} predicted samples"
        ));
    }
    match kind {
        Census::Stream => {
            for r in &trace.routers {
                for (what, s) in [
                    ("traffic", &r.traffic),
                    ("predicted", &r.predicted),
                    ("psu_reported", &r.psu_reported),
                ] {
                    if s.has_gaps() || !(s.len() == n || (s.is_empty() && what != "traffic")) {
                        return Err(format!(
                            "{} {what}: {} samples, {} gaps (expected {n}, none)",
                            r.name,
                            s.len(),
                            s.gap_count()
                        ));
                    }
                }
                if !r.wall.is_empty() {
                    return Err(format!("{} has wall samples but no meter", r.name));
                }
            }
        }
        Census::Ops => {
            let snmp = counter(telemetry, "gaps_total", &[("source", "snmp")]);
            let wall = counter(telemetry, "gaps_total", &[("source", "wall")]);
            if trace.missed_polls != snmp + wall {
                return Err(format!(
                    "missed_polls {} != gaps_total{{snmp}} {snmp} + gaps_total{{wall}} {wall}",
                    trace.missed_polls
                ));
            }
            for (i, r) in trace.routers.iter().enumerate() {
                if r.traffic.len() != n {
                    return Err(format!(
                        "{} traffic has {} samples",
                        r.name,
                        r.traffic.len()
                    ));
                }
                check_gaps(inputs, &format!("snmp/{}", r.name), &r.psu_reported)?;
                if inputs.instrumented.binary_search(&i).is_ok() {
                    if r.wall.len() + r.wall.gap_count() != n {
                        return Err(format!("{} wall covers {} rounds", r.name, r.wall.len()));
                    }
                    check_gaps(inputs, &format!("wall/{}", r.name), &r.wall)?;
                } else if !r.wall.is_empty() || r.wall.has_gaps() {
                    return Err(format!("{} has wall data but no meter", r.name));
                }
            }
            let chunks = inputs.chunks();
            let written = counter(telemetry, "fleet_checkpoints_written_total", &[]);
            if written != chunks - 1 {
                return Err(format!(
                    "{written} checkpoints written over {chunks} chunks"
                ));
            }
        }
    }
    Ok(inputs::trace_digest(trace))
}

/// Gap markers on `series` sit exactly where the fault plan drops polls
/// on `stream`: every gap is a planned drop, and no planned drop holds a
/// sample. (A router polls only while its model reports, so planned
/// drops outside those rounds leave no mark.)
fn check_gaps(
    inputs: &CensusInputs,
    stream: &str,
    series: &fj_units::TimeSeries,
) -> Result<(), String> {
    let drops: Vec<i64> = inputs
        .plan
        .expected_drops(stream, inputs.rounds())
        .into_iter()
        .map(|r| inputs.round_time(r).as_secs())
        .collect();
    if let Some(g) = series
        .gaps()
        .iter()
        .find(|g| drops.binary_search(&g.as_secs()).is_err())
    {
        return Err(format!("{stream}: gap at {g} is not a planned drop"));
    }
    if let Some((t, _)) = series
        .iter()
        .find(|(t, _)| drops.binary_search(&t.as_secs()).is_ok())
    {
        return Err(format!("{stream}: sample at planned drop {t}"));
    }
    Ok(())
}

/// One checked repetition: run the engine (timed), check its outputs,
/// and compare the trace digest with the first repetition's. Returns the
/// engine's seconds.
fn repetition(
    inputs: &CensusInputs,
    config: &StreamConfig,
    clock: &Clock,
    digest: &mut Option<u64>,
) -> Result<f64, String> {
    let (outcome, telemetry, secs) = run_engine(inputs, config, clock)?;
    let d = check(Census::Stream, inputs, &outcome, &telemetry)?;
    if *digest.get_or_insert(d) != d {
        return Err("trace digest differs from the first repetition".to_owned());
    }
    Ok(secs)
}

/// The untraced run of the stream configuration. `setup_s` is the median
/// of identical set-ups (fleet build, clean plan), timed once before the
/// first repetition and again after every timed repetition, so a burst
/// of host contention touches few of them. After one discarded warm-up
/// repetition, repetitions are timed for `seconds`, each checked;
/// `work_per_s` is their median router-rounds per second.
pub fn run_untraced(seed: u64, seconds: f64) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let setup = || Census::Stream.inputs(seed);
    let (inputs, secs) = clock.time(setup);
    let mut setups = vec![secs];
    let config = Census::Stream.config(&inputs, None, false);
    let rr = inputs.router_rounds() as f64;

    let mut digest = None;
    let mut rates = Vec::new();
    let warmup = repetition(&inputs, &config, &clock, &mut digest);
    out.check("census warm-up repetition", warmup.map(|_| ()));
    let t0 = clock.secs();
    while out.failed == 0 && (clock.secs() - t0 < seconds || rates.len() < 3) {
        let result = repetition(&inputs, &config, &clock, &mut digest);
        if let Ok(secs) = &result {
            rates.push(rr / secs);
        }
        out.check("census repetition", result.map(|_| ()));
        setups.push(clock.time(setup).1);
    }
    println!(
        "{} repetitions of {rr} router-rounds; rates {:?}",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    out.metric("work_per_s", stats::median(&rates), "1/s");
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
    out
}

/// Least rounds of a configuration's measurement loop. Each round runs,
/// back to back, a profiled engine run of the configuration (checked),
/// the same run at one shard (stream) or without checkpoints (ops), a
/// traced replay, and an untraced replay, so every median is taken over
/// samples interleaved in time and host drift moves them together.
const ROUNDS: usize = 5;
/// Least per-chunk wall-time samples a configuration's profiled runs
/// collect: 21 is the fewest for which an order statistic with ten
/// samples beyond it reaches the median, so `isp.chunk_wall.tail_ms` is
/// a percentile and not the maximum. The extra rounds this takes also
/// steady the ops closure, whose checkpoint term pairs two runs.
const CHUNK_SAMPLES: usize = 21;
/// Identical `build_fleet` calls timed for `isp.build_fleet.ms`.
const BUILD_REPEATS: usize = 5;
/// Alert evaluations timed for `alerts.eval.us`.
const ALERT_EVALS: usize = 101;

/// The traced run: for each configuration, engine phases from profiled
/// runs, the layer replay with its fidelity gate and tracing cost, and
/// the ledger closure; for the ops configuration also checkpoint and
/// alert costs. The stream configuration's values fill the ledger; the
/// ops configuration adds the layers only it exercises
/// ([`ledger::FROM_OPS`]).
pub fn run_traced(seed: u64) -> Outcome {
    alloc::enable();
    let clock = Clock::start();
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let cfg = inputs::census_config(seed);
    let builds: Vec<f64> = (0..BUILD_REPEATS)
        .map(|_| clock.time(|| fj_isp::build_fleet(&cfg)).1)
        .collect();
    ledger.set("isp.build_fleet.ms", stats::median(&builds) * 1e3);
    let dir = ckpt_dir();
    let mut ops = Ledger::default();
    for (kind, into) in [(Census::Stream, &mut ledger), (Census::Ops, &mut ops)] {
        println!("== {} configuration", kind.name());
        if let Err(e) = traced(kind, seed, &dir, &clock, &mut out, into) {
            out.check("traced run", Err(e));
        }
    }
    out.check("checkpoint directory removal", remove_dir(&dir));
    ledger.adopt(ops, ledger::FROM_OPS);
    ledger.emit(&mut out);
    out
}

/// Per-round samples of the traced run.
#[derive(Default)]
struct Phases {
    wall: Vec<f64>,
    busy: Vec<f64>,
    merge: Vec<f64>,
    merge_fraction: Vec<f64>,
    dispatch_wait: Vec<f64>,
    overlap: Vec<f64>,
    efficiency: Vec<f64>,
    imbalance: Vec<f64>,
    chunk_ms: Vec<f64>,
    /// Ops: the same runs without checkpoints, interleaved.
    wall_without_ckpt: Vec<f64>,
    /// Worker busy time of the same run at one shard (interleaved runs
    /// for the stream configuration; the run itself for ops).
    busy_one_shard: Vec<f64>,
    traced_replay: Vec<f64>,
    untraced_replay: Vec<f64>,
    /// Σ span time per replay family, ns.
    family: [Vec<f64>; 6],
    /// Σ time inside `apply_to_router`, ns.
    apply: Vec<f64>,
}

fn traced(
    kind: Census,
    seed: u64,
    dir: &Path,
    clock: &Clock,
    out: &mut Outcome,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let inputs = kind.inputs(seed);
    let rr = inputs.router_rounds() as f64;
    let chunks = inputs.chunks();
    let profiled = kind.config(&inputs, Some(dir), true);
    let without_ckpt = StreamConfig {
        checkpoints: None,
        ..profiled.clone()
    };
    let one_shard = StreamConfig {
        shards: 1,
        ..profiled.clone()
    };

    // Warm-up, discarded.
    reset_dir(dir)?;
    run_engine(&inputs, &kind.config(&inputs, Some(dir), false), clock)?;

    // 1. The measurement loop.
    let rounds = ROUNDS.max(CHUNK_SAMPLES.div_ceil(chunks as usize));
    let mut ph = Phases::default();
    let mut first: Option<(StreamOutcome, Arc<Telemetry>, alloc::Tally, replay::Replay)> = None;
    let mut digest = None;
    let mut ckpt_bytes = 0u64;
    for _ in 0..rounds {
        reset_dir(dir)?;
        let before = alloc::tally();
        let (o, tel, secs) = run_engine(&inputs, &profiled, clock)?;
        let allocs = alloc::tally().since(before);
        let verdict = check(kind, &inputs, &o, &tel).and_then(|d| {
            (*digest.get_or_insert(d) == d)
                .then_some(())
                .ok_or_else(|| "trace digest differs between profiled runs".to_owned())
        });
        out.check("profiled engine run", verdict);
        let report = o
            .efficiency
            .clone()
            .ok_or("profiled run returned no efficiency report")?;
        ph.wall.push(secs);
        ph.busy.push(report.busy_secs);
        ph.merge.push(report.merge_secs);
        ph.merge_fraction.push(report.merge_fraction);
        ph.dispatch_wait
            .push(report.pool_dispatch_wait_secs.unwrap_or(0.0));
        ph.overlap
            .push(report.merge_overlap_fraction.unwrap_or(0.0));
        ph.efficiency.push(report.efficiency);
        ph.imbalance.push(report.imbalance);
        let mut prev = 0.0;
        for p in tel.progress_history() {
            ph.chunk_ms.push((p.wall_secs - prev) * 1e3);
            prev = p.wall_secs;
        }
        if kind.shards() > 1 {
            let (o1, _, _) = run_engine(&inputs, &one_shard, clock)?;
            let report = o1
                .efficiency
                .ok_or("profiled run returned no efficiency report")?;
            ph.busy_one_shard.push(report.busy_secs);
        } else {
            ph.busy_one_shard.push(report.busy_secs);
        }
        if kind == Census::Ops {
            ckpt_bytes = newest_checkpoint(dir)
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len());
            let (o2, _, secs2) = run_engine(&inputs, &without_ckpt, clock)?;
            ph.wall_without_ckpt.push(secs2);
            out.check(
                "checkpoints leave the trace unchanged",
                (Some(inputs::trace_digest(&o2.trace)) == digest)
                    .then_some(())
                    .ok_or_else(|| "trace differs without checkpoints".to_owned()),
            );
        }
        let traced = replay::run::<true, false>(&inputs, clock)?;
        let untraced = replay::run::<false, false>(&inputs, clock)?;
        ph.traced_replay.push(traced.secs);
        ph.untraced_replay.push(untraced.secs);
        for (v, ns) in ph.family.iter_mut().zip(traced.family_ns) {
            v.push(ns as f64);
        }
        ph.apply.push(traced.apply_ns as f64);
        if first.is_none() {
            first = Some((o, tel, allocs, traced));
        }
    }
    println!(
        "engine runs: {:?} s; one-shard busy {:?} s; without checkpoints {:?} s; \
         replays traced {:?} s, untraced {:?} s",
        ph.wall, ph.busy_one_shard, ph.wall_without_ckpt, ph.traced_replay, ph.untraced_replay
    );
    let Some((engine, telemetry, allocs, traced)) = first else {
        return Err("no measurement round".to_owned());
    };
    let med = stats::median;
    ledger.set("isp.engine.allocs_per_rr", allocs.allocs as f64 / rr);
    ledger.set(
        "isp.engine.alloc_mb",
        allocs.bytes as f64 / (1024.0 * 1024.0),
    );
    let events = telemetry.events();
    ledger.set(
        "telemetry.events",
        (events.len() as u64 + events.evicted()) as f64 / rr,
    );
    let merge = med(&ph.merge);
    let overlap = med(&ph.overlap);
    let dispatch = med(&ph.dispatch_wait);
    let busy = med(&ph.busy);
    ledger.set("isp.merge.ns_per_rr", merge / rr * 1e9);
    ledger.set("isp.engine.merge_fraction", med(&ph.merge_fraction));
    ledger.set("par.dispatch_wait.s", dispatch);
    ledger.set("par.merge_overlap.fraction", overlap);
    ledger.set("par.efficiency", med(&ph.efficiency));
    let (tail_ms, tail_pct) = stats::tail(&ph.chunk_ms);
    ledger.set("isp.chunk_wall.p50_ms", med(&ph.chunk_ms));
    ledger.set("isp.chunk_wall.tail_ms", tail_ms);
    ledger.set("isp.chunk_wall.samples", ph.chunk_ms.len() as f64);
    println!(
        "chunk wall: p50 {:.1} ms, p{tail_pct:.0} {tail_ms:.1} ms over {} chunks",
        med(&ph.chunk_ms),
        ph.chunk_ms.len()
    );

    // 2. Checkpoints and alerts: the ops configuration only.
    let mut alert_eval_s = 0.0;
    if kind == Census::Ops {
        let written = chunks - 1;
        let encode_s = (med(&ph.wall) - med(&ph.wall_without_ckpt)) / written as f64;
        ledger.set("isp.checkpoint.encode_ms", encode_s * 1e3);
        ledger.set("isp.checkpoint.bytes", ckpt_bytes as f64);

        let resume = StreamConfig {
            resume: true,
            ..kind.config(&inputs, Some(dir), false)
        };
        let newest = newest_checkpoint(dir).ok_or("no checkpoint to resume")?;
        let (o, tel, secs) = run_engine(&inputs, &resume, clock)?;
        ledger.set("isp.checkpoint.resume_s", secs);
        let verdict = check(kind, &inputs, &o, &tel).and_then(|d| {
            if Some(d) != digest {
                Err("resumed trace differs from the uninterrupted trace".to_owned())
            } else if o.resumed_at_round.is_none() {
                Err(format!("did not resume from {}", newest.display()))
            } else {
                Ok(())
            }
        });
        out.check("resume reproduces the uninterrupted trace", verdict);

        let mut engine = fj_alerts::AlertEngine::new(fj_alerts::default_pack());
        let evals: Vec<f64> = (0..ALERT_EVALS)
            .map(|_| {
                clock
                    .time(|| engine.eval(&telemetry.registry().snapshot(), inputs.end))
                    .1
            })
            .collect();
        alert_eval_s = med(&evals);
        ledger.set("alerts.eval.us", alert_eval_s * 1e6);
    }

    // 3. The layer replay: the fidelity gate against the first engine
    //    run's trace, then the per-family costs of the traced passes.
    let fidelity = replay::run::<false, true>(&inputs, clock)?;
    let bad = replay::mismatches(&fidelity, &engine.trace, kind == Census::Ops);
    drop(fidelity);
    drop(engine);
    ledger.set("bench.replay.mismatches", bad as f64);
    out.check(
        "replay fidelity",
        if bad == 0 {
            Ok(())
        } else {
            Err(format!(
                "{bad} replayed series differ from the engine's trace"
            ))
        },
    );
    // Each family span carries one clock read on top of its work; the
    // calibrated read cost comes off every span (the priming pass adds
    // one predict and one step span per router).
    let read_ns = clock.read_cost_ns();
    ledger.set("bench.clock_read.ns", read_ns);
    let routers = inputs.fleet.routers.len() as f64;
    let mut family = ph.family.clone();
    for (i, v) in family.iter_mut().enumerate() {
        let spans = rr + if i >= 4 { routers } else { 0.0 };
        for ns in v.iter_mut() {
            *ns = (*ns - spans * read_ns).max(0.0);
        }
    }
    let c = traced.counts;
    let apply: Vec<f64> = ph
        .apply
        .iter()
        .map(|ns| (ns - c.events_applied as f64 * read_ns).max(0.0))
        .collect();
    let ns_per_rr = |v: &[f64]| med(v) / rr;
    ledger.set("isp.event_apply.ns_per_rr", ns_per_rr(&family[0]));
    ledger.set(
        "isp.event_apply.ns_per_event",
        if c.events_applied > 0 {
            med(&apply) / c.events_applied as f64
        } else {
            0.0
        },
    );
    ledger.set("isp.events_applied", c.events_applied as f64);
    ledger.set("router-sim.sensor_read.ns_per_rr", ns_per_rr(&family[1]));
    ledger.set("faults.draw.ns_per_rr", ns_per_rr(&family[2]));
    ledger.set("faults.draws", c.fault_draws as f64 / rr);
    ledger.set("traffic.pattern_eval.ns_per_rr", ns_per_rr(&family[3]));
    ledger.set("traffic.pattern_evals_per_rr", c.pattern_evals as f64 / rr);
    ledger.set("isp.predict.ns_per_rr", ns_per_rr(&family[4]));
    ledger.set("isp.predict.allocs_per_rr", c.predict_allocs as f64 / rr);
    ledger.set("isp.router_step.ns_per_rr", ns_per_rr(&family[5]));
    let untraced = med(&ph.untraced_replay);
    ledger.set(
        "bench.trace_overhead.ns_per_rr",
        (med(&ph.traced_replay) - untraced) / rr * 1e9,
    );
    // The residual compares like with like: the engine's worker time at
    // one shard against the single-threaded replay. What two concurrent
    // workers add on top is the pool's contention.
    let busy_one = med(&ph.busy_one_shard);
    ledger.set(
        "isp.engine_residual.ns_per_rr",
        (busy_one - untraced) / rr * 1e9,
    );
    ledger.set("par.contention.ns_per_rr", (busy - busy_one) / rr * 1e9);

    let spans_path = PathBuf::from(format!(".bench_scratch/spans-census-{}.tsv", kind.name()));
    replay::write_spans(&spans_path, &traced.spans)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!(
        "{} router-round spans written to {}",
        traced.spans.len(),
        spans_path.display()
    );

    // 4. Closure, round by round: worker time (replay layers, residual,
    //    contention) on the critical path, the merge not hidden behind
    //    workers, pool waits, and boundary work, against the profiled
    //    run's measured wall time.
    let shards = kind.shards() as f64;
    let per_round = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..ph.wall.len()).map(f).collect() };
    let critical = |r: usize| ph.imbalance[r] / shards;
    let mut terms = vec![
        Term {
            name: "replay layers (critical path)",
            secs: per_round(&|r| family.iter().map(|v| v[r]).sum::<f64>() / 1e9 * critical(r)),
        },
        Term {
            name: "isp.engine_residual (critical path)",
            secs: per_round(&|r| (ph.busy_one_shard[r] - ph.untraced_replay[r]) * critical(r)),
        },
        Term {
            name: "par.contention (critical path)",
            secs: per_round(&|r| (ph.busy[r] - ph.busy_one_shard[r]) * critical(r)),
        },
        Term {
            name: "isp.merge not overlapped",
            secs: per_round(&|r| ph.merge[r] * (1.0 - ph.overlap[r])),
        },
        Term {
            name: "par pool dispatch wait per worker",
            secs: per_round(&|r| ph.dispatch_wait[r] / shards),
        },
    ];
    if kind == Census::Ops {
        terms.push(Term {
            name: "isp.checkpoint.encode x written",
            secs: per_round(&|r| ph.wall[r] - ph.wall_without_ckpt[r]),
        });
        terms.push(Term {
            name: "alerts.eval x evaluations",
            secs: per_round(&|_| alert_eval_s * chunks as f64),
        });
    }
    let ratio = ledger::closure(out, &terms, &ph.wall);
    ledger.set("bench.ledger.closure", ratio);
    Ok(())
}

/// The newest `ckpt-*.fjck` file in `dir`.
fn newest_checkpoint(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".fjck"))
        })
        .max()
}
