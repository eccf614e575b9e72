//! The per-layer cost ledger: the metric names every traced run prints,
//! and the closure check that the layer terms add back up to the
//! engine's measured wall time.

use std::collections::BTreeMap;

use crate::stats::{median, Outcome};

/// Every per-layer metric, with its unit, in print order. A traced run
/// prints all of them; a layer its workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isp.build_fleet.ms", "ms"),
    ("isp.event_apply.ns_per_rr", "ns"),
    ("isp.event_apply.ns_per_event", "ns"),
    ("isp.events_applied", "count"),
    ("router-sim.sensor_read.ns_per_rr", "ns"),
    ("faults.draw.ns_per_rr", "ns"),
    ("faults.draws", "count/rr"),
    ("traffic.pattern_eval.ns_per_rr", "ns"),
    ("traffic.pattern_evals_per_rr", "count/rr"),
    ("isp.predict.ns_per_rr", "ns"),
    ("isp.predict.allocs_per_rr", "count/rr"),
    ("isp.router_step.ns_per_rr", "ns"),
    ("isp.engine_residual.ns_per_rr", "ns"),
    ("isp.merge.ns_per_rr", "ns"),
    ("isp.engine.merge_fraction", "fraction"),
    ("isp.chunk_wall.p50_ms", "ms"),
    ("isp.chunk_wall.tail_ms", "ms"),
    ("isp.chunk_wall.samples", "count"),
    ("isp.engine.allocs_per_rr", "count/rr"),
    ("isp.engine.alloc_mb", "MB"),
    ("telemetry.events", "count/rr"),
    ("par.dispatch_wait.s", "s"),
    ("par.merge_overlap.fraction", "fraction"),
    ("par.efficiency", "fraction"),
    ("par.contention.ns_per_rr", "ns"),
    ("isp.checkpoint.encode_ms", "ms"),
    ("isp.checkpoint.bytes", "bytes"),
    ("isp.checkpoint.resume_s", "s"),
    ("alerts.eval.us", "us"),
    ("hypnos.observe.us", "us"),
    ("hypnos.decide.ms", "ms"),
    ("hypnos.decide.tail_ms", "ms"),
    ("hypnos.decide.samples", "count"),
    ("hypnos.savings.us", "us"),
    ("hypnos.links_slept", "count"),
    ("isp.advance.ms", "ms"),
    ("bench.trace_overhead.ns_per_rr", "ns"),
    ("bench.clock_read.ns", "ns"),
    ("bench.replay.mismatches", "count"),
    ("bench.ledger.closure", "ratio"),
    ("ops.faults.draw.ns_per_rr", "ns"),
    ("ops.faults.draws", "count/rr"),
    ("ops.telemetry.events", "count/rr"),
    ("ops.isp.merge.ns_per_rr", "ns"),
    ("ops.isp.engine.allocs_per_rr", "count/rr"),
    ("ops.bench.replay.mismatches", "count"),
    ("ops.bench.ledger.closure", "ratio"),
];

/// What the census traced run takes from its ops configuration, as
/// (name there, name in the ledger): the layers only that configuration
/// exercises under their own names, and those both configurations price
/// under an `ops.` prefix.
pub const FROM_OPS: &[(&str, &str)] = &[
    ("isp.event_apply.ns_per_rr", "isp.event_apply.ns_per_rr"),
    (
        "isp.event_apply.ns_per_event",
        "isp.event_apply.ns_per_event",
    ),
    ("isp.events_applied", "isp.events_applied"),
    ("isp.checkpoint.encode_ms", "isp.checkpoint.encode_ms"),
    ("isp.checkpoint.bytes", "isp.checkpoint.bytes"),
    ("isp.checkpoint.resume_s", "isp.checkpoint.resume_s"),
    ("alerts.eval.us", "alerts.eval.us"),
    ("faults.draw.ns_per_rr", "ops.faults.draw.ns_per_rr"),
    ("faults.draws", "ops.faults.draws"),
    ("telemetry.events", "ops.telemetry.events"),
    ("isp.merge.ns_per_rr", "ops.isp.merge.ns_per_rr"),
    ("isp.engine.allocs_per_rr", "ops.isp.engine.allocs_per_rr"),
    ("bench.replay.mismatches", "ops.bench.replay.mismatches"),
    ("bench.ledger.closure", "ops.bench.ledger.closure"),
];

/// How far the summed ledger terms may sit from the measured wall time,
/// as a share of it, before the traced run fails. The terms come from
/// separate runs (engine, traced replay, untraced replay), paired round
/// by round. In the census configurations the residual is the one-shard
/// engine's worker time minus the untraced replay, so the replay
/// families cancel against it: the closure catches errors in the
/// profiler's phase accounting (merge, overlap, pool waits, checkpoint
/// and alert costs) and in the clock-read correction, not in how time is
/// split among the replay layers. That split is guarded by the
/// replay-fidelity gate instead.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Takes `other`'s value of each `(from, to)` pair as this ledger's
    /// `to`.
    pub fn adopt(&mut self, other: Ledger, pairs: &[(&str, &'static str)]) {
        for &(from, to) in pairs {
            if let Some(&v) = other.0.get(from) {
                self.set(to, v);
            }
        }
    }

    /// Moves every per-layer metric into `out`, in [`PER_LAYER`] order.
    pub fn emit(self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// One term of a closure table: its seconds in each measurement round.
pub struct Term {
    pub name: &'static str,
    pub secs: Vec<f64>,
}

/// Prints the closure table — each term's median, and the measured wall
/// time's — and checks that the terms add back up to the measurement.
/// Terms and measurement are paired by round, so host drift between
/// rounds cancels: the check is on the median over rounds of `Σ terms /
/// measured`, which must lie within [`CLOSURE_TOLERANCE`] of 1. Returns
/// that median ratio.
pub fn closure(out: &mut Outcome, terms: &[Term], measured: &[f64]) -> f64 {
    let ratios: Vec<f64> = measured
        .iter()
        .enumerate()
        .map(|(r, m)| terms.iter().map(|t| t.secs[r]).sum::<f64>() / m)
        .collect();
    let ratio = median(&ratios);
    let wall = median(measured);
    println!(
        "ledger closure (median seconds per run over {} rounds):",
        measured.len()
    );
    for t in terms {
        let secs = median(&t.secs);
        println!(
            "  {:<44} {:>10.4} s  {:>6.1} %",
            t.name,
            secs,
            100.0 * secs / wall
        );
    }
    println!("  {:<44} {:>10.4} s", "measured wall time", wall);
    println!(
        "  {:<44} {:>10.4}   per round {ratios:.3?}",
        "terms / measured", ratio
    );
    out.check(
        "ledger closure",
        if (ratio - 1.0).abs() <= CLOSURE_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "terms sum to {ratio:.3} of the measured wall time (tolerance ±{CLOSURE_TOLERANCE})"
            ))
        },
    );
    ratio
}
