//! The layer replay: the streaming engine's per-router loop rebuilt from
//! the public functions of each layer, so every call family can be timed
//! from the benchmark's own code.
//!
//! One router-round runs, in the engine's order:
//!
//! | family                    | public call                                         |
//! |---------------------------|-----------------------------------------------------|
//! | `isp.event_apply`         | `ScheduledEvent::apply_to_router` for due events     |
//! | `router-sim.sensor_read`  | `wall_power` + `psu_reported_power` per PSU slot     |
//! | `faults.draw`             | `FaultPlan::should_drop` + one `TargetHealth` step   |
//! | `traffic.pattern_eval`    | `LoadPattern::rate` per active interface             |
//! | `isp.predict`             | `ModelPredictor::predict_router`                     |
//! | `isp.router_step`         | `FleetRouter::step`                                  |
//!
//! Routers run chunk by chunk, each router through the whole chunk, as
//! the engine's single-shard path does. A replay is monomorphised three
//! ways: `TRACED` stamps the family boundaries (seven clock reads per
//! router-round, shared between adjacent spans) and keeps the spans in
//! memory; `RECORD` keeps the per-router series for the fidelity gate;
//! with neither, the loop is the bare layer calls, which prices the
//! tracing itself and the engine's residual.

use std::hint::black_box;

use fj_faults::TargetHealth;
use fj_isp::{FleetRouter, FleetTrace, ModelPredictor, ScheduledEvent};
use fj_units::TimeSeries;

use crate::alloc;
use crate::inputs::CensusInputs;
use crate::stats::Clock;

/// Family names, in loop order; index `i` spans `[t[i], t[i+1]]`.
pub const FAMILIES: [&str; 6] = [
    "isp.event_apply",
    "router-sim.sensor_read",
    "faults.draw",
    "traffic.pattern_eval",
    "isp.predict",
    "isp.router_step",
];

/// Round index of a router's priming pass (a predict and a step before
/// the first recorded round, exactly as the engine primes).
pub const PRIME: u32 = u32::MAX;

/// The spans of one router-round, sharing one id: a parent
/// `router_round` span `[t[0], t[6]]` and one child per family
/// `[t[i], t[i+1]]`. Stamps are nanoseconds on the benchmark clock.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpans {
    pub id: u32,
    pub router: u32,
    pub round: u32,
    pub t: [u64; 7],
}

/// Exact counts the traced replay makes at the family boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events_applied: u64,
    pub fault_draws: u64,
    pub pattern_evals: u64,
    pub predict_allocs: u64,
}

/// The series a recording replay keeps per router.
#[derive(Debug, Default)]
pub struct Recorded {
    pub psu_reported: TimeSeries,
    pub predicted: TimeSeries,
    pub traffic: TimeSeries,
    pub wall: TimeSeries,
}

/// What one replay pass produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the loop (set-up excluded).
    pub secs: f64,
    /// Σ span durations per family (traced passes only), ns.
    pub family_ns: [u64; 6],
    /// Σ time inside `apply_to_router` calls alone (traced passes), ns.
    pub apply_ns: u64,
    pub counts: Counts,
    pub spans: Vec<RoundSpans>,
    pub recorded: Vec<Recorded>,
}

struct Cell {
    router: FleetRouter,
    predictor: ModelPredictor,
    health: TargetHealth,
    events: Vec<ScheduledEvent>,
    next_event: usize,
    snmp_stream: String,
    wall_stream: String,
    instrumented: bool,
}

/// Runs one replay pass over a fresh copy of `inputs`.
pub fn run<const TRACED: bool, const RECORD: bool>(
    inputs: &CensusInputs,
    clock: &Clock,
) -> Result<Replay, String> {
    let mut events = inputs.events.clone();
    fj_isp::events::sort_events(&mut events);
    let mut cells: Vec<Cell> = inputs
        .fleet
        .routers
        .iter()
        .enumerate()
        .map(|(i, router)| Cell {
            router: router.clone(),
            predictor: ModelPredictor::new(fj_router_sim::spec::truth_registry()),
            health: TargetHealth::new(),
            events: events
                .iter()
                .filter(|e| e.kind.router() == i)
                .cloned()
                .collect(),
            next_event: 0,
            snmp_stream: format!("snmp/{}", router.name),
            wall_stream: format!("wall/{}", router.name),
            instrumented: inputs.instrumented.contains(&i),
        })
        .collect();
    let rounds = inputs.rounds();
    let mut out = Replay::default();
    if TRACED {
        let n = usize::try_from(inputs.router_rounds()).unwrap_or(0) + cells.len();
        out.spans.reserve_exact(n);
    }
    if RECORD {
        out.recorded = cells.iter().map(|_| Recorded::default()).collect();
    }
    let packets = &inputs.fleet.packets;
    let step = inputs.step;
    let stamp = || if TRACED { clock.nanos() } else { 0 };

    let started = clock.secs();
    let mut first = 0;
    while first < rounds {
        let end = rounds.min(first + inputs.chunk_rounds);
        for (index, cell) in cells.iter_mut().enumerate() {
            let router_id = index as u32;
            if first == 0 {
                // Prime, as the engine does: align the clock, seed the
                // predictor's counters, consume the first step.
                let t0 = stamp();
                cell.router.sim.set_time(inputs.start);
                black_box(cell.predictor.predict_router(index, &cell.router, step));
                let t1 = stamp();
                cell.router
                    .step(inputs.start, packets, step)
                    .map_err(|e| format!("prime {index}: {e}"))?;
                let t2 = stamp();
                if TRACED {
                    out.family_ns[4] += t1 - t0;
                    out.family_ns[5] += t2 - t1;
                    let id = out.spans.len() as u32;
                    out.spans.push(RoundSpans {
                        id,
                        router: router_id,
                        round: PRIME,
                        t: [t0, t0, t0, t0, t0, t1, t2],
                    });
                }
            }
            for round in first..end {
                let t = inputs.round_time(round);
                let mut ts = [0u64; 7];
                ts[0] = stamp();

                while cell.next_event < cell.events.len() && cell.events[cell.next_event].at <= t {
                    let a0 = stamp();
                    cell.events[cell.next_event]
                        .apply_to_router(&mut cell.router)
                        .map_err(|e| format!("event on router {index}: {e}"))?;
                    out.apply_ns += stamp() - a0;
                    cell.next_event += 1;
                    out.counts.events_applied += 1;
                }
                ts[1] = stamp();

                let wall = cell.router.sim.wall_power().as_f64();
                let mut reported = 0.0;
                let mut reports = false;
                for slot in 0..cell.router.sim.psu_count() {
                    if let Ok(Some(p)) = cell.router.sim.psu_reported_power(slot) {
                        reported += p.as_f64();
                        reports = true;
                    }
                }
                ts[2] = stamp();

                // `Some(true)` = dropped, `Some(false)` = read, `None` = no poll.
                let snmp_drop = reports.then(|| {
                    let dropped = inputs.plan.should_drop(&cell.snmp_stream, round);
                    if dropped {
                        cell.health.record_failure();
                    } else {
                        cell.health.record_success();
                    }
                    dropped
                });
                let wall_drop = cell
                    .instrumented
                    .then(|| inputs.plan.should_drop(&cell.wall_stream, round));
                ts[3] = stamp();

                // The engine folds one evaluation into both the router's
                // series and its share of the fleet total.
                let mut traffic = 0.0;
                let mut traffic_contrib = 0.0;
                let mut evals = 0u64;
                for p in cell.router.plan.iter().filter(|p| !p.spare) {
                    let r = p.pattern.rate(t, p.class.speed.rate()).as_f64();
                    traffic += r;
                    traffic_contrib += if p.external { r } else { r / 2.0 };
                    evals += 1;
                }
                black_box(traffic_contrib);
                ts[4] = stamp();

                let before = if TRACED { alloc::tally().allocs } else { 0 };
                let predicted = cell
                    .predictor
                    .predict_router(index, &cell.router, step)
                    .map(|p| p.as_f64());
                let allocs = if TRACED {
                    alloc::tally().allocs - before
                } else {
                    0
                };
                ts[5] = stamp();

                cell.router
                    .step(t, packets, step)
                    .map_err(|e| format!("step router {index} round {round}: {e}"))?;
                ts[6] = stamp();

                if TRACED {
                    for (ns, w) in out.family_ns.iter_mut().zip(ts.windows(2)) {
                        *ns += w[1] - w[0];
                    }
                    out.counts.fault_draws +=
                        u64::from(snmp_drop.is_some()) + u64::from(wall_drop.is_some());
                    out.counts.pattern_evals += evals;
                    out.counts.predict_allocs += allocs;
                    let id = out.spans.len() as u32;
                    out.spans.push(RoundSpans {
                        id,
                        router: router_id,
                        round: round as u32,
                        t: ts,
                    });
                }
                if RECORD {
                    let rec = &mut out.recorded[index];
                    match snmp_drop {
                        Some(true) => rec.psu_reported.push_gap(t),
                        Some(false) => rec.psu_reported.push(t, reported),
                        None => {}
                    }
                    match wall_drop {
                        Some(true) => rec.wall.push_gap(t),
                        Some(false) => rec.wall.push(t, wall),
                        None => {}
                    }
                    if let Some(p) = predicted {
                        rec.predicted.push(t, p);
                    }
                    rec.traffic.push(t, traffic);
                } else {
                    black_box((wall, reported, snmp_drop, wall_drop, traffic, predicted));
                }
            }
        }
        first = end;
    }
    out.secs = clock.secs() - started;
    Ok(out)
}

/// The fidelity gate: compares a recording replay's series with the
/// engine's trace, bit for bit — samples (time and value bits) of
/// `psu_reported`, `predicted`, and `traffic`, plus, when `gaps` is set,
/// the gap positions of `psu_reported` and the wall series and the wall
/// samples. Returns the number of series that differ.
pub fn mismatches(replay: &Replay, trace: &FleetTrace, gaps: bool) -> u64 {
    fn same(a: &TimeSeries, b: &TimeSeries, gaps: bool) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|((ta, va), (tb, vb))| ta == tb && va.to_bits() == vb.to_bits())
            && (!gaps || a.gaps() == b.gaps())
    }
    if replay.recorded.len() != trace.routers.len() {
        return u64::MAX;
    }
    let mut bad = 0;
    for (rec, rt) in replay.recorded.iter().zip(&trace.routers) {
        bad += u64::from(!same(&rec.psu_reported, &rt.psu_reported, gaps));
        bad += u64::from(!same(&rec.predicted, &rt.predicted, false));
        bad += u64::from(!same(&rec.traffic, &rt.traffic, false));
        if gaps {
            bad += u64::from(!same(&rec.wall, &rt.wall, true));
        }
    }
    bad
}

/// Writes the spans of a traced replay as tab-separated text, one line
/// per router-round: the shared span id, router, round (`PRIME` for the
/// priming pass), then the seven boundary stamps. Span `router_round`
/// is `[t0, t6]`; family `i` (in [`FAMILIES`] order) is `[t_i, t_i+1]`
/// with `router_round` as its parent.
pub fn write_spans(path: &std::path::Path, spans: &[RoundSpans]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# id\trouter\tround\tt0_ns\tt1_ns\tt2_ns\tt3_ns\tt4_ns\tt5_ns\tt6_ns\t# parent router_round=[t0,t6]; children {}",
        FAMILIES.join(",")
    )?;
    for s in spans {
        let [a, b, c, d, e, f, g] = s.t;
        writeln!(
            w,
            "{}\t{}\t{}\t{a}\t{b}\t{c}\t{d}\t{e}\t{f}\t{g}",
            s.id, s.router, s.round
        )?;
    }
    w.flush()
}
