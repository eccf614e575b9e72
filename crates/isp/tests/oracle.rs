//! The streaming engine against an independent reference (tier-1).
//!
//! The FJ01 suites prove the engine agrees with *itself* across shard
//! counts, chunk sizes and kill→resume; a bug every configuration shares
//! — gap accounting, predictor counter deltas at chunk edges, fleet-total
//! summation order — passes them all. Here the engine must agree with a
//! deliberately naive sequential collector instead: one loop over rounds,
//! then routers, with no chunks, pool, cells, records, checkpoints,
//! telemetry or spans. [`oracle`] is the executable spec of a collection.

use fj_faults::FaultPlan;
use fj_isp::events::sort_events;
use fj_isp::{
    build_fleet, collect_streaming, EventKind, Fleet, FleetConfig, FleetTrace, ModelPredictor,
    RouterTrace, ScheduledEvent, StreamConfig,
};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

const INSTRUMENTED: [usize; 2] = [0, 3];

fn horizon() -> (SimInstant, SimInstant, SimDuration) {
    (
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
    )
}

/// The recovery suite's scenario: two days of 5-minute polls over a
/// small fleet, 15 % drops, and three mid-run events.
fn scenario() -> (Fleet, Vec<ScheduledEvent>, FaultPlan) {
    let fleet = build_fleet(&FleetConfig::small(11));
    let n = fleet.routers.len();
    let iface = fleet.routers[1].plan[0].index;
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_secs(12 * 3600),
            kind: EventKind::AdminDown { router: 1, iface },
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
            kind: EventKind::AdminUp { router: 1, iface },
        },
    ];
    let plan = FaultPlan::new(0x6A9_0006).with_drop_rate(0.15);
    (fleet, events, plan)
}

/// Collects `fleet` the naive way. Every router is primed first (clock
/// aligned, predictor counters seeded, first step consumed); then each
/// poll round visits the routers in fleet order and, per router, fires
/// its due events, reads the wall and PSU sensors, draws the SNMP and
/// wall-meter drops, sums its traffic, predicts, and steps. Fleet totals
/// add up in router order, and a round with any dropped SNMP poll has
/// no reported total.
fn oracle(fleet: &mut Fleet, mut events: Vec<ScheduledEvent>, plan: &FaultPlan) -> FleetTrace {
    let (start, end, step) = horizon();
    sort_events(&mut events);
    let mut fired = vec![false; events.len()];
    let mut predictor = ModelPredictor::new(fj_router_sim::spec::truth_registry());
    let mut trace = FleetTrace {
        step,
        routers: fleet
            .routers
            .iter()
            .map(|r| RouterTrace {
                name: r.name.clone(),
                model: r.sim.spec().model.clone(),
                ..RouterTrace::default()
            })
            .collect(),
        ..FleetTrace::default()
    };
    for (i, r) in fleet.routers.iter_mut().enumerate() {
        r.sim.set_time(start);
        let _ = predictor.predict_router(i, r, step);
        r.step(start, &fleet.packets, step).expect("prime step");
    }

    let mut round = 0u64;
    let mut t = start + step;
    while t < end {
        let (mut wall_total, mut reported_total, mut traffic_total) = (0.0, 0.0, 0.0);
        let mut reported_unknown = false;
        for (i, r) in fleet.routers.iter_mut().enumerate() {
            for (e, done) in events.iter().zip(fired.iter_mut()) {
                if !*done && e.kind.router() == i && e.at <= t {
                    e.apply_to_router(r).expect("event applies");
                    *done = true;
                }
            }
            let rt = &mut trace.routers[i];

            let wall = r.sim.wall_power().as_f64();
            wall_total += wall;
            let mut reported = None;
            for slot in 0..r.sim.psu_count() {
                if let Ok(Some(p)) = r.sim.psu_reported_power(slot) {
                    *reported.get_or_insert(0.0) += p.as_f64();
                }
            }
            match reported {
                // No PSU sensor (Fig. 4c): the wall draw stands in.
                None => reported_total += wall,
                Some(_) if plan.should_drop(&format!("snmp/{}", r.name), round) => {
                    rt.psu_reported.push_gap(t);
                    trace.missed_polls += 1;
                    reported_unknown = true;
                }
                Some(v) => {
                    rt.psu_reported.push(t, v);
                    reported_total += v;
                }
            }
            if INSTRUMENTED.contains(&i) {
                if plan.should_drop(&format!("wall/{}", r.name), round) {
                    rt.wall.push_gap(t);
                    trace.missed_polls += 1;
                } else {
                    rt.wall.push(t, wall);
                }
            }

            // External links count in full, internal ones at half: each
            // internal link appears at both of its ends.
            let (mut traffic, mut share) = (0.0, 0.0);
            for p in r.plan.iter().filter(|p| !p.spare) {
                let rate = p.pattern.rate(t, p.class.speed.rate()).as_f64();
                traffic += rate;
                share += if p.external { rate } else { rate / 2.0 };
            }
            rt.traffic.push(t, traffic);
            traffic_total += share;

            if let Some(p) = predictor.predict_router(i, r, step) {
                rt.predicted.push(t, p.as_f64());
            }
            r.step(t, &fleet.packets, step).expect("router steps");
        }
        trace.total_wall.push(t, wall_total);
        if reported_unknown {
            trace.total_reported.push_gap(t);
        } else {
            trace.total_reported.push(t, reported_total);
        }
        trace.total_traffic.push(t, traffic_total);
        round += 1;
        t += step;
    }
    trace
}

#[test]
fn engine_matches_the_sequential_oracle() {
    let (mut reference, events, plan) = scenario();
    let want = oracle(&mut reference, events, &plan);
    assert!(want.missed_polls > 0, "drops occurred");
    assert!(
        want.total_reported.has_gaps(),
        "fleet total had unknowable rounds"
    );

    for shards in [1usize, 2, 4] {
        // Whole horizon, a chunk that divides nothing, and 8-hour chunks.
        for chunk_rounds in [0u64, 37, 96] {
            let label = format!("shards={shards} chunk_rounds={chunk_rounds}");
            let (mut fleet, events, plan) = scenario();
            let (start, end, step) = horizon();
            let outcome = collect_streaming(
                &mut fleet,
                start,
                end,
                step,
                events,
                &INSTRUMENTED,
                &plan,
                &Telemetry::with_capacity(1 << 12),
                &StreamConfig {
                    shards,
                    chunk_rounds,
                    ..StreamConfig::default()
                },
            )
            .expect("collection succeeds");
            assert!(outcome.completed, "{label}: run completed");
            let got = outcome.trace;
            assert_eq!(got.routers.len(), want.routers.len(), "{label}: routers");
            for (g, w) in got.routers.iter().zip(&want.routers) {
                assert_eq!(g, w, "{label}: router {}", w.name);
            }
            assert_eq!(got, want, "{label}: fleet totals");
            for (g, w) in fleet.routers.iter().zip(&reference.routers) {
                assert_eq!(g.sim.now(), w.sim.now(), "{label}: {} clock", w.name);
                assert_eq!(
                    g.sim.wall_power(),
                    w.sim.wall_power(),
                    "{label}: {} wall power",
                    w.name
                );
            }
        }
    }
}
