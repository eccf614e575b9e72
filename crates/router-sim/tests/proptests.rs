//! Property-based tests for the router simulator's physical invariants.

use fj_core::{InterfaceClass, InterfaceLoad, Speed, TransceiverType};
use fj_router_sim::{RouterSpec, SimulatedRouter};
use fj_units::{Bytes, DataRate, SimDuration, SimInstant, Watts};
use proptest::prelude::*;
use proptest::TestCaseError;

fn arb_model() -> impl Strategy<Value = String> {
    prop::sample::select(RouterSpec::builtin_names())
}

/// Plugs the first `n` ports with whatever class the truth model prices.
fn populate(router: &mut SimulatedRouter, n: usize) -> Vec<usize> {
    let spec = router.spec().clone();
    let mut plugged = Vec::new();
    for i in 0..n.min(spec.port_count()) {
        let port = spec.ports[i].port;
        let candidate = spec
            .truth
            .classes()
            .iter()
            .map(|cp| cp.class)
            .find(|c| c.port == port && spec.ports[i].speeds.contains(&c.speed));
        if let Some(class) = candidate {
            if router.plug(i, class.transceiver, class.speed).is_ok() {
                plugged.push(i);
            }
        }
    }
    plugged
}

proptest! {
    /// Wall power is strictly positive and finite for any built-in model
    /// and any seed.
    #[test]
    fn wall_power_positive_finite(model in arb_model(), seed in 0u64..1000) {
        let router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let w = router.wall_power().as_f64();
        prop_assert!(w.is_finite());
        prop_assert!(w > 0.0);
        prop_assert!(w < 5_000.0, "{model}: {w}");
    }

    /// Plugging modules never reduces nominal power; unplugging restores
    /// the exact original value.
    #[test]
    fn plug_unplug_round_trip(model in arb_model(), seed in 0u64..100, n in 1usize..8) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let before = router.nominal_power();
        let plugged = populate(&mut router, n);
        prop_assume!(!plugged.is_empty());
        prop_assert!(router.nominal_power().as_f64() >= before.as_f64() - 1e-9);
        for i in &plugged {
            router.unplug(*i).unwrap();
        }
        prop_assert!((router.nominal_power() - before).abs().as_f64() < 1e-9);
    }

    /// Enabling an interface (admin up with live peer) never lowers
    /// nominal power when all parameters are non-negative for the class;
    /// for published models with slightly negative P_trx,up the drop is
    /// bounded by that parameter.
    #[test]
    fn admin_up_power_change_bounded(model in arb_model(), seed in 0u64..50) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let plugged = populate(&mut router, 2);
        prop_assume!(!plugged.is_empty());
        let i = plugged[0];
        router.set_external_peer(i, true).unwrap();
        let before = router.nominal_power().as_f64();
        router.set_admin(i, true).unwrap();
        let after = router.nominal_power().as_f64();
        // P_port + P_trx,up ≥ -0.5 W across every published class.
        prop_assert!(after >= before - 0.5, "{model}: {before} -> {after}");
    }

    /// Counters accumulate proportionally to elapsed time.
    #[test]
    fn counters_linear_in_time(seed in 0u64..50, gbps in 0.1f64..100.0, secs in 1i64..10_000) {
        let mut router =
            SimulatedRouter::new(RouterSpec::builtin("8201-32FH").unwrap(), seed);
        router.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        router.set_external_peer(0, true).unwrap();
        router.set_admin(0, true).unwrap();
        router
            .set_load(0, InterfaceLoad::from_rate(DataRate::from_gbps(gbps), Bytes::new(1000.0)))
            .unwrap();
        router.tick(SimDuration::from_secs(secs));
        let octets = router.interface(0).unwrap().octets;
        let expected = gbps * 1e9 / 8.0 * secs as f64;
        prop_assert!(
            (octets as f64 - expected).abs() <= secs as f64, // ≤1 B/s rounding
            "octets {octets} expected {expected}"
        );
    }

    /// PSU sensor snapshots always produce positive readings with a
    /// plausible implied efficiency.
    #[test]
    fn snapshot_plausible(model in arb_model(), seed in 0u64..100) {
        let router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        for slot in 0..router.psu_count() {
            if let Some((p_in, p_out)) = router.psu_snapshot(slot).unwrap() {
                prop_assert!(p_in > 0.0);
                prop_assert!(p_out > 0.0);
                let eff = p_out / p_in;
                prop_assert!(eff > 0.3 && eff < 1.15, "{model} slot {slot}: eff {eff}");
            }
        }
    }

    /// Hot standby round-trips: enabling and disabling restores the
    /// original wall power exactly.
    #[test]
    fn hot_standby_round_trip(model in arb_model(), seed in 0u64..50) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        prop_assume!(router.psu_count() >= 2);
        let before = router.wall_power();
        router.set_psu_hot_standby(1, true).unwrap();
        router.set_psu_hot_standby(1, false).unwrap();
        prop_assert!((router.wall_power() - before).abs().as_f64() < 1e-9);
    }
}

/// One step of a random session against a router. Each `usize` picks,
/// modulo the count, among the router's own interfaces or bays plus one
/// out-of-range index, so error paths run too.
#[derive(Debug, Clone)]
enum Op {
    Plug(usize, usize),
    Unplug(usize),
    SetAdmin(usize, bool),
    SetSpeed(usize, usize),
    Cable(usize, usize),
    Uncable(usize),
    SetExternalPeer(usize, bool),
    SetLoad(usize, f64),
    SetPsuEnabled(usize, bool),
    SetPsuHotStandby(usize, bool),
    PowerCyclePsu(usize),
    OsUpdate(f64),
    AddUnmodeledDraw(f64),
    Tick(i64),
    SetTime(i64),
    Console(usize, usize, usize),
    ReadPsu(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Half the picks land on the first ports, where sessions plug.
    let i = || prop_oneof![0usize..6, any::<usize>()];
    prop_oneof![
        (i(), i()).prop_map(|(a, b)| Op::Plug(a, b)),
        i().prop_map(Op::Unplug),
        (i(), any::<bool>()).prop_map(|(a, up)| Op::SetAdmin(a, up)),
        (i(), i()).prop_map(|(a, b)| Op::SetSpeed(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Cable(a, b)),
        i().prop_map(Op::Uncable),
        (i(), any::<bool>()).prop_map(|(a, up)| Op::SetExternalPeer(a, up)),
        (i(), 0.0f64..100.0).prop_map(|(a, g)| Op::SetLoad(a, g)),
        (i(), any::<bool>()).prop_map(|(a, on)| Op::SetPsuEnabled(a, on)),
        (i(), any::<bool>()).prop_map(|(a, on)| Op::SetPsuHotStandby(a, on)),
        i().prop_map(Op::PowerCyclePsu),
        (-30.0f64..60.0).prop_map(Op::OsUpdate),
        (-30.0f64..60.0).prop_map(Op::AddUnmodeledDraw),
        (0i64..4_000).prop_map(Op::Tick),
        (0i64..1_000_000).prop_map(Op::SetTime),
        (i(), i(), i()).prop_map(|(a, b, c)| Op::Console(a, b, c)),
        i().prop_map(Op::ReadPsu),
    ]
}

/// Applies `op`, ignoring refusals: a refused call must leave the
/// router (memo included) as it was.
fn apply(router: &mut SimulatedRouter, op: &Op, bare: bool) {
    let spec = router.spec().clone();
    let ifaces = router.interface_count() + 1;
    let bays = router.psu_count() + 1;
    let at = |ix: &usize| ix % ifaces;
    let bay = |ix: &usize| ix % bays;
    // The classes the truth model prices on interface `i`'s cage.
    let classes = |i: usize| -> Vec<InterfaceClass> {
        spec.ports.get(i).map_or_else(Vec::new, |slot| {
            spec.truth
                .classes()
                .iter()
                .map(|cp| cp.class)
                .filter(|c| c.port == slot.port && slot.speeds.contains(&c.speed))
                .collect()
        })
    };
    match op {
        Op::Plug(a, b) if !bare => {
            let i = at(a);
            let cands = classes(i);
            if !cands.is_empty() {
                let c = cands[b % cands.len()];
                let _ = router.plug(i, c.transceiver, c.speed);
            }
        }
        Op::Plug(..) => {}
        Op::Unplug(a) => {
            let _ = router.unplug(at(a));
        }
        Op::SetAdmin(a, up) => {
            let _ = router.set_admin(at(a), *up);
        }
        Op::SetSpeed(a, b) => {
            let _ = router.set_speed(at(a), Speed::ALL[b % Speed::ALL.len()]);
        }
        Op::Cable(a, b) => {
            let _ = router.cable(at(a), at(b));
        }
        Op::Uncable(a) => {
            let _ = router.uncable(at(a));
        }
        Op::SetExternalPeer(a, up) => {
            let _ = router.set_external_peer(at(a), *up);
        }
        Op::SetLoad(a, gbps) => {
            let load = InterfaceLoad::from_rate(DataRate::from_gbps(*gbps), Bytes::new(800.0));
            let _ = router.set_load(at(a), load);
        }
        Op::SetPsuEnabled(s, on) => {
            let _ = router.set_psu_enabled(bay(s), *on);
        }
        Op::SetPsuHotStandby(s, on) => {
            let _ = router.set_psu_hot_standby(bay(s), *on);
        }
        Op::PowerCyclePsu(s) => {
            let _ = router.power_cycle_psu(bay(s));
        }
        Op::OsUpdate(delta) => router.os_update("9.9.9", Watts::new(*delta)),
        Op::AddUnmodeledDraw(delta) => router.add_unmodeled_draw(Watts::new(*delta)),
        Op::Tick(secs) => router.tick(SimDuration::from_secs(*secs)),
        Op::SetTime(secs) => router.set_time(SimInstant::from_secs(*secs)),
        Op::Console(a, b, c) => {
            let (i, j) = (at(a), at(b));
            let speed = Speed::ALL[c % Speed::ALL.len()];
            let cands = classes(i);
            let plug = (!bare && !cands.is_empty()).then(|| {
                let cl = cands[c % cands.len()];
                format!("plug {i} {} {}", cl.transceiver, cl.speed)
            });
            let line = match c % 9 {
                0 => format!("interface {i} up"),
                1 => format!("interface {i} down"),
                2 => format!("interface {i} speed {speed}"),
                3 => plug.unwrap_or_else(|| "show psu".to_owned()),
                4 => format!("unplug {i}"),
                5 => format!("cable {i} {j}"),
                6 => format!(
                    "psu {} standby {}",
                    bay(b),
                    if i % 2 == 0 { "on" } else { "off" }
                ),
                7 => "show power".to_owned(),
                _ => format!("show interface {i}"),
            };
            let _ = router.console(&line);
        }
        Op::ReadPsu(s) => {
            let _ = router.psu_reported_power(bay(s));
            let _ = router.psu_snapshot(bay(s));
        }
    }
}

/// Wall power and every sensor read, bit for bit, against a copy rebuilt
/// through serde, which starts with an empty memo. Reads fill the memo,
/// so the next mutator must have cleared it.
fn assert_memo_fresh(router: &mut SimulatedRouter, step: usize) -> Result<(), TestCaseError> {
    let json = serde_json::to_string(&*router).expect("router serializes");
    let mut fresh: SimulatedRouter = serde_json::from_str(&json).expect("router parses");
    prop_assert_eq!(&fresh, &*router, "step {}: round trip", step);
    prop_assert_eq!(
        router.wall_power().as_f64().to_bits(),
        fresh.wall_power().as_f64().to_bits(),
        "step {}: wall power",
        step
    );
    for slot in 0..router.psu_count() {
        let bits = |w: Option<Watts>| w.map(|w| w.as_f64().to_bits());
        prop_assert_eq!(
            bits(router.psu_reported_power(slot).unwrap()),
            bits(fresh.psu_reported_power(slot).unwrap()),
            "step {}: PSU {} report",
            step,
            slot
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wall-power memo never serves a stale value: every public
    /// `&mut` method and console command that changes an input clears
    /// it. `bare` sessions never plug a module, so the router keeps no
    /// active interface throughout; the others start with live links.
    #[test]
    fn wall_memo_tracks_every_mutation(
        model in arb_model(),
        seed in 0u64..1000,
        bare in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        if !bare {
            for i in populate(&mut router, 4) {
                router.set_external_peer(i, true).unwrap();
                router.set_admin(i, true).unwrap();
                let load = InterfaceLoad::from_rate(DataRate::from_gbps(1.0), Bytes::new(800.0));
                router.set_load(i, load).unwrap();
            }
        }
        assert_memo_fresh(&mut router, 0)?;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut router, op, bare);
            assert_memo_fresh(&mut router, step + 1)?;
        }
    }
}
