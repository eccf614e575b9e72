//! Property-based tests for the power model's structural invariants.

use fj_core::{
    InterfaceClass, InterfaceConfig, InterfaceLoad, InterfaceParams, PortType, PowerModel, Speed,
    TransceiverType,
};
use fj_units::{Bytes, DataRate, Watts};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = InterfaceClass> {
    (
        prop::sample::select(PortType::ALL.to_vec()),
        prop::sample::select(TransceiverType::ALL.to_vec()),
        prop::sample::select(Speed::ALL.to_vec()),
    )
        .prop_map(|(p, t, s)| InterfaceClass::new(p, t, s))
}

/// Non-negative parameters (real devices have slightly negative measured
/// values sometimes, but the invariants below assume the physical case).
fn arb_params() -> impl Strategy<Value = InterfaceParams> {
    (
        0.0f64..5.0,
        0.0f64..12.0,
        0.0f64..3.0,
        0.0f64..50.0,
        0.0f64..200.0,
        0.0f64..1.0,
    )
        .prop_map(|(port, tin, tup, ebit, epkt, off)| {
            InterfaceParams::from_table(port, tin, tup, ebit, epkt, off)
        })
}

proptest! {
    /// More enabled state never reduces static power (with non-negative
    /// parameters): empty <= plugged <= enabled <= up.
    #[test]
    fn static_power_monotone_in_state(class in arb_class(), params in arb_params(), base in 0.0f64..500.0) {
        let model = PowerModel::new("m", Watts::new(base)).with_class(class, params);
        let states = [
            InterfaceConfig::empty(class),
            InterfaceConfig::plugged(class),
            InterfaceConfig::enabled(class),
            InterfaceConfig::up(class),
        ];
        let mut prev = f64::NEG_INFINITY;
        for st in states {
            let p = model.static_power(&[st]).unwrap().as_f64();
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
    }

    /// Dynamic power is monotone in the bit rate for a fixed packet size.
    #[test]
    fn dynamic_power_monotone_in_rate(
        class in arb_class(),
        params in arb_params(),
        g1 in 0.001f64..50.0,
        g2 in 0.001f64..50.0,
        size in 64.0f64..9000.0,
    ) {
        let model = PowerModel::new("m", Watts::ZERO).with_class(class, params);
        let cfg = [InterfaceConfig::up(class)];
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let p_lo = model
            .dynamic_power(&cfg, &[InterfaceLoad::from_rate(DataRate::from_gbps(lo), Bytes::new(size))])
            .unwrap();
        let p_hi = model
            .dynamic_power(&cfg, &[InterfaceLoad::from_rate(DataRate::from_gbps(hi), Bytes::new(size))])
            .unwrap();
        prop_assert!(p_hi.as_f64() >= p_lo.as_f64() - 1e-12);
    }

    /// Prediction is additive over interfaces: predicting all interfaces at
    /// once equals base + sum of single-interface marginal contributions.
    #[test]
    fn prediction_additive_over_interfaces(
        class in arb_class(),
        params in arb_params(),
        n in 1usize..32,
        gbps in 0.0f64..10.0,
    ) {
        let model = PowerModel::new("m", Watts::new(100.0)).with_class(class, params);
        let cfgs: Vec<_> = (0..n).map(|_| InterfaceConfig::up(class)).collect();
        let load = InterfaceLoad::from_rate(DataRate::from_gbps(gbps), Bytes::new(1520.0));
        let loads = vec![load; n];

        let all = model.predict(&cfgs, &loads).unwrap().total().as_f64();
        let single = model
            .predict(&cfgs[..1], &loads[..1])
            .unwrap()
            .total()
            .as_f64();
        let marginal = single - 100.0;
        prop_assert!((all - (100.0 + n as f64 * marginal)).abs() < 1e-6 * all.abs().max(1.0));
    }

    /// The breakdown's parts always sum to its total.
    #[test]
    fn breakdown_parts_sum_to_total(
        class in arb_class(),
        params in arb_params(),
        gbps in 0.0f64..100.0,
    ) {
        let model = PowerModel::new("m", Watts::new(50.0)).with_class(class, params);
        let cfgs = [InterfaceConfig::up(class), InterfaceConfig::plugged(class)];
        let loads = [
            InterfaceLoad::from_rate(DataRate::from_gbps(gbps), Bytes::new(600.0)),
            InterfaceLoad::IDLE,
        ];
        let b = model.predict(&cfgs, &loads).unwrap();
        let parts = b.static_power() + b.dynamic_power();
        prop_assert!((b.total() - parts).abs().as_f64() < 1e-9);
    }

    /// `predict_total` over a zipped stream is `predict(..)?.total()`,
    /// bit for bit, for any mix of states and loads, the empty set
    /// included. Only the first classes drawn are priced, so later ones
    /// are often unknown: both paths then return the same error.
    #[test]
    fn predict_total_is_the_breakdown_total(
        base in 0.0f64..500.0,
        params in prop::collection::vec(arb_params(), 1..4),
        items in prop::collection::vec(
            (arb_class(), 0u8..4, prop::option::of(0.001f64..100.0), 64.0f64..9000.0),
            0..16,
        ),
    ) {
        let mut model = PowerModel::new("m", Watts::new(base));
        for ((class, ..), p) in items.iter().zip(&params) {
            let _ = model.add_class(*class, *p);
        }
        let cfgs: Vec<_> = items
            .iter()
            .map(|&(class, state, ..)| match state {
                0 => InterfaceConfig::empty(class),
                1 => InterfaceConfig::plugged(class),
                2 => InterfaceConfig::enabled(class),
                _ => InterfaceConfig::up(class),
            })
            .collect();
        let loads: Vec<_> = items
            .iter()
            .map(|&(_, _, gbps, size)| {
                gbps.map_or(InterfaceLoad::IDLE, |g| {
                    InterfaceLoad::from_rate(DataRate::from_gbps(g), Bytes::new(size))
                })
            })
            .collect();
        let streamed = model.predict_total(cfgs.iter().copied().zip(loads.iter().copied()));
        let bits = |w: Watts| w.as_f64().to_bits();
        prop_assert_eq!(
            streamed.map(bits),
            model.predict(&cfgs, &loads).map(|b| bits(b.total()))
        );
    }

    /// Interface-class strings round-trip through Display/FromStr.
    #[test]
    fn class_display_round_trip(class in arb_class()) {
        let s = class.to_string();
        let back: InterfaceClass = s.parse().unwrap();
        prop_assert_eq!(class, back);
    }
}
