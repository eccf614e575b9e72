//! Property-based tests for PSU curves and savings estimators.

use fj_psu::{
    combined_savings, pfe600, right_sizing_savings, single_psu_savings, uplift_savings,
    EfficiencyCurve, EightyPlus, FleetPsuData, PsuObservation,
};
use proptest::prelude::*;

/// One router's redundant PSU pair in the regime the study targets:
/// balanced load sharing at 2–25 % load (the paper's fleet sits at
/// 10–20 %, §9.3.1). The §9.3.4/§9.3.5 estimators assume this regime —
/// concentrating load past the efficiency optimum (≈60 %) can cost power,
/// which is physics, not an estimator bug.
fn arb_router_pair(router: usize) -> impl Strategy<Value = Vec<PsuObservation>> {
    (
        prop::sample::select(vec![250.0, 400.0, 750.0, 1100.0, 2000.0, 2700.0]),
        0.02f64..0.25,
        0.55f64..1.0,
    )
        .prop_map(move |(capacity, load, eff)| {
            let p_out = load * capacity;
            (0..2)
                .map(|slot| PsuObservation {
                    router: format!("r{router}"),
                    router_model: "generic".into(),
                    slot,
                    capacity_w: capacity,
                    p_in_w: p_out / eff,
                    p_out_w: p_out,
                })
                .collect()
        })
}

fn arb_fleet() -> impl Strategy<Value = FleetPsuData> {
    prop::collection::vec(any::<u8>(), 1..20)
        .prop_flat_map(|seeds| {
            let routers: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(i, _)| arb_router_pair(i))
                .collect();
            routers
        })
        .prop_map(|pairs| FleetPsuData::new(pairs.into_iter().flatten().collect()))
}

proptest! {
    /// Curve queries always land in (0, 1].
    #[test]
    fn efficiency_always_in_unit_interval(
        anchors in prop::collection::vec((0.0f64..1.0, -0.5f64..1.5), 2..8),
        query in -0.5f64..2.0,
    ) {
        // Build strictly increasing loads.
        let mut loads: Vec<f64> = anchors.iter().map(|a| a.0).collect();
        loads.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        loads.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        prop_assume!(loads.len() >= 2);
        let pts: Vec<(f64, f64)> = loads
            .iter()
            .zip(anchors.iter())
            .map(|(l, a)| (*l, a.1))
            .collect();
        let curve = EfficiencyCurve::new(pts);
        let eff = curve.efficiency_at(query);
        prop_assert!(eff > 0.0 && eff <= 1.0);
    }

    /// An offset shifts every unclamped query by exactly the offset.
    #[test]
    fn offset_is_uniform(load in 0.0f64..1.0, offset in -0.2f64..0.2) {
        let base = pfe600();
        let shifted = base.with_offset(offset);
        let a = base.efficiency_at(load);
        let b = shifted.efficiency_at(load);
        // Where neither side clamps, the difference is the offset.
        if a > 0.02 && a < 0.99 && b > 0.02 && b < 0.99 {
            prop_assert!((b - a - offset).abs() < 1e-9);
        }
    }

    /// Evaluating at an offset is the shifted copy's evaluation, bit for
    /// bit, on any load: in range, negative, above full load, ±∞ or NaN.
    #[test]
    fn efficiency_at_offset_is_the_shifted_copy(
        load in prop_oneof![
            -1.0f64..2.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0f64),
        ],
        offset in -0.2f64..0.2,
    ) {
        let base = pfe600();
        prop_assert_eq!(
            base.efficiency_at_offset(load, offset).to_bits(),
            base.with_offset(offset).efficiency_at(load).to_bits()
        );
    }

    /// Uplift savings are non-negative and monotone across standards.
    #[test]
    fn uplift_nonnegative_and_monotone(fleet in arb_fleet()) {
        let mut prev = 0.0f64;
        for level in EightyPlus::ALL {
            let s = uplift_savings(&fleet, level);
            prop_assert!(s.saved_w >= -1e-9, "{level}: {}", s.saved_w);
            prop_assert!(s.saved_w + 1e-9 >= prev, "{level} broke monotonicity");
            prev = s.saved_w;
        }
    }

    /// Combined dominates both individual measures.
    #[test]
    fn combined_dominates(fleet in arb_fleet()) {
        let single = single_psu_savings(&fleet).saved_w;
        for level in EightyPlus::ALL {
            let both = combined_savings(&fleet, level).saved_w;
            let only = uplift_savings(&fleet, level).saved_w;
            prop_assert!(both + 1e-6 >= only);
            prop_assert!(both + 1e-6 >= single);
        }
    }

    /// Savings never exceed the baseline input power.
    #[test]
    fn savings_bounded_by_baseline(fleet in arb_fleet()) {
        let baseline = fleet.total_input_power_w();
        for level in EightyPlus::ALL {
            prop_assert!(uplift_savings(&fleet, level).saved_w <= baseline + 1e-6);
            prop_assert!(combined_savings(&fleet, level).saved_w <= baseline + 1e-6);
        }
        prop_assert!(single_psu_savings(&fleet).saved_w <= baseline + 1e-6);
    }

    /// Right-sizing rows exist for every capacity option; savings are
    /// monotone non-increasing in the option whenever the resilience
    /// factor keeps post-resize loads below the efficiency optimum
    /// (`k ≥ 1.7` guarantees load ≤ 1/k < 0.6). For k close to 1 a resize
    /// can land a PSU *above* the optimum, where a bigger capacity
    /// genuinely helps — physics, not a bug, and the reason the paper
    /// recommends k = 2.
    #[test]
    fn right_sizing_rows_complete(fleet in arb_fleet(), k in 1.0f64..3.0) {
        let report = right_sizing_savings(&fleet, k);
        prop_assert_eq!(report.rows.len(), 6);
        if k >= 1.7 {
            for w in report.rows.windows(2) {
                prop_assert!(w[0].1.saved_w + 1e-6 >= w[1].1.saved_w);
            }
        }
    }
}
