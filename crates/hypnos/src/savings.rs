//! Pricing the sleep set (§8's method).
//!
//! Turning an interface down saves `P_port + P_trx,up`. Without lab models
//! for every deployed router, `P_port` comes from per-port-type averages
//! over the models we do have (Table 5), and the `P_trx,in`/`P_trx,up`
//! split is unknown — only `P_trx,up ∈ [0, P_trx(datasheet)]` — so the
//! result is a range, whose lower end the paper argues is the realistic
//! one (optical `P_trx,in` dominates in every lab model).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use fj_core::{builtin_registry, transceiver_nominal_power, PortType};
use fj_units::Watts;

use crate::algorithm::{HypnosOutcome, LinkObservation};

/// The §8 savings estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SavingsRange {
    /// Lower bound: `Σ P_port` only (`P_trx,up = 0`).
    pub low_w: f64,
    /// Upper bound: `Σ P_port + P_trx(datasheet)` (`P_trx,up = P_trx`).
    pub high_w: f64,
}

impl SavingsRange {
    /// The range as percentages of a reference total power.
    pub fn as_percent_of(&self, total_w: f64) -> (f64, f64) {
        (100.0 * self.low_w / total_w, 100.0 * self.high_w / total_w)
    }
}

/// Per-port-type `P_port` (W): the Table 5 role, derived by averaging the
/// published models per port type (§8's own method). Built once per
/// process: the builtin registry is compiled in.
pub fn port_type_p_port() -> &'static BTreeMap<PortType, Watts> {
    static TABLE: OnceLock<BTreeMap<PortType, Watts>> = OnceLock::new();
    TABLE.get_or_init(|| {
        builtin_registry()
            .port_type_averages()
            .into_iter()
            .map(|(port, (p_port, _))| (port, p_port))
            .collect()
    })
}

/// Prices a sleep set.
pub fn sleeping_savings(outcome: &HypnosOutcome) -> SavingsRange {
    let p_port = port_type_p_port();
    let mut low = 0.0;
    let mut high = 0.0;
    for obs in outcome.slept_observations() {
        low += price_end_low(p_port, obs, true) + price_end_low(p_port, obs, false);
        high += price_end_high(p_port, obs, true) + price_end_high(p_port, obs, false);
    }
    SavingsRange {
        low_w: low,
        high_w: high,
    }
}

fn price_end_low(p_port: &BTreeMap<PortType, Watts>, obs: &LinkObservation, a: bool) -> f64 {
    let class = if a { obs.class_a } else { obs.class_b };
    p_port
        .get(&class.port)
        .copied()
        .unwrap_or(Watts::ZERO)
        .as_f64()
}

fn price_end_high(p_port: &BTreeMap<PortType, Watts>, obs: &LinkObservation, a: bool) -> f64 {
    let class = if a { obs.class_a } else { obs.class_b };
    price_end_low(p_port, obs, a)
        + transceiver_nominal_power(class.transceiver, class.speed).as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::observation;

    #[test]
    fn empty_sleep_set_saves_nothing() {
        let outcome = HypnosOutcome {
            considered: vec![observation(0, (1, 2), 100.0, 1.0)],
            slept: vec![],
        };
        let s = sleeping_savings(&outcome);
        assert_eq!(s.low_w, 0.0);
        assert_eq!(s.high_w, 0.0);
    }

    #[test]
    fn range_brackets_properly() {
        let outcome = HypnosOutcome {
            considered: vec![observation(0, (1, 2), 100.0, 0.1)],
            slept: vec![0],
        };
        let s = sleeping_savings(&outcome);
        assert!(s.low_w > 0.0, "P_port is saved for sure");
        assert!(s.high_w > s.low_w, "transceiver adds to the upper bound");
        // QSFP28 DAC at both ends: 2×~0.52 W low, + 2×0.1 W DAC high.
        assert!((0.5..2.5).contains(&s.low_w), "low {}", s.low_w);
    }

    #[test]
    fn percent_helper() {
        let s = SavingsRange {
            low_w: 80.0,
            high_w: 390.0,
        };
        let (lo, hi) = s.as_percent_of(21_000.0);
        assert!((lo - 0.38).abs() < 0.01);
        assert!((hi - 1.857).abs() < 0.01);
    }

    #[test]
    fn port_averages_cover_common_types() {
        let table = port_type_p_port();
        for p in [
            PortType::Sfp,
            PortType::SfpPlus,
            PortType::Qsfp28,
            PortType::Rj45,
        ] {
            assert!(table.contains_key(&p), "missing {p}");
        }
        // QSFP28's average P_port lands near Table 5's 0.53 W.
        let q = table[&PortType::Qsfp28].as_f64();
        assert!((0.3..0.8).contains(&q), "QSFP28 P_port {q}");
    }

    #[test]
    fn fleet_scale_savings_land_in_paper_band() {
        use crate::algorithm::{decide, observe_links, HypnosConfig};
        use fj_isp::{build_fleet, FleetConfig};
        let mut fleet = build_fleet(&FleetConfig::switch_like(7));
        fleet.advance(fj_units::SimDuration::from_hours(3)).unwrap();
        let outcome = decide(&observe_links(&fleet), &HypnosConfig::default());
        let savings = sleeping_savings(&outcome);
        let total = fleet.total_wall_power_w();
        let (lo, hi) = savings.as_percent_of(total);
        // Paper: 0.4–1.9 % of total power.
        assert!((0.1..1.2).contains(&lo), "low {lo}%");
        assert!((0.4..3.0).contains(&hi), "high {hi}%");
        assert!(hi > lo);
    }
}
