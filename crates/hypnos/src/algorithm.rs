//! The Hypnos sleep-selection algorithm.

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceClass, PortType, Speed, TransceiverType};
use fj_isp::Fleet;
use fj_units::DataRate;

use crate::graph::Topology;

/// Algorithm parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypnosConfig {
    /// Capacity headroom: the up links incident to each router must keep
    /// at least `headroom ×` that router's internal traffic after a sleep.
    pub headroom: f64,
    /// Links above this utilisation are never considered for sleeping.
    pub max_sleep_utilization: f64,
}

impl Default for HypnosConfig {
    fn default() -> Self {
        Self {
            headroom: 2.0,
            max_sleep_utilization: 0.2,
        }
    }
}

/// What Hypnos observed about one internal link when deciding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkObservation {
    /// Link id (index into the fleet's link table).
    pub link_id: usize,
    /// Endpoint router indices.
    pub routers: (usize, usize),
    /// Link capacity.
    pub capacity: DataRate,
    /// Traffic at decision time (one direction pair, both summed).
    pub traffic: DataRate,
    /// Interface class at end A (for pricing the savings).
    pub class_a: InterfaceClass,
    /// Interface class at end B.
    pub class_b: InterfaceClass,
}

impl LinkObservation {
    /// Utilisation fraction.
    pub fn utilization(&self) -> f64 {
        if self.capacity.as_f64() <= 0.0 {
            return 0.0;
        }
        self.traffic / self.capacity
    }
}

/// Outcome of one Hypnos decision round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypnosOutcome {
    /// Everything the algorithm looked at.
    pub considered: Vec<LinkObservation>,
    /// Link ids put to sleep.
    pub slept: Vec<usize>,
}

impl HypnosOutcome {
    /// Fraction of internal links slept (the Hypnos paper: ≈1/3).
    pub fn sleep_fraction(&self) -> f64 {
        if self.considered.is_empty() {
            return 0.0;
        }
        self.slept.len() as f64 / self.considered.len() as f64
    }

    /// The observations of the slept links, in `considered` order.
    pub fn slept_observations(&self) -> Vec<&LinkObservation> {
        let mut slept = self.slept.clone();
        slept.sort_unstable();
        self.considered
            .iter()
            .filter(|o| slept.binary_search(&o.link_id).is_ok())
            .collect()
    }
}

/// Snapshots the fleet's internal links as Hypnos inputs.
pub fn observe_links(fleet: &Fleet) -> Vec<LinkObservation> {
    let now = fleet.now();
    let mut out = Vec::with_capacity(fleet.links.len());
    for (link_id, (a, b)) in fleet.links.iter().enumerate() {
        // Link endpoints are planned by construction; a missing plan means
        // an inconsistent fleet, and a link we cannot price is a link we
        // must not consider for sleeping — skip it.
        let Some(plan_a) = fleet.routers[a.router]
            .plan
            .iter()
            .find(|p| p.index == a.iface)
        else {
            continue;
        };
        let Some(plan_b) = fleet.routers[b.router]
            .plan
            .iter()
            .find(|p| p.index == b.iface)
        else {
            continue;
        };
        out.push(LinkObservation {
            link_id,
            routers: (a.router, b.router),
            capacity: plan_a.class.speed.rate(),
            traffic: plan_a.pattern.rate(now, plan_a.class.speed.rate()),
            class_a: plan_a.class,
            class_b: plan_b.class,
        });
    }
    out
}

/// One Hypnos decision round over arbitrary observations.
///
/// Greedy, lowest-utilisation first: a link sleeps if (i) its utilisation
/// is below the threshold, (ii) the topology stays connected, and
/// (iii) every router keeps `headroom ×` its internal traffic in up-link
/// capacity. Greedy-with-safety matches the published algorithm's spirit;
/// optimality is explicitly not the point (§8 evaluates savings, not
/// routing optimality).
pub fn decide(observations: &[LinkObservation], config: &HypnosConfig) -> HypnosOutcome {
    let mut topology = Topology::new(
        observations
            .iter()
            .map(|o| (o.link_id, o.routers.0, o.routers.1)),
    );

    // Per-router internal traffic and up-capacity, indexed by each
    // router's rank among the sorted router ids (FJ07): accumulation
    // order over observations is fixed, and lookups below never depend
    // on iteration order at all.
    let mut routers: Vec<usize> = observations
        .iter()
        .flat_map(|o| [o.routers.0, o.routers.1])
        .collect();
    routers.sort_unstable();
    routers.dedup();
    let rank = |r: usize| routers.partition_point(|&x| x < r);
    let ends: Vec<[usize; 2]> = observations
        .iter()
        .map(|o| [rank(o.routers.0), rank(o.routers.1)])
        .collect();
    let mut router_traffic = vec![0.0; routers.len()];
    let mut router_capacity = vec![0.0; routers.len()];
    for (o, ends) in observations.iter().zip(&ends) {
        for &r in ends {
            router_traffic[r] += o.traffic.as_f64();
            router_capacity[r] += o.capacity.as_f64();
        }
    }

    let utilization: Vec<f64> = observations
        .iter()
        .map(LinkObservation::utilization)
        .collect();
    let mut order: Vec<usize> = (0..observations.len()).collect();
    order.sort_by(|&x, &y| utilization[x].total_cmp(&utilization[y]));

    let mut slept = Vec::new();
    for i in order {
        let o = &observations[i];
        if utilization[i] > config.max_sleep_utilization {
            continue;
        }
        // Capacity headroom at both endpoints after sleeping (both ends of
        // a self-loop sit on one router); checked before connectivity
        // because it is the cheaper of the two.
        let [a, b] = ends[i];
        let left_a = router_capacity[a] - o.capacity.as_f64();
        let left_b = if a == b { left_a } else { router_capacity[b] } - o.capacity.as_f64();
        let ok = left_a >= config.headroom * router_traffic[a]
            && left_b >= config.headroom * router_traffic[b];
        if !ok || !topology.safe_to_sleep(o.link_id) {
            continue;
        }
        topology.sleep(o.link_id);
        router_capacity[a] = left_a;
        router_capacity[b] = left_b;
        slept.push(o.link_id);
    }

    HypnosOutcome {
        considered: observations.to_vec(),
        slept,
    }
}

/// Runs one decision round on a fleet and actuates it (admin-down on both
/// ends of each slept link; transceivers stay plugged, §7).
pub fn run_on_fleet(fleet: &mut Fleet, config: &HypnosConfig) -> HypnosOutcome {
    let outcome = decide(&observe_links(fleet), config);
    for &link_id in &outcome.slept {
        fleet
            .set_link_enabled(link_id, false)
            // fj-lint: allow(FJ02) — the ids came out of observe_links on
            // this same fleet two lines up; failure here is a programming
            // error, and silently not actuating a "slept" link would skew
            // every savings number downstream.
            .expect("link ids come from the fleet");
    }
    outcome
}

/// Convenience constructor for tests and synthetic studies.
pub fn observation(
    link_id: usize,
    routers: (usize, usize),
    capacity_gbps: f64,
    traffic_gbps: f64,
) -> LinkObservation {
    let class = InterfaceClass::new(PortType::Qsfp28, TransceiverType::PassiveDac, Speed::G100);
    LinkObservation {
        link_id,
        routers,
        capacity: DataRate::from_gbps(capacity_gbps),
        traffic: DataRate::from_gbps(traffic_gbps),
        class_a: class,
        class_b: class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_redundant_idle_links() {
        // Triangle with one barely-used link: it sleeps.
        let obs = vec![
            observation(0, (1, 2), 100.0, 10.0),
            observation(1, (2, 3), 100.0, 10.0),
            observation(2, (3, 1), 100.0, 0.1),
        ];
        let out = decide(&obs, &HypnosConfig::default());
        assert_eq!(out.slept, vec![2]);
        assert!((out.sleep_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn never_partitions() {
        // A path cannot lose any link.
        let obs = vec![
            observation(0, (1, 2), 100.0, 0.0),
            observation(1, (2, 3), 100.0, 0.0),
        ];
        let out = decide(&obs, &HypnosConfig::default());
        assert!(out.slept.is_empty());
    }

    #[test]
    fn respects_utilization_threshold() {
        let obs = vec![
            observation(0, (1, 2), 100.0, 50.0), // 50 % — too hot
            observation(1, (1, 2), 100.0, 50.0),
        ];
        let out = decide(&obs, &HypnosConfig::default());
        assert!(out.slept.is_empty());
    }

    #[test]
    fn respects_capacity_headroom() {
        // Two parallel links, 100G each, 30G traffic each: per-router
        // traffic is 60G, so after sleeping one, 100G < 2 × 60G → the
        // headroom rule keeps both awake (utilisation is fine at 30 %…
        // no: 30 % exceeds the 20 % sleep threshold too, so lower it).
        let obs = vec![
            observation(0, (1, 2), 100.0, 8.0),
            observation(1, (1, 2), 100.0, 48.0),
        ];
        // Link 0 is cold (8 %) but sleeping it leaves 100G of capacity
        // against 2 × 56G = 112G of protected demand → blocked.
        let out = decide(&obs, &HypnosConfig::default());
        assert!(out.slept.is_empty(), "headroom should block: {out:?}");

        // With negligible traffic one of them sleeps.
        let obs = vec![
            observation(0, (1, 2), 100.0, 0.5),
            observation(1, (1, 2), 100.0, 0.5),
        ];
        let out = decide(&obs, &HypnosConfig::default());
        assert_eq!(out.slept.len(), 1);
    }

    #[test]
    fn fleet_actuation_takes_interfaces_down_not_out() {
        use fj_isp::{build_fleet, FleetConfig};
        let mut fleet = build_fleet(&FleetConfig::small(2));
        let out = run_on_fleet(&mut fleet, &HypnosConfig::default());
        for &link_id in &out.slept {
            let (a, b) = fleet.links[link_id];
            for side in [a, b] {
                let st = fleet.routers[side.router]
                    .sim
                    .interface(side.iface)
                    .unwrap();
                assert!(!st.admin_up, "slept link is admin-down");
                assert!(st.transceiver.is_some(), "module remains plugged");
            }
        }
    }

    #[test]
    fn sleep_fraction_on_real_fleet_is_meaningful() {
        use fj_isp::{build_fleet, FleetConfig};
        let mut fleet = build_fleet(&FleetConfig::switch_like(7));
        // Decide mid-night when utilisation is lowest.
        fleet.advance(fj_units::SimDuration::from_hours(3)).unwrap();
        let out = decide(&observe_links(&fleet), &HypnosConfig::default());
        let f = out.sleep_fraction();
        // The Hypnos paper sleeps around a third of links on the Switch
        // topology; our synthetic mesh is somewhat more redundant, so the
        // fraction runs higher. What must hold: a substantial minority-to-
        // majority of links sleeps, and far from all of them.
        assert!((0.2..0.8).contains(&f), "sleep fraction {f}");
    }
}
