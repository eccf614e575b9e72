//! The §6.2 model predictor: power predictions from inventory + counters.
//!
//! The paper combines lab-derived power models with two deployment inputs:
//! the module inventory (which transceiver sits where) and the SNMP
//! traffic counters. Interface activity is inferred *from the counters* —
//! "we use the presence of traffic counters for a given interface as
//! signaling that the interface is active". The negative direction of
//! that inference is wrong (an interface can draw power while reporting
//! no traffic), which is exactly what the Oct 22–25 flap exposes; this
//! predictor reproduces the flawed inference faithfully.

use std::collections::BTreeMap;

use fj_core::{InterfaceConfig, InterfaceLoad, ModelRegistry};
use fj_units::{DataRate, PacketRate, SimDuration, Watts};

use crate::fleet::{Fleet, FleetRouter};

/// Per-interface counter snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    octets: u64,
    packets: u64,
}

/// Interface `iface`'s entry in one router's counter memory, growing the
/// memory to reach it.
fn slot(ifaces: &mut Vec<Option<Counters>>, iface: usize) -> &mut Option<Counters> {
    if ifaces.len() <= iface {
        ifaces.resize(iface + 1, None);
    }
    &mut ifaces[iface]
}

/// Stateful predictor: remembers the previous poll's counters.
pub struct ModelPredictor {
    registry: ModelRegistry,
    /// Per fleet index, the counters last seen on each interface, indexed
    /// by interface (`None` until first polled): one map probe per call.
    last: BTreeMap<usize, Vec<Option<Counters>>>,
}

impl ModelPredictor {
    /// Creates a predictor using the given model registry (typically the
    /// lab-derived models — in this workspace, the truth registry, since
    /// NetPowerBench demonstrably recovers it).
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            registry,
            last: BTreeMap::new(),
        }
    }

    /// Predicts one router's power for the interval since the previous
    /// poll. The first call (no history) primes counters and treats all
    /// inventory interfaces as idle-but-present.
    ///
    /// The priced interfaces stream straight into the model, so a call
    /// allocates nothing once the counter memory holds the router. Every
    /// planned interface's counters are stored even when pricing fails
    /// part-way; a plan entry with no interface behind it stops the
    /// stream there and yields `None`.
    pub fn predict_router(
        &mut self,
        fleet_index: usize,
        router: &FleetRouter,
        dt: SimDuration,
    ) -> Option<Watts> {
        let model = self.registry.get(&router.sim.spec().model)?;
        let last = self.last.entry(fleet_index).or_default();
        let secs = dt.as_secs_f64().max(1.0);
        let mut missing = false;
        let mut priced = router
            .plan
            .iter()
            .map_while(|p| {
                let Ok(st) = router.sim.interface(p.index) else {
                    missing = true;
                    return None;
                };
                let now = Counters {
                    octets: st.octets,
                    packets: st.packets,
                };
                // Bounded: `interface` found this index on the router.
                let prev = slot(last, p.index).replace(now).unwrap_or(now);
                let d_octets = now.octets.saturating_sub(prev.octets);
                let d_packets = now.packets.saturating_sub(prev.packets);
                // No traffic ⇒ the paper's pipeline treats the interface
                // as inactive and prices nothing for it — even though a
                // module may still sit in the cage drawing P_trx,in.
                Some((d_octets != 0).then(|| {
                    let load = InterfaceLoad {
                        bit_rate: DataRate::new(d_octets as f64 * 8.0 / secs),
                        pkt_rate: PacketRate::new(d_packets as f64 / secs),
                    };
                    (InterfaceConfig::up(p.class), load)
                }))
            })
            .flatten();
        let total = model.predict_total(priced.by_ref());
        // Pricing stops at an unknown class; the rest still record.
        priced.for_each(drop);
        if missing {
            return None;
        }
        total.ok()
    }

    /// Captures the counter memory as sorted, serializable entries
    /// (`(fleet_index, iface_index, octets, packets)`), for checkpoints.
    /// The map is ordered by fleet index and each vector by interface,
    /// so the snapshot is a pure function of predictor state with no
    /// explicit sort.
    pub fn counters_snapshot(&self) -> Vec<(usize, usize, u64, u64)> {
        self.last
            .iter()
            .flat_map(|(&fleet, ifaces)| {
                ifaces
                    .iter()
                    .enumerate()
                    .filter_map(move |(iface, c)| c.map(|c| (fleet, iface, c.octets, c.packets)))
            })
            .collect()
    }

    /// Replaces the counter memory from a snapshot. Memory grows to the
    /// largest interface index named, so entries should come from
    /// [`ModelPredictor::counters_snapshot`] (checkpoint loads check
    /// each index against its router).
    pub fn restore_counters(&mut self, entries: &[(usize, usize, u64, u64)]) {
        self.last.clear();
        for &(fleet, iface, octets, packets) in entries {
            *slot(self.last.entry(fleet).or_default(), iface) = Some(Counters { octets, packets });
        }
    }

    /// Predicts the whole fleet's power (sum over predictable routers).
    pub fn predict_fleet(&mut self, fleet: &Fleet, dt: SimDuration) -> Watts {
        let mut total = Watts::ZERO;
        for (i, r) in fleet.routers.iter().enumerate() {
            if let Some(p) = self.predict_router(i, r, dt) {
                total += p;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;
    use fj_router_sim::spec::truth_registry;

    #[test]
    fn prediction_tracks_wall_power_with_offset() {
        let mut fleet = build_fleet(&FleetConfig::small(5));
        let mut predictor = ModelPredictor::new(truth_registry());
        let dt = SimDuration::from_mins(5);

        // Prime counters, then advance and predict.
        for (i, r) in fleet.routers.iter().enumerate() {
            let _ = predictor.predict_router(i, r, dt);
        }
        fleet.advance(dt).unwrap();

        let mut predicted = 0.0;
        let mut wall = 0.0;
        for (i, r) in fleet.routers.iter().enumerate() {
            if let Some(p) = predictor.predict_router(i, r, dt) {
                predicted += p.as_f64();
                wall += r.sim.wall_power().as_f64();
            }
        }
        // The model is precise but offset low: spares and PSU unit
        // deviations push the wall above the prediction (§6.2).
        assert!(predicted > 0.0);
        let offset = wall - predicted;
        let per_router = offset / fleet.routers.len() as f64;
        assert!(
            (0.0..30.0).contains(&per_router),
            "offset per router {per_router} W (wall {wall}, predicted {predicted})"
        );
    }

    #[test]
    fn idle_interfaces_are_ignored_by_design() {
        let mut fleet = build_fleet(&FleetConfig::small(5));
        let mut predictor = ModelPredictor::new(truth_registry());
        let dt = SimDuration::from_mins(5);
        // Without advancing, deltas are zero: prediction collapses to the
        // base power only.
        for (i, r) in fleet.routers.iter().enumerate() {
            let _ = predictor.predict_router(i, r, dt);
        }
        let r = &fleet.routers[0];
        let p = predictor.predict_router(0, r, dt).unwrap();
        assert_eq!(p, r.sim.spec().truth.p_base);
        fleet.advance(dt).unwrap();
        let r = &fleet.routers[0];
        let p2 = predictor.predict_router(0, r, dt).unwrap();
        assert!(p2 > p, "with traffic, interfaces get priced");
    }
}
