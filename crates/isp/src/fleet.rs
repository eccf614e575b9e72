//! The fleet data model.

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceClass, InterfaceLoad};
use fj_router_sim::{SimError, SimulatedRouter};
use fj_traffic::{LoadPattern, PacketProfile};
use fj_units::{DataRate, SimDuration, SimInstant};

/// One endpoint of an internal link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSide {
    /// Index into [`Fleet::routers`].
    pub router: usize,
    /// Interface index on that router.
    pub iface: usize,
}

/// The deployment plan of one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedInterface {
    /// Port index on the router.
    pub index: usize,
    /// Port/transceiver/speed combination (the inventory entry).
    pub class: InterfaceClass,
    /// Faces another network (true) or another Switch router (false).
    pub external: bool,
    /// For internal interfaces: which [`Fleet::links`] entry this is an
    /// endpoint of.
    pub link_id: Option<usize>,
    /// Traffic pattern (idle for spares).
    pub pattern: LoadPattern,
    /// A spare module: plugged into a shut port, drawing `P_trx,in` —
    /// the §6.2 explanation for part of the model offset.
    pub spare: bool,
}

/// One deployed router: the simulator plus its deployment plan.
///
/// Serializable as a whole — the checkpointed streaming engine persists
/// each router's full state (sim clock, counters, PSU inventory, *and*
/// the plan, which scheduled events mutate mid-run) at chunk boundaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetRouter {
    /// Anonymised name encoding only the PoP relation (§11), e.g.
    /// `"pop07-r2"`.
    pub name: String,
    /// PoP index.
    pub pop: usize,
    /// The live device.
    pub sim: SimulatedRouter,
    /// Deployment plan, one entry per *populated* interface.
    pub plan: Vec<PlannedInterface>,
}

impl FleetRouter {
    /// Active (non-spare) planned interfaces.
    pub fn active_interfaces(&self) -> impl Iterator<Item = &PlannedInterface> {
        self.plan.iter().filter(|p| !p.spare)
    }

    /// Advances this router alone by `dt`: refreshes every active
    /// interface's offered load from its pattern at `now`, then ticks the
    /// simulator. The per-router unit of [`Fleet::advance`] — routers
    /// share no simulation state, so shards step them independently and
    /// the result is identical for any shard count.
    pub fn step(
        &mut self,
        now: SimInstant,
        packets: &PacketProfile,
        dt: SimDuration,
    ) -> Result<(), SimError> {
        for p in &self.plan {
            if p.spare {
                continue;
            }
            let rate = p.pattern.rate(now, p.class.speed.rate());
            let load = InterfaceLoad {
                bit_rate: rate,
                pkt_rate: packets.packet_rate(rate),
            };
            self.sim.set_load(p.index, load)?;
        }
        self.sim.tick(dt);
        Ok(())
    }

    /// Total capacity over active interfaces.
    pub fn capacity(&self) -> DataRate {
        DataRate::new(
            self.active_interfaces()
                .map(|p| p.class.speed.rate().as_f64())
                .sum(),
        )
    }
}

/// The whole deployed network.
pub struct Fleet {
    /// All routers.
    pub routers: Vec<FleetRouter>,
    /// Internal links (both endpoints inside the network).
    pub links: Vec<(LinkSide, LinkSide)>,
    /// Packet profile of carried traffic.
    pub packets: PacketProfile,
    /// The executor [`Fleet::advance_with_shards`] steps routers on, with
    /// the worker count it was built for. Threads are not simulation
    /// state: a clone starts without one, and `Debug` leaves it out.
    pub(crate) pool: Option<(usize, fj_par::WorkerPool)>,
}

impl Clone for Fleet {
    fn clone(&self) -> Self {
        Fleet {
            routers: self.routers.clone(),
            links: self.links.clone(),
            packets: self.packets.clone(),
            pool: None,
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("routers", &self.routers)
            .field("links", &self.links)
            .field("packets", &self.packets)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Current simulated time (all routers march in lockstep).
    pub fn now(&self) -> SimInstant {
        self.routers
            .first()
            .map_or(SimInstant::EPOCH, |r| r.sim.now())
    }

    /// Advances the fleet by `dt`: refreshes every active interface's
    /// offered load from its pattern at the *current* instant, then ticks
    /// every router. Routers are stepped shard-parallel with the default
    /// shard count ([`fj_par::shard_count`]); ticking is per-router pure,
    /// so the fleet state afterwards is identical for any shard count.
    pub fn advance(&mut self, dt: SimDuration) -> Result<(), SimError> {
        self.advance_with_shards(dt, fj_par::shard_count())
    }

    /// [`Fleet::advance`] with an explicit shard count. The routers move
    /// by value through the fleet's [`fj_par::WorkerPool`] and are back in
    /// place before the first error in fleet order is returned or a
    /// router-step panic is re-raised. The pool is built on the first call
    /// for a worker count ([`fj_par::clamp_shards`]`(shards)`; one worker
    /// spawns no thread and steps inline), reused by later calls at that
    /// count, replaced by a call at another, and joined when the fleet
    /// drops. Results are bit-identical whatever `shards` is.
    pub fn advance_with_shards(&mut self, dt: SimDuration, shards: usize) -> Result<(), SimError> {
        let now = self.now();
        let packets = self.packets.clone();
        let workers = fj_par::clamp_shards(shards);
        let pool = match &mut self.pool {
            Some((built, pool)) if *built == workers => pool,
            slot => {
                *slot = None; // join the old workers before spawning more
                &slot.insert((workers, fj_par::WorkerPool::new(workers))).1
            }
        };
        let routers = std::mem::take(&mut self.routers);
        let step = move |_: usize, router: &mut FleetRouter| router.step(now, &packets, dt);
        let done = pool.submit(routers, shards, || 0, step).wait();
        self.routers = done.items;
        done.result
            .unwrap_or_else(|p| p.resume())
            .into_iter()
            .collect()
    }

    /// Total wall power right now — what the sum of external meters on
    /// every PSU would read.
    pub fn total_wall_power_w(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.sim.wall_power().as_f64())
            .sum()
    }

    /// Total traffic volume right now, counting each internal link once
    /// and each external interface once (the Fig. 1 numerator).
    pub fn total_traffic(&self) -> DataRate {
        let now = self.now();
        let mut total = 0.0;
        for router in &self.routers {
            for p in router.active_interfaces() {
                let r = p.pattern.rate(now, p.class.speed.rate()).as_f64();
                if p.external {
                    total += r;
                } else {
                    total += r / 2.0; // internal links appear at both ends
                }
            }
        }
        DataRate::new(total)
    }

    /// Total capacity with the same counting convention.
    pub fn total_capacity(&self) -> DataRate {
        let mut total = 0.0;
        for router in &self.routers {
            for p in router.active_interfaces() {
                let c = p.class.speed.rate().as_f64();
                total += if p.external { c } else { c / 2.0 };
            }
        }
        DataRate::new(total)
    }

    /// Administratively disables or re-enables both ends of an internal
    /// link (the Hypnos actuation, §8). Transceivers stay plugged —
    /// "down" does not mean "off" (§7).
    pub fn set_link_enabled(&mut self, link_id: usize, enabled: bool) -> Result<(), SimError> {
        let (a, b) = self.links[link_id];
        self.routers[a.router].sim.set_admin(a.iface, enabled)?;
        self.routers[b.router].sim.set_admin(b.iface, enabled)?;
        Ok(())
    }

    /// Looks up a router by name.
    pub fn router_by_name(&self, name: &str) -> Option<&FleetRouter> {
        self.routers.iter().find(|r| r.name == name)
    }

    /// Index of the first router of the given hardware model, if any.
    pub fn find_model(&self, model: &str) -> Option<usize> {
        self.routers
            .iter()
            .position(|r| r.sim.spec().model == model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sharded engine hands routers to pool worker threads; this
    /// stops compiling if any simulator component regresses to a
    /// non-`Send`/`Sync` type (`Rc`, raw pointers, thread-bound handles).
    #[test]
    fn fleet_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlannedInterface>();
        assert_send_sync::<FleetRouter>();
        assert_send_sync::<Fleet>();
    }

    /// The fleet's pool as the worker count it was built for and its
    /// threads, one probe shard per worker (the calling thread for an
    /// inline pool). Thread ids are never reused, so a rebuilt pool shows
    /// up as new ids even where it lands at the old one's address.
    fn pool_threads(fleet: &Fleet) -> (usize, Vec<std::thread::ThreadId>) {
        let (built, pool) = fleet.pool.as_ref().expect("an advance built the pool");
        let lanes = pool.workers().max(1);
        let probe = |_: usize, _: &mut ()| std::thread::current().id();
        let done = pool.submit(vec![(); lanes], lanes, || 0, probe).wait();
        (*built, done.result.expect("the probe ran"))
    }

    /// Every router of `fleet` in `reference`'s place and state: clock,
    /// every interface's counters and loads, and wall power to the bit.
    fn assert_routers_match(fleet: &Fleet, reference: &Fleet, context: &str) {
        assert_eq!(fleet.routers.len(), reference.routers.len(), "{context}");
        for (r, want) in fleet.routers.iter().zip(&reference.routers) {
            assert_eq!(r.name, want.name, "{context}");
            assert_eq!(r.sim.now(), want.sim.now(), "{context}: {}", r.name);
            for i in 0..want.sim.interface_count() {
                assert_eq!(
                    r.sim.interface(i).ok(),
                    want.sim.interface(i).ok(),
                    "{context}: {} interface {i}",
                    r.name
                );
            }
            assert_eq!(
                r.sim.wall_power().as_f64().to_bits(),
                want.sim.wall_power().as_f64().to_bits(),
                "{context}: {}",
                r.name
            );
        }
    }

    /// One fleet stepped hourly at changing shard counts matches a fleet
    /// stepped at one shard after every step; a call at the worker count
    /// the pool was built for reuses its threads, a call at another count
    /// replaces them, and a failing step returns every router to its
    /// place and leaves the pool serving the next call.
    #[test]
    fn advance_keeps_its_pool_per_worker_count_and_results_per_shard_count() {
        let mut fleet = crate::build_fleet(&crate::FleetConfig::small(2));
        let mut reference = fleet.clone();
        assert!(fleet.pool.is_none() && reference.pool.is_none());
        let hour = SimDuration::from_hours(1);
        let mut last: Option<(usize, Vec<std::thread::ThreadId>)> = None;
        for shards in [2, 2, 1, 4, 1024, 2] {
            let context = format!("after a step at {shards} shards");
            fleet
                .advance_with_shards(hour, shards)
                .expect("fleet advances");
            reference
                .advance_with_shards(hour, 1)
                .expect("reference advances");
            assert_routers_match(&fleet, &reference, &context);
            let now = pool_threads(&fleet);
            assert_eq!(now.0, fj_par::clamp_shards(shards), "{context}");
            if let Some((built, threads)) = &last {
                if *built == now.0 {
                    assert_eq!(threads, &now.1, "{context}: the pool was rebuilt");
                } else {
                    assert!(
                        threads.iter().all(|t| !now.1.contains(t)),
                        "{context}: the pool was not replaced"
                    );
                }
            }
            last = Some(now);
        }
        assert!(fleet.clone().pool.is_none(), "a clone spawns nothing");

        let victim = fleet.routers.len() - 1;
        let planned = fleet.routers[victim]
            .plan
            .iter()
            .position(|p| !p.spare)
            .expect("the router carries traffic");
        let index = std::mem::replace(&mut fleet.routers[victim].plan[planned].index, usize::MAX);
        let names: Vec<String> = fleet.routers.iter().map(|r| r.name.clone()).collect();
        let clock = fleet.routers[victim].sim.now();
        let err = fleet
            .advance_with_shards(hour, 2)
            .expect_err("an unknown interface fails the step");
        assert!(
            matches!(err, SimError::NoSuchInterface(usize::MAX)),
            "{err:?}"
        );
        let back: Vec<String> = fleet.routers.iter().map(|r| r.name.clone()).collect();
        assert_eq!(back, names, "every router is back in its place");
        assert_eq!(
            fleet.routers[victim].sim.now(),
            clock,
            "the failed router did not tick"
        );
        assert_eq!(
            Some(pool_threads(&fleet)),
            last,
            "the failure kept the pool"
        );

        fleet.routers[victim].plan[planned].index = index;
        fleet
            .advance_with_shards(hour, 2)
            .expect("the pool serves the next call");
        assert_eq!(Some(pool_threads(&fleet)), last);
    }
}
