//! Fleet construction: hardware placement, cabling, traffic assignment.

// fj-lint: allow-file(FJ02) — synthetic-fleet builder over compiled-in
// router specs: every `expect` documents a by-construction invariant
// (planned interfaces exist, picked classes are pluggable on the chosen
// port). An inconsistency is a bug in this module; a half-built fleet
// would silently skew every downstream study, so fail loudly instead.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use fj_core::{InterfaceClass, Speed, TransceiverType};
use fj_router_sim::{RouterSpec, SimulatedRouter};
use fj_traffic::{LoadPattern, PacketProfile};

use crate::config::FleetConfig;
use crate::fleet::{Fleet, FleetRouter, LinkSide, PlannedInterface};

/// How many interfaces a router of `port_count` ports activates: roughly
/// a third to a half, which lands the Switch-like fleet at ≈13 active
/// interfaces per router.
fn active_count(rng: &mut StdRng, port_count: usize) -> usize {
    let lo = (port_count as f64 * 0.30).round() as usize;
    let hi = (port_count as f64 * 0.50).round() as usize;
    rng.random_range(lo..=hi.max(lo + 1)).min(port_count)
}

/// Candidate interface classes for a port, split by deployment role.
/// External links ride optics; internal links mostly ride passive copper.
fn pick_class(
    rng: &mut StdRng,
    spec: &RouterSpec,
    port_idx: usize,
    external: bool,
) -> Option<InterfaceClass> {
    let port = spec.ports[port_idx].port;
    let candidates: Vec<InterfaceClass> = spec
        .truth
        .classes()
        .iter()
        .map(|cp| cp.class)
        .filter(|c| c.port == port && spec.ports[port_idx].speeds.contains(&c.speed))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let optical: Vec<_> = candidates
        .iter()
        .copied()
        .filter(|c| c.transceiver.is_optical())
        .collect();
    let copper: Vec<_> = candidates
        .iter()
        .copied()
        .filter(|c| !c.transceiver.is_optical())
        .collect();
    let pool = if external {
        if optical.is_empty() {
            &copper
        } else {
            &optical
        }
    } else {
        // Internal: copper where possible, some optics for long spans.
        if !copper.is_empty() && rng.random_bool(0.75) {
            &copper
        } else if !optical.is_empty() {
            &optical
        } else {
            &copper
        }
    };
    if pool.is_empty() {
        return None;
    }
    // Prefer the fastest class most of the time.
    let mut sorted = pool.clone();
    sorted.sort_by_key(|c| c.speed);
    let pick = if sorted.len() > 1 && rng.random_bool(0.25) {
        sorted[rng.random_range(0..sorted.len() - 1)]
    } else {
        *sorted.last().expect("pool non-empty")
    };
    Some(pick)
}

/// Whether a model plays the aggregation/core role (many internal links)
/// or the access role (a couple of uplinks, mostly customer-facing ports).
fn is_core(model: &str) -> bool {
    matches!(
        model,
        "NCS-55A1-24H"
            | "NCS-55A1-24Q6H-SS"
            | "NCS-55A1-48Q6H"
            | "Nexus9336-FX2"
            | "ASR-9001"
            | "8201-32FH"
            | "8201-24H8FH"
    )
}

/// A traffic pattern for one link/interface.
fn make_pattern(rng: &mut StdRng, cfg: &FleetConfig) -> LoadPattern {
    let mut p = LoadPattern::isp_default(rng.random());
    // Per-link utilisation spreads log-uniformly around the target.
    let factor = (2.0f64).powf(rng.random_range(-1.5..1.5));
    p.mean_utilization = (cfg.mean_utilization * factor).min(0.3);
    p
}

/// Builds the deployed fleet described by `cfg`.
///
/// Internal links are cabled between routers of neighbouring PoPs (a ring
/// of PoPs with chords), pairing interfaces of identical speed. Interfaces
/// that cannot be paired become externals, so the realised external
/// fraction may drift a little above the configured target.
pub fn build_fleet(cfg: &FleetConfig) -> Fleet {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut routers = Vec::with_capacity(cfg.router_count());

    // Instantiate routers round-robin over PoPs.
    let mut pop_counter = vec![0usize; cfg.pops.max(1)];
    for (model, count) in &cfg.model_mix {
        for unit in 0..*count {
            let spec = RouterSpec::builtin(model)
                .unwrap_or_else(|e| panic!("fleet config references {model}: {e}"));
            let pop = (routers.len() + unit) % cfg.pops.max(1);
            let name = format!("pop{:02}-r{}", pop, pop_counter[pop]);
            pop_counter[pop] += 1;
            let mut sim = SimulatedRouter::new(spec, rng.random());
            // Deployment environment: a few percent of the router's draw
            // that the lab-derived model cannot see — warmer air, higher
            // fan duty, busier control plane (§4.3; the Fig. 4 offsets).
            let env_fraction = rng.random_range(0.01..0.045);
            let env = sim.nominal_power() * env_fraction;
            sim.add_unmodeled_draw(env);
            routers.push(FleetRouter {
                name,
                pop,
                sim,
                plan: Vec::new(),
            });
        }
    }

    // Plan interfaces per router; collect internal candidates by speed.
    let mut internal_pool: Vec<(Speed, LinkSide)> = Vec::new();
    for (r_idx, router) in routers.iter_mut().enumerate() {
        let spec = Arc::clone(router.sim.spec());
        let n_active = active_count(&mut rng, spec.port_count());
        let core = is_core(&spec.model);
        // Access routers get two or three internal uplinks and otherwise
        // face customers; core routers split roughly half-half. This
        // hierarchy is what keeps the realised external fraction near the
        // configured target *and* the internal topology realistically
        // sparse at the edge.
        let access_uplinks = rng.random_range(3..=5usize);
        for port_idx in 0..n_active {
            let external = if core {
                // Core boxes leave a bit more than half their active
                // ports on the internal mesh.
                rng.random_bool(0.42)
            } else {
                port_idx >= access_uplinks
            };
            let Some(class) = pick_class(&mut rng, &spec, port_idx, external) else {
                continue;
            };
            router
                .sim
                .plug(port_idx, class.transceiver, class.speed)
                .expect("picked class is pluggable");
            router.plan.push(PlannedInterface {
                index: port_idx,
                class,
                external,
                link_id: None,
                pattern: LoadPattern::idle(), // assigned below
                spare: false,
            });
            if !external {
                internal_pool.push((
                    class.speed,
                    LinkSide {
                        router: r_idx,
                        iface: port_idx,
                    },
                ));
            }
        }

        // A few spare optics left plugged into shut ports (§6.2).
        if rng.random_bool(0.25) && n_active < spec.port_count() {
            let port_idx = n_active;
            if let Some(class) = pick_class(&mut rng, &spec, port_idx, true) {
                if class.transceiver != TransceiverType::T {
                    router
                        .sim
                        .plug(port_idx, class.transceiver, class.speed)
                        .expect("picked class is pluggable");
                    router.plan.push(PlannedInterface {
                        index: port_idx,
                        class,
                        external: false,
                        link_id: None,
                        pattern: LoadPattern::idle(),
                        spare: true,
                    });
                }
            }
        }
    }

    // Pair internal candidates of equal speed across different routers.
    let mut links: Vec<(LinkSide, LinkSide)> = Vec::new();
    let mut by_speed: std::collections::BTreeMap<Speed, Vec<LinkSide>> = Default::default();
    for (speed, side) in internal_pool {
        by_speed.entry(speed).or_default().push(side);
    }
    let mut unpaired: Vec<LinkSide> = Vec::new();
    for (_, mut sides) in by_speed {
        // Shuffle so pairs spread across router pairs instead of forming
        // bundles of parallel links (which would make the topology
        // unrealistically redundant and easy to put to sleep).
        use rand::seq::SliceRandom;
        sides.shuffle(&mut rng);
        while sides.len() >= 2 {
            let a = sides.remove(0);
            // Find a partner on a different router.
            let partner = sides.iter().position(|s| s.router != a.router);
            match partner {
                Some(idx) => {
                    let b = sides.remove(idx);
                    links.push((a, b));
                }
                None => {
                    unpaired.push(a);
                    break;
                }
            }
        }
        unpaired.extend(sides);
    }

    // Wire up the simulators: link metadata, shared traffic patterns.
    for (link_id, (a, b)) in links.iter().enumerate() {
        let pattern = make_pattern(&mut rng, cfg);
        for side in [a, b] {
            let router = &mut routers[side.router];
            router
                .sim
                .set_external_peer(side.iface, true)
                .expect("planned interface exists");
            router.sim.set_admin(side.iface, true).expect("exists");
            let plan = router
                .plan
                .iter_mut()
                .find(|p| p.index == side.iface)
                .expect("planned");
            plan.link_id = Some(link_id);
            plan.pattern = pattern.clone();
        }
    }

    // Leftover internals become externals.
    for side in unpaired {
        let plan = routers[side.router]
            .plan
            .iter_mut()
            .find(|p| p.index == side.iface)
            .expect("planned");
        plan.external = true;
    }

    // Externals: bring up with their own patterns.
    for router in &mut routers {
        // Split borrows: collect indices first.
        let external_ifaces: Vec<usize> = router
            .plan
            .iter()
            .filter(|p| p.external && !p.spare)
            .map(|p| p.index)
            .collect();
        for iface in external_ifaces {
            router.sim.set_external_peer(iface, true).expect("exists");
            router.sim.set_admin(iface, true).expect("exists");
            let pattern = make_pattern(&mut rng, cfg);
            let plan = router
                .plan
                .iter_mut()
                .find(|p| p.index == iface)
                .expect("planned");
            plan.pattern = pattern;
        }
    }

    Fleet {
        routers,
        links,
        packets: PacketProfile::imix(),
        pool: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Fleet {
        build_fleet(&FleetConfig::switch_like(7))
    }

    #[test]
    fn fleet_has_107_routers_across_pops() {
        let f = fleet();
        assert_eq!(f.routers.len(), 107);
        let pops: std::collections::BTreeSet<usize> = f.routers.iter().map(|r| r.pop).collect();
        assert_eq!(pops.len(), 25);
    }

    #[test]
    fn names_are_anonymised_by_pop() {
        let f = fleet();
        for r in &f.routers {
            assert!(
                r.name.starts_with(&format!("pop{:02}-r", r.pop)),
                "{} vs pop {}",
                r.name,
                r.pop
            );
        }
        // Names are unique.
        let names: std::collections::BTreeSet<&str> =
            f.routers.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), f.routers.len());
    }

    #[test]
    fn total_power_matches_switch_scale() {
        // Fig. 1: ≈21.5–22 kW for the whole network.
        let f = fleet();
        let kw = f.total_wall_power_w() / 1e3;
        assert!((19.0..25.0).contains(&kw), "total {kw} kW");
    }

    #[test]
    fn external_fraction_near_target() {
        let f = fleet();
        let (mut ext, mut total) = (0usize, 0usize);
        for r in &f.routers {
            for p in r.active_interfaces() {
                total += 1;
                if p.external {
                    ext += 1;
                }
            }
        }
        let frac = ext as f64 / total as f64;
        assert!((0.45..0.62).contains(&frac), "external fraction {frac}");
    }

    #[test]
    fn internal_links_connect_distinct_routers_same_speed() {
        let f = fleet();
        assert!(!f.links.is_empty());
        for &(a, b) in &f.links {
            assert_ne!(a.router, b.router);
            let ca = f.routers[a.router]
                .plan
                .iter()
                .find(|p| p.index == a.iface)
                .unwrap()
                .class;
            let cb = f.routers[b.router]
                .plan
                .iter()
                .find(|p| p.index == b.iface)
                .unwrap()
                .class;
            assert_eq!(ca.speed, cb.speed);
        }
    }

    #[test]
    fn internal_link_ends_share_pattern() {
        let f = fleet();
        let (a, b) = f.links[0];
        let pa = &f.routers[a.router]
            .plan
            .iter()
            .find(|p| p.index == a.iface)
            .unwrap()
            .pattern;
        let pb = &f.routers[b.router]
            .plan
            .iter()
            .find(|p| p.index == b.iface)
            .unwrap()
            .pattern;
        assert_eq!(pa, pb);
    }

    #[test]
    fn spares_are_plugged_but_down() {
        let f = fleet();
        let mut spares = 0;
        for r in &f.routers {
            for p in r.plan.iter().filter(|p| p.spare) {
                spares += 1;
                let st = r.sim.interface(p.index).unwrap();
                assert!(st.transceiver.is_some());
                assert!(!st.admin_up);
                assert!(!st.oper_up);
            }
        }
        assert!(spares > 5, "some spares exist: {spares}");
    }

    #[test]
    fn active_interfaces_are_up() {
        let f = fleet();
        for r in &f.routers {
            for p in r.active_interfaces() {
                let st = r.sim.interface(p.index).unwrap();
                assert!(st.oper_up, "{} iface {} should be up", r.name, p.index);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_fleet(&FleetConfig::small(3));
        let b = build_fleet(&FleetConfig::small(3));
        assert_eq!(a.total_wall_power_w(), b.total_wall_power_w());
        assert_eq!(a.links.len(), b.links.len());
    }

    #[test]
    fn mean_utilization_near_target() {
        let mut f = build_fleet(&FleetConfig::switch_like(7));
        // Average over a simulated week.
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..(7 * 24) {
            f.advance(fj_units::SimDuration::from_hours(1)).unwrap();
            sum += f.total_traffic().as_f64() / f.total_capacity().as_f64();
            n += 1;
        }
        let mean = sum / n as f64;
        assert!((0.005..0.035).contains(&mean), "mean utilisation {mean}");
    }
}
