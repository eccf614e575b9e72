//! Property-based tests: Hypnos must never partition a topology and its
//! pricing must bracket correctly, for arbitrary random networks; its
//! greedy must pick exactly what a reference implementation of the same
//! greedy picks, and on small graphs it is compared with the optimum.

use std::collections::BTreeMap;

use fj_hypnos::algorithm::{self, LinkObservation};
use fj_hypnos::{graph::Topology, sleeping_savings, HypnosConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random multigraph edges over up to `n` nodes.
fn arb_edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 1..max_edges)
        .prop_map(|pairs| {
            pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .collect::<Vec<_>>()
        })
        .prop_filter("need at least one edge", |v| !v.is_empty())
}

fn observations_from_edges(
    edges: &[(usize, usize)],
    traffic_gbps: &[f64],
) -> Vec<algorithm::LinkObservation> {
    edges
        .iter()
        .enumerate()
        .map(|(id, &(a, b))| {
            let t = traffic_gbps.get(id).copied().unwrap_or(0.0);
            algorithm::observation(id, (a, b), 100.0, t)
        })
        .collect()
}

proptest! {
    /// Whatever Hypnos decides, the component count never grows.
    #[test]
    fn sleeping_never_partitions(
        edges in arb_edges(12, 40),
        traffic in prop::collection::vec(0.0f64..30.0, 40),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let before = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
        let outcome = algorithm::decide(&obs, &HypnosConfig::default());

        let mut after = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
        for &id in &outcome.slept {
            after.sleep(id);
        }
        prop_assert!(
            after.component_count() <= before.component_count(),
            "slept set partitioned the graph"
        );
    }

    /// Slept links always respect the utilisation threshold.
    #[test]
    fn slept_links_are_cold(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..100.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let config = HypnosConfig::default();
        let outcome = algorithm::decide(&obs, &config);
        for o in outcome.slept_observations() {
            prop_assert!(o.utilization() <= config.max_sleep_utilization + 1e-12);
        }
    }

    /// The savings range is well-formed: 0 ≤ low ≤ high, and empty sleep
    /// sets price to zero.
    #[test]
    fn savings_bracket_well_formed(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..30.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let outcome = algorithm::decide(&obs, &HypnosConfig::default());
        let s = sleeping_savings(&outcome);
        prop_assert!(s.low_w >= 0.0);
        prop_assert!(s.high_w >= s.low_w);
        if outcome.slept.is_empty() {
            prop_assert_eq!(s.low_w, 0.0);
            prop_assert_eq!(s.high_w, 0.0);
        } else {
            prop_assert!(s.low_w > 0.0, "sleeping something must save something");
        }
    }

    /// A stricter utilisation threshold never sleeps more links.
    #[test]
    fn stricter_threshold_sleeps_fewer(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..40.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let loose = algorithm::decide(&obs, &HypnosConfig {
            max_sleep_utilization: 0.4,
            ..HypnosConfig::default()
        });
        let strict = algorithm::decide(&obs, &HypnosConfig {
            max_sleep_utilization: 0.05,
            ..HypnosConfig::default()
        });
        prop_assert!(strict.slept.len() <= loose.slept.len());
    }
}

/// The greedy as `decide` implements it, written the plain way: two full
/// component counts around each candidate and ordered-map accumulators.
/// `decide` must return exactly the `slept` this returns.
fn reference_decide(observations: &[LinkObservation], config: &HypnosConfig) -> Vec<usize> {
    let mut topology = Topology::new(
        observations
            .iter()
            .map(|o| (o.link_id, o.routers.0, o.routers.1)),
    );
    let mut router_traffic: BTreeMap<usize, f64> = BTreeMap::new();
    let mut router_capacity: BTreeMap<usize, f64> = BTreeMap::new();
    for o in observations {
        for r in [o.routers.0, o.routers.1] {
            *router_traffic.entry(r).or_default() += o.traffic.as_f64();
            *router_capacity.entry(r).or_default() += o.capacity.as_f64();
        }
    }

    let mut order: Vec<&LinkObservation> = observations.iter().collect();
    order.sort_by(|x, y| x.utilization().total_cmp(&y.utilization()));

    let mut slept = Vec::new();
    for o in order {
        if o.utilization() > config.max_sleep_utilization {
            continue;
        }
        if !topology.is_up(o.link_id) {
            continue;
        }
        let before = topology.component_count();
        topology.sleep(o.link_id);
        let after = topology.component_count();
        topology.wake(o.link_id);
        if after > before {
            continue;
        }
        // The capacity left after the sleep, checked before it commits:
        // both ends of a self-loop come off one router.
        let mut left = router_capacity.clone();
        for r in [o.routers.0, o.routers.1] {
            *left.entry(r).or_default() -= o.capacity.as_f64();
        }
        let ok = [o.routers.0, o.routers.1]
            .iter()
            .all(|r| left[r] >= config.headroom * router_traffic[r]);
        if !ok {
            continue;
        }
        topology.sleep(o.link_id);
        router_capacity = left;
        slept.push(o.link_id);
    }
    slept
}

/// One random link: `(link id, end a, end b, capacity index, utilisation
/// step)`.
type LinkSpec = (usize, usize, usize, usize, usize);

/// Builds observations from link specs. Capacities are 10, 40 or 100
/// Gbps, whole numbers of bit/s, so every capacity sum is exact; the
/// utilisation runs in steps of 2.5 % up to 30 %, so ties are common
/// and some links sit above the 20 % default threshold.
fn network(links: &[LinkSpec]) -> Vec<LinkObservation> {
    links
        .iter()
        .map(|&(id, a, b, cap, step)| {
            let capacity = [10.0, 40.0, 100.0][cap];
            algorithm::observation(id, (a, b), capacity, capacity * 0.025 * step as f64)
        })
        .collect()
}

/// Random multigraphs: link ids drawn from a small range (so some ids
/// repeat), ends drawn inside one of two disjoint islands, self-loops
/// and parallel links allowed.
fn arb_network(max_links: usize) -> impl Strategy<Value = Vec<LinkObservation>> {
    prop::collection::vec(
        (
            0..2 * max_links,
            0usize..2,
            0usize..5,
            0usize..5,
            0usize..3,
            0usize..13,
        ),
        1..max_links,
    )
    .prop_map(|links| {
        let specs: Vec<LinkSpec> = links
            .into_iter()
            .map(|(id, island, a, b, cap, step)| (id, 5 * island + a, 5 * island + b, cap, step))
            .collect();
        network(&specs)
    })
}

fn arb_config() -> impl Strategy<Value = HypnosConfig> {
    (0usize..4, 0usize..3).prop_map(|(h, u)| HypnosConfig {
        headroom: [0.0, 1.0, 2.0, 4.0][h],
        max_sleep_utilization: [0.05, 0.2, 0.3][u],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `decide` sleeps exactly the links the reference greedy sleeps, in
    /// the same order.
    #[test]
    fn decide_matches_reference_greedy(obs in arb_network(40), config in arb_config()) {
        let slept = algorithm::decide(&obs, &config).slept;
        prop_assert_eq!(slept, reference_decide(&obs, &config));
    }

    /// After any sequence of sleeps and wakes, `safe_to_sleep(id)` holds
    /// iff the link is up and sleeping it does not raise the component
    /// count; the query leaves the topology as it found it. Ids repeat
    /// across edges, self-loops and parallel edges occur, and the two
    /// highest ids are on no edge at all. Half the cases are dense graphs
    /// of up to 10 nodes; the other half have up to 60 nodes and 150
    /// edges, where a path query's frontier on a small island runs dry
    /// long before the one on the main component.
    #[test]
    fn safe_to_sleep_iff_components_hold((ids, edges, ops) in arb_sleeping_topology()) {
        let mut topology = Topology::new(edges.iter().copied());
        for &(wake, id) in &ops {
            if wake {
                topology.wake(id);
            } else {
                topology.sleep(id);
            }
        }
        for id in 0..ids {
            let before = topology.component_count();
            let up: Vec<bool> = (0..ids).map(|l| topology.is_up(l)).collect();
            let mut slept = topology.clone();
            slept.sleep(id);
            let expected = topology.is_up(id) && slept.component_count() <= before;
            prop_assert_eq!(topology.safe_to_sleep(id), expected, "link {}", id);
            let after: Vec<bool> = (0..ids).map(|l| topology.is_up(l)).collect();
            prop_assert_eq!(after, up);
        }
    }
}

/// A topology to sleep links in: `(ids, edges, ops)`, where `edges` are
/// `(link id, a, b)` with link ids below `ids - 2`, and `ops` are
/// `(wake, link id)` with link ids below `ids`.
type SleepingTopology = (usize, Vec<(usize, usize, usize)>, Vec<(bool, usize)>);

/// Small dense multigraphs (8 edge ids over 10 nodes, up to 24 edges and
/// 16 operations) or wide sparse ones (148 edge ids over 60 nodes, up to
/// 150 edges and 60 operations).
fn arb_sleeping_topology() -> impl Strategy<Value = SleepingTopology> {
    let shape = |ids: usize, nodes: usize, edges: usize, ops: usize| {
        (
            prop::collection::vec((0..ids - 2, 0..nodes, 0..nodes), 0..edges),
            prop::collection::vec((any::<bool>(), 0..ids), 0..ops),
        )
            .prop_map(move |(edges, ops)| (ids, edges, ops))
    };
    prop_oneof![shape(10, 10, 24, 16), shape(150, 60, 151, 60)]
}

/// Whether sleeping the links in `set` keeps all three of `decide`'s
/// rules: every slept link is at or below the utilisation threshold, the
/// component count does not grow, and every router next to a slept link
/// keeps `headroom ×` its internal traffic in up capacity (a self-loop
/// counts at both ends, as `decide` counts it).
fn feasible(obs: &[LinkObservation], set: &[usize], config: &HypnosConfig) -> bool {
    let slept = |o: &&LinkObservation| set.contains(&o.link_id);
    if obs
        .iter()
        .filter(slept)
        .any(|o| o.utilization() > config.max_sleep_utilization)
    {
        return false;
    }
    let mut traffic: BTreeMap<usize, f64> = BTreeMap::new();
    let mut capacity: BTreeMap<usize, f64> = BTreeMap::new();
    for o in obs {
        for r in [o.routers.0, o.routers.1] {
            *traffic.entry(r).or_default() += o.traffic.as_f64();
            *capacity.entry(r).or_default() += o.capacity.as_f64();
        }
    }
    for o in obs.iter().filter(slept) {
        for r in [o.routers.0, o.routers.1] {
            *capacity.entry(r).or_default() -= o.capacity.as_f64();
        }
    }
    let headroom = obs
        .iter()
        .filter(slept)
        .flat_map(|o| [o.routers.0, o.routers.1])
        .all(|r| capacity[&r] >= config.headroom * traffic[&r]);
    if !headroom {
        return false;
    }
    let mut topology = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
    let before = topology.component_count();
    for &id in set {
        topology.sleep(id);
    }
    topology.component_count() <= before
}

/// On graphs of at most 10 links, the greedy's sleep set is feasible, and
/// an exhaustive search over all feasible sets measures how far it falls
/// short of the largest one. Every link carries the same interface class,
/// so the largest set is also the one that saves the most power. The
/// worst gap seen is pinned, so a change that worsens the greedy fails
/// here.
#[test]
fn greedy_is_feasible_and_near_optimal_on_small_graphs() {
    const GRAPHS: usize = 1000;
    let config = HypnosConfig::default();
    let mut rng = StdRng::seed_from_u64(8);
    let (mut worst, mut suboptimal, mut slept_total, mut optimum_total) = ((0, 0), 0, 0, 0);
    for _ in 0..GRAPHS {
        let m = rng.random_range(1..=10);
        let specs: Vec<LinkSpec> = (0..m)
            .map(|id| {
                let island = 4 * rng.random_range(0..2usize);
                (
                    id,
                    island + rng.random_range(0..4usize),
                    island + rng.random_range(0..4usize),
                    rng.random_range(0..3usize),
                    rng.random_range(0..10usize),
                )
            })
            .collect();
        let obs = network(&specs);
        let slept = algorithm::decide(&obs, &config).slept;
        assert!(
            feasible(&obs, &slept, &config),
            "greedy infeasible: {obs:?}"
        );

        let cold: Vec<usize> = obs
            .iter()
            .filter(|o| o.utilization() <= config.max_sleep_utilization)
            .map(|o| o.link_id)
            .collect();
        let optimum = (0u32..1 << cold.len())
            .map(|mask| {
                (0..cold.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| cold[i])
                    .collect::<Vec<_>>()
            })
            .filter(|set| feasible(&obs, set, &config))
            .map(|set| set.len())
            .max()
            .unwrap_or(0);
        assert!(slept.len() <= optimum);
        let gap = optimum - slept.len();
        worst = worst.max((gap, optimum));
        suboptimal += usize::from(gap > 0);
        slept_total += slept.len();
        optimum_total += optimum;
    }
    let (gap, optimum) = worst;
    println!(
        "greedy vs optimum over {GRAPHS} graphs of <= 10 links: worst gap {gap} of {optimum} \
         links, short of the optimum on {suboptimal}, {slept_total} vs {optimum_total} links \
         slept in all"
    );
    assert!(gap <= 2, "worst gap grew to {gap} links");
}
