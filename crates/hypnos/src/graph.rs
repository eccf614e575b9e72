//! Topology connectivity for the sleep-safety check.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An undirected multigraph of routers (nodes) and links (edges).
///
/// Node ids and link ids are relabelled to dense indices ("slots" for
/// links) in sorted-id order, so traversal order stays a function of
/// node/link ids alone (FJ07): component counts are order-independent,
/// but the search frontier order is not, and debugging a replay
/// divergence through a hash-ordered frontier is misery. Several edges
/// may carry one link id; the id's up flag covers all of them. Ids that
/// no edge carries are never up, and sleeping or waking them does
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Adjacency by dense node: (neighbour, link slot).
    adj: Vec<Vec<(usize, usize)>>,
    /// Every edge as (link slot, node, node), sorted by slot.
    edges: Vec<(usize, usize, usize)>,
    /// Up flag per link slot.
    up: Vec<bool>,
    /// Link id → slot.
    slots: BTreeMap<usize, usize>,
    /// Path-query scratch: a node is visited in the current query iff
    /// its stamp equals `generation`, so no query clears the buffer.
    stamp: Vec<u32>,
    generation: u32,
    /// Path-query scratch: the depth-first frontier.
    stack: Vec<usize>,
}

/// Dense indices for `keys`, in sorted-key order.
fn relabel(keys: impl IntoIterator<Item = usize>) -> BTreeMap<usize, usize> {
    let sorted: BTreeSet<usize> = keys.into_iter().collect();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect()
}

impl Topology {
    /// Builds a topology from `(link_id, a, b)` edges, all up.
    pub fn new(edges: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let raw: Vec<(usize, usize, usize)> = edges.into_iter().collect();
        let nodes = relabel(raw.iter().flat_map(|&(_, a, b)| [a, b]));
        let slots = relabel(raw.iter().map(|&(id, _, _)| id));
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut edges = Vec::with_capacity(raw.len());
        for (id, a, b) in raw {
            let (slot, a, b) = (slots[&id], nodes[&a], nodes[&b]);
            adj[a].push((b, slot));
            adj[b].push((a, slot));
            edges.push((slot, a, b));
        }
        edges.sort_by_key(|&(slot, _, _)| slot);
        Topology {
            stamp: vec![0; adj.len()],
            adj,
            edges,
            up: vec![true; slots.len()],
            slots,
            generation: 0,
            stack: Vec::new(),
        }
    }

    /// Number of nodes with at least one edge.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of up links.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&up| up).count()
    }

    /// Marks a link down.
    pub fn sleep(&mut self, link_id: usize) {
        self.set_up(link_id, false);
    }

    /// Marks a link up again.
    pub fn wake(&mut self, link_id: usize) {
        self.set_up(link_id, true);
    }

    fn set_up(&mut self, link_id: usize, up: bool) {
        if let Some(&slot) = self.slots.get(&link_id) {
            self.up[slot] = up;
        }
    }

    /// Whether a link is up.
    pub fn is_up(&self, link_id: usize) -> bool {
        self.slots.get(&link_id).is_some_and(|&slot| self.up[slot])
    }

    /// Number of connected components in the up-link subgraph (nodes with
    /// no edges at all are not counted; a real ISP topology may already be
    /// a forest of islands when only *internal* links are considered).
    /// A full breadth-first search: the reference the sleep-safety check
    /// is tested against.
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.adj.len()];
        let mut components = 0;
        for start in 0..self.adj.len() {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(node) = queue.pop_front() {
                for &(next, slot) in &self.adj[node] {
                    if self.up[slot] && !seen[next] {
                        seen[next] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        components
    }

    /// Whether the subgraph of up links connects all nodes that have any
    /// edge at all. An empty topology is trivially connected.
    pub fn connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Whether sleeping `link_id` leaves connectivity unchanged: the
    /// number of components must not grow (the baseline may already be a
    /// forest). It does not iff every edge carrying the id keeps its
    /// endpoints joined over the other up links, so this asks one
    /// early-exit path query per edge; a self-loop is trivially safe.
    /// A link that is down, or that no edge carries, is never safe.
    pub fn safe_to_sleep(&mut self, link_id: usize) -> bool {
        let Some(&slot) = self.slots.get(&link_id) else {
            return false;
        };
        if !self.up[slot] {
            return false;
        }
        let first = self.edges.partition_point(|&(s, _, _)| s < slot);
        let end = self.edges.partition_point(|&(s, _, _)| s <= slot);
        (first..end).all(|i| {
            let (_, a, b) = self.edges[i];
            self.reaches(a, b, slot)
        })
    }

    /// Whether `from` reaches `to` over up links other than slot `skip`:
    /// depth-first, stopping at the first hit.
    fn reaches(&mut self, from: usize, to: usize, skip: usize) -> bool {
        if from == to {
            return true;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let generation = self.generation;
        self.stamp[from] = generation;
        self.stack.clear();
        self.stack.push(from);
        while let Some(node) = self.stack.pop() {
            for &(next, slot) in &self.adj[node] {
                if slot == skip || !self.up[slot] || self.stamp[next] == generation {
                    continue;
                }
                if next == to {
                    return true;
                }
                self.stamp[next] = generation;
                self.stack.push(next);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle: any single link can sleep; two cannot.
    fn triangle() -> Topology {
        Topology::new([(0, 1, 2), (1, 2, 3), (2, 3, 1)])
    }

    #[test]
    fn triangle_is_connected() {
        assert!(triangle().connected());
        assert_eq!(triangle().node_count(), 3);
        assert_eq!(triangle().up_count(), 3);
    }

    #[test]
    fn one_sleep_keeps_connectivity_two_break_it() {
        let mut t = triangle();
        assert!(t.safe_to_sleep(0));
        t.sleep(0);
        assert!(t.connected());
        assert!(!t.safe_to_sleep(1), "second sleep would partition");
        t.sleep(1);
        assert!(!t.connected());
        t.wake(1);
        assert!(t.connected());
    }

    #[test]
    fn bridge_cannot_sleep() {
        // Path 1-2-3: both links are bridges.
        let mut t = Topology::new([(0, 1, 2), (1, 2, 3)]);
        assert!(!t.safe_to_sleep(0));
        assert!(!t.safe_to_sleep(1));
    }

    #[test]
    fn parallel_links_redundant() {
        // Two parallel links between the same routers: one can sleep.
        let mut t = Topology::new([(0, 1, 2), (1, 1, 2)]);
        assert!(t.safe_to_sleep(0));
        t.sleep(0);
        assert!(t.connected());
        assert!(!t.safe_to_sleep(1));
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::default().connected());
    }

    #[test]
    fn sleeping_down_link_is_not_safe() {
        let mut t = triangle();
        t.sleep(0);
        assert!(!t.safe_to_sleep(0), "already down");
    }

    #[test]
    fn self_loop_is_safe_and_unknown_link_is_not() {
        let mut t = Topology::new([(0, 1, 2), (7, 2, 2)]);
        assert!(t.safe_to_sleep(7), "a self-loop joins nothing");
        assert!(!t.safe_to_sleep(3), "no edge carries link 3");
        t.wake(3);
        assert!(!t.is_up(3));
        assert_eq!(t.up_count(), 2);
    }
}
