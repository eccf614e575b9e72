//! Topology connectivity for the sleep-safety check.

use std::collections::VecDeque;

/// An undirected multigraph of routers (nodes) and links (edges).
///
/// Node ids and link ids are relabelled to dense indices ("slots" for
/// links) by their rank in a sorted, deduplicated id list, so traversal
/// order stays a function of node/link ids alone (FJ07): component
/// counts are order-independent, but the search frontier order is not,
/// and debugging a replay divergence through a hash-ordered frontier is
/// misery. Several edges may carry one link id; the id's up flag covers
/// all of them. Ids that no edge carries are never up, and sleeping or
/// waking them does nothing.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Node ids, ascending; a node's dense index is its rank here.
    nodes: Vec<usize>,
    /// Link ids, ascending; a link's slot is its rank here.
    links: Vec<usize>,
    /// Compressed adjacency: node `n`'s (neighbour, link slot) pairs are
    /// `adj[offsets[n]..offsets[n + 1]]`, in edge order.
    offsets: Vec<usize>,
    adj: Vec<(usize, usize)>,
    /// Every edge as (link slot, node, node), sorted by slot.
    edges: Vec<(usize, usize, usize)>,
    /// Up flag per link slot.
    up: Vec<bool>,
    /// Path-query scratch: a query stamps the nodes its search from the
    /// first endpoint reaches with `generation - 1` and those from the
    /// second with `generation`, so no query clears the buffer.
    stamp: Vec<u32>,
    generation: u32,
    /// Path-query scratch: each side's frontier, and the layer being
    /// grown from the smaller one.
    frontiers: [Vec<usize>; 2],
    next: Vec<usize>,
}

/// `keys` sorted and deduplicated: a key's rank here is its dense index.
fn sorted_ids(keys: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut sorted: Vec<usize> = keys.into_iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// The rank of `key` in `sorted`, if it is there.
fn rank(sorted: &[usize], key: usize) -> Option<usize> {
    sorted.binary_search(&key).ok()
}

impl Topology {
    /// Builds a topology from `(link_id, a, b)` edges, all up.
    pub fn new(edges: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let raw: Vec<(usize, usize, usize)> = edges.into_iter().collect();
        let nodes = sorted_ids(raw.iter().flat_map(|&(_, a, b)| [a, b]));
        let links = sorted_ids(raw.iter().map(|&(id, _, _)| id));
        // Every id is in its list, so the rank is where it sits.
        let node = |id: usize| nodes.partition_point(|&n| n < id);
        let mut edges: Vec<(usize, usize, usize)> = raw
            .iter()
            .map(|&(id, a, b)| (links.partition_point(|&l| l < id), node(a), node(b)))
            .collect();
        let mut offsets = vec![0; nodes.len() + 1];
        for &(_, a, b) in &edges {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for n in 0..nodes.len() {
            offsets[n + 1] += offsets[n];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![(0, 0); 2 * edges.len()];
        for &(slot, a, b) in &edges {
            adj[fill[a]] = (b, slot);
            fill[a] += 1;
            adj[fill[b]] = (a, slot);
            fill[b] += 1;
        }
        edges.sort_by_key(|&(slot, _, _)| slot);
        Topology {
            stamp: vec![0; nodes.len()],
            up: vec![true; links.len()],
            nodes,
            links,
            offsets,
            adj,
            edges,
            generation: 0,
            frontiers: [Vec::new(), Vec::new()],
            next: Vec::new(),
        }
    }

    /// Number of nodes with at least one edge.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
        if let Some(slot) = rank(&self.links, link_id) {
            self.up[slot] = up;
        }
    }

    /// Whether a link is up.
    pub fn is_up(&self, link_id: usize) -> bool {
        rank(&self.links, link_id).is_some_and(|slot| self.up[slot])
    }

    /// Number of connected components in the up-link subgraph (nodes with
    /// no edges at all are not counted; a real ISP topology may already be
    /// a forest of islands when only *internal* links are considered).
    /// A full breadth-first search: the reference the sleep-safety check
    /// is tested against.
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut components = 0;
        for start in 0..self.nodes.len() {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(node) = queue.pop_front() {
                for &(next, slot) in &self.adj[self.offsets[node]..self.offsets[node + 1]] {
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
        let Some(slot) = rank(&self.links, link_id) else {
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

    /// Whether `from` reaches `to` over up links other than slot `skip`.
    /// A breadth-first frontier grows from each end, one whole layer of
    /// the smaller frontier at a time: the ends are joined as soon as a
    /// layer touches a node the other side stamped, and cut off as soon
    /// as either frontier runs dry, having stamped its whole component.
    fn reaches(&mut self, from: usize, to: usize, skip: usize) -> bool {
        if from == to {
            return true;
        }
        self.generation = match self.generation.checked_add(2) {
            Some(g) => g,
            None => {
                self.stamp.fill(0);
                2
            }
        };
        let marks = [self.generation - 1, self.generation];
        let Topology {
            offsets,
            adj,
            up,
            stamp,
            frontiers,
            next,
            ..
        } = self;
        for (side, node) in [from, to].into_iter().enumerate() {
            stamp[node] = marks[side];
            frontiers[side].clear();
            frontiers[side].push(node);
        }
        loop {
            let side = usize::from(frontiers[1].len() < frontiers[0].len());
            let (mine, theirs) = (marks[side], marks[1 - side]);
            next.clear();
            for &node in &frontiers[side] {
                for &(n, slot) in &adj[offsets[node]..offsets[node + 1]] {
                    if slot == skip || !up[slot] || stamp[n] == mine {
                        continue;
                    }
                    if stamp[n] == theirs {
                        return true;
                    }
                    stamp[n] = mine;
                    next.push(n);
                }
            }
            std::mem::swap(&mut frontiers[side], next);
            if frontiers[side].is_empty() {
                return false;
            }
        }
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

    /// The stamp buffer is cleared only when the generation would pass
    /// `u32::MAX`. Queries started at every parity just below it, with
    /// every node still holding a mark that one of the first queries could
    /// have left, must answer what a fresh topology answers: a stale mark
    /// read as the other side's would join the two sides of a bridge, and
    /// one read as this side's would stop a search short.
    #[test]
    fn path_queries_survive_the_stamp_wrap() {
        // Two triangles joined by the bridge 6, with a tail 7 off one.
        let edges = [
            (0, 1, 2),
            (1, 2, 3),
            (2, 3, 1),
            (3, 4, 5),
            (4, 5, 6),
            (5, 6, 4),
            (6, 3, 4),
            (7, 6, 7),
        ];
        let mut fresh = Topology::new(edges);
        let expected: Vec<bool> = (0..8).map(|id| fresh.safe_to_sleep(id)).collect();
        assert_eq!(expected, [true, true, true, true, true, true, false, false]);
        for stale in 0..=4 {
            for below in 0..4 {
                let mut t = Topology::new(edges);
                t.stamp.fill(stale);
                t.generation = u32::MAX - below;
                for round in 0..3 {
                    let answers: Vec<bool> = (0..8).map(|id| t.safe_to_sleep(id)).collect();
                    assert_eq!(
                        answers, expected,
                        "marks {stale}, {below} below u32::MAX, round {round}"
                    );
                }
            }
        }
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
