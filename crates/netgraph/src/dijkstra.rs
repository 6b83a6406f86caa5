//! Dijkstra's shortest-path algorithm with node/edge bans.
//!
//! Yen's algorithm repeatedly runs Dijkstra on the graph with certain nodes
//! and edges removed; rather than copying the graph, the query takes ban
//! bitmaps. Weights must be non-negative.

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::paths::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on dist
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Query-time restrictions for [`shortest_path_filtered`].
#[derive(Debug, Clone, Default)]
pub struct Bans {
    /// Banned node flags (indexed by node). Empty = no node bans.
    pub nodes: Vec<bool>,
    /// Banned edge flags (indexed by edge). Empty = no edge bans.
    pub edges: Vec<bool>,
}

impl Bans {
    /// No restrictions, sized for graph `g`.
    pub fn none(g: &DiGraph) -> Self {
        Bans {
            nodes: vec![false; g.num_nodes()],
            edges: vec![false; g.num_edges()],
        }
    }

    fn node_banned(&self, v: usize) -> bool {
        self.nodes.get(v).copied().unwrap_or(false)
    }

    fn edge_banned(&self, e: usize) -> bool {
        self.edges.get(e).copied().unwrap_or(false)
    }
}

/// Computes the shortest path from `src` to `dst`, honoring bans.
///
/// Returns `None` when `dst` is unreachable. Edge weights below zero are
/// rejected.
///
/// # Panics
///
/// Panics if any traversed edge has negative weight.
pub fn shortest_path_filtered(
    g: &DiGraph,
    src: NodeId,
    dst: NodeId,
    bans: &Bans,
) -> Option<Path> {
    if bans.node_banned(src.index()) || bans.node_banned(dst.index()) {
        return None;
    }
    if src == dst {
        return Some(Path::trivial(src));
    }
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n]; // (prev node, edge)
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src.index(),
    });
    while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if u == dst.index() {
            break;
        }
        for (e, to, w) in g.out_edges(NodeId(u)) {
            assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            if bans.edge_banned(e.index()) || bans.node_banned(to.index()) || done[to.index()] {
                continue;
            }
            let nd = d + w;
            if nd < dist[to.index()] {
                dist[to.index()] = nd;
                parent[to.index()] = Some((u, e.index()));
                heap.push(HeapItem {
                    dist: nd,
                    node: to.index(),
                });
            }
        }
    }
    if !dist[dst.index()].is_finite() {
        return None;
    }
    // Reconstruct.
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    let mut cur = dst.index();
    while let Some((prev, e)) = parent[cur] {
        edges.push(EdgeId(e));
        nodes.push(NodeId(prev));
        cur = prev;
    }
    nodes.reverse();
    edges.reverse();
    Some(Path::new(nodes, edges, dist[dst.index()]))
}

/// Shortest path without restrictions.
pub fn shortest_path(g: &DiGraph, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_filtered(g, src, dst, &Bans::default())
}

/// Single-source distances to every node (unreachable = `INFINITY`).
pub fn distances_from(g: &DiGraph, src: NodeId) -> Vec<f64> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src.index(),
    });
    while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (_, to, w) in g.out_edges(NodeId(u)) {
            assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let nd = d + w;
            if nd < dist[to.index()] {
                dist[to.index()] = nd;
                heap.push(HeapItem {
                    dist: nd,
                    node: to.index(),
                });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_line() -> DiGraph {
        line_with_first_hop(1.0)
    }

    /// 0 -w-> 1 -1-> 2 -1-> 3 plus shortcut 0 -2.5-> 2
    fn line_with_first_hop(w: f64) -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), w);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 2.5);
        g
    }

    #[test]
    fn finds_shortest() {
        let g = grid_line();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.cost(), 3.0);
        assert_eq!(p.nodes().len(), 4);
        assert!(p.validate(&g, 1e-12).is_ok());
    }

    #[test]
    fn shortcut_taken_when_cheaper() {
        // make the line expensive
        let g = line_with_first_hop(5.0);
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.cost(), 3.5); // 2.5 + 1
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = DiGraph::new(3); // no edges
        assert!(shortest_path(&g, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn trivial_same_node() {
        let g = grid_line();
        let p = shortest_path(&g, NodeId(1), NodeId(1)).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.cost(), 0.0);
    }

    #[test]
    fn edge_ban_forces_detour() {
        let g = grid_line();
        let mut bans = Bans::none(&g);
        bans.edges[0] = true; // ban 0->1
        let p = shortest_path_filtered(&g, NodeId(0), NodeId(3), &bans).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(p.cost(), 3.5);
    }

    #[test]
    fn node_ban_forces_detour() {
        let g = grid_line();
        let mut bans = Bans::none(&g);
        bans.nodes[1] = true;
        let p = shortest_path_filtered(&g, NodeId(0), NodeId(3), &bans).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn banned_endpoint_is_none() {
        let g = grid_line();
        let mut bans = Bans::none(&g);
        bans.nodes[3] = true;
        assert!(shortest_path_filtered(&g, NodeId(0), NodeId(3), &bans).is_none());
    }

    #[test]
    fn distances_from_source() {
        let g = grid_line();
        let d = distances_from(&g, NodeId(0));
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
        let d3 = distances_from(&g, NodeId(3));
        assert!(d3[0].is_infinite()); // directed: no way back
    }

    #[test]
    fn random_graphs_match_bellman_ford() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(2..12);
            let mut g = DiGraph::new(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.35) {
                        g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.0..10.0));
                    }
                }
            }
            // Bellman-Ford reference
            let src = 0;
            let mut dist = vec![f64::INFINITY; n];
            dist[src] = 0.0;
            for _ in 0..n {
                for e in (0..g.num_edges()).map(EdgeId) {
                    let (f, t) = g.endpoints(e);
                    let w = g.weight(e);
                    if dist[f.index()] + w < dist[t.index()] {
                        dist[t.index()] = dist[f.index()] + w;
                    }
                }
            }
            let fast = distances_from(&g, NodeId(src));
            for v in 0..n {
                if dist[v].is_finite() {
                    assert!((dist[v] - fast[v]).abs() < 1e-9, "node {}", v);
                } else {
                    assert!(fast[v].is_infinite());
                }
            }
        }
    }
}
