//! A directed weighted graph with adjacency-list storage.
//!
//! Nodes are dense indices ([`NodeId`]); edges carry an `f64` weight (the
//! stack uses estimated link path loss). Edge weights can be overridden per
//! query via a weight function, which is how Algorithm 1 "disconnects" paths
//! without mutating the graph.

use std::fmt;

/// Identifier of a node (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed edge (dense index in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct EdgeData {
    from: usize,
    to: usize,
    weight: f64,
}

/// A directed weighted graph.
///
/// # Examples
///
/// ```
/// use netgraph::{DiGraph, NodeId};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 1.0);
/// g.add_edge(NodeId(1), NodeId(2), 2.5);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_edges(NodeId(1)).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    num_nodes: usize,
    edges: Vec<EdgeData>,
    /// adjacency: out_adj[v] = edge ids leaving v
    out_adj: Vec<Vec<usize>>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            num_nodes: n,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.out_adj.push(Vec::new());
        self.num_nodes += 1;
        NodeId(self.num_nodes - 1)
    }

    /// Adds a directed edge `from -> to` with `weight`, returning its id.
    /// Parallel edges are allowed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the weight is NaN.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> EdgeId {
        assert!(from.0 < self.num_nodes, "from node out of range");
        assert!(to.0 < self.num_nodes, "to node out of range");
        assert!(!weight.is_nan(), "edge weight must not be NaN");
        let id = self.edges.len();
        self.edges.push(EdgeData {
            from: from.0,
            to: to.0,
            weight,
        });
        self.out_adj[from.0].push(id);
        EdgeId(id)
    }

    /// Endpoints of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let d = &self.edges[e.0];
        (NodeId(d.from), NodeId(d.to))
    }

    /// Weight of an edge.
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.0].weight
    }

    /// Iterates `(edge, to, weight)` over edges leaving `v`.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId, f64)> + '_ {
        self.out_adj[v.0].iter().map(move |&e| {
            let d = &self.edges[e];
            (EdgeId(e), NodeId(d.to), d.weight)
        })
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_navigate() {
        let mut g = DiGraph::new(2);
        let c = g.add_node();
        assert_eq!(c, NodeId(2));
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.5);
        let e1 = g.add_edge(NodeId(1), c, 2.0);
        g.add_edge(NodeId(0), c, 7.0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.endpoints(e0), (NodeId(0), NodeId(1)));
        assert_eq!(g.weight(e1), 2.0);
        let outs: Vec<_> = g.out_edges(NodeId(0)).map(|(_, t, _)| t).collect();
        assert_eq!(outs, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g = DiGraph::new(1);
        g.add_edge(NodeId(0), NodeId(5), 1.0);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        assert_eq!(g.out_edges(NodeId(0)).count(), 2);
    }
}
