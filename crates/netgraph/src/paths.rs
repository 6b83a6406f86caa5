//! Path values and path-set utilities (disjointness, validation).

use crate::graph::{DiGraph, EdgeId, NodeId};
use std::collections::HashSet;

/// A simple (loopless) directed path: nodes, the edges joining them, and the
/// total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    cost: f64,
}

impl Path {
    /// Creates a path from parallel node/edge lists.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != edges.len() + 1` or nodes repeat.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>, cost: f64) -> Self {
        assert_eq!(nodes.len(), edges.len() + 1, "node/edge count mismatch");
        let distinct: HashSet<_> = nodes.iter().collect();
        assert_eq!(distinct.len(), nodes.len(), "path must be loopless");
        Path { nodes, edges, cost }
    }

    /// A zero-length path consisting of a single node.
    pub fn trivial(node: NodeId) -> Self {
        Path {
            nodes: vec![node],
            edges: Vec::new(),
            cost: 0.0,
        }
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Total path cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a single-node path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("paths are never node-empty")
    }

    /// Verifies the path against a graph: every edge must exist with the
    /// recorded endpoints, and the cost must equal the weight sum.
    pub fn validate(&self, g: &DiGraph, tol: f64) -> Result<(), String> {
        let mut total = 0.0;
        for (i, &e) in self.edges.iter().enumerate() {
            if e.index() >= g.num_edges() {
                return Err(format!("edge {} out of range", e.index()));
            }
            let (f, t) = g.endpoints(e);
            if f != self.nodes[i] || t != self.nodes[i + 1] {
                return Err(format!(
                    "edge {} connects {}->{}, path expects {}->{}",
                    e.index(),
                    f,
                    t,
                    self.nodes[i],
                    self.nodes[i + 1]
                ));
            }
            total += g.weight(e);
        }
        if (total - self.cost).abs() > tol {
            return Err(format!("cost {} != weight sum {}", self.cost, total));
        }
        Ok(())
    }

    /// Number of directed edges shared with `other`.
    pub fn shared_edges(&self, other: &Path) -> usize {
        let set: HashSet<_> = self.edges.iter().collect();
        other.edges.iter().filter(|e| set.contains(e)).count()
    }

    /// `true` if the two paths share no directed edge (the paper's
    /// `disjoint_links` requirement, constraint (1d)).
    pub fn is_link_disjoint(&self, other: &Path) -> bool {
        self.shared_edges(other) == 0
    }

    /// Concatenates `self` with `tail` (whose source must equal this path's
    /// target), keeping looplessness.
    ///
    /// Returns `None` if the concatenation would revisit a node.
    pub fn join(&self, tail: &Path) -> Option<Path> {
        if self.target() != tail.source() {
            return None;
        }
        let head_set: HashSet<_> = self.nodes.iter().collect();
        if tail.nodes[1..].iter().any(|n| head_set.contains(n)) {
            return None;
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&tail.nodes[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(tail.edges());
        Some(Path {
            nodes,
            edges,
            cost: self.cost + tail.cost,
        })
    }

    /// The prefix with `hops` edges (`hops + 1` nodes).
    ///
    /// # Panics
    ///
    /// Panics if `hops > len()`.
    pub fn prefix(&self, hops: usize) -> Path {
        assert!(hops <= self.len());
        Path {
            nodes: self.nodes[..=hops].to_vec(),
            edges: self.edges[..hops].to_vec(),
            cost: f64::NAN, // cost recomputed by callers that need it
        }
    }
}

/// Counts pairwise link-disjoint paths in a set (greedy maximal subset).
pub fn max_disjoint_subset(paths: &[Path]) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        if chosen.iter().all(|&j| p.is_link_disjoint(&paths[j])) {
            chosen.push(i);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 2.0);
        g
    }

    #[test]
    fn build_and_validate() {
        let g = diamond();
        let p = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(3)],
            vec![EdgeId(0), EdgeId(1)],
            2.0,
        );
        assert!(p.validate(&g, 1e-9).is_ok());
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(3));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn validate_catches_wrong_edge() {
        let g = diamond();
        let p = Path::new(
            vec![NodeId(0), NodeId(2), NodeId(3)],
            vec![EdgeId(0), EdgeId(3)], // EdgeId(0) goes 0->1, not 0->2
            4.0,
        );
        assert!(p.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn validate_catches_wrong_cost() {
        let g = diamond();
        let p = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(3)],
            vec![EdgeId(0), EdgeId(1)],
            5.0,
        );
        assert!(p.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn disjointness() {
        let a = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(3)],
            vec![EdgeId(0), EdgeId(1)],
            2.0,
        );
        let b = Path::new(
            vec![NodeId(0), NodeId(2), NodeId(3)],
            vec![EdgeId(2), EdgeId(3)],
            4.0,
        );
        assert!(a.is_link_disjoint(&b));
        assert_eq!(a.shared_edges(&a), 2);
        assert!(!a.is_link_disjoint(&a));
    }

    #[test]
    fn join_paths() {
        let head = Path::new(vec![NodeId(0), NodeId(1)], vec![EdgeId(0)], 1.0);
        let tail = Path::new(vec![NodeId(1), NodeId(3)], vec![EdgeId(1)], 1.0);
        let joined = head.join(&tail).unwrap();
        assert_eq!(joined.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(joined.cost(), 2.0);
        // joining onto itself revisits nodes
        let loopy = Path::new(vec![NodeId(1), NodeId(0)], vec![EdgeId(9)], 1.0);
        assert!(head.join(&loopy).is_none());
        // mismatched endpoints
        assert!(tail.join(&head).is_none());
    }

    #[test]
    #[should_panic(expected = "loopless")]
    fn loops_rejected() {
        let _ = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(0)],
            vec![EdgeId(0), EdgeId(1)],
            2.0,
        );
    }

    #[test]
    fn greedy_disjoint_subset() {
        let a = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(3)],
            vec![EdgeId(0), EdgeId(1)],
            2.0,
        );
        let b = Path::new(
            vec![NodeId(0), NodeId(2), NodeId(3)],
            vec![EdgeId(2), EdgeId(3)],
            4.0,
        );
        let c = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![EdgeId(0), EdgeId(4), EdgeId(3)],
            9.0,
        );
        let chosen = max_disjoint_subset(&[a, b, c]);
        assert_eq!(chosen, vec![0, 1]); // c shares edges with both
    }
}
