//! Graph generators used by tests and benchmarks.

use crate::graph::{DiGraph, NodeId};

/// Builds a bidirectional grid graph of `rows x cols` nodes with unit
/// weights; node `(r, c)` has index `r * cols + c`.
///
/// # Examples
///
/// ```
/// let g = netgraph::generate::grid(3, 4);
/// assert_eq!(g.num_nodes(), 12);
/// // interior edges: horizontal 3*3*2 + vertical 2*4*2 = 34
/// assert_eq!(g.num_edges(), 34);
/// ```
pub fn grid(rows: usize, cols: usize) -> DiGraph {
    let mut g = DiGraph::new(rows * cols);
    let idx = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1), 1.0);
                g.add_edge(idx(r, c + 1), idx(r, c), 1.0);
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c), 1.0);
                g.add_edge(idx(r + 1, c), idx(r, c), 1.0);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path;

    #[test]
    fn grid_shortest_path_is_manhattan() {
        let g = grid(4, 5);
        let p = shortest_path(&g, NodeId(0), NodeId(3 * 5 + 4)).unwrap();
        assert_eq!(p.cost(), 7.0); // 3 down + 4 right
    }
}
