//! Property tests for Dijkstra and Yen's K-shortest paths on random
//! digraphs.

use netgraph::{distances_from, k_shortest_paths, shortest_path, DiGraph, EdgeId, NodeId};
use proptest::prelude::*;

/// Strategy: a random digraph as (n, edge list with weights).
fn digraph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..=9).prop_flat_map(|n| {
        let edges = prop::collection::vec(
            (0..n, 0..n, 1u32..50).prop_map(|(a, b, w)| (a, b, w as f64)),
            0..n * 3,
        );
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> DiGraph {
    let mut g = DiGraph::new(n);
    for &(a, b, w) in edges {
        if a != b {
            g.add_edge(NodeId(a), NodeId(b), w);
        }
    }
    g
}

/// Exhaustive simple-path enumeration (reference for Yen).
fn all_simple_paths(g: &DiGraph, s: usize, t: usize) -> Vec<(f64, Vec<usize>)> {
    let n = g.num_nodes();
    let mut out = Vec::new();
    let mut stack = vec![(vec![s], 0.0f64)];
    while let Some((nodes, cost)) = stack.pop() {
        let last = *nodes.last().expect("non-empty");
        if last == t {
            out.push((cost, nodes));
            continue;
        }
        if nodes.len() > n {
            continue;
        }
        for (_, to, w) in g.out_edges(NodeId(last)) {
            if !nodes.contains(&to.index()) {
                let mut nn = nodes.clone();
                nn.push(to.index());
                stack.push((nn, cost + w));
            }
        }
    }
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dijkstra_matches_bruteforce((n, edges) in digraph()) {
        let g = build(n, &edges);
        let best = all_simple_paths(&g, 0, n - 1);
        match shortest_path(&g, NodeId(0), NodeId(n - 1)) {
            Some(p) => {
                prop_assert!(!best.is_empty());
                prop_assert!((p.cost() - best[0].0).abs() < 1e-9,
                    "dijkstra {} vs brute {}", p.cost(), best[0].0);
                prop_assert!(p.validate(&g, 1e-9).is_ok());
            }
            None => prop_assert!(best.is_empty()),
        }
    }

    #[test]
    fn yen_paths_are_sorted_distinct_loopless((n, edges) in digraph()) {
        let g = build(n, &edges);
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(n - 1), 6);
        for w in paths.windows(2) {
            prop_assert!(w[0].cost() <= w[1].cost() + 1e-9);
        }
        for (i, p) in paths.iter().enumerate() {
            prop_assert!(p.validate(&g, 1e-9).is_ok());
            for q in &paths[i + 1..] {
                // edge-sequence identity: parallel edges make distinct paths
                prop_assert_ne!(p.edges(), q.edges());
            }
        }
    }

    #[test]
    fn yen_matches_bruteforce_costs((n, edges) in digraph()) {
        let g = build(n, &edges);
        let brute = all_simple_paths(&g, 0, n - 1);
        let k = 5usize;
        let yen = k_shortest_paths(&g, NodeId(0), NodeId(n - 1), k);
        prop_assert_eq!(yen.len(), brute.len().min(k));
        for (p, b) in yen.iter().zip(&brute) {
            prop_assert!((p.cost() - b.0).abs() < 1e-9,
                "yen {} vs brute {}", p.cost(), b.0);
        }
    }

    #[test]
    fn distances_lower_bound_paths((n, edges) in digraph()) {
        let g = build(n, &edges);
        let d = distances_from(&g, NodeId(0));
        // triangle-ish check: relaxing any edge cannot improve final dists
        for e in (0..g.num_edges()).map(EdgeId) {
            let (f, t) = g.endpoints(e);
            if d[f.index()].is_finite() {
                prop_assert!(d[t.index()] <= d[f.index()] + g.weight(e) + 1e-9);
            }
        }
    }
}
