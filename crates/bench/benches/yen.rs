//! Micro-benchmarks of Yen's K-shortest-path routine (the engine of the
//! paper's Algorithm 1).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netgraph::generate::grid;
use netgraph::{k_shortest_paths, DiGraph, NodeId};
use rand::prelude::*;

/// `n` nodes placed uniformly in a 100 x 100 square, with a pair of edges
/// between nodes at most 25 apart, weighted by their distance.
fn geometric_graph(n: usize, rng: &mut StdRng) -> DiGraph {
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            let d = (dx * dx + dy * dy).sqrt();
            if d <= 25.0 {
                g.add_edge(NodeId(i), NodeId(j), d);
                g.add_edge(NodeId(j), NodeId(i), d);
            }
        }
    }
    g
}

fn bench_yen_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("yen_grid_10x10");
    let graph = grid(10, 10);
    for k in [1usize, 5, 10, 20] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(k_shortest_paths(
                    black_box(&graph),
                    NodeId(0),
                    NodeId(99),
                    k,
                ))
            })
        });
    }
    g.finish();
}

fn bench_yen_geometric(c: &mut Criterion) {
    let mut g = c.benchmark_group("yen_geometric_k10");
    for n in [50usize, 150, 300] {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = geometric_graph(n, &mut rng);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(k_shortest_paths(
                    black_box(&graph),
                    NodeId(0),
                    NodeId(n - 1),
                    10,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_yen_grid, bench_yen_geometric);
criterion_main!(benches);
