//! Memoized wall-crossing queries.
//!
//! Segment–segment intersection against every wall is the dominant cost of
//! the multi-wall path-loss model, and callers evaluate the same endpoint
//! pairs repeatedly: `compute_path_loss` asks for both `(a, b)` and
//! `(b, a)`, and every Yen sweep over a template re-derives the same link
//! weights. [`CrossingCache`] computes each unordered endpoint pair once
//! and replays the `(count, loss)` result from then on.

use crate::geom::Point;
use crate::plan::FloorPlan;
use std::collections::HashMap;
use std::sync::Mutex;

/// Symmetric cache key: the two endpoints in canonical (bit-pattern) order,
/// so `(a, b)` and `(b, a)` share an entry.
type PairKey = (u64, u64, u64, u64);

fn pair_key(a: Point, b: Point) -> PairKey {
    let ka = (a.x.to_bits(), a.y.to_bits());
    let kb = (b.x.to_bits(), b.y.to_bits());
    let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
    (lo.0, lo.1, hi.0, hi.1)
}

/// Caches [`FloorPlan::crossing_count`] / [`FloorPlan::wall_loss_db`]
/// results per unordered endpoint pair.
///
/// The cache is `Sync` (interior `Mutex`), so one instance can serve
/// concurrent path-loss evaluations. Walls are read at query time; the
/// borrowed plan cannot change while the cache exists, so entries never go
/// stale.
#[derive(Debug)]
pub struct CrossingCache<'a> {
    plan: &'a FloorPlan,
    map: Mutex<HashMap<PairKey, (usize, f64)>>,
}

impl<'a> CrossingCache<'a> {
    /// Creates an empty cache over `plan`.
    pub fn new(plan: &'a FloorPlan) -> Self {
        CrossingCache {
            plan,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The cached plan.
    pub fn plan(&self) -> &'a FloorPlan {
        self.plan
    }

    fn lookup(&self, a: Point, b: Point) -> (usize, f64) {
        let key = pair_key(a, b);
        // Poisoning only happens if a holder panicked; the map is still a
        // valid cache either way, so recover it rather than propagating.
        let mut map = match self.map.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(&v) = map.get(&key) {
            return v;
        }
        // Compute while holding the lock: recomputing a pair in two threads
        // would be costlier than the brief serialization.
        let mut count = 0usize;
        let mut loss = 0.0f64;
        for w in self.plan.walls_crossed(a, b) {
            count += 1;
            loss += w.material.attenuation_db();
        }
        map.insert(key, (count, loss));
        (count, loss)
    }

    /// Number of walls crossed by the ray `a -> b` (memoized).
    pub fn crossing_count(&self, a: Point, b: Point) -> usize {
        self.lookup(a, b).0
    }

    /// Total wall penetration loss (dB) along the ray `a -> b` (memoized).
    pub fn wall_loss_db(&self, a: Point, b: Point) -> f64 {
        self.lookup(a, b).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Segment;
    use crate::plan::{Material, Wall};

    fn plan_with_wall() -> FloorPlan {
        let mut plan = FloorPlan::new(20.0, 10.0);
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0)),
            material: Material::Concrete,
        });
        plan
    }

    #[test]
    fn cache_matches_direct_queries() {
        let plan = plan_with_wall();
        let cache = CrossingCache::new(&plan);
        let a = Point::new(2.0, 5.0);
        let b = Point::new(18.0, 5.0);
        assert_eq!(cache.crossing_count(a, b), plan.crossing_count(a, b));
        assert_eq!(cache.wall_loss_db(a, b), plan.wall_loss_db(a, b));
        let c = Point::new(2.0, 2.0);
        assert_eq!(cache.crossing_count(a, c), 0);
    }

    #[test]
    fn symmetric_pairs_share_an_entry() {
        let plan = plan_with_wall();
        let cache = CrossingCache::new(&plan);
        let a = Point::new(2.0, 5.0);
        let b = Point::new(18.0, 5.0);
        assert_eq!(pair_key(a, b), pair_key(b, a));
        let fwd = cache.lookup(a, b);
        let rev = cache.lookup(b, a);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, (1, plan.wall_loss_db(a, b)));
    }

    #[test]
    fn repeated_queries_hit() {
        let plan = plan_with_wall();
        let cache = CrossingCache::new(&plan);
        let a = Point::new(2.0, 5.0);
        let b = Point::new(18.0, 5.0);
        for _ in 0..5 {
            assert_eq!(cache.crossing_count(a, b), 1);
        }
        assert_eq!(
            cache.map.lock().expect("unpoisoned").len(),
            1,
            "one entry, computed once"
        );
    }
}
