//! Path-loss models: free space, log-distance, and multi-wall.
//!
//! The paper uses the **multi-wall model**, "an extension of the classical
//! log-distance model which also accounts for the attenuation in walls and
//! other obstacles" (§2). All models return a positive loss in dB.

use floorplan::{FloorPlan, Point};

/// The speed of light in m/s.
const C: f64 = 299_792_458.0;

/// Free-space path loss at 1 m for carrier frequency `freq_hz` (dB).
pub fn reference_loss_db(freq_hz: f64) -> f64 {
    20.0 * (4.0 * std::f64::consts::PI * freq_hz / C).log10()
}

/// A position-to-position path-loss model.
pub trait PathLossModel {
    /// Path loss in dB (positive) between two positions.
    fn path_loss_db(&self, a: Point, b: Point) -> f64;
}

/// Classical log-distance model:
/// `PL(d) = PL(d0) + 10 n log10(d / d0)` with `d0 = 1 m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    /// Reference loss at 1 m (dB); see [`reference_loss_db`].
    pub pl0_db: f64,
    /// Path-loss exponent `n` (2.0 free space, 3–4 indoor NLOS).
    pub exponent: f64,
    /// Distance floor to avoid singularities for co-located nodes (m).
    pub min_distance: f64,
}

impl LogDistance {
    /// Log-distance model for a carrier frequency with exponent `n`.
    pub fn at_frequency(freq_hz: f64, exponent: f64) -> Self {
        LogDistance {
            pl0_db: reference_loss_db(freq_hz),
            exponent,
            min_distance: 1.0,
        }
    }

    /// The common 2.4-GHz indoor configuration used by the paper's examples
    /// (exponent 2.8: light clutter; walls are modeled separately).
    pub fn indoor_2_4ghz() -> Self {
        LogDistance::at_frequency(2.4e9, 2.8)
    }
}

impl PathLossModel for LogDistance {
    fn path_loss_db(&self, a: Point, b: Point) -> f64 {
        let d = a.distance(b).max(self.min_distance);
        self.pl0_db + 10.0 * self.exponent * d.log10()
    }
}

/// Multi-wall model: log-distance plus the penetration loss of every wall
/// crossed by the direct ray.
#[derive(Debug, Clone)]
pub struct MultiWall<'a> {
    /// Underlying distance-dependent term.
    pub base: LogDistance,
    /// Floor plan supplying wall-crossing losses.
    pub plan: &'a FloorPlan,
}

impl<'a> MultiWall<'a> {
    /// Creates a multi-wall model over `plan`.
    pub fn new(base: LogDistance, plan: &'a FloorPlan) -> Self {
        MultiWall { base, plan }
    }
}

impl<'a> MultiWall<'a> {
    /// Wraps this model in a per-pair wall-crossing cache. Path-loss
    /// matrices query each `(a, b)` and `(b, a)` pair, and repeated
    /// template evaluations re-ask the same pairs, so memoizing the
    /// segment-intersection work pays off quickly on plans with many
    /// walls.
    pub fn cached(&self) -> CachedMultiWall<'a> {
        CachedMultiWall {
            base: self.base,
            cache: floorplan::CrossingCache::new(self.plan),
        }
    }
}

impl PathLossModel for MultiWall<'_> {
    fn path_loss_db(&self, a: Point, b: Point) -> f64 {
        self.base.path_loss_db(a, b) + self.plan.wall_loss_db(a, b)
    }
}

/// [`MultiWall`] with memoized wall-crossing lookups; see
/// [`MultiWall::cached`]. Produces bit-identical losses to the uncached
/// model.
#[derive(Debug)]
pub struct CachedMultiWall<'a> {
    base: LogDistance,
    cache: floorplan::CrossingCache<'a>,
}

impl PathLossModel for CachedMultiWall<'_> {
    fn path_loss_db(&self, a: Point, b: Point) -> f64 {
        self.base.path_loss_db(a, b) + self.cache.wall_loss_db(a, b)
    }
}

/// Path loss taken from a measurement table instead of an analytic model
/// (§2: path loss "can either be analytically estimated using a channel
/// model or obtained from measurements").
///
/// Positions are snapped to the nearest measured site within `tolerance_m`;
/// pairs without a measurement fall back to the base model.
#[derive(Debug, Clone)]
pub struct MeasuredPathLoss<M> {
    base: M,
    sites: Vec<Point>,
    /// `loss[a * sites.len() + b]` = measured PL from site a to site b
    /// (`NAN` = not measured).
    loss: Vec<f64>,
    tolerance_m: f64,
}

impl<M: PathLossModel> MeasuredPathLoss<M> {
    /// Creates an empty measurement table over `sites` with fallback `base`.
    pub fn new(base: M, sites: Vec<Point>, tolerance_m: f64) -> Self {
        let n = sites.len();
        MeasuredPathLoss {
            base,
            sites,
            loss: vec![f64::NAN; n * n],
            tolerance_m,
        }
    }

    /// Records a measured loss (dB) between two site indices, symmetrically.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the loss is not finite.
    pub fn record(&mut self, a: usize, b: usize, loss_db: f64) {
        assert!(a < self.sites.len() && b < self.sites.len(), "site index");
        assert!(loss_db.is_finite(), "measured loss must be finite");
        let n = self.sites.len();
        self.loss[a * n + b] = loss_db;
        self.loss[b * n + a] = loss_db;
    }

    fn site_near(&self, p: Point) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &s) in self.sites.iter().enumerate() {
            let d = s.distance(p);
            if d <= self.tolerance_m && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl<M: PathLossModel> PathLossModel for MeasuredPathLoss<M> {
    fn path_loss_db(&self, a: Point, b: Point) -> f64 {
        if let (Some(sa), Some(sb)) = (self.site_near(a), self.site_near(b)) {
            let v = self.loss[sa * self.sites.len() + sb];
            if v.is_finite() {
                return v;
            }
        }
        self.base.path_loss_db(a, b)
    }
}

/// Adds deterministic log-normal shadowing on top of any model: each
/// unordered position pair gets a reproducible pseudo-random offset with
/// the configured standard deviation (clamped at ±3σ). Useful for
/// robustness studies without breaking determinism of the benchmarks.
#[derive(Debug, Clone)]
pub struct Shadowed<M> {
    base: M,
    sigma_db: f64,
    seed: u64,
}

impl<M: PathLossModel> Shadowed<M> {
    /// Wraps `base` with shadowing of standard deviation `sigma_db`.
    pub fn new(base: M, sigma_db: f64, seed: u64) -> Self {
        Shadowed {
            base,
            sigma_db,
            seed,
        }
    }

    /// Deterministic standard-normal-ish sample for a position pair
    /// (sum of uniform hashes, Irwin–Hall approximation).
    fn sample(&self, a: Point, b: Point) -> f64 {
        // order-independent pair key at centimeter resolution
        let q = |v: f64| (v * 100.0).round() as i64;
        let (ka, kb) = ((q(a.x), q(a.y)), (q(b.x), q(b.y)));
        let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [lo.0, lo.1, hi.0, hi.1] {
            h ^= v as u64;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
        }
        // 12 uniforms in [0,1): sum ~ N(6, 1)
        let mut acc = 0.0;
        let mut state = h;
        for _ in 0..12 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc += (state >> 11) as f64 / (1u64 << 53) as f64;
        }
        (acc - 6.0).clamp(-3.0, 3.0)
    }
}

impl<M: PathLossModel> PathLossModel for Shadowed<M> {
    fn path_loss_db(&self, a: Point, b: Point) -> f64 {
        (self.base.path_loss_db(a, b) + self.sigma_db * self.sample(a, b)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::{Material, Segment, Wall};

    #[test]
    fn free_space_reference_at_2_4ghz() {
        // well-known figure: ~40.05 dB at 1 m
        let pl0 = reference_loss_db(2.4e9);
        assert!((pl0 - 40.05).abs() < 0.05, "pl0 = {}", pl0);
    }

    #[test]
    fn log_distance_grows_with_distance() {
        let m = LogDistance::indoor_2_4ghz();
        let a = Point::new(0.0, 0.0);
        let mut prev = 0.0;
        for d in [1.0, 2.0, 5.0, 10.0, 50.0] {
            let pl = m.path_loss_db(a, Point::new(d, 0.0));
            assert!(pl > prev);
            prev = pl;
        }
        // doubling distance adds 10 n log10(2) ~ 8.43 dB at n=2.8
        let d1 = m.path_loss_db(a, Point::new(10.0, 0.0));
        let d2 = m.path_loss_db(a, Point::new(20.0, 0.0));
        assert!((d2 - d1 - 8.4288).abs() < 1e-3);
    }

    #[test]
    fn min_distance_floor_applies() {
        let m = LogDistance::indoor_2_4ghz();
        let a = Point::new(3.0, 3.0);
        assert_eq!(m.path_loss_db(a, a), m.pl0_db);
        assert_eq!(
            m.path_loss_db(a, Point::new(3.0, 3.5)),
            m.pl0_db // 0.5 m clamps to 1 m
        );
    }

    #[test]
    fn multiwall_adds_wall_losses() {
        let mut plan = FloorPlan::new(20.0, 10.0);
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0)),
            material: Material::Concrete,
        });
        let base = LogDistance::indoor_2_4ghz();
        let mw = MultiWall::new(base, &plan);
        let a = Point::new(5.0, 5.0);
        let b = Point::new(15.0, 5.0);
        assert!((mw.path_loss_db(a, b) - base.path_loss_db(a, b) - 12.0).abs() < 1e-12);
        // no wall in the way: identical to base
        let c = Point::new(8.0, 2.0);
        assert_eq!(mw.path_loss_db(a, c), base.path_loss_db(a, c));
    }

    #[test]
    fn measured_table_overrides_base() {
        let base = LogDistance::indoor_2_4ghz();
        let sites = vec![Point::new(0.0, 0.0), Point::new(20.0, 0.0)];
        let mut m = MeasuredPathLoss::new(base, sites, 0.5);
        m.record(0, 1, 77.7);
        // exactly at the sites: measured value wins, both directions
        assert_eq!(m.path_loss_db(Point::new(0.0, 0.0), Point::new(20.0, 0.0)), 77.7);
        assert_eq!(m.path_loss_db(Point::new(20.0, 0.0), Point::new(0.0, 0.0)), 77.7);
        // within tolerance: still measured
        assert_eq!(
            m.path_loss_db(Point::new(0.3, 0.0), Point::new(20.0, 0.2)),
            77.7
        );
        // unmeasured pair: falls back to the analytic model
        let far = Point::new(5.0, 9.0);
        assert_eq!(
            m.path_loss_db(Point::new(0.0, 0.0), far),
            base.path_loss_db(Point::new(0.0, 0.0), far)
        );
    }

    #[test]
    #[should_panic(expected = "site index")]
    fn measured_rejects_bad_site() {
        let mut m = MeasuredPathLoss::new(LogDistance::indoor_2_4ghz(), vec![], 0.5);
        m.record(0, 0, 50.0);
    }

    #[test]
    fn shadowing_is_deterministic_and_symmetric() {
        let base = LogDistance::indoor_2_4ghz();
        let sh = Shadowed::new(base, 4.0, 42);
        let a = Point::new(1.0, 2.0);
        let b = Point::new(15.0, 7.0);
        let v1 = sh.path_loss_db(a, b);
        let v2 = sh.path_loss_db(a, b);
        assert_eq!(v1, v2);
        assert_eq!(sh.path_loss_db(b, a), v1); // symmetric pair key
        // bounded deviation from the base model
        assert!((v1 - base.path_loss_db(a, b)).abs() <= 3.0 * 4.0 + 1e-9);
        // a different seed moves the sample (with overwhelming probability)
        let sh2 = Shadowed::new(base, 4.0, 43);
        assert_ne!(sh2.path_loss_db(a, b), v1);
    }

    #[test]
    fn shadowing_zero_sigma_is_identity() {
        let base = LogDistance::indoor_2_4ghz();
        let sh = Shadowed::new(base, 0.0, 1);
        let a = Point::new(0.0, 0.0);
        let b = Point::new(30.0, 4.0);
        assert_eq!(sh.path_loss_db(a, b), base.path_loss_db(a, b));
    }

    #[test]
    fn multiwall_monotone_in_wall_count() {
        let mut plan = FloorPlan::new(40.0, 10.0);
        for x in [10.0, 20.0, 30.0] {
            plan.add_wall(Wall {
                segment: Segment::new(Point::new(x, 0.0), Point::new(x, 10.0)),
                material: Material::Brick,
            });
        }
        let mw = MultiWall::new(LogDistance::indoor_2_4ghz(), &plan);
        let a = Point::new(5.0, 5.0);
        let one = mw.path_loss_db(a, Point::new(15.0, 5.0));
        let two = mw.path_loss_db(a, Point::new(25.0, 5.0));
        let three = mw.path_loss_db(a, Point::new(35.0, 5.0));
        assert!(one < two && two < three);
        // each extra wall adds its 8 dB on top of distance growth
        assert!(two - one > 8.0);
    }
}
