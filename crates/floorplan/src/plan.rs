//! Floor plans: walls with materials, device markers, and wall-crossing
//! queries for the multi-wall propagation model.

use crate::geom::{Point, Segment};
use std::fmt;

/// Wall material, carrying a typical 2.4-GHz penetration loss in dB.
///
/// Values follow the COST-231 multi-wall model literature (light vs heavy
/// wall classes) and common indoor measurement surveys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Load-bearing concrete: ~12 dB.
    Concrete,
    /// Brick interior wall: ~8 dB.
    Brick,
    /// Light drywall / plasterboard: ~3.5 dB.
    Drywall,
    /// Glass partition or window: ~2 dB.
    Glass,
    /// Wooden door or panel: ~3 dB.
    Wood,
    /// Custom attenuation in tenths of dB (e.g. `Custom(65)` = 6.5 dB).
    Custom(u16),
}

impl Material {
    /// Penetration loss in dB at 2.4 GHz.
    pub fn attenuation_db(self) -> f64 {
        match self {
            Material::Concrete => 12.0,
            Material::Brick => 8.0,
            Material::Drywall => 3.5,
            Material::Glass => 2.0,
            Material::Wood => 3.0,
            Material::Custom(tenths) => tenths as f64 / 10.0,
        }
    }

    /// Parses a material from its (case-insensitive) name, as used by SVG
    /// `class` attributes.
    pub fn from_name(name: &str) -> Option<Material> {
        match name.to_ascii_lowercase().as_str() {
            "concrete" => Some(Material::Concrete),
            "brick" => Some(Material::Brick),
            "drywall" | "plaster" => Some(Material::Drywall),
            "glass" | "window" => Some(Material::Glass),
            "wood" | "door" => Some(Material::Wood),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Material::Concrete => "concrete",
            Material::Brick => "brick",
            Material::Drywall => "drywall",
            Material::Glass => "glass",
            Material::Wood => "wood",
            Material::Custom(_) => "custom",
        }
    }
}

impl fmt::Display for Material {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Material::Custom(t) => write!(f, "custom({:.1} dB)", *t as f64 / 10.0),
            m => f.write_str(m.name()),
        }
    }
}

/// One wall: a segment plus its material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Geometry of the wall.
    pub segment: Segment,
    /// Material determining penetration loss.
    pub material: Material,
}

/// What a position marker on the plan denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkerKind {
    /// A fixed sensing end device.
    Sensor,
    /// The data sink / base station.
    Sink,
    /// A candidate relay position.
    Relay,
    /// A candidate localization anchor position.
    Anchor,
    /// A localization evaluation (mobile-node test) location.
    EvalPoint,
}

impl MarkerKind {
    /// Parses a marker kind from its (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<MarkerKind> {
        match name.to_ascii_lowercase().as_str() {
            "sensor" => Some(MarkerKind::Sensor),
            "sink" | "basestation" | "base" => Some(MarkerKind::Sink),
            "relay" => Some(MarkerKind::Relay),
            "anchor" => Some(MarkerKind::Anchor),
            "eval" | "evalpoint" | "test" => Some(MarkerKind::EvalPoint),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MarkerKind::Sensor => "sensor",
            MarkerKind::Sink => "sink",
            MarkerKind::Relay => "relay",
            MarkerKind::Anchor => "anchor",
            MarkerKind::EvalPoint => "eval",
        }
    }
}

/// A device/location marker on the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Marker {
    /// Location in meters.
    pub position: Point,
    /// Role of the location.
    pub kind: MarkerKind,
}

/// A rectangular floor plan with walls and markers.
///
/// # Examples
///
/// ```
/// use floorplan::{FloorPlan, Material, Point, Segment, Wall};
///
/// let mut plan = FloorPlan::new(20.0, 10.0);
/// plan.add_wall(Wall {
///     segment: Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0)),
///     material: Material::Brick,
/// });
/// let loss = plan.wall_loss_db(Point::new(2.0, 5.0), Point::new(18.0, 5.0));
/// assert_eq!(loss, 8.0); // one brick wall crossed
/// ```
#[derive(Debug, Clone, Default)]
pub struct FloorPlan {
    width: f64,
    height: f64,
    walls: Vec<Wall>,
    markers: Vec<Marker>,
}

impl FloorPlan {
    /// Creates an empty plan of `width x height` meters.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are not positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "floor plan dimensions must be positive"
        );
        FloorPlan {
            width,
            height,
            walls: Vec::new(),
            markers: Vec::new(),
        }
    }

    /// Plan width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Plan height in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Adds a wall.
    pub fn add_wall(&mut self, wall: Wall) {
        self.walls.push(wall);
    }

    /// Adds a marker.
    pub fn add_marker(&mut self, marker: Marker) {
        self.markers.push(marker);
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// All markers.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }

    /// Walls crossed by the straight ray `a -> b`.
    pub fn walls_crossed(&self, a: Point, b: Point) -> impl Iterator<Item = &Wall> {
        let ray = Segment::new(a, b);
        self.walls.iter().filter(move |w| ray.crosses(w.segment))
    }

    /// Number of walls crossed by the ray `a -> b`.
    pub fn crossing_count(&self, a: Point, b: Point) -> usize {
        self.walls_crossed(a, b).count()
    }

    /// Total wall penetration loss (dB) along the ray `a -> b` — the
    /// multi-wall term of the path-loss model.
    pub fn wall_loss_db(&self, a: Point, b: Point) -> f64 {
        self.walls_crossed(a, b)
            .map(|w| w.material.attenuation_db())
            .sum()
    }

    /// Checks a point lies within the plan bounds.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0.0 && p.x <= self.width && p.y >= 0.0 && p.y <= self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_room_plan() -> FloorPlan {
        // 20 x 10 with a vertical concrete wall at x=10 (door gap 4..6 left out)
        let mut plan = FloorPlan::new(20.0, 10.0);
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 4.0)),
            material: Material::Concrete,
        });
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(10.0, 6.0), Point::new(10.0, 10.0)),
            material: Material::Concrete,
        });
        plan
    }

    #[test]
    fn crossing_counts() {
        let plan = two_room_plan();
        // ray through the lower wall
        assert_eq!(plan.crossing_count(Point::new(2.0, 2.0), Point::new(18.0, 2.0)), 1);
        // ray through the door gap
        assert_eq!(plan.crossing_count(Point::new(2.0, 5.0), Point::new(18.0, 5.0)), 0);
        // within one room
        assert_eq!(plan.crossing_count(Point::new(1.0, 1.0), Point::new(8.0, 9.0)), 0);
    }

    #[test]
    fn wall_loss_sums_materials() {
        let mut plan = two_room_plan();
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(15.0, 0.0), Point::new(15.0, 10.0)),
            material: Material::Drywall,
        });
        let loss = plan.wall_loss_db(Point::new(2.0, 2.0), Point::new(18.0, 2.0));
        assert_eq!(loss, 12.0 + 3.5);
    }

    #[test]
    fn material_parsing_roundtrip() {
        for m in [
            Material::Concrete,
            Material::Brick,
            Material::Drywall,
            Material::Glass,
            Material::Wood,
        ] {
            assert_eq!(Material::from_name(m.name()), Some(m));
        }
        assert_eq!(Material::from_name("WINDOW"), Some(Material::Glass));
        assert_eq!(Material::from_name("adamantium"), None);
        assert_eq!(Material::Custom(65).attenuation_db(), 6.5);
    }

    #[test]
    fn marker_parsing() {
        assert_eq!(MarkerKind::from_name("Sensor"), Some(MarkerKind::Sensor));
        assert_eq!(MarkerKind::from_name("base"), Some(MarkerKind::Sink));
        assert_eq!(MarkerKind::from_name("eval"), Some(MarkerKind::EvalPoint));
        assert_eq!(MarkerKind::from_name("blimp"), None);
    }

    #[test]
    fn contains_bounds() {
        let plan = FloorPlan::new(10.0, 5.0);
        assert!(plan.contains(Point::new(0.0, 0.0)));
        assert!(plan.contains(Point::new(10.0, 5.0)));
        assert!(!plan.contains(Point::new(-0.1, 1.0)));
        assert!(!plan.contains(Point::new(3.0, 5.1)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = FloorPlan::new(0.0, 5.0);
    }
}
