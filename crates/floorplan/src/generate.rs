//! Synthetic floor-plan generators.
//!
//! We do not have the authors' building SVG, so these generators produce
//! parametric office plans with the same character as Fig. 1 of the paper:
//! an 80 m x 45 m floor with two rows of rooms along a central corridor,
//! concrete exterior walls, brick room dividers with door gaps, plus helper
//! grids of candidate device locations and evaluation points.

use crate::geom::{Point, Segment};
use crate::plan::{FloorPlan, Marker, MarkerKind, Material, Wall};

/// Parameters for [`office_floor`].
#[derive(Debug, Clone)]
pub struct OfficeParams {
    /// Total width in meters.
    pub width: f64,
    /// Total height in meters.
    pub height: f64,
    /// Number of rooms along the top and bottom band.
    pub rooms_per_band: usize,
    /// Corridor height in meters (centered vertically).
    pub corridor_height: f64,
    /// Width of the door gap left in each room's corridor-facing wall.
    pub door_width: f64,
}

impl Default for OfficeParams {
    fn default() -> Self {
        OfficeParams {
            width: 80.0,
            height: 45.0,
            rooms_per_band: 8,
            corridor_height: 5.0,
            door_width: 1.2,
        }
    }
}

/// Adds a wall segment with a centered gap of `gap` meters (two segments),
/// or the whole segment when `gap <= 0`.
fn wall_with_gap(plan: &mut FloorPlan, a: Point, b: Point, material: Material, gap: f64) {
    let len = a.distance(b);
    if gap <= 0.0 || gap >= len {
        if gap < len {
            plan.add_wall(Wall {
                segment: Segment::new(a, b),
                material,
            });
        }
        return;
    }
    let dir = (b - a) * (1.0 / len);
    let half = (len - gap) / 2.0;
    plan.add_wall(Wall {
        segment: Segment::new(a, a + dir * half),
        material,
    });
    plan.add_wall(Wall {
        segment: Segment::new(b - dir * half, b),
        material,
    });
}

/// Builds a two-band office floor: rooms above and below a central corridor.
///
/// # Examples
///
/// ```
/// use floorplan::generate::{office_floor, OfficeParams};
///
/// let plan = office_floor(&OfficeParams::default());
/// assert_eq!(plan.width(), 80.0);
/// assert!(plan.walls().len() > 20);
/// ```
///
/// # Panics
///
/// Panics if the corridor is as tall as the floor or `rooms_per_band == 0`.
pub fn office_floor(p: &OfficeParams) -> FloorPlan {
    assert!(p.corridor_height < p.height, "corridor taller than floor");
    assert!(p.rooms_per_band > 0, "need at least one room per band");
    let mut plan = FloorPlan::new(p.width, p.height);
    let (w, h) = (p.width, p.height);
    // Exterior concrete shell.
    let corners = [
        Point::new(0.0, 0.0),
        Point::new(w, 0.0),
        Point::new(w, h),
        Point::new(0.0, h),
    ];
    for i in 0..4 {
        plan.add_wall(Wall {
            segment: Segment::new(corners[i], corners[(i + 1) % 4]),
            material: Material::Concrete,
        });
    }
    let band_h = (h - p.corridor_height) / 2.0;
    let corridor_top = band_h;
    let corridor_bot = band_h + p.corridor_height;
    // Corridor walls with a door per room.
    let room_w = w / p.rooms_per_band as f64;
    for r in 0..p.rooms_per_band {
        let x0 = r as f64 * room_w;
        let x1 = x0 + room_w;
        wall_with_gap(
            &mut plan,
            Point::new(x0, corridor_top),
            Point::new(x1, corridor_top),
            Material::Brick,
            p.door_width,
        );
        wall_with_gap(
            &mut plan,
            Point::new(x0, corridor_bot),
            Point::new(x1, corridor_bot),
            Material::Brick,
            p.door_width,
        );
    }
    // Dividers between rooms in each band (doorless; rooms open on corridor).
    for r in 1..p.rooms_per_band {
        let x = r as f64 * room_w;
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(x, 0.0), Point::new(x, corridor_top)),
            material: Material::Brick,
        });
        plan.add_wall(Wall {
            segment: Segment::new(Point::new(x, corridor_bot), Point::new(x, h)),
            material: Material::Brick,
        });
    }
    plan
}

/// Returns an `nx x ny` grid of points inside the plan with a margin, e.g.
/// candidate relay/anchor locations.
pub fn position_grid(plan: &FloorPlan, nx: usize, ny: usize, margin: f64) -> Vec<Point> {
    assert!(nx >= 1 && ny >= 1);
    let w = plan.width() - 2.0 * margin;
    let h = plan.height() - 2.0 * margin;
    let mut pts = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let x = if nx == 1 { 0.5 } else { i as f64 / (nx - 1) as f64 };
            let y = if ny == 1 { 0.5 } else { j as f64 / (ny - 1) as f64 };
            pts.push(Point::new(margin + x * w, margin + y * h));
        }
    }
    pts
}

/// Populates `plan` with markers for the paper's data-collection template:
/// `n_sensors` sensors spread over the rooms, one sink near the center, and
/// a relay-candidate grid. Returns `(sensors, sink, relays)` positions.
pub fn data_collection_markers(
    plan: &mut FloorPlan,
    n_sensors: usize,
    relay_grid: (usize, usize),
) -> (Vec<Point>, Point, Vec<Point>) {
    let sensor_cols = (n_sensors as f64).sqrt().ceil() as usize;
    let sensor_rows = n_sensors.div_ceil(sensor_cols);
    let sensor_pts: Vec<Point> = position_grid(plan, sensor_cols, sensor_rows.max(1), 4.0)
        .into_iter()
        .take(n_sensors)
        .collect();
    for &p in &sensor_pts {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::Sensor,
        });
    }
    let sink = Point::new(plan.width() / 2.0, plan.height() / 2.0);
    plan.add_marker(Marker {
        position: sink,
        kind: MarkerKind::Sink,
    });
    let relays = position_grid(plan, relay_grid.0, relay_grid.1, 2.0);
    for &p in &relays {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::Relay,
        });
    }
    (sensor_pts, sink, relays)
}

/// Populates one building of a multi-building (campus/district) instance:
/// `n_sensors` sensor markers spread over the rooms plus a relay-candidate
/// grid — like [`data_collection_markers`] but with **no sink**, since a
/// campus has a single sink overall rather than one per building. Returns
/// `(sensors, relays)` positions in building-local coordinates; add the
/// building's origin to place them in the campus frame.
pub fn building_markers(
    plan: &mut FloorPlan,
    n_sensors: usize,
    relay_grid: (usize, usize),
) -> (Vec<Point>, Vec<Point>) {
    let sensor_cols = (n_sensors as f64).sqrt().ceil() as usize;
    let sensor_rows = n_sensors.div_ceil(sensor_cols.max(1));
    let sensor_pts: Vec<Point> = position_grid(plan, sensor_cols.max(1), sensor_rows.max(1), 4.0)
        .into_iter()
        .take(n_sensors)
        .collect();
    for &p in &sensor_pts {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::Sensor,
        });
    }
    let relays = position_grid(plan, relay_grid.0, relay_grid.1, 2.0);
    for &p in &relays {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::Relay,
        });
    }
    (sensor_pts, relays)
}

/// Populates `plan` with localization markers: an anchor-candidate grid and
/// an evaluation-point grid. Returns `(anchors, eval_points)`.
pub fn localization_markers(
    plan: &mut FloorPlan,
    anchor_grid: (usize, usize),
    eval_grid: (usize, usize),
) -> (Vec<Point>, Vec<Point>) {
    let anchors = position_grid(plan, anchor_grid.0, anchor_grid.1, 2.0);
    for &p in &anchors {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::Anchor,
        });
    }
    let evals = position_grid(plan, eval_grid.0, eval_grid.1, 5.0);
    for &p in &evals {
        plan.add_marker(Marker {
            position: p,
            kind: MarkerKind::EvalPoint,
        });
    }
    (anchors, evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(plan: &FloorPlan, kind: MarkerKind) -> usize {
        plan.markers().iter().filter(|m| m.kind == kind).count()
    }

    #[test]
    fn office_floor_structure() {
        let plan = office_floor(&OfficeParams::default());
        assert_eq!(plan.width(), 80.0);
        assert_eq!(plan.height(), 45.0);
        // 4 exterior + 8 rooms * 2 bands * 2 segments (door gaps) + 7*2 dividers
        assert_eq!(plan.walls().len(), 4 + 8 * 2 * 2 + 14);
    }

    #[test]
    fn corridor_is_clear_rooms_are_walled() {
        let plan = office_floor(&OfficeParams::default());
        let corridor_y = 22.5; // center
        // along the corridor: no walls crossed
        assert_eq!(
            plan.crossing_count(Point::new(5.0, corridor_y), Point::new(75.0, corridor_y)),
            0
        );
        // room to room through a divider
        assert!(plan.crossing_count(Point::new(5.0, 5.0), Point::new(15.0, 5.0)) >= 1);
        // room to corridor through the band wall (not through a door)
        assert!(plan.crossing_count(Point::new(2.0, 5.0), Point::new(2.0, corridor_y)) >= 1);
    }

    #[test]
    fn door_gap_lets_signal_through() {
        let p = OfficeParams::default();
        let plan = office_floor(&p);
        let room_w = p.width / p.rooms_per_band as f64;
        let door_x = room_w / 2.0; // door centered per room
        let band_h = (p.height - p.corridor_height) / 2.0;
        // ray passing vertically through the door center
        assert_eq!(
            plan.crossing_count(
                Point::new(door_x, band_h - 1.0),
                Point::new(door_x, band_h + 1.0)
            ),
            0
        );
    }

    #[test]
    fn position_grid_counts_and_bounds() {
        let plan = FloorPlan::new(10.0, 6.0);
        let pts = position_grid(&plan, 4, 3, 1.0);
        assert_eq!(pts.len(), 12);
        for p in &pts {
            assert!(p.x >= 1.0 && p.x <= 9.0);
            assert!(p.y >= 1.0 && p.y <= 5.0);
        }
        let single = position_grid(&plan, 1, 1, 1.0);
        assert_eq!(single[0], Point::new(5.0, 3.0));
    }

    #[test]
    fn data_collection_marker_counts() {
        let mut plan = office_floor(&OfficeParams::default());
        let (sensors, _sink, relays) = data_collection_markers(&mut plan, 35, (10, 10));
        assert_eq!(sensors.len(), 35);
        assert_eq!(relays.len(), 100);
        assert_eq!(count(&plan, MarkerKind::Sensor), 35);
        assert_eq!(count(&plan, MarkerKind::Sink), 1);
        assert_eq!(count(&plan, MarkerKind::Relay), 100);
        // total node count mirrors the paper's 136-node template
        assert_eq!(plan.markers().len(), 136);
    }

    #[test]
    fn building_markers_have_no_sink() {
        let mut plan = office_floor(&OfficeParams::default());
        let (sensors, relays) = building_markers(&mut plan, 7, (4, 3));
        assert_eq!(sensors.len(), 7);
        assert_eq!(relays.len(), 12);
        assert_eq!(count(&plan, MarkerKind::Sensor), 7);
        assert_eq!(count(&plan, MarkerKind::Relay), 12);
        assert_eq!(count(&plan, MarkerKind::Sink), 0);
    }

    #[test]
    fn localization_marker_counts() {
        let mut plan = office_floor(&OfficeParams::default());
        let (anchors, evals) = localization_markers(&mut plan, (15, 10), (15, 9));
        assert_eq!(anchors.len(), 150);
        assert_eq!(evals.len(), 135);
    }
}
