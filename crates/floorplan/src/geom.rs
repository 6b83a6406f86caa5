//! Minimal 2-D geometry: points, segments, and intersection tests.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the floor-plan plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Vector length.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// 2-D cross product (z component).
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Dot product.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, o: Point) -> Point {
        Point::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, o: Point) -> Point {
        Point::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, k: f64) -> Point {
        Point::new(self.x * k, self.y * k)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Tests whether two segments properly intersect (cross at an interior
    /// point of both), with tolerance for near-touching endpoints treated as
    /// *not* crossing.
    ///
    /// Used for wall-crossing counts: a signal ray grazing a wall endpoint
    /// is not counted as penetrating the wall.
    pub fn crosses(self, other: Segment) -> bool {
        const EPS: f64 = 1e-9;
        let d1 = self.b - self.a;
        let d2 = other.b - other.a;
        let denom = d1.cross(d2);
        if denom.abs() < EPS {
            return false; // parallel or collinear: no proper crossing
        }
        let diff = other.a - self.a;
        let t = diff.cross(d2) / denom;
        let u = diff.cross(d1) / denom;
        t > EPS && t < 1.0 - EPS && u > EPS && u < 1.0 - EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!((b - a).norm(), 5.0);
        assert_eq!((a + b).x, 5.0);
        assert_eq!((a * 2.0).y, 4.0);
        assert_eq!(a.cross(b), 1.0 * 6.0 - 2.0 * 4.0);
        assert_eq!(a.dot(b), 4.0 + 12.0);
    }

    #[test]
    fn proper_crossing_detected() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(s1.crosses(s2));
        assert!(s2.crosses(s1));
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 1.0));
        assert!(!s1.crosses(s2));
    }

    #[test]
    fn touching_endpoints_do_not_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 2.0));
        assert!(!s1.crosses(s2));
        // T-junction: s3 ends exactly on s1's interior
        let s3 = Segment::new(Point::new(1.0, 0.0), Point::new(1.0, 2.0));
        assert!(!s1.crosses(s3));
    }

    #[test]
    fn disjoint_segments_do_not_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 7.0));
        assert!(!s1.crosses(s2));
    }

    #[test]
    fn crossing_through_wall_midline() {
        // horizontal ray through a vertical wall
        let ray = Segment::new(Point::new(-1.0, 0.5), Point::new(3.0, 0.5));
        let wall = Segment::new(Point::new(1.0, 0.0), Point::new(1.0, 1.0));
        assert!(ray.crosses(wall));
    }

    #[test]
    fn segment_length_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        assert_eq!(s.length(), 4.0);
    }
}
