//! Planar and spatial points.

use std::ops::{Add, Mul, Sub};

/// A point in the horizontal plane of one floor, in metres.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point2 {
    /// East-west coordinate, metres.
    pub x: f64,
    /// North-south coordinate, metres.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    #[inline]
    pub(crate) fn dist_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint of the segment from `self` to `other`.
    #[inline]
    pub(crate) fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    #[inline]
    pub(crate) fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Lifts the planar point to 3D at elevation `z`.
    #[inline]
    pub fn at_z(self, z: f64) -> Point3 {
        Point3::new(self.x, self.y, z)
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A point in building space: a planar position plus an elevation.
///
/// Elevation is an absolute height in metres (floor index × floor height in
/// the synthetic buildings). The indR-tree stores 3D MBRs, so query points
/// carry their elevation for geometric lower bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point3 {
    /// East-west coordinate, metres.
    pub(crate) x: f64,
    /// North-south coordinate, metres.
    pub(crate) y: f64,
    /// Elevation, metres.
    pub(crate) z: f64,
}

impl Point3 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// The planar projection of the point.
    #[inline]
    pub(crate) fn xy(self) -> Point2 {
        Point2::new(self.x, self.y)
    }
}

impl std::fmt::Display for Point3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.2}, {:.2}, {:.2})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::approx_eq;

    #[test]
    fn planar_distance_is_pythagorean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!(approx_eq(a.dist(b), 5.0));
        assert!(approx_eq(a.dist_sq(b), 25.0));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new(1.5, -2.0);
        let b = Point2::new(-7.0, 0.25);
        assert!(approx_eq(a.dist(b), b.dist(a)));
        assert!(approx_eq(a.dist(a), 0.0));
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 6.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn spatial_distance_includes_elevation() {
        // A flat box at elevation 0 seen from 3 m across and 4 m up.
        let m =
            crate::mbr::Mbr3::planar(crate::rect::Rect2::from_bounds(0.0, 0.0, 0.0, 0.0), 0, 0.0);
        assert!(approx_eq(m.min_dist(Point3::new(0.0, 3.0, 4.0)), 5.0));
    }

    #[test]
    fn vector_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 5.0);
        assert_eq!(a + b, Point2::new(4.0, 7.0));
        assert_eq!(b - a, Point2::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
    }
}
