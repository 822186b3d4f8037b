//! Circles — the uncertainty regions of indoor moving objects (§V-A).

use crate::point::Point2;
use crate::rect::Rect2;

/// A circle `(c, r)`: centred at `c` with radius `r` (paper notation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Circle {
    /// Centre.
    pub center: Point2,
    /// Radius, metres (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; the radius is clamped to be non-negative.
    #[inline]
    pub fn new(center: Point2, radius: f64) -> Self {
        Circle {
            center,
            radius: radius.max(0.0),
        }
    }

    /// Returns `true` if `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius + crate::fp::EPSILON
    }

    /// Tight axis-aligned bounding box.
    #[inline]
    pub fn bbox(&self) -> Rect2 {
        Rect2::from_bounds(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }
}

impl std::fmt::Display for Circle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, r={:.2})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_distances() {
        let c = Circle::new(Point2::new(0.0, 0.0), 5.0);
        assert!(c.contains(Point2::new(3.0, 4.0)));
        assert!(!c.contains(Point2::new(4.0, 4.0)));
    }

    #[test]
    fn bbox_is_tight() {
        let c = Circle::new(Point2::new(2.0, 3.0), 1.5);
        assert_eq!(c.bbox(), Rect2::from_bounds(0.5, 1.5, 3.5, 4.5));
    }

    #[test]
    fn negative_radius_clamped() {
        let c = Circle::new(Point2::new(0.0, 0.0), -1.0);
        assert_eq!(c.radius, 0.0);
        assert!(c.contains(Point2::new(0.0, 0.0)));
    }
}
