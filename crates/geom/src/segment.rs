//! Line segments — used for walls, door placement validation and
//! point-to-boundary distances.

use crate::fp::EPSILON;
use crate::point::Point2;

/// A closed line segment between two endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Segment {
    /// First endpoint.
    pub(crate) a: Point2,
    /// Second endpoint.
    pub(crate) b: Point2,
}

impl Segment {
    /// Creates a segment.
    #[inline]
    pub(crate) const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// The point of the segment closest to `p`.
    pub(crate) fn closest_point(&self, p: Point2) -> Point2 {
        let d = self.b - self.a;
        let len_sq = d.x * d.x + d.y * d.y;
        if len_sq <= EPSILON * EPSILON {
            return self.a;
        }
        let t = ((p.x - self.a.x) * d.x + (p.y - self.a.y) * d.y) / len_sq;
        self.a.lerp(self.b, t.clamp(0.0, 1.0))
    }

    /// Minimum distance from `p` to the segment.
    #[inline]
    pub(crate) fn dist(&self, p: Point2) -> f64 {
        p.dist(self.closest_point(p))
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} — {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::approx_eq;

    #[test]
    fn closest_point_projects_and_clamps() {
        let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        assert_eq!(
            s.closest_point(Point2::new(5.0, 3.0)),
            Point2::new(5.0, 0.0)
        );
        assert_eq!(
            s.closest_point(Point2::new(-4.0, 3.0)),
            Point2::new(0.0, 0.0)
        );
        assert_eq!(
            s.closest_point(Point2::new(14.0, 3.0)),
            Point2::new(10.0, 0.0)
        );
    }

    #[test]
    fn distance_examples() {
        let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        assert!(approx_eq(s.dist(Point2::new(5.0, 3.0)), 3.0));
        assert!(approx_eq(s.dist(Point2::new(13.0, 4.0)), 5.0));
    }

    #[test]
    fn containment_and_alignment() {
        let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
        assert!(s.dist(Point2::new(3.0, 0.0)) <= EPSILON);
        assert!(s.dist(Point2::new(3.0, 0.5)) > EPSILON);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point2::new(1.0, 1.0), Point2::new(1.0, 1.0));
        assert!(approx_eq(s.dist(Point2::new(4.0, 5.0)), 5.0));
    }
}
