//! Axis-aligned rectangles with the point-distance primitives used by the
//! index tiers and the distance bounds.

use crate::fp::EPSILON;
use crate::point::Point2;

/// A closed axis-aligned rectangle `[lo.x, hi.x] × [lo.y, hi.y]`.
///
/// Rectangles are the geometry of index units (decomposed partitions) and of
/// every tree node in the indR-tree tier. Degenerate (zero-width) rectangles
/// are permitted; inverted ones are not constructible through [`Rect2::new`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect2 {
    /// Lower-left corner.
    pub lo: Point2,
    /// Upper-right corner.
    pub hi: Point2,
}

impl Rect2 {
    /// Creates the rectangle spanning `a` and `b` (corners in any order).
    #[inline]
    pub fn new(a: Point2, b: Point2) -> Self {
        Rect2 {
            lo: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its bounds `(x0, y0)` to `(x1, y1)`.
    #[inline]
    pub fn from_bounds(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect2::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    /// The empty rectangle for running unions (inverted sentinel bounds).
    ///
    /// `union` with any real rectangle yields that rectangle.
    #[inline]
    pub fn empty_sentinel() -> Self {
        Rect2 {
            lo: Point2::new(f64::INFINITY, f64::INFINITY),
            hi: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height along y.
    #[inline]
    pub(crate) fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.lo.midpoint(self.hi)
    }

    /// Ratio of the short side to the long side, in `[0, 1]`.
    ///
    /// This is the quantity Algorithm 3 compares against `T_shape`; a value
    /// of 1 is a square. A degenerate rectangle has ratio 0.
    #[inline]
    pub fn aspect_ratio(&self) -> f64 {
        let (w, h) = (self.width(), self.height());
        let (short, long) = if w < h { (w, h) } else { (h, w) };
        if long <= 0.0 {
            1.0
        } else {
            short / long
        }
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.lo.x - EPSILON
            && p.x <= self.hi.x + EPSILON
            && p.y >= self.lo.y - EPSILON
            && p.y <= self.hi.y + EPSILON
    }

    /// Returns `true` if the closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect2) -> bool {
        self.lo.x <= other.hi.x + EPSILON
            && other.lo.x <= self.hi.x + EPSILON
            && self.lo.y <= other.hi.y + EPSILON
            && other.lo.y <= self.hi.y + EPSILON
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect2) -> Rect2 {
        Rect2 {
            lo: Point2::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point2::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Returns `true` if `other` is fully inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect2) -> bool {
        self.lo.x <= other.lo.x + EPSILON
            && self.lo.y <= other.lo.y + EPSILON
            && self.hi.x >= other.hi.x - EPSILON
            && self.hi.y >= other.hi.y - EPSILON
    }

    /// Minimum Euclidean distance from `p` to the rectangle (0 if inside).
    ///
    /// This is `MINDIST` of the classic R-tree branch-and-bound search.
    #[inline]
    pub fn min_dist(&self, p: Point2) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum Euclidean distance from `p` to any point of the rectangle.
    #[inline]
    pub fn max_dist(&self, p: Point2) -> f64 {
        let dx = (p.x - self.lo.x).abs().max((p.x - self.hi.x).abs());
        let dy = (p.y - self.lo.y).abs().max((p.y - self.hi.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners, counter-clockwise from `lo`.
    #[inline]
    pub(crate) fn corners(&self) -> [Point2; 4] {
        [
            self.lo,
            Point2::new(self.hi.x, self.lo.y),
            self.hi,
            Point2::new(self.lo.x, self.hi.y),
        ]
    }

    /// Splits the rectangle at coordinate `c` perpendicular to the x-axis.
    ///
    /// Returns `None` when the cut misses the interior.
    pub fn split_at_x(&self, c: f64) -> Option<(Rect2, Rect2)> {
        if c <= self.lo.x + EPSILON || c >= self.hi.x - EPSILON {
            return None;
        }
        Some((
            Rect2::from_bounds(self.lo.x, self.lo.y, c, self.hi.y),
            Rect2::from_bounds(c, self.lo.y, self.hi.x, self.hi.y),
        ))
    }

    /// Splits the rectangle at coordinate `c` perpendicular to the y-axis.
    pub fn split_at_y(&self, c: f64) -> Option<(Rect2, Rect2)> {
        if c <= self.lo.y + EPSILON || c >= self.hi.y - EPSILON {
            return None;
        }
        Some((
            Rect2::from_bounds(self.lo.x, self.lo.y, self.hi.x, c),
            Rect2::from_bounds(self.lo.x, c, self.hi.x, self.hi.y),
        ))
    }
}

impl std::fmt::Display for Rect2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} — {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::{approx_eq, overlap_area};

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect2 {
        Rect2::from_bounds(x0, y0, x1, y1)
    }

    #[test]
    fn constructor_normalizes_corners() {
        let a = Rect2::new(Point2::new(5.0, 1.0), Point2::new(2.0, 7.0));
        assert_eq!(a, r(2.0, 1.0, 5.0, 7.0));
    }

    #[test]
    fn min_dist_zero_inside_and_correct_outside() {
        let b = r(0.0, 0.0, 10.0, 10.0);
        assert!(approx_eq(b.min_dist(Point2::new(5.0, 5.0)), 0.0));
        assert!(approx_eq(b.min_dist(Point2::new(13.0, 14.0)), 5.0));
        assert!(approx_eq(b.min_dist(Point2::new(-3.0, 5.0)), 3.0));
    }

    #[test]
    fn max_dist_reaches_far_corner() {
        let b = r(0.0, 0.0, 10.0, 10.0);
        assert!(approx_eq(
            b.max_dist(Point2::new(0.0, 0.0)),
            (200.0f64).sqrt()
        ));
        assert!(approx_eq(
            b.max_dist(Point2::new(5.0, 5.0)),
            (50.0f64).sqrt()
        ));
    }

    #[test]
    fn min_le_max_everywhere() {
        let b = r(-4.0, 2.0, 9.0, 3.5);
        for p in [
            Point2::new(0.0, 0.0),
            Point2::new(100.0, -50.0),
            Point2::new(2.0, 3.0),
        ] {
            assert!(b.min_dist(p) <= b.max_dist(p));
        }
    }

    #[test]
    fn union_and_intersection() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.union(&b), r(0.0, 0.0, 6.0, 6.0));
        assert!(approx_eq(overlap_area(&a, &b), 4.0));
        let c = r(10.0, 10.0, 11.0, 11.0);
        assert!(approx_eq(overlap_area(&a, &c), 0.0));
    }

    #[test]
    fn empty_sentinel_is_union_identity() {
        let e = Rect2::empty_sentinel();
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn aspect_ratio_basics() {
        assert!(approx_eq(r(0.0, 0.0, 10.0, 10.0).aspect_ratio(), 1.0));
        assert!(approx_eq(r(0.0, 0.0, 10.0, 2.0).aspect_ratio(), 0.2));
        assert!(approx_eq(r(0.0, 0.0, 2.0, 10.0).aspect_ratio(), 0.2));
    }

    #[test]
    fn splits_partition_area() {
        let b = r(0.0, 0.0, 10.0, 4.0);
        let (l, rgt) = b.split_at_x(6.0).unwrap();
        assert!(approx_eq(l.area() + rgt.area(), b.area()));
        assert!(b.split_at_x(0.0).is_none());
        assert!(b.split_at_x(10.0).is_none());
        let (lo, hi) = b.split_at_y(1.0).unwrap();
        assert!(approx_eq(lo.area() + hi.area(), b.area()));
    }
}
