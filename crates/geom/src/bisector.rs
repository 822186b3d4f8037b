//! Additive-weighted bisectors (§II-C.2, Table II).
//!
//! In the single-partition multi-path case, the partition is divided by the
//! Additive Weighted Voronoi Diagram of its doors: door `d_i` carries the
//! weight `w_i = |q, d_i|_I`, and the bisector between doors `d_i`, `d_j` is
//!
//! ```text
//! b_ij = { p : |p, d_i|_E + w_i = |p, d_j|_E + w_j }
//! ```
//!
//! Depending on the weights the bisector is a straight line (equal weights),
//! one branch of a hyperbola with foci `d_i`, `d_j`, or *null* — one door
//! dominates the whole plane (Table II). If an uncertainty region lies on a
//! single side, all of its instances route through the same door, which is
//! what makes the single-path fast path (Eq. 3) applicable.

use crate::circle::Circle;
use crate::fp::EPSILON;
use crate::point::Point2;

/// Which door wins a comparison through the weighted bisector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `|p,d_i| + w_i < |p,d_j| + w_j`: door *i* gives the shorter route.
    I,
    /// Door *j* gives the shorter route.
    J,
}

/// The geometric shape of the bisector (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BisectorShape {
    /// Equal weights: the perpendicular bisector of the two foci.
    Line,
    /// Distinct weights with `|w_i − w_j| < |d_i, d_j|_E`: one hyperbola
    /// branch, curved around the cheaper door.
    Hyperbola,
    /// `w_j − w_i ≥ |d_i, d_j|_E`: door *i* dominates everywhere; the
    /// bisector does not exist.
    NullIDominates,
    /// Door *j* dominates everywhere.
    NullJDominates,
}

/// An additive-weighted bisector between two weighted sites (doors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedBisector {
    /// First door position.
    pub(crate) di: Point2,
    /// Accumulated weight of the first door (`|q, d_i|_I`).
    pub(crate) wi: f64,
    /// Second door position.
    pub(crate) dj: Point2,
    /// Accumulated weight of the second door.
    pub(crate) wj: f64,
}

impl WeightedBisector {
    /// Creates the bisector for two weighted doors.
    #[inline]
    pub fn new(di: Point2, wi: f64, dj: Point2, wj: f64) -> Self {
        WeightedBisector { di, wi, dj, wj }
    }

    /// The *signed clearance* `f(p) = (|p,d_i| + w_i) − (|p,d_j| + w_j)`.
    ///
    /// Negative means door *i* wins. `f` is 2-Lipschitz in `p`, which powers
    /// the conservative region tests below.
    #[inline]
    pub(crate) fn clearance(&self, p: Point2) -> f64 {
        (p.dist(self.di) + self.wi) - (p.dist(self.dj) + self.wj)
    }

    /// Classifies the bisector shape per Table II.
    pub(crate) fn shape(&self) -> BisectorShape {
        let d = self.di.dist(self.dj);
        let diff = self.wj - self.wi; // > 0 favours door i
        if diff.abs() <= EPSILON {
            BisectorShape::Line
        } else if diff >= d - EPSILON {
            // |p,di| − |p,dj| ≤ d < diff ⇒ f(p) < 0 everywhere.
            BisectorShape::NullIDominates
        } else if -diff >= d - EPSILON {
            BisectorShape::NullJDominates
        } else {
            BisectorShape::Hyperbola
        }
    }

    /// If the whole disk provably lies on one side, returns that side.
    ///
    /// Sound but conservative: uses the 2-Lipschitz bound
    /// `|f(p) − f(c)| ≤ 2·|p − c|`, so a disk with `|f(c)| > 2r` is on a
    /// single side. Callers fall back to per-instance tests when `None` is
    /// returned (the paper's "if the object intersects the bisector, check
    /// all its instances").
    pub fn circle_side(&self, c: &Circle) -> Option<Side> {
        match self.shape() {
            BisectorShape::NullIDominates => return Some(Side::I),
            BisectorShape::NullJDominates => return Some(Side::J),
            _ => {}
        }
        let f = self.clearance(c.center);
        if f < -2.0 * c.radius - EPSILON {
            Some(Side::I)
        } else if f > 2.0 * c.radius + EPSILON {
            Some(Side::J)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(wi: f64, wj: f64) -> WeightedBisector {
        WeightedBisector::new(Point2::new(-5.0, 0.0), wi, Point2::new(5.0, 0.0), wj)
    }

    // ---- Table II: the three shapes -------------------------------------

    #[test]
    fn table2_equal_weights_is_line() {
        assert_eq!(b(7.0, 7.0).shape(), BisectorShape::Line);
        // The perpendicular bisector of the foci: x = 0.
        assert!(b(7.0, 7.0).clearance(Point2::new(0.0, 3.0)).abs() <= EPSILON);
        assert!(b(7.0, 7.0).clearance(Point2::new(-1.0, 3.0)) < -EPSILON);
        assert!(b(7.0, 7.0).clearance(Point2::new(1.0, 3.0)) > EPSILON);
    }

    #[test]
    fn table2_moderate_weight_gap_is_hyperbola() {
        // |di,dj| = 10; weight gap 4 < 10 ⇒ hyperbola.
        let bi = b(3.0, 7.0);
        assert_eq!(bi.shape(), BisectorShape::Hyperbola);
        // The bisector crosses the focal axis where |p,di| − |p,dj| = 4:
        // at x = 2 on the segment (|p,di| = 7, |p,dj| = 3).
        assert!(bi.clearance(Point2::new(2.0, 0.0)).abs() <= EPSILON);
        assert!(bi.clearance(Point2::new(0.0, 0.0)) < -EPSILON);
        assert!(bi.clearance(Point2::new(4.0, 0.0)) > EPSILON);
    }

    #[test]
    fn table2_large_weight_gap_is_null() {
        // Weight gap ≥ focal distance: the cheap door dominates everywhere.
        assert_eq!(b(0.0, 10.0).shape(), BisectorShape::NullIDominates);
        assert_eq!(b(0.0, 25.0).shape(), BisectorShape::NullIDominates);
        assert_eq!(b(25.0, 0.0).shape(), BisectorShape::NullJDominates);
        // Everywhere: even right next to the expensive door.
        let bi = b(0.0, 25.0);
        assert!(bi.clearance(Point2::new(5.0, 0.0)) < -EPSILON);
    }

    // ---- Hyperbola geometry ---------------------------------------------

    #[test]
    fn hyperbola_points_satisfy_defining_equation() {
        let bi = b(3.0, 7.0);
        // Sample points where f = 0 along vertical lines: solve numerically.
        for y in [0.5, 2.0, 10.0] {
            // Bisect f(x, y) = 0 for x in [-5, 5].
            let (mut lo, mut hi) = (-5.0, 5.0);
            for _ in 0..80 {
                let mid = (lo + hi) / 2.0;
                if bi.clearance(Point2::new(mid, y)) < 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let p = Point2::new((lo + hi) / 2.0, y);
            // |p,di| + wi == |p,dj| + wj on the curve.
            assert!(
                (p.dist(bi.di) + bi.wi - (p.dist(bi.dj) + bi.wj)).abs() < 1e-9,
                "point {p} not on bisector"
            );
        }
    }

    // ---- Region side tests ----------------------------------------------

    #[test]
    fn circle_clearly_on_one_side() {
        let bi = b(0.0, 0.0); // bisector is x = 0
        let c = Circle::new(Point2::new(-20.0, 0.0), 3.0);
        assert_eq!(bi.circle_side(&c), Some(Side::I));
        let c = Circle::new(Point2::new(20.0, 0.0), 3.0);
        assert_eq!(bi.circle_side(&c), Some(Side::J));
    }

    #[test]
    fn circle_straddling_is_undecided() {
        let bi = b(0.0, 0.0);
        let c = Circle::new(Point2::new(0.5, 0.0), 3.0);
        assert_eq!(bi.circle_side(&c), None);
    }

    #[test]
    fn null_shape_decides_any_region() {
        let bi = b(0.0, 25.0);
        let c = Circle::new(Point2::new(4.9, 0.0), 100.0);
        assert_eq!(bi.circle_side(&c), Some(Side::I));
    }

    #[test]
    fn conservative_test_never_lies() {
        // Whenever circle_side says Some(side), every sampled point of the
        // disk must agree.
        let bi = b(2.0, 6.5);
        for cx in [-15.0, -6.0, -1.0, 2.0, 9.0, 18.0] {
            let c = Circle::new(Point2::new(cx, 1.0), 2.5);
            if let Some(side) = bi.circle_side(&c) {
                for i in 0..32 {
                    let theta = 2.0 * std::f64::consts::PI * (i as f64) / 32.0;
                    for rho in [0.0, 1.25, 2.5] {
                        let p = Point2::new(
                            c.center.x + rho * theta.cos(),
                            c.center.y + rho * theta.sin(),
                        );
                        let f = bi.clearance(p);
                        let agrees = match side {
                            Side::I => f <= EPSILON,
                            Side::J => f >= -EPSILON,
                        };
                        assert!(
                            agrees,
                            "disk at {cx} claimed {side:?} but {p} has clearance {f}"
                        );
                    }
                }
            }
        }
    }
}
