//! 3D minimum bounding rectangles for the indR-tree tier.
//!
//! The paper (§III-A.2) stores partitions as *planar* rectangles positioned
//! in 3D: at tree-construction time every MBR gets a token vertical extent of
//! 1 cm so that R*-style volume-based heuristics do not degenerate, while at
//! query time the vertical extent is ignored (the partition is treated as a
//! 2D rectangle floating at its floor elevation). [`Mbr3`] encodes exactly
//! that behaviour: construction heuristics use [`Mbr3::build_volume`] (with
//! the 1 cm pad), and distance computations use the flattened z-interval.

use crate::point::Point3;
use crate::rect::Rect2;

/// The token vertical extent (metres) given to planar MBRs at build time.
pub(crate) const VERTICAL_PAD: f64 = 0.01;

/// An axis-aligned box: a planar rectangle spanning an elevation interval.
///
/// For a leaf index unit the interval is degenerate (`z_lo == z_hi`, the
/// floor's elevation); internal nodes covering several floors have a real
/// interval. The floor *indices* covered are tracked separately as an
/// inclusive range `[floor_lo, floor_hi]` because the skeleton tier reasons
/// about floors, not raw elevations (Eq. 10 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mbr3 {
    /// Planar footprint.
    pub rect: Rect2,
    /// Lowest elevation covered, metres.
    pub z_lo: f64,
    /// Highest elevation covered, metres.
    pub z_hi: f64,
    /// Lowest floor index covered (inclusive).
    pub floor_lo: u16,
    /// Highest floor index covered (inclusive).
    pub floor_hi: u16,
}

impl Mbr3 {
    /// An MBR for a single-floor planar rectangle.
    #[inline]
    pub fn planar(rect: Rect2, floor: u16, elevation: f64) -> Self {
        Mbr3 {
            rect,
            z_lo: elevation,
            z_hi: elevation,
            floor_lo: floor,
            floor_hi: floor,
        }
    }

    /// An MBR spanning several floors (e.g. a staircase partition).
    #[inline]
    pub fn spanning(rect: Rect2, floors: (u16, u16), elevations: (f64, f64)) -> Self {
        debug_assert!(floors.0 <= floors.1);
        debug_assert!(elevations.0 <= elevations.1);
        Mbr3 {
            rect,
            z_lo: elevations.0,
            z_hi: elevations.1,
            floor_lo: floors.0,
            floor_hi: floors.1,
        }
    }

    /// Sentinel for running unions.
    pub fn empty_sentinel() -> Self {
        Mbr3 {
            rect: Rect2::empty_sentinel(),
            z_lo: f64::INFINITY,
            z_hi: f64::NEG_INFINITY,
            floor_lo: u16::MAX,
            floor_hi: 0,
        }
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &Mbr3) -> Mbr3 {
        Mbr3 {
            rect: self.rect.union(&other.rect),
            z_lo: self.z_lo.min(other.z_lo),
            z_hi: self.z_hi.max(other.z_hi),
            floor_lo: self.floor_lo.min(other.floor_lo),
            floor_hi: self.floor_hi.max(other.floor_hi),
        }
    }

    /// Volume used by construction heuristics: the vertical side is padded
    /// by `VERTICAL_PAD` so planar boxes never have zero volume (§III-A.2).
    #[inline]
    pub fn build_volume(&self) -> f64 {
        self.rect.area() * (self.z_hi - self.z_lo + VERTICAL_PAD)
    }

    /// Minimum Euclidean distance from the 3D query point to the box, with
    /// the query-phase rule that the vertical extent contributes only the
    /// true elevation interval (no pad): the partition is a 2D rectangle
    /// distributed in 3D space.
    #[inline]
    pub fn min_dist(&self, q: Point3) -> f64 {
        let planar = self.rect.min_dist(q.xy());
        let dz = (self.z_lo - q.z).max(0.0).max(q.z - self.z_hi);
        (planar * planar + dz * dz).sqrt()
    }

    /// Returns `true` if floor `f` lies inside the covered floor interval —
    /// the `q.f ∈ [e.lf, e.uf]` test of Eq. 10.
    #[inline]
    pub fn covers_floor(&self, f: u16) -> bool {
        self.floor_lo <= f && f <= self.floor_hi
    }

    /// Returns `true` when the boxes share a point: planar footprints
    /// intersect and floor intervals overlap.
    #[inline]
    pub fn intersects(&self, other: &Mbr3) -> bool {
        self.rect.intersects(&other.rect)
            && self.floor_lo <= other.floor_hi
            && other.floor_lo <= self.floor_hi
    }
}

impl std::fmt::Display for Mbr3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} z[{:.2},{:.2}] floors[{},{}]",
            self.rect, self.z_lo, self.z_hi, self.floor_lo, self.floor_hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::approx_eq;

    fn unit_at(floor: u16, z: f64) -> Mbr3 {
        Mbr3::planar(Rect2::from_bounds(0.0, 0.0, 10.0, 10.0), floor, z)
    }

    #[test]
    fn planar_box_has_padded_volume_but_flat_distance() {
        let m = unit_at(0, 0.0);
        assert!(approx_eq(m.build_volume(), 100.0 * VERTICAL_PAD));
        // Query directly above the box: distance is purely vertical and does
        // NOT include the 1 cm pad.
        let q = Point3::new(5.0, 5.0, 4.0);
        assert!(approx_eq(m.min_dist(q), 4.0));
    }

    #[test]
    fn union_extends_floors_and_elevations() {
        let a = unit_at(0, 0.0);
        let b = unit_at(3, 12.0);
        let u = a.union(&b);
        assert_eq!((u.floor_lo, u.floor_hi), (0, 3));
        assert!(approx_eq(u.z_lo, 0.0));
        assert!(approx_eq(u.z_hi, 12.0));
        assert!(u.covers_floor(2));
        assert!(!u.covers_floor(4));
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let m = Mbr3::spanning(Rect2::from_bounds(0.0, 0.0, 10.0, 10.0), (0, 1), (0.0, 4.0));
        assert!(approx_eq(m.min_dist(Point3::new(5.0, 5.0, 2.0)), 0.0));
    }

    #[test]
    fn sentinel_union_identity() {
        let e = Mbr3::empty_sentinel();
        let a = unit_at(2, 8.0);
        assert_eq!(e.union(&a), a);
    }
}
