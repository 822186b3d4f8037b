//! Indoor positions: a planar point bound to a floor.

use crate::ids::Floor;
use idq_geom::{Point2, Point3};

/// A position inside the building: planar coordinates plus a floor index.
///
/// Query points, door positions and object instances are all
/// `IndoorPoint`s. The 3D lift (for geometric lower bounds against the
/// indR-tree) multiplies the floor index by the building's floor height.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndoorPoint {
    /// Planar position on the floor.
    pub point: Point2,
    /// Floor index.
    pub floor: Floor,
}

impl IndoorPoint {
    /// Creates an indoor position.
    #[inline]
    pub const fn new(point: Point2, floor: Floor) -> Self {
        IndoorPoint { point, floor }
    }

    /// Lifts to 3D given the floor height (metres per floor).
    #[inline]
    pub fn at_elevation(self, floor_height: f64) -> Point3 {
        self.point.at_z(self.floor as f64 * floor_height)
    }
}

impl std::fmt::Display for IndoorPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@F{}", self.point, self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elevation_lift() {
        let p = IndoorPoint::new(Point2::new(1.0, 2.0), 3);
        let q = p.at_elevation(4.0);
        assert_eq!(q, Point3::new(1.0, 2.0, 12.0));
    }
}
