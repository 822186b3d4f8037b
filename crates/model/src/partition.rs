//! Indoor partitions: rooms, hallways, staircases.

use crate::ids::{DoorId, Floor, PartitionId};
use idq_geom::{Point2, Polygon, Rect2};

/// Kind of indoor partition. The paper regards hallways and staircases as
/// rooms for simplicity (§II-A); we keep the kind around because staircases
/// get special treatment in the skeleton tier and in intra-partition
/// distances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// An ordinary room.
    Room,
    /// A hallway / corridor (often irregular — decomposed into index units).
    Hallway,
    /// A staircase spanning two or more floors.
    Staircase,
}

/// An indoor partition: an atomic, door-connected region of the building.
///
/// The footprint is a simple polygon in the plane; a staircase covers a
/// consecutive floor interval `[floor_lo, floor_hi]` with the same
/// footprint on each floor, everything else covers exactly one floor.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Identifier (arena index).
    pub id: PartitionId,
    /// Kind of partition.
    pub kind: PartitionKind,
    /// Optional human-readable name (used by examples and the Figure-1
    /// regression tests).
    pub name: Option<String>,
    /// Lowest floor covered (inclusive).
    pub floor_lo: Floor,
    /// Highest floor covered (inclusive). Equal to `floor_lo` for
    /// single-floor partitions.
    pub floor_hi: Floor,
    /// Planar footprint.
    pub footprint: Polygon,
    /// Cached tight bounding box of the footprint.
    pub bbox: Rect2,
    /// Cached: the footprint *is* its bounding box (axis-aligned
    /// rectangle), so containment is a bbox test — the overwhelmingly
    /// common case in real floor plans, and the hot path of per-instance
    /// point location.
    pub is_rect: bool,
    /// Doors attached to this partition (kept in sync by the space).
    pub doors: Vec<DoorId>,
    /// Tombstone flag: `false` once deleted from the topology.
    pub active: bool,
}

impl Partition {
    /// Returns `true` if this partition exists on floor `f`.
    #[inline]
    pub(crate) fn covers_floor(&self, f: Floor) -> bool {
        self.floor_lo <= f && f <= self.floor_hi
    }

    /// Returns `true` if `p` on floor `f` lies inside the partition.
    #[inline]
    pub fn contains(&self, p: Point2, f: Floor) -> bool {
        self.covers_floor(f)
            && self.bbox.contains(p)
            && (self.is_rect || self.footprint.contains(p))
    }

    /// Footprint area (one floor).
    #[inline]
    pub fn area(&self) -> f64 {
        self.footprint.area()
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{}({})", self.id, n),
            None => write!(f, "{}", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Partition {
        let rect = Rect2::from_bounds(0.0, 0.0, 10.0, 8.0);
        Partition {
            id: PartitionId(0),
            kind: PartitionKind::Room,
            name: Some("room 12".into()),
            floor_lo: 2,
            floor_hi: 2,
            footprint: Polygon::from_rect(rect),
            bbox: rect,
            is_rect: true,
            doors: vec![],
            active: true,
        }
    }

    #[test]
    fn floor_coverage() {
        let r = room();
        assert!(r.covers_floor(2));
        assert!(!r.covers_floor(1));
    }

    #[test]
    fn containment_respects_floor() {
        let r = room();
        assert!(r.contains(Point2::new(5.0, 5.0), 2));
        assert!(!r.contains(Point2::new(5.0, 5.0), 1));
        assert!(!r.contains(Point2::new(50.0, 5.0), 2));
    }

    #[test]
    fn staircase_spans_floors() {
        let mut s = room();
        s.kind = PartitionKind::Staircase;
        s.floor_lo = 0;
        s.floor_hi = 3;
        assert!(s.contains(Point2::new(1.0, 1.0), 0));
        assert!(s.contains(Point2::new(1.0, 1.0), 3));
    }

    #[test]
    fn display_includes_name() {
        assert_eq!(format!("{}", room()), "P0(room 12)");
    }
}
