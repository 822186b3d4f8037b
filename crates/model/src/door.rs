//! Doors and staircase entrances.

use crate::ids::{DoorId, Floor, PartitionId};
use idq_geom::Point2;

/// Passage directionality of a door (§I: one-directional doors are common,
/// e.g. airport security control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Passable both ways.
    Bidirectional,
    /// Passable only from `partitions[0]` to `partitions[1]`.
    OneWay,
}

/// What kind of connection the door is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoorKind {
    /// An ordinary door between two same-floor partitions.
    Interior,
    /// A staircase entrance: one side is a staircase partition. The paper
    /// represents the two ends of a staircase as doors on the staircase's
    /// two ends (§II-A).
    StaircaseEntrance,
}

/// A door connecting exactly two partitions.
///
/// Distances to and from doors use the door's midpoint `position` (paper,
/// footnote 1). Doors can be temporarily closed (temporal variation,
/// §III-C.1) and are tombstoned (`active = false`) rather than removed.
#[derive(Clone, Debug)]
pub struct Door {
    /// Identifier (arena index).
    pub id: DoorId,
    /// Door midpoint in the plane.
    pub position: Point2,
    /// Floor the doorway is on.
    pub floor: Floor,
    /// The two partitions the door connects. For [`Direction::OneWay`],
    /// passage is allowed from `partitions[0]` into `partitions[1]` only.
    pub partitions: [PartitionId; 2],
    /// Directionality.
    pub direction: Direction,
    /// Interior door or staircase entrance.
    pub kind: DoorKind,
    /// Whether the door is currently open (closed doors block movement but
    /// remain in the space).
    pub open: bool,
    /// Tombstone flag: `false` once the door is removed from the topology.
    pub active: bool,
}

impl Door {
    /// Returns `true` if this door connects partition `p` (to anything).
    #[inline]
    pub(crate) fn touches(&self, p: PartitionId) -> bool {
        self.partitions[0] == p || self.partitions[1] == p
    }

    /// The partition on the other side of the door from `p`, if `p` is one
    /// of its sides.
    #[inline]
    pub fn other_side(&self, p: PartitionId) -> Option<PartitionId> {
        if self.partitions[0] == p {
            Some(self.partitions[1])
        } else if self.partitions[1] == p {
            Some(self.partitions[0])
        } else {
            None
        }
    }

    /// Whether movement from `from` to `to` through this door is allowed by
    /// the door itself (openness, liveness and directionality — the caller
    /// checks partition liveness separately).
    pub(crate) fn allows(&self, from: PartitionId, to: PartitionId) -> bool {
        if !self.open || !self.active {
            return false;
        }
        match self.direction {
            Direction::Bidirectional => {
                (self.partitions[0] == from && self.partitions[1] == to)
                    || (self.partitions[1] == from && self.partitions[0] == to)
            }
            Direction::OneWay => self.partitions[0] == from && self.partitions[1] == to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door(direction: Direction) -> Door {
        Door {
            id: DoorId(0),
            position: Point2::new(0.0, 0.0),
            floor: 0,
            partitions: [PartitionId(1), PartitionId(2)],
            direction,
            kind: DoorKind::Interior,
            open: true,
            active: true,
        }
    }

    #[test]
    fn bidirectional_allows_both_ways() {
        let d = door(Direction::Bidirectional);
        assert!(d.allows(PartitionId(1), PartitionId(2)));
        assert!(d.allows(PartitionId(2), PartitionId(1)));
        assert!(!d.allows(PartitionId(1), PartitionId(3)));
    }

    #[test]
    fn one_way_allows_single_direction() {
        let d = door(Direction::OneWay);
        assert!(d.allows(PartitionId(1), PartitionId(2)));
        assert!(!d.allows(PartitionId(2), PartitionId(1)));
    }

    #[test]
    fn closed_or_inactive_blocks_everything() {
        let mut d = door(Direction::Bidirectional);
        d.open = false;
        assert!(!d.allows(PartitionId(1), PartitionId(2)));
        d.open = true;
        d.active = false;
        assert!(!d.allows(PartitionId(1), PartitionId(2)));
    }

    #[test]
    fn other_side_lookup() {
        let d = door(Direction::Bidirectional);
        assert_eq!(d.other_side(PartitionId(1)), Some(PartitionId(2)));
        assert_eq!(d.other_side(PartitionId(2)), Some(PartitionId(1)));
        assert_eq!(d.other_side(PartitionId(9)), None);
        assert!(d.touches(PartitionId(1)));
        assert!(!d.touches(PartitionId(9)));
    }
}
