//! Dense integer identifiers for indoor entities.
//!
//! Partitions and doors live in arenas inside [`crate::IndoorSpace`];
//! identifiers are indices into those arenas. Deleted entities are
//! tombstoned, never reused, so an id observed once stays valid for the
//! lifetime of the space (lookups on deleted entities report inactivity
//! rather than dangling data).

/// Floor index (ground floor = 0).
pub type Floor = u16;

/// Identifier of an indoor partition (room, hallway or staircase).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The arena index of this partition.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a door (or staircase entrance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DoorId(pub u32);

impl DoorId {
    /// The arena index of this door.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DoorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut s = idq_geom::IdSet::default();
        s.insert(PartitionId(3));
        s.insert(PartitionId(3));
        assert_eq!(s.len(), 1);
        assert!(DoorId(1) < DoorId(2));
        assert_eq!(PartitionId(7).index(), 7);
        assert_eq!(format!("{} {}", PartitionId(1), DoorId(2)), "P1 d2");
    }
}
