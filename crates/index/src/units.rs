//! Index units and the `h-table` (§III-A.2).
//!
//! Irregular partitions are decomposed into *index units* — regular
//! rectangles satisfying the `T_shape` aspect threshold (Algorithm 3) —
//! which become the leaf entries of the indR-tree. The `h-table` records
//! the unit → partition mapping; its reverse (partition → units) drives
//! incremental maintenance.

use idq_geom::{decompose, DecomposeConfig, IdMap, Mbr3};
use idq_model::{IndoorSpace, Partition, PartitionId};

/// Identifier of an index unit (dense arena index; tombstoned on removal).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub(crate) u32);

impl UnitId {
    /// Arena index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UnitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// One index unit: a rectangle of one partition, positioned in 3D.
#[derive(Clone, Debug)]
pub(crate) struct IndexUnit {
    /// Identifier.
    pub(crate) id: UnitId,
    /// The partition this unit came from (the `h-table` entry).
    pub(crate) partition: PartitionId,
    /// 3D MBR (spans all floors of the partition — staircases).
    pub(crate) mbr: Mbr3,
    /// Tombstone flag.
    pub(crate) active: bool,
}

/// Arena of index units plus the h-table in both directions.
#[derive(Clone, Debug, Default)]
pub struct UnitStore {
    units: Vec<IndexUnit>,
    by_partition: IdMap<PartitionId, Vec<UnitId>>,
}

impl UnitStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Decomposes `partition` into index units and registers them.
    /// Returns the new unit ids.
    pub(crate) fn add_partition(
        &mut self,
        space: &IndoorSpace,
        partition: &Partition,
        decompose_config: &DecomposeConfig,
    ) -> Vec<UnitId> {
        let rects = decompose(&partition.footprint, decompose_config);
        let z_lo = space.elevation(partition.floor_lo);
        let z_hi = space.elevation(partition.floor_hi);
        let mut ids = Vec::with_capacity(rects.len());
        for rect in rects {
            let id = UnitId(self.units.len() as u32);
            let mbr = Mbr3::spanning(rect, (partition.floor_lo, partition.floor_hi), (z_lo, z_hi));
            self.units.push(IndexUnit {
                id,
                partition: partition.id,
                mbr,
                active: true,
            });
            ids.push(id);
        }
        self.by_partition.insert(partition.id, ids.clone());
        ids
    }

    /// Tombstones all units of `partition`, returning them.
    pub(crate) fn remove_partition(&mut self, partition: PartitionId) -> Vec<UnitId> {
        let ids = self.by_partition.remove(&partition).unwrap_or_default();
        for &u in &ids {
            self.units[u.index()].active = false;
        }
        ids
    }

    /// The unit, if it exists (tombstones included).
    #[inline]
    pub(crate) fn get(&self, u: UnitId) -> Option<&IndexUnit> {
        self.units.get(u.index())
    }

    /// The partition of a unit — the `h-table` lookup.
    #[inline]
    pub fn partition_of(&self, u: UnitId) -> Option<PartitionId> {
        self.get(u).filter(|x| x.active).map(|x| x.partition)
    }

    /// The partitions owning `units`, ascending and deduplicated —
    /// `partition_of` over a unit list; tombstoned units own nothing.
    pub fn owning_partitions(&self, units: &[UnitId]) -> Vec<PartitionId> {
        let mut partitions: Vec<PartitionId> =
            units.iter().filter_map(|&u| self.partition_of(u)).collect();
        partitions.sort_unstable();
        partitions.dedup();
        partitions
    }

    /// Units of a partition — the reverse `h-table`.
    pub fn units_of(&self, p: PartitionId) -> &[UnitId] {
        self.by_partition.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over active units.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &IndexUnit> {
        self.units.iter().filter(|u| u.active)
    }

    /// Number of active units.
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    /// Number of unit slots (dense domain for direct-indexed side tables).
    pub(crate) fn slots(&self) -> usize {
        self.units.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point2, Rect2};
    use idq_model::FloorPlanBuilder;

    fn space_with_hallway() -> IndoorSpace {
        let mut b = FloorPlanBuilder::new(4.0);
        let room = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let hall = b
            .add_hallway(
                0,
                idq_geom::Polygon::from_rect(Rect2::from_bounds(0.0, 10.0, 100.0, 15.0)),
            )
            .unwrap();
        b.add_door_between(room, hall, Point2::new(5.0, 10.0))
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn room_is_one_unit_hallway_is_many() {
        let s = space_with_hallway();
        let mut store = UnitStore::new();
        let cfg = DecomposeConfig::default();
        let parts: Vec<_> = s.partitions().cloned().collect();
        for p in &parts {
            store.add_partition(&s, p, &cfg);
        }
        let room_units = store.units_of(parts[0].id);
        let hall_units = store.units_of(parts[1].id);
        assert_eq!(room_units.len(), 1);
        assert!(hall_units.len() > 1, "100×5 hallway must decompose");
        // h-table consistency in both directions.
        for &u in hall_units {
            assert_eq!(store.partition_of(u), Some(parts[1].id));
        }
        // Units tile the hallway footprint.
        let total: f64 = hall_units
            .iter()
            .map(|&u| store.get(u).unwrap().mbr.rect.area())
            .sum();
        assert!((total - 500.0).abs() < 1e-6);
    }

    #[test]
    fn remove_partition_tombstones_units() {
        let s = space_with_hallway();
        let mut store = UnitStore::new();
        let cfg = DecomposeConfig::default();
        let parts: Vec<_> = s.partitions().cloned().collect();
        for p in &parts {
            store.add_partition(&s, p, &cfg);
        }
        let before = store.len();
        let removed = store.remove_partition(parts[1].id);
        assert!(!removed.is_empty());
        assert_eq!(store.len(), before - removed.len());
        assert_eq!(store.partition_of(removed[0]), None);
        assert!(store.units_of(parts[1].id).is_empty());
        // Slots are preserved (ids stay dense).
        assert_eq!(store.slots(), before);
    }
}
