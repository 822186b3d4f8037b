//! The object layer (§III-A.3): per-unit buckets plus the `o-table` —
//! **sharded by floor** for fine-grained structural sharing.
//!
//! Every leaf index unit carries a bucket of the objects overlapping it;
//! the `o-table` maps each object to all units it overlaps (an uncertain
//! object may straddle several partitions, hence several buckets). Both
//! directions are maintained under object and topology updates.
//!
//! Copy-on-write layout: the o-table is split into one [`FloorShard`] per
//! floor behind its own [`Arc`] (routed by the floor of each object's
//! search MBR), and every bucket is individually `Arc`-shared. Cloning a
//! layer is therefore O(floors + units) pointer bumps, and a mutation
//! deep-copies only the o-table shard(s) of the touched floor(s) plus the
//! buckets whose membership actually changes — an intra-floor move costs
//! O(objects on that floor) map entries and O(changed buckets) bucket
//! copies, never O(all objects).

use crate::error::IndexError;
use crate::units::UnitId;
use idq_geom::{IdMap, IdSet, Mbr3};
use idq_model::Floor;
use idq_objects::{FloorShards, ObjectId, Shard};
use std::sync::Arc;

#[derive(Clone, Debug)]
struct ObjEntry {
    /// Units the object overlaps, `Arc`-shared so shard copies bump a
    /// refcount instead of reallocating every unit list.
    units: Arc<[UnitId]>,
    mbr: Mbr3,
}

/// One floor's slice of the `o-table`: the per-floor unit of structural
/// sharing between object-layer versions (the index-side sibling of
/// `idq_objects::StoreShard`).
///
/// A shard records every object whose search MBR lies on its floor; all
/// mutation goes through the owning [`ObjectLayer`], which routes by the
/// MBR's floor and copy-on-writes only the shard(s) it lands in.
#[derive(Clone, Debug, Default)]
pub struct FloorShard {
    o_table: IdMap<ObjectId, ObjEntry>,
}

impl FloorShard {
    /// `true` iff no objects are filed on this floor.
    pub(crate) fn is_empty(&self) -> bool {
        self.o_table.is_empty()
    }

    /// Whether this shard holds `id`.
    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.o_table.contains_key(&id)
    }
}

impl Shard for FloorShard {
    fn contains_id(&self, id: ObjectId) -> bool {
        self.contains(id)
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

/// Buckets + o-table.
#[derive(Clone, Debug, Default)]
pub struct ObjectLayer {
    /// Per-unit buckets, individually `Arc`-shared: a layer clone bumps
    /// one refcount per unit slot, and an update deep-copies only the
    /// buckets whose membership changes.
    buckets: Vec<Arc<Vec<ObjectId>>>,
    /// The o-table, sharded by floor (see [`FloorShard`]).
    shards: FloorShards<FloorShard>,
    /// Total indexed objects across all shards.
    count: usize,
}

impl ObjectLayer {
    /// Empty layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Ensures bucket slots exist for `slots` units.
    pub(crate) fn grow(&mut self, slots: usize) {
        if self.buckets.len() < slots {
            self.buckets.resize_with(slots, Arc::default);
        }
    }

    fn bucket_push(&mut self, u: UnitId, id: ObjectId) {
        self.grow(u.index() + 1);
        Arc::make_mut(&mut self.buckets[u.index()]).push(id);
    }

    fn bucket_drop(&mut self, u: UnitId, id: ObjectId) {
        if let Some(bucket) = self.buckets.get_mut(u.index()) {
            Arc::make_mut(bucket).retain(|&o| o != id);
        }
    }

    /// Registers an object in the given units with its search MBR. The
    /// object is filed under the MBR's floor (object MBRs are planar).
    pub(crate) fn insert(
        &mut self,
        id: ObjectId,
        units: Vec<UnitId>,
        mbr: Mbr3,
    ) -> Result<(), IndexError> {
        if self.shards.find(id).is_some() {
            return Err(IndexError::ObjectAlreadyIndexed(id));
        }
        for &u in &units {
            self.bucket_push(u, id);
        }
        self.shards.slot_mut(mbr.floor_lo).o_table.insert(
            id,
            ObjEntry {
                units: units.into(),
                mbr,
            },
        );
        self.shards.file(id, mbr.floor_lo);
        self.count += 1;
        Ok(())
    }

    /// Re-registers an object under a new unit set and search MBR, editing
    /// only the buckets whose membership actually changes. A move within
    /// one partition typically keeps an identical unit list, reducing the
    /// bucket maintenance to an MBR overwrite; a move across floors
    /// re-homes the o-table entry, touching both floors' shards.
    pub(crate) fn update(
        &mut self,
        id: ObjectId,
        units: Vec<UnitId>,
        mbr: Mbr3,
    ) -> Result<(), IndexError> {
        let old_f = self
            .shards
            .find(id)
            .ok_or(IndexError::ObjectNotIndexed(id))?;
        self.update_in_shard(old_f, id, units, mbr);
        Ok(())
    }

    fn update_in_shard(&mut self, old_f: usize, id: ObjectId, units: Vec<UnitId>, mbr: Mbr3) {
        let old_units = Arc::clone(
            &self
                .shards
                .get(old_f as Floor)
                .expect("caller located the shard")
                .o_table[&id]
                .units,
        );
        let units = if old_units.as_ref() == units.as_slice() {
            // Same unit set: no bucket edits, and the shared unit list is
            // reused (the update reduces to an o-table entry overwrite).
            old_units
        } else {
            for &u in old_units.iter().filter(|u| !units.contains(u)) {
                self.bucket_drop(u, id);
            }
            for &u in units.iter().filter(|u| !old_units.contains(u)) {
                self.bucket_push(u, id);
            }
            units.into()
        };
        let new_f = self.shards.slot(mbr.floor_lo);
        let entry = ObjEntry { units, mbr };
        if old_f != new_f {
            self.shards.make_mut(old_f).o_table.remove(&id);
            self.shards.file(id, mbr.floor_lo);
        }
        self.shards.make_mut(new_f).o_table.insert(id, entry);
    }

    /// Unregisters an object, returning the (shared) unit list it
    /// occupied — an `Arc`, not a copy, since most callers discard it.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Result<Arc<[UnitId]>, IndexError> {
        let f = self
            .shards
            .find(id)
            .ok_or(IndexError::ObjectNotIndexed(id))?;
        Ok(self.remove_in_shard(f, id))
    }

    fn remove_in_shard(&mut self, f: usize, id: ObjectId) -> Arc<[UnitId]> {
        let entry = self
            .shards
            .make_mut(f)
            .o_table
            .remove(&id)
            .expect("caller located the id");
        self.shards.unfile(id);
        for &u in entry.units.iter() {
            self.bucket_drop(u, id);
        }
        self.count -= 1;
        entry.units
    }

    /// The bucket of one unit.
    pub fn objects_in(&self, u: UnitId) -> &[ObjectId] {
        self.buckets
            .get(u.index())
            .map(|b| b.as_slice())
            .unwrap_or(&[])
    }

    fn entry(&self, id: ObjectId) -> Option<&ObjEntry> {
        let f = self.shards.find(id)?;
        self.shards.get(f as Floor)?.o_table.get(&id)
    }

    /// The units an object overlaps — the `o-table` lookup.
    pub fn units_of(&self, id: ObjectId) -> Result<&[UnitId], IndexError> {
        self.entry(id)
            .map(|e| e.units.as_ref())
            .ok_or(IndexError::ObjectNotIndexed(id))
    }

    /// The search MBR stored for an object (uncertainty region ∪
    /// instances).
    pub fn object_mbr(&self, id: ObjectId) -> Result<Mbr3, IndexError> {
        self.entry(id)
            .map(|e| e.mbr)
            .ok_or(IndexError::ObjectNotIndexed(id))
    }

    /// All object ids registered in any of the given units (deduplicated).
    pub(crate) fn objects_in_units<'a>(
        &self,
        units: impl Iterator<Item = &'a UnitId>,
    ) -> Vec<ObjectId> {
        let mut seen = IdSet::default();
        let mut out = Vec::new();
        for &u in units {
            for &o in self.objects_in(u) {
                if seen.insert(o) {
                    out.push(o);
                }
            }
        }
        out
    }

    // ---- shard introspection (structural-sharing contract) ---------------

    /// Number of floor shards (highest floor an object was ever filed
    /// under, plus one — shards are never dropped, only emptied).
    pub fn shard_count(&self) -> usize {
        self.shards.slot_count()
    }

    /// Whether `self` and `other` share floor `floor`'s o-table shard
    /// **structurally** (see [`FloorShards::same_shard`]).
    pub fn same_shard(&self, other: &Self, floor: Floor) -> bool {
        self.shards.same_shard(&other.shards, floor)
    }

    /// Test/maintenance helper: verifies bucket ↔ o-table consistency
    /// (including that every entry is filed under its MBR's floor and the
    /// object count matches).
    /// Panics on violation.
    pub(crate) fn validate(&self) {
        let mut entries = 0;
        for (f, shard) in self.shards.iter().enumerate() {
            for (id, entry) in &shard.o_table {
                entries += 1;
                assert_eq!(
                    entry.mbr.floor_lo as usize, f,
                    "{id} filed under shard {f} but its MBR says floor {}",
                    entry.mbr.floor_lo
                );
                self.shards.assert_routed(*id, Some(f as Floor));
                for u in entry.units.iter() {
                    assert!(
                        self.objects_in(*u).contains(id),
                        "o-table says {id} in {u} but bucket disagrees"
                    );
                }
            }
        }
        assert_eq!(entries, self.count, "shard entries == len");
        for (u, bucket) in self.buckets.iter().enumerate() {
            for id in bucket.iter() {
                let entry = self.entry(*id).expect("bucket object in o-table");
                assert!(
                    entry.units.iter().any(|x| x.index() == u),
                    "bucket {u} holds {id} but o-table disagrees"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::Rect2;

    // Per-floor shards are staged on writer threads and `Arc`-shared with
    // reader snapshots; they must stay `Send + Sync` by construction.
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<FloorShard>();
        assert_send_sync::<ObjectLayer>();
    };

    fn mbr() -> Mbr3 {
        Mbr3::planar(Rect2::from_bounds(0.0, 0.0, 5.0, 5.0), 0, 0.0)
    }

    fn mbr_on(floor: Floor) -> Mbr3 {
        Mbr3::planar(
            Rect2::from_bounds(0.0, 0.0, 5.0, 5.0),
            floor,
            floor as f64 * 4.0,
        )
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut l = ObjectLayer::new();
        l.insert(ObjectId(1), vec![UnitId(0), UnitId(2)], mbr())
            .unwrap();
        assert_eq!(l.units_of(ObjectId(1)).unwrap(), &[UnitId(0), UnitId(2)]);
        assert_eq!(l.objects_in(UnitId(0)), &[ObjectId(1)]);
        assert_eq!(l.objects_in(UnitId(1)), &[] as &[ObjectId]);
        l.validate();
        let units = l.remove(ObjectId(1)).unwrap();
        assert_eq!(units.as_ref(), &[UnitId(0), UnitId(2)]);
        assert_eq!(l.count, 0);
        assert!(l.objects_in(UnitId(0)).is_empty());
        l.validate();
    }

    #[test]
    fn duplicate_and_missing_are_errors() {
        let mut l = ObjectLayer::new();
        l.insert(ObjectId(1), vec![UnitId(0)], mbr()).unwrap();
        assert!(matches!(
            l.insert(ObjectId(1), vec![UnitId(1)], mbr()),
            Err(IndexError::ObjectAlreadyIndexed(_))
        ));
        // Across floors too: the o-table is global even though sharded.
        assert!(matches!(
            l.insert(ObjectId(1), vec![UnitId(1)], mbr_on(2)),
            Err(IndexError::ObjectAlreadyIndexed(_))
        ));
        assert!(matches!(
            l.remove(ObjectId(9)),
            Err(IndexError::ObjectNotIndexed(_))
        ));
        assert!(matches!(
            l.units_of(ObjectId(9)),
            Err(IndexError::ObjectNotIndexed(_))
        ));
    }

    #[test]
    fn update_edits_only_changed_buckets() {
        let mut l = ObjectLayer::new();
        l.insert(ObjectId(1), vec![UnitId(0), UnitId(1)], mbr())
            .unwrap();
        l.insert(ObjectId(2), vec![UnitId(1)], mbr()).unwrap();
        // Same units: pure MBR overwrite, bucket order untouched.
        let m2 = Mbr3::planar(Rect2::from_bounds(1.0, 1.0, 2.0, 2.0), 0, 0.0);
        let before = l.clone();
        l.update(ObjectId(1), vec![UnitId(0), UnitId(1)], m2)
            .unwrap();
        assert_eq!(l.objects_in(UnitId(1)), &[ObjectId(1), ObjectId(2)]);
        assert_eq!(l.object_mbr(ObjectId(1)).unwrap(), m2);
        assert!(
            before
                .buckets
                .iter()
                .zip(&l.buckets)
                .all(|(a, b)| Arc::ptr_eq(a, b)),
            "same-units update touches no bucket"
        );
        // Shifted units: leaves unit 0, enters unit 2, stays in unit 1.
        l.update(ObjectId(1), vec![UnitId(1), UnitId(2)], mbr())
            .unwrap();
        assert!(l.objects_in(UnitId(0)).is_empty());
        assert_eq!(l.objects_in(UnitId(1)), &[ObjectId(1), ObjectId(2)]);
        assert_eq!(l.objects_in(UnitId(2)), &[ObjectId(1)]);
        l.validate();
        assert!(matches!(
            l.update(ObjectId(9), vec![UnitId(0)], mbr()),
            Err(IndexError::ObjectNotIndexed(_))
        ));
    }

    #[test]
    fn cross_floor_update_rehomes_the_entry() {
        let mut l = ObjectLayer::new();
        l.insert(ObjectId(1), vec![UnitId(0)], mbr_on(0)).unwrap();
        l.insert(ObjectId(2), vec![UnitId(5)], mbr_on(2)).unwrap();
        l.update(ObjectId(1), vec![UnitId(5)], mbr_on(2)).unwrap();
        assert!(l.shards.get(0).unwrap().is_empty());
        assert_eq!(l.shards.get(2).unwrap().o_table.len(), 2);
        assert_eq!(l.count, 2);
        assert_eq!(l.objects_in(UnitId(5)), &[ObjectId(2), ObjectId(1)]);
        l.validate();
    }

    #[test]
    fn clones_share_untouched_shards_and_buckets() {
        let mut a = ObjectLayer::new();
        a.insert(ObjectId(1), vec![UnitId(0)], mbr_on(0)).unwrap();
        a.insert(ObjectId(2), vec![UnitId(7)], mbr_on(1)).unwrap();
        let mut b = a.clone();
        assert!(a.same_shard(&b, 0) && a.same_shard(&b, 1));
        assert!(a
            .buckets
            .iter()
            .zip(&b.buckets)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        // Mutate floor 1 only: floor 0's shard and unit 0's bucket stay
        // structurally shared.
        b.update(ObjectId(2), vec![UnitId(6)], mbr_on(1)).unwrap();
        assert!(a.same_shard(&b, 0), "floor 0 untouched");
        assert!(!a.same_shard(&b, 1), "floor 1 copied");
        assert!(
            Arc::ptr_eq(&a.buckets[0], &b.buckets[0]),
            "unit 0's bucket untouched"
        );
        a.validate();
        b.validate();
    }

    #[test]
    fn dedup_across_buckets() {
        let mut l = ObjectLayer::new();
        l.insert(ObjectId(1), vec![UnitId(0), UnitId(1)], mbr())
            .unwrap();
        l.insert(ObjectId(2), vec![UnitId(1)], mbr()).unwrap();
        let units = [UnitId(0), UnitId(1)];
        let got = l.objects_in_units(units.iter());
        assert_eq!(got.len(), 2);
    }
}
