//! The object store: the mutable ground-truth population of uncertain
//! objects beneath the index's object layer — **sharded by floor**.
//!
//! The store is split into one [`StoreShard`] per floor, each behind its
//! own [`Arc`]. Cloning a store therefore costs one reference-count bump
//! per floor, and mutating it deep-copies **only the shard(s) of the
//! floor(s) the mutation touches** (`Arc::make_mut` per shard): this is
//! what makes the engine's copy-on-write commits cheap — a version chain
//! of stores shares every untouched floor's population structurally.
//! Entries are additionally `Arc`-shared *within* a shard, so even the
//! touched shard's copy is one map clone of pointer-sized values, never a
//! deep copy of instance sets.

use crate::error::ObjectError;
use crate::object::{ObjectId, UncertainObject};
use crate::shards::{FloorShards, Shard};
use idq_geom::IdMap;
use idq_model::Floor;
use std::sync::Arc;

/// One floor's slice of the object population: the per-floor unit of
/// structural sharing between store versions.
///
/// Shards are reached through [`ObjectStore::shard`] (read-only); all
/// mutation goes through the owning [`ObjectStore`], which routes by each
/// object's floor and copy-on-writes only the shards it lands in.
#[derive(Clone, Debug, Default)]
pub struct StoreShard {
    objects: IdMap<ObjectId, Arc<UncertainObject>>,
}

impl StoreShard {
    /// `true` iff the floor is unpopulated.
    pub(crate) fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Whether this shard holds `id`.
    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Iterates over the floor's objects (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &UncertainObject> {
        self.objects.values().map(|arc| arc.as_ref())
    }
}

impl Shard for StoreShard {
    fn contains_id(&self, id: ObjectId) -> bool {
        self.contains(id)
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

/// Owns all live uncertain objects, addressed by [`ObjectId`].
///
/// The store is deliberately index-agnostic: the composite index's object
/// layer (buckets + o-table) references objects by id and is maintained by
/// the engine on every store mutation (the paper's §III-C.2 update flow:
/// an object update is a deletion followed by an insertion).
///
/// Internally the population is sharded by floor (see [`StoreShard`]):
/// lookups that only carry an id land on their shard through the O(1)
/// route directory (reads cost what they did before sharding), while
/// mutations route by the object's floor and copy-on-write exactly the
/// touched shard(s). A move across floors touches two shards; everything
/// else touches one.
#[derive(Clone, Debug, Default)]
pub struct ObjectStore {
    /// `shards[f]` is floor `f`'s slice of the population.
    shards: FloorShards<StoreShard>,
    /// Total live objects across all shards.
    count: usize,
    next_id: u64,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh object id (never reused).
    pub fn allocate_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts an object; the id must be unused (on *any* floor).
    pub fn insert(&mut self, object: UncertainObject) -> Result<(), ObjectError> {
        let id = object.id;
        if self.shards.find(id).is_some() {
            return Err(ObjectError::DuplicateObject(id));
        }
        self.reserve_id(id);
        let floor = object.floor;
        self.shards
            .slot_mut(floor)
            .objects
            .insert(id, Arc::new(object));
        self.shards.file(id, floor);
        self.count += 1;
        Ok(())
    }

    /// Keeps the id allocator ahead of an externally minted id *before* its
    /// insert lands ([`ObjectStore::insert`] reserves implicitly). Batch
    /// staging reserves every external id up front so ids it allocates for
    /// interleaved engine-sampled inserts match what sequential application
    /// would have produced — and never collide.
    pub fn reserve_id(&mut self, id: ObjectId) {
        self.next_id = self.next_id.max(id.0 + 1);
    }

    /// Removes an object, returning it. When the entry is still shared with
    /// another store version (copy-on-write clones), the returned value is
    /// a copy and the shared entry stays intact in the other versions.
    pub fn remove(&mut self, id: ObjectId) -> Result<UncertainObject, ObjectError> {
        let f = self.shards.find(id).ok_or(ObjectError::UnknownObject(id))?;
        let arc = self
            .shards
            .make_mut(f)
            .objects
            .remove(&id)
            .expect("the route located the id");
        self.shards.unfile(id);
        self.count -= 1;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Removes an object without materialising the removed value — the
    /// cheap form of [`ObjectStore::remove`] for callers that only need the
    /// entry gone (a shared entry is just un-referenced, never copied).
    pub fn discard(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let f = self.shards.find(id).ok_or(ObjectError::UnknownObject(id))?;
        self.shards.make_mut(f).objects.remove(&id);
        self.shards.unfile(id);
        self.count -= 1;
        Ok(())
    }

    /// Replaces an existing object in place — the atomic move primitive (a
    /// move never leaves the store without the object, unlike a
    /// remove-then-insert pair). The id must be present. A shared previous
    /// entry is just un-referenced, never copied. A move across floors
    /// re-homes the entry, touching both floors' shards.
    pub fn replace_discarding(&mut self, object: UncertainObject) -> Result<(), ObjectError> {
        let id = object.id;
        let old_f = self.shards.find(id).ok_or(ObjectError::UnknownObject(id))?;
        self.replace_in_shard(old_f, object);
        Ok(())
    }

    /// Re-files the entry held by shard `old_f` under the object's floor.
    fn replace_in_shard(&mut self, old_f: usize, object: UncertainObject) {
        let id = object.id;
        let floor = object.floor;
        let new_f = self.shards.slot(floor);
        if old_f != new_f {
            self.shards.make_mut(old_f).objects.remove(&id);
            self.shards.file(id, floor);
        }
        self.shards
            .make_mut(new_f)
            .objects
            .insert(id, Arc::new(object));
    }

    /// The id-allocation watermark: the next id [`ObjectStore::allocate_id`]
    /// would hand out. The allocator is part of a store value's observable
    /// state — a copy-on-write transaction that is dropped discards its
    /// allocations with it, which tests assert through this accessor.
    pub fn id_watermark(&self) -> u64 {
        self.next_id
    }

    /// Rewinds the id allocator to a watermark previously read with
    /// [`ObjectStore::id_watermark`] — for callers managing a store value
    /// directly (the engine's transactions instead discard their whole
    /// store copy, allocator included). If a live object holds an id at or
    /// above `watermark`, the rewind stops just past the live population's
    /// ceiling rather than risking a duplicate allocation.
    pub fn restore_id_watermark(&mut self, watermark: u64) {
        let floor = self.iter().map(|o| o.id.0 + 1).max().unwrap_or(0);
        self.next_id = watermark.max(floor);
    }

    /// Looks up an object.
    pub fn get(&self, id: ObjectId) -> Result<&UncertainObject, ObjectError> {
        self.shards
            .find(id)
            .and_then(|f| self.shards.get(f as Floor))
            .and_then(|s| s.objects.get(&id))
            .map(|arc| arc.as_ref())
            .ok_or(ObjectError::UnknownObject(id))
    }

    /// Looks up an object **shared**: the store's own reference-counted
    /// entry. History retention holds epochs' worth of object states; the
    /// shared form keeps a retained state one pointer, not a deep copy of
    /// the instance set, for as long as some version still holds the same
    /// entry.
    pub fn get_shared(&self, id: ObjectId) -> Result<Arc<UncertainObject>, ObjectError> {
        self.shards
            .find(id)
            .and_then(|f| self.shards.get(f as Floor))
            .and_then(|s| s.objects.get(&id))
            .map(Arc::clone)
            .ok_or(ObjectError::UnknownObject(id))
    }

    /// Returns `true` if `id` is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.shards.find(id).is_some()
    }

    /// Iterates over all objects (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &UncertainObject> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Object ids, sorted (deterministic iteration for tests/benches).
    pub fn ids_sorted(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.iter().map(|o| o.id).collect();
        v.sort_unstable();
        v
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` iff no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    // ---- shard introspection (structural-sharing contract) ---------------

    /// Number of floor shards (highest floor an object was ever filed
    /// under, plus one — shards are never dropped, only emptied).
    pub fn shard_count(&self) -> usize {
        self.shards.slot_count()
    }

    /// Read access to one floor's shard, if that floor has a slot.
    pub fn shard(&self, floor: Floor) -> Option<&StoreShard> {
        self.shards.get(floor)
    }

    /// Whether `self` and `other` share floor `floor`'s shard
    /// **structurally** (see [`FloorShards::same_shard`]). Tests use this
    /// to pin down the sharding invariant: a commit deep-copies only the
    /// shards it touches.
    pub fn same_shard(&self, other: &Self, floor: Floor) -> bool {
        self.shards.same_shard(&other.shards, floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::Point2;
    use idq_model::IndoorPoint;

    // Shards cross thread boundaries twice in the engine: staged batches
    // carry prepared objects onto submitting threads, and committed
    // stores are `Arc`-shared with reader snapshots. Losing `Send`/`Sync`
    // must be a compile error, not a stress-test failure.
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<StoreShard>();
        assert_send_sync::<ObjectStore>();
        assert_send_sync::<UncertainObject>();
    };

    fn point_obj(id: u64) -> UncertainObject {
        UncertainObject::point_object(ObjectId(id), IndoorPoint::new(Point2::new(0.0, 0.0), 0))
    }

    fn point_obj_on(id: u64, floor: Floor) -> UncertainObject {
        UncertainObject::point_object(ObjectId(id), IndoorPoint::new(Point2::new(0.0, 0.0), floor))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = ObjectStore::new();
        s.insert(point_obj(1)).unwrap();
        assert!(s.contains(ObjectId(1)));
        assert_eq!(s.get(ObjectId(1)).unwrap().id, ObjectId(1));
        assert_eq!(s.len(), 1);
        let o = s.remove(ObjectId(1)).unwrap();
        assert_eq!(o.id, ObjectId(1));
        assert!(s.is_empty());
        assert!(matches!(
            s.get(ObjectId(1)),
            Err(ObjectError::UnknownObject(_))
        ));
    }

    #[test]
    fn duplicate_rejected() {
        let mut s = ObjectStore::new();
        s.insert(point_obj(1)).unwrap();
        assert!(matches!(
            s.insert(point_obj(1)),
            Err(ObjectError::DuplicateObject(_))
        ));
        // Duplicates are rejected across floors too: ids are global.
        assert!(matches!(
            s.insert(point_obj_on(1, 3)),
            Err(ObjectError::DuplicateObject(_))
        ));
    }

    #[test]
    fn replace_swaps_in_place() {
        let mut s = ObjectStore::new();
        s.insert(point_obj(1)).unwrap();
        let replacement =
            UncertainObject::point_object(ObjectId(1), IndoorPoint::new(Point2::new(9.0, 9.0), 0));
        s.replace_discarding(replacement).unwrap();
        assert_eq!(
            s.get(ObjectId(1)).unwrap().region.center,
            Point2::new(9.0, 9.0)
        );
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s.replace_discarding(point_obj(7)),
            Err(ObjectError::UnknownObject(_))
        ));
    }

    #[test]
    fn replace_across_floors_rehomes_the_entry() {
        let mut s = ObjectStore::new();
        s.insert(point_obj_on(1, 0)).unwrap();
        s.replace_discarding(point_obj_on(1, 2)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.shard(0).unwrap().is_empty());
        assert_eq!(s.shard(2).unwrap().iter().count(), 1);
        s.replace_discarding(point_obj_on(1, 1)).unwrap();
        assert!(s.shard(1).unwrap().contains(ObjectId(1)));
        assert!(s.shard(2).unwrap().is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn watermark_round_trip_and_safety_floor() {
        let mut s = ObjectStore::new();
        let w = s.id_watermark();
        let a = s.allocate_id();
        let b = s.allocate_id();
        assert_eq!((a, b), (ObjectId(w), ObjectId(w + 1)));
        // Nothing was inserted: the rewind fully restores the allocator.
        s.restore_id_watermark(w);
        assert_eq!(s.allocate_id(), ObjectId(w));
        // With a live object above the watermark, the rewind stops at the
        // live population's ceiling instead of risking a duplicate id.
        s.insert(point_obj(10)).unwrap();
        s.restore_id_watermark(0);
        assert_eq!(s.allocate_id(), ObjectId(11));
    }

    #[test]
    fn id_allocation_skips_external_ids() {
        let mut s = ObjectStore::new();
        s.insert(point_obj(10)).unwrap();
        let id = s.allocate_id();
        assert!(id.0 > 10);
        assert!(!s.contains(id));
    }

    #[test]
    fn cloned_stores_share_entries_until_mutated() {
        let mut a = ObjectStore::new();
        a.insert(point_obj(1)).unwrap();
        a.insert(point_obj(2)).unwrap();
        let mut b = a.clone();
        // Removing from the clone leaves the original intact, and the
        // removed value is a faithful copy of the shared entry.
        let o = b.remove(ObjectId(1)).unwrap();
        assert_eq!(o.id, ObjectId(1));
        assert!(a.contains(ObjectId(1)));
        assert!(!b.contains(ObjectId(1)));
        // Replacing in the clone does not disturb the original either.
        let replacement =
            UncertainObject::point_object(ObjectId(2), IndoorPoint::new(Point2::new(7.0, 7.0), 0));
        b.replace_discarding(replacement).unwrap();
        assert_eq!(
            a.get(ObjectId(2)).unwrap().region.center,
            Point2::new(0.0, 0.0)
        );
        assert_eq!(
            b.get(ObjectId(2)).unwrap().region.center,
            Point2::new(7.0, 7.0)
        );
        // discard drops without materialising.
        b.discard(ObjectId(2)).unwrap();
        assert!(b.is_empty());
        assert!(matches!(
            b.discard(ObjectId(2)),
            Err(ObjectError::UnknownObject(_))
        ));
    }

    #[test]
    fn cloned_stores_share_untouched_floor_shards() {
        let mut a = ObjectStore::new();
        a.insert(point_obj_on(1, 0)).unwrap();
        a.insert(point_obj_on(2, 1)).unwrap();
        a.insert(point_obj_on(3, 2)).unwrap();
        let mut b = a.clone();
        assert!((0..3).all(|f| a.same_shard(&b, f)), "clones share all");
        // A floor-1 mutation deep-copies floor 1's shard only.
        b.replace_discarding({
            let mut o = point_obj_on(2, 1);
            o.region.center = Point2::new(5.0, 5.0);
            o
        })
        .unwrap();
        assert!(a.same_shard(&b, 0), "floor 0 untouched");
        assert!(!a.same_shard(&b, 1), "floor 1 copied");
        assert!(a.same_shard(&b, 2), "floor 2 untouched");
        // A cross-floor move touches exactly its two shards.
        let mut c = b.clone();
        c.replace_discarding(point_obj_on(3, 0)).unwrap();
        assert!(!b.same_shard(&c, 0));
        assert!(b.same_shard(&c, 1));
        assert!(!b.same_shard(&c, 2));
    }

    /// External ids far above the dense route table (`i << 40`) go to the
    /// route's spill map, and all share their low 40 bits in the shards'
    /// maps: every one reads back.
    #[test]
    fn shifted_external_ids_read_back() {
        let mut s = ObjectStore::new();
        let ids: Vec<ObjectId> = (1..=10_000u64).map(|i| ObjectId(i << 40)).collect();
        for (i, &id) in ids.iter().enumerate() {
            s.insert(point_obj_on(id.0, (i % 3) as Floor)).unwrap();
        }
        assert_eq!(s.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.get(id).unwrap().id, id);
            assert!(s.shard((i % 3) as Floor).unwrap().contains(id));
        }
        assert!(!s.contains(ObjectId(3 << 39)));
    }

    #[test]
    fn sorted_ids_deterministic() {
        let mut s = ObjectStore::new();
        for i in [5, 1, 9, 3] {
            s.insert(point_obj(i)).unwrap();
        }
        assert_eq!(
            s.ids_sorted(),
            vec![ObjectId(1), ObjectId(3), ObjectId(5), ObjectId(9)]
        );
    }
}
