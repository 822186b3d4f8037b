//! [`FloorShards`] — the generic per-floor copy-on-write shard vector
//! shared by the object store and the index's object layer.
//!
//! Both layers slice their id-keyed state by floor behind one [`Arc`] per
//! floor, and both need the same scaffolding: grow-on-demand slots, an
//! O(1) id → floor **route directory**, `Arc::make_mut` on exactly the
//! touched shard, and structural-sharing introspection for the tests that
//! pin the sharding invariant. Keeping that scaffolding here means the
//! shard semantics (e.g. the absent-slot-vs-empty-shard sharing rule)
//! cannot silently diverge between the crates.
//!
//! The route directory is what keeps **reads** at pre-sharding cost: a
//! `store.get(id)` / o-table lookup lands on its shard in one dense-array
//! read instead of probing every floor's map. It is a flat `Vec<u32>`
//! indexed by id (plus a spill map for absurdly large external ids — an
//! [`IdMap`], whose per-process seed keeps crafted ids from forcing bucket
//! collisions), `Arc`-shared like the shards: copying it on first touch
//! per commit is a ~4 bytes/object `memcpy` — microseconds, against the
//! touched shard's own map clone.

use crate::object::ObjectId;
use idq_geom::IdMap;
use idq_model::Floor;
use std::sync::Arc;

/// One floor's slice of an id-keyed layer.
pub trait Shard: Clone + Default {
    /// Whether the slice holds `id`.
    fn contains_id(&self, id: ObjectId) -> bool;
    /// `true` iff the slice holds nothing.
    fn is_empty(&self) -> bool;
}

/// Ids below this use the dense route table (4 bytes per id ever
/// allocated); larger ids spill to a hash map so an absurd external id
/// cannot balloon the table.
const DENSE_ROUTE_CAP: u64 = 1 << 22;

/// Dense-slot sentinel for "no entry".
const ABSENT: u32 = u32::MAX;

/// The id → floor directory: dense for engine-allocated (sequential) ids,
/// spilling to a map for arbitrary external ids.
#[derive(Clone, Debug, Default)]
struct Route {
    dense: Vec<u32>,
    spill: IdMap<ObjectId, Floor>,
}

impl Route {
    fn get(&self, id: ObjectId) -> Option<Floor> {
        if id.0 < DENSE_ROUTE_CAP {
            match self.dense.get(id.0 as usize) {
                Some(&f) if f != ABSENT => Some(f as Floor),
                _ => None,
            }
        } else {
            self.spill.get(&id).copied()
        }
    }

    fn set(&mut self, id: ObjectId, floor: Floor) {
        if id.0 < DENSE_ROUTE_CAP {
            let i = id.0 as usize;
            if self.dense.len() <= i {
                self.dense.resize(i + 1, ABSENT);
            }
            self.dense[i] = floor as u32;
        } else {
            self.spill.insert(id, floor);
        }
    }

    fn clear(&mut self, id: ObjectId) {
        if id.0 < DENSE_ROUTE_CAP {
            if let Some(slot) = self.dense.get_mut(id.0 as usize) {
                *slot = ABSENT;
            }
        } else {
            self.spill.remove(&id);
        }
    }
}

/// A grow-on-demand vector of `Arc`-shared floor shards: `shards[f]` is
/// floor `f`'s slice, and a shared route directory maps each filed id to
/// its floor in O(1). Cloning is one refcount bump per floor (plus one
/// for the route); mutation goes through [`FloorShards::make_mut`] /
/// [`FloorShards::slot_mut`], which deep-copy exactly one shard — callers
/// keep the route in sync with [`FloorShards::file`] /
/// [`FloorShards::unfile`] next to every shard-map insert/remove (the
/// layers' `validate()` asserts the sync).
#[derive(Clone, Debug, Default)]
pub struct FloorShards<S> {
    shards: Vec<Arc<S>>,
    route: Arc<Route>,
}

impl<S: Shard> FloorShards<S> {
    /// Number of floor slots (highest floor ever filed under, plus one —
    /// slots are never dropped, only emptied).
    pub fn slot_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one floor's shard, if that floor has a slot.
    pub fn get(&self, floor: Floor) -> Option<&S> {
        self.shards.get(floor as usize).map(|s| s.as_ref())
    }

    /// Iterates over the shards in floor order.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.shards.iter().map(|s| s.as_ref())
    }

    /// The floor (= shard index) holding `id` — one route-directory read.
    pub fn find(&self, id: ObjectId) -> Option<usize> {
        self.route.get(id).map(|f| f as usize)
    }

    /// Records that `id` is filed under `floor`. Call next to the shard
    /// map insert (and on re-homing).
    pub fn file(&mut self, id: ObjectId, floor: Floor) {
        Arc::make_mut(&mut self.route).set(id, floor);
    }

    /// Removes `id` from the route directory. Call next to the shard map
    /// remove.
    pub fn unfile(&mut self, id: ObjectId) {
        Arc::make_mut(&mut self.route).clear(id);
    }

    /// Mutable access to shard `idx`, deep-copying it if it is shared
    /// with another version (`Arc::make_mut`).
    pub fn make_mut(&mut self, idx: usize) -> &mut S {
        Arc::make_mut(&mut self.shards[idx])
    }

    /// Ensures a slot exists for `floor` and returns its index.
    ///
    /// Slots are never dropped, so growth is permanent: callers are
    /// expected to validate floors against the world they model before
    /// filing under them (the engine rejects out-of-space floors up
    /// front) — an absurd floor here would cost `floor + 1` slots in
    /// every later clone.
    pub fn slot(&mut self, floor: Floor) -> usize {
        let f = floor as usize;
        if self.shards.len() <= f {
            self.shards.resize_with(f + 1, Arc::default);
        }
        f
    }

    /// [`FloorShards::slot`] + [`FloorShards::make_mut`] in one step.
    pub fn slot_mut(&mut self, floor: Floor) -> &mut S {
        let f = self.slot(floor);
        self.make_mut(f)
    }

    /// Whether `self` and `other` share floor `floor`'s shard
    /// **structurally** (the same heap allocation, not merely equal
    /// contents). Two versions related by commits that never touched
    /// `floor` share it; absent slots on both sides count as shared (both
    /// trivially empty), as does an absent slot against an empty shard.
    pub fn same_shard(&self, other: &Self, floor: Floor) -> bool {
        match (
            self.shards.get(floor as usize),
            other.shards.get(floor as usize),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            (Some(s), None) | (None, Some(s)) => s.is_empty(),
        }
    }

    /// Test support: asserts the route directory agrees with the shard
    /// contents for `id` being filed under `floor` (or not filed at all
    /// when `floor` is `None`). Panics on divergence.
    pub fn assert_routed(&self, id: ObjectId, floor: Option<Floor>) {
        assert_eq!(
            self.route.get(id),
            floor,
            "route directory diverged for {id:?}"
        );
        if let Some(f) = floor {
            assert!(
                self.get(f).is_some_and(|s| s.contains_id(id)),
                "route says {id:?} on floor {f} but the shard disagrees"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::IdSet;

    #[derive(Clone, Debug, Default)]
    struct TestShard(IdSet<ObjectId>);

    impl Shard for TestShard {
        fn contains_id(&self, id: ObjectId) -> bool {
            self.0.contains(&id)
        }
        fn is_empty(&self) -> bool {
            self.0.is_empty()
        }
    }

    fn file(s: &mut FloorShards<TestShard>, id: u64, floor: Floor) {
        s.slot_mut(floor).0.insert(ObjectId(id));
        s.file(ObjectId(id), floor);
    }

    #[test]
    fn slots_grow_and_route_in_o1() {
        let mut s: FloorShards<TestShard> = FloorShards::default();
        assert_eq!(s.slot_count(), 0);
        assert!(s.find(ObjectId(1)).is_none());
        file(&mut s, 1, 2);
        assert_eq!(s.slot_count(), 3);
        assert_eq!(s.find(ObjectId(1)), Some(2));
        s.assert_routed(ObjectId(1), Some(2));
        assert!(s.get(0).unwrap().is_empty());
        assert!(s.get(5).is_none());
        // Unfile clears the route.
        s.make_mut(2).0.remove(&ObjectId(1));
        s.unfile(ObjectId(1));
        assert!(s.find(ObjectId(1)).is_none());
        s.assert_routed(ObjectId(1), None);
    }

    #[test]
    fn huge_ids_spill_instead_of_ballooning_the_dense_table() {
        let mut s: FloorShards<TestShard> = FloorShards::default();
        let huge = DENSE_ROUTE_CAP + 7;
        file(&mut s, huge, 1);
        assert_eq!(s.find(ObjectId(huge)), Some(1));
        assert!(
            s.route.dense.is_empty(),
            "spilled id must not grow the dense table"
        );
        s.unfile(ObjectId(huge));
        assert!(s.find(ObjectId(huge)).is_none());
    }

    #[test]
    fn clones_share_until_touched_and_absent_equals_empty() {
        let mut a: FloorShards<TestShard> = FloorShards::default();
        file(&mut a, 1, 0);
        file(&mut a, 2, 1);
        let mut b = a.clone();
        assert!(a.same_shard(&b, 0) && a.same_shard(&b, 1));
        file(&mut b, 3, 1);
        assert!(a.same_shard(&b, 0), "untouched floor stays shared");
        assert!(!a.same_shard(&b, 1), "touched floor copied");
        assert!(a.find(ObjectId(3)).is_none(), "route is versioned too");
        assert_eq!(b.find(ObjectId(3)), Some(1));
        // Absent vs absent and absent vs empty both count as shared;
        // absent vs non-empty does not.
        assert!(a.same_shard(&b, 7));
        let mut c = a.clone();
        c.slot(3);
        assert!(a.same_shard(&c, 3), "absent vs empty slot");
        let mut d = a.clone();
        file(&mut d, 9, 3);
        assert!(!a.same_shard(&d, 3), "absent vs populated slot");
    }
}
