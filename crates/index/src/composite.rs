//! The composite index (§III): all three layers plus `RangeSearch`
//! (Algorithm 4) and incremental maintenance (§III-C).
//!
//! Copy-on-write layout: every tier sits behind its own [`Arc`], so
//! cloning the index (the MVCC engine does this once per commit) is a
//! handful of pointer bumps, and a mutation deep-copies only the tiers it
//! touches. Object updates touch nothing but the [`ObjectLayer`] — which
//! is itself sharded by floor ([`crate::FloorShard`]) and `Arc`-per-bucket
//! — while topology updates degrade to copying the tree tier (unit store +
//! R-tree) and, for staircase-affecting events, rebuilding the skeleton
//! tier. See the README's "Architecture" section for the full sharding
//! invariant.

use crate::error::IndexError;
use crate::object_layer::ObjectLayer;
use crate::rtree::{LeafEntry, RTree, SearchStats};
use crate::skeleton::SkeletonTier;
use crate::units::{UnitId, UnitStore};
use idq_distance::DistanceCache;
use idq_geom::{DecomposeConfig, IdSet, Mbr3, Rect2};
use idq_model::{
    DoorKind, DoorsGraph, IndoorPoint, IndoorSpace, Partition, PartitionId, TopologyEvent,
};
use idq_objects::{ObjectId, ObjectStore, UncertainObject};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the composite index.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// indR-tree fanout (paper: 20).
    pub fanout: usize,
    /// Decomposition threshold `T_shape` (paper: 0.5).
    pub t_shape: f64,
    /// Bulk-load ("packed") construction vs incremental inserts.
    pub bulk_load: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            fanout: 20,
            t_shape: 0.5,
            bulk_load: true,
        }
    }
}

/// Per-layer construction times (Fig. 15(b)).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Tree tier: decomposition + packing, milliseconds.
    pub tree_ms: f64,
    /// Skeleton tier, milliseconds.
    pub skeleton_ms: f64,
    /// Topological layer (doors graph + links), milliseconds.
    pub topo_ms: f64,
    /// Object layer, milliseconds.
    pub object_ms: f64,
    /// Number of index units produced.
    pub units: usize,
}

/// Result of `RangeSearch` (Algorithm 4): candidate objects `Ro` and
/// candidate partitions `Rp`, with retrieval counters.
#[derive(Clone, Debug, Default)]
pub struct RangeSearchOutcome {
    /// Candidate objects (no false negatives, Lemma 6).
    pub objects: Vec<ObjectId>,
    /// Candidate partitions.
    pub partitions: Vec<PartitionId>,
    /// Tree traversal counters.
    pub stats: SearchStats,
    /// Bucket entries scanned.
    pub objects_checked: usize,
}

/// The three-layer composite index.
///
/// Cheap to clone: the object-independent tiers (unit store, R-tree,
/// skeleton, doors graph) are `Arc`-shared and only copied by the topology
/// operations that mutate them; the object layer shares per-floor o-table
/// shards and per-unit buckets. Object maintenance on a cloned index
/// therefore costs O(touched floor + changed buckets), not O(world).
#[derive(Clone, Debug)]
pub struct CompositeIndex {
    config: IndexConfig,
    units: Arc<UnitStore>,
    rtree: Arc<RTree>,
    skeleton: Arc<SkeletonTier>,
    graph: Arc<DoorsGraph>,
    /// Shared memo of per-door Dijkstra rows, valid exactly as long as the
    /// geometry tiers above it: every topology event retires the whole
    /// `Arc` (see [`CompositeIndex::apply_topology_deferred`]), so holding
    /// this cache through an index is proof its rows match the graph —
    /// pointer identity is validity, no epoch checks on the read path.
    distance_cache: Arc<DistanceCache>,
    objects: ObjectLayer,
    space_version: u64,
    /// Construction timing, for the Fig. 15(b) experiment.
    pub build_stats: BuildStats,
}

impl CompositeIndex {
    /// Builds the index over the space and the current object population.
    pub fn build(
        space: &IndoorSpace,
        store: &ObjectStore,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        let mut stats = BuildStats::default();
        let decomp = DecomposeConfig {
            t_shape: config.t_shape,
            ..DecomposeConfig::default()
        };

        // Tree tier.
        let t = Instant::now();
        let mut units = UnitStore::new();
        let partitions: Vec<_> = space.partitions().cloned().collect();
        for p in &partitions {
            units.add_partition(space, p, &decomp);
        }
        let entries: Vec<LeafEntry> = units
            .iter()
            .map(|u| LeafEntry {
                bounds: u.mbr,
                item: u.id,
            })
            .collect();
        stats.units = entries.len();
        let rtree = if config.bulk_load {
            RTree::bulk_load(entries, config.fanout)
        } else {
            let mut t = RTree::new(config.fanout);
            for e in entries {
                t.insert(e);
            }
            t
        };
        stats.tree_ms = t.elapsed().as_secs_f64() * 1e3;

        // Skeleton tier.
        let t = Instant::now();
        let skeleton = SkeletonTier::build(space);
        stats.skeleton_ms = t.elapsed().as_secs_f64() * 1e3;

        // Topological layer.
        let t = Instant::now();
        let graph = DoorsGraph::build(space);
        stats.topo_ms = t.elapsed().as_secs_f64() * 1e3;

        // Object layer.
        let t = Instant::now();
        let mut index = CompositeIndex {
            config,
            units: Arc::new(units),
            rtree: Arc::new(rtree),
            skeleton: Arc::new(skeleton),
            graph: Arc::new(graph),
            distance_cache: Arc::new(DistanceCache::new()),
            objects: ObjectLayer::new(),
            space_version: space.version(),
            build_stats: stats,
        };
        for id in store.ids_sorted() {
            index.insert_object(space, store.get(id)?)?;
        }
        index.build_stats.object_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(index)
    }

    // ---- accessors -----------------------------------------------------------

    /// The topological layer: the doors graph integrated in the index.
    pub fn doors_graph(&self) -> &DoorsGraph {
        &self.graph
    }

    /// The skeleton tier.
    pub fn skeleton(&self) -> &SkeletonTier {
        &self.skeleton
    }

    /// The unit store (h-table).
    pub fn units(&self) -> &UnitStore {
        &self.units
    }

    /// The object layer (buckets + o-table).
    pub fn object_layer(&self) -> &ObjectLayer {
        &self.objects
    }

    /// The tree tier.
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// The shared distance cache that travels with this index's geometry.
    /// Any two index versions for which [`Self::shares_geometry_with`]
    /// holds also share this cache (object-only commits clone the `Arc`);
    /// a topology commit retires it wholesale, so rows read through this
    /// accessor are always consistent with [`Self::doors_graph`].
    pub fn distance_cache(&self) -> &Arc<DistanceCache> {
        &self.distance_cache
    }

    /// Whether `self` and `other` share **all** object-independent tiers
    /// (unit store, R-tree, skeleton, doors graph) structurally — true for
    /// any two index versions related by commits that contained no
    /// topology update. Tests use this to pin down the degradation
    /// contract: only topology commits copy the geometry.
    pub fn shares_geometry_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.units, &other.units)
            && Arc::ptr_eq(&self.rtree, &other.rtree)
            && Arc::ptr_eq(&self.skeleton, &other.skeleton)
            && Arc::ptr_eq(&self.graph, &other.graph)
    }

    /// The index configuration.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Errors if the index has not seen all space mutations.
    pub fn check_fresh(&self, space: &IndoorSpace) -> Result<(), IndexError> {
        if self.space_version != space.version() {
            return Err(IndexError::StaleIndex {
                index_version: self.space_version,
                space_version: space.version(),
            });
        }
        Ok(())
    }

    /// Minimum skeleton distance from `q` to an MBR (Eq. 10) — the
    /// geometric lower bound used by `RangeSearch`. `_space` is unread
    /// (vertical drops live inside `M_s2s`); `benchmark/` calls this
    /// signature.
    pub fn min_skeleton_distance(&self, _space: &IndoorSpace, q: IndoorPoint, mbr: &Mbr3) -> f64 {
        self.skeleton.min_skeleton_distance(q, mbr)
    }

    // ---- RangeSearch (Algorithm 4) --------------------------------------------

    /// Retrieves all objects and partitions whose geometric lower-bound
    /// distance from `q` is at most `r`. With `use_skeleton = false` the
    /// plain 3D Euclidean lower bound is used instead (the paper's
    /// "withoutSkeleton" ablation, Fig. 15(a)).
    pub fn range_search(
        &self,
        space: &IndoorSpace,
        q: IndoorPoint,
        r: f64,
        use_skeleton: bool,
    ) -> RangeSearchOutcome {
        self.range_search_dual(space, q, r, r, use_skeleton)
    }

    /// `RangeSearch` with separate radii: objects are collected within
    /// `r_objects` while partitions are collected within `r_partitions ≥
    /// r_objects`. The range pipeline passes its door-distance reach
    /// `r + subgraph_slack` as the partition radius and reports the
    /// partitions as a statistic; no answer depends on them (see the
    /// soundness note in `idq_distance::bounds`).
    pub fn range_search_dual(
        &self,
        space: &IndoorSpace,
        q: IndoorPoint,
        r_objects: f64,
        r_partitions: f64,
        use_skeleton: bool,
    ) -> RangeSearchOutcome {
        let r_partitions = r_partitions.max(r_objects);
        let fh = space.floor_height();
        let q3 = q.at_elevation(fh);
        // One scratch for the whole retrieval: the skeleton metric's
        // entrance double loop factors per target floor, and floors
        // whose best skeleton route already exceeds `r_partitions` are
        // rejected in O(1) (`min_skeleton_distance_pruned` guarantees
        // every comparison against thresholds ≤ the screen — here both
        // `r_partitions` and `r_objects` — decides exactly as the exact
        // Eq. 10 metric would).
        let scratch = std::cell::RefCell::new(self.skeleton.scratch(q));
        let metric = |m: &Mbr3| -> f64 {
            if use_skeleton {
                self.skeleton.min_skeleton_distance_pruned(
                    &mut scratch.borrow_mut(),
                    m,
                    r_partitions,
                )
            } else {
                m.min_dist(q3)
            }
        };
        let mut partitions: IdSet<PartitionId> = IdSet::default();
        let mut object_set: IdSet<ObjectId> = IdSet::default();
        let mut objects = Vec::new();
        let mut objects_checked = 0usize;
        let stats = self.rtree.search(
            |m| metric(m) <= r_partitions,
            |entry| {
                if let Some(p) = self.units.partition_of(entry.item) {
                    partitions.insert(p);
                }
                for &o in self.objects.objects_in(entry.item) {
                    objects_checked += 1;
                    if object_set.contains(&o) {
                        continue;
                    }
                    let Ok(mbr) = self.objects.object_mbr(o) else {
                        continue;
                    };
                    if metric(&mbr) <= r_objects {
                        object_set.insert(o);
                        objects.push(o);
                    }
                }
            },
        );
        let mut partitions: Vec<PartitionId> = partitions.into_iter().collect();
        partitions.sort_unstable();
        objects.sort_unstable();
        RangeSearchOutcome {
            objects,
            partitions,
            stats,
            objects_checked,
        }
    }

    // ---- object layer maintenance (§III-C.2) ------------------------------------

    /// Units overlapped by an object's uncertainty footprint, plus its
    /// search MBR (region ∪ instances).
    pub fn object_footprint(
        &self,
        space: &IndoorSpace,
        object: &UncertainObject,
    ) -> (Vec<UnitId>, Mbr3) {
        let rect: Rect2 = object.footprint_rect();
        let mbr = Mbr3::planar(rect, object.floor, space.elevation(object.floor));
        (self.units_intersecting(&mbr), mbr)
    }

    /// Unit footprints for a *group* of write MBRs computed with **one**
    /// tree traversal: the traversal collects every unit intersecting the
    /// union of the MBRs, then slot `i` keeps the candidates `mbrs[i]`
    /// intersects. Each slot is exactly what
    /// [`CompositeIndex::units_intersecting`] returns for `mbrs[i]` — the
    /// grouping only amortizes the tree descent, and a scattered group
    /// degrades to one wide traversal. The engine's write path no longer
    /// uses it (it stages each update with its own traversal); the
    /// benchmark's footprint probe still times it.
    pub fn unit_footprints_grouped(&self, mbrs: &[Mbr3]) -> Vec<Vec<UnitId>> {
        if let [mbr] = mbrs {
            return vec![self.units_intersecting(mbr)];
        }
        let union = mbrs
            .iter()
            .fold(Mbr3::empty_sentinel(), |acc, m| acc.union(m));
        let mut candidates = Vec::new();
        self.rtree
            .search(|m| m.intersects(&union), |entry| candidates.push(*entry));
        mbrs.iter()
            .map(|mbr| {
                let mut units: Vec<UnitId> = candidates
                    .iter()
                    .filter(|e| e.bounds.intersects(mbr))
                    .map(|e| e.item)
                    .collect();
                units.sort_unstable();
                units
            })
            .collect()
    }

    /// The units whose MBR intersects `mbr`, ascending: the footprint of
    /// a write whose search MBR is `mbr`.
    pub fn units_intersecting(&self, mbr: &Mbr3) -> Vec<UnitId> {
        let mut units = Vec::new();
        self.rtree
            .search(|m| m.intersects(mbr), |entry| units.push(entry.item));
        units.sort_unstable();
        units
    }

    /// Indexes a new object. Fails with [`IndexError::Uncovered`], leaving
    /// the index unchanged, when an instance lies outside every partition.
    pub fn insert_object(
        &mut self,
        space: &IndoorSpace,
        object: &UncertainObject,
    ) -> Result<(), IndexError> {
        let (units, mbr) = self.object_footprint(space, object);
        self.check_covered(space, object, &units)?;
        self.insert_object_prepared(object.id, units, mbr)
    }

    /// Indexes a new object from a footprint prepared by
    /// [`CompositeIndex::object_footprint`] /
    /// [`CompositeIndex::units_intersecting`]. The footprint must
    /// have been computed against the current unit population (no topology
    /// change in between).
    ///
    /// Every instance must lie inside a partition owning one of `units`:
    /// check a fully-formed object with [`CompositeIndex::check_covered`]
    /// first. A sampled object is covered by construction, since its
    /// instances were drawn with those partitions as the sampler's
    /// point-location hint.
    pub fn insert_object_prepared(
        &mut self,
        id: ObjectId,
        units: Vec<UnitId>,
        mbr: Mbr3,
    ) -> Result<(), IndexError> {
        self.objects.insert(id, units, mbr)
    }

    /// Removes an object from the index.
    pub fn remove_object(&mut self, id: ObjectId) -> Result<(), IndexError> {
        self.objects.remove(id).map(|_| ())
    }

    /// Object update = deletion followed by insertion (§III-C.2); the
    /// object layer edits only the buckets whose membership changes.
    /// Fails like [`CompositeIndex::insert_object`] on an uncovered
    /// instance, leaving the index unchanged.
    pub fn update_object(
        &mut self,
        space: &IndoorSpace,
        object: &UncertainObject,
    ) -> Result<(), IndexError> {
        let (units, mbr) = self.object_footprint(space, object);
        self.check_covered(space, object, &units)?;
        self.update_object_prepared(object.id, units, mbr)
    }

    /// Object update from a prepared footprint (see
    /// [`CompositeIndex::insert_object_prepared`] for the freshness and
    /// coverage contracts).
    pub fn update_object_prepared(
        &mut self,
        id: ObjectId,
        units: Vec<UnitId>,
        mbr: Mbr3,
    ) -> Result<(), IndexError> {
        self.objects.update(id, units, mbr)
    }

    /// The index's one invariant on objects: every instance lies inside a
    /// partition owning one of `units`, the object's footprint. Then each
    /// instance's host partition lists the object, which is what lets a
    /// kNN search find every object through the partitions hosting
    /// it. A footprint holds a unit of every partition its instances lie
    /// in, so failing here means an instance lies outside every active
    /// partition: [`IndexError::Uncovered`].
    pub fn check_covered(
        &self,
        space: &IndoorSpace,
        object: &UncertainObject,
        units: &[UnitId],
    ) -> Result<(), IndexError> {
        let owners: Vec<&Partition> = self
            .units
            .owning_partitions(units)
            .iter()
            .filter_map(|&p| space.partition(p).ok())
            .collect();
        let covered = object
            .instances()
            .iter()
            .all(|inst| owners.iter().any(|p| p.contains(inst.position, inst.floor)));
        if covered {
            Ok(())
        } else {
            Err(IndexError::Uncovered(object.id))
        }
    }

    // ---- topology maintenance (§III-C.1) ------------------------------------------

    /// Applies one topology event to every affected layer. `store` supplies
    /// object geometry for re-bucketing objects displaced by partition
    /// changes.
    pub fn apply_topology(
        &mut self,
        space: &IndoorSpace,
        store: &ObjectStore,
        event: &TopologyEvent,
    ) -> Result<(), IndexError> {
        if self.apply_topology_deferred(space, store, event)? {
            self.rebuild_skeleton(space);
        }
        Ok(())
    }

    /// Like [`CompositeIndex::apply_topology`], but *defers* the skeleton
    /// rebuild: the return value says whether the event invalidated the
    /// skeleton tier, and the caller must call
    /// [`CompositeIndex::rebuild_skeleton`] once all deferred events are in.
    /// Batch appliers use this to coalesce a run of staircase-affecting
    /// events into a single rebuild at commit; the final skeleton is
    /// identical because a rebuild only reads the (already fully mutated)
    /// space. Queries must not run between a deferred `true` and the
    /// rebuild.
    ///
    /// Coverage ([`CompositeIndex::check_covered`]) survives every event
    /// but one. Inserting a partition or touching a door only adds or
    /// keeps hosts. Split halves are closed rectangles that tile their
    /// parent, and a merged partition is exactly the union of its two
    /// rectangles, so every instance keeps a host; the re-footprinted
    /// occupants are checked all the same. Removing a partition strands
    /// an occupant unless a surviving partition also contains it (an
    /// instance on a shared wall): that fails with
    /// [`IndexError::Uncovered`] and leaves the index half-updated, so
    /// apply removals to a copy that is dropped on error.
    pub fn apply_topology_deferred(
        &mut self,
        space: &IndoorSpace,
        store: &ObjectStore,
        event: &TopologyEvent,
    ) -> Result<bool, IndexError> {
        let mut skeleton_dirty = false;
        match event {
            TopologyEvent::PartitionInserted(p) => {
                skeleton_dirty |= self.index_partition(space, *p)?;
            }
            TopologyEvent::PartitionRemoved(p) => {
                self.unindex_partition(space, store, *p)?;
            }
            // Successors are indexed first, so the objects displaced from
            // the old units re-footprint straight onto them. The new
            // rectangles lie within the old ones, so every object that
            // meets a new unit met an old one and is among the displaced.
            TopologyEvent::PartitionSplit { old, new } => {
                for p in new {
                    skeleton_dirty |= self.index_partition(space, *p)?;
                }
                self.unindex_partition(space, store, *old)?;
            }
            TopologyEvent::PartitionsMerged { old, new } => {
                skeleton_dirty |= self.index_partition(space, *new)?;
                for p in old {
                    self.unindex_partition(space, store, *p)?;
                }
            }
            TopologyEvent::DoorInserted(d)
            | TopologyEvent::DoorRemoved(d)
            | TopologyEvent::DoorStateChanged(d)
            | TopologyEvent::DoorRetargeted(d) => {
                if let Ok(door) = space.door_raw(*d) {
                    if door.kind == DoorKind::StaircaseEntrance {
                        skeleton_dirty = true;
                    }
                }
            }
        }
        Arc::make_mut(&mut self.graph).apply(space, event);
        // Geometry changed: retire the distance cache wholesale. Older
        // index versions keep their own Arc (still valid for *their*
        // graph); this version starts cold. Done unconditionally here —
        // both topology entry points funnel through this method — so the
        // pointer-identity validity invariant needs no epoch bookkeeping.
        self.distance_cache = Arc::new(DistanceCache::new());
        self.space_version = space.version();
        Ok(skeleton_dirty)
    }

    /// Rebuilds the skeleton tier from the current space — the repair a
    /// deferred topology pass owes after any event returned `true`. The
    /// new tier replaces the shared one wholesale (older index versions
    /// keep theirs).
    pub fn rebuild_skeleton(&mut self, space: &IndoorSpace) {
        self.skeleton = Arc::new(SkeletonTier::build(space));
    }

    /// Indexes a partition's units into the tree tier, growing the object
    /// layer; returns whether the skeleton tier was invalidated (staircase
    /// partitions feed it).
    fn index_partition(&mut self, space: &IndoorSpace, p: PartitionId) -> Result<bool, IndexError> {
        let partition = space.partition(p)?;
        let decomp = DecomposeConfig {
            t_shape: self.config.t_shape,
            ..DecomposeConfig::default()
        };
        let ids = Arc::make_mut(&mut self.units).add_partition(space, partition, &decomp);
        for u in ids {
            let mbr = self.units.get(u).expect("freshly added").mbr;
            Arc::make_mut(&mut self.rtree).insert(LeafEntry {
                bounds: mbr,
                item: u,
            });
        }
        self.objects.grow(self.units.slots());
        Ok(partition.kind == idq_model::PartitionKind::Staircase)
    }

    fn unindex_partition(
        &mut self,
        space: &IndoorSpace,
        store: &ObjectStore,
        p: PartitionId,
    ) -> Result<(), IndexError> {
        // Collect objects bucketed in the removed units before tearing
        // them down.
        let removed_units = self.units.units_of(p).to_vec();
        let displaced = self.objects.objects_in_units(removed_units.iter());
        for u in &removed_units {
            if let Some(unit) = self.units.get(*u) {
                let mbr = unit.mbr;
                Arc::make_mut(&mut self.rtree).remove(*u, &mbr);
            }
        }
        Arc::make_mut(&mut self.units).remove_partition(p);
        // Re-footprint displaced objects against the remaining units.
        for id in displaced {
            if let Ok(obj) = store.get(id) {
                self.objects.remove(id)?;
                self.insert_object(space, obj)?;
            } else {
                // The object is gone from the store too: drop it.
                let _ = self.objects.remove(id);
            }
        }
        Ok(())
    }

    /// Test/maintenance helper: validates cross-layer invariants.
    pub fn validate(&self) {
        self.rtree.validate();
        self.objects.validate();
        assert_eq!(
            self.rtree.len(),
            self.units.len(),
            "tree entries == active units"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2};
    use idq_model::{FloorPlanBuilder, SplitLine};
    use idq_objects::UncertainObject;

    /// Two floors, two rooms each, one staircase; a handful of objects.
    fn setup() -> (IndoorSpace, ObjectStore, CompositeIndex) {
        let mut b = FloorPlanBuilder::new(4.0);
        let r00 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r01 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 40.0, 10.0))
            .unwrap();
        let r10 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r11 = b
            .add_room(1, Rect2::from_bounds(20.0, 0.0, 40.0, 10.0))
            .unwrap();
        let st = b
            .add_staircase((0, 1), Rect2::from_bounds(40.0, 0.0, 44.0, 10.0))
            .unwrap();
        b.add_door_between(r00, r01, Point2::new(20.0, 5.0))
            .unwrap();
        b.add_door_between(r10, r11, Point2::new(20.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(st, r01, 0, Point2::new(40.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(st, r11, 1, Point2::new(40.0, 5.0))
            .unwrap();
        let space = b.finish().unwrap();

        let mut store = ObjectStore::new();
        let mk = |id: u64, x: f64, floor: u16| {
            UncertainObject::with_uniform_weights(
                ObjectId(id),
                Circle::new(Point2::new(x, 5.0), 2.0),
                floor,
                vec![Point2::new(x - 1.0, 5.0), Point2::new(x + 1.0, 5.0)],
            )
            .unwrap()
        };
        store.insert(mk(1, 5.0, 0)).unwrap();
        store.insert(mk(2, 30.0, 0)).unwrap();
        store.insert(mk(3, 5.0, 1)).unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    #[test]
    fn build_populates_all_layers() {
        let (space, store, index) = setup();
        index.validate();
        index.check_fresh(&space).unwrap();
        assert_eq!(index.object_layer().len(), store.len());
        assert!(index.build_stats.units >= space.partition_count());
        assert!(index.skeleton().entrance_count() == 2);
        assert!(index.doors_graph().edge_count() > 0);
    }

    #[test]
    fn range_search_same_floor_finds_near_object() {
        let (space, _, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let out = index.range_search(&space, q, 10.0, true);
        assert!(out.objects.contains(&ObjectId(1)));
        // Object 3 sits directly overhead: planar distance ~0 but the
        // skeleton route is ~ 35+8+35 — it must be pruned...
        assert!(
            !out.objects.contains(&ObjectId(3)),
            "skeleton prunes the floor above"
        );
        // ...whereas without the skeleton the Euclidean bound (4 m up)
        // admits it (Fig. 15(a)'s effect).
        let out = index.range_search(&space, q, 10.0, false);
        assert!(out.objects.contains(&ObjectId(3)));
    }

    #[test]
    fn range_search_partitions_no_false_negatives() {
        let (space, _, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let out = index.range_search(&space, q, 100.0, true);
        // Everything is within 100 m of indoor distance in this tiny
        // space: all partitions and objects retrieved.
        assert_eq!(out.partitions.len(), space.partition_count());
        assert_eq!(out.objects.len(), 3);
    }

    #[test]
    fn object_updates_maintain_layers() {
        let (space, mut store, mut index) = setup();
        // Move object 1 to the other room: delete + insert (§III-C.2).
        let moved = UncertainObject::with_uniform_weights(
            ObjectId(1),
            Circle::new(Point2::new(30.0, 5.0), 2.0),
            0,
            vec![Point2::new(29.0, 5.0), Point2::new(31.0, 5.0)],
        )
        .unwrap();
        store.remove(ObjectId(1)).unwrap();
        store.insert(moved.clone()).unwrap();
        index.update_object(&space, &moved).unwrap();
        index.validate();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let out = index.range_search(&space, q, 10.0, true);
        assert!(!out.objects.contains(&ObjectId(1)));
        let out = index.range_search(&space, q, 40.0, true);
        assert!(out.objects.contains(&ObjectId(1)));
        // Remove entirely.
        index.remove_object(ObjectId(1)).unwrap();
        assert!(!index.object_layer().contains(ObjectId(1)));
        assert!(matches!(
            index.remove_object(ObjectId(1)),
            Err(IndexError::ObjectNotIndexed(_))
        ));
    }

    #[test]
    fn instances_outside_every_partition_are_refused() {
        let (mut space, mut store, mut index) = setup();
        // One instance beyond the south wall: refused, nothing changes.
        let region = Circle::new(Point2::new(30.0, 1.0), 1.0);
        let positions = vec![Point2::new(30.0, 1.0), Point2::new(30.0, -0.5)];
        let stray =
            |id| UncertainObject::with_uniform_weights(ObjectId(id), region, 0, positions.clone());
        let refused = |id| Err(IndexError::Uncovered(ObjectId(id)));
        let units = index.object_layer().units_of(ObjectId(2)).unwrap().to_vec();
        assert_eq!(index.insert_object(&space, &stray(4).unwrap()), refused(4));
        assert_eq!(index.update_object(&space, &stray(2).unwrap()), refused(2));
        assert!(!index.object_layer().contains(ObjectId(4)));
        assert_eq!(index.object_layer().units_of(ObjectId(2)).unwrap(), units);
        store.insert(stray(4).unwrap()).unwrap();
        let built = CompositeIndex::build(&space, &store, IndexConfig::default());
        assert_eq!(built.map(|_| ()), refused(4), "a build refuses it too");
        store.remove(ObjectId(4)).unwrap();
        // Deleting the room holding object 1 would strand its instances.
        let room = space.partition_at(IndoorPoint::new(Point2::new(5.0, 5.0), 0));
        let events = space.delete_partition(room.unwrap()).unwrap();
        let err = events
            .iter()
            .try_for_each(|ev| index.apply_topology(&space, &store, ev));
        assert_eq!(err, refused(1));
    }

    #[test]
    fn grouped_footprints_match_individual() {
        let (space, store, index) = setup();
        let objects: Vec<&UncertainObject> = store
            .ids_sorted()
            .iter()
            .map(|&id| store.get(id).unwrap())
            .collect();
        let mbrs: Vec<Mbr3> = objects
            .iter()
            .map(|o| Mbr3::planar(o.footprint_rect(), o.floor, space.elevation(o.floor)))
            .collect();
        let grouped = index.unit_footprints_grouped(&mbrs);
        assert_eq!(grouped.len(), objects.len());
        for (obj, units) in objects.iter().zip(&grouped) {
            let (iu, _) = index.object_footprint(&space, obj);
            assert_eq!(units, &iu, "units for {}", obj.id);
        }
        // Prepared application lands in the same layer state as the
        // individual path.
        let mut a = index.clone();
        let mut b = index.clone();
        for obj in &objects {
            a.update_object(&space, obj).unwrap();
        }
        for ((obj, units), mbr) in objects.iter().zip(grouped).zip(mbrs) {
            b.update_object_prepared(obj.id, units, mbr).unwrap();
        }
        a.validate();
        b.validate();
        for obj in &objects {
            assert_eq!(
                a.object_layer().units_of(obj.id).unwrap(),
                b.object_layer().units_of(obj.id).unwrap()
            );
        }
    }

    #[test]
    fn topology_split_rebuckets_objects() {
        let (mut space, store, mut index) = setup();
        // Split room r00 (objects 1 lives there).
        let r00 = space
            .partition_at(IndoorPoint::new(Point2::new(5.0, 5.0), 0))
            .unwrap();
        let (_, events) = space
            .split_partition(r00, SplitLine::AtX(10.0), Some(Point2::new(10.0, 5.0)))
            .unwrap();
        for ev in &events {
            index.apply_topology(&space, &store, ev).unwrap();
        }
        index.check_fresh(&space).unwrap();
        index.validate();
        // Object 1 straddles x=5±1: all in the left half; still findable.
        let q = IndoorPoint::new(Point2::new(1.0, 5.0), 0);
        let out = index.range_search(&space, q, 10.0, true);
        assert!(out.objects.contains(&ObjectId(1)));
    }

    #[test]
    fn topology_delete_partition_drops_units() {
        let (mut space, store, mut index) = setup();
        let r11 = space
            .partition_at(IndoorPoint::new(Point2::new(30.0, 5.0), 1))
            .unwrap();
        let events = space.delete_partition(r11).unwrap();
        for ev in &events {
            index.apply_topology(&space, &store, ev).unwrap();
        }
        index.validate();
        assert!(index.units().units_of(r11).is_empty());
        // Units gone from the tree: a broad search sees fewer partitions.
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let out = index.range_search(&space, q, 1000.0, false);
        assert!(!out.partitions.contains(&r11));
    }

    #[test]
    fn closing_staircase_entrance_rebuilds_skeleton() {
        let (mut space, store, mut index) = setup();
        assert_eq!(index.skeleton().entrance_count(), 2);
        // Close the floor-1 staircase entrance: the skeleton must drop it,
        // making floor 1 unreachable through the skeleton metric.
        let entrance = space
            .doors()
            .find(|d| d.kind == idq_model::DoorKind::StaircaseEntrance && d.floor == 1)
            .unwrap()
            .id;
        let ev = space.close_door(entrance).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        assert_eq!(index.skeleton().entrance_count(), 1);
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let up = IndoorPoint::new(Point2::new(5.0, 5.0), 1);
        assert!(index.skeleton().skeleton_distance(q, up).is_infinite());
        // Re-opening restores it.
        let ev = space.open_door(entrance).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        assert_eq!(index.skeleton().entrance_count(), 2);
        assert!(index.skeleton().skeleton_distance(q, up).is_finite());
    }

    #[test]
    fn stale_index_detected() {
        let (mut space, _, index) = setup();
        let d = space.doors().next().unwrap().id;
        space.close_door(d).unwrap();
        assert!(matches!(
            index.check_fresh(&space),
            Err(IndexError::StaleIndex { .. })
        ));
    }

    #[test]
    fn incremental_build_matches_bulk_search() {
        let (space, store, bulk) = setup();
        let incremental = CompositeIndex::build(
            &space,
            &store,
            IndexConfig {
                bulk_load: false,
                ..IndexConfig::default()
            },
        )
        .unwrap();
        incremental.validate();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        for r in [5.0, 20.0, 100.0] {
            let a = bulk.range_search(&space, q, r, true);
            let b = incremental.range_search(&space, q, r, true);
            assert_eq!(a.objects, b.objects);
            assert_eq!(a.partitions, b.partitions);
        }
    }
}
