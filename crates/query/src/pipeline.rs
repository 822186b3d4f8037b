//! Shared evaluation machinery of the four-phase pipeline: the candidate
//! evaluation context caching subregions, horizon-banded door distances
//! composed from the shared distance cache, and the lazy full-graph
//! fallback.
//!
//! Since the shared-cache PR, **every** door-distance context here is
//! assembled by [`DoorDistances::compute_banded`] — a composition of
//! per-seed-door expansion rows — whether the rows come from the
//! service-lifetime [`idq_distance::DistanceCache`] (the default) or are
//! expanded locally (`distance_cache: false`). The two paths run the
//! same arithmetic on the same row prefixes, which is what makes the
//! off-switch bit-identical.

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::stats::QueryStats;
use idq_distance::{expected_indoor_distance, object_bounds, DoorDistances, DoorRow, ObjectBounds};
use idq_index::CompositeIndex;
use idq_model::{IndoorPoint, IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore, Subregions};
use std::collections::HashMap;
use std::sync::Arc;

/// A reusable cache of per-object subregion decompositions.
///
/// Decompositions are pure functions of an object's instance set and the
/// space, so a cache can be shared freely: the `ikNNQ` seed phase
/// pre-populates one with the decompositions it already computed, and
/// batched execution ([`crate::execute_batch`]) keeps one per query group
/// so that queries sharing a query point never decompose the same object
/// twice.
#[derive(Debug, Default)]
pub struct SubregionCache {
    map: HashMap<ObjectId, Subregions>,
}

impl SubregionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caches one object's decomposition.
    pub fn insert(&mut self, id: ObjectId, subs: Subregions) {
        self.map.insert(id, subs);
    }

    /// Whether the object's decomposition is cached.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains_key(&id)
    }

    /// Number of cached decompositions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Absorbs another cache (right-hand entries win on collision; entries
    /// are identical by construction anyway).
    pub fn merge(&mut self, other: SubregionCache) {
        self.map.extend(other.map);
    }
}

/// Per-query evaluation context.
///
/// Holds the restricted door distances of the subgraph phase and computes
/// bounds and exact expected distances per object, caching subregion
/// decompositions and lazily falling back to full-graph distances when the
/// restriction truncates a needed path.
pub(crate) struct EvalContext<'a> {
    pub space: &'a IndoorSpace,
    pub store: &'a ObjectStore,
    pub index: &'a CompositeIndex,
    pub q: IndoorPoint,
    pub dd: DoorDistances,
    full_dd: Option<DoorDistances>,
    subregions: SubregionCache,
    use_shared_cache: bool,
    cache_budget: usize,
    /// Work this context did since the last [`EvalContext::drain_into`]:
    /// full-graph fallbacks, subregion decompositions computed / served
    /// from the cache, and shared-distance-cache traffic. Every other
    /// field stays zero.
    pub delta: QueryStats,
}

/// Assembles a door-distance context at `horizon` by composing per-door
/// rows — from the shared cache when `use_shared` is set, freshly
/// expanded otherwise. Both paths read rows truncated at the requested
/// horizon, so the result is a pure function of `(q, horizon, geometry)`
/// and the on/off switch is bit-neutral. `counters` accumulates the
/// `shared_cache_*` traffic.
fn assemble_dd(
    space: &IndoorSpace,
    index: &CompositeIndex,
    q: IndoorPoint,
    horizon: f64,
    use_shared: bool,
    budget: usize,
    counters: &mut QueryStats,
) -> Result<DoorDistances, QueryError> {
    let graph = index.doors_graph();
    Ok(if use_shared {
        let cache = index.distance_cache();
        DoorDistances::compute_banded(space, graph, q, horizon, |g, d, h| {
            let (row, fetch) = cache.row(g, d, h, budget);
            counters.shared_cache_lookups += 1;
            if fetch.hit {
                counters.shared_cache_hits += 1;
            } else {
                counters.shared_cache_misses += 1;
            }
            counters.shared_cache_evictions += fetch.evicted;
            row
        })?
    } else {
        // Cache off: expand rows locally at exactly the requested
        // horizon. Same composition, same truncated reads — bitwise the
        // same context, minus the memoization.
        DoorDistances::compute_banded(space, graph, q, horizon, |g, d, h| {
            Arc::new(DoorRow::expand(g, d, h))
        })?
    })
}

/// A complete (infinite-horizon) door-distance context for callers
/// outside the four-phase pipeline — monitors and other unrestricted
/// consumers. Honors `options.distance_cache`; per-query counters are
/// dropped (the cache's own global counters still tick).
pub(crate) fn complete_dd(
    space: &IndoorSpace,
    index: &CompositeIndex,
    q: IndoorPoint,
    options: &QueryOptions,
) -> Result<DoorDistances, QueryError> {
    assemble_dd(
        space,
        index,
        q,
        f64::INFINITY,
        options.distance_cache,
        options.distance_cache_bytes,
        &mut QueryStats::default(),
    )
}

impl<'a> EvalContext<'a> {
    /// Builds the context, assembling door distances truncated at
    /// `horizon` (pass `f64::INFINITY` for a complete context) from the
    /// shared distance cache per `options`. `cache` seeds the subregion
    /// store — pass `SubregionCache::new()` when nothing was decomposed
    /// yet.
    pub fn new(
        space: &'a IndoorSpace,
        store: &'a ObjectStore,
        index: &'a CompositeIndex,
        q: IndoorPoint,
        horizon: f64,
        options: &QueryOptions,
        cache: SubregionCache,
    ) -> Result<Self, QueryError> {
        let use_shared = options.distance_cache;
        let budget = options.distance_cache_bytes;
        let mut delta = QueryStats::default();
        let dd = assemble_dd(space, index, q, horizon, use_shared, budget, &mut delta)?;
        Ok(EvalContext {
            space,
            store,
            index,
            q,
            dd,
            full_dd: None,
            subregions: cache,
            use_shared_cache: use_shared,
            cache_budget: budget,
            delta,
        })
    }

    /// Moves the work counted since the last drain (or since the context
    /// was built) into `stats`, and refreshes the cache-size gauge. A
    /// single-issue query drains once, at the end of its finish; a batch
    /// drains the build into its first member and each finish into the
    /// member that ran it.
    pub fn drain_into(&mut self, stats: &mut QueryStats) {
        stats.accumulate(&std::mem::take(&mut self.delta));
        if self.use_shared_cache {
            stats.shared_cache_bytes = self.index.distance_cache().bytes() as usize;
        }
    }

    /// Decomposition of one object, computed on first use and cached for
    /// every later bound or refinement that touches the same object.
    pub fn subregions_of(&mut self, id: ObjectId) -> Result<&Subregions, QueryError> {
        if self.subregions.contains(id) {
            self.delta.subregion_cache_hits += 1;
        } else {
            let obj = self.store.get(id)?;
            // The o-table already knows which partitions the object
            // overlaps: point location per instance becomes a handful of
            // containment checks.
            let hint = object_partition_hint(self.index, id);
            let subs = Subregions::compute_with_hint(obj, self.space, &hint)?;
            self.subregions.insert(id, subs);
            self.delta.subregions_computed += 1;
        }
        Ok(&self.subregions.map[&id])
    }

    /// Phase-3 bounds for one object (Table III dispatch).
    pub fn bounds(&mut self, id: ObjectId) -> Result<ObjectBounds, QueryError> {
        self.subregions_of(id)?;
        let obj = self.store.get(id)?;
        Ok(object_bounds(
            self.space,
            &self.dd,
            obj,
            &self.subregions.map[&id],
        ))
    }

    fn full_dd(&mut self) -> Result<&DoorDistances, QueryError> {
        if self.full_dd.is_none() {
            self.full_dd = Some(assemble_dd(
                self.space,
                self.index,
                self.q,
                f64::INFINITY,
                self.use_shared_cache,
                self.cache_budget,
                &mut self.delta,
            )?);
        }
        Ok(self.full_dd.as_ref().expect("just set"))
    }

    /// Exact expected indoor distance against the full graph.
    pub fn refine_full(&mut self, id: ObjectId) -> Result<f64, QueryError> {
        self.subregions_of(id)?;
        self.full_dd()?;
        let obj = self.store.get(id)?;
        let dd = self.full_dd.as_ref().expect("computed above");
        Ok(expected_indoor_distance(self.space, dd, obj, &self.subregions.map[&id]).value)
    }

    /// Refinement with a decision threshold: computes the expected
    /// distance against the restricted subgraph and returns it only when
    /// it is *provably exact* — within the accept threshold **and** below
    /// the subgraph's [`exit horizon`](idq_distance::DoorDistances::exit_horizon)
    /// (no path escaping the candidate set can undercut any instance
    /// cost). Otherwise the value is recomputed against the full graph.
    /// Every returned refinement value therefore equals the full-graph
    /// expected distance bit for bit, independent of how the horizon was
    /// chosen — which is what makes batched execution (whose shared
    /// context is truncated at the *maximum* of a group's reaches)
    /// return the same answers as single-issue execution.
    pub fn refine_with_threshold(
        &mut self,
        id: ObjectId,
        threshold: f64,
        options: &QueryOptions,
    ) -> Result<f64, QueryError> {
        if options.exact_refinement || !self.dd.is_restricted() {
            return self.refine_full_or_direct(id);
        }
        self.subregions_of(id)?;
        let obj = self.store.get(id)?;
        let e = expected_indoor_distance(self.space, &self.dd, obj, &self.subregions.map[&id]);
        if e.value <= threshold && e.max_instance_cost <= self.dd.exit_horizon() {
            return Ok(e.value); // provably exact, and acceptance is safe
        }
        self.delta.full_graph_fallbacks += 1;
        self.refine_full(id)
    }

    fn refine_full_or_direct(&mut self, id: ObjectId) -> Result<f64, QueryError> {
        if self.dd.is_restricted() {
            self.refine_full(id)
        } else {
            self.subregions_of(id)?;
            let obj = self.store.get(id)?;
            Ok(
                expected_indoor_distance(self.space, &self.dd, obj, &self.subregions.map[&id])
                    .value,
            )
        }
    }
}

/// The partitions an object overlaps according to the index's o-table
/// (via the h-table); empty when the object is not indexed.
pub(crate) fn object_partition_hint(index: &CompositeIndex, id: ObjectId) -> Vec<PartitionId> {
    let mut hint: Vec<PartitionId> = index
        .object_layer()
        .units_of(id)
        .map(|units| {
            units
                .iter()
                .filter_map(|&u| index.units().partition_of(u))
                .collect()
        })
        .unwrap_or_default();
    hint.sort_unstable();
    hint.dedup();
    hint
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::FloorPlanBuilder;
    use idq_objects::UncertainObject;

    fn setup() -> (IndoorSpace, ObjectStore, CompositeIndex) {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(10.0, 5.0)).unwrap();
        b.add_door_between(r1, r2, Point2::new(20.0, 5.0)).unwrap();
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        store
            .insert(
                UncertainObject::with_uniform_weights(
                    ObjectId(1),
                    Circle::new(Point2::new(25.0, 5.0), 2.0),
                    0,
                    vec![Point2::new(24.0, 5.0), Point2::new(26.0, 5.0)],
                )
                .unwrap(),
            )
            .unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    #[test]
    fn threshold_fallback_recovers_truncated_paths() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        // A 5 m horizon truncates the rows before the second door (10 m
        // from the first): the object in r2 is unreachable in the banded
        // context.
        let opts = QueryOptions::default();
        let mut ctx =
            EvalContext::new(&space, &store, &index, q, 5.0, &opts, SubregionCache::new()).unwrap();
        let b = ctx.bounds(ObjectId(1)).unwrap();
        assert!(b.upper.is_infinite(), "banded bounds see no path");
        // Threshold refinement falls back to the full graph.
        let v = ctx.refine_with_threshold(ObjectId(1), 30.0, &opts).unwrap();
        assert!(v.is_finite());
        assert_eq!(ctx.delta.full_graph_fallbacks, 1);
        // The full value matches a complete context, bit for bit.
        let mut full = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        let fv = full
            .refine_with_threshold(ObjectId(1), 30.0, &opts)
            .unwrap();
        assert_eq!(v.to_bits(), fv.to_bits());
    }

    #[test]
    fn exact_refinement_option_uses_full_graph() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default().with_exact_refinement();
        let mut ctx =
            EvalContext::new(&space, &store, &index, q, 5.0, &opts, SubregionCache::new()).unwrap();
        let v = ctx.refine_with_threshold(ObjectId(1), 0.0, &opts).unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn inflated_but_accepted_values_fall_back_to_exact() {
        // Three rooms: A spans the south, B and C split the north. The
        // object sits in C just above the B/C wall. The cheap route runs
        // through B (door dAB at (10,10), then dBC at (50,15)); a direct
        // but far door dAC at (90,10) also enters C. A 30 m horizon
        // truncates every row before dBC (≈40 m from both seeds), so the
        // banded context reaches C only through dAC and *inflates* the
        // object's value (≈120 m vs ≈49 m truth) — finitely, and below a
        // generous threshold. The exit-horizon check (min seed weight 5 +
        // horizon 30 = 35) rejects the inflated acceptance and forces the
        // full-graph fallback, keeping refinement horizon-independent.
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 100.0, 10.0))
            .unwrap();
        let rb = b
            .add_room(0, Rect2::from_bounds(0.0, 10.0, 50.0, 20.0))
            .unwrap();
        let rc = b
            .add_room(0, Rect2::from_bounds(50.0, 10.0, 100.0, 20.0))
            .unwrap();
        b.add_door_between(a, rb, Point2::new(10.0, 10.0)).unwrap(); // dAB
        b.add_door_between(a, rc, Point2::new(90.0, 10.0)).unwrap(); // dAC
        b.add_door_between(rb, rc, Point2::new(50.0, 15.0)).unwrap(); // dBC
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        store
            .insert(UncertainObject::point_object(
                ObjectId(1),
                idq_model::IndoorPoint::new(Point2::new(51.0, 11.0), 0),
            ))
            .unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(10.0, 5.0), 0);
        let opts = QueryOptions::default();

        let mut ctx = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            30.0,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        assert!(
            (ctx.dd.exit_horizon() - 35.0).abs() < 1e-9,
            "trust bound = min seed weight (5) + horizon (30)"
        );
        let v = ctx
            .refine_with_threshold(ObjectId(1), 200.0, &opts)
            .unwrap();
        assert_eq!(
            ctx.delta.full_graph_fallbacks, 1,
            "inexact-but-under-threshold falls back"
        );
        let mut full = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        assert!(full.dd.exit_horizon().is_infinite());
        let fv = full
            .refine_with_threshold(ObjectId(1), 200.0, &opts)
            .unwrap();
        assert_eq!(v.to_bits(), fv.to_bits(), "refined value is exact");
        // Truth: q → dAB (5) → dBC (√(40²+5²)) → object (√17).
        let truth = 5.0 + 1625f64.sqrt() + 17f64.sqrt();
        assert!((v - truth).abs() < 1e-9, "true route through B: {v}");
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default();
        let mut ctx = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        ctx.subregions_of(ObjectId(1)).unwrap();
        assert_eq!(ctx.delta.subregions_computed, 1);
        ctx.bounds(ObjectId(1)).unwrap();
        assert_eq!(ctx.delta.subregions_computed, 1);
        assert_eq!(ctx.delta.subregion_cache_hits, 1);

        // A pre-seeded cache never recomputes.
        let mut seeded = SubregionCache::new();
        let subs = Subregions::compute(store.get(ObjectId(1)).unwrap(), &space).unwrap();
        seeded.insert(ObjectId(1), subs);
        assert_eq!(seeded.len(), 1);
        assert!(!seeded.is_empty());
        let mut ctx =
            EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts, seeded).unwrap();
        ctx.subregions_of(ObjectId(1)).unwrap();
        assert_eq!(ctx.delta.subregions_computed, 0);
        assert_eq!(ctx.delta.subregion_cache_hits, 1);
    }

    #[test]
    fn shared_cache_counters_and_off_switch() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default();
        // Fresh index: the first context misses once per seed door.
        let ctx = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        assert!(ctx.delta.shared_cache_lookups >= 1);
        assert_eq!(
            ctx.delta.shared_cache_misses,
            ctx.delta.shared_cache_lookups
        );
        assert_eq!(ctx.delta.shared_cache_hits, 0);
        // Same query point again: every row is resident now.
        let ctx2 = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &opts,
            SubregionCache::new(),
        )
        .unwrap();
        assert_eq!(
            ctx2.delta.shared_cache_hits,
            ctx2.delta.shared_cache_lookups
        );
        assert_eq!(ctx2.delta.shared_cache_misses, 0);
        // Off switch: no lookups at all, identical distances.
        let off = QueryOptions::default().without_distance_cache();
        let ctx3 = EvalContext::new(
            &space,
            &store,
            &index,
            q,
            f64::INFINITY,
            &off,
            SubregionCache::new(),
        )
        .unwrap();
        assert_eq!(ctx3.delta.shared_cache_lookups, 0);
        assert_eq!(
            ctx3.delta.shared_cache_hits
                + ctx3.delta.shared_cache_misses
                + ctx3.delta.shared_cache_evictions,
            0
        );
        for d in space.doors() {
            assert_eq!(
                ctx3.dd.door_distance(d.id).to_bits(),
                ctx2.dd.door_distance(d.id).to_bits()
            );
        }
    }
}
