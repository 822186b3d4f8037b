//! Shared evaluation machinery of the four-phase pipeline: the candidate
//! evaluation context, horizon-banded door distances composed from the
//! shared distance cache, and the lazy full-graph fallback.
//!
//! Pruning — both queries' bounds, and the ikNN search's summary keys —
//! reads each object's memoised subregion summary
//! ([`idq_objects::UncertainObject::subregion_summary`]) and never its
//! instances. Only refinement needs an object's instance indices: it
//! takes the decomposition once per context, into the context's private
//! map, from [`idq_objects::UncertainObject::subregions`] — rebuilt from
//! the memo's per-instance slots on the memo's layout, so the point
//! location kernel runs only at memo fill or off the memo's layout.
//! The standing monitors price objects through the same context, over
//! complete door distances they keep between evaluations
//! (`EvalContext::over`). The ikNN search grows its context in place
//! (`EvalContext::grow`) as its keys rise.
//!
//! **Every** door-distance context here is
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
use idq_geom::IdMap;
use idq_index::CompositeIndex;
use idq_model::{IndoorPoint, IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore, SubregionSummary, Subregions, UncertainObject};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Per-query evaluation context.
///
/// Holds the restricted door distances of the subgraph phase and computes
/// bounds (from memoised subregion summaries) and exact expected distances
/// (from full decompositions, built once per object per context) per
/// object, lazily falling back to full-graph distances when the
/// restriction truncates a needed path.
pub(crate) struct EvalContext<'a> {
    pub space: &'a IndoorSpace,
    pub store: &'a ObjectStore,
    pub index: &'a CompositeIndex,
    pub q: IndoorPoint,
    pub dd: DoorDistances,
    /// The horizon `dd` was assembled at.
    horizon: f64,
    full_dd: Option<DoorDistances>,
    /// Decompositions with instance indices, built for refinement only.
    refined: IdMap<ObjectId, Subregions>,
    use_shared_cache: bool,
    cache_budget: usize,
    /// Work this context did since the last [`EvalContext::drain_into`]:
    /// full-graph fallbacks, summary and refinement decompositions
    /// computed / reused, and shared-distance-cache traffic. Every other
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

impl<'a> EvalContext<'a> {
    /// Builds the context, assembling door distances truncated at
    /// `horizon` (pass `f64::INFINITY` for a complete context) from the
    /// shared distance cache per `options`.
    pub fn new(
        space: &'a IndoorSpace,
        store: &'a ObjectStore,
        index: &'a CompositeIndex,
        q: IndoorPoint,
        horizon: f64,
        options: &QueryOptions,
    ) -> Result<Self, QueryError> {
        let use_shared = options.distance_cache;
        let budget = options.distance_cache_bytes;
        let mut delta = QueryStats::default();
        let dd = assemble_dd(space, index, q, horizon, use_shared, budget, &mut delta)?;
        Ok(EvalContext {
            delta,
            horizon,
            ..Self::over(space, store, index, q, dd, options)
        })
    }

    /// The horizon the door distances were assembled at: `∞` for an
    /// unrestricted context.
    pub fn horizon(&self) -> f64 {
        if self.dd.is_restricted() {
            self.horizon
        } else {
            f64::INFINITY
        }
    }

    /// Re-assembles the door distances at `horizon` when it is wider
    /// than the current one, keeping the refinement decompositions and
    /// any full-graph distances.
    pub fn grow(&mut self, horizon: f64) -> Result<(), QueryError> {
        if horizon <= self.horizon() {
            return Ok(());
        }
        self.dd = assemble_dd(
            self.space,
            self.index,
            self.q,
            horizon,
            self.use_shared_cache,
            self.cache_budget,
            &mut self.delta,
        )?;
        self.horizon = horizon;
        Ok(())
    }

    /// A context over complete door distances from `q` that an earlier
    /// context assembled on this space version and gave back through
    /// [`EvalContext::into_distances`] — how a standing query keeps its
    /// complete context between evaluations.
    pub fn over(
        space: &'a IndoorSpace,
        store: &'a ObjectStore,
        index: &'a CompositeIndex,
        q: IndoorPoint,
        dd: DoorDistances,
        options: &QueryOptions,
    ) -> Self {
        EvalContext {
            space,
            store,
            index,
            q,
            dd,
            horizon: f64::INFINITY,
            full_dd: None,
            refined: IdMap::default(),
            use_shared_cache: options.distance_cache,
            cache_budget: options.distance_cache_bytes,
            delta: QueryStats::default(),
        }
    }

    /// The context's door distances, for a later [`EvalContext::over`].
    pub fn into_distances(self) -> DoorDistances {
        self.dd
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

    /// Decomposition of one object with instance indices — for
    /// refinement — taken on first use (from the object's memo when it is
    /// on this layout, counted as a hit) and kept for every later
    /// refinement of the same object in this context.
    pub fn subregions_of(&mut self, id: ObjectId) -> Result<&Subregions, QueryError> {
        Ok(match self.refined.entry(id) {
            Entry::Occupied(e) => {
                self.delta.subregion_cache_hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                let obj = self.store.get(id)?;
                let (subs, computed) =
                    obj.subregions(self.space, || object_partition_hint(self.index, id))?;
                tally(&mut self.delta, computed);
                e.insert(subs)
            }
        })
    }

    /// Phase-3 bounds for one object (Table III dispatch), from its
    /// memoised subregion summary.
    pub fn bounds(&mut self, id: ObjectId) -> Result<ObjectBounds, QueryError> {
        let obj = self.store.get(id)?;
        let summary = summary_of(self.space, self.index, obj, &mut self.delta)?;
        Ok(object_bounds(self.space, &self.dd, summary.iter()))
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
        Ok(expected_indoor_distance(self.space, dd, obj, &self.refined[&id]).value)
    }

    /// Refinement: computes the expected distance against the banded
    /// context and returns it when it is *provably exact* — every
    /// instance cost at or below the context's
    /// [`exit horizon`](idq_distance::DoorDistances::exit_horizon), so no
    /// path leaving the band can undercut one. Otherwise the value is
    /// recomputed against the full graph. Every returned value therefore
    /// equals the full-graph expected distance bit for bit, independent
    /// of how the horizon was chosen — which is what makes batched
    /// execution (whose shared context is truncated at the *maximum* of a
    /// group's reaches) return the same answers as single-issue
    /// execution. Callers compare it with their own radius or k-th
    /// distance.
    pub fn refine(&mut self, id: ObjectId, options: &QueryOptions) -> Result<f64, QueryError> {
        if options.exact_refinement || !self.dd.is_restricted() {
            return self.refine_full_or_direct(id);
        }
        self.subregions_of(id)?;
        let obj = self.store.get(id)?;
        let e = expected_indoor_distance(self.space, &self.dd, obj, &self.refined[&id]);
        if e.max_instance_cost <= self.dd.exit_horizon() {
            return Ok(e.value);
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
            Ok(expected_indoor_distance(self.space, &self.dd, obj, &self.refined[&id]).value)
        }
    }
}

/// An object's subregion summary on `space`'s layout — memoised in the
/// object, filled with the o-table hint on first read — counted into
/// `stats` as a decomposition computed or reused.
pub(crate) fn summary_of<'o>(
    space: &IndoorSpace,
    index: &CompositeIndex,
    obj: &'o UncertainObject,
    stats: &mut QueryStats,
) -> Result<Cow<'o, [SubregionSummary]>, QueryError> {
    let (summary, computed) =
        obj.subregion_summary(space, || object_partition_hint(index, obj.id))?;
    tally(stats, computed);
    Ok(summary)
}

/// Counts one decomposition read as computed (the kernel ran) or reused.
fn tally(stats: &mut QueryStats, computed: bool) {
    if computed {
        stats.subregions_computed += 1;
    } else {
        stats.subregion_cache_hits += 1;
    }
}

/// The partitions an object overlaps according to the index's o-table
/// (via the h-table); empty when the object is not indexed. Point location
/// per instance becomes a handful of containment checks.
pub(crate) fn object_partition_hint(index: &CompositeIndex, id: ObjectId) -> Vec<PartitionId> {
    index
        .object_layer()
        .units_of(id)
        .map(|units| index.units().owning_partitions(units))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2, Polygon, Rect2};
    use idq_index::IndexConfig;
    use idq_model::{
        Direction, DoorId, DoorSpec, FloorPlanBuilder, PartitionKind, PartitionSpec, SplitLine,
        TopologyEvent,
    };
    use idq_objects::GaussianSampler;
    use proptest::prelude::*;
    use proptest::rand::{rngs::StdRng, SeedableRng};

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
        let mut ctx = EvalContext::new(&space, &store, &index, q, 5.0, &opts).unwrap();
        let b = ctx.bounds(ObjectId(1)).unwrap();
        assert!(b.upper.is_infinite(), "banded bounds see no path");
        // Refinement falls back to the full graph.
        let v = ctx.refine(ObjectId(1), &opts).unwrap();
        assert!(v.is_finite());
        assert_eq!(ctx.delta.full_graph_fallbacks, 1);
        // The full value matches a complete context, bit for bit.
        let mut full = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        let fv = full.refine(ObjectId(1), &opts).unwrap();
        assert_eq!(v.to_bits(), fv.to_bits());
    }

    #[test]
    fn an_exact_value_above_a_radius_needs_no_fallback() {
        // Rooms [0,10] [10,20] [20,30] [30,100] [100,110] in a row. From
        // q in the first room, a 30 m horizon cuts the only seed row
        // before the door at x = 100, so the context stays banded with
        // exit horizon 8 + 30 = 38. The object's instances cost 22 and
        // 24: its value is exact, and above a 10 m radius.
        let mut b = FloorPlanBuilder::new(4.0);
        let rooms: Vec<PartitionId> = [0.0, 10.0, 20.0, 30.0, 100.0, 110.0]
            .windows(2)
            .map(|x| {
                b.add_room(0, Rect2::from_bounds(x[0], 0.0, x[1], 10.0))
                    .unwrap()
            })
            .collect();
        for (pair, x) in rooms.windows(2).zip([10.0, 20.0, 30.0, 100.0]) {
            b.add_door_between(pair[0], pair[1], Point2::new(x, 5.0))
                .unwrap();
        }
        let space = b.finish().unwrap();
        let (_, store, _) = setup();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default();
        let mut ctx = EvalContext::new(&space, &store, &index, q, 30.0, &opts).unwrap();
        assert!(ctx.dd.is_restricted());
        assert_eq!(ctx.dd.exit_horizon(), 38.0);
        let v = ctx.refine(ObjectId(1), &opts).unwrap();
        assert!(v > 10.0, "{v}");
        assert_eq!(ctx.delta.full_graph_fallbacks, 0);
        let mut full = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        assert_eq!(
            v.to_bits(),
            full.refine(ObjectId(1), &opts).unwrap().to_bits()
        );
    }

    #[test]
    fn exact_refinement_option_uses_full_graph() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default().with_exact_refinement();
        let mut ctx = EvalContext::new(&space, &store, &index, q, 5.0, &opts).unwrap();
        let v = ctx.refine(ObjectId(1), &opts).unwrap();
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
        // object's value (≈120 m vs ≈49 m truth), finitely. The
        // exit-horizon check (min seed weight 5 + horizon 30 = 35) rejects
        // the inflated value and forces the full-graph fallback, keeping
        // refinement horizon-independent.
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

        let mut ctx = EvalContext::new(&space, &store, &index, q, 30.0, &opts).unwrap();
        assert!(
            (ctx.dd.exit_horizon() - 35.0).abs() < 1e-9,
            "trust bound = min seed weight (5) + horizon (30)"
        );
        let v = ctx.refine(ObjectId(1), &opts).unwrap();
        assert_eq!(
            ctx.delta.full_graph_fallbacks, 1,
            "an inexact value falls back"
        );
        let mut full = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        assert!(full.dd.exit_horizon().is_infinite());
        let fv = full.refine(ObjectId(1), &opts).unwrap();
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
        let counts = |ctx: &EvalContext<'_>| {
            (
                ctx.delta.subregions_computed,
                ctx.delta.subregion_cache_hits,
            )
        };
        let mut ctx = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        // Bounds read the summary: the first read fills the object's
        // memo, the next reuses it.
        ctx.bounds(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (1, 0));
        ctx.bounds(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (1, 1));
        // Refinement rebuilds the decomposition from the filled memo (a
        // hit), once per context, then reuses it from the context's map.
        ctx.subregions_of(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (1, 2));
        ctx.subregions_of(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (1, 3));

        // The memo outlives the context; the refinement map does not.
        let mut ctx = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        ctx.bounds(ObjectId(1)).unwrap();
        ctx.subregions_of(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (0, 2));

        // A refinement that finds the memo empty runs the kernel and
        // fills it for the bounds.
        let (space, store, index) = setup();
        let mut ctx = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        ctx.subregions_of(ObjectId(1)).unwrap();
        ctx.bounds(ObjectId(1)).unwrap();
        assert_eq!(counts(&ctx), (1, 1));
    }

    #[test]
    fn objects_beyond_256_subregions_decompose_with_the_kernel() {
        // 300 one-metre rooms in a row, one instance in each.
        let mut b = FloorPlanBuilder::new(4.0);
        for i in 0..300 {
            let x = i as f64;
            b.add_room(0, Rect2::from_bounds(x, 0.0, x + 1.0, 10.0))
                .unwrap();
        }
        let space = b.finish().unwrap();
        let positions = (0..300).map(|i| Point2::new(i as f64 + 0.5, 5.0)).collect();
        let region = Circle::new(Point2::new(150.0, 5.0), 150.0);
        let obj = UncertainObject::with_uniform_weights(ObjectId(1), region, 0, positions).unwrap();
        let mut store = ObjectStore::new();
        store.insert(obj).unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let hint = object_partition_hint(&index, ObjectId(1));
        let kernel =
            Subregions::compute_with_hint(store.get(ObjectId(1)).unwrap(), &space, &hint).unwrap();
        assert_eq!(kernel.len(), 300);

        let q = IndoorPoint::new(Point2::new(0.5, 5.0), 0);
        let opts = QueryOptions::default();
        for pass in 0..2 {
            let mut ctx =
                EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
            ctx.bounds(ObjectId(1)).unwrap();
            assert_eq!(*ctx.subregions_of(ObjectId(1)).unwrap(), kernel);
            let counts = (
                ctx.delta.subregions_computed,
                ctx.delta.subregion_cache_hits,
            );
            // The summary is memoised on the first pass and read from
            // the memo on the second; the decomposition has no slots and
            // runs the kernel both times.
            let want = if pass == 0 { (2, 0) } else { (1, 1) };
            assert_eq!(counts, want, "pass {pass}");
        }
    }

    #[test]
    fn shared_cache_counters_and_off_switch() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = QueryOptions::default();
        // Fresh index: the first context misses once per seed door.
        let ctx = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        assert!(ctx.delta.shared_cache_lookups >= 1);
        assert_eq!(
            ctx.delta.shared_cache_misses,
            ctx.delta.shared_cache_lookups
        );
        assert_eq!(ctx.delta.shared_cache_hits, 0);
        // Same query point again: every row is resident now.
        let ctx2 = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        assert_eq!(
            ctx2.delta.shared_cache_hits,
            ctx2.delta.shared_cache_lookups
        );
        assert_eq!(ctx2.delta.shared_cache_misses, 0);
        // Off switch: no lookups at all, identical distances.
        let off = QueryOptions::default().without_distance_cache();
        let ctx3 = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &off).unwrap();
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

    /// Floor 0: rooms A | B | C and hall E in a row, then a staircase up
    /// to floor 1's long room. Returns the space, A, E and the A–B door.
    fn oracle_world() -> (IndoorSpace, PartitionId, PartitionId, DoorId) {
        let mut b = FloorPlanBuilder::new(4.0);
        let room = |b: &mut FloorPlanBuilder, x0: f64, x1: f64, floor: u16| {
            b.add_room(floor, Rect2::from_bounds(x0, 0.0, x1, 10.0))
                .unwrap()
        };
        let (a, rb, c) = (
            room(&mut b, 0.0, 10.0, 0),
            room(&mut b, 10.0, 20.0, 0),
            room(&mut b, 20.0, 30.0, 0),
        );
        let hall = room(&mut b, 30.0, 50.0, 0);
        let upstairs = room(&mut b, 0.0, 50.0, 1);
        let stairs = b
            .add_staircase((0, 1), Rect2::from_bounds(50.0, 0.0, 54.0, 10.0))
            .unwrap();
        let door = b.add_door_between(a, rb, Point2::new(10.0, 5.0)).unwrap();
        b.add_door_between(rb, c, Point2::new(20.0, 5.0)).unwrap();
        b.add_door_between(c, hall, Point2::new(30.0, 5.0)).unwrap();
        for (floor, p) in [(0, hall), (1, upstairs)] {
            b.add_staircase_entrance(stairs, p, floor, Point2::new(50.0, 5.0))
                .unwrap();
        }
        (b.finish().unwrap(), a, hall, door)
    }

    /// Reads every object's summary, then its decomposition, the way the
    /// pipeline does and checks both against the kernel on the current
    /// layout, field for field (instance indices included). The
    /// decomposition comes from the memo's slots exactly when the summary
    /// did. Returns the (computed, reused) counts of the summary reads.
    fn summaries_match_kernel(
        space: &IndoorSpace,
        store: &ObjectStore,
        index: &CompositeIndex,
    ) -> (usize, usize) {
        let mut stats = QueryStats::default();
        for obj in store.iter() {
            let summary = summary_of(space, index, obj, &mut stats).unwrap();
            let hint = object_partition_hint(index, obj.id);
            let kernel = Subregions::compute_with_hint(obj, space, &hint).unwrap();
            assert_eq!(summary.len(), kernel.len(), "{}", obj.id);
            for (m, k) in summary.iter().zip(kernel.summaries()) {
                assert_eq!(m.partition, k.partition, "{}", obj.id);
                assert_eq!(m.prob.to_bits(), k.prob.to_bits(), "{}", obj.id);
                assert_eq!(m.bbox, k.bbox, "{}", obj.id);
            }
            let (subs, computed) = obj.subregions(space, || hint.clone()).unwrap();
            assert_eq!(subs, kernel, "{}", obj.id);
            let on_layout = matches!(summary, Cow::Borrowed(_));
            assert_eq!(
                computed, !on_layout,
                "{}: slots serve the memo's layout",
                obj.id
            );
        }
        (stats.subregions_computed, stats.subregion_cache_hits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The memoised summary is the kernel's projection with the
        /// o-table hint, before and after a topology sequence: a door
        /// toggle keeps the layout and every memo; a split, merge and
        /// insert each make a new layout, read fresh and equal to the
        /// kernel there.
        #[test]
        fn memoised_summary_is_the_kernel_on_every_layout(
            objects in proptest::collection::vec(
                (1.0f64..49.0, 0.5f64..9.5, 0u16..2,
                 proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 1..6)),
                3..9,
            ),
            split_at in 32.0f64..48.0,
            seed in any::<u64>(),
        ) {
            let (mut space, a, hall, door) = oracle_world();
            let mut store = ObjectStore::new();
            // Explicit instances: the centre, a point on the nearest
            // partition wall (x = 50 is the staircase's), one on the
            // south outer wall, one in the staircase, and the drawn
            // offsets, kept inside the building.
            for (i, (cx, cy, floor, offsets)) in objects.iter().enumerate() {
                let wall = (cx / 10.0).round().clamp(1.0, 5.0) * 10.0;
                let mut positions = vec![
                    Point2::new(*cx, *cy),
                    Point2::new(wall, *cy),
                    Point2::new(*cx, 0.0),
                    Point2::new(52.0, *cy),
                ];
                positions.extend(offsets.iter().map(|(dx, dy)| {
                    Point2::new((cx + dx).clamp(0.0, 54.0), (cy + dy).clamp(0.0, 10.0))
                }));
                let region = Circle::new(Point2::new(*cx, *cy), 4.0);
                let o = UncertainObject::with_uniform_weights(ObjectId(i as u64), region, *floor, positions);
                store.insert(o.unwrap()).unwrap();
            }
            // Sampled objects; the first sits in the hall the split cuts.
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, x) in [40.0, 15.0, 52.0].into_iter().enumerate() {
                let id = ObjectId(100 + i as u64);
                let o = GaussianSampler::with_instances(12)
                    .sample(id, Point2::new(x, 5.0), 0, 6.0, &space, &mut rng)
                    .unwrap();
                store.insert(o).unwrap();
            }
            let mut index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
            let apply = |index: &mut CompositeIndex, space: &IndoorSpace, evs: &[TopologyEvent]| {
                for ev in evs {
                    index.apply_topology(space, &store, ev).unwrap();
                }
            };
            let n = store.len();
            let check = |space: &IndoorSpace, index: &CompositeIndex| {
                summaries_match_kernel(space, &store, index)
            };
            prop_assert_eq!(check(&space, &index), (n, 0), "first reads fill");
            prop_assert_eq!(check(&space, &index), (0, n), "then hit");

            let layout = space.layout_id();
            let toggle = space.close_door(door).unwrap();
            apply(&mut index, &space, &[toggle]);
            prop_assert_eq!(space.layout_id(), layout);
            prop_assert_eq!(check(&space, &index), (0, n), "memos kept");

            let (halves, events) = space
                .split_partition(hall, SplitLine::AtX(split_at), Some(Point2::new(split_at, 5.0)))
                .unwrap();
            apply(&mut index, &space, &events);
            prop_assert_ne!(space.layout_id(), layout);
            prop_assert_eq!(check(&space, &index), (n, 0), "all fresh");

            let (_, events) = space.merge_partitions(halves[0], halves[1]).unwrap();
            apply(&mut index, &space, &events);
            check(&space, &index);

            let (_, _, events) = space
                .insert_partition(PartitionSpec {
                    kind: PartitionKind::Room,
                    name: None,
                    floor: 0,
                    footprint: Polygon::from_rect(Rect2::from_bounds(0.0, -10.0, 50.0, 0.0)),
                    doors: vec![DoorSpec {
                        position: Point2::new(5.0, 0.0),
                        other: a,
                        direction: Direction::Bidirectional,
                    }],
                })
                .unwrap();
            apply(&mut index, &space, &events);
            check(&space, &index);
        }
    }
}
