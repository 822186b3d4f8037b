//! Continuous range monitoring with computation reuse.
//!
//! The paper's future-work list (§VII) proposes reusing computational
//! effort when related queries arrive in a short period. The dominant
//! reusable artefact of the pipeline is the single-source door-distance
//! tree from the query point: for a *standing* range query (the airport
//! perimeter of §I), the query point never moves — only objects do. A
//! [`RangeMonitor`] therefore keeps full-graph [`DoorDistances`] for its
//! query point and re-evaluates **only the updated object** on each object
//! update, falling back to a full refresh when the topology changes
//! (which invalidates the kept distances). [`KnnMonitor`] applies the same
//! idea to a standing `ikNNQ(q, k)`: incremental top-k maintenance where
//! it is provably exact, and threshold re-verification (one fresh query)
//! whenever the result set may shrink.
//!
//! Both monitors price an object the way the one-shot queries do, through
//! the pipeline's `EvalContext`: bounds from the object's memoised
//! subregion summary, the exact expected distance from the decomposition
//! the memo's instance slots rebuild. The context is built lazily, at the
//! first evaluation after a refresh, over distances kept between
//! evaluations and stamped with the space version they were assembled on.

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::EvalContext;
use idq_distance::DoorDistances;
use idq_index::CompositeIndex;
use idq_model::IndoorPoint;
use idq_model::IndoorSpace;
use idq_objects::{ObjectId, ObjectStore};
use std::collections::BTreeSet;

/// What both monitor kinds evaluate objects with: the standing query
/// point and options, and the full-graph door distances from the point,
/// kept with the space version they were assembled on.
#[derive(Debug)]
struct Evaluator {
    q: IndoorPoint,
    options: QueryOptions,
    /// `None` until the first evaluation after a refresh.
    kept: Option<(u64, DoorDistances)>,
}

impl Evaluator {
    fn new(q: IndoorPoint, options: QueryOptions) -> Self {
        Evaluator {
            q,
            options,
            kept: None,
        }
    }

    /// Runs `eval` on a complete [`EvalContext`] from `q`: over the kept
    /// distances while the space version matches, over freshly assembled
    /// ones otherwise. The context's distances are kept afterwards.
    fn with<T>(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        eval: impl FnOnce(&mut EvalContext<'_>, &QueryOptions) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let (q, options, version) = (self.q, &self.options, space.version());
        let mut ctx = match self.kept.take() {
            Some((v, dd)) if v == version => EvalContext::over(space, store, index, q, dd, options),
            _ => EvalContext::new(space, store, index, q, f64::INFINITY, options)?,
        };
        let out = eval(&mut ctx, options);
        self.kept = Some((version, ctx.into_distances()));
        out
    }
}

/// A standing `iRQ(q, r)` kept current under object updates.
#[derive(Debug)]
pub struct RangeMonitor {
    eval: Evaluator,
    r: f64,
    /// Current result set.
    inside: BTreeSet<ObjectId>,
}

/// Outcome of feeding one object update to the monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorChange {
    /// The object entered the range.
    Entered,
    /// The object left the range.
    Left,
    /// Membership did not change.
    Unchanged,
}

impl std::fmt::Display for MonitorChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorChange::Entered => write!(f, "entered"),
            MonitorChange::Left => write!(f, "left"),
            MonitorChange::Unchanged => write!(f, "unchanged"),
        }
    }
}

impl RangeMonitor {
    /// Creates a monitor; call [`RangeMonitor::refresh`] to initialise the
    /// result set.
    pub fn new(q: IndoorPoint, r: f64, options: QueryOptions) -> Result<Self, QueryError> {
        if !r.is_finite() || r < 0.0 {
            return Err(QueryError::BadRange(r));
        }
        Ok(RangeMonitor {
            eval: Evaluator::new(q, options),
            r,
            inside: BTreeSet::new(),
        })
    }

    /// The standing query point.
    pub fn query_point(&self) -> IndoorPoint {
        self.eval.q
    }

    /// The standing radius.
    pub fn radius(&self) -> f64 {
        self.r
    }

    /// The query options evaluations use.
    pub fn options(&self) -> &QueryOptions {
        &self.eval.options
    }

    /// Objects currently inside the range, ascending by id.
    pub fn current(&self) -> Vec<ObjectId> {
        self.inside.iter().copied().collect()
    }

    /// Whether an object is currently inside.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inside.contains(&id)
    }

    /// Full re-evaluation through the indexed pipeline (used at start-up
    /// and after topology changes). Returns the objects inside.
    pub fn refresh(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<ObjectId>, QueryError> {
        let Evaluator { q, options, .. } = &self.eval;
        let out = crate::irq::range_query(space, index, store, *q, self.r, options)?;
        self.inside = out.results.iter().map(|h| h.object).collect();
        // Drop the kept distances; the next incremental update rebuilds
        // them. Keeping the rebuild out of refresh makes registration
        // (and topology fallback) pay only for the query — a fleet of
        // mostly-idle monitors never materializes per-monitor distance
        // vectors.
        self.eval.kept = None;
        Ok(self.current())
    }

    /// Processes one object update (insert, move or re-sample): evaluates
    /// **only** that object against the kept distances — bounds first,
    /// exact expected distance only when they straddle `r`.
    pub fn on_object_update(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        id: ObjectId,
    ) -> Result<MonitorChange, QueryError> {
        let r = self.r;
        let inside_now = self.eval.with(space, index, store, |ctx, options| {
            if options.use_pruning {
                let b = ctx.bounds(id)?;
                if b.upper <= r || b.lower > r {
                    return Ok(b.upper <= r);
                }
            }
            Ok(ctx.refine(id)? <= r)
        })?;
        let was_inside = self.inside.contains(&id);
        Ok(match (was_inside, inside_now) {
            (false, true) => {
                self.inside.insert(id);
                MonitorChange::Entered
            }
            (true, false) => {
                self.inside.remove(&id);
                MonitorChange::Left
            }
            _ => MonitorChange::Unchanged,
        })
    }

    /// Absorbs a whole update delta — the net effect of a committed update
    /// batch — in one call: removals drop out of the result set, updated
    /// objects (inserts and moves) are re-evaluated against the kept
    /// distances, and a topology change falls back to one full
    /// [`RangeMonitor::refresh`]. Returns every membership change, ascending
    /// by object id. This is the raw form behind the engine-level
    /// `RangeMonitor::absorb(&report, &snapshot)` entry point.
    pub fn absorb_delta(
        &mut self,
        updated: &[ObjectId],
        removed: &[ObjectId],
        topology_changed: bool,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, QueryError> {
        if topology_changed {
            let before = self.inside.clone();
            self.refresh(space, index, store)?;
            let mut changes = Vec::new();
            for &id in before.difference(&self.inside) {
                changes.push((id, MonitorChange::Left));
            }
            for &id in self.inside.difference(&before) {
                changes.push((id, MonitorChange::Entered));
            }
            changes.sort_unstable_by_key(|(id, _)| *id);
            return Ok(changes);
        }
        let mut changes = Vec::new();
        for &id in removed {
            let change = self.on_object_removed(id);
            if change != MonitorChange::Unchanged {
                changes.push((id, change));
            }
        }
        for &id in updated {
            let change = self.on_object_update(space, index, store, id)?;
            if change != MonitorChange::Unchanged {
                changes.push((id, change));
            }
        }
        changes.sort_unstable_by_key(|(id, _)| *id);
        Ok(changes)
    }

    /// Processes an object removal.
    pub fn on_object_removed(&mut self, id: ObjectId) -> MonitorChange {
        if self.inside.remove(&id) {
            MonitorChange::Left
        } else {
            MonitorChange::Unchanged
        }
    }
}

/// A standing `ikNNQ(q, k)` kept current under object updates — the kNN
/// twin of [`RangeMonitor`].
///
/// Keeps the full-graph door distances from `q` and maintains the
/// ranked top-k in exactly [`crate::iknn::knn_query`]'s order (ascending
/// `(distance, id)`). Object updates fold in incrementally where that is
/// provably equivalent to a fresh query: a non-member beating the current
/// kth (bounds first, exact expected distance only when they straddle the
/// threshold), a member improving, or any change while fewer than `k`
/// objects are reachable. When the result set may *shrink* — a member
/// worsened, became unreachable, or was removed — the kth threshold can
/// grow, which can admit objects the monitor never evaluated; the monitor
/// then **re-verifies** with one fresh query per absorbed batch rather
/// than guess. Either path leaves the ranking bit-identical to evaluating
/// `ikNNQ(q, k)` from scratch on the current state.
#[derive(Debug)]
pub struct KnnMonitor {
    eval: Evaluator,
    k: usize,
    /// Current top-k, ascending by `(distance, id)` — fresh-query order.
    topk: Vec<(f64, ObjectId)>,
}

impl KnnMonitor {
    /// Creates a monitor; call [`KnnMonitor::refresh`] to initialise the
    /// result set.
    pub fn new(q: IndoorPoint, k: usize, options: QueryOptions) -> Result<Self, QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        Ok(KnnMonitor {
            eval: Evaluator::new(q, options),
            k,
            topk: Vec::new(),
        })
    }

    /// The standing query point.
    pub fn query_point(&self) -> IndoorPoint {
        self.eval.q
    }

    /// The standing `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query options evaluations use.
    pub fn options(&self) -> &QueryOptions {
        &self.eval.options
    }

    /// The current top-k as `(object, distance)`, ascending by
    /// `(distance, id)` — the exact order a fresh
    /// [`crate::iknn::knn_query`] returns. May hold fewer than `k` entries
    /// when fewer objects are reachable.
    pub fn ranked(&self) -> Vec<(ObjectId, f64)> {
        self.topk.iter().map(|&(d, id)| (id, d)).collect()
    }

    /// Objects currently in the top-k, ascending by id.
    pub fn current(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.topk.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Whether an object is currently in the top-k.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.topk.iter().any(|&(_, m)| m == id)
    }

    /// The distance a candidate must beat to enter the result — the kth
    /// distance, or `+∞` while fewer than `k` objects are reachable (then
    /// *every* reachable object qualifies).
    pub fn threshold(&self) -> f64 {
        if self.topk.len() < self.k {
            f64::INFINITY
        } else {
            self.topk.last().map_or(f64::INFINITY, |&(d, _)| d)
        }
    }

    /// Full re-evaluation through the indexed pipeline (used at start-up
    /// and after topology changes or shrink re-verification). Returns the
    /// ranked result.
    pub fn refresh(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, f64)>, QueryError> {
        let Evaluator { q, options, .. } = &self.eval;
        let out = crate::iknn::knn_query(space, index, store, *q, self.k, options)?;
        self.topk = out.results.iter().map(|h| (h.distance, h.object)).collect();
        // Drop the kept distances; the next incremental update rebuilds
        // them (see the range monitor's refresh for the registration-cost
        // rationale).
        self.eval.kept = None;
        Ok(self.ranked())
    }

    /// Absorbs a whole update delta in one call — the kNN counterpart of
    /// [`RangeMonitor::absorb_delta`]. Incremental per-object maintenance
    /// where exact, one fresh re-query for the whole batch when the
    /// threshold may have grown. Returns every **membership** change,
    /// ascending by object id (rank-only changes are visible through
    /// [`KnnMonitor::ranked`]).
    pub fn absorb_delta(
        &mut self,
        updated: &[ObjectId],
        removed: &[ObjectId],
        topology_changed: bool,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, QueryError> {
        let before: BTreeSet<ObjectId> = self.topk.iter().map(|&(_, id)| id).collect();
        // A removed member shrinks the set: the threshold grows.
        let mut need_refresh = topology_changed || removed.iter().any(|id| before.contains(id));
        if !need_refresh && !updated.is_empty() {
            let (k, topk) = (self.k, &mut self.topk);
            need_refresh = self.eval.with(space, index, store, |ctx, options| {
                for &id in updated {
                    if fold_update(topk, k, ctx, options, id)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            })?;
        }
        if need_refresh {
            self.refresh(space, index, store)?;
        }
        let after: BTreeSet<ObjectId> = self.topk.iter().map(|&(_, id)| id).collect();
        let mut changes: Vec<(ObjectId, MonitorChange)> = Vec::new();
        for &id in before.difference(&after) {
            changes.push((id, MonitorChange::Left));
        }
        for &id in after.difference(&before) {
            changes.push((id, MonitorChange::Entered));
        }
        changes.sort_unstable_by_key(|(id, _)| *id);
        Ok(changes)
    }
}

/// Folds one object update into a top-k of `k`. Returns `true` when the
/// incremental step is not provably exact — the result set may shrink,
/// raising the threshold — and the caller must fall back to a fresh
/// re-query.
fn fold_update(
    topk: &mut Vec<(f64, ObjectId)>,
    k: usize,
    ctx: &mut EvalContext<'_>,
    options: &QueryOptions,
    id: ObjectId,
) -> Result<bool, QueryError> {
    if let Some(pos) = topk.iter().position(|&(_, m)| m == id) {
        let old = topk[pos].0;
        let d = ctx.refine(id)?;
        if !d.is_finite() || d > old {
            // A member worsened: objects the monitor never evaluated may
            // now beat the (grown) threshold. Re-verify.
            return Ok(true);
        }
        topk[pos].0 = d;
    } else if topk.len() < k {
        // Fewer than k reachable: every reachable object qualifies.
        let d = ctx.refine(id)?;
        if !d.is_finite() {
            return Ok(false);
        }
        topk.push((d, id));
    } else {
        let &(dk, idk) = topk.last().expect("len == k >= 1");
        if options.use_pruning && ctx.bounds(id)?.lower > dk {
            // Cannot beat the kth even on a tie: d ≥ lower > dk.
            return Ok(false);
        }
        let d = ctx.refine(id)?;
        if !(d.is_finite() && (d < dk || (d == dk && id < idk))) {
            return Ok(false);
        }
        topk.pop();
        topk.push((d, id));
    }
    // `total_cmp` orders the finite distances admitted above exactly as
    // `<` does, without a panic site.
    topk.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(false)
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
        let store = ObjectStore::new();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    fn point_obj(id: u64, x: f64) -> UncertainObject {
        UncertainObject::point_object(
            ObjectId(id),
            idq_model::IndoorPoint::new(Point2::new(x, 5.0), 0),
        )
    }

    fn move_to(
        store: &mut ObjectStore,
        index: &mut CompositeIndex,
        space: &IndoorSpace,
        id: u64,
        x: f64,
    ) {
        put(store, index, space, point_obj(id, x));
    }

    /// Inserts `obj`, or replaces the object with its id.
    fn put(
        store: &mut ObjectStore,
        index: &mut CompositeIndex,
        space: &IndoorSpace,
        obj: UncertainObject,
    ) {
        let id = obj.id;
        if store.contains(id) {
            store.remove(id).unwrap();
            store.insert(obj).unwrap();
            index.update_object(space, store.get(id).unwrap()).unwrap();
        } else {
            index.insert_object(space, &obj).unwrap();
            store.insert(obj).unwrap();
        }
    }

    #[test]
    fn incremental_tracking_matches_fresh_queries() {
        let (space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 15.0, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        assert!(mon.current().is_empty());

        // Object appears inside the range.
        move_to(&mut store, &mut index, &space, 1, 12.0);
        let c = mon
            .on_object_update(&space, &index, &store, ObjectId(1))
            .unwrap();
        assert_eq!(c, MonitorChange::Entered);
        assert!(mon.contains(ObjectId(1)));

        // It wanders out.
        move_to(&mut store, &mut index, &space, 1, 28.0);
        let c = mon
            .on_object_update(&space, &index, &store, ObjectId(1))
            .unwrap();
        assert_eq!(c, MonitorChange::Left);

        // Cross-check against a fresh range query after a series of moves.
        for (id, x) in [(2u64, 5.0), (3, 16.0), (4, 25.0)] {
            move_to(&mut store, &mut index, &space, id, x);
            mon.on_object_update(&space, &index, &store, ObjectId(id))
                .unwrap();
        }
        let fresh =
            crate::irq::range_query(&space, &index, &store, q, 15.0, &QueryOptions::default())
                .unwrap();
        let fresh_ids: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
        assert_eq!(mon.current(), fresh_ids);
    }

    #[test]
    fn removal_and_topology_invalidation() {
        let (mut space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 25.0, QueryOptions::default()).unwrap();
        move_to(&mut store, &mut index, &space, 1, 15.0);
        mon.refresh(&space, &index, &store).unwrap();
        assert!(mon.contains(ObjectId(1)));

        // Removal.
        index.remove_object(ObjectId(1)).unwrap();
        store.remove(ObjectId(1)).unwrap();
        assert_eq!(mon.on_object_removed(ObjectId(1)), MonitorChange::Left);
        assert_eq!(mon.on_object_removed(ObjectId(1)), MonitorChange::Unchanged);

        // Topology change: close the first door, refresh, and verify the
        // monitor agrees with a fresh query (nothing reachable anymore).
        move_to(&mut store, &mut index, &space, 2, 15.0);
        mon.on_object_update(&space, &index, &store, ObjectId(2))
            .unwrap();
        assert!(mon.contains(ObjectId(2)));
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        let now = mon.refresh(&space, &index, &store).unwrap();
        assert!(now.is_empty(), "door closed: nothing in range");
    }

    #[test]
    fn stale_cache_is_detected_via_version() {
        let (mut space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 25.0, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        // The first update builds and keeps the distances.
        move_to(&mut store, &mut index, &space, 9, 15.0);
        let c = mon
            .on_object_update(&space, &index, &store, ObjectId(9))
            .unwrap();
        assert_eq!(c, MonitorChange::Entered);
        // A topology change bumps the version; the next update rebuilds
        // the kept distances without being told.
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        move_to(&mut store, &mut index, &space, 9, 16.0);
        let c = mon
            .on_object_update(&space, &index, &store, ObjectId(9))
            .unwrap();
        assert_eq!(c, MonitorChange::Left, "unreachable after door close");
    }

    #[test]
    fn absorb_delta_matches_per_object_feeding() {
        let (mut space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 15.0, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        // One insert inside, one insert outside, then a removal: absorbed
        // as one delta.
        move_to(&mut store, &mut index, &space, 1, 12.0);
        move_to(&mut store, &mut index, &space, 2, 28.0);
        move_to(&mut store, &mut index, &space, 3, 8.0);
        index.remove_object(ObjectId(3)).unwrap();
        store.remove(ObjectId(3)).unwrap();
        let changes = mon
            .absorb_delta(
                &[ObjectId(1), ObjectId(2)],
                &[ObjectId(3)],
                false,
                &space,
                &index,
                &store,
            )
            .unwrap();
        assert_eq!(changes, vec![(ObjectId(1), MonitorChange::Entered)]);
        assert_eq!(mon.current(), vec![ObjectId(1)]);

        // A topology flag forces the refresh fallback and reports the net
        // membership diff.
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        let changes = mon
            .absorb_delta(&[], &[], true, &space, &index, &store)
            .unwrap();
        assert_eq!(changes, vec![(ObjectId(1), MonitorChange::Left)]);
        assert!(mon.current().is_empty());
    }

    #[test]
    fn bad_radius_rejected() {
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        assert!(RangeMonitor::new(q, f64::NAN, QueryOptions::default()).is_err());
        assert!(RangeMonitor::new(q, -1.0, QueryOptions::default()).is_err());
        assert!(KnnMonitor::new(q, 0, QueryOptions::default()).is_err());
    }

    /// Ranked result of a fresh kNN on the current state.
    fn fresh_knn(
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        q: idq_model::IndoorPoint,
        k: usize,
    ) -> Vec<(ObjectId, f64)> {
        crate::iknn::knn_query(space, index, store, q, k, &QueryOptions::default())
            .unwrap()
            .results
            .iter()
            .map(|h| (h.object, h.distance))
            .collect()
    }

    #[test]
    fn knn_monitor_tracks_fresh_queries_incrementally() {
        let (space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = KnnMonitor::new(q, 2, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        assert!(mon.ranked().is_empty());
        assert_eq!(mon.threshold(), f64::INFINITY, "fewer than k reachable");

        // Fill up below k, then admit a closer non-member, then worsen a
        // member (the shrink path), checking the ranking against a fresh
        // query after every absorbed delta.
        type Step<'a> = (&'a [(u64, f64)], &'a [u64]);
        let steps: &[Step] = &[
            (&[(1, 12.0)], &[]),           // first object: len < k
            (&[(2, 25.0)], &[]),           // second: len == k
            (&[(3, 5.0)], &[]),            // closer non-member admits
            (&[(1, 28.0)], &[]),           // member worsens: re-verify
            (&[(2, 6.0), (4, 14.0)], &[]), // mixed batch
            (&[], &[3]),                   // removed member: re-verify
        ];
        for (moves, removals) in steps {
            for &(id, x) in *moves {
                move_to(&mut store, &mut index, &space, id, x);
            }
            for &id in *removals {
                index.remove_object(ObjectId(id)).unwrap();
                store.remove(ObjectId(id)).unwrap();
            }
            let updated: Vec<ObjectId> = moves.iter().map(|&(id, _)| ObjectId(id)).collect();
            let removed: Vec<ObjectId> = removals.iter().map(|&id| ObjectId(id)).collect();
            mon.absorb_delta(&updated, &removed, false, &space, &index, &store)
                .unwrap();
            assert_eq!(
                mon.ranked(),
                fresh_knn(&space, &index, &store, q, 2),
                "after moves {moves:?} removals {removals:?}"
            );
        }
    }

    #[test]
    fn knn_monitor_membership_changes_and_topology_refresh() {
        let (mut space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = KnnMonitor::new(q, 1, QueryOptions::default()).unwrap();
        move_to(&mut store, &mut index, &space, 1, 15.0);
        move_to(&mut store, &mut index, &space, 2, 25.0);
        mon.refresh(&space, &index, &store).unwrap();
        assert!(mon.contains(ObjectId(1)));
        assert_eq!(mon.current(), vec![ObjectId(1)]);

        // The far object moves closer than the current 1-NN (staying
        // behind the first door, so the door close below cuts it off).
        move_to(&mut store, &mut index, &space, 2, 12.0);
        let changes = mon
            .absorb_delta(&[ObjectId(2)], &[], false, &space, &index, &store)
            .unwrap();
        assert_eq!(
            changes,
            vec![
                (ObjectId(1), MonitorChange::Left),
                (ObjectId(2), MonitorChange::Entered)
            ]
        );

        // Closing the first door makes everything unreachable: the
        // topology flag forces a refresh and the set empties.
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        let changes = mon
            .absorb_delta(&[], &[], true, &space, &index, &store)
            .unwrap();
        assert_eq!(changes, vec![(ObjectId(2), MonitorChange::Left)]);
        assert!(mon.ranked().is_empty());
        assert_eq!(mon.ranked(), fresh_knn(&space, &index, &store, q, 1));
    }

    #[test]
    fn monitors_price_moved_objects_through_the_summary_memo() {
        let (space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        // Three instances around `x`; one centred on the r0/r1 door
        // splits into two subregions.
        let spread = |id: u64, x: f64| {
            let positions = vec![
                Point2::new(x - 1.5, 4.0),
                Point2::new(x, 5.0),
                Point2::new(x + 1.5, 6.0),
            ];
            let region = Circle::new(Point2::new(x, 5.0), 2.0);
            UncertainObject::with_uniform_weights(ObjectId(id), region, 0, positions).unwrap()
        };
        for (id, x) in [(1, 25.0), (2, 28.0), (3, 15.0)] {
            put(&mut store, &mut index, &space, spread(id, x));
        }
        let (r, opts) = (8.5, QueryOptions::default());
        let mut range = RangeMonitor::new(q, r, opts).unwrap();
        let mut knn = KnnMonitor::new(q, 2, opts).unwrap();
        range.refresh(&space, &index, &store).unwrap();
        knn.refresh(&space, &index, &store).unwrap();

        // A far non-member moves onto the door (admitted), a member
        // improves, a non-member stays beyond the kth: no step shrinks the
        // top-k, so neither monitor re-queries.
        for (id, x) in [(2, 10.0), (3, 12.0), (1, 20.5)] {
            put(&mut store, &mut index, &space, spread(id, x));
            let moved = [ObjectId(id)];
            range
                .absorb_delta(&moved, &[], false, &space, &index, &store)
                .unwrap();
            knn.absorb_delta(&moved, &[], false, &space, &index, &store)
                .unwrap();
            let obj = store.get(ObjectId(id)).unwrap();
            let (_, computed) = obj.subregion_summary(&space, Vec::new).unwrap();
            assert!(!computed, "object {id}: the monitors filled the memo");

            let bits = |ranked: &[(ObjectId, f64)]| -> Vec<(ObjectId, u64)> {
                ranked.iter().map(|&(o, d)| (o, d.to_bits())).collect()
            };
            let fresh = fresh_knn(&space, &index, &store, q, 2);
            assert_eq!(bits(&knn.ranked()), bits(&fresh), "object {id}");
            let fresh = crate::irq::range_query(&space, &index, &store, q, r, &opts).unwrap();
            let fresh: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
            assert_eq!(range.current(), fresh, "object {id}");
        }
        assert_eq!(range.current(), [ObjectId(2)]);

        // Object 2's bounds straddle `r`, so the range monitor priced it
        // exactly.
        let mut ctx = EvalContext::new(&space, &store, &index, q, f64::INFINITY, &opts).unwrap();
        let b = ctx.bounds(ObjectId(2)).unwrap();
        assert!(b.lower <= r && r < b.upper, "{b:?}");
    }
}
