//! Continuous range and kNN monitoring with computation reuse.
//!
//! The paper's future-work list (§VII) proposes reusing computational
//! effort when related queries arrive in a short period. For a *standing*
//! range query (the airport perimeter of §I) the query point never moves —
//! only objects do. A [`RangeMonitor`] therefore re-evaluates **only the
//! updated objects** of each delta, falling back to a full refresh when
//! the topology changes. [`KnnMonitor`] turns a standing `ikNNQ(q, k)`
//! into the same book-keeping: it keeps every object up to a boundary
//! fixed at its last re-query, a range monitor at a kept radius, answers
//! with the first `k` of them, and re-queries only when fewer than `k`
//! remain (the buffer of continuous kNN monitoring, CPM, SIGMOD 2005).
//!
//! Both monitors price an object exactly as the one-shot queries do,
//! through the pipeline's `EvalContext`: one context per absorbed delta,
//! banded at the monitor's radius plus the subgraph slack and composed
//! from the index's shared distance cache, which owns every door-distance
//! row. Bounds come from the object's memoised subregion summary, the
//! exact expected distance from the decomposition the memo's instance
//! slots rebuild, on the full graph wherever the band cannot certify it.
//! A monitor keeps its query point, its options and its membership state,
//! and no distances.

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::EvalContext;
use idq_index::CompositeIndex;
use idq_model::IndoorPoint;
use idq_model::IndoorSpace;
use idq_objects::{ObjectId, ObjectStore};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Work a monitor did beyond pricing the objects its deltas named, summed
/// over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorWork {
    /// Fresh queries run while absorbing deltas: every topology refresh,
    /// and every kNN re-query after fewer than `k` objects were left
    /// within the kept boundary.
    pub requeries: u64,
    /// Refinements while absorbing deltas that the banded door distances
    /// could not certify, so they were recomputed on the full graph. Many
    /// of them mean the subgraph slack is narrower than the regions.
    pub fallbacks: u64,
}

/// What both monitor kinds evaluate objects with: the standing query
/// point and options.
#[derive(Debug)]
struct Evaluator {
    q: IndoorPoint,
    options: QueryOptions,
    work: MonitorWork,
}

impl Evaluator {
    fn new(q: IndoorPoint, options: QueryOptions) -> Self {
        Evaluator {
            q,
            options,
            work: MonitorWork::default(),
        }
    }

    /// Runs `eval` on one [`EvalContext`] from `q`, banded at
    /// `radius + subgraph_slack` as a one-shot query's is, and counts its
    /// full-graph fallbacks.
    fn with<T>(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        radius: f64,
        eval: impl FnOnce(&mut EvalContext<'_>, &QueryOptions) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let options = &self.options;
        let horizon = radius + options.subgraph_slack;
        let mut ctx = EvalContext::new(space, store, index, self.q, horizon, options)?;
        let out = eval(&mut ctx, options);
        self.work.fallbacks += ctx.delta.full_graph_fallbacks as u64;
        out
    }
}

/// Whether object `id` lies within `r` of the context's point: bounds
/// first, the exact expected distance only when they straddle `r` —
/// `range_query`'s pruning and refinement for one object.
fn within(
    ctx: &mut EvalContext<'_>,
    options: &QueryOptions,
    id: ObjectId,
    r: f64,
) -> Result<bool, QueryError> {
    if options.use_pruning {
        let b = ctx.bounds(id)?;
        if b.upper <= r || b.lower > r {
            return Ok(b.upper <= r);
        }
    }
    Ok(ctx.refine(id)? <= r)
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

    /// The work this monitor has done so far.
    pub fn work(&self) -> MonitorWork {
        self.eval.work
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
        Ok(self.current())
    }

    /// Absorbs a whole update delta — the net effect of a committed update
    /// batch — in one call: removals drop out of the result set, updated
    /// objects (inserts and moves) are re-evaluated through one context
    /// banded at `r + subgraph_slack`, and a topology change falls back to
    /// one full [`RangeMonitor::refresh`]. Returns every membership change,
    /// ascending by object id. This is the raw form behind the
    /// engine-level `RangeMonitor::absorb(&report, &snapshot)` entry point.
    pub fn absorb_delta(
        &mut self,
        updated: &[ObjectId],
        removed: &[ObjectId],
        topology_changed: bool,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, QueryError> {
        let mut changes = Vec::new();
        if topology_changed {
            let before = self.inside.clone();
            self.eval.work.requeries += 1;
            self.refresh(space, index, store)?;
            for &id in before.difference(&self.inside) {
                changes.push((id, MonitorChange::Left));
            }
            for &id in self.inside.difference(&before) {
                changes.push((id, MonitorChange::Entered));
            }
        } else {
            for &id in removed {
                if self.inside.remove(&id) {
                    changes.push((id, MonitorChange::Left));
                }
            }
            if !updated.is_empty() {
                let (r, inside) = (self.r, &mut self.inside);
                self.eval.with(space, index, store, r, |ctx, options| {
                    for &id in updated {
                        let change = if within(ctx, options, id, r)? {
                            inside.insert(id).then_some(MonitorChange::Entered)
                        } else {
                            inside.remove(&id).then_some(MonitorChange::Left)
                        };
                        changes.extend(change.map(|c| (id, c)));
                    }
                    Ok(())
                })?;
            }
        }
        changes.sort_unstable_by_key(|(id, _)| *id);
        Ok(changes)
    }
}

/// How many objects a [`KnnMonitor`] re-query ranks for a standing `k`:
/// `k + Δ`, with the buffer `Δ = k`. Registration ranks `k` alone.
fn requery_depth(k: usize) -> usize {
    k + k
}

/// The `(distance, id)` order [`crate::iknn::knn_query`] ranks in.
/// `total_cmp` orders the finite distances a monitor keeps exactly as
/// `<` does, without a panic site.
fn by_key(a: &(f64, ObjectId), b: &(f64, ObjectId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A standing `ikNNQ(q, k)` kept current under object updates — the kNN
/// twin of [`RangeMonitor`], and a range monitor at a kept boundary.
///
/// The monitor keeps a set W and a boundary key `B = (R, id)`. W holds
/// every reachable object whose `(distance, id)` key is at or below `B`,
/// ascending by that key, and `B` stays fixed from one re-query to the
/// next. A removed object leaves W; an updated object is re-priced
/// (skipped when its distance lower bound exceeds `R`, refined otherwise)
/// and kept if its key is at or below `B`. The answer is the first `k` of
/// W, in exactly [`crate::iknn::knn_query`]'s order: every object outside
/// W is keyed above `B`. Only when fewer than `k` remain does the monitor
/// re-query, ranking `k + Δ` objects (`Δ = k`; registration ranks `k`)
/// and setting `B` at the last of them.
/// While fewer objects than a query asked for were reachable, `B` is `∞`
/// and W holds every reachable object; once W reaches `k + Δ` it is
/// truncated there and `B` set at its last key. Either path leaves the
/// ranking bit-identical to evaluating `ikNNQ(q, k)` from scratch on the
/// current state.
#[derive(Debug)]
pub struct KnnMonitor {
    eval: Evaluator,
    k: usize,
    /// W, ascending by `(distance, id)` — fresh-query order.
    watched: Vec<(f64, ObjectId)>,
    /// B; `None` (`∞`) while W holds every reachable object.
    boundary: Option<(f64, ObjectId)>,
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
            watched: Vec::new(),
            boundary: None,
        })
    }

    /// The standing query point.
    pub fn query_point(&self) -> IndoorPoint {
        self.eval.q
    }

    /// The query options evaluations use.
    pub fn options(&self) -> &QueryOptions {
        &self.eval.options
    }

    /// The work this monitor has done so far.
    pub fn work(&self) -> MonitorWork {
        self.eval.work
    }

    /// The answer: the first `k` of W.
    fn answer(&self) -> &[(f64, ObjectId)] {
        &self.watched[..self.k.min(self.watched.len())]
    }

    /// The current top-k as `(object, distance)`, ascending by
    /// `(distance, id)` — the exact order a fresh
    /// [`crate::iknn::knn_query`] returns. May hold fewer than `k` entries
    /// when fewer objects are reachable.
    pub fn ranked(&self) -> Vec<(ObjectId, f64)> {
        self.answer().iter().map(|&(d, id)| (id, d)).collect()
    }

    /// Objects currently in the top-k, ascending by id.
    pub fn current(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.answer().iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Whether an object is in W, within the kept boundary: a change to
    /// it can change the answer even when it is not in the top-k.
    pub fn watches(&self, id: ObjectId) -> bool {
        self.watched.iter().any(|&(_, m)| m == id)
    }

    /// `R`, the distance of the kept boundary: no object farther than it
    /// can enter the answer before the next re-query. `+∞` while W holds
    /// every reachable object.
    pub fn radius(&self) -> f64 {
        self.boundary.map_or(f64::INFINITY, |(r, _)| r)
    }

    /// Full re-evaluation through the indexed pipeline, ranking `k`
    /// (used at start-up). Returns the ranked result.
    pub fn refresh(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, f64)>, QueryError> {
        self.rank(self.k, space, index, store)?;
        Ok(self.ranked())
    }

    /// Sets W to a fresh query's first `depth` objects, and B at the last
    /// of them (`∞` when fewer were reachable).
    fn rank(
        &mut self,
        depth: usize,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<(), QueryError> {
        let Evaluator { q, options, .. } = &self.eval;
        let out = crate::iknn::knn_query(space, index, store, *q, depth, options)?;
        self.watched = out.results.iter().map(|h| (h.distance, h.object)).collect();
        self.boundary = self
            .watched
            .last()
            .copied()
            .filter(|_| self.watched.len() == depth);
        Ok(())
    }

    /// Absorbs a whole update delta in one call — the kNN counterpart of
    /// [`RangeMonitor::absorb_delta`]: removed and updated objects leave
    /// W, updated ones are re-priced against the boundary, and one fresh
    /// re-query runs when fewer than `k` are left (or the topology
    /// changed). Returns every **membership** change, ascending by object
    /// id (rank-only changes are visible through [`KnnMonitor::ranked`]).
    pub fn absorb_delta(
        &mut self,
        updated: &[ObjectId],
        removed: &[ObjectId],
        topology_changed: bool,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, QueryError> {
        let before = self.current();
        let depth = requery_depth(self.k);
        if topology_changed {
            self.eval.work.requeries += 1;
            self.rank(depth, space, index, store)?;
        } else {
            self.watched
                .retain(|(_, id)| !removed.contains(id) && !updated.contains(id));
            if !updated.is_empty() {
                let (r, boundary) = (self.radius(), self.boundary);
                let watched = &mut self.watched;
                self.eval.with(space, index, store, r, |ctx, options| {
                    for &id in updated {
                        // d ≥ lower > R: keyed above B even on a tie. A
                        // banded lower bound is clamped at the exit
                        // horizon, so it is still a lower bound.
                        if options.use_pruning && ctx.bounds(id)?.lower > r {
                            continue;
                        }
                        let key = (ctx.refine(id)?, id);
                        let kept = boundary.is_none_or(|b| by_key(&key, &b).is_le());
                        if key.0.is_finite() && kept {
                            let at = watched.partition_point(|e| by_key(e, &key).is_lt());
                            watched.insert(at, key);
                        }
                    }
                    Ok(())
                })?;
            }
            match self.boundary {
                None if self.watched.len() >= depth => {
                    // W holds every reachable object: its first `depth`
                    // are a fresh query's.
                    self.watched.truncate(depth);
                    self.boundary = self.watched.last().copied();
                }
                Some(_) if self.watched.len() < self.k => {
                    self.eval.work.requeries += 1;
                    self.rank(depth, space, index, store)?;
                }
                _ => {}
            }
        }
        debug_assert!(
            self.watched
                .windows(2)
                .all(|w| by_key(&w[0], &w[1]).is_lt())
                && self.boundary.is_none_or(|b| {
                    self.watched.len() >= self.k
                        && self.watched.iter().all(|e| by_key(e, &b).is_le())
                }),
            "W is sorted, within B, and holds k objects unless B = ∞"
        );
        let after = self.current();
        let mut changes: Vec<(ObjectId, MonitorChange)> = Vec::new();
        for &id in &before {
            if after.binary_search(&id).is_err() {
                changes.push((id, MonitorChange::Left));
            }
        }
        for &id in &after {
            if before.binary_search(&id).is_err() {
                changes.push((id, MonitorChange::Entered));
            }
        }
        changes.sort_unstable_by_key(|(id, _)| *id);
        Ok(changes)
    }
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

    /// Three instances around `x`; one centred on the r0/r1 door splits
    /// into two subregions.
    fn spread(id: u64, x: f64) -> UncertainObject {
        let positions = vec![
            Point2::new(x - 1.5, 4.0),
            Point2::new(x, 5.0),
            Point2::new(x + 1.5, 6.0),
        ];
        let region = Circle::new(Point2::new(x, 5.0), 2.0);
        UncertainObject::with_uniform_weights(ObjectId(id), region, 0, positions).unwrap()
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

    /// Absorbs one delta without a topology change into a range monitor.
    fn absorb_range(
        mon: &mut RangeMonitor,
        updated: &[u64],
        removed: &[u64],
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Vec<(ObjectId, MonitorChange)> {
        let ids = |xs: &[u64]| -> Vec<ObjectId> { xs.iter().map(|&id| ObjectId(id)).collect() };
        mon.absorb_delta(&ids(updated), &ids(removed), false, space, index, store)
            .unwrap()
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
        let c = absorb_range(&mut mon, &[1], &[], &space, &index, &store);
        assert_eq!(c, [(ObjectId(1), MonitorChange::Entered)]);
        assert!(mon.contains(ObjectId(1)));

        // It wanders out.
        move_to(&mut store, &mut index, &space, 1, 28.0);
        let c = absorb_range(&mut mon, &[1], &[], &space, &index, &store);
        assert_eq!(c, [(ObjectId(1), MonitorChange::Left)]);

        // Cross-check against a fresh range query after a series of moves.
        for (id, x) in [(2u64, 5.0), (3, 16.0), (4, 25.0)] {
            move_to(&mut store, &mut index, &space, id, x);
            absorb_range(&mut mon, &[id], &[], &space, &index, &store);
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
        let c = absorb_range(&mut mon, &[], &[1], &space, &index, &store);
        assert_eq!(c, [(ObjectId(1), MonitorChange::Left)]);
        let c = absorb_range(&mut mon, &[], &[1], &space, &index, &store);
        assert!(c.is_empty(), "a second removal changes nothing");

        // Topology change: close the first door, refresh, and verify the
        // monitor agrees with a fresh query (nothing reachable anymore).
        move_to(&mut store, &mut index, &space, 2, 15.0);
        absorb_range(&mut mon, &[2], &[], &space, &index, &store);
        assert!(mon.contains(ObjectId(2)));
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        let now = mon.refresh(&space, &index, &store).unwrap();
        assert!(now.is_empty(), "door closed: nothing in range");
    }

    #[test]
    fn an_update_after_a_topology_change_sees_the_new_topology() {
        let (mut space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 25.0, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        move_to(&mut store, &mut index, &space, 9, 15.0);
        let c = absorb_range(&mut mon, &[9], &[], &space, &index, &store);
        assert_eq!(c, [(ObjectId(9), MonitorChange::Entered)]);
        // A door closes and the monitor is not told; the next update is
        // priced on the new topology.
        let d = space.doors().next().unwrap().id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        move_to(&mut store, &mut index, &space, 9, 16.0);
        let c = absorb_range(&mut mon, &[9], &[], &space, &index, &store);
        assert_eq!(
            c,
            [(ObjectId(9), MonitorChange::Left)],
            "unreachable after door close"
        );
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

    #[test]
    fn monitors_do_not_depend_on_the_slack() {
        // 1 m from the r0/r1 door, so a band at `r + slack` certifies
        // costs up to only `1 + r + slack`.
        let q = idq_model::IndoorPoint::new(Point2::new(9.0, 5.0), 0);
        let opts = QueryOptions::default();
        let bits = |ranked: &[(ObjectId, f64)]| -> Vec<(ObjectId, u64)> {
            ranked.iter().map(|&(o, d)| (o, d.to_bits())).collect()
        };
        // (moves, removals): arrivals on and across the doors, members
        // leaving the band, removals of members and of W.
        type Step<'a> = (&'a [(u64, f64)], &'a [u64]);
        let steps: &[Step] = &[
            (&[(2, 10.0)], &[]),
            (&[(3, 14.0), (4, 8.0)], &[]),
            (&[(1, 20.5)], &[4]),
            (&[(4, 15.0), (2, 27.0)], &[]),
            (&[(1, 13.5)], &[3]),
            (&[(5, 19.0), (2, 6.0)], &[1]),
            (&[(4, 21.0)], &[2]),
        ];
        for slack in [0.0, 5.0, 60.0] {
            let (space, mut store, mut index) = setup();
            for (id, x) in [(1, 25.0), (2, 28.0), (3, 15.0), (4, 5.0)] {
                put(&mut store, &mut index, &space, spread(id, x));
            }
            let banded = QueryOptions {
                subgraph_slack: slack,
                ..opts
            };
            let mut ranges: Vec<RangeMonitor> = [5.0, 12.0]
                .iter()
                .map(|&r| RangeMonitor::new(q, r, banded).unwrap())
                .collect();
            let mut knns: Vec<KnnMonitor> = [1, 2]
                .iter()
                .map(|&k| KnnMonitor::new(q, k, banded).unwrap())
                .collect();
            for m in &mut ranges {
                m.refresh(&space, &index, &store).unwrap();
            }
            for m in &mut knns {
                m.refresh(&space, &index, &store).unwrap();
            }
            for (moves, removals) in steps {
                for &(id, x) in *moves {
                    put(&mut store, &mut index, &space, spread(id, x));
                }
                for &id in *removals {
                    index.remove_object(ObjectId(id)).unwrap();
                    store.remove(ObjectId(id)).unwrap();
                }
                let up: Vec<ObjectId> = moves.iter().map(|&(id, _)| ObjectId(id)).collect();
                let rm: Vec<ObjectId> = removals.iter().map(|&id| ObjectId(id)).collect();
                let at = format!("slack {slack}, moves {moves:?}, removals {removals:?}");
                for m in &mut ranges {
                    m.absorb_delta(&up, &rm, false, &space, &index, &store)
                        .unwrap();
                    let fresh =
                        crate::irq::range_query(&space, &index, &store, q, m.radius(), &opts)
                            .unwrap();
                    let fresh: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
                    assert_eq!(m.current(), fresh, "r = {}, {at}", m.radius());
                }
                for m in &mut knns {
                    m.absorb_delta(&up, &rm, false, &space, &index, &store)
                        .unwrap();
                    let fresh = fresh_knn(&space, &index, &store, q, m.k);
                    assert_eq!(bits(&m.ranked()), bits(&fresh), "k = {}, {at}", m.k);
                }
            }
            let fallbacks: u64 = ranges.iter().map(|m| m.work().fallbacks).sum::<u64>()
                + knns.iter().map(|m| m.work().fallbacks).sum::<u64>();
            if slack == 0.0 {
                // Objects at x = 14 and 15 straddle r = 5, and their
                // farthest instances cost more than 1 + 5 m.
                assert!(fallbacks > 0, "a zero slack reaches the fallback");
            }
        }
    }

    #[test]
    fn knn_monitor_requeries_only_below_k() {
        let (space, mut store, mut index) = setup();
        let q = idq_model::IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let k = 2;
        let buffer = requery_depth(k) - k;
        let mut mon = KnnMonitor::new(q, k, QueryOptions::default()).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        // Absorbs one delta and checks the answer against a fresh query.
        let absorb = |mon: &mut KnnMonitor,
                      store: &ObjectStore,
                      index: &CompositeIndex,
                      up: &[u64],
                      rm: &[ObjectId]| {
            let up: Vec<ObjectId> = up.iter().map(|&id| ObjectId(id)).collect();
            mon.absorb_delta(&up, rm, false, &space, index, store)
                .unwrap();
            assert_eq!(mon.ranked(), fresh_knn(&space, index, store, q, k));
        };
        // Nothing was reachable at refresh, so B is ∞ and W takes every
        // arrival until it holds k + Δ; then B tightens without a query.
        let ids: Vec<u64> = (1..=(k + buffer + 2) as u64).collect();
        for &id in &ids {
            move_to(&mut store, &mut index, &space, id, 2.0 + id as f64);
            absorb(&mut mon, &store, &index, &[id], &[]);
        }
        assert_eq!(mon.watched.len(), k + buffer);
        assert!(mon.radius().is_finite());
        // Removing Δ members of W leaves k: no re-query.
        for &id in &ids[..buffer] {
            index.remove_object(ObjectId(id)).unwrap();
            store.remove(ObjectId(id)).unwrap();
            absorb(&mut mon, &store, &index, &[], &[ObjectId(id)]);
        }
        assert_eq!(mon.work().requeries, 0);
        // One more drops W below k: exactly one re-query, which refills
        // W to k + Δ where enough objects are reachable.
        let next = ObjectId(ids[buffer]);
        index.remove_object(next).unwrap();
        store.remove(next).unwrap();
        absorb(&mut mon, &store, &index, &[], &[next]);
        assert_eq!(mon.work().requeries, 1);
        assert_eq!(mon.watched.len(), ids.len() - buffer - 1);
    }
}
