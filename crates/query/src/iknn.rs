//! Indoor k-Nearest-Neighbour Query — `ikNNQ` (Def. 4, Algorithm 2).

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::{summary_of, EvalContext};
use crate::stats::QueryStats;
use idq_distance::SharedPathUpper;
use idq_geom::{Mbr3, OrdF64};
use idq_index::CompositeIndex;
use idq_model::IndoorPoint;
use idq_model::{IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

/// `kSeedsSelection` (Algorithm 5), the filtering phase of `ikNNQ`, made
/// adaptive. Starting from the query's partition, partitions are explored
/// in ascending order of their geometric lower bound (a min-heap keyed by
/// the skeleton bound of Eq. 10); every bucketed object is a seed and
/// contributes its Topological Looser Upper Bound (Lemma 3). Where the
/// paper stops at the first `k` seeds, expansion here continues while an
/// unexplored partition's lower bound still beats the running k-th
/// smallest TLU — so a nearby-but-huge corridor cannot freeze a loose
/// bound in place. The k-th smallest TLU is the `kbound` radius of the
/// subsequent range search: it certifies that at least k objects lie
/// within it.
///
/// Each seed is priced from its memoised subregion summary, never its
/// instances; the summary reads are counted into `stats`.
///
/// Returns `∞` when fewer than `k` objects are expandable-to (the caller
/// then falls back to an unbounded search).
fn adaptive_kbound(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    stats: &mut QueryStats,
) -> Result<f64, QueryError> {
    let Some(start) = space.partition_at(q) else {
        return Ok(f64::INFINITY);
    };
    let mut frontier: BinaryHeap<Reverse<(OrdF64, PartitionId)>> = BinaryHeap::new();
    frontier.push(Reverse((OrdF64(0.0), start)));
    let mut visited: HashSet<PartitionId> = HashSet::new();
    let mut seen: HashSet<ObjectId> = HashSet::new();
    // Max-heap keeping the k smallest TLUs seen so far.
    let mut best: BinaryHeap<OrdF64> = BinaryHeap::new();
    // One shared, lazily growing best-first search prices every seed.
    let mut tlu_eval = SharedPathUpper::new(space, index.doors_graph(), q);

    while let Some(Reverse((OrdF64(pmin), pid))) = frontier.pop() {
        if best.len() >= k && pmin > best.peek().expect("non-empty").0 {
            break; // no unexplored partition can improve the k-th TLU
        }
        if !visited.insert(pid) {
            continue;
        }
        for &u in index.units().units_of(pid) {
            for &o in index.object_layer().objects_in(u) {
                if !seen.insert(o) {
                    continue;
                }
                // Screen before pricing: once k TLUs are banked, an
                // object whose geometric lower bound (Lemma 6, the same
                // bound the filtering phase trusts) already exceeds the
                // running k-th TLU has `TLU ≥ |q,O|_I ≥ lb > kth` — it
                // cannot improve the heap, so skipping it leaves the
                // derived kbound bit-identical while saving the summary
                // read and path pricing.
                if best.len() >= k {
                    let kth = best.peek().expect("non-empty").0;
                    if let Ok(mbr) = index.object_layer().object_mbr(o) {
                        if index.min_skeleton_distance(space, q, &mbr) > kth {
                            continue;
                        }
                    }
                }
                let summary = summary_of(space, index, store.get(o)?, stats)?;
                let tlu = tlu_eval.upper(summary.iter());
                if tlu.is_finite() {
                    if best.len() < k {
                        best.push(OrdF64(tlu));
                    } else if OrdF64(tlu) < *best.peek().expect("non-empty") {
                        best.pop();
                        best.push(OrdF64(tlu));
                    }
                }
            }
        }
        // Expand to adjacent partitions, keyed by their geometric lower
        // bound (Eq. 10).
        let Ok(doors) = space.doors_of(pid) else {
            continue;
        };
        for &d in doors {
            if !space.can_leave(d, pid) {
                continue;
            }
            let Ok(door) = space.door(d) else { continue };
            let Some(next) = door.other_side(pid) else {
                continue;
            };
            if visited.contains(&next) {
                continue;
            }
            let Ok(p) = space.partition(next) else {
                continue;
            };
            let mbr = Mbr3::spanning(
                p.bbox,
                (p.floor_lo, p.floor_hi),
                (space.elevation(p.floor_lo), space.elevation(p.floor_hi)),
            );
            let key = index.min_skeleton_distance(space, q, &mbr);
            frontier.push(Reverse((OrdF64(key), next)));
        }
    }
    if best.len() >= k {
        Ok(best.peek().expect("non-empty").0)
    } else {
        Ok(f64::INFINITY)
    }
}

/// One result object of a kNN query, with its exact expected distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KnnHit {
    /// The object.
    pub object: ObjectId,
    /// Exact expected indoor distance `|q,O|_I`.
    pub distance: f64,
}

/// Result of a kNN query.
#[derive(Clone, Debug)]
pub struct KnnResult {
    /// The `k` nearest objects, ascending by distance (ties by id). May be
    /// shorter than `k` when the reachable population is smaller.
    pub results: Vec<KnnHit>,
    /// Phase timings and counters.
    pub stats: QueryStats,
    /// The `kbound` radius derived from the seeds' looser upper bounds.
    pub kbound: f64,
}

/// Phase-1 output of a kNN query: the kbound and the filtered candidates.
pub(crate) struct KnnPrep {
    pub q: IndoorPoint,
    pub k: usize,
    pub kbound: f64,
    pub objects: Vec<ObjectId>,
    pub stats: QueryStats,
}

/// Validates the query and runs seed selection + kbound + filtering.
pub(crate) fn knn_prep(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    options: &QueryOptions,
) -> Result<KnnPrep, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    index.check_fresh(space)?;
    let mut stats = QueryStats {
        total_objects: store.len(),
        ..QueryStats::default()
    };

    // Phase 1: seed selection + kbound + range search.
    let t = Instant::now();
    let kbound = adaptive_kbound(space, index, store, q, k, &mut stats)?;
    let filtered = index.range_search_dual(
        space,
        q,
        kbound,
        kbound + options.subgraph_slack,
        options.use_skeleton,
    );
    stats.filtering_ms = t.elapsed().as_secs_f64() * 1e3;
    stats.candidates_after_filter = filtered.objects.len();
    stats.partitions_retrieved = filtered.partitions.len();
    stats.nodes_visited = filtered.stats.nodes_visited;
    stats.entries_checked = filtered.stats.entries_checked;

    Ok(KnnPrep {
        q,
        k,
        kbound,
        objects: filtered.objects,
        stats,
    })
}

/// Phases 3–4 against an evaluation context whose banded door distances
/// cover (at least) the prep's reach `kbound + slack`.
pub(crate) fn knn_finish(
    ctx: &mut EvalContext<'_>,
    prep: KnnPrep,
    options: &QueryOptions,
) -> Result<KnnResult, QueryError> {
    let KnnPrep {
        k,
        kbound,
        objects,
        mut stats,
        ..
    } = prep;

    // Phase 3: pruning around the k-th smallest upper bound.
    let t = Instant::now();
    let mut to_refine: Vec<ObjectId> = Vec::new();
    if options.use_pruning && objects.len() > k {
        let mut bounds = Vec::with_capacity(objects.len());
        for &o in &objects {
            bounds.push((o, ctx.bounds(o)?));
        }
        // O_k: the object with the k-th smallest upper bound.
        let mut uppers: Vec<f64> = bounds.iter().map(|(_, b)| b.upper).collect();
        uppers.sort_by(f64::total_cmp);
        let ok_upper = uppers[k - 1];
        // Sound under banding: lower bounds are clamped to the exit
        // horizon (see `subregion_bounds`) so they never exceed a true
        // distance, and upper bounds only loosen under truncation — a
        // pruned object's true distance therefore provably exceeds the
        // k-th smallest true distance.
        for (o, b) in bounds {
            if b.lower <= ok_upper {
                to_refine.push(o);
            } else {
                stats.pruned_by_bounds += 1;
            }
        }
    } else {
        to_refine = objects;
    }
    stats.pruning_ms = t.elapsed().as_secs_f64() * 1e3;

    // Phase 4: refinement and final ranking.
    let t = Instant::now();
    let mut scored: Vec<(OrdF64, ObjectId)> = Vec::with_capacity(to_refine.len());
    for o in to_refine {
        stats.refined += 1;
        // The k-th true distance is at most kbound; values beyond it can
        // only lose, so kbound is the safe fallback threshold.
        let v = ctx.refine_with_threshold(o, kbound, options)?;
        if v.is_finite() {
            scored.push((OrdF64(v), o));
        }
    }
    scored.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    stats.refinement_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.drain_into(&mut stats);

    Ok(KnnResult {
        results: scored
            .into_iter()
            .map(|(d, object)| KnnHit {
                object,
                distance: d.0,
            })
            .collect(),
        stats,
        kbound,
    })
}

/// Evaluates `ikNN_{q,k}(O)` (Algorithm 2).
pub fn knn_query(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    options: &QueryOptions,
) -> Result<KnnResult, QueryError> {
    let mut prep = knn_prep(space, index, store, q, k, options)?;

    // Phase 2: banded door distances truncated at the kbound's reach
    // (∞ — a complete context — when fewer than k seeds were found).
    let t = Instant::now();
    let horizon = prep.kbound + options.subgraph_slack;
    let mut ctx = EvalContext::new(space, store, index, q, horizon, options)?;
    prep.stats.subgraph_ms = t.elapsed().as_secs_f64() * 1e3;
    prep.stats.dijkstras_run = 1;

    knn_finish(&mut ctx, prep, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_knn;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::FloorPlanBuilder;
    use idq_objects::UncertainObject;

    /// Same two-floor world as the iRQ tests.
    fn setup() -> (IndoorSpace, ObjectStore, CompositeIndex) {
        let mut b = FloorPlanBuilder::new(4.0);
        let mut rooms = Vec::new();
        for f in 0..2u16 {
            for i in 0..3 {
                rooms.push(
                    b.add_room(
                        f,
                        Rect2::from_bounds(20.0 * i as f64, 0.0, 20.0 * (i + 1) as f64, 10.0),
                    )
                    .unwrap(),
                );
            }
        }
        for f in 0..2usize {
            for i in 0..2 {
                b.add_door_between(
                    rooms[f * 3 + i],
                    rooms[f * 3 + i + 1],
                    Point2::new(20.0 * (i + 1) as f64, 5.0),
                )
                .unwrap();
            }
        }
        let st = b
            .add_staircase((0, 1), Rect2::from_bounds(60.0, 0.0, 64.0, 10.0))
            .unwrap();
        b.add_staircase_entrance(st, rooms[2], 0, Point2::new(60.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(st, rooms[5], 1, Point2::new(60.0, 5.0))
            .unwrap();
        let space = b.finish().unwrap();

        let mut store = ObjectStore::new();
        let mut add = |id: u64, x: f64, f: u16| {
            store
                .insert(
                    UncertainObject::with_uniform_weights(
                        ObjectId(id),
                        Circle::new(Point2::new(x, 5.0), 2.0),
                        f,
                        vec![Point2::new(x - 1.0, 5.0), Point2::new(x + 1.0, 4.0)],
                    )
                    .unwrap(),
                )
                .unwrap();
        };
        add(1, 5.0, 0);
        add(2, 30.0, 0);
        add(3, 55.0, 0);
        add(4, 5.0, 1);
        add(5, 55.0, 1);
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    #[test]
    fn matches_naive_oracle_for_various_k() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        for (qx, qf) in [(5.0, 0u16), (30.0, 0), (55.0, 1)] {
            let q = IndoorPoint::new(Point2::new(qx, 5.0), qf);
            for k in [1, 2, 3, 5] {
                let fast = knn_query(&space, &index, &store, q, k, &opts).unwrap();
                let slow = naive_knn(&space, index.doors_graph(), &store, q, k).unwrap();
                assert_eq!(fast.results.len(), slow.len(), "q=({qx},{qf}) k={k}");
                for (hit, (oid, od)) in fast.results.iter().zip(&slow) {
                    assert_eq!(hit.object, *oid, "q=({qx},{qf}) k={k}");
                    assert!((hit.distance - od).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_population() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let res = knn_query(&space, &index, &store, q, 50, &QueryOptions::default()).unwrap();
        assert_eq!(res.results.len(), 5, "all reachable objects returned");
        // Ascending distances.
        for w in res.results.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn zero_k_rejected_and_empty_store_ok() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        assert!(matches!(
            knn_query(&space, &index, &store, q, 0, &QueryOptions::default()),
            Err(QueryError::ZeroK)
        ));
        let empty = ObjectStore::new();
        let idx = CompositeIndex::build(&space, &empty, IndexConfig::default()).unwrap();
        let res = knn_query(&space, &idx, &empty, q, 3, &QueryOptions::default()).unwrap();
        assert!(res.results.is_empty());
    }

    #[test]
    fn ablations_agree_on_results() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(30.0, 5.0), 0);
        let base = QueryOptions::default();
        let a = knn_query(&space, &index, &store, q, 3, &base).unwrap();
        let b = knn_query(&space, &index, &store, q, 3, &base.without_pruning()).unwrap();
        let c = knn_query(&space, &index, &store, q, 3, &base.with_exact_refinement()).unwrap();
        let take = |r: &KnnResult| r.results.iter().map(|h| h.object).collect::<Vec<_>>();
        assert_eq!(take(&a), take(&b));
        assert_eq!(take(&a), take(&c));
        assert!(b.stats.refined >= a.stats.refined);
    }

    #[test]
    fn kbound_is_a_valid_upper_bound() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let res = knn_query(&space, &index, &store, q, 2, &QueryOptions::default()).unwrap();
        assert!(res.kbound.is_finite());
        // Every returned distance is within kbound.
        for h in &res.results {
            assert!(h.distance <= res.kbound + 1e-9);
        }
    }
}
