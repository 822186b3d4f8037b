//! Indoor Range Query — `iRQ` (Def. 3, Algorithm 1).

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::EvalContext;
use crate::stats::QueryStats;
use idq_index::CompositeIndex;
use idq_model::IndoorPoint;
use idq_model::IndoorSpace;
use idq_objects::{ObjectId, ObjectStore};
use std::time::Instant;

/// One qualifying object of a range query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeHit {
    /// The object.
    pub object: ObjectId,
    /// Its expected indoor distance. When `certified_by_bound` is set the
    /// value is the certifying *upper bound* (Table III), computed over
    /// door distances banded at the query's own reach `r + slack` (the
    /// exact distance was never computed — that is the point of the
    /// pruning phase); otherwise it is the exact expected distance
    /// (refinement only accepts banded values it can prove equal to the
    /// full-graph value).
    pub distance: f64,
    /// Whether membership was certified by `O.u ≤ r` without refinement.
    pub certified_by_bound: bool,
}

/// Result of a range query.
#[derive(Clone, Debug)]
pub struct RangeResult {
    /// Qualifying objects, sorted by object id.
    pub results: Vec<RangeHit>,
    /// Phase timings and counters.
    pub stats: QueryStats,
}

/// Evaluates `iRQ_{q,r}(O) = { O : |q,O|_I ≤ r }` (Algorithm 1).
pub fn range_query(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    r: f64,
    options: &QueryOptions,
) -> Result<RangeResult, QueryError> {
    if !r.is_finite() || r < 0.0 {
        return Err(QueryError::BadRange(r));
    }
    options.check_slack()?;
    index.check_fresh(space)?;
    let mut stats = QueryStats {
        total_objects: store.len(),
        ..QueryStats::default()
    };
    let horizon = r + options.subgraph_slack;

    // Phase 1: filtering via the geometric layer (Algorithm 4).
    let t = Instant::now();
    let filtered = index.range_search(space, q, r, options.use_skeleton);
    stats.filtering_ms = t.elapsed().as_secs_f64() * 1e3;
    stats.candidates_after_filter = filtered.objects.len();
    stats.partitions_retrieved = filtered.partitions.len();
    stats.nodes_visited = filtered.stats.nodes_visited;
    stats.entries_checked = filtered.stats.entries_checked;

    // Phase 2: subgraph — door distances composed from shared rows,
    // truncated at the query's reach `r + slack` (a band wider than the
    // filter's `r`; no answer depends on its width).
    let t = Instant::now();
    let mut ctx = EvalContext::new(space, store, index, q, horizon, options)?;
    stats.subgraph_ms = t.elapsed().as_secs_f64() * 1e3;
    stats.dijkstras_run = 1;

    // Phase 3: pruning by topological / probabilistic bounds (Table III).
    let t = Instant::now();
    let mut results: Vec<RangeHit> = Vec::new();
    let mut undecided: Vec<ObjectId> = Vec::new();
    if options.use_pruning {
        for &o in &filtered.objects {
            let b = ctx.bounds(o)?;
            if b.upper <= r {
                stats.accepted_by_bounds += 1;
                results.push(RangeHit {
                    object: o,
                    distance: b.upper,
                    certified_by_bound: true,
                });
            } else if b.lower <= r {
                undecided.push(o);
            } else {
                stats.pruned_by_bounds += 1;
            }
        }
    } else {
        undecided = filtered.objects;
    }
    stats.pruning_ms = t.elapsed().as_secs_f64() * 1e3;

    // Phase 4: refinement — exact expected distances for the undecided.
    let t = Instant::now();
    for o in undecided {
        stats.refined += 1;
        let v = ctx.refine(o)?;
        if v <= r {
            results.push(RangeHit {
                object: o,
                distance: v,
                certified_by_bound: false,
            });
        }
    }
    stats.refinement_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.drain_into(&mut stats);

    results.sort_by_key(|h| h.object);
    Ok(RangeResult { results, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_range;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::FloorPlanBuilder;
    use idq_objects::UncertainObject;

    /// A 2-floor, 6-room world with a staircase and assorted objects.
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

    fn ids(r: &RangeResult) -> Vec<ObjectId> {
        r.results.iter().map(|h| h.object).collect()
    }

    #[test]
    fn matches_naive_oracle_across_radii() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        for (qx, qf) in [(5.0, 0u16), (30.0, 0), (55.0, 1)] {
            let q = IndoorPoint::new(Point2::new(qx, 5.0), qf);
            for r in [5.0, 15.0, 40.0, 80.0, 200.0] {
                let fast = range_query(&space, &index, &store, q, r, &opts).unwrap();
                let slow = naive_range(&space, index.doors_graph(), &store, q, r).unwrap();
                let slow_ids: Vec<ObjectId> = slow.iter().map(|x| x.0).collect();
                assert_eq!(ids(&fast), slow_ids, "q=({qx},{qf}) r={r}");
            }
        }
    }

    #[test]
    fn refined_distances_match_oracle_values() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let fast = range_query(&space, &index, &store, q, 200.0, &QueryOptions::default()).unwrap();
        let slow = naive_range(&space, index.doors_graph(), &store, q, 200.0).unwrap();
        for (hit, (oid, od)) in fast.results.iter().zip(slow) {
            assert_eq!(hit.object, oid);
            if !hit.certified_by_bound {
                assert!((hit.distance - od).abs() < 1e-9);
            } else {
                assert!(hit.distance >= od - 1e-9, "bound certifies from above");
            }
        }
    }

    #[test]
    fn ablations_return_identical_sets() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(30.0, 5.0), 0);
        let base = QueryOptions::default();
        let a = range_query(&space, &index, &store, q, 60.0, &base).unwrap();
        let b = range_query(&space, &index, &store, q, 60.0, &base.without_pruning()).unwrap();
        let c = range_query(&space, &index, &store, q, 60.0, &base.without_skeleton()).unwrap();
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(ids(&a), ids(&c));
        // Pruning boosts certified acceptances; without it everything is
        // refined.
        assert_eq!(b.stats.accepted_by_bounds, 0);
        assert!(b.stats.refined >= a.stats.refined);
    }

    #[test]
    fn skeleton_prunes_other_floors() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let with = range_query(&space, &index, &store, q, 10.0, &QueryOptions::default()).unwrap();
        let without = range_query(
            &space,
            &index,
            &store,
            q,
            10.0,
            &QueryOptions::default().without_skeleton(),
        )
        .unwrap();
        // Same answers…
        assert_eq!(ids(&with), ids(&without));
        // …but the Euclidean filter admits the upstairs object (4 m away
        // vertically) as a candidate while the skeleton rejects it.
        assert!(without.stats.candidates_after_filter > with.stats.candidates_after_filter);
    }

    #[test]
    fn filtering_retrieves_at_the_query_radius() {
        let (space, store, index) = setup();
        let mut walks_differ = false;
        for opts in [
            QueryOptions::default(),
            QueryOptions::default().without_skeleton(),
        ] {
            for (qx, qf) in [(5.0, 0u16), (30.0, 0), (55.0, 1)] {
                let q = IndoorPoint::new(Point2::new(qx, 5.0), qf);
                for r in [5.0, 15.0, 40.0] {
                    let s = range_query(&space, &index, &store, q, r, &opts)
                        .unwrap()
                        .stats;
                    let at_r = index.range_search(&space, q, r, opts.use_skeleton);
                    assert_eq!(
                        (
                            s.partitions_retrieved,
                            s.candidates_after_filter,
                            s.nodes_visited,
                            s.entries_checked
                        ),
                        (
                            at_r.partitions.len(),
                            at_r.objects.len(),
                            at_r.stats.nodes_visited,
                            at_r.stats.entries_checked
                        ),
                        "q=({qx},{qf}) r={r}"
                    );
                    let at_reach =
                        index.range_search(&space, q, r + opts.subgraph_slack, opts.use_skeleton);
                    walks_differ |= at_reach.partitions.len() != at_r.partitions.len();
                }
            }
        }
        assert!(
            walks_differ,
            "no case separates the walk at r from r + slack"
        );
    }

    #[test]
    fn zero_and_bad_ranges() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let z = range_query(&space, &index, &store, q, 0.0, &QueryOptions::default()).unwrap();
        assert!(z.results.is_empty());
        assert!(matches!(
            range_query(&space, &index, &store, q, -1.0, &QueryOptions::default()),
            Err(QueryError::BadRange(_))
        ));
        assert!(matches!(
            range_query(
                &space,
                &index,
                &store,
                q,
                f64::NAN,
                &QueryOptions::default()
            ),
            Err(QueryError::BadRange(_))
        ));
    }

    #[test]
    fn closed_door_changes_result() {
        let (mut space, store, mut index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let before =
            range_query(&space, &index, &store, q, 40.0, &QueryOptions::default()).unwrap();
        assert!(ids(&before).contains(&ObjectId(2)));
        // Close the door between rooms 0 and 1 on floor 0.
        let d = space
            .doors()
            .find(|d| d.position == Point2::new(20.0, 5.0) && d.floor == 0)
            .unwrap()
            .id;
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        let after = range_query(&space, &index, &store, q, 40.0, &QueryOptions::default()).unwrap();
        assert!(
            !ids(&after).contains(&ObjectId(2)),
            "object now unreachable"
        );
    }
}
