//! Snapshot-based query sessions: a typed [`Query`] / [`Outcome`] surface
//! with cross-query computation reuse (the paper's §VII future-work item).
//!
//! [`execute`] evaluates one query; [`execute_batch`] evaluates a slice of
//! queries and **groups them by query point and floor**: every group
//! shares one evaluation context, i.e. one banded door-distance assembly
//! (the subgraph phase, composed from the shared
//! [`idq_distance::DistanceCache`] rows) and one map of refinement
//! decompositions. (Bounds need no sharing: they read each object's
//! memoised subregion summary, which outlives any one batch.) The group's
//! context is truncated at the *maximum* of the members' reaches, so each
//! member sees at least the horizon its own filtering phase retrieved
//! partitions for. Batched and single-issue execution return bit-identical
//! results because every refinement value is horizon-independent: the
//! pipeline returns a banded value only when it is provably exact (at or
//! below the context's
//! [`exit horizon`](idq_distance::DoorDistances::exit_horizon)) and falls
//! back to the full graph otherwise, and bound certifications below the
//! query radius cannot differ between any two sound horizons that cover
//! the filtering retrieval ball.
//!
//! Reuse is observable through [`QueryStats`]: within a batch only the
//! query that builds a group's context has `dijkstras_run == 1`; every
//! other member reports `context_reuses == 1` and `dijkstras_run == 0`.

use crate::error::QueryError;
use crate::iknn::{knn_finish, knn_prep, KnnPrep, KnnResult};
use crate::irq::{range_finish, range_prep, RangePrep, RangeResult};
use crate::options::QueryOptions;
use crate::pipeline::EvalContext;
use crate::stats::QueryStats;
use idq_distance::{indoor_distance, shortest_path};
use idq_geom::IdMap;
use idq_index::CompositeIndex;
use idq_model::{DoorId, IndoorPoint, IndoorSpace};
use idq_objects::ObjectStore;
use std::time::Instant;

/// A typed query against one consistent view of the indoor world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// `iRQ(q, r)`: objects with expected indoor distance `|q,O|_I ≤ r`
    /// (Def. 3, Algorithm 1).
    Range {
        /// The query point.
        q: IndoorPoint,
        /// The range radius, metres.
        r: f64,
    },
    /// `ikNNQ(q, k)`: the `k` objects with the smallest `|q,O|_I`
    /// (Def. 4, Algorithm 2).
    Knn {
        /// The query point.
        q: IndoorPoint,
        /// How many neighbours.
        k: usize,
    },
    /// Point-to-point indoor distance `|q,p|_I` (Eq. 1).
    Distance {
        /// The source point.
        q: IndoorPoint,
        /// The target point.
        p: IndoorPoint,
    },
    /// Shortest indoor path `q ⇝ p`: length plus the door sequence.
    Path {
        /// The source point.
        q: IndoorPoint,
        /// The target point.
        p: IndoorPoint,
    },
}

impl Query {
    /// The query point the evaluation starts from.
    pub fn query_point(&self) -> IndoorPoint {
        match *self {
            Query::Range { q, .. }
            | Query::Knn { q, .. }
            | Query::Distance { q, .. }
            | Query::Path { q, .. } => q,
        }
    }

    /// Batch-grouping key: queries whose evaluation context (door-distance
    /// tree + refinement decompositions) is shareable map to the same key.
    /// Distance and path queries run their own point-to-point search and
    /// are not grouped.
    fn group_key(&self) -> Option<(u64, u64, u16)> {
        match self {
            Query::Range { q, .. } | Query::Knn { q, .. } => {
                Some((q.point.x.to_bits(), q.point.y.to_bits(), q.floor))
            }
            Query::Distance { .. } | Query::Path { .. } => None,
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::Range { q, r } => write!(f, "iRQ({q}, r={r})"),
            Query::Knn { q, k } => write!(f, "ikNNQ({q}, k={k})"),
            Query::Distance { q, p } => write!(f, "dist({q} → {p})"),
            Query::Path { q, p } => write!(f, "path({q} ⇝ {p})"),
        }
    }
}

/// Result of a [`Query::Distance`] evaluation.
#[derive(Clone, Debug)]
pub struct DistanceResult {
    /// `|q,p|_I`; `∞` when `p` is unreachable from `q`.
    pub distance: f64,
    /// Evaluation statistics.
    pub stats: QueryStats,
}

/// Result of a [`Query::Path`] evaluation.
#[derive(Clone, Debug)]
pub struct PathResult {
    /// Path length and door sequence, or `None` when unreachable.
    pub path: Option<(f64, Vec<DoorId>)>,
    /// Evaluation statistics.
    pub stats: QueryStats,
}

/// The outcome of one [`Query`], matching its variant. Every outcome
/// carries [`QueryStats`] — uniform observability is part of the session
/// contract.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Outcome of a [`Query::Range`].
    Range(RangeResult),
    /// Outcome of a [`Query::Knn`].
    Knn(KnnResult),
    /// Outcome of a [`Query::Distance`].
    Distance(DistanceResult),
    /// Outcome of a [`Query::Path`].
    Path(PathResult),
}

impl Outcome {
    /// The evaluation statistics, regardless of variant.
    pub fn stats(&self) -> &QueryStats {
        match self {
            Outcome::Range(r) => &r.stats,
            Outcome::Knn(r) => &r.stats,
            Outcome::Distance(r) => &r.stats,
            Outcome::Path(r) => &r.stats,
        }
    }

    /// The range result, if this is a range outcome.
    pub fn as_range(&self) -> Option<&RangeResult> {
        match self {
            Outcome::Range(r) => Some(r),
            _ => None,
        }
    }

    /// The kNN result, if this is a kNN outcome.
    pub fn as_knn(&self) -> Option<&KnnResult> {
        match self {
            Outcome::Knn(r) => Some(r),
            _ => None,
        }
    }

    /// The distance result, if this is a distance outcome.
    pub fn as_distance(&self) -> Option<&DistanceResult> {
        match self {
            Outcome::Distance(r) => Some(r),
            _ => None,
        }
    }

    /// The path result, if this is a path outcome.
    pub fn as_path(&self) -> Option<&PathResult> {
        match self {
            Outcome::Path(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the range result, if this is a range outcome.
    pub fn into_range(self) -> Option<RangeResult> {
        match self {
            Outcome::Range(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the kNN result, if this is a kNN outcome.
    pub fn into_knn(self) -> Option<KnnResult> {
        match self {
            Outcome::Knn(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the distance result, if this is a distance outcome.
    pub fn into_distance(self) -> Option<DistanceResult> {
        match self {
            Outcome::Distance(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the path result, if this is a path outcome.
    pub fn into_path(self) -> Option<PathResult> {
        match self {
            Outcome::Path(r) => Some(r),
            _ => None,
        }
    }
}

fn execute_distance(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    p: IndoorPoint,
) -> Result<DistanceResult, QueryError> {
    let t = Instant::now();
    let distance = indoor_distance(space, index.doors_graph(), q, p)?;
    Ok(DistanceResult {
        distance,
        stats: QueryStats {
            subgraph_ms: t.elapsed().as_secs_f64() * 1e3,
            total_objects: store.len(),
            dijkstras_run: 1,
            ..QueryStats::default()
        },
    })
}

fn execute_path(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    p: IndoorPoint,
) -> Result<PathResult, QueryError> {
    let t = Instant::now();
    let path = shortest_path(space, index.doors_graph(), q, p)?;
    Ok(PathResult {
        path,
        stats: QueryStats {
            subgraph_ms: t.elapsed().as_secs_f64() * 1e3,
            total_objects: store.len(),
            dijkstras_run: 1,
            ..QueryStats::default()
        },
    })
}

/// Evaluates one query. Equivalent to [`execute_batch`] over a singleton
/// slice, without the batching bookkeeping.
pub fn execute(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    query: &Query,
    options: &QueryOptions,
) -> Result<Outcome, QueryError> {
    match *query {
        Query::Range { q, r } => {
            crate::irq::range_query(space, index, store, q, r, options).map(Outcome::Range)
        }
        Query::Knn { q, k } => {
            crate::iknn::knn_query(space, index, store, q, k, options).map(Outcome::Knn)
        }
        Query::Distance { q, p } => {
            execute_distance(space, index, store, q, p).map(Outcome::Distance)
        }
        Query::Path { q, p } => execute_path(space, index, store, q, p).map(Outcome::Path),
    }
}

/// One prepared context query (range or kNN) awaiting phases 3–4.
enum Prepped {
    Range(RangePrep),
    Knn(KnnPrep),
}

impl Prepped {
    fn query_point(&self) -> IndoorPoint {
        match self {
            Prepped::Range(p) => p.q,
            Prepped::Knn(p) => p.q,
        }
    }

    /// How far this member's evaluation needs exact distances: the reach
    /// the filtering phase retrieved candidates for.
    fn reach(&self, options: &QueryOptions) -> f64 {
        match self {
            Prepped::Range(p) => p.r + options.subgraph_slack,
            Prepped::Knn(p) => p.kbound + options.subgraph_slack,
        }
    }

    fn stats_mut(&mut self) -> &mut QueryStats {
        match self {
            Prepped::Range(p) => &mut p.stats,
            Prepped::Knn(p) => &mut p.stats,
        }
    }
}

/// Evaluates a batch of queries, reusing one evaluation context per
/// `(query point, floor)` group.
///
/// Results are returned in input order and are identical to evaluating
/// each query individually with [`execute`]; only the [`QueryStats`]
/// reuse counters (`dijkstras_run`, `context_reuses`,
/// `subregion_cache_hits`) differ. The filtering phase — kNN seeding
/// included — still runs per query: it determines each query's
/// candidates. The group shares the banded door-distance context
/// (truncated at the maximum of the members' reaches) and its refinement
/// decompositions; seeds and pruning read each object's memoised
/// subregion summary, so they share nothing and hand nothing over.
///
/// Errors abort the whole batch: queries are validated during their
/// filtering phase, so an invalid radius or `k = 0` anywhere surfaces
/// before any group context is built.
pub fn execute_batch(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    queries: &[Query],
    options: &QueryOptions,
) -> Result<Vec<Outcome>, QueryError> {
    // Phase 1 for every query, in input order. Distance/path queries are
    // finished immediately — they run their own point-to-point search.
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(queries.len());
    let mut prepped: Vec<Option<Prepped>> = Vec::with_capacity(queries.len());
    // Group key → slot in `groups`; groups keep first-seen order so the
    // evaluation order is deterministic. The map keeps bucketing O(n) for
    // large batches of mostly-distinct query points.
    let mut group_slots: IdMap<(u64, u64, u16), usize> = IdMap::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        match *query {
            Query::Range { q, r } => {
                prepped.push(Some(Prepped::Range(range_prep(
                    space, index, store, q, r, options,
                )?)));
                outcomes.push(None);
            }
            Query::Knn { q, k } => {
                prepped.push(Some(Prepped::Knn(knn_prep(
                    space, index, store, q, k, options,
                )?)));
                outcomes.push(None);
            }
            Query::Distance { q, p } => {
                outcomes.push(Some(Outcome::Distance(execute_distance(
                    space, index, store, q, p,
                )?)));
                prepped.push(None);
                continue;
            }
            Query::Path { q, p } => {
                outcomes.push(Some(Outcome::Path(execute_path(
                    space, index, store, q, p,
                )?)));
                prepped.push(None);
                continue;
            }
        }
        let key = query.group_key().expect("context queries have a key");
        match group_slots.get(&key) {
            Some(&slot) => groups[slot].push(i),
            None => {
                group_slots.insert(key, groups.len());
                groups.push(vec![i]);
            }
        }
    }

    // Phases 2–4 per group: one banded context truncated at the maximum
    // of the members' reaches.
    for members in groups {
        let q = prepped[members[0]]
            .as_ref()
            .expect("grouped queries are prepped")
            .query_point();

        // Maximum reach across the group.
        let mut horizon = 0.0f64;
        for &i in &members {
            let p = prepped[i].as_ref().expect("grouped queries are prepped");
            horizon = horizon.max(p.reach(options));
        }

        // The context build (the banded row composition) is charged to
        // the group's first member; the rest record a reuse.
        let t = Instant::now();
        let mut ctx = EvalContext::new(space, store, index, q, horizon, options)?;
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        for (j, &i) in members.iter().enumerate() {
            let p = prepped[i].as_mut().expect("grouped queries are prepped");
            let stats = p.stats_mut();
            if j == 0 {
                stats.subgraph_ms = build_ms;
                stats.dijkstras_run = 1;
                // Build-time shared-cache traffic is charged here too;
                // finish-phase traffic is drained per member.
                ctx.drain_into(stats);
            } else {
                stats.context_reuses = 1;
            }
        }

        for &i in &members {
            let outcome = match prepped[i].take().expect("grouped queries are prepped") {
                Prepped::Range(p) => Outcome::Range(range_finish(&mut ctx, p, options)?),
                Prepped::Knn(p) => Outcome::Knn(knn_finish(&mut ctx, p, options)?),
            };
            outcomes[i] = Some(outcome);
        }
    }

    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every query was finished"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::FloorPlanBuilder;
    use idq_objects::{ObjectId, UncertainObject};

    /// Same two-floor world as the iRQ/ikNN unit tests.
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
    fn execute_matches_direct_calls() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(55.0, 5.0), 1);

        let out = execute(&space, &index, &store, &Query::Range { q, r: 40.0 }, &opts).unwrap();
        let direct = crate::irq::range_query(&space, &index, &store, q, 40.0, &opts).unwrap();
        assert_eq!(out.as_range().unwrap().results, direct.results);

        let out = execute(&space, &index, &store, &Query::Knn { q, k: 2 }, &opts).unwrap();
        let direct = crate::iknn::knn_query(&space, &index, &store, q, 2, &opts).unwrap();
        assert_eq!(out.as_knn().unwrap().results, direct.results);

        let out = execute(&space, &index, &store, &Query::Distance { q, p }, &opts).unwrap();
        let direct = indoor_distance(&space, index.doors_graph(), q, p).unwrap();
        assert_eq!(out.as_distance().unwrap().distance, direct);
        assert_eq!(out.stats().dijkstras_run, 1);

        let out = execute(&space, &index, &store, &Query::Path { q, p }, &opts).unwrap();
        let direct = shortest_path(&space, index.doors_graph(), q, p).unwrap();
        assert_eq!(out.as_path().unwrap().path, direct);
    }

    #[test]
    fn batch_shares_one_dijkstra_per_query_point() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let queries: Vec<Query> = [20.0, 40.0, 60.0, 80.0]
            .iter()
            .map(|&r| Query::Range { q, r })
            .collect();

        let outcomes = execute_batch(&space, &index, &store, &queries, &opts).unwrap();
        assert_eq!(outcomes.len(), queries.len());
        let dijkstras: usize = outcomes.iter().map(|o| o.stats().dijkstras_run).sum();
        let reuses: usize = outcomes.iter().map(|o| o.stats().context_reuses).sum();
        assert_eq!(dijkstras, 1, "one restricted Dijkstra for the group");
        assert_eq!(reuses, queries.len() - 1);

        // Results identical to single-issue execution.
        for (query, out) in queries.iter().zip(&outcomes) {
            let single = execute(&space, &index, &store, query, &opts).unwrap();
            assert_eq!(
                out.as_range().unwrap().results,
                single.as_range().unwrap().results
            );
        }
    }

    #[test]
    fn batch_groups_by_floor_and_point() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q0 = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let q1 = IndoorPoint::new(Point2::new(5.0, 5.0), 1); // same planar point, other floor
        let p = IndoorPoint::new(Point2::new(55.0, 5.0), 0);
        let queries = vec![
            Query::Range { q: q0, r: 40.0 },
            Query::Knn { q: q1, k: 2 },
            Query::Distance { q: q0, p },
            Query::Range { q: q1, r: 60.0 },
            Query::Knn { q: q0, k: 1 },
        ];
        let outcomes = execute_batch(&space, &index, &store, &queries, &opts).unwrap();
        // Two groups (q0, q1) → two context Dijkstras; the distance query
        // runs its own search.
        let dijkstras: usize = outcomes
            .iter()
            .zip(&queries)
            .filter(|(_, q)| !matches!(q, Query::Distance { .. } | Query::Path { .. }))
            .map(|(o, _)| o.stats().dijkstras_run)
            .sum();
        assert_eq!(dijkstras, 2);
        for (query, out) in queries.iter().zip(&outcomes) {
            let single = execute(&space, &index, &store, query, &opts).unwrap();
            match (out, single) {
                (Outcome::Range(a), Outcome::Range(b)) => assert_eq!(a.results, b.results),
                (Outcome::Knn(a), Outcome::Knn(b)) => assert_eq!(a.results, b.results),
                (Outcome::Distance(a), Outcome::Distance(b)) => {
                    assert_eq!(a.distance, b.distance)
                }
                _ => panic!("variant mismatch"),
            }
        }
    }

    #[test]
    fn batch_propagates_validation_errors() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let bad = vec![Query::Range { q, r: 40.0 }, Query::Range { q, r: -1.0 }];
        assert!(matches!(
            execute_batch(&space, &index, &store, &bad, &opts),
            Err(QueryError::BadRange(_))
        ));
        let bad = vec![Query::Knn { q, k: 0 }];
        assert!(matches!(
            execute_batch(&space, &index, &store, &bad, &opts),
            Err(QueryError::ZeroK)
        ));
        assert!(execute_batch(&space, &index, &store, &[], &opts)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_display_and_accessors() {
        let q = IndoorPoint::new(Point2::new(1.0, 2.0), 0);
        let p = IndoorPoint::new(Point2::new(3.0, 4.0), 1);
        assert_eq!(Query::Range { q, r: 5.0 }.query_point(), q);
        assert_eq!(Query::Knn { q, k: 3 }.query_point(), q);
        assert_eq!(Query::Distance { q, p }.query_point(), q);
        assert_eq!(Query::Path { q, p }.query_point(), q);
        assert!(Query::Range { q, r: 5.0 }.to_string().contains("iRQ"));
        assert!(Query::Knn { q, k: 3 }.to_string().contains("k=3"));
    }
}
