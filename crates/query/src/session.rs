//! Snapshot-based query sessions: a typed [`Query`] / [`Outcome`] surface.
//!
//! [`execute`] evaluates one query; [`execute_batch`] evaluates a slice of
//! queries, one [`execute`] each, in input order. Reuse across queries is
//! what every query already gets: the shared
//! [`idq_distance::DistanceCache`] rows its door-distance context is
//! composed from, and each object's memoised subregion summary.

use crate::error::QueryError;
use crate::iknn::KnnResult;
use crate::irq::RangeResult;
use crate::options::QueryOptions;
use crate::stats::QueryStats;
use idq_distance::{indoor_distance, shortest_path, DistanceError};
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
    /// `|q,p|_I`; `∞` when `p` is unreachable from `q`. A target in no
    /// partition is an error, not `∞`.
    pub distance: f64,
    /// Evaluation statistics.
    pub(crate) stats: QueryStats,
}

/// Result of a [`Query::Path`] evaluation.
#[derive(Clone, Debug)]
pub struct PathResult {
    /// Path length and door sequence, or `None` when unreachable. A
    /// target in no partition is an error, not `None`.
    pub path: Option<(f64, Vec<DoorId>)>,
    /// Evaluation statistics.
    pub(crate) stats: QueryStats,
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

/// Refuses a distance or path target that lies in no partition, as the
/// search refuses such a source: a NaN or infinite coordinate, a point
/// outside the building, or a floor it does not have.
fn check_target(space: &IndoorSpace, p: IndoorPoint) -> Result<(), QueryError> {
    match space.partition_at(p) {
        Some(_) => Ok(()),
        None => Err(DistanceError::QueryOutsideSpace(p).into()),
    }
}

fn execute_distance(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    p: IndoorPoint,
) -> Result<DistanceResult, QueryError> {
    check_target(space, p)?;
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
    check_target(space, p)?;
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

/// Evaluates one query.
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

/// Evaluates a batch of queries: [`execute`] on each, in input order.
/// The first error, in input order, aborts the batch.
pub fn execute_batch(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    queries: &[Query],
    options: &QueryOptions,
) -> Result<Vec<Outcome>, QueryError> {
    queries
        .iter()
        .map(|query| execute(space, index, store, query, options))
        .collect()
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
    fn batch_at_one_query_point_matches_single_issue() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let queries: Vec<Query> = [20.0, 40.0, 60.0, 80.0]
            .iter()
            .map(|&r| Query::Range { q, r })
            .collect();

        let outcomes = execute_batch(&space, &index, &store, &queries, &opts).unwrap();
        assert_eq!(outcomes.len(), queries.len());

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
    fn batch_mixing_floors_and_kinds_matches_single_issue() {
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
        // The first error in input order wins.
        let bad = vec![Query::Knn { q, k: 0 }, Query::Range { q, r: -1.0 }];
        assert!(matches!(
            execute_batch(&space, &index, &store, &bad, &opts),
            Err(QueryError::ZeroK)
        ));
        assert!(execute_batch(&space, &index, &store, &[], &opts)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn targets_outside_every_partition_are_errors() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let targets = [
            IndoorPoint::new(Point2::new(f64::NAN, 5.0), 0),
            IndoorPoint::new(Point2::new(5.0, f64::INFINITY), 1),
            IndoorPoint::new(Point2::new(5.0, 5.0), 7),
        ];
        for p in targets {
            for query in [Query::Distance { q, p }, Query::Path { q, p }] {
                match execute(&space, &index, &store, &query, &opts) {
                    Err(QueryError::Distance(DistanceError::QueryOutsideSpace(at))) => {
                        assert_eq!(at.floor, p.floor, "{query}");
                    }
                    other => panic!("{query}: {other:?}"),
                }
            }
        }
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
