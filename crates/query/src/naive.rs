//! Brute-force oracle evaluation: no index, no bounds, no pruning.
//!
//! One full-graph Dijkstra from the query point, then the exact expected
//! indoor distance of *every* object by per-instance evaluation. The
//! oracle defines correctness for the optimized pipeline (the equivalence
//! tests in `irq`/`iknn` and the cross-crate integration tests) and serves
//! as the unindexed baseline in benchmarks.

use crate::error::QueryError;
use idq_distance::{expected_indoor_distance_naive, DoorDistances};
use idq_geom::OrdF64;
use idq_model::IndoorPoint;
use idq_model::{DoorsGraph, IndoorSpace};
use idq_objects::{ObjectId, ObjectStore};

/// All objects with expected indoor distance ≤ `r`, sorted by object id.
pub fn naive_range(
    space: &IndoorSpace,
    graph: &DoorsGraph,
    store: &ObjectStore,
    q: IndoorPoint,
    r: f64,
) -> Result<Vec<(ObjectId, f64)>, QueryError> {
    if !r.is_finite() || r < 0.0 {
        return Err(QueryError::BadRange(r));
    }
    let dd = DoorDistances::compute(space, graph, q)?;
    let mut out = Vec::new();
    for id in store.ids_sorted() {
        let obj = store.get(id)?;
        let v = expected_indoor_distance_naive(space, &dd, obj);
        if v <= r {
            out.push((id, v));
        }
    }
    Ok(out)
}

/// The `k` objects with the smallest expected indoor distance, ascending
/// (ties broken by object id); unreachable objects are excluded.
pub fn naive_knn(
    space: &IndoorSpace,
    graph: &DoorsGraph,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
) -> Result<Vec<(ObjectId, f64)>, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let dd = DoorDistances::compute(space, graph, q)?;
    let mut scored: Vec<(OrdF64, ObjectId)> = Vec::with_capacity(store.len());
    for id in store.ids_sorted() {
        let obj = store.get(id)?;
        let v = expected_indoor_distance_naive(space, &dd, obj);
        if v.is_finite() {
            scored.push((OrdF64(v), id));
        }
    }
    scored.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    Ok(scored.into_iter().map(|(d, id)| (id, d.0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_model::FloorPlanBuilder;
    use idq_objects::UncertainObject;

    fn setup() -> (IndoorSpace, DoorsGraph, ObjectStore) {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(10.0, 5.0)).unwrap();
        let space = b.finish().unwrap();
        let graph = DoorsGraph::build(&space);
        let mut store = ObjectStore::new();
        for (id, x) in [(1u64, 2.0), (2, 8.0), (3, 15.0)] {
            store
                .insert(
                    UncertainObject::with_uniform_weights(
                        ObjectId(id),
                        Circle::new(Point2::new(x, 5.0), 1.0),
                        0,
                        vec![Point2::new(x, 5.0)],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        (space, graph, store)
    }

    #[test]
    fn range_and_knn_are_consistent() {
        let (space, graph, store) = setup();
        let q = IndoorPoint::new(Point2::new(1.0, 5.0), 0);
        let knn = naive_knn(&space, &graph, &store, q, 3).unwrap();
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].0, ObjectId(1));
        // The range at the 2nd distance contains exactly the first two.
        let rng = naive_range(&space, &graph, &store, q, knn[1].1).unwrap();
        assert_eq!(rng.len(), 2);
    }

    #[test]
    fn unreachable_objects_are_excluded() {
        let (mut space, _, store) = setup();
        let d = space.doors().next().unwrap().id;
        space.close_door(d).unwrap();
        let graph = DoorsGraph::build(&space);
        let q = IndoorPoint::new(Point2::new(1.0, 5.0), 0);
        let knn = naive_knn(&space, &graph, &store, q, 3).unwrap();
        assert_eq!(knn.len(), 2, "object 3 is sealed off");
        let rng = naive_range(&space, &graph, &store, q, 1e9).unwrap();
        assert_eq!(rng.len(), 2);
    }
}
