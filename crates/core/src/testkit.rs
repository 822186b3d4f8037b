//! Fixtures shared by the crate's unit tests.

use crate::{IndoorEngine, Update};
use idq_geom::{Point2, Rect2};
use idq_model::{FloorPlanBuilder, IndoorPoint, IndoorSpace};
use idq_objects::ObjectId;
use idq_query::{KnnResult, Query, RangeResult};

/// Three 10 × 10 rooms in a row on floor 0, joined by doors at
/// (10, 5) and (20, 5).
pub(crate) fn three_rooms() -> IndoorSpace {
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
    b.finish().unwrap()
}

/// Samples and commits one object on floor 0, returning its id.
pub(crate) fn insert_at(
    e: &mut IndoorEngine,
    center: Point2,
    radius: f64,
    instances: usize,
    seed: u64,
) -> ObjectId {
    e.apply(Update::InsertObjectAt {
        center,
        floor: 0,
        radius,
        instances,
        seed,
    })
    .unwrap()
    .inserted_object()
    .unwrap()
}

/// `iRQ(q, r)` on a fresh default snapshot.
pub(crate) fn range(e: &IndoorEngine, q: IndoorPoint, r: f64) -> RangeResult {
    let out = e.snapshot().execute(&Query::Range { q, r }).unwrap();
    out.into_range().unwrap()
}

/// `ikNNQ(q, k)` on a fresh default snapshot.
pub(crate) fn knn(e: &IndoorEngine, q: IndoorPoint, k: usize) -> KnnResult {
    let out = e.snapshot().execute(&Query::Knn { q, k }).unwrap();
    out.into_knn().unwrap()
}
