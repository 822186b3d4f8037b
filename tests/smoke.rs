//! Fast facade smoke test: the quickstart flow from `src/lib.rs`, run
//! end-to-end in well under a second, so facade breakage is caught before
//! the heavy oracle suites spin up worlds.

use indoor_dq::prelude::*;

#[test]
fn quickstart_flow_end_to_end() {
    // A tiny two-room floor plan, exactly as in the crate-level doc example.
    let mut builder = FloorPlanBuilder::new(4.0);
    let a = builder
        .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
        .unwrap();
    let b = builder
        .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
        .unwrap();
    builder
        .add_door_between(a, b, Point2::new(10.0, 5.0))
        .unwrap();
    let space = builder.finish().unwrap();

    let mut engine = IndoorEngine::new(space, EngineConfig::default()).unwrap();
    let o1 = engine
        .apply(Update::InsertObjectAt {
            center: Point2::new(18.0, 5.0),
            floor: 0,
            radius: 1.0,
            instances: 16,
            seed: 7,
        })
        .unwrap()
        .inserted_object()
        .unwrap();

    let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
    let range = |engine: &IndoorEngine, r: f64| {
        let out = engine.snapshot().execute(&Query::Range { q, r }).unwrap();
        out.into_range().unwrap()
    };
    let hits = range(&engine, 25.0);
    assert_eq!(hits.results.len(), 1);
    assert_eq!(hits.results[0].object, o1);

    // The same object is the 1-NN. The range hit may carry a certifying
    // upper bound instead of the exact value, so the exact kNN distance can
    // only be at or below it.
    let knn = engine.snapshot().execute(&Query::Knn { q, k: 1 }).unwrap();
    let knn = knn.into_knn().unwrap();
    assert_eq!(knn.results.len(), 1);
    assert_eq!(knn.results[0].object, o1);
    assert!(knn.results[0].distance <= hits.results[0].distance + 1e-9);

    // A radius short of the door leaves the other room unreachable.
    let none = range(&engine, 5.0);
    assert!(none.results.is_empty());

    // Removal flows through engine, index and store consistently.
    engine.apply(Update::RemoveObject(o1)).unwrap();
    let hits = range(&engine, 25.0);
    assert!(hits.results.is_empty());
}
