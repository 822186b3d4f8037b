//! Compile-time thread-safety assertions for the concurrent service API.
//!
//! The MVCC redesign's contract is that these types cross thread
//! boundaries: snapshots and services are cloned into reader threads,
//! outcomes and reports are sent back over channels, subscriptions live
//! on consumer threads. A field change that silently loses `Send`/`Sync`
//! (an `Rc`, a `RefCell`, a raw pointer) must fail *compilation*, not a
//! stress test — so these are `const` assertions in the style of
//! `static_assertions`, with no external dependency.

use indoor_dq::prelude::*;

const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}
const fn assert_static<T: 'static>() {}
const fn assert_clone<T: Clone>() {}

// Evaluated at compile time: a regression here is a build error.
const _: () = {
    // The owned session handle: cloned into every reader thread.
    assert_send::<Snapshot>();
    assert_sync::<Snapshot>();
    assert_static::<Snapshot>();
    assert_clone::<Snapshot>();
    // Query results travel back from worker threads.
    assert_send::<Outcome>();
    assert_sync::<Outcome>();
    assert_static::<Outcome>();
    // Commit receipts are broadcast to subscriptions on other threads.
    assert_send::<UpdateReport>();
    assert_sync::<UpdateReport>();
    assert_static::<UpdateReport>();
    assert_clone::<UpdateReport>();
    // Subscriptions are consumed on their own threads.
    assert_send::<Subscription>();
    assert_sync::<Subscription>();
    assert_static::<Subscription>();
    assert_send::<Notification>();
    assert_sync::<Notification>();
    // The service handle itself, and the writer (movable into a thread).
    assert_send::<IndoorService>();
    assert_sync::<IndoorService>();
    assert_clone::<IndoorService>();
    assert_send::<IndoorEngine>();
    assert_sync::<IndoorEngine>();
    // Write handles are cloned into concurrent writer threads; they stage
    // batches on their own threads and meet only at the sequencer.
    assert_send::<WriteHandle>();
    assert_sync::<WriteHandle>();
    assert_static::<WriteHandle>();
    assert_clone::<WriteHandle>();
    // The state a snapshot pins.
    assert_send::<indoor_dq::core::EngineState>();
    assert_sync::<indoor_dq::core::EngineState>();
};

/// The `const` block above is the real test; this keeps the harness from
/// reporting an empty suite and exercises a cross-thread round trip.
#[test]
fn snapshot_and_outcome_cross_threads() {
    let mut b = FloorPlanBuilder::new(4.0);
    let a = b
        .add_room(0, indoor_dq::geom::Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
        .unwrap();
    let c = b
        .add_room(
            0,
            indoor_dq::geom::Rect2::from_bounds(10.0, 0.0, 20.0, 10.0),
        )
        .unwrap();
    b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
    let mut engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
    let id = engine
        .apply(Update::InsertObjectAt {
            center: Point2::new(15.0, 5.0),
            floor: 0,
            radius: 1.0,
            instances: 8,
            seed: 7,
        })
        .unwrap()
        .inserted_object()
        .unwrap();

    let snapshot = engine.snapshot();
    let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
    let outcome: Outcome = std::thread::spawn(move || {
        // The snapshot moved into this thread; the outcome moves back.
        snapshot.execute(&Query::Range { q, r: 30.0 }).unwrap()
    })
    .join()
    .unwrap();
    assert_eq!(outcome.as_range().unwrap().results[0].object, id);
}
