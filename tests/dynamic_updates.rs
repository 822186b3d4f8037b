//! Index consistency under mixed object and topology update sequences
//! (§III-C): after any sequence of updates, the incrementally maintained
//! index must answer exactly like a freshly rebuilt one.

use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::{IndoorPoint, SplitLine};
use indoor_dq::objects::ObjectId;
use indoor_dq::prelude::*;
use indoor_dq::query::{naive_knn, naive_range, QueryOptions};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, sample_one, BuildingConfig,
    ObjectConfig, QueryPointConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn agree_with_rebuild(
    space: &indoor_dq::model::IndoorSpace,
    store: &indoor_dq::objects::ObjectStore,
    incr: &CompositeIndex,
    queries: &[IndoorPoint],
) {
    incr.validate();
    incr.check_fresh(space).unwrap();
    let fresh = CompositeIndex::build(space, store, IndexConfig::default()).unwrap();
    let opts = QueryOptions::for_max_radius(10.0);
    for &q in queries {
        if space.partition_at(q).is_none() {
            continue; // a topology change may have removed q's partition
        }
        let a = indoor_dq::query::range_query(space, incr, store, q, 80.0, &opts).unwrap();
        let b = indoor_dq::query::range_query(space, &fresh, store, q, 80.0, &opts).unwrap();
        let ids = |r: &indoor_dq::query::RangeResult| {
            r.results.iter().map(|h| h.object).collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b), "incremental vs rebuilt at q={q}");
        // And both agree with the oracle.
        let slow = naive_range(space, incr.doors_graph(), store, q, 80.0).unwrap();
        let slow_ids: Vec<ObjectId> = slow.iter().map(|x| x.0).collect();
        assert_eq!(ids(&a), slow_ids, "oracle at q={q}");
    }
}

#[test]
fn random_object_churn_preserves_equivalence() {
    let building = generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap();
    let mut store = generate_objects(
        &building,
        &ObjectConfig {
            count: 120,
            radius: 8.0,
            instances: 8,
            seed: 5,
        },
    )
    .unwrap();
    let mut index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let queries = generate_query_points(&building, &QueryPointConfig { count: 4, seed: 77 });

    let mut rng = StdRng::seed_from_u64(99);
    let mut next_id = 10_000u64;
    for round in 0..6 {
        // Remove ~10 random objects.
        let ids = store.ids_sorted();
        for &id in ids.iter().step_by(13).take(10) {
            store.remove(id).unwrap();
            index.remove_object(id).unwrap();
        }
        // Insert ~10 fresh ones.
        for _ in 0..10 {
            let obj = sample_one(&building, ObjectId(next_id), 8.0, 8, &mut rng).unwrap();
            next_id += 1;
            index.insert_object(&building.space, &obj).unwrap();
            store.insert(obj).unwrap();
        }
        // Move ~10 (delete + insert semantics).
        let ids = store.ids_sorted();
        for &id in ids.iter().step_by(17).take(10) {
            let replacement = sample_one(&building, id, 8.0, 8, &mut rng).unwrap();
            store.remove(id).unwrap();
            store.insert(replacement).unwrap();
            index
                .update_object(&building.space, store.get(id).unwrap())
                .unwrap();
        }
        if round % 2 == 1 {
            agree_with_rebuild(&building.space, &store, &index, &queries);
        }
    }
    agree_with_rebuild(&building.space, &store, &index, &queries);
}

#[test]
fn topology_churn_preserves_equivalence() {
    let building = generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap();
    let mut space = building.space.clone();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 80,
            radius: 6.0,
            instances: 6,
            seed: 21,
        },
    )
    .unwrap();
    let mut index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
    let queries = generate_query_points(&building, &QueryPointConfig { count: 4, seed: 31 });
    let mut rng = StdRng::seed_from_u64(4242);

    // Door open/close churn.
    let door_ids: Vec<_> = space.doors().map(|d| d.id).collect();
    for _ in 0..8 {
        let d = door_ids[rng.random_range(0..door_ids.len())];
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        agree_with_rebuild(&space, &store, &index, &queries[..1]);
        let ev = space.open_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
    }
    agree_with_rebuild(&space, &store, &index, &queries);

    // Split a few rooms with sliding walls, then merge them back.
    let mut split_pairs = Vec::new();
    for &room in building.rooms_by_floor[0].iter().take(3) {
        let p = space.partition(room).unwrap();
        let rect = p.footprint.as_rect().unwrap();
        // Rooms carry doors at w/4, w/2 or 3w/4 of their width; split at
        // 0.375·w so the wall misses all of them.
        let cx = rect.lo.x + rect.width() * 0.375;
        let cy = (rect.lo.y + rect.hi.y) / 2.0;
        let (halves, events) = space
            .split_partition(room, SplitLine::AtX(cx), Some(Point2::new(cx, cy)))
            .unwrap();
        for ev in &events {
            index.apply_topology(&space, &store, ev).unwrap();
        }
        split_pairs.push(halves);
    }
    agree_with_rebuild(&space, &store, &index, &queries);
    for halves in split_pairs {
        let (_, events) = space.merge_partitions(halves[0], halves[1]).unwrap();
        for ev in &events {
            index.apply_topology(&space, &store, ev).unwrap();
        }
    }
    agree_with_rebuild(&space, &store, &index, &queries);
}

#[test]
fn engine_keeps_knn_consistent_after_everything() {
    let building = generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 60,
            radius: 6.0,
            instances: 6,
            seed: 3,
        },
    )
    .unwrap();
    let mut engine =
        IndoorEngine::with_objects(building.space.clone(), store, EngineConfig::default()).unwrap();
    // A burst of engine-level operations.
    let new_id = engine
        .apply(Update::InsertObjectAt {
            center: Point2::new(300.0, 300.0),
            floor: 1,
            radius: 6.0,
            instances: 6,
            seed: 9,
        })
        .unwrap()
        .inserted_object()
        .unwrap();
    let some_door = engine.space().doors().nth(5).unwrap().id;
    for update in [
        Update::MoveObject {
            id: new_id,
            center: Point2::new(100.0, 100.0),
            floor: 0,
            seed: 10,
        },
        Update::CloseDoor(some_door),
        Update::OpenDoor(some_door),
    ] {
        engine.apply(update).unwrap();
    }
    engine.validate().unwrap();
    // kNN equals the oracle.
    let q = IndoorPoint::new(Point2::new(305.0, 305.0), 0);
    let fast = engine.snapshot().execute(&Query::Knn { q, k: 15 }).unwrap();
    let fast = fast.into_knn().unwrap();
    let slow = naive_knn(
        engine.space(),
        engine.index().doors_graph(),
        engine.store(),
        q,
        15,
    )
    .unwrap();
    assert_eq!(fast.results.len(), slow.len());
    for (a, (_, d)) in fast.results.iter().zip(&slow) {
        assert!((a.distance - d).abs() < 1e-9);
    }
}
