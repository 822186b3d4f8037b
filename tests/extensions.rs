//! Integration tests for the future-work extension (§VII of the paper)
//! this repo serves: continuous range monitoring, exercised on generated
//! mall workloads.

use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::IndoorPoint;
use indoor_dq::objects::ObjectId;
use indoor_dq::query::{naive_range, MonitorChange, QueryOptions, RangeMonitor};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, sample_one, BuildingConfig,
    ObjectConfig, QueryPointConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (
    indoor_dq::workloads::GeneratedBuilding,
    indoor_dq::objects::ObjectStore,
    CompositeIndex,
    Vec<IndoorPoint>,
) {
    let building = generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(3)
    })
    .unwrap();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 400,
            radius: 8.0,
            instances: 8,
            seed: 17,
        },
    )
    .unwrap();
    let index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let queries = generate_query_points(&building, &QueryPointConfig { count: 6, seed: 23 });
    (building, store, index, queries)
}

#[test]
fn monitor_tracks_random_churn_exactly() {
    let (building, mut store, mut index, queries) = world();
    let q = queries[0];
    let r = 120.0;
    let opts = QueryOptions::for_max_radius(8.0);
    let mut mon = RangeMonitor::new(q, r, opts).unwrap();
    mon.refresh(&building.space, &index, &store).unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    let mut next = 50_000u64;
    for round in 0..4 {
        // Insert a few fresh objects and feed them to the monitor.
        for _ in 0..8 {
            let obj = sample_one(&building, ObjectId(next), 8.0, 8, &mut rng).unwrap();
            next += 1;
            index.insert_object(&building.space, &obj).unwrap();
            let id = obj.id;
            store.insert(obj).unwrap();
            mon.absorb_delta(&[id], &[], false, &building.space, &index, &store)
                .unwrap();
        }
        // Move a few existing ones.
        let ids = store.ids_sorted();
        for &id in ids.iter().step_by(23).take(6) {
            let replacement = sample_one(&building, id, 8.0, 8, &mut rng).unwrap();
            store.remove(id).unwrap();
            store.insert(replacement).unwrap();
            index
                .update_object(&building.space, store.get(id).unwrap())
                .unwrap();
            mon.absorb_delta(&[id], &[], false, &building.space, &index, &store)
                .unwrap();
        }
        // Remove a few.
        for &id in ids.iter().step_by(31).take(4) {
            if store.contains(id) {
                index.remove_object(id).unwrap();
                store.remove(id).unwrap();
                mon.absorb_delta(&[], &[id], false, &building.space, &index, &store)
                    .unwrap();
            }
        }
        // The monitor must equal the oracle at every round.
        let truth = naive_range(&building.space, index.doors_graph(), &store, q, r).unwrap();
        let truth_ids: Vec<ObjectId> = truth.iter().map(|x| x.0).collect();
        assert_eq!(mon.current(), truth_ids, "round {round}");
    }
}

#[test]
fn monitor_survives_topology_change_with_refresh() {
    let (building, store, mut index, queries) = world();
    let mut space = building.space.clone();
    let q = queries[1];
    let opts = QueryOptions::for_max_radius(8.0);
    let mut mon = RangeMonitor::new(q, 100.0, opts).unwrap();
    mon.refresh(&space, &index, &store).unwrap();
    let before = mon.current().len();

    // Close a door near the query and refresh.
    let pid = space.partition_at(q).unwrap();
    let doors = space.doors_of(pid).unwrap().to_vec();
    if let Some(&d) = doors.first() {
        let ev = space.close_door(d).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        mon.refresh(&space, &index, &store).unwrap();
        let truth = naive_range(&space, index.doors_graph(), &store, q, 100.0).unwrap();
        assert_eq!(mon.current().len(), truth.len());
        // Typically fewer objects are reachable now (never more).
        assert!(mon.current().len() <= before);
    }
}

#[test]
fn monitor_change_values_are_reported() {
    let (building, mut store, mut index, queries) = world();
    let q = queries[2];
    let opts = QueryOptions::for_max_radius(8.0);
    let mut mon = RangeMonitor::new(q, 80.0, opts).unwrap();
    mon.refresh(&building.space, &index, &store).unwrap();
    // Place an object right at the query point: must Enter.
    let mut rng = StdRng::seed_from_u64(7);
    let mut obj = None;
    for _ in 0..50 {
        let cand = sample_one(&building, ObjectId(77_777), 8.0, 8, &mut rng).unwrap();
        if cand.floor == q.floor && cand.region.center.dist(q.point) < 50.0 {
            obj = Some(cand);
            break;
        }
    }
    if let Some(obj) = obj {
        let id = obj.id;
        index.insert_object(&building.space, &obj).unwrap();
        store.insert(obj).unwrap();
        let c = mon
            .absorb_delta(&[id], &[], false, &building.space, &index, &store)
            .unwrap();
        assert_eq!(c, [(id, MonitorChange::Entered)]);
        let c = mon
            .absorb_delta(&[id], &[], false, &building.space, &index, &store)
            .unwrap();
        assert!(c.is_empty(), "an unchanged member reports no change");
    }
}
