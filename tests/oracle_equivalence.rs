//! End-to-end equivalence of the optimized pipeline against the
//! brute-force oracle, on generated mall workloads (the paper's own
//! workload family, scaled down for test time).
//!
//! This is the load-bearing correctness test of the repository: it
//! exercises filtering (skeleton bounds), the subgraph restriction, the
//! pruning bounds and the refinement fallbacks together, across seeds,
//! query types, radii, k values and ablations.

use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::objects::ObjectId;
use indoor_dq::query::{knn_query, naive_knn, naive_range, range_query, QueryOptions};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, BuildingConfig, ObjectConfig,
    QueryPointConfig,
};

struct World {
    building: indoor_dq::workloads::GeneratedBuilding,
    store: indoor_dq::objects::ObjectStore,
    index: CompositeIndex,
    queries: Vec<indoor_dq::model::IndoorPoint>,
}

fn world(seed: u64) -> World {
    let building = generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        one_way_rooms: 1,
        ..BuildingConfig::with_floors(3)
    })
    .unwrap();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 250,
            radius: 10.0,
            instances: 12,
            seed,
        },
    )
    .unwrap();
    let index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let queries = generate_query_points(
        &building,
        &QueryPointConfig {
            count: 6,
            seed: seed ^ 0xAB,
        },
    );
    World {
        building,
        store,
        index,
        queries,
    }
}

#[test]
fn irq_matches_oracle_across_seeds_and_radii() {
    for seed in [1u64, 2, 3] {
        let w = world(seed);
        let opts = QueryOptions::for_max_radius(10.0);
        for &q in &w.queries {
            for r in [50.0, 100.0, 150.0] {
                let fast = range_query(&w.building.space, &w.index, &w.store, q, r, &opts).unwrap();
                let slow =
                    naive_range(&w.building.space, w.index.doors_graph(), &w.store, q, r).unwrap();
                let fast_ids: Vec<ObjectId> = fast.results.iter().map(|h| h.object).collect();
                let slow_ids: Vec<ObjectId> = slow.iter().map(|x| x.0).collect();
                assert_eq!(fast_ids, slow_ids, "seed={seed} q={q} r={r}");
            }
        }
    }
}

#[test]
fn iknn_matches_oracle_across_seeds_and_k() {
    for seed in [1u64, 2, 3] {
        let w = world(seed);
        let opts = QueryOptions::for_max_radius(10.0);
        for &q in &w.queries {
            for k in [1usize, 10, 40] {
                let fast = knn_query(&w.building.space, &w.index, &w.store, q, k, &opts).unwrap();
                let slow =
                    naive_knn(&w.building.space, w.index.doors_graph(), &w.store, q, k).unwrap();
                assert_eq!(fast.results.len(), slow.len(), "seed={seed} q={q} k={k}");
                for (hit, (oid, od)) in fast.results.iter().zip(&slow) {
                    // Distances must match exactly; ids may permute only
                    // under exact ties.
                    assert!(
                        (hit.distance - od).abs() < 1e-9,
                        "seed={seed} q={q} k={k}: {} vs {od}",
                        hit.distance
                    );
                    if (hit.distance - od).abs() < 1e-12 && hit.object != *oid {
                        continue; // tie permutation
                    }
                    assert_eq!(hit.object, *oid, "seed={seed} q={q} k={k}");
                }
            }
        }
    }
}

#[test]
fn ablations_preserve_answers() {
    let w = world(7);
    let base = QueryOptions::for_max_radius(10.0);
    let variants = [
        base,
        base.without_pruning(),
        base.without_skeleton(),
        base.without_pruning().without_skeleton(),
    ];
    for &q in w.queries.iter().take(3) {
        let reference =
            range_query(&w.building.space, &w.index, &w.store, q, 100.0, &base).unwrap();
        let ref_ids: Vec<ObjectId> = reference.results.iter().map(|h| h.object).collect();
        for (i, v) in variants.iter().enumerate() {
            let out = range_query(&w.building.space, &w.index, &w.store, q, 100.0, v).unwrap();
            let ids: Vec<ObjectId> = out.results.iter().map(|h| h.object).collect();
            assert_eq!(ids, ref_ids, "variant {i} diverged at q={q}");
        }
        let knn_ref = knn_query(&w.building.space, &w.index, &w.store, q, 25, &base).unwrap();
        for (i, v) in variants.iter().enumerate() {
            let out = knn_query(&w.building.space, &w.index, &w.store, q, 25, v).unwrap();
            assert_eq!(out.results.len(), knn_ref.results.len(), "variant {i}");
            for (a, b) in out.results.iter().zip(&knn_ref.results) {
                assert!((a.distance - b.distance).abs() < 1e-9, "variant {i}");
            }
        }
    }
}

#[test]
fn filtering_keeps_all_true_results_as_candidates() {
    // Lemma 6's zero-false-negative guarantee, checked directly on the
    // filtering phase output.
    let w = world(11);
    for &q in w.queries.iter().take(3) {
        for r in [50.0, 120.0] {
            let filtered = w.index.range_search(&w.building.space, q, r, true);
            let truth =
                naive_range(&w.building.space, w.index.doors_graph(), &w.store, q, r).unwrap();
            for (oid, _) in truth {
                assert!(
                    filtered.objects.contains(&oid),
                    "true result {oid} missing from filter output at q={q} r={r}"
                );
            }
        }
    }
}

#[test]
fn stats_are_plausible() {
    let w = world(13);
    let opts = QueryOptions::for_max_radius(10.0);
    let q = w.queries[0];
    let out = range_query(&w.building.space, &w.index, &w.store, q, 100.0, &opts).unwrap();
    let s = &out.stats;
    assert_eq!(s.total_objects, 250);
    assert!(s.candidates_after_filter <= s.total_objects);
    assert!(s.refined <= s.candidates_after_filter);
    assert!(s.filtering_ratio() >= 0.0 && s.filtering_ratio() <= 1.0);
    assert!(s.pruning_ratio() >= s.filtering_ratio() - 1e-9);
    assert!(s.total_ms() > 0.0);
    assert!(s.partitions_retrieved > 0);
}
