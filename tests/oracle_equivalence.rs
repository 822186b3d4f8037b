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
use indoor_dq::query::{knn_query, naive_knn, naive_range, range_query, KnnResult, QueryOptions};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, BuildingConfig, ObjectConfig,
    QueryPointConfig,
};
use std::collections::BTreeMap;

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

fn wide_world(seed: u64) -> World {
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
            radius: 30.0,
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

/// The slack only sizes the first door-distance band: a radius-30
/// population needs 140 m by `QueryOptions::for_max_radius`, yet every
/// slack from 0 to 300 m, with and without each ablation, returns the
/// same range ids, the same exact distances and the same kNN list as the
/// default 60 m and the oracle. Only the certifying upper bound of a
/// bound-certified range hit may differ.
#[test]
fn answers_do_not_depend_on_the_subgraph_slack() {
    let w = wide_world(5);
    let space = &w.building.space;
    let mut variants = Vec::new();
    for slack in [0.0, 5.0, 60.0, 140.0, 300.0] {
        let o = QueryOptions {
            subgraph_slack: slack,
            ..QueryOptions::default()
        };
        variants.extend([o, o.without_skeleton(), o.without_pruning()]);
    }
    for &q in &w.queries {
        for r in [60.0, 120.0, 200.0] {
            let oracle = naive_range(space, w.index.doors_graph(), &w.store, q, r).unwrap();
            let oracle_ids: Vec<ObjectId> = oracle.iter().map(|x| x.0).collect();
            let mut exact: BTreeMap<ObjectId, u64> = BTreeMap::new();
            for v in &variants {
                let out = range_query(space, &w.index, &w.store, q, r, v).unwrap();
                let ids: Vec<ObjectId> = out.results.iter().map(|h| h.object).collect();
                assert_eq!(ids, oracle_ids, "q={q} r={r} {v:?}");
                for (hit, (_, od)) in out.results.iter().zip(&oracle) {
                    if hit.certified_by_bound {
                        assert!(hit.distance >= od - 1e-9, "q={q} r={r} {v:?}");
                        continue;
                    }
                    assert!((hit.distance - od).abs() < 1e-9, "q={q} r={r} {v:?}");
                    let bits = *exact.entry(hit.object).or_insert(hit.distance.to_bits());
                    assert_eq!(hit.distance.to_bits(), bits, "q={q} r={r} {v:?}");
                }
            }
        }
        for k in [5usize, 25] {
            let oracle = naive_knn(space, w.index.doors_graph(), &w.store, q, k).unwrap();
            let default = QueryOptions::default();
            let reference = knn_query(space, &w.index, &w.store, q, k, &default).unwrap();
            let bits = |r: &KnnResult| -> Vec<(ObjectId, u64)> {
                r.results
                    .iter()
                    .map(|h| (h.object, h.distance.to_bits()))
                    .collect()
            };
            assert_eq!(reference.results.len(), oracle.len(), "q={q} k={k}");
            for (hit, (oid, od)) in reference.results.iter().zip(&oracle) {
                assert!((hit.distance - od).abs() < 1e-9, "q={q} k={k}");
                if (hit.distance - od).abs() < 1e-12 && hit.object != *oid {
                    continue; // tie permutation
                }
                assert_eq!(hit.object, *oid, "q={q} k={k}");
            }
            for v in &variants {
                let out = knn_query(space, &w.index, &w.store, q, k, v).unwrap();
                assert_eq!(bits(&out), bits(&reference), "q={q} k={k} {v:?}");
            }
        }
    }
}
