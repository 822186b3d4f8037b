//! Batch-vs-single equivalence of the session API: `execute_batch` must
//! return bit-identical results (objects *and* expected distances) to
//! issuing the same queries one at a time. Covers mixed floors, shared
//! query points and all four query kinds, on generated mall workloads
//! (the paper's §V-A family, scaled down).

use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::IndoorPoint;
use indoor_dq::prelude::*;
use indoor_dq::query::{execute, execute_batch};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, GeneratedBuilding,
};
use proptest::prelude::*;

struct World {
    building: GeneratedBuilding,
    space: std::sync::Arc<indoor_dq::model::IndoorSpace>,
    store: std::sync::Arc<indoor_dq::objects::ObjectStore>,
    index: std::sync::Arc<CompositeIndex>,
    points: Vec<IndoorPoint>,
}

impl World {
    /// An owned snapshot over the world's layers (the session entry point
    /// the engine-less harness uses) — three pointer clones per call.
    fn snapshot(&self, options: QueryOptions) -> Snapshot {
        Snapshot::from_parts(
            std::sync::Arc::clone(&self.space),
            std::sync::Arc::clone(&self.store),
            std::sync::Arc::clone(&self.index),
            options,
        )
    }
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
            count: 200,
            radius: 10.0,
            instances: 10,
            seed,
        },
    )
    .unwrap();
    let index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let points = generate_query_points(
        &building,
        &QueryPointConfig {
            count: 6,
            seed: seed ^ 0xAB,
        },
    );
    let space = std::sync::Arc::new(building.space.clone());
    World {
        building,
        space,
        store: std::sync::Arc::new(store),
        index: std::sync::Arc::new(index),
        points,
    }
}

/// Asserts two outcomes of the same query are bit-identical in their
/// result payloads (hit vectors, distances, path).
fn assert_identical(batch: &Outcome, single: &Outcome, ctx: &str) {
    match (batch, single) {
        (Outcome::Range(a), Outcome::Range(b)) => {
            assert_eq!(a.results, b.results, "{ctx}: range hits diverge");
        }
        (Outcome::Knn(a), Outcome::Knn(b)) => {
            assert_eq!(a.results, b.results, "{ctx}: kNN hits diverge");
        }
        (Outcome::Distance(a), Outcome::Distance(b)) => {
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "{ctx}: distance diverges"
            );
        }
        (Outcome::Path(a), Outcome::Path(b)) => {
            assert_eq!(a.path, b.path, "{ctx}: path diverges");
        }
        _ => panic!("{ctx}: outcome variant does not match the query"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random mixes of all four query kinds over a random world, with
    /// query points drawn *with replacement* (so shared points and
    /// singleton groups both occur, across all three floors).
    #[test]
    fn execute_batch_is_bit_identical_to_single_issue(
        seed in 1u64..5,
        picks in collection::vec((0usize..6, 0usize..6), 4..12),
    ) {
        let w = world(seed);
        let opts = QueryOptions::for_max_radius(10.0);
        let queries: Vec<Query> = picks
            .iter()
            .map(|&(qi, kind)| {
                let q = w.points[qi];
                let p = w.points[(qi + 1) % w.points.len()];
                match kind {
                    0 => Query::Range { q, r: 60.0 },
                    1 => Query::Range { q, r: 120.0 },
                    2 => Query::Knn { q, k: 5 },
                    3 => Query::Knn { q, k: 20 },
                    4 => Query::Distance { q, p },
                    _ => Query::Path { q, p },
                }
            })
            .collect();

        let batch =
            execute_batch(&w.building.space, &w.index, &w.store, &queries, &opts).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (i, (query, out)) in queries.iter().zip(&batch).enumerate() {
            let single =
                execute(&w.building.space, &w.index, &w.store, query, &opts).unwrap();
            assert_identical(out, &single, &format!("seed={seed} query#{i} {query}"));
        }
    }
}

/// The same planar position on different floors is two indoor points;
/// every member matches its single-issue answer.
#[test]
fn groups_split_by_floor_and_merge_by_point() {
    let w = world(9);
    let snapshot = w.snapshot(QueryOptions::for_max_radius(10.0));
    let planar = w.points[0].point;
    let q0 = IndoorPoint::new(planar, 0);
    let q1 = IndoorPoint::new(planar, 1);
    let queries = vec![
        Query::Range { q: q0, r: 80.0 },
        Query::Range { q: q1, r: 80.0 },
        Query::Knn { q: q0, k: 10 },
        Query::Knn { q: q1, k: 10 },
    ];
    let outcomes = snapshot.execute_batch(&queries).unwrap();
    for (query, out) in queries.iter().zip(&outcomes) {
        let single = snapshot.execute(query).unwrap();
        assert_identical(out, &single, &format!("{query}"));
    }
}

/// A kNN query fills the subregion summaries of the objects it prices;
/// a later range query at the same point reads them from each object's
/// memo.
#[test]
fn knn_seeds_feed_the_shared_cache() {
    let w = world(11);
    let snapshot = w.snapshot(QueryOptions::for_max_radius(10.0));
    let q = w.points[1];
    let queries = vec![Query::Knn { q, k: 15 }, Query::Range { q, r: 100.0 }];
    let outcomes = snapshot.execute_batch(&queries).unwrap();
    assert!(
        outcomes[1].stats().subregion_cache_hits > 0,
        "the range query reuses summaries the kNN query memoised"
    );
    for (query, out) in queries.iter().zip(&outcomes) {
        let single = snapshot.execute(query).unwrap();
        assert_identical(out, &single, &format!("{query}"));
    }
}

/// Two range queries at one point, in either order, each answer at their
/// own reach: a member certified by its upper bound carries the bound at
/// `r + slack`, whatever the other member's radius. A batch that evaluated
/// both over the wider member's context tightened the narrower member's
/// bounds and certified hits that single issue refines.
#[test]
fn range_members_answer_at_their_own_reach() {
    let building = generate_building(&BuildingConfig::with_floors(2)).unwrap();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 1000,
            radius: 10.0,
            instances: 8,
            seed: 4,
        },
    )
    .unwrap();
    let index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let points = generate_query_points(
        &building,
        &QueryPointConfig {
            count: 40,
            seed: 4 ^ 0xAB,
        },
    );
    let opts = QueryOptions::for_max_radius(10.0);
    let space = &building.space;
    for q in points {
        for radii in [[60.0, 120.0], [120.0, 60.0], [150.0, 50.0], [50.0, 150.0]] {
            let queries = radii.map(|r| Query::Range { q, r });
            let batch = execute_batch(space, &index, &store, &queries, &opts).unwrap();
            for (query, out) in queries.iter().zip(&batch) {
                let single = execute(space, &index, &store, query, &opts).unwrap();
                assert_identical(out, &single, &format!("{query} in {radii:?}"));
            }
        }
    }
}
