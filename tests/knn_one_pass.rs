//! Oracles for ikNN as one multi-step search: one heap of partitions and
//! objects keyed by lower bounds, exact refinement when an object's best
//! bound pops.
//!
//! * The answers are bit-equal to a brute-force ranking of every object by
//!   the refinement's own exact arithmetic (full-graph door distances,
//!   o-table-hinted decomposition), under every ablation; that ranking
//!   agrees with `naive_knn`'s per-instance sums to 1e-9.
//! * Deleting a partition that still holds an object instance is refused
//!   with `PartitionOccupied`, and nothing changes. Once earlier ops in
//!   the batch move or remove the occupants, the deletion commits, and
//!   kNN and iRQ answers (single, batched and as a subscription's initial
//!   set) stay exact before and after, as do open range and kNN
//!   subscriptions across later writes. An insert into the deleted
//!   room's gap is refused with `NoHostPartition`.
//! * On generated malls the search refines exactly the objects whose key
//!   is at most the k-th distance, and a query point outside every
//!   partition still fails with `QueryOutsideSpace`.
//!
//! The worlds have staircases, one-way doors, long slack halls and
//! instances on partition walls.

use indoor_dq::core::{EngineConfig, EngineError, IndoorEngine, Subscription, Update};
use indoor_dq::distance::{
    expected_indoor_distance, object_bounds, DistanceError, DoorDistances, DoorRow,
};
use indoor_dq::geom::{Circle, OrdF64, Point2, Rect2};
use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::{FloorPlanBuilder, IndoorPoint, IndoorSpace, PartitionId};
use indoor_dq::objects::{
    GaussianSampler, ObjectError, ObjectId, ObjectStore, Subregions, UncertainObject,
};
use indoor_dq::query::{
    execute_batch, knn_query, naive_knn, range_query, Outcome, Query, QueryError, QueryOptions,
};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, BuildingConfig, ObjectConfig,
    QueryPointConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Two floors of rooms A | B | C and a long hall on y ∈ [0, 10], joined by
/// a staircase at each end (x ∈ [-4, 0] and [60, 64]). B → C is one-way
/// on floor 0 and C → B on floor 1, so routes differ by direction.
fn world() -> IndoorSpace {
    let mut b = FloorPlanBuilder::new(4.0);
    let mut ends = Vec::new();
    for f in 0..2u16 {
        let mut room = |x0: f64, x1: f64| {
            b.add_room(f, Rect2::from_bounds(x0, 0.0, x1, 10.0))
                .unwrap()
        };
        let (a, rb, c, hall) = (
            room(0.0, 10.0),
            room(10.0, 20.0),
            room(20.0, 30.0),
            room(30.0, 60.0),
        );
        b.add_door_between(a, rb, Point2::new(10.0, 5.0)).unwrap();
        let bc = Point2::new(20.0, 5.0);
        if f == 0 {
            b.add_one_way_door(rb, c, bc).unwrap();
        } else {
            b.add_one_way_door(c, rb, bc).unwrap();
        }
        b.add_door_between(c, hall, Point2::new(30.0, 5.0)).unwrap();
        ends.push((a, hall));
    }
    let west = b
        .add_staircase((0, 1), Rect2::from_bounds(-4.0, 0.0, 0.0, 10.0))
        .unwrap();
    let east = b
        .add_staircase((0, 1), Rect2::from_bounds(60.0, 0.0, 64.0, 10.0))
        .unwrap();
    for (f, (a, hall)) in ends.into_iter().enumerate() {
        let f = f as u16;
        b.add_staircase_entrance(west, a, f, Point2::new(0.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(east, hall, f, Point2::new(60.0, 5.0))
            .unwrap();
    }
    b.finish().unwrap()
}

/// The partitions the index's o-table records for an object — the hint
/// the pipeline decomposes with.
fn hint(index: &CompositeIndex, id: ObjectId) -> Vec<PartitionId> {
    let mut hint: Vec<PartitionId> = index
        .object_layer()
        .units_of(id)
        .unwrap()
        .iter()
        .filter_map(|&u| index.units().partition_of(u))
        .collect();
    hint.sort_unstable();
    hint.dedup();
    hint
}

/// Every object's exact expected distance by the refinement's arithmetic:
/// full-graph door distances composed from expanded rows, decomposition
/// with the o-table hint. Ascending `(distance, id)`; unreachable objects
/// are left out.
fn exact_ranking(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
) -> Vec<(ObjectId, f64)> {
    let dd =
        DoorDistances::compute_banded(space, index.doors_graph(), q, f64::INFINITY, |g, d, h| {
            Arc::new(DoorRow::expand(g, d, h))
        })
        .unwrap();
    let mut scored: Vec<(OrdF64, ObjectId)> = store
        .iter()
        .filter_map(|obj| {
            let subs = Subregions::compute_with_hint(obj, space, &hint(index, obj.id)).unwrap();
            let v = expected_indoor_distance(space, &dd, obj, &subs).value;
            v.is_finite().then_some((OrdF64(v), obj.id))
        })
        .collect();
    scored.sort();
    scored.into_iter().map(|(d, id)| (id, d.0)).collect()
}

fn bits(hits: &[(ObjectId, f64)]) -> Vec<(ObjectId, u64)> {
    hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

fn variants(base: QueryOptions) -> [(&'static str, QueryOptions); 4] {
    [
        ("default", base),
        ("without_skeleton", base.without_skeleton()),
        ("without_pruning", base.without_pruning()),
        ("with_exact_refinement", base.with_exact_refinement()),
    ]
}

type ExplicitObject = (f64, f64, u16, Vec<(f64, f64)>);

fn build_store(space: &IndoorSpace, explicit: &[ExplicitObject], seed: u64) -> ObjectStore {
    let mut store = ObjectStore::new();
    // Explicit instances: the centre, a point on the nearest wall, for
    // every other object a point on the south outer wall, and the drawn
    // offsets, kept inside the building.
    for (i, (cx, cy, floor, offsets)) in explicit.iter().enumerate() {
        let wall = (cx / 10.0).round().clamp(1.0, 3.0) * 10.0;
        let mut positions = vec![Point2::new(*cx, *cy), Point2::new(wall, *cy)];
        if i % 2 == 1 {
            positions.push(Point2::new(*cx, 0.0));
        }
        positions.extend(
            offsets
                .iter()
                .map(|(dx, dy)| Point2::new(cx + dx, (cy + dy).clamp(0.0, 10.0))),
        );
        let region = Circle::new(Point2::new(*cx, *cy), 4.0);
        let o =
            UncertainObject::with_uniform_weights(ObjectId(i as u64), region, *floor, positions);
        store.insert(o.unwrap()).unwrap();
    }
    // Sampled objects, one of them in each staircase.
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, (x, floor)) in [(45.0, 0u16), (15.0, 1), (62.0, 0), (-2.0, 1)]
        .into_iter()
        .enumerate()
    {
        let id = ObjectId(100 + i as u64);
        let o = GaussianSampler::with_instances(12)
            .sample(id, Point2::new(x, 5.0), floor, 6.0, space, &mut rng)
            .unwrap();
        store.insert(o).unwrap();
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn one_pass_candidates_and_answers_match_the_oracles(
        explicit in proptest::collection::vec(
            (1.0f64..59.0, 0.5f64..9.5, 0u16..2,
             proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 1..5)),
            4..12,
        ),
        seed in any::<u64>(),
        (qx, qy, qf) in (0.5f64..59.5, 0.5f64..9.5, 0u16..2),
        k in 1usize..10,
    ) {
        let space = world();
        let store = build_store(&space, &explicit, seed);
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(qx, qy), qf);
        let ranking = exact_ranking(&space, &index, &store, q);
        let mut want = ranking.clone();
        want.truncate(k);

        // The exact ranking is the naive oracle's, up to summation order.
        let naive = naive_knn(&space, index.doors_graph(), &store, q, store.len()).unwrap();
        for (id, d) in &naive {
            let exact = ranking.iter().find(|(o, _)| o == id).map(|&(_, e)| e);
            prop_assert!(exact.is_some_and(|e| (e - d).abs() < 1e-9), "{}: naive {}", id, d);
        }

        let base = QueryOptions::for_max_radius(6.0);
        for (name, opts) in variants(base) {
            let out = knn_query(&space, &index, &store, q, k, &opts).unwrap();
            let got: Vec<(ObjectId, f64)> =
                out.results.iter().map(|h| (h.object, h.distance)).collect();
            prop_assert_eq!(bits(&got), bits(&want), "{}", name);
            prop_assert_eq!(out.stats.nodes_visited, 0, "{}: no tree descent", name);
            prop_assert!(out.stats.refined <= out.stats.candidates_after_filter, "{}", name);
        }
    }
}

/// On two generated malls, for 6 points and k ∈ {1, 10, 40} wherever at
/// least k objects are reachable: the answers are the exact ranking's
/// first k, bit for bit, and the search refines exactly the objects whose
/// key `max(MBR key, complete-context summary lower bound)` is at most
/// the k-th distance — no search with these bounds refines fewer.
#[test]
fn search_is_optimal_for_its_keys() {
    for seed in [1, 2] {
        let building = generate_building(&BuildingConfig {
            bands: 2,
            rooms_per_side: 3,
            one_way_rooms: 1,
            ..BuildingConfig::with_floors(3)
        })
        .unwrap();
        let space = &building.space;
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
        let index = CompositeIndex::build(space, &store, IndexConfig::default()).unwrap();
        let points = generate_query_points(
            &building,
            &QueryPointConfig {
                count: 6,
                seed: seed ^ 0xAB,
            },
        );
        let opts = QueryOptions::for_max_radius(10.0);
        let mut checked = 0;
        for &q in &points {
            let ranking = exact_ranking(space, &index, &store, q);
            let complete = DoorDistances::compute_banded(
                space,
                index.doors_graph(),
                q,
                f64::INFINITY,
                |g, d, h| Arc::new(DoorRow::expand(g, d, h)),
            )
            .unwrap();
            let keys: Vec<f64> = store
                .iter()
                .map(|obj| {
                    let mbr = index.object_layer().object_mbr(obj.id).unwrap();
                    let subs =
                        Subregions::compute_with_hint(obj, space, &hint(&index, obj.id)).unwrap();
                    let lower = object_bounds(space, &complete, subs.summaries()).lower;
                    index.min_skeleton_distance(space, q, &mbr).max(lower)
                })
                .collect();
            for k in [1usize, 10, 40] {
                if ranking.len() < k {
                    continue;
                }
                let out = knn_query(space, &index, &store, q, k, &opts).unwrap();
                let got: Vec<(ObjectId, f64)> =
                    out.results.iter().map(|h| (h.object, h.distance)).collect();
                assert_eq!(bits(&got), bits(&ranking[..k]), "seed {seed} k={k}");
                let kth = ranking[k - 1].1;
                let optimal = keys.iter().filter(|&&key| key <= kth).count();
                assert_eq!(out.stats.refined, optimal, "seed {seed} k={k}");
                checked += 1;
            }
        }
        assert!(checked >= 12, "seed {seed}: {checked} queries checked");
    }
}

/// Rooms P | R | Q in a row, with object 1 in R, object 2 in P and object
/// 3 in Q. Deleting R is refused while object 1 is there, and the refusal
/// changes nothing. Moving or removing object 1 earlier in the batch makes
/// the deletion legal; an object on the P | R wall does not block it. The
/// kNN answers are the exact ranking's before and after, and the iRQ
/// answers that ranking cut at `d ≤ r`.
#[test]
fn deleting_a_partition_that_holds_objects_keeps_answers_exact() {
    let mut b = FloorPlanBuilder::new(4.0);
    let room = |b: &mut FloorPlanBuilder, x0: f64| {
        b.add_room(0, Rect2::from_bounds(x0, 0.0, x0 + 10.0, 10.0))
            .unwrap()
    };
    let (p, r, q_room) = (room(&mut b, 0.0), room(&mut b, 10.0), room(&mut b, 20.0));
    b.add_door_between(p, r, Point2::new(10.0, 5.0)).unwrap();
    b.add_door_between(r, q_room, Point2::new(20.0, 5.0))
        .unwrap();
    let space = b.finish().unwrap();
    let explicit = |id: u64, cx: f64, radius: f64, xs: &[f64]| {
        let positions = xs.iter().map(|&x| Point2::new(x, 5.0)).collect();
        let region = Circle::new(Point2::new(cx, 5.0), radius);
        let object = UncertainObject::with_uniform_weights(ObjectId(id), region, 0, positions);
        Update::InsertObject(Box::new(object.unwrap()))
    };
    let populated = || {
        let mut engine = IndoorEngine::new(space.clone(), EngineConfig::default()).unwrap();
        engine
            .apply_batch(&[
                // Footprint x ∈ [14, 21]: R and Q; both instances in R.
                explicit(1, 17.5, 3.5, &[14.0, 15.0]),
                // Inside P, farther from the query than object 1.
                explicit(2, 1.0, 0.5, &[1.0]),
                // Inside Q: cut off once R is gone.
                explicit(3, 25.0, 1.0, &[25.0]),
            ])
            .unwrap();
        engine
    };
    let mut engine = populated();

    let q = IndoorPoint::new(Point2::new(9.0, 5.0), 0);
    let radii = [4.0, 6.0, 20.0];
    let ranges: Vec<Query> = radii.iter().map(|&r| Query::Range { q, r }).collect();
    let check = |engine: &IndoorEngine, stage: &str| {
        let (space, index, store) = (engine.space(), engine.index(), engine.store());
        let ranking = exact_ranking(space, index, store, q);
        let options = *engine.snapshot().options();
        for k in 1..=3 {
            let mut want = ranking.clone();
            want.truncate(k);
            for (name, opts) in variants(options) {
                let out = knn_query(space, index, store, q, k, &opts).unwrap();
                let got: Vec<(ObjectId, f64)> =
                    out.results.iter().map(|h| (h.object, h.distance)).collect();
                assert_eq!(bits(&got), bits(&want), "{stage} k={k} {name}");
            }
        }
        let within = |r: f64| {
            let mut ids: Vec<ObjectId> = ranking
                .iter()
                .filter(|&&(_, d)| d <= r)
                .map(|&(o, _)| o)
                .collect();
            ids.sort_unstable();
            ids
        };
        let ids = |out: &Outcome| -> Vec<ObjectId> {
            out.as_range()
                .unwrap()
                .results
                .iter()
                .map(|h| h.object)
                .collect()
        };
        for (name, opts) in variants(options) {
            let batch = execute_batch(space, index, store, &ranges, &opts).unwrap();
            for (&r, out) in radii.iter().zip(&batch) {
                let single = range_query(space, index, store, q, r, &opts).unwrap();
                let single: Vec<ObjectId> = single.results.iter().map(|h| h.object).collect();
                assert_eq!(single, within(r), "{stage} r={r} {name}");
                assert_eq!(ids(out), within(r), "{stage} r={r} {name}: batch");
            }
        }
        for (&r, range) in radii.iter().zip(&ranges) {
            let sub = engine.service().subscribe(*range).unwrap();
            assert_eq!(sub.initial(), within(r), "{stage} r={r}: subscription");
        }
        bits(&ranking)
    };
    let before = check(&engine, "before");
    let (epoch, watermark) = (engine.epoch(), engine.store().id_watermark());
    let occupied = Err(EngineError::PartitionOccupied {
        partition: r,
        object: ObjectId(1),
    });
    let delete = Update::DeletePartition(r);
    // A removal later in the batch comes too late.
    let remove = Update::RemoveObject(ObjectId(1));
    for batch in [vec![delete.clone()], vec![delete.clone(), remove.clone()]] {
        assert_eq!(engine.apply_batch(&batch).map(|_| ()), occupied);
    }
    let unchanged = (engine.epoch(), engine.store().id_watermark());
    assert_eq!(unchanged, (epoch, watermark));
    assert_eq!(check(&engine, "refused"), before);

    // A removal earlier in the batch makes the deletion legal, also with
    // an object on the P | R wall, which P still hosts.
    let mut fresh = populated();
    let on_wall = explicit(6, 10.0, 0.5, &[10.0]);
    fresh
        .apply_batch(&[on_wall, remove, delete.clone()])
        .unwrap();
    fresh.validate().unwrap();
    let ranking = check(&fresh, "removed first");
    assert_eq!(ranking.len(), 2, "objects 6 and 2; object 3 is unreachable");
    // So does a move into P.
    let into_p = |center: Point2, seed: u64| Update::MoveObject {
        id: ObjectId(1),
        center,
        floor: 0,
        seed,
    };
    engine
        .apply_batch(&[into_p(Point2::new(5.0, 5.0), 7), delete])
        .unwrap();
    engine.validate().unwrap();
    let ranking = check(&engine, "after");
    assert_eq!(ranking.len(), 2, "objects 1 and 2; object 3 is unreachable");

    // An insert into the gap R left is refused.
    let refused = Err(EngineError::Object(ObjectError::NoHostPartition));
    let gap = explicit(4, 12.0, 0.5, &[11.5, 12.5]);
    assert_eq!(engine.apply(gap).map(|_| ()), refused);

    // Standing queries around q stay open across the next writes.
    let service = engine.service();
    let mut subs = [
        service.subscribe(Query::Range { q, r: 6.0 }).unwrap(),
        service.subscribe(Query::Knn { q, k: 1 }).unwrap(),
    ];
    engine.apply(explicit(5, 7.5, 2.0, &[7.0, 8.5])).unwrap();
    assert_standing_exact(&engine, &mut subs, "insert");
    assert!(subs[0].contains(ObjectId(5)));
    engine.apply(into_p(Point2::new(8.0, 5.0), 8)).unwrap();
    assert_standing_exact(&engine, &mut subs, "move");
    engine.apply(Update::RemoveObject(ObjectId(5))).unwrap();
    assert_standing_exact(&engine, &mut subs, "removal");
    assert!(!subs[0].contains(ObjectId(5)));
}

/// Brings every subscription up to date and checks it against a fresh
/// query on the engine's current state: ids for a range, ranked distance
/// bits for a kNN.
fn assert_standing_exact(engine: &IndoorEngine, subs: &mut [Subscription], stage: &str) {
    engine.service().quiesce();
    let (space, index, store) = (engine.space(), engine.index(), engine.store());
    let options = *engine.snapshot().options();
    for sub in subs {
        sub.poll().unwrap();
        match *sub.query() {
            Query::Range { q, r } => {
                let fresh = range_query(space, index, store, q, r, &options).unwrap();
                let fresh: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
                assert_eq!(sub.current(), fresh, "{stage}: r={r}");
            }
            Query::Knn { q, k } => {
                let fresh = knn_query(space, index, store, q, k, &options).unwrap();
                let fresh: Vec<(ObjectId, f64)> = fresh
                    .results
                    .iter()
                    .map(|h| (h.object, h.distance))
                    .collect();
                assert_eq!(bits(sub.ranked().unwrap()), bits(&fresh), "{stage}: k={k}");
            }
            _ => unreachable!("only range and kNN subscriptions"),
        }
    }
}

#[test]
fn query_outside_every_partition_is_a_typed_error() {
    let space = world();
    let store = build_store(&space, &[(15.0, 5.0, 0, vec![(1.0, 1.0)])], 3);
    let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
    let q = IndoorPoint::new(Point2::new(30.0, -20.0), 0);
    let opts = QueryOptions::for_max_radius(6.0);
    let want = QueryError::Distance(DistanceError::QueryOutsideSpace(q));
    for (name, opts) in variants(opts) {
        let err = knn_query(&space, &index, &store, q, 3, &opts).unwrap_err();
        assert_eq!(err, want, "{name}");
        let err = execute_batch(&space, &index, &store, &[Query::Knn { q, k: 3 }], &opts);
        assert_eq!(err.unwrap_err(), want, "{name}: batch");
    }
}
