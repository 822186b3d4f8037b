//! Shard-equivalence suite for the floor-sharded MVCC state.
//!
//! The engine's state is sharded by floor (per-floor `StoreShard`s and
//! o-table `FloorShard`s, `Arc`-per-bucket, `Arc`-per-geometry-tier), and
//! a commit deep-copies only what it touches. This suite pins down both
//! halves of that contract, reusing `tests/concurrency_stress.rs`'s
//! replay harness (bit-exact per-query digests, epoch-by-epoch replay):
//!
//! 1. **Equivalence** — answers from the sharded incremental engine are
//!    bit-identical, at every epoch, to (a) a fresh engine replaying the
//!    same batches and (b) an engine **rebuilt from scratch** over that
//!    epoch's space and population, across multi-floor object batches and
//!    topology batches (door churn, split/merge, and partition insertion
//!    that *resizes the shard set*);
//! 2. **Sharing** — a commit structurally shares every floor shard it did
//!    not touch (verified by `Arc` pointer identity through
//!    `ObjectStore::same_shard` / `ObjectLayer::same_shard` /
//!    `CompositeIndex::shares_geometry_with`), and `UpdateStats`
//!    reports the touched-shard count.

use indoor_dq::geom::Polygon;
use indoor_dq::model::{Floor, PartitionSpec, SplitLine};
use indoor_dq::prelude::*;
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, generate_update_stream,
    GeneratedBuilding, QueryPointConfig, UpdateStreamConfig,
};
use proptest::prelude::*;

const FLOORS: u16 = 3;

fn building() -> GeneratedBuilding {
    generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(FLOORS)
    })
    .unwrap()
}

fn engine(b: &GeneratedBuilding, seed: u64) -> IndoorEngine {
    let store = generate_objects(
        b,
        &ObjectConfig {
            count: 60,
            radius: 6.0,
            instances: 6,
            seed,
        },
    )
    .unwrap();
    IndoorEngine::with_objects(b.space.clone(), store, EngineConfig::default()).unwrap()
}

/// Fixed options for every comparison, sized for the population's
/// radius-10 regions.
fn options() -> QueryOptions {
    QueryOptions::for_max_radius(10.0)
}

fn query_batch(points: &[IndoorPoint]) -> Vec<Query> {
    let mut queries = Vec::new();
    for &q in points {
        queries.push(Query::Range { q, r: 60.0 });
        queries.push(Query::Range { q, r: 120.0 });
        queries.push(Query::Knn { q, k: 5 });
    }
    queries.push(Query::Distance {
        q: points[0],
        p: points[1],
    });
    queries
}

/// A bit-exact digest of one outcome (ids + distance bits) — the same
/// digest the concurrency stress suite replays against.
fn digest(out: &Outcome) -> Vec<(u64, u64)> {
    match out {
        Outcome::Range(r) => r
            .results
            .iter()
            .map(|h| (h.object.0, h.distance.to_bits()))
            .collect(),
        Outcome::Knn(k) => k
            .results
            .iter()
            .map(|h| (h.object.0, h.distance.to_bits()))
            .collect(),
        Outcome::Distance(d) => vec![(u64::MAX, d.distance.to_bits())],
        Outcome::Path(p) => match &p.path {
            None => vec![],
            Some((len, doors)) => std::iter::once((u64::MAX, len.to_bits()))
                .chain(doors.iter().map(|d| (d.0 as u64, 0)))
                .collect(),
        },
    }
}

fn digests(e: &IndoorEngine, queries: &[Query]) -> Vec<Vec<(u64, u64)>> {
    e.snapshot()
        .with_options(options())
        .execute_batch(queries)
        .unwrap()
        .iter()
        .map(digest)
        .collect()
}

/// An engine **rebuilt from scratch** over another engine's current space
/// and population — fresh bulk-loaded index, fresh shards, no history.
fn rebuilt(e: &IndoorEngine) -> IndoorEngine {
    IndoorEngine::with_objects(
        e.space().clone(),
        e.store().clone(),
        EngineConfig::default(),
    )
    .unwrap()
}

/// The core property: advance an engine batch by batch, and at every
/// epoch demand bit-identical answers from (a) a from-scratch **rebuilt**
/// engine over that epoch's world and (b) a fresh engine **replaying**
/// the prefix of batches. Returns the incremental engine for follow-ups.
fn assert_epochwise_equivalence(
    b: &GeneratedBuilding,
    seed: u64,
    batches: &[Vec<Update>],
    queries: &[Query],
) -> IndoorEngine {
    let mut incremental = engine(b, seed);
    let mut trajectory = vec![digests(&incremental, queries)];
    for batch in batches {
        incremental.apply_batch(batch).unwrap();
        incremental.validate().unwrap();
        let seen = digests(&incremental, queries);
        assert_eq!(
            seen,
            digests(&rebuilt(&incremental), queries),
            "sharded engine diverges from a from-scratch rebuild at epoch {}",
            incremental.epoch()
        );
        trajectory.push(seen);
    }
    // Replay on a second fresh engine: every epoch's digests reproduce.
    let mut replay = engine(b, seed);
    assert_eq!(trajectory[0], digests(&replay, queries), "epoch 0");
    for (k, batch) in batches.iter().enumerate() {
        replay.apply_batch(batch).unwrap();
        assert_eq!(
            trajectory[k + 1],
            digests(&replay, queries),
            "replay diverges at epoch {}",
            k + 1
        );
    }
    incremental
}

/// Mixed multi-floor batches (the generator scatters positions across all
/// floors, so batches routinely touch several shards) with door churn.
fn mixed_batches(
    b: &GeneratedBuilding,
    seed: u64,
    count: usize,
    per_batch: usize,
) -> Vec<Vec<Update>> {
    let mut scratch = engine(b, seed);
    let mut out = Vec::new();
    for k in 0..count {
        let stream = generate_update_stream(
            b,
            scratch.store(),
            &UpdateStreamConfig {
                count: per_batch,
                seed: seed ^ 0xD1CE ^ (k as u64) << 8,
                ..Default::default()
            },
        );
        scratch.apply_batch(&stream).unwrap();
        out.push(stream);
    }
    out
}

#[test]
fn sharded_commits_match_rebuilt_engines_at_every_epoch() {
    let b = building();
    let batches = mixed_batches(&b, 5, 6, 30);
    let points = generate_query_points(&b, &QueryPointConfig { count: 3, seed: 77 });
    let queries = query_batch(&points);
    assert_epochwise_equivalence(&b, 5, &batches, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same property over randomized populations and streams.
    #[test]
    fn randomized_streams_stay_equivalent(seed in 1u64..1000) {
        let b = building();
        let batches = mixed_batches(&b, seed, 4, 20);
        let points = generate_query_points(&b, &QueryPointConfig { count: 2, seed });
        let queries = query_batch(&points);
        assert_epochwise_equivalence(&b, seed, &batches, &queries);
    }
}

/// Topology updates that change the partition population — including an
/// insertion on a **brand-new floor**, which grows the shard set — keep
/// the sharded engine equivalent to a rebuilt one.
#[test]
fn topology_ops_that_resize_the_shard_set_stay_equivalent() {
    let b = building();
    let points = generate_query_points(&b, &QueryPointConfig { count: 2, seed: 3 });

    // Split a floor-0 room through its centre, then merge it back — the
    // rebucketing path — and churn a door for good measure.
    let room = b.rooms_by_floor[0][0];
    let center = b.space.partition(room).unwrap().bbox.center();
    let (cx, cy) = (center.x, center.y);
    let door = b.space.doors().next().unwrap().id;
    let split_batch = vec![
        Update::SplitPartition {
            partition: room,
            line: SplitLine::AtX(cx),
            connecting_door: Some(Point2::new(cx, cy)),
        },
        Update::CloseDoor(door),
        Update::OpenDoor(door),
    ];

    // A penthouse on a floor no shard exists for yet (isolated is fine —
    // reachability is a query property, not a topology invariant), plus
    // an object on it in the *same* batch.
    let new_floor = FLOORS;
    let spec = PartitionSpec {
        kind: PartitionKind::Room,
        name: Some("penthouse".into()),
        floor: new_floor,
        footprint: Polygon::from_rect(Rect2::from_bounds(20.0, 20.0, 60.0, 60.0)),
        doors: vec![],
    };
    let penthouse_batch = vec![
        Update::InsertPartition(spec),
        Update::InsertObjectAt {
            center: Point2::new(40.0, 40.0),
            floor: new_floor,
            radius: 2.0,
            instances: 6,
            seed: 99,
        },
    ];

    let mut queries = query_batch(&points);
    let up = IndoorPoint::new(Point2::new(40.0, 40.0), new_floor);
    let mut e = engine(&b, 11);
    let shards_before = e.store().shard_count();
    assert_eq!(shards_before, FLOORS as usize, "one shard per built floor");
    // The split room holds an object, so split and merge both
    // re-footprint occupants.
    let held = b.space.partition(room).unwrap();
    assert!(
        e.store().iter().any(|o| o
            .instances()
            .iter()
            .any(|i| held.contains(i.position, i.floor))),
        "the split room holds an object"
    );

    let commit = |e: &mut IndoorEngine, batch: &[Update]| {
        let report = e.apply_batch(batch).unwrap();
        assert!(report.stats.checkpointed, "topology batches checkpoint");
        e.validate().unwrap();
        assert_eq!(
            digests(e, &queries),
            digests(&rebuilt(e), &queries),
            "topology batch diverges from a rebuild"
        );
        report
    };
    let halves = commit(&mut e, &split_batch).outcomes[0]
        .split_halves()
        .unwrap();
    commit(&mut e, &[Update::MergePartitions(halves[0], halves[1])]);
    commit(&mut e, &penthouse_batch);

    // The shard set grew, and the new floor answers queries.
    assert_eq!(e.store().shard_count(), new_floor as usize + 1);
    assert_eq!(
        e.index().object_layer().shard_count(),
        new_floor as usize + 1
    );
    queries.push(Query::Range { q: up, r: 10.0 });
    let out = e
        .snapshot()
        .with_options(options())
        .execute(&Query::Range { q: up, r: 10.0 })
        .unwrap();
    assert_eq!(out.as_range().unwrap().results.len(), 1, "penthouse object");
    assert_eq!(
        digests(&e, &queries),
        digests(&rebuilt(&e), &queries),
        "grown shard set still equivalent"
    );
}

/// The sharing half of the contract: a commit deep-copies exactly the
/// floor shards its updates land in; everything else — other floors,
/// untouched buckets, the whole geometry — is pointer-identical across
/// versions. (This is what turned the PR 4 whole-state copy-on-write tax
/// into O(touched).)
#[test]
fn commits_copy_only_the_shards_they_touch() {
    let b = building();
    let mut e = engine(&b, 21);
    let on_floor = |e: &IndoorEngine, f: Floor| -> ObjectId {
        e.store()
            .shard(f)
            .unwrap()
            .iter()
            .map(|o| o.id)
            .min()
            .expect("every floor is populated")
    };

    // One insert on floor 1: floors 0 and 2 stay structurally shared.
    let before = e.snapshot();
    let report = e
        .apply_batch(&[Update::InsertObjectAt {
            center: Point2::new(40.0, 40.0),
            floor: 1,
            radius: 2.0,
            instances: 4,
            seed: 7,
        }])
        .unwrap();
    let after = e.snapshot();
    assert_eq!(report.stats.shards_touched, 1);
    assert!(!report.stats.checkpointed);
    for f in 0..FLOORS {
        let (same_store, same_layer) = (
            before.store().same_shard(after.store(), f),
            before
                .index()
                .object_layer()
                .same_shard(after.index().object_layer(), f),
        );
        assert_eq!(same_store, f != 1, "store shard {f}");
        assert_eq!(same_layer, f != 1, "o-table shard {f}");
    }
    assert!(
        before.index().shares_geometry_with(after.index()),
        "object commits never copy the geometry tiers"
    );

    // A cross-floor move touches exactly its two shards.
    let mover = on_floor(&e, 0);
    let before = e.snapshot();
    let report = e
        .apply_batch(&[Update::MoveObject {
            id: mover,
            center: Point2::new(40.0, 40.0),
            floor: 2,
            seed: 9,
        }])
        .unwrap();
    let after = e.snapshot();
    assert_eq!(report.stats.shards_touched, 2);
    assert!(before.store().same_shard(after.store(), 1));
    assert!(!before.store().same_shard(after.store(), 0));
    assert!(!before.store().same_shard(after.store(), 2));
    assert!(before.index().shares_geometry_with(after.index()));

    // A topology commit is the documented degradation: the geometry tiers
    // are copied, but floors whose objects it never re-bucketed are still
    // shared.
    let door = e.space().doors().next().unwrap().id;
    let before = e.snapshot();
    let report = e.apply_batch(&[Update::CloseDoor(door)]).unwrap();
    let after = e.snapshot();
    assert!(report.stats.checkpointed);
    assert_eq!(report.stats.shards_touched, 0, "no object op in the batch");
    assert!(
        !before.index().shares_geometry_with(after.index()),
        "topology commits copy the geometry"
    );
    for f in 0..FLOORS {
        assert!(
            before.store().same_shard(after.store(), f),
            "door churn leaves every store shard shared"
        );
    }

    // Pinned snapshots keep answering their own version bit-identically
    // while the writer moves on (the MVCC contract the sharding must not
    // bend): pin the post-close world, commit more, re-ask.
    let q = IndoorPoint::new(Point2::new(40.0, 40.0), 2);
    let pinned = digest(&after.execute(&Query::Range { q, r: 80.0 }).unwrap());
    e.apply_batch(&[
        Update::MoveObject {
            id: mover,
            center: Point2::new(40.0, 40.0),
            floor: 0,
            seed: 13,
        },
        Update::RemoveObject(on_floor(&e, 1)),
    ])
    .unwrap();
    assert_eq!(
        pinned,
        digest(&after.execute(&Query::Range { q, r: 80.0 }).unwrap()),
        "pinned snapshot drifted under later shard commits"
    );
}
