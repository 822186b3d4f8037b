//! Batch-update semantics (PR 3's write-side contract):
//!
//! 1. **Sequential equivalence** — `apply_batch` leaves the engine in a
//!    state query-equivalent (and object-for-object identical) to applying
//!    the same updates one at a time through `apply`;
//! 2. **Atomicity** — a batch failing mid-way leaves the engine in the
//!    exact observable state it had before the batch (objects, instances,
//!    topology version, epoch, id watermark, query answers);
//! 3. **Monitor absorption** — feeding a committed report to
//!    `RangeMonitor::absorb` matches a from-scratch `refresh`.

use indoor_dq::prelude::*;
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, generate_update_stream,
    QueryPointConfig,
};

fn world(seed: u64) -> (indoor_dq::workloads::GeneratedBuilding, IndoorEngine) {
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
            seed,
        },
    )
    .unwrap();
    let engine =
        IndoorEngine::with_objects(building.space.clone(), store, EngineConfig::default()).unwrap();
    (building, engine)
}

/// One object's exact state: id, centre, radius, floor, instances.
type ObjectDigest = (u64, (f64, f64), f64, u16, Vec<(f64, f64, f64)>);

/// Full observable digest of an engine: every object's exact state plus
/// the space version, epoch and allocator watermark.
#[derive(Debug, PartialEq)]
struct Digest {
    objects: Vec<ObjectDigest>,
    space_version: u64,
    epoch: u64,
    watermark: u64,
    doors_open: Vec<(u32, bool)>,
}

fn digest(engine: &IndoorEngine) -> Digest {
    let objects = engine
        .store()
        .ids_sorted()
        .into_iter()
        .map(|id| {
            let o = engine.store().get(id).unwrap();
            (
                id.0,
                (o.region.center.x, o.region.center.y),
                o.region.radius,
                o.floor,
                o.instances()
                    .iter()
                    .map(|i| (i.position.x, i.position.y, i.weight))
                    .collect(),
            )
        })
        .collect();
    let doors_open = engine.space().doors().map(|d| (d.id.0, d.open)).collect();
    Digest {
        objects,
        space_version: engine.space().version(),
        epoch: engine.epoch(),
        watermark: engine.store().id_watermark(),
        doors_open,
    }
}

fn assert_query_equivalent(a: &IndoorEngine, b: &IndoorEngine, queries: &[IndoorPoint]) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    for &q in queries {
        if a.space().partition_at(q).is_none() {
            continue;
        }
        let range = Query::Range { q, r: 80.0 };
        let (ra, rb) = (
            sa.execute(&range).unwrap().into_range().unwrap(),
            sb.execute(&range).unwrap().into_range().unwrap(),
        );
        let ids = |r: &RangeResult| r.results.iter().map(|h| h.object).collect::<Vec<_>>();
        assert_eq!(ids(&ra), ids(&rb), "range parity at q={q}");
        let knn = Query::Knn { q, k: 10 };
        let (ka, kb) = (
            sa.execute(&knn).unwrap().into_knn().unwrap(),
            sb.execute(&knn).unwrap().into_knn().unwrap(),
        );
        assert_eq!(ka.results.len(), kb.results.len(), "knn parity at q={q}");
        for (x, y) in ka.results.iter().zip(&kb.results) {
            assert_eq!(x.object, y.object);
            assert!((x.distance - y.distance).abs() < 1e-9);
        }
    }
}

#[test]
fn apply_batch_is_query_equivalent_to_sequential_apply() {
    for seed in [1u64, 7, 23] {
        let (building, mut seq) = world(seed);
        let (_, mut bat) = world(seed);
        let stream = generate_update_stream(
            &building,
            seq.store(),
            &indoor_dq::workloads::UpdateStreamConfig {
                count: 160,
                seed: seed ^ 0xA5,
                ..Default::default()
            },
        );
        for update in &stream {
            seq.apply(update.clone()).unwrap();
        }
        // Mixed chunk sizes so runs straddle chunk boundaries.
        for chunk in stream.chunks(37) {
            bat.apply_batch(chunk).unwrap();
        }
        seq.validate().unwrap();
        bat.validate().unwrap();
        // Identical objects — ids, regions, every instance, every weight.
        let (da, db) = (digest(&seq), digest(&bat));
        assert_eq!(da.objects, db.objects, "object parity at seed {seed}");
        assert_eq!(da.space_version, db.space_version);
        assert_eq!(da.watermark, db.watermark);
        assert_eq!(da.doors_open, db.doors_open);
        // Identical answers.
        let queries = generate_query_points(&building, &QueryPointConfig { count: 5, seed: 99 });
        assert_query_equivalent(&seq, &bat, &queries);
    }
}

#[test]
fn failed_batch_restores_the_exact_observable_state() {
    for seed in [3u64, 11] {
        let (building, mut engine) = world(seed);
        let queries = generate_query_points(&building, &QueryPointConfig { count: 4, seed: 5 });
        let (_, reference) = world(seed);

        // A realistic prefix (moves + a door event) followed by a failing
        // update; every prefix length must roll back completely.
        let mut stream = generate_update_stream(
            &building,
            engine.store(),
            &indoor_dq::workloads::UpdateStreamConfig {
                count: 30,
                seed: seed ^ 0x1D,
                ..Default::default()
            },
        );
        stream.push(Update::RemoveObject(ObjectId(999_999)));
        let before = digest(&engine);
        assert!(engine.apply_batch(&stream).is_err());
        engine.validate().unwrap();
        assert_eq!(digest(&engine), before, "exact rollback at seed {seed}");
        assert_query_equivalent(&engine, &reference, &queries);

        // Failing mid-way through a pure object batch (no checkpoint
        // path): same contract.
        let mut stream = generate_update_stream(
            &building,
            engine.store(),
            &indoor_dq::workloads::UpdateStreamConfig {
                count: 12,
                door_events: 0.0,
                seed: seed ^ 0x2E,
                ..Default::default()
            },
        );
        stream.insert(
            6,
            Update::MoveObject {
                id: ObjectId(0),
                center: Point2::new(-1e6, -1e6),
                floor: 0,
                seed: 1,
            },
        );
        let before = digest(&engine);
        assert!(engine.apply_batch(&stream).is_err());
        engine.validate().unwrap();
        assert_eq!(
            digest(&engine),
            before,
            "object-only rollback at seed {seed}"
        );
    }
}

#[test]
fn monitor_absorb_matches_from_scratch_refresh() {
    let (building, mut engine) = world(17);
    let queries = generate_query_points(&building, &QueryPointConfig { count: 3, seed: 41 });
    let q = queries[0];
    let mut absorbed = RangeMonitor::new(q, 70.0, *engine.snapshot().options()).unwrap();
    absorbed.refresh_on(&engine.snapshot()).unwrap();

    // Several mixed batches (object churn + door events); after each, the
    // absorbed monitor must match a monitor refreshed from scratch.
    for round in 0..4u64 {
        let stream = generate_update_stream(
            &building,
            engine.store(),
            &indoor_dq::workloads::UpdateStreamConfig {
                count: 40,
                seed: round ^ 0xBEE,
                ..Default::default()
            },
        );
        let report = engine.apply_batch(&stream).unwrap();
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.version(), report.epoch);
        let changes = absorbed.absorb(&report, &snapshot).unwrap();
        for (id, change) in &changes {
            match change {
                MonitorChange::Entered => assert!(absorbed.contains(*id)),
                MonitorChange::Left => assert!(!absorbed.contains(*id)),
                MonitorChange::Unchanged => unreachable!("absorb reports changes only"),
            }
        }
        let mut fresh = RangeMonitor::new(q, 70.0, *snapshot.options()).unwrap();
        let expect = fresh.refresh_on(&snapshot).unwrap();
        assert_eq!(absorbed.current(), expect, "round {round}");
    }
}

#[test]
fn report_delta_names_exactly_the_net_changes() {
    let (_, mut engine) = world(29);
    let ids = engine.store().ids_sorted();
    let (a, b) = (ids[0], ids[1]);
    let report = engine
        .apply_batch(&[
            Update::MoveObject {
                id: a,
                center: Point2::new(50.0, 50.0),
                floor: 0,
                seed: 1,
            },
            Update::RemoveObject(b),
            Update::InsertObjectAt {
                center: Point2::new(80.0, 50.0),
                floor: 0,
                radius: 2.0,
                instances: 4,
                seed: 2,
            },
        ])
        .unwrap();
    assert_eq!(report.delta.moved, vec![a]);
    assert_eq!(report.delta.removed, vec![b]);
    assert_eq!(report.delta.inserted.len(), 1);
    assert!(!report.delta.topology_changed);
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(report.stats.position_updates, 3);
    assert!(!report.stats.checkpointed);
}

#[test]
fn first_failing_update_names_the_batch_error() {
    // Updates are staged one at a time in input order, so a batch reports
    // the error of its first failing update, whatever follows it.
    let (building, _) = world(41);
    let mut engine = IndoorEngine::new(building.space.clone(), EngineConfig::default()).unwrap();
    let room = building.rooms_by_floor[0][0];
    let rect = engine
        .space()
        .partition(room)
        .unwrap()
        .footprint
        .as_rect()
        .unwrap();
    let inside = rect.center();
    let outside = Point2::new(-50.0, -50.0);
    let uncovered = UncertainObject::with_uniform_weights(
        ObjectId(7),
        Circle::new(inside, 2.0),
        0,
        vec![inside, outside],
    )
    .unwrap();
    let err = engine
        .apply_batch(&[
            Update::InsertObject(Box::new(uncovered)),
            Update::RemoveObject(ObjectId(999_999)),
        ])
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::Object(indoor_dq::objects::ObjectError::NoHostPartition)
    );
    assert_eq!(engine.epoch(), 0);
    assert!(engine.store().is_empty());
    engine.validate().unwrap();
}
