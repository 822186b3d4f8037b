//! In-crate behaviour tests for the history ring: bit-identical
//! reconstruction, typed eviction, trajectory and co-movement answers,
//! and the attach contract.

use idq_core::{EngineConfig, IndoorEngine, Update};
use idq_geom::{OrdF64, Point2};
use idq_history::{HistoryError, HistoryOptions, HistoryQuery, HistoryRecorder, TrajectorySpan};
use idq_model::{Floor, IndoorPoint};
use idq_objects::ObjectId;
use idq_query::Query;
use idq_workloads::{
    generate_building, generate_objects, BuildingConfig, GeneratedBuilding, ObjectConfig,
};

fn building() -> GeneratedBuilding {
    generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap()
}

fn engine(b: &GeneratedBuilding, count: usize, seed: u64) -> IndoorEngine {
    let store = generate_objects(
        b,
        &ObjectConfig {
            count,
            radius: 5.0,
            instances: 4,
            seed,
        },
    )
    .unwrap();
    IndoorEngine::with_objects(b.space.clone(), store, EngineConfig::default()).unwrap()
}

fn room_center(b: &GeneratedBuilding, floor: Floor, i: usize) -> Point2 {
    let rooms = &b.rooms_by_floor[floor as usize];
    b.space
        .partition(rooms[i % rooms.len()])
        .unwrap()
        .bbox
        .center()
}

fn move_to_room(b: &GeneratedBuilding, id: u64, floor: Floor, room: usize, seed: u64) -> Update {
    Update::MoveObject {
        id: ObjectId(id),
        center: room_center(b, floor, room),
        floor,
        seed,
    }
}

#[test]
fn reconstruction_is_bit_identical_to_live_snapshots() {
    let b = building();
    let mut engine = engine(&b, 40, 7);
    let recorder = HistoryRecorder::attach(
        &engine,
        HistoryOptions {
            keyframe_every: 4,
            ..HistoryOptions::default()
        },
    )
    .unwrap();

    // Commit a scripted stream, pinning the live snapshot after each
    // epoch as ground truth.
    let mut live = vec![engine.snapshot()];
    for step in 0..20u64 {
        let mut batch = vec![
            move_to_room(&b, step % 40, (step % 2) as Floor, step as usize, step),
            move_to_room(&b, (step + 11) % 40, 0, step as usize + 1, step ^ 7),
        ];
        if step % 5 == 0 {
            batch.push(Update::InsertObjectAt {
                center: room_center(&b, 1, step as usize),
                floor: 1,
                radius: 4.0,
                instances: 3,
                seed: step,
            });
        }
        if step % 7 == 3 {
            batch.push(Update::RemoveObject(ObjectId(step % 40)));
        }
        engine.apply_batch(&batch).unwrap();
        live.push(engine.snapshot());
    }

    recorder.sync();
    let session = recorder.session();
    assert_eq!(session.newest(), live.last().unwrap().version());
    for pinned in &live {
        let rebuilt = session.reconstruct(pinned.version()).unwrap();
        assert_eq!(rebuilt.version(), pinned.version());
        assert_eq!(
            rebuilt.encode_checkpoint(),
            pinned.encode_checkpoint(),
            "epoch {} reconstruction differs from the live version",
            pinned.version()
        );
    }
}

#[test]
fn eviction_is_typed_and_bounded() {
    let b = building();
    let mut engine = engine(&b, 20, 3);
    let recorder = HistoryRecorder::attach(
        &engine,
        HistoryOptions {
            max_epochs: 8,
            keyframe_every: 4,
            ..HistoryOptions::default()
        },
    )
    .unwrap();

    for step in 0..40u64 {
        engine
            .apply_batch(&[move_to_room(&b, step % 20, 0, step as usize, step)])
            .unwrap();
    }
    recorder.sync();
    let stats = recorder.stats();
    assert!(stats.evicted_epochs > 0, "40 epochs must overflow 8");
    assert!(
        stats.retained_epochs <= 8 + 3,
        "keyframe-group eviction may overshoot by at most keyframe_every - 1, got {}",
        stats.retained_epochs
    );
    assert!(stats.oldest > 0);

    let session = recorder.session();
    // Touching an evicted epoch fails typed, with the clamp hint.
    let err = session.reconstruct(0).unwrap_err();
    assert_eq!(
        err,
        HistoryError::Evicted {
            requested: 0,
            oldest_retained: session.oldest()
        }
    );
    let err = session
        .trajectory(ObjectId(1), 0, session.newest())
        .unwrap_err();
    assert!(matches!(err, HistoryError::Evicted { requested: 0, .. }));
    // The surviving window still answers.
    session.reconstruct(session.oldest()).unwrap();
    session.reconstruct(session.newest()).unwrap();
}

#[test]
fn window_validation_is_typed() {
    let b = building();
    let mut engine = engine(&b, 10, 1);
    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();
    engine.apply_batch(&[move_to_room(&b, 0, 0, 1, 9)]).unwrap();
    recorder.sync();
    let session = recorder.session();
    let newest = session.newest();
    assert_eq!(
        session.trajectory(ObjectId(0), 5, 2).unwrap_err(),
        HistoryError::EmptyWindow { from: 5, to: 2 }
    );
    assert_eq!(
        session.reconstruct(newest + 3).unwrap_err(),
        HistoryError::FutureEpoch {
            requested: newest + 3,
            newest
        }
    );
}

#[test]
fn at_most_one_recorder_per_engine() {
    let b = building();
    let engine = engine(&b, 5, 2);
    let _first = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();
    match HistoryRecorder::attach(&engine, HistoryOptions::default()) {
        Err(HistoryError::AlreadyAttached) => {}
        other => panic!("expected AlreadyAttached, got {other:?}"),
    }
}

#[test]
fn trajectory_reports_scripted_moves() {
    let b = building();
    let mut engine = engine(&b, 6, 11);
    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();

    // Object 0 visits rooms 0, 1, 2 for 3 epochs each (other objects
    // churn so epochs advance even when object 0 rests).
    for step in 0..9u64 {
        let mut batch = vec![move_to_room(&b, 5, 1, step as usize, step)];
        if step % 3 == 0 {
            batch.push(move_to_room(&b, 0, 0, (step / 3) as usize, 100 + step));
        }
        engine.apply_batch(&batch).unwrap();
    }
    recorder.sync();
    let session = recorder.session();
    let spans = session
        .trajectory(ObjectId(0), 1, session.newest())
        .unwrap();
    assert_eq!(spans.len(), 3, "three resting legs, got {spans:?}");
    let expect_rooms: Vec<Point2> = (0..3).map(|i| room_center(&b, 0, i)).collect();
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(span.floor, 0);
        assert_eq!(span.position, expect_rooms[i], "leg {i}");
        assert_eq!(span.from_epoch, (i as u64 * 3 + 1).max(1), "leg {i} start");
        assert!(span.partition.is_some());
    }
    // Legs tile the window.
    for w in spans.windows(2) {
        assert_eq!(w[0].to_epoch + 1, w[1].from_epoch);
    }
    assert_eq!(spans.last().unwrap().to_epoch, session.newest());

    // A never-present object yields no spans.
    assert!(session
        .trajectory(ObjectId(999), 1, session.newest())
        .unwrap()
        .is_empty());
}

#[test]
fn together_finds_co_movers() {
    let b = building();
    let mut engine = engine(&b, 8, 13);
    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();

    // Objects 0 and 1 tour rooms together; object 2 tours in antiphase;
    // the rest sit still wherever the generator put them.
    for step in 0..12u64 {
        let room = (step / 3) as usize;
        engine
            .apply_batch(&[
                move_to_room(&b, 0, 0, room, step),
                move_to_room(&b, 1, 0, room, step ^ 21),
                move_to_room(&b, 2, 0, room + 3, step ^ 42),
            ])
            .unwrap();
    }
    recorder.sync();
    let session = recorder.session();
    let window = (1, session.newest());
    let companions = session
        .together(ObjectId(0), window.0, window.1, 6)
        .unwrap();
    assert!(
        companions.iter().any(|c| c.object == ObjectId(1)),
        "object 1 toured with object 0: {companions:?}"
    );
    let one = companions.iter().find(|c| c.object == ObjectId(1)).unwrap();
    assert!(
        one.shared_epochs >= 10,
        "co-toured nearly the whole window, got {}",
        one.shared_epochs
    );
    assert!(
        !companions.iter().any(|c| c.object == ObjectId(2)),
        "object 2 toured in antiphase: {companions:?}"
    );

    // The outcome enum routes to the same answer.
    let via_enum = session
        .execute(&HistoryQuery::Together {
            object: ObjectId(0),
            from: window.0,
            to: window.1,
            min_shared: 6,
        })
        .unwrap();
    match via_enum {
        idq_history::HistoryOutcome::Companions(c) => assert_eq!(c, companions),
        other => panic!("wrong outcome variant: {other:?}"),
    }
}

#[test]
fn spans_survive_topology_keyframes() {
    let b = building();
    let mut engine = engine(&b, 6, 17);
    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();

    engine.apply_batch(&[move_to_room(&b, 0, 0, 0, 1)]).unwrap();
    let door = b
        .space
        .doors()
        .next()
        .expect("generated buildings have doors")
        .id;
    engine.apply_batch(&[Update::CloseDoor(door)]).unwrap();
    engine.apply_batch(&[move_to_room(&b, 1, 0, 2, 2)]).unwrap();
    engine.apply_batch(&[Update::OpenDoor(door)]).unwrap();
    recorder.sync();

    let session = recorder.session();
    // Reconstruction works on both sides of the forced keyframes.
    for e in session.oldest()..=session.newest() {
        session.reconstruct(e).unwrap();
    }
    // Object 0's leg in room 0 spans the topology change unbroken in
    // time (tracks are closed and reopened at the keyframe, and the
    // spans tile).
    let spans: Vec<TrajectorySpan> = session
        .trajectory(ObjectId(0), 1, session.newest())
        .unwrap();
    assert_eq!(spans.first().unwrap().from_epoch, 1);
    assert_eq!(spans.last().unwrap().to_epoch, session.newest());
    for w in spans.windows(2) {
        assert_eq!(w[0].to_epoch + 1, w[1].from_epoch, "gap in {spans:?}");
    }
}

#[test]
fn range_membership_spans_a_wide_insert() {
    // Radius-5 objects under the default options, then a radius-15
    // object wider than the default slack was sized for arrives inside
    // the window: the standing monitor walked across the deltas must
    // agree with a fresh query on every reconstructed epoch.
    let b = building();
    let mut engine = engine(&b, 30, 11);
    let recorder = HistoryRecorder::attach(
        &engine,
        HistoryOptions {
            keyframe_every: 64,
            ..HistoryOptions::default()
        },
    )
    .unwrap();
    let mut wide = None;
    for step in 0..8u64 {
        let mut batch = vec![move_to_room(&b, step % 30, 0, step as usize, step)];
        if step == 3 {
            batch.push(Update::InsertObjectAt {
                center: room_center(&b, 0, 0),
                floor: 0,
                radius: 15.0,
                instances: 6,
                seed: 99,
            });
        }
        let report = engine.apply_batch(&batch).unwrap();
        wide = wide.or(report.outcomes.iter().find_map(|o| o.inserted_object()));
    }
    recorder.sync();
    let wide = wide.expect("the wide insert allocated an id");

    let session = recorder.session();
    let q = IndoorPoint::new(room_center(&b, 0, 0), 0);
    let r = 40.0;
    let membership = session.range_membership(q, r, 1, session.newest()).unwrap();
    assert_eq!(membership.len(), 8);
    for (epoch, members) in &membership {
        let fresh = session
            .reconstruct(*epoch)
            .unwrap()
            .execute(&Query::Range { q, r })
            .unwrap()
            .into_range()
            .unwrap();
        let mut fresh: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
        fresh.sort_unstable();
        assert_eq!(members, &fresh, "epoch {epoch}");
    }
    assert!(
        membership.iter().any(|(_, m)| m.contains(&wide)),
        "the wide object enters the window's answers"
    );
}

#[test]
fn range_membership_prefilter_decides_window_edges() {
    // Three objects live in room 0 of floor 0; the query rect sits on the
    // floor-0 room farthest from it. Only object `walker` ever reaches
    // that rect, and only at the newest epoch, so its one segment there
    // is the open track the session closes at `newest + 1`.
    let b = building();
    let mut engine = IndoorEngine::new(b.space.clone(), EngineConfig::default()).unwrap();
    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();
    let home = room_center(&b, 0, 0);
    let far = (0..b.rooms_by_floor[0].len())
        .max_by_key(|&i| OrdF64(room_center(&b, 0, i).dist(home)))
        .unwrap();
    let q = IndoorPoint::new(room_center(&b, 0, far), 0);
    let r = 3.0;
    assert!(q.point.dist(home) > 4.0 * r, "the rooms are far apart");

    let report = engine
        .apply_batch(
            &(0..3u64)
                .map(|seed| Update::InsertObjectAt {
                    center: home,
                    floor: 0,
                    radius: 2.0,
                    instances: 3,
                    seed,
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
    let ids: Vec<ObjectId> = report
        .outcomes
        .iter()
        .filter_map(|o| o.inserted_object())
        .collect();
    for step in 0..4u64 {
        let id = ids[step as usize % ids.len()];
        engine
            .apply_batch(&[move_to_room(&b, id.0, 0, 0, 10 + step)])
            .unwrap();
    }
    let walker = ids[0];
    engine
        .apply_batch(&[move_to_room(&b, walker.0, 0, far, 20)])
        .unwrap();
    recorder.sync();
    let session = recorder.session();
    let newest = session.newest();

    let fresh = |epoch: u64| -> Vec<ObjectId> {
        let out = session
            .reconstruct(epoch)
            .unwrap()
            .execute(&Query::Range { q, r })
            .unwrap()
            .into_range()
            .unwrap();
        let mut ids: Vec<ObjectId> = out.results.iter().map(|h| h.object).collect();
        ids.sort_unstable();
        ids
    };

    // Before the last epoch no segment meets the rect: every epoch's
    // membership is empty, as a fresh query on the reconstruction says.
    let before = session.range_membership(q, r, 0, newest - 1).unwrap();
    assert_eq!(before.len() as u64, newest);
    for (epoch, members) in &before {
        assert!(members.is_empty(), "epoch {epoch}: {members:?}");
        assert_eq!(members, &fresh(*epoch), "epoch {epoch}");
    }

    // Windows ending at the newest epoch see the walker arrive there and
    // only there, including the one-epoch window.
    for from in [0, newest] {
        let membership = session.range_membership(q, r, from, newest).unwrap();
        assert_eq!(membership.len() as u64, newest - from + 1);
        for (epoch, members) in &membership {
            assert_eq!(members, &fresh(*epoch), "window from {from}, epoch {epoch}");
        }
        assert_eq!(
            membership.last().unwrap(),
            &(newest, vec![walker]),
            "window from {from}"
        );
    }
}
