//! Deterministic interleaving tests for the sequencer's conflict window.
//!
//! The dangerous interval in the parallel write path is between a batch's
//! **stage** (validated against the version it read) and its **sequencing**
//! (ordered against whatever committed meanwhile). `WriteHandle`'s
//! test-support `apply_batch_gated` hook parks a batch exactly in that
//! window, so each test here pins one adversarial schedule — the
//! hand-rolled equivalent of a model-checked interleaving — and asserts
//! the sequencer's answer matches a serial execution in commit order.

use indoor_dq::model::Floor;
use indoor_dq::objects::ObjectError;
use indoor_dq::prelude::*;
use indoor_dq::workloads::{generate_building, generate_objects, GeneratedBuilding};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::mpsc;

fn building() -> GeneratedBuilding {
    generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(3)
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

fn room_center(b: &GeneratedBuilding, floor: Floor, i: usize) -> Point2 {
    let rooms = &b.rooms_by_floor[floor as usize];
    b.space
        .partition(rooms[i % rooms.len()])
        .unwrap()
        .bbox
        .center()
}

fn floor_ids(e: &IndoorEngine, floor: Floor) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = e
        .store()
        .shard(floor)
        .unwrap()
        .iter()
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

fn assert_same_objects(a: &IndoorEngine, b: &IndoorEngine) {
    assert_eq!(a.store().ids_sorted(), b.store().ids_sorted());
    for id in a.store().ids_sorted() {
        let (x, y) = (a.store().get(id).unwrap(), b.store().get(id).unwrap());
        assert_eq!(x.region.center, y.region.center, "object {id}");
        assert_eq!(x.floor, y.floor, "object {id}");
        assert_eq!(x.len(), y.len(), "object {id}");
    }
}

/// Stages `batch` on a separate thread, parks it in the stage/sequence
/// window, runs `interfere` on this thread while it is parked, then lets
/// the batch proceed into the sequencer and returns its result.
fn stage_then(
    writer: WriteHandle,
    batch: Vec<Update>,
    interfere: impl FnOnce(),
) -> Result<UpdateReport, EngineError> {
    let (staged_tx, staged_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let parked = std::thread::spawn(move || {
        writer.apply_batch_gated(&batch, move || {
            staged_tx.send(()).unwrap();
            go_rx.recv().unwrap();
        })
    });
    staged_rx.recv().unwrap();
    interfere();
    go_tx.send(()).unwrap();
    parked.join().unwrap()
}

/// Stages every batch in its own thread, releases none until all are
/// parked in the conflict window, then lets them all race to sequence.
fn race_all(
    writers: Vec<WriteHandle>,
    batches: Vec<Vec<Update>>,
) -> Vec<Result<UpdateReport, EngineError>> {
    let (staged_tx, staged_rx) = mpsc::channel();
    let mut gates = Vec::new();
    let threads: Vec<_> = writers
        .into_iter()
        .zip(batches)
        .map(|(writer, batch)| {
            let staged_tx = staged_tx.clone();
            let (go_tx, go_rx) = mpsc::channel::<()>();
            gates.push(go_tx);
            std::thread::spawn(move || {
                writer.apply_batch_gated(&batch, move || {
                    staged_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                })
            })
        })
        .collect();
    for _ in 0..threads.len() {
        staged_rx.recv().unwrap();
    }
    for gate in gates {
        gate.send(()).unwrap();
    }
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

/// A commit on the same floor lands inside the window, but it writes a
/// different object: everything the parked batch read is unchanged, so
/// its staged ops apply as they are, and the result still equals the
/// serial schedule B-then-A.
#[test]
fn same_floor_disjoint_ids_keep_the_fast_path() {
    let b = building();
    let mut e = engine(&b, 31);
    let ids = floor_ids(&e, 0);
    let (x, y) = (ids[0], ids[1]);
    let batch_a = vec![Update::MoveObject {
        id: x,
        center: room_center(&b, 0, 1),
        floor: 0,
        seed: 71,
    }];
    let batch_b = vec![Update::MoveObject {
        id: y,
        center: room_center(&b, 0, 2),
        floor: 0,
        seed: 72,
    }];

    let writer_b = e.writer();
    let report = stage_then(e.writer(), batch_a.clone(), || {
        writer_b.apply_batch(&batch_b).unwrap();
    })
    .unwrap();
    assert!(
        !report.stats.restaged,
        "a same-floor commit of another object leaves the read set intact"
    );
    e.refresh();
    assert_eq!(e.epoch(), 2);

    let mut serial = engine(&b, 31);
    serial.apply_batch(&batch_b).unwrap();
    serial.apply_batch(&batch_a).unwrap();
    assert_same_objects(&e, &serial);
    e.validate().unwrap();
}

/// The parked batch moves an object that a commit inside the window
/// moves to another floor: the entry staging read is gone, so the batch
/// re-stages (now leaving the new floor) and ends as the serial schedule
/// B-then-A.
#[test]
fn cross_floor_move_of_the_same_object_in_window_forces_restage() {
    let b = building();
    let mut e = engine(&b, 36);
    let x = floor_ids(&e, 0)[0];
    let batch_a = vec![Update::MoveObject {
        id: x,
        center: room_center(&b, 0, 2),
        floor: 0,
        seed: 73,
    }];
    let batch_b = vec![Update::MoveObject {
        id: x,
        center: room_center(&b, 1, 1),
        floor: 1,
        seed: 74,
    }];

    let writer_b = e.writer();
    let report = stage_then(e.writer(), batch_a.clone(), || {
        writer_b.apply_batch(&batch_b).unwrap();
    })
    .unwrap();
    assert!(
        report.stats.restaged,
        "a commit that moved the same object must force a re-stage"
    );
    e.refresh();
    assert_eq!(e.store().get(x).unwrap().floor, 0);

    let mut serial = engine(&b, 36);
    serial.apply_batch(&batch_b).unwrap();
    serial.apply_batch(&batch_a).unwrap();
    assert_same_objects(&e, &serial);
    e.validate().unwrap();
}

/// Inside the window the object moves away and back to a state identical
/// to the one staging read. Validity is entry identity, not equal
/// content: the entry is new, so the parked batch re-stages.
#[test]
fn move_away_and_back_in_window_forces_restage() {
    let b = building();
    let mut e = engine(&b, 37);
    let x = floor_ids(&e, 0)[0];
    let home = Update::MoveObject {
        id: x,
        center: room_center(&b, 0, 1),
        floor: 0,
        seed: 80,
    };
    let away = Update::MoveObject {
        id: x,
        center: room_center(&b, 1, 2),
        floor: 1,
        seed: 81,
    };
    let batch_a = vec![Update::MoveObject {
        id: x,
        center: room_center(&b, 0, 2),
        floor: 0,
        seed: 82,
    }];
    e.apply(home.clone()).unwrap();
    let staged_state = e.store().get(x).unwrap().clone();

    let writer_b = e.writer();
    let service = e.service();
    let report = stage_then(e.writer(), batch_a.clone(), || {
        writer_b.apply(away.clone()).unwrap();
        writer_b.apply(home.clone()).unwrap();
        let back = service.snapshot().store().get(x).unwrap().clone();
        assert_eq!(back.floor, staged_state.floor);
        assert_eq!(back.region.center, staged_state.region.center);
        assert_eq!(
            back.instances(),
            staged_state.instances(),
            "the object is back in the exact state the parked batch read"
        );
    })
    .unwrap();
    assert!(
        report.stats.restaged,
        "equal content under a new entry must still force a re-stage"
    );
    e.refresh();

    let mut serial = engine(&b, 37);
    for update in [home.clone(), away, home] {
        serial.apply(update).unwrap();
    }
    serial.apply_batch(&batch_a).unwrap();
    assert_same_objects(&e, &serial);
    e.validate().unwrap();
}

/// An allocating insert is parked while an external insert with a high
/// id commits: the watermark moved, so the parked batch re-stages and
/// mints past the external id, exactly as the serial schedule B-then-A.
#[test]
fn allocating_insert_mints_past_an_external_id_committed_in_window() {
    let b = building();
    let mut e = engine(&b, 38);
    let external = ObjectId(e.store().id_watermark() + 1_000);
    let batch_a = vec![Update::InsertObjectAt {
        center: room_center(&b, 0, 1),
        floor: 0,
        radius: 2.0,
        instances: 4,
        seed: 91,
    }];
    let batch_b = vec![Update::InsertObject(Box::new(
        UncertainObject::point_object(external, IndoorPoint::new(room_center(&b, 2, 0), 2)),
    ))];

    let writer_b = e.writer();
    let report = stage_then(e.writer(), batch_a.clone(), || {
        writer_b.apply_batch(&batch_b).unwrap();
    })
    .unwrap();
    assert!(
        report.stats.restaged,
        "a watermark move under an allocating batch must force a re-stage"
    );
    assert_eq!(
        report.outcomes,
        vec![UpdateOutcome::ObjectInserted(ObjectId(external.0 + 1))],
        "the parked insert mints past the external id"
    );
    e.refresh();

    let mut serial = engine(&b, 38);
    serial.apply_batch(&batch_b).unwrap();
    serial.apply_batch(&batch_a).unwrap();
    assert_same_objects(&e, &serial);
    assert_eq!(e.store().id_watermark(), serial.store().id_watermark());
    e.validate().unwrap();
}

/// Two writers race the same external id onto *different* floors, both
/// staging before either sequences (so both stage-time checks pass).
/// Exactly one may win; the other must surface `DuplicateObject`, not
/// silently clobber or double-insert.
#[test]
fn duplicate_external_id_race_has_one_winner() {
    let b = building();
    let mut e = engine(&b, 32);
    let id = ObjectId(5_000);
    let batches: Vec<Vec<Update>> = (0..2)
        .map(|f| {
            vec![Update::InsertObject(Box::new(
                UncertainObject::point_object(
                    id,
                    IndoorPoint::new(room_center(&b, f as Floor, 0), f as Floor),
                ),
            ))]
        })
        .collect();
    let results = race_all(vec![e.writer(), e.writer()], batches);

    let wins = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(wins, 1, "exactly one insert of a raced id may commit");
    let err = results.iter().find(|r| r.is_err()).unwrap().as_ref();
    assert!(
        matches!(
            err.unwrap_err(),
            EngineError::Object(ObjectError::DuplicateObject(dup)) if *dup == id
        ),
        "the loser sees the duplicate it raced against"
    );
    e.refresh();
    assert_eq!(e.epoch(), 1, "one commit, one epoch");
    assert!(e.store().get(id).is_ok());
    e.validate().unwrap();
}

/// Two allocating inserts race: both stage against the same watermark and
/// would mint the same id. The sequencer must serialize the allocation —
/// the loser re-stages and mints the next id, never a duplicate.
#[test]
fn allocator_race_mints_distinct_ids() {
    let b = building();
    let mut e = engine(&b, 33);
    let watermark = e.store().id_watermark();
    let batches: Vec<Vec<Update>> = (0..2)
        .map(|f| {
            vec![Update::InsertObjectAt {
                center: room_center(&b, f as Floor, 1),
                floor: f as Floor,
                radius: 2.0,
                instances: 4,
                seed: 90 + f as u64,
            }]
        })
        .collect();
    let reports: Vec<UpdateReport> = race_all(vec![e.writer(), e.writer()], batches)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    let mut minted: Vec<u64> = reports
        .iter()
        .map(|r| match r.outcomes[0] {
            UpdateOutcome::ObjectInserted(id) => id.0,
            ref other => panic!("unexpected outcome {other:?}"),
        })
        .collect();
    minted.sort_unstable();
    assert_eq!(
        minted,
        vec![watermark, watermark + 1],
        "raced allocations mint consecutive distinct ids"
    );
    assert_eq!(
        reports.iter().filter(|r| r.stats.restaged).count(),
        1,
        "exactly one side loses the allocation race and re-stages"
    );
    e.refresh();
    assert!(e.store().get(ObjectId(watermark)).is_ok());
    assert!(e.store().get(ObjectId(watermark + 1)).is_ok());
    e.validate().unwrap();
}

/// Disjoint floor footprints staged concurrently never conflict: both
/// batches keep the fast path (prepared ops applied as staged) whichever
/// order the sequencer picks.
#[test]
fn disjoint_floors_race_keeps_the_fast_path() {
    let b = building();
    let mut e = engine(&b, 34);
    let batches: Vec<Vec<Update>> = (0..2)
        .map(|f| {
            vec![Update::MoveObject {
                id: floor_ids(&e, f as Floor)[0],
                center: room_center(&b, f as Floor, 2),
                floor: f as Floor,
                seed: 50 + f as u64,
            }]
        })
        .collect();
    let reports: Vec<UpdateReport> = race_all(vec![e.writer(), e.writer()], batches)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    for report in &reports {
        assert!(
            !report.stats.restaged,
            "disjoint footprints must not re-stage"
        );
    }
    e.refresh();
    e.validate().unwrap();
}

/// A topology change (door closed) commits inside a position batch's
/// window. Topology conflicts with everything: the parked batch re-stages
/// against the post-topology state and the result equals the serial
/// schedule topology-then-move.
#[test]
fn topology_commit_in_window_forces_restage() {
    let b = building();
    let mut e = engine(&b, 35);
    let door = e.space().doors().next().unwrap().id;
    let mover = floor_ids(&e, 0)[0];
    let batch_a = vec![Update::MoveObject {
        id: mover,
        center: room_center(&b, 0, 1),
        floor: 0,
        seed: 77,
    }];

    let writer_b = e.writer();
    let report = stage_then(e.writer(), batch_a.clone(), || {
        writer_b.apply_batch(&[Update::CloseDoor(door)]).unwrap();
    })
    .unwrap();
    assert!(
        report.stats.restaged,
        "a topology commit invalidates every staged batch"
    );
    e.refresh();

    let mut serial = engine(&b, 35);
    serial.apply_batch(&[Update::CloseDoor(door)]).unwrap();
    serial.apply_batch(&batch_a).unwrap();
    assert_same_objects(&e, &serial);
    assert_eq!(
        e.space().door(door).unwrap().open,
        serial.space().door(door).unwrap().open
    );
    e.validate().unwrap();
}

/// Exactness of the read-set rule: 2–5 move-only batches over a small id
/// pool on one floor all stage against one version, then race. A batch
/// re-stages exactly when it names an id that a batch ordered before it
/// by `(epoch, offset_in_epoch)` also names — a shared floor alone never
/// forces one — and the end state is the serial replay in that order.
#[test]
fn racing_batches_restage_exactly_when_their_ids_meet() {
    let b = building();
    let (mut fast, mut restaged) = (0, 0);
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut e = engine(&b, 40 + case);
        let pool: Vec<ObjectId> = floor_ids(&e, 0).into_iter().take(5).collect();
        let batches: Vec<Vec<Update>> = (0..rng.random_range(2..6usize))
            .map(|_| {
                (0..rng.random_range(1..3usize))
                    .map(|_| Update::MoveObject {
                        id: pool[rng.random_range(0..pool.len())],
                        center: room_center(&b, 0, rng.random_range(0..6usize)),
                        floor: 0,
                        seed: rng.random(),
                    })
                    .collect()
            })
            .collect();
        let writers = batches.iter().map(|_| e.writer()).collect();
        let reports: Vec<UpdateReport> = race_all(writers, batches.clone())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();

        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&k| (reports[k].epoch, reports[k].offset_in_epoch));
        let mut serial = engine(&b, 40 + case);
        for (pos, &k) in order.iter().enumerate() {
            let meets = order[..pos].iter().any(|&j| {
                batches[k]
                    .iter()
                    .any(|u| batches[j].iter().any(|v| u.object_id() == v.object_id()))
            });
            assert_eq!(
                reports[k].stats.restaged, meets,
                "case {case}: batch {k} at position {pos} of {order:?}"
            );
            if meets {
                restaged += 1;
            } else {
                fast += 1;
            }
            serial.apply_batch(&batches[k]).unwrap();
        }
        e.refresh();
        assert_same_objects(&e, &serial);
        e.validate().unwrap();
    }
    assert!(fast > 0 && restaged > 0, "both paths exercised");
}
