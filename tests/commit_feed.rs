//! Both consumers of the commit feed on one engine, under concurrent
//! writers: a standing subscription (the dispatch thread's feed) and a
//! `HistoryRecorder` (the retention feed) each see every epoch, in order,
//! and both wind down once the last write handle is gone.

use indoor_dq::history::{HistoryOptions, HistoryRecorder};
use indoor_dq::prelude::*;

const WRITERS: u64 = 2;
const OBJECTS_PER_WRITER: u64 = 4;
const BATCHES_PER_WRITER: u64 = 20;

/// Three 10 m rooms in a row.
fn three_rooms() -> IndoorSpace {
    let mut b = FloorPlanBuilder::new(4.0);
    let rooms: Vec<PartitionId> = (0..3)
        .map(|i| {
            let x = 10.0 * i as f64;
            b.add_room(0, Rect2::from_bounds(x, 0.0, x + 10.0, 10.0))
                .unwrap()
        })
        .collect();
    for i in 1..3 {
        b.add_door_between(rooms[i - 1], rooms[i], Point2::new(10.0 * i as f64, 5.0))
            .unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn subscription_and_recorder_both_drain_and_end_with_the_last_writer() {
    let mut engine = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
    let mut ids = Vec::new();
    for seed in 0..WRITERS * OBJECTS_PER_WRITER {
        let x = 2.0 + 3.0 * seed as f64;
        let insert = Update::InsertObjectAt {
            center: Point2::new(x, 5.0),
            floor: 0,
            radius: 1.0,
            instances: 4,
            seed,
        };
        ids.push(engine.apply(insert).unwrap().inserted_object().unwrap());
    }

    let recorder = HistoryRecorder::attach(&engine, HistoryOptions::default()).unwrap();
    let service = engine.service();
    let baseline = service.epoch();
    // Wide enough that every commit routes to it, with a mailbox that
    // holds every commit: a consumer slower than the writers still sees
    // each epoch on its own rather than coalesced.
    let q = IndoorPoint::new(Point2::new(15.0, 5.0), 0);
    let commits = (WRITERS * BATCHES_PER_WRITER) as usize;
    let mut sub = service
        .subscribe_bounded(Query::Range { q, r: 100.0 }, commits)
        .unwrap();
    assert_eq!(sub.initial().len(), ids.len());

    // Returns only when the stream has ended: `wait` yields `None`.
    let consumer = std::thread::spawn(move || {
        let mut epochs = Vec::new();
        while let Some(n) = sub.wait().unwrap() {
            epochs.push(n.epoch);
        }
        (epochs, sub.current().len())
    });

    let writers: Vec<_> = ids
        .chunks(OBJECTS_PER_WRITER as usize)
        .map(|mine| {
            let writer = engine.writer();
            let mine = mine.to_vec();
            std::thread::spawn(move || {
                for round in 0..BATCHES_PER_WRITER {
                    let batch: Vec<Update> = mine
                        .iter()
                        .enumerate()
                        .map(|(i, &id)| Update::MoveObject {
                            id,
                            center: Point2::new(
                                2.0 + ((round * 7 + 5 * i as u64 + id.0) % 26) as f64,
                                5.0,
                            ),
                            floor: 0,
                            seed: round,
                        })
                        .collect();
                    writer.apply_batch(&batch).unwrap();
                }
                // `writer` drops here: one of the last handles.
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let last = service.epoch();
    assert!(last > baseline);
    // The engine's bootstrap handle is the last one: the write side
    // retires, every feed closes.
    drop(engine);

    let (epochs, members) = consumer.join().unwrap();
    assert_eq!(
        epochs,
        (baseline + 1..=last).collect::<Vec<u64>>(),
        "every epoch notified exactly once, in order, before the stream ended"
    );
    assert_eq!(members, ids.len(), "moves never leave the range");

    recorder.sync();
    assert_eq!(recorder.session().newest(), last);
    // Both barriers stay returnable after their consumers wound down.
    service.quiesce();
    recorder.sync();
}
