//! Concurrency stress suite for the MVCC service API.
//!
//! N reader threads issue mixed query batches against service snapshots
//! while a writer thread commits M update batches; a subscription thread
//! consumes delta notifications. Every recorded answer is tagged with its
//! snapshot's epoch, and the suite then *replays* the same update stream
//! on a fresh engine, epoch by epoch, asserting that:
//!
//! 1. every answer a reader ever observed is **bit-identical** to the
//!    answer a fresh engine gives at that answer's pinned epoch — i.e.
//!    snapshots are true versions, unaffected by concurrent commits;
//! 2. the subscription's result set after absorbing the deltas of each
//!    *routed* epoch equals a from-scratch refresh at that epoch, and
//!    every epoch the dispatcher skipped provably left the result
//!    unchanged (a fresh refresh equals the carried set);
//! 3. a snapshot pinned mid-run still answers its own version after the
//!    writer has moved many epochs past it.
//!
//! No locks are held across evaluation (queries run on pinned `Arc`s), so
//! this is also the ≥4-readers-with-an-active-writer demo.

use indoor_dq::model::Floor;
use indoor_dq::prelude::*;
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, generate_update_stream,
    GeneratedBuilding, QueryPointConfig, UpdateStreamConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const READERS: usize = 4;
const BATCHES: usize = 6;
const UPDATES_PER_BATCH: usize = 30;

fn building() -> GeneratedBuilding {
    generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap()
}

fn engine(b: &GeneratedBuilding) -> IndoorEngine {
    let store = generate_objects(
        b,
        &ObjectConfig {
            count: 60,
            radius: 6.0,
            instances: 6,
            seed: 5,
        },
    )
    .unwrap();
    IndoorEngine::with_objects(b.space.clone(), store, EngineConfig::default()).unwrap()
}

/// The deterministic update stream, pre-split into the batches the writer
/// commits (batch k produces epoch k+1). Generated against a scratch
/// engine so id-dependent updates (moves, removes) see the same
/// population the real writer will.
fn batches(b: &GeneratedBuilding) -> Vec<Vec<Update>> {
    let mut scratch = engine(b);
    let mut out = Vec::new();
    for k in 0..BATCHES {
        let stream = generate_update_stream(
            b,
            scratch.store(),
            &UpdateStreamConfig {
                count: UPDATES_PER_BATCH,
                seed: 0xC0 ^ k as u64,
                ..Default::default()
            },
        );
        scratch.apply_batch(&stream).unwrap();
        out.push(stream);
    }
    out
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

/// One query's bit-exact digest: (object id, distance bits) pairs.
type QueryDigest = Vec<(u64, u64)>;
/// One reader observation: the snapshot's epoch plus every query's digest.
type Observation = (u64, Vec<QueryDigest>);

/// A bit-exact digest of one outcome (ids + distance bits).
fn digest(out: &Outcome) -> QueryDigest {
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

#[test]
fn parallel_sessions_and_subscriptions_reproduce_their_epochs() {
    let b = building();
    let batches = batches(&b);
    let points = generate_query_points(&b, &QueryPointConfig { count: 3, seed: 77 });
    let queries = query_batch(&points);
    let sub_q = points[0];
    let sub_r = 80.0;

    let mut writer_engine = engine(&b);
    let service = writer_engine.service();
    let done = AtomicBool::new(false);

    // (epoch, per-query digests) observations from all readers, plus the
    // subscription's (epoch, membership set) trajectory.
    let mut observations: Vec<Observation> = Vec::new();
    let mut sub_trajectory: Vec<(u64, BTreeSet<ObjectId>)> = Vec::new();

    // Subscribe before the writer starts, so the baseline is epoch 0 and
    // the trajectory deterministically covers every epoch; the owned
    // subscription then moves into its consumer thread.
    let mut sub = service
        .subscribe(Query::Range { q: sub_q, r: sub_r })
        .unwrap();
    assert_eq!(sub.epoch(), 0);

    std::thread::scope(|scope| {
        // Subscription consumer: absorbs every commit's delta into a set
        // seeded from the initial result (deliberately maintained outside
        // the Subscription, so the test checks the published deltas, not
        // the monitor's internals).
        let sub_handle = scope.spawn(move || {
            let mut set: BTreeSet<ObjectId> = sub.initial().iter().copied().collect();
            let mut trajectory = vec![(sub.epoch(), set.clone())];
            while let Some(n) = sub.wait().unwrap() {
                for (id, change) in &n.changes {
                    match change {
                        MonitorChange::Entered => {
                            assert!(set.insert(*id), "duplicate enter for {id}")
                        }
                        MonitorChange::Left => assert!(set.remove(id), "spurious leave for {id}"),
                        MonitorChange::Unchanged => {
                            panic!("notifications carry changes only")
                        }
                    }
                }
                // The externally maintained set and the subscription's own
                // result set must agree at every epoch.
                assert_eq!(
                    set.iter().copied().collect::<Vec<_>>(),
                    sub.current(),
                    "delta-applied set diverged at epoch {}",
                    n.epoch
                );
                trajectory.push((n.epoch, set.clone()));
            }
            trajectory
        });

        // Reader threads: mixed query batches on fresh snapshots until the
        // writer is done, then one final batch at the final epoch so every
        // reader provably executed against a committed version. Each also
        // pins one early snapshot and re-verifies it at the end.
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let service = service.clone();
            let done = &done;
            let queries = &queries;
            readers.push(scope.spawn(move || {
                let mut seen: Vec<Observation> = Vec::new();
                let pinned = service.snapshot();
                let pinned_digests: Vec<_> = pinned
                    .execute_batch(queries)
                    .unwrap()
                    .iter()
                    .map(digest)
                    .collect();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = service.snapshot();
                    let outcomes = snap.execute_batch(queries).unwrap();
                    seen.push((snap.version(), outcomes.iter().map(digest).collect()));
                    if finished {
                        break;
                    }
                }
                // The pinned snapshot still answers its own version.
                let again: Vec<_> = pinned
                    .execute_batch(queries)
                    .unwrap()
                    .iter()
                    .map(digest)
                    .collect();
                assert_eq!(pinned_digests, again, "pinned snapshot drifted");
                seen.push((pinned.version(), pinned_digests));
                seen
            }));
        }

        // The writer: one committed batch per epoch, paced so readers
        // sample several versions.
        for batch in &batches {
            writer_engine.apply_batch(batch).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(writer_engine.epoch(), BATCHES as u64);
        done.store(true, Ordering::Release);
        // Retire the writer: the subscription stream ends.
        drop(writer_engine);

        for r in readers {
            observations.extend(r.join().unwrap());
        }
        sub_trajectory = sub_handle.join().unwrap();
    });

    // Routed dispatch: the subscription hears each commit that can affect
    // it at most once, in commit order, starting from its baseline.
    check_routed_trajectory(&sub_trajectory, BATCHES as u64);
    let observed_epochs: BTreeSet<u64> = observations.iter().map(|(e, _)| *e).collect();
    assert!(
        observed_epochs.contains(&(BATCHES as u64)),
        "readers never saw the final epoch"
    );

    // Replay: a fresh engine, advanced one batch at a time; at each epoch,
    // every concurrent observation of that epoch must be bit-identical to
    // the fresh answers, each *routed* epoch's absorbed set must equal a
    // from-scratch refresh, and each *skipped* epoch must be provably
    // unchanged (fresh refresh == the set carried over the skip).
    let trajectory: BTreeMap<u64, BTreeSet<ObjectId>> = sub_trajectory.iter().cloned().collect();
    let mut carried = trajectory[&0].clone();
    let mut replay = engine(&b);
    for epoch in 0..=BATCHES as u64 {
        if epoch > 0 {
            replay.apply_batch(&batches[epoch as usize - 1]).unwrap();
        }
        assert_eq!(replay.epoch(), epoch);
        let fresh: Vec<_> = replay
            .snapshot()
            .execute_batch(&queries)
            .unwrap()
            .iter()
            .map(digest)
            .collect();
        for (e, digests) in observations.iter().filter(|(e, _)| *e == epoch) {
            assert_eq!(digests, &fresh, "observation at epoch {e} not reproducible");
        }
        let fresh_members: BTreeSet<ObjectId> = replay
            .snapshot()
            .execute(&Query::Range { q: sub_q, r: sub_r })
            .unwrap()
            .into_range()
            .unwrap()
            .results
            .iter()
            .map(|h| h.object)
            .collect();
        match trajectory.get(&epoch) {
            Some(absorbed) => {
                assert_eq!(
                    absorbed, &fresh_members,
                    "subscription set at epoch {epoch} diverges from a fresh refresh"
                );
                carried = absorbed.clone();
            }
            None => assert_eq!(
                carried, fresh_members,
                "dispatcher skipped epoch {epoch}, but the result changed"
            ),
        }
    }
}

/// A routed subscription trajectory is sound iff its epochs are strictly
/// increasing (each commit delivered at most once, in order), start at
/// the subscription's baseline, and never exceed the final epoch. Which
/// commits appear is the dispatcher's routing decision — the replay
/// oracle separately proves every *absent* epoch left the result
/// unchanged.
fn check_routed_trajectory(trajectory: &[(u64, BTreeSet<ObjectId>)], final_epoch: u64) {
    assert_eq!(trajectory[0].0, 0, "baseline entry at epoch 0");
    assert!(
        trajectory.windows(2).all(|w| w[0].0 < w[1].0),
        "delivered epochs must be strictly increasing (no double delivery)"
    );
    assert!(
        trajectory.last().unwrap().0 <= final_epoch,
        "no delivery past the final commit"
    );
}

const WRITERS: usize = 4;
const WRITER_ROUNDS: usize = 5;

/// 4 writers × 4 readers × a subscription, all concurrent. Writers commit
/// through cloned `WriteHandle`s with a small commit window, so batches
/// race, conflict (every batch allocates an id, so a commit landing
/// between a batch's staging and its sequencing moves the id watermark
/// and forces a re-stage) and group-commit into merged epochs. The oracle then replays every epoch's commit group —
/// ordered by `(epoch, offset_in_epoch)` — as one serial batch on a fresh
/// engine and asserts:
///
/// 1. every reader observation is bit-reproducible at its pinned epoch;
/// 2. the subscription's delta trajectory is strictly increasing (no
///    double delivery), equals a from-scratch refresh at every routed
///    epoch, and every epoch the dispatcher skipped provably left the
///    result unchanged;
/// 3. commit bookkeeping is self-consistent: epochs contiguous, offsets
///    contiguous within each group, every member naming the group size.
#[test]
fn four_writers_group_commits_stay_epoch_reproducible() {
    let b = building();
    let points = generate_query_points(&b, &QueryPointConfig { count: 3, seed: 78 });
    let queries = query_batch(&points);
    let sub_q = points[0];
    let sub_r = 80.0;

    let mut writer_engine = engine(&b);
    let service = writer_engine.service();
    let done = AtomicBool::new(false);

    // Writer w owns every WRITERS-th object and moves it between rooms
    // and floors each round — disjoint id sets (all batches succeed) —
    // and inserts one object per round through the shared id allocator
    // (watermark conflicts make re-stages routine).
    let all_ids = writer_engine.store().ids_sorted();
    let owned: Vec<Vec<ObjectId>> = (0..WRITERS)
        .map(|w| {
            all_ids
                .iter()
                .skip(w)
                .step_by(WRITERS)
                .take(6)
                .copied()
                .collect()
        })
        .collect();
    let room = |floor: Floor, i: usize| {
        let rooms = &b.rooms_by_floor[floor as usize];
        b.space
            .partition(rooms[i % rooms.len()])
            .unwrap()
            .bbox
            .center()
    };

    let mut observations: Vec<Observation> = Vec::new();
    let mut committed: Vec<(Vec<Update>, UpdateReport)> = Vec::new();
    let mut sub_trajectory: Vec<(u64, BTreeSet<ObjectId>)> = Vec::new();
    let mut final_epoch = 0;

    let mut sub = service
        .subscribe(Query::Range { q: sub_q, r: sub_r })
        .unwrap();
    assert_eq!(sub.epoch(), 0);

    std::thread::scope(|scope| {
        let sub_handle = scope.spawn(move || {
            let mut set: BTreeSet<ObjectId> = sub.initial().iter().copied().collect();
            let mut trajectory = vec![(sub.epoch(), set.clone())];
            while let Some(n) = sub.wait().unwrap() {
                for (id, change) in &n.changes {
                    match change {
                        MonitorChange::Entered => {
                            assert!(set.insert(*id), "duplicate enter for {id}")
                        }
                        MonitorChange::Left => assert!(set.remove(id), "spurious leave for {id}"),
                        MonitorChange::Unchanged => panic!("notifications carry changes only"),
                    }
                }
                assert_eq!(
                    set.iter().copied().collect::<Vec<_>>(),
                    sub.current(),
                    "delta-applied set diverged at epoch {}",
                    n.epoch
                );
                trajectory.push((n.epoch, set.clone()));
            }
            trajectory
        });

        let mut readers = Vec::new();
        for _ in 0..READERS {
            let service = service.clone();
            let done = &done;
            let queries = &queries;
            readers.push(scope.spawn(move || {
                let mut seen: Vec<Observation> = Vec::new();
                let pinned = service.snapshot();
                let pinned_digests: Vec<_> = pinned
                    .execute_batch(queries)
                    .unwrap()
                    .iter()
                    .map(digest)
                    .collect();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = service.snapshot();
                    let outcomes = snap.execute_batch(queries).unwrap();
                    seen.push((snap.version(), outcomes.iter().map(digest).collect()));
                    if finished {
                        break;
                    }
                }
                let again: Vec<_> = pinned
                    .execute_batch(queries)
                    .unwrap()
                    .iter()
                    .map(digest)
                    .collect();
                assert_eq!(pinned_digests, again, "pinned snapshot drifted");
                seen.push((pinned.version(), pinned_digests));
                seen
            }));
        }

        // Four concurrent writers through cloned handles; the commit
        // window invites group formation without the test depending on it.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let writer = writer_engine
                    .writer()
                    .with_commit_window(Duration::from_millis(3));
                let owned = &owned;
                let room = &room;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for round in 0..WRITER_ROUNDS {
                        let mut updates: Vec<Update> = owned[w]
                            .iter()
                            .enumerate()
                            .map(|(i, &id)| {
                                let floor = ((id.0 as usize + round) % 2) as Floor;
                                Update::MoveObject {
                                    id,
                                    center: room(floor, i + round + w),
                                    floor,
                                    seed: (w as u64) << 16 | round as u64,
                                }
                            })
                            .collect();
                        let floor = ((w + round) % 2) as Floor;
                        updates.push(Update::InsertObjectAt {
                            center: room(floor, round + 2 * w),
                            floor,
                            radius: 2.0,
                            instances: 4,
                            seed: 0xA110C ^ (w as u64) << 8 ^ round as u64,
                        });
                        let report = writer.apply_batch(&updates).unwrap();
                        mine.push((updates, report));
                    }
                    mine
                })
            })
            .collect();
        for w in writers {
            committed.extend(w.join().unwrap());
        }
        writer_engine.refresh();
        final_epoch = writer_engine.epoch();
        done.store(true, Ordering::Release);
        // Retire the engine (and with it the last write handle): the
        // subscription stream ends.
        drop(writer_engine);

        for r in readers {
            observations.extend(r.join().unwrap());
        }
        sub_trajectory = sub_handle.join().unwrap();
    });

    // Commit bookkeeping: group the receipts by epoch; epochs contiguous
    // from 1, offsets contiguous from 0, group sizes consistent.
    committed.sort_by_key(|(_, r)| (r.epoch, r.offset_in_epoch));
    let mut groups: BTreeMap<u64, Vec<&(Vec<Update>, UpdateReport)>> = BTreeMap::new();
    for entry in &committed {
        groups.entry(entry.1.epoch).or_default().push(entry);
    }
    assert_eq!(
        groups.keys().copied().collect::<Vec<_>>(),
        (1..=final_epoch).collect::<Vec<_>>(),
        "every epoch is one commit group"
    );
    for (epoch, members) in &groups {
        for (offset, (_, report)) in members.iter().enumerate() {
            assert_eq!(report.offset_in_epoch, offset, "offsets at epoch {epoch}");
            assert_eq!(report.stats.group_batches, members.len());
        }
    }

    // The subscription heard each merged epoch at most once, in order.
    check_routed_trajectory(&sub_trajectory, final_epoch);

    // Replay each commit group as one serial batch: the fresh engine walks
    // the same epoch numbers; at every epoch all concurrent observations
    // are bit-reproducible, the subscription set matches a from-scratch
    // refresh where it was routed, and is provably unchanged where the
    // dispatcher skipped.
    let trajectory: BTreeMap<u64, BTreeSet<ObjectId>> = sub_trajectory.iter().cloned().collect();
    let mut carried = trajectory[&0].clone();
    let mut replay = engine(&b);
    for epoch in 0..=final_epoch {
        if epoch > 0 {
            let merged: Vec<Update> = groups[&epoch]
                .iter()
                .flat_map(|(updates, _)| updates.iter().cloned())
                .collect();
            replay.apply_batch(&merged).unwrap();
        }
        assert_eq!(replay.epoch(), epoch);
        let fresh: Vec<_> = replay
            .snapshot()
            .execute_batch(&queries)
            .unwrap()
            .iter()
            .map(digest)
            .collect();
        for (e, digests) in observations.iter().filter(|(e, _)| *e == epoch) {
            assert_eq!(digests, &fresh, "observation at epoch {e} not reproducible");
        }
        let fresh_members: BTreeSet<ObjectId> = replay
            .snapshot()
            .execute(&Query::Range { q: sub_q, r: sub_r })
            .unwrap()
            .into_range()
            .unwrap()
            .results
            .iter()
            .map(|h| h.object)
            .collect();
        match trajectory.get(&epoch) {
            Some(absorbed) => {
                assert_eq!(
                    absorbed, &fresh_members,
                    "subscription set at epoch {epoch} diverges from a fresh refresh"
                );
                carried = absorbed.clone();
            }
            None => assert_eq!(
                carried, fresh_members,
                "dispatcher skipped epoch {epoch}, but the result changed"
            ),
        }
    }
    replay.validate().unwrap();
}
