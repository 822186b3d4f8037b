//! Linearizability oracle for the parallel write path.
//!
//! N writer threads apply update batches concurrently through cloned
//! `WriteHandle`s. The sequencer promises that the committed history is
//! **exactly** a serial execution of the batches in commit order —
//! `(epoch, offset_in_epoch)` — so the oracle replays every batch, in
//! that order, on a fresh single-threaded engine and demands:
//!
//! 1. **bit-exact outcomes** — every batch's per-update outcomes (object
//!    ids included, so allocator races are covered) equal the serial
//!    replay's;
//! 2. **bit-exact final state** — object populations match id-for-id and
//!    instance-for-instance, and a mixed query battery returns
//!    bit-identical digests;
//! 3. **structural sharing** — parallel staging still copies only the
//!    floor shards a commit touches (`Arc` pointer identity on the
//!    untouched ones);
//! 4. **group commit** — concurrent small applies coalesce into one
//!    epoch whose merged subscription report carries every batch's
//!    outcomes exactly once.

use indoor_dq::model::Floor;
use indoor_dq::prelude::*;
use indoor_dq::workloads::{generate_building, generate_objects, GeneratedBuilding};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Duration;

const FLOORS: u16 = 3;
const WRITERS: usize = 3;
const ROUNDS: usize = 3;

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

/// Fixed options for every digest comparison, set on each snapshot so a
/// digest never depends on how its engine was configured.
fn options() -> QueryOptions {
    QueryOptions::for_max_radius(10.0)
}

fn room_center(b: &GeneratedBuilding, floor: Floor, i: usize) -> Point2 {
    let rooms = &b.rooms_by_floor[floor as usize];
    b.space
        .partition(rooms[i % rooms.len()])
        .unwrap()
        .bbox
        .center()
}

fn digests(e: &IndoorEngine, b: &GeneratedBuilding) -> Vec<Vec<(u64, u64)>> {
    let points = [
        IndoorPoint::new(room_center(b, 0, 0), 0),
        IndoorPoint::new(room_center(b, 1, 1), 1),
        IndoorPoint::new(room_center(b, 2, 2), 2),
    ];
    let mut queries = Vec::new();
    for &q in &points {
        queries.push(Query::Range { q, r: 60.0 });
        queries.push(Query::Range { q, r: 120.0 });
        queries.push(Query::Knn { q, k: 5 });
    }
    e.snapshot()
        .with_options(options())
        .execute_batch(&queries)
        .unwrap()
        .iter()
        .map(|out| match out {
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
            _ => unreachable!("battery is ranges and knn"),
        })
        .collect()
}

/// One writer's committed batches, each paired with its receipt.
type Committed = Vec<(Vec<Update>, UpdateReport)>;

/// Sorts all writers' committed batches into the sequencer's total order.
fn commit_order(per_writer: Vec<Committed>) -> Committed {
    let mut all: Committed = per_writer.into_iter().flatten().collect();
    all.sort_by_key(|(_, r)| (r.epoch, r.offset_in_epoch));
    all
}

/// Group-commit bookkeeping must be self-consistent: epochs contiguous
/// from 1, offsets contiguous from 0 within each epoch, and every member
/// of a group naming the group's size.
fn assert_group_metadata(ordered: &Committed, final_epoch: u64) {
    let mut groups: BTreeMap<u64, Vec<&UpdateReport>> = BTreeMap::new();
    for (_, report) in ordered {
        groups.entry(report.epoch).or_default().push(report);
    }
    assert_eq!(
        groups.keys().copied().collect::<Vec<_>>(),
        (1..=final_epoch).collect::<Vec<_>>(),
        "every epoch is produced by exactly one commit group"
    );
    for (epoch, members) in &groups {
        for (offset, report) in members.iter().enumerate() {
            assert_eq!(
                report.offset_in_epoch, offset,
                "offsets contiguous at {epoch}"
            );
            assert_eq!(
                report.stats.group_batches,
                members.len(),
                "group size recorded at {epoch}"
            );
        }
    }
}

/// The oracle: replay the committed batches serially, in commit order, on
/// a fresh engine; every batch's outcomes must be bit-identical to what
/// the concurrent run reported.
fn replay_serially(b: &GeneratedBuilding, seed: u64, ordered: &Committed) -> IndoorEngine {
    let mut replay = engine(b, seed);
    for (k, (updates, report)) in ordered.iter().enumerate() {
        let serial = replay.apply_batch(updates).unwrap();
        assert_eq!(
            serial.outcomes, report.outcomes,
            "batch {k} (epoch {}, offset {}) diverges from its serial replay",
            report.epoch, report.offset_in_epoch
        );
    }
    replay
}

fn assert_states_identical(
    concurrent: &IndoorEngine,
    replay: &IndoorEngine,
    b: &GeneratedBuilding,
) {
    assert_eq!(concurrent.store().ids_sorted(), replay.store().ids_sorted());
    for id in concurrent.store().ids_sorted() {
        let (c, r) = (
            concurrent.store().get(id).unwrap(),
            replay.store().get(id).unwrap(),
        );
        assert_eq!(c.region.center, r.region.center, "object {id}");
        assert_eq!(c.floor, r.floor, "object {id}");
        assert_eq!(c.len(), r.len(), "object {id}");
    }
    assert_eq!(
        digests(concurrent, b),
        digests(replay, b),
        "query digests diverge from the serial replay"
    );
}

/// Runs `WRITERS` concurrent writer threads, each committing the batches
/// `make_batch(writer, round, &engine_before_the_run)` produces, and
/// returns the commit-ordered receipts plus the final epoch.
fn run_writers(
    e: &mut IndoorEngine,
    window: Duration,
    make_batch: impl Fn(usize, usize) -> Vec<Update> + Sync,
) -> (Committed, u64) {
    let per_writer: Vec<Committed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let writer = e.writer().with_commit_window(window);
                let make_batch = &make_batch;
                scope.spawn(move || {
                    let mut committed = Committed::new();
                    for round in 0..ROUNDS {
                        let updates = make_batch(w, round);
                        let report = writer.apply_batch(&updates).unwrap();
                        committed.push((updates, report));
                    }
                    committed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    e.refresh();
    (commit_order(per_writer), e.epoch())
}

/// Sorted object ids living on one floor of the initial population.
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

#[test]
fn disjoint_floor_writers_commit_without_restaging() {
    let b = building();
    let mut e = engine(&b, 5);
    // Writer w owns floor w: moves its objects between that floor's
    // rooms. Footprints never overlap, so every batch must take the
    // fast path (prepared ops applied as staged, no re-validation).
    let ids: Vec<Vec<ObjectId>> = (0..WRITERS).map(|w| floor_ids(&e, w as Floor)).collect();
    let (ordered, final_epoch) = run_writers(&mut e, Duration::ZERO, |w, round| {
        ids[w]
            .iter()
            .enumerate()
            .map(|(i, &id)| Update::MoveObject {
                id,
                center: room_center(&b, w as Floor, i + round),
                floor: w as Floor,
                seed: (w as u64) << 32 | round as u64,
            })
            .collect()
    });
    assert_eq!(ordered.len(), WRITERS * ROUNDS);
    assert_group_metadata(&ordered, final_epoch);
    for (_, report) in &ordered {
        assert!(
            !report.stats.restaged,
            "disjoint footprints never lose the staging race"
        );
        assert!(!report.stats.checkpointed);
    }
    let replay = replay_serially(&b, 5, &ordered);
    assert_states_identical(&e, &replay, &b);
    e.validate().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full adversarial mix: writers share floors, race the id
    /// allocator (`InsertObjectAt` on every writer, so id/watermark
    /// conflicts force re-stages), and move objects across floors — and
    /// the commit history must still replay serially, bit-exactly,
    /// outcomes included (which pins the allocator order).
    #[test]
    fn conflicting_writers_stay_serially_replayable(seed in 1u64..1000) {
        let b = building();
        let mut e = engine(&b, seed);
        // Interleaved ownership: writer w gets every WRITERS-th object,
        // so each writer's batch spans several floors.
        let all_ids = e.store().ids_sorted();
        let ids: Vec<Vec<ObjectId>> = (0..WRITERS)
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
        let (ordered, final_epoch) = run_writers(&mut e, Duration::ZERO, |w, round| {
            let mut batch: Vec<Update> = ids[w]
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let floor = ((id.0 as usize + round) % FLOORS as usize) as Floor;
                    Update::MoveObject {
                        id,
                        center: room_center(&b, floor, i + round + w),
                        floor,
                        seed: seed ^ (w as u64) << 24 ^ round as u64,
                    }
                })
                .collect();
            // Every writer also races the allocator each round.
            batch.push(Update::InsertObjectAt {
                center: room_center(&b, w as Floor, round),
                floor: w as Floor,
                radius: 2.0,
                instances: 4,
                seed: seed ^ 0xA110C ^ (w as u64) << 8 ^ round as u64,
            });
            batch
        });
        prop_assert_eq!(ordered.len(), WRITERS * ROUNDS);
        assert_group_metadata(&ordered, final_epoch);
        let replay = replay_serially(&b, seed, &ordered);
        assert_states_identical(&e, &replay, &b);
        e.validate().unwrap();
    }
}

#[test]
fn parallel_staging_copies_only_touched_shards() {
    let b = building();
    let mut e = engine(&b, 21);
    let before = e.snapshot();
    let movers = [floor_ids(&e, 0)[0], floor_ids(&e, 1)[0]];
    // Two concurrent writers, floors 0 and 1; floor 2 is never touched.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        for (w, &id) in movers.iter().enumerate() {
            let writer = e.writer();
            let b = &b;
            scope.spawn(move || {
                barrier.wait();
                writer
                    .apply(Update::MoveObject {
                        id,
                        center: room_center(b, w as Floor, 3),
                        floor: w as Floor,
                        seed: 7,
                    })
                    .unwrap();
            });
        }
    });
    e.refresh();
    let after = e.snapshot();
    // Floors 0 and 1 were deep-copied by their commits; floor 2's store
    // shard and o-table shard are pointer-identical across the whole
    // concurrent run, and the geometry tiers were never copied.
    assert!(!before.store().same_shard(after.store(), 0));
    assert!(!before.store().same_shard(after.store(), 1));
    assert!(
        before.store().same_shard(after.store(), 2),
        "floor 2 store shared"
    );
    assert!(
        before
            .index()
            .object_layer()
            .same_shard(after.index().object_layer(), 2),
        "floor 2 o-table shared"
    );
    assert!(
        before.index().shares_geometry_with(after.index()),
        "object commits never copy the geometry tiers"
    );
    e.validate().unwrap();
}

#[test]
fn concurrent_applies_coalesce_into_one_epoch() {
    // Group formation is timing-dependent (a thread descheduled past the
    // commit window misses the group), so the scenario retries until the
    // schedule lands — every attempt still checks the invariants that
    // must hold on ANY schedule, and the full group-commit assertions run
    // on the first attempt whose three applies share one epoch.
    let b = building();
    for attempt in 0..25 {
        let mut e = engine(&b, 9);
        let service = e.service();
        let q = IndoorPoint::new(room_center(&b, 0, 0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 200.0 }).unwrap();
        let base = e.epoch();
        let movers: Vec<ObjectId> = (0..3).map(|f| floor_ids(&e, f as Floor)[0]).collect();

        // Three writers, one barrier, a generous commit window: whoever
        // leads holds the group open long enough for the other two staged
        // batches to join, so all three normally coalesce into one epoch.
        let barrier = Barrier::new(3);
        let reports: Vec<UpdateReport> = std::thread::scope(|scope| {
            let barrier = &barrier;
            let handles: Vec<_> = movers
                .iter()
                .enumerate()
                .map(|(w, &id)| {
                    let writer = e.writer().with_commit_window(Duration::from_millis(300));
                    let b = &b;
                    scope.spawn(move || {
                        barrier.wait();
                        writer
                            .apply_batch(&[Update::MoveObject {
                                id,
                                center: room_center(b, w as Floor, 1),
                                floor: w as Floor,
                                seed: 11,
                            }])
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        e.refresh();

        // Schedule-independent invariants: per-epoch offsets contiguous,
        // every member names its group's size, own outcomes/footprint kept.
        let mut by_epoch: BTreeMap<u64, Vec<&UpdateReport>> = BTreeMap::new();
        for r in &reports {
            assert_eq!(r.outcomes.len(), 1, "each batch keeps its own outcomes");
            assert_eq!(
                r.stats.shards_touched, 1,
                "each batch reports its own footprint"
            );
            by_epoch.entry(r.epoch).or_default().push(r);
        }
        for members in by_epoch.values_mut() {
            members.sort_by_key(|r| r.offset_in_epoch);
            for (offset, r) in members.iter().enumerate() {
                assert_eq!(r.offset_in_epoch, offset);
                assert_eq!(r.stats.group_batches, members.len());
            }
        }
        // Routed delivery: quiesce the dispatcher past the final commit,
        // then drain. Each routed epoch arrives at most once, in order,
        // carrying its whole group's *merged* report — no double
        // delivery, on any schedule.
        service.quiesce();
        let notes = sub.poll().unwrap();
        let mut last = base;
        for n in &notes {
            assert!(n.epoch > last, "delivered epochs strictly increase");
            assert!(n.epoch <= e.epoch());
            last = n.epoch;
            assert_eq!(n.report.offset_in_epoch, 0);
            assert_eq!(n.report.outcomes.len(), by_epoch[&n.epoch].len());
            assert_eq!(n.report.stats.group_batches, by_epoch[&n.epoch].len());
        }
        assert!(sub.poll().unwrap().is_empty(), "no extra delivery");
        e.validate().unwrap();

        if e.epoch() == base + 1 {
            // The schedule landed: all three applies shared one epoch swap.
            let offsets: Vec<usize> = by_epoch[&(base + 1)]
                .iter()
                .map(|r| r.offset_in_epoch)
                .collect();
            assert_eq!(offsets, vec![0, 1, 2]);
            for r in &reports {
                assert_eq!(r.stats.group_batches, 3);
            }
            // The merged group moved an object on the subscription's own
            // floor, so the one commit is necessarily routed — and its
            // report carries every batch's outcomes exactly once.
            assert_eq!(notes.len(), 1, "the merged group is one delivery");
            assert_eq!(notes[0].report.outcomes.len(), 3);
            return;
        }
        eprintln!(
            "attempt {attempt}: applies split across {} epochs, retrying",
            e.epoch() - base
        );
    }
    panic!("three windowed applies never coalesced into one epoch in 25 attempts");
}
