//! Routing-equivalence oracle for the query-indexed dispatcher.
//!
//! A fleet of standing subscriptions (mixed range/kNN, skewed floors —
//! the `generate_subscription_set` workload) watches a mixed update
//! stream of moves, inserts, removes and door churn. The dispatcher
//! routes each commit only to the subscriptions whose candidate-partition
//! footprint it intersects; everyone else is skipped without absorbing
//! anything. This suite proves the routed trajectory exact against three
//! independently computed oracles, for every subscription and epoch:
//!
//! 1. **from-scratch refresh** — at every epoch a fresh replay engine
//!    answers the standing query from scratch; at routed epochs the
//!    subscription's delta-maintained set must match, and at *skipped*
//!    epochs the fresh answer must equal the carried set (the skip was
//!    provably sound);
//! 2. **full-report absorption** — a `MonitorExt`-driven `RangeMonitor`
//!    absorbs *every* commit's report (the pre-dispatch broadcast
//!    semantics) and must land on the same set as both the routed
//!    subscription and the fresh refresh;
//! 3. **fresh kNN per epoch** — a kNN subscription's maintained ranking
//!    (ids *and* distance bits) must equal a from-scratch `Query::Knn`
//!    at every routed epoch, and carry unchanged across skipped ones.

use indoor_dq::prelude::*;
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_subscription_set, generate_update_stream,
    GeneratedBuilding, SubscriptionSetConfig, UpdateStreamConfig,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const BATCHES: usize = 5;
const UPDATES_PER_BATCH: usize = 20;
const SUBSCRIPTIONS: usize = 10;

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
            count: 40,
            radius: 4.0,
            instances: 4,
            seed,
        },
    )
    .unwrap();
    IndoorEngine::with_objects(b.space.clone(), store, EngineConfig::default()).unwrap()
}

/// The deterministic update stream, pre-split into per-epoch batches
/// (generated against a scratch engine so id-dependent updates see the
/// population the real writer will).
fn batches(b: &GeneratedBuilding, seed: u64) -> Vec<Vec<Update>> {
    let mut scratch = engine(b, seed);
    (0..BATCHES)
        .map(|k| {
            let stream = generate_update_stream(
                b,
                scratch.store(),
                &UpdateStreamConfig {
                    count: UPDATES_PER_BATCH,
                    seed: seed ^ (0xD15 << 8) ^ k as u64,
                    ..Default::default()
                },
            );
            scratch.apply_batch(&stream).unwrap();
            stream
        })
        .collect()
}

/// Sorted member ids of a standing query answered from scratch on a
/// snapshot, plus the ranked `(id, distance)` pairs for kNN.
fn fresh_answer(snap: &Snapshot, query: &Query) -> (Vec<ObjectId>, Option<Vec<(ObjectId, f64)>>) {
    match snap.execute(query).unwrap() {
        Outcome::Range(r) => {
            let mut ids: Vec<ObjectId> = r.results.iter().map(|h| h.object).collect();
            ids.sort_unstable();
            (ids, None)
        }
        Outcome::Knn(k) => {
            let ranked: Vec<(ObjectId, f64)> =
                k.results.iter().map(|h| (h.object, h.distance)).collect();
            let mut ids: Vec<ObjectId> = ranked.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            (ids, Some(ranked))
        }
        _ => unreachable!("subscription workloads are range and kNN"),
    }
}

/// Bit-exact ranking comparison (`f64` doesn't implement `Eq`).
fn ranked_bits(ranked: &[(ObjectId, f64)]) -> Vec<(ObjectId, u64)> {
    ranked.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn routed_trajectories_match_absorption_and_fresh_refresh(seed in 1u64..500) {
        let b = building();
        let mut e = engine(&b, seed);
        let service = e.service();
        let queries = generate_subscription_set(
            &b,
            &SubscriptionSetConfig {
                count: SUBSCRIPTIONS,
                knn_fraction: 0.4,
                radii: vec![25.0, 50.0],
                ks: vec![2, 4],
                floor_skew: 1.0,
                seed,
            },
        );
        let mut subs: Vec<Subscription> = queries
            .iter()
            .map(|&q| service.subscribe(q).unwrap())
            .collect();

        // Commit the stream; every report is kept for the absorption
        // oracle. Then quiesce: the dispatcher has routed every commit.
        let batches = batches(&b, seed);
        let reports: Vec<UpdateReport> = batches
            .iter()
            .map(|batch| e.apply_batch(batch).unwrap())
            .collect();
        prop_assert_eq!(e.epoch(), BATCHES as u64);
        service.quiesce();

        // Baseline views, captured before draining mutates the
        // subscriptions' maintained state.
        let mut carried: Vec<BTreeSet<ObjectId>> = subs
            .iter()
            .map(|s| s.initial().iter().copied().collect())
            .collect();
        let mut carried_ranked: Vec<Option<Vec<(ObjectId, f64)>>> = subs
            .iter()
            .map(|s| s.ranked().map(<[_]>::to_vec))
            .collect();

        // Drain each subscription's routed trajectory: epoch → delivered
        // notification. Epochs must be strictly increasing and unlagged
        // (the mailboxes are far from full here).
        let mut routed: Vec<BTreeMap<u64, Notification>> = Vec::new();
        for sub in &mut subs {
            let notes = sub.poll().unwrap();
            let mut by_epoch = BTreeMap::new();
            let mut last = 0;
            for n in notes {
                prop_assert!(n.epoch > last, "epochs strictly increase");
                prop_assert!(!n.lagged, "nothing coalesced in a drained run");
                last = n.epoch;
                by_epoch.insert(n.epoch, n);
            }
            routed.push(by_epoch);
        }
        let stats = service.dispatch_stats();
        prop_assert_eq!(stats.commits, BATCHES as u64);
        prop_assert_eq!(
            stats.deliveries as usize,
            routed.iter().map(BTreeMap::len).sum::<usize>(),
            "every delivery drained, none invented"
        );

        // Replay epoch by epoch on a fresh engine. Per subscription we
        // carry the delta-maintained member set (and ranking); a
        // `MonitorExt` monitor per *range* subscription absorbs every
        // report — the broadcast oracle the dispatcher replaced.
        let mut replay = engine(&b, seed);
        let snap0 = replay.snapshot();
        let mut oracles: Vec<Option<RangeMonitor>> = queries
            .iter()
            .map(|q| match q {
                Query::Range { q, r } => {
                    let mut m = RangeMonitor::new(*q, *r, *snap0.options()).unwrap();
                    m.refresh_on(&snap0).unwrap();
                    Some(m)
                }
                _ => None,
            })
            .collect();

        for epoch in 0..=BATCHES as u64 {
            if epoch > 0 {
                replay.apply_batch(&batches[epoch as usize - 1]).unwrap();
            }
            prop_assert_eq!(replay.epoch(), epoch);
            let snap = replay.snapshot();
            for (i, query) in queries.iter().enumerate() {
                // The broadcast oracle absorbs the epoch's full report.
                if let Some(mon) = oracles[i].as_mut() {
                    if epoch > 0 {
                        mon.absorb(&reports[epoch as usize - 1], &snap).unwrap();
                    }
                }
                let (fresh_ids, fresh_ranked) = fresh_answer(&snap, query);
                // When the dispatcher skipped this epoch for this
                // subscription, the from-scratch answer below must prove
                // the commit irrelevant to it.
                if let Some(n) = routed[i].get(&epoch) {
                    // Routed: fold the delivered changes into the
                    // carried set, then everything must agree.
                    for (id, change) in &n.changes {
                        match change {
                            MonitorChange::Entered => {
                                prop_assert!(carried[i].insert(*id), "duplicate enter")
                            }
                            MonitorChange::Left => {
                                prop_assert!(carried[i].remove(id), "spurious leave")
                            }
                            MonitorChange::Unchanged => {
                                prop_assert!(false, "notifications carry changes only")
                            }
                        }
                    }
                    if let Some(r) = &n.ranked {
                        carried_ranked[i] = Some(r.clone());
                    }
                }
                prop_assert_eq!(
                    carried[i].iter().copied().collect::<Vec<_>>(),
                    fresh_ids.clone(),
                    "sub {} ({:?}) diverges from a fresh answer at epoch {}",
                    i,
                    query,
                    epoch
                );
                if let Some(fresh) = &fresh_ranked {
                    let maintained = carried_ranked[i].as_deref().unwrap_or(&[]);
                    prop_assert_eq!(
                        ranked_bits(maintained),
                        ranked_bits(fresh),
                        "sub {} ranking diverges at epoch {}",
                        i,
                        epoch
                    );
                }
                if let Some(mon) = oracles[i].as_ref() {
                    prop_assert_eq!(
                        mon.current(),
                        fresh_ids,
                        "broadcast oracle for sub {} diverges at epoch {}",
                        i,
                        epoch
                    );
                }
            }
        }

        // The subscriptions' own maintained views agree with the carried
        // trajectories, and nothing else is queued.
        for (i, sub) in subs.iter_mut().enumerate() {
            prop_assert_eq!(
                sub.current(),
                carried[i].iter().copied().collect::<Vec<_>>()
            );
            prop_assert!(sub.poll().unwrap().is_empty());
        }
    }
}
