//! The correctness gate: answers checked against the repository's own
//! oracles, inside the benchmark command. Every comparison counts as one
//! attempt; a mismatch or an `Err` counts as failed.

use crate::metrics::Sink;
use crate::ops::CASE_RADIUS;
use crate::stats::Digest;
use crate::streams::Case;
use crate::world::Stack;
use idq_core::Snapshot;
use idq_history::HistorySession;
use idq_objects::ObjectId;
use idq_query::{naive_knn, naive_range, Outcome, Query};

/// The pipeline's kNN distances must match the oracle's to this.
const TIE: f64 = 1e-9;

/// Sorted member ids of an outcome, for set comparison.
fn member_ids(outcome: &Outcome) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = match outcome {
        Outcome::Range(r) => r.results.iter().map(|h| h.object).collect(),
        Outcome::Knn(k) => k.results.iter().map(|h| h.object).collect(),
        _ => Vec::new(),
    };
    ids.sort_unstable();
    ids
}

/// Executes `queries` on `snapshot` and compares each answer with the
/// brute-force oracle (`naive_range` / `naive_knn`: one full-graph
/// Dijkstra, every object's exact expected distance). Returns a digest
/// of the answers, which must repeat for a seed.
pub fn against_oracle(snapshot: &Snapshot, queries: &[Query], sink: &mut Sink) -> Digest {
    let (space, store) = (snapshot.space(), snapshot.store());
    let graph = snapshot.index().doors_graph();
    let mut digest = Digest::default();
    for query in queries {
        let outcome = match snapshot.execute(query) {
            Ok(o) => o,
            Err(e) => {
                sink.fail(&format!("{query:?}: {e}"));
                continue;
            }
        };
        let ok = match (*query, &outcome) {
            (Query::Range { q, r }, Outcome::Range(fast)) => {
                for hit in &fast.results {
                    digest.u64(hit.object.0);
                }
                naive_range(space, graph, store, q, r).is_ok_and(|slow| {
                    let slow_ids: Vec<ObjectId> = slow.iter().map(|x| x.0).collect();
                    member_ids(&outcome) == slow_ids
                })
            }
            (Query::Knn { q, k }, Outcome::Knn(fast)) => {
                for hit in &fast.results {
                    digest.u64(hit.object.0);
                    digest.f64(hit.distance);
                }
                naive_knn(space, graph, store, q, k).is_ok_and(|slow| {
                    fast.results.len() == slow.len()
                        && fast.results.iter().zip(&slow).all(|(hit, &(id, d))| {
                            // Ids may permute only under exact ties.
                            (hit.distance - d).abs() < TIE
                                && (hit.object == id || (hit.distance - d).abs() < 1e-12)
                        })
                })
            }
            _ => false,
        };
        if ok {
            sink.attempt(true);
        } else {
            sink.fail(&format!("{query:?} disagrees with the naive oracle"));
        }
    }
    digest
}

/// After the last commit is routed: every polled subscription's
/// maintained answer must equal a fresh `execute` at the final epoch.
pub fn fleet_is_current(stack: &mut Stack, sink: &mut Sink) {
    stack.service.quiesce();
    let snapshot = stack.service.snapshot();
    for sub in stack.polled() {
        let fresh = sub
            .poll()
            .ok()
            .and_then(|_| snapshot.execute(sub.query()).ok())
            .map(|o| member_ids(&o));
        if fresh == Some(sub.current()) && sub.epoch() <= snapshot.version() {
            sink.attempt(true);
        } else {
            sink.fail(&format!(
                "subscription {:?} holds {} members, fresh execute at epoch {} finds {:?}",
                sub.query(),
                sub.current().len(),
                snapshot.version(),
                fresh.map(|f| f.len())
            ));
        }
    }
}

/// `RangeDuring` of sampled cases against per-epoch queries on
/// `reconstruct(epoch)` — the replayed monitor walk versus one full
/// reconstruction and one ordinary query per epoch.
pub fn history_against_reconstruction(session: &HistorySession, cases: &[Case], sink: &mut Sink) {
    for case in cases {
        let mut union: Vec<ObjectId> = Vec::new();
        let mut ok = true;
        for epoch in case.from..=case.to {
            let members = session.reconstruct(epoch).ok().and_then(|snap| {
                snap.execute(&Query::Range {
                    q: case.q,
                    r: CASE_RADIUS,
                })
                .ok()
            });
            match members {
                Some(o) => union.extend(member_ids(&o)),
                None => ok = false,
            }
        }
        union.sort_unstable();
        union.dedup();
        ok &= session
            .range_during(case.q, CASE_RADIUS, case.from, case.to)
            .is_ok_and(|during| during == union);

        if ok {
            sink.attempt(true);
        } else {
            sink.fail(&format!("{case:?} disagrees with per-epoch reconstruction"));
        }
    }
}
