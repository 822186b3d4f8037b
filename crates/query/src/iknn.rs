//! Indoor k-Nearest-Neighbour Query — `ikNNQ` (Def. 4, Algorithm 2) — in
//! one pass.
//!
//! The filtering phase is one best-first walk over partitions
//! (`adaptive_kbound`): it derives the `kbound` radius and, from the
//! same visits, yields the candidate set, so no second index search runs.
//! Pruning keeps each survivor's lower bound, and refinement runs
//! best-first in ascending lower-bound order: it stops as soon as `k`
//! exact distances are in hand and the next lower bound is strictly
//! greater than the k-th of them.

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::{summary_of, EvalContext};
use crate::stats::QueryStats;
use idq_distance::SharedPathUpper;
use idq_geom::{IdMap, Mbr3, OrdF64};
use idq_index::CompositeIndex;
use idq_model::IndoorPoint;
use idq_model::{IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::time::Instant;

/// What the filtering walk hands to the rest of the query.
struct Walk {
    /// The k-th smallest TLU; `∞` when fewer than `k` were finite.
    kbound: f64,
    /// The seen objects whose MBR lower bound is at most `kbound`,
    /// ascending.
    candidates: Vec<ObjectId>,
    /// Partitions visited.
    partitions: usize,
    /// Distinct objects seen.
    seen: usize,
}

/// `kSeedsSelection` (Algorithm 5), made adaptive, and the whole
/// filtering phase of `ikNNQ`. Starting from the query's partition,
/// partitions are explored in ascending order of their geometric lower
/// bound (a min-heap keyed by the skeleton bound of Eq. 10); every
/// bucketed object is a seed and contributes its Topological Looser Upper
/// Bound (Lemma 3). Where the paper stops at the first `k` seeds,
/// expansion here continues while an unexplored partition's lower bound
/// still beats the running k-th smallest TLU — so a nearby-but-huge
/// corridor cannot freeze a loose bound in place. The k-th smallest TLU
/// is `kbound`: it certifies that at least k objects lie within it.
///
/// Every seen object's MBR lower bound (Lemma 6; the 3D Euclidean bound
/// when `use_skeleton` is off) is recorded, and the objects with bound
/// `≤ kbound` are the candidate set. It holds every object within
/// `kbound`: such an object has an instance on a path of length
/// `≤ kbound`, every partition on that path has an Eq. 10 key
/// `≤ kbound`, and the walk stops only at keys above the running k-th
/// TLU, which never falls below `kbound` — so it visits them all,
/// including the partition hosting that instance, which lists the
/// object: the index refuses an object with an instance outside every
/// partition ([`CompositeIndex::check_covered`]). Every candidate passes
/// the object test `RangeSearch` applies at radius `kbound`; the walk
/// reaches fewer such objects.
///
/// The same bound screens before pricing: once k TLUs are banked, an
/// object whose bound exceeds the running k-th TLU has
/// `TLU ≥ |q,O|_I ≥ lb > kth` and cannot improve the heap, so skipping it
/// leaves `kbound` bit-identical while saving the summary read and path
/// pricing. Each priced seed is read from its memoised subregion summary,
/// never its instances; the summary reads and the priced seeds
/// (`seeds_priced`) are counted into `stats`.
///
/// With the query point outside every partition the walk sees nothing
/// and `kbound` is `∞`; the caller's context build then reports it.
fn adaptive_kbound(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    use_skeleton: bool,
    stats: &mut QueryStats,
) -> Result<Walk, QueryError> {
    let Some(start) = space.partition_at(q) else {
        return Ok(Walk {
            kbound: f64::INFINITY,
            candidates: Vec::new(),
            partitions: 0,
            seen: 0,
        });
    };
    let skeleton = index.skeleton();
    let mut scratch = skeleton.scratch(q);
    // Eq. 10 at screen ∞: bit-identical to `min_skeleton_distance`, its
    // double loop factored once per target floor for the whole walk.
    let mut eq10 = |m: &Mbr3| skeleton.min_skeleton_distance_pruned(&mut scratch, m, f64::INFINITY);
    let q3 = q.at_elevation(space.floor_height());
    let mut frontier: BinaryHeap<Reverse<(OrdF64, PartitionId)>> = BinaryHeap::new();
    frontier.push(Reverse((OrdF64(0.0), start)));
    // Per-query partition state is a slot vector: partition ids are
    // dense arena indices of this space.
    let mut visited = vec![false; space.partition_slots()];
    let mut partitions = 0;
    // Every object seen, with its MBR lower bound.
    let mut seen: IdMap<ObjectId, f64> = IdMap::default();
    // Max-heap keeping the k smallest TLUs seen so far.
    let mut best: BinaryHeap<OrdF64> = BinaryHeap::new();
    let kth = |best: &BinaryHeap<OrdF64>| match best.peek() {
        Some(top) if best.len() >= k => top.0,
        _ => f64::INFINITY,
    };
    // One shared, lazily growing best-first search prices every seed.
    let mut tlu_eval = SharedPathUpper::new(space, index.doors_graph(), q);

    while let Some(Reverse((OrdF64(pmin), pid))) = frontier.pop() {
        if pmin > kth(&best) {
            break; // no unexplored partition can improve the k-th TLU
        }
        if std::mem::replace(&mut visited[pid.index()], true) {
            continue;
        }
        partitions += 1;
        for &u in index.units().units_of(pid) {
            for &o in index.object_layer().objects_in(u) {
                let Entry::Vacant(slot) = seen.entry(o) else {
                    continue;
                };
                let Ok(mbr) = index.object_layer().object_mbr(o) else {
                    continue;
                };
                let lb = *slot.insert(if use_skeleton {
                    eq10(&mbr)
                } else {
                    mbr.min_dist(q3)
                });
                if lb > kth(&best) {
                    continue; // the screen
                }
                let summary = summary_of(space, index, store.get(o)?, stats)?;
                let tlu = tlu_eval.upper(summary.iter());
                stats.seeds_priced += 1;
                if tlu.is_finite() {
                    if best.len() < k {
                        best.push(OrdF64(tlu));
                    } else if OrdF64(tlu) < *best.peek().expect("non-empty") {
                        best.pop();
                        best.push(OrdF64(tlu));
                    }
                }
            }
        }
        // Expand to adjacent partitions, keyed by their geometric lower
        // bound (Eq. 10).
        let Ok(doors) = space.doors_of(pid) else {
            continue;
        };
        for &d in doors {
            if !space.can_leave(d, pid) {
                continue;
            }
            let Ok(door) = space.door(d) else { continue };
            let Some(next) = door.other_side(pid) else {
                continue;
            };
            if visited[next.index()] {
                continue;
            }
            let Ok(p) = space.partition(next) else {
                continue;
            };
            let mbr = Mbr3::spanning(
                p.bbox,
                (p.floor_lo, p.floor_hi),
                (space.elevation(p.floor_lo), space.elevation(p.floor_hi)),
            );
            frontier.push(Reverse((OrdF64(eq10(&mbr)), next)));
        }
    }
    let kbound = kth(&best);
    let mut candidates: Vec<ObjectId> = seen
        .iter()
        .filter(|&(_, &lb)| lb <= kbound)
        .map(|(&o, _)| o)
        .collect();
    candidates.sort_unstable();
    Ok(Walk {
        kbound,
        candidates,
        partitions,
        seen: seen.len(),
    })
}

/// One result object of a kNN query, with its exact expected distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KnnHit {
    /// The object.
    pub object: ObjectId,
    /// Exact expected indoor distance `|q,O|_I`.
    pub distance: f64,
}

/// Result of a kNN query.
#[derive(Clone, Debug)]
pub struct KnnResult {
    /// The `k` nearest objects, ascending by distance (ties by id). May be
    /// shorter than `k` when the reachable population is smaller.
    pub results: Vec<KnnHit>,
    /// Phase timings and counters.
    pub stats: QueryStats,
    /// The `kbound` radius derived from the seeds' looser upper bounds.
    pub kbound: f64,
}

/// Phase-1 output of a kNN query: the kbound and the walk's candidates.
pub(crate) struct KnnPrep {
    pub q: IndoorPoint,
    pub k: usize,
    pub kbound: f64,
    pub objects: Vec<ObjectId>,
    pub stats: QueryStats,
}

/// Validates the query and runs the filtering walk. For kNN the
/// retrieval counters mean: `partitions_retrieved` the partitions the
/// walk visited, `entries_checked` the distinct objects it saw,
/// `seeds_priced` those of them it priced for a TLU, and `nodes_visited`
/// 0 (no R-tree descent).
pub(crate) fn knn_prep(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    options: &QueryOptions,
) -> Result<KnnPrep, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    index.check_fresh(space)?;
    let mut stats = QueryStats {
        total_objects: store.len(),
        ..QueryStats::default()
    };

    // Phase 1: one walk derives kbound and yields the candidates.
    let t = Instant::now();
    let walk = adaptive_kbound(space, index, store, q, k, options.use_skeleton, &mut stats)?;
    stats.filtering_ms = t.elapsed().as_secs_f64() * 1e3;
    stats.candidates_after_filter = walk.candidates.len();
    stats.partitions_retrieved = walk.partitions;
    stats.entries_checked = walk.seen;

    Ok(KnnPrep {
        q,
        k,
        kbound: walk.kbound,
        objects: walk.candidates,
        stats,
    })
}

/// Phases 3–4 against an evaluation context whose banded door distances
/// cover (at least) the prep's reach `kbound + slack`.
pub(crate) fn knn_finish(
    ctx: &mut EvalContext<'_>,
    prep: KnnPrep,
    options: &QueryOptions,
) -> Result<KnnResult, QueryError> {
    let KnnPrep {
        k,
        kbound,
        objects,
        mut stats,
        ..
    } = prep;

    // Phase 3: pruning around the k-th smallest upper bound. Survivors
    // keep their lower bound, ascending with ties by id, for phase 4.
    let t = Instant::now();
    let mut to_refine: Vec<(f64, ObjectId)> = Vec::new();
    if options.use_pruning && objects.len() > k {
        let mut bounds = Vec::with_capacity(objects.len());
        for &o in &objects {
            bounds.push((o, ctx.bounds(o)?));
        }
        // O_k: the object with the k-th smallest upper bound.
        let mut uppers: Vec<f64> = bounds.iter().map(|(_, b)| b.upper).collect();
        uppers.sort_by(f64::total_cmp);
        let ok_upper = uppers[k - 1];
        // Sound under banding: lower bounds are clamped to the exit
        // horizon (see `subregion_bounds`) so they never exceed a true
        // distance, and upper bounds only loosen under truncation — a
        // pruned object's true distance therefore provably exceeds the
        // k-th smallest true distance.
        for (o, b) in bounds {
            if b.lower <= ok_upper {
                to_refine.push((b.lower, o));
            } else {
                stats.pruned_by_bounds += 1;
            }
        }
        to_refine.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    } else {
        // No bounds: 0 is a lower bound of every distance, so every
        // candidate refines.
        to_refine = objects.into_iter().map(|o| (0.0, o)).collect();
    }
    stats.pruning_ms = t.elapsed().as_secs_f64() * 1e3;

    // Phase 4: best-first refinement into a max-heap of the k smallest
    // exact (distance, id). Once it is full, a candidate whose lower
    // bound is strictly above its top cannot enter it, and neither can
    // any later one; a tie still refines, since a smaller id wins it.
    let t = Instant::now();
    let mut top: BinaryHeap<(OrdF64, ObjectId)> = BinaryHeap::with_capacity(k + 1);
    for (i, &(lower, o)) in to_refine.iter().enumerate() {
        if top.len() == k && lower > top.peek().expect("k ≥ 1").0 .0 {
            stats.pruned_by_bounds += to_refine.len() - i;
            break;
        }
        stats.refined += 1;
        // The k-th true distance is at most kbound; values beyond it can
        // only lose, so kbound is the safe fallback threshold.
        let v = ctx.refine_with_threshold(o, kbound, options)?;
        if v.is_finite() {
            top.push((OrdF64(v), o));
            if top.len() > k {
                top.pop();
            }
        }
    }
    stats.refinement_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.drain_into(&mut stats);

    Ok(KnnResult {
        results: top
            .into_sorted_vec()
            .into_iter()
            .map(|(d, object)| KnnHit {
                object,
                distance: d.0,
            })
            .collect(),
        stats,
        kbound,
    })
}

/// Evaluates `ikNN_{q,k}(O)` (Algorithm 2).
pub fn knn_query(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    q: IndoorPoint,
    k: usize,
    options: &QueryOptions,
) -> Result<KnnResult, QueryError> {
    let mut prep = knn_prep(space, index, store, q, k, options)?;

    // Phase 2: banded door distances truncated at the kbound's reach
    // (∞ — a complete context — when fewer than k seeds were found).
    let t = Instant::now();
    let horizon = prep.kbound + options.subgraph_slack;
    let mut ctx = EvalContext::new(space, store, index, q, horizon, options)?;
    prep.stats.subgraph_ms = t.elapsed().as_secs_f64() * 1e3;
    prep.stats.dijkstras_run = 1;

    knn_finish(&mut ctx, prep, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_knn;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::{FloorPlanBuilder, SplitLine};
    use idq_objects::UncertainObject;
    use idq_workloads::{
        generate_building, generate_objects, generate_query_points, BuildingConfig, ObjectConfig,
        QueryPointConfig,
    };
    use proptest::prelude::*;

    /// What happens to one generated room after indexing.
    #[derive(Clone, Copy, Debug)]
    enum RoomChange {
        /// The room's occupants are removed, then the room is deleted;
        /// objects whose regions reach into it are re-footprinted.
        Delete,
        /// A sliding wall with a door splits the room into two new
        /// partitions, whose slots lie past those the index was built
        /// with; two explicit objects sit one in each half.
        Split,
    }

    /// A generated two-floor mall (staircases, one-way rooms) with four
    /// explicit objects that each have an instance on the building's
    /// south wall, and — with `change` — one room changed after indexing.
    /// Returns the query points that still lie in a partition, and the
    /// halves of a split room.
    fn changed_mall(
        seed: u64,
        change: Option<(RoomChange, usize)>,
    ) -> (
        IndoorSpace,
        ObjectStore,
        CompositeIndex,
        Vec<IndoorPoint>,
        Vec<PartitionId>,
    ) {
        let building = generate_building(&BuildingConfig {
            bands: 2,
            rooms_per_side: 3,
            one_way_rooms: 1,
            ..BuildingConfig::with_floors(2)
        })
        .unwrap();
        let config = ObjectConfig {
            count: 60,
            radius: 10.0,
            instances: 12,
            seed,
        };
        let mut store = generate_objects(&building, &config).unwrap();
        for i in 0..4u64 {
            let x = 50.0 + 120.0 * i as f64;
            let region = Circle::new(Point2::new(x, 6.0), 8.0);
            let positions = vec![Point2::new(x, 5.0), Point2::new(x + 3.0, 0.0)];
            let floor = (i % 2) as u16;
            let o =
                UncertainObject::with_uniform_weights(ObjectId(1000 + i), region, floor, positions);
            store.insert(o.unwrap()).unwrap();
        }
        let points = generate_query_points(
            &building,
            &QueryPointConfig {
                count: 4,
                seed: seed ^ 0x5eed,
            },
        );
        let rooms = building.rooms_by_floor.concat();
        let mut space = building.space;
        let changed = change.map(|(how, i)| (how, rooms[i % rooms.len()]));
        // The split line runs across the room's middle, parallel to the
        // corridor wall that carries its doors.
        let (room_floor, bbox) = match changed {
            Some((_, room)) => {
                let p = space.partition(room).unwrap();
                (p.floor_lo, p.bbox)
            }
            None => (0, Rect2::from_bounds(0.0, 0.0, 1.0, 1.0)),
        };
        let (cx, mid) = ((bbox.lo.x + bbox.hi.x) / 2.0, (bbox.lo.y + bbox.hi.y) / 2.0);
        if let Some((RoomChange::Split, _)) = changed {
            let quarter = (mid - bbox.lo.y) / 2.0;
            for (id, y) in [(2000, mid - quarter), (2001, mid + quarter)] {
                let region = Circle::new(Point2::new(cx, y), 1.0);
                let positions = vec![Point2::new(cx - 0.5, y), Point2::new(cx + 0.5, y)];
                let o = UncertainObject::with_uniform_weights(
                    ObjectId(id),
                    region,
                    room_floor,
                    positions,
                );
                store.insert(o.unwrap()).unwrap();
            }
        }
        let mut index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let slots = space.partition_slots();
        let (halves, events) = match changed {
            None => (Vec::new(), Vec::new()),
            Some((RoomChange::Delete, room)) => {
                let p = space.partition(room).unwrap();
                let occupants: Vec<ObjectId> = store
                    .iter()
                    .filter(|o| {
                        o.instances()
                            .iter()
                            .any(|i| p.contains(i.position, i.floor))
                    })
                    .map(|o| o.id)
                    .collect();
                for id in occupants {
                    store.remove(id).unwrap();
                    index.remove_object(id).unwrap();
                }
                (Vec::new(), space.delete_partition(room).unwrap())
            }
            Some((RoomChange::Split, room)) => {
                let door = Some(Point2::new(cx, mid));
                let (halves, events) = space
                    .split_partition(room, SplitLine::AtY(mid), door)
                    .unwrap();
                assert!(
                    space.partition_slots() > slots && halves.iter().all(|h| h.index() >= slots)
                );
                (halves.to_vec(), events)
            }
        };
        for event in events {
            index.apply_topology(&space, &store, &event).unwrap();
        }
        let points = points
            .into_iter()
            .filter(|&q| space.partition_at(q).is_some())
            .collect();
        (space, store, index, points, halves)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The walk's candidates hold every object whose exact distance
        /// (refinement's arithmetic on the full graph) is within
        /// `kbound`, and pass `RangeSearch`'s object test at `kbound`, so
        /// all are in what `RangeSearch` returns at `kbound` /
        /// `kbound + slack`. The answers are that exact
        /// ranking's first `k`, bit for bit — also when a split adds
        /// partition slots the index was not built with, where every
        /// object in either half with a finite distance has a finite TLU.
        #[test]
        fn walk_candidates_lie_between_the_answers_and_range_search(
            seed in any::<u64>(),
            (change, room) in (0u8..3, any::<usize>()),
            k in 1usize..40,
        ) {
            let change = match change {
                0 => None,
                1 => Some((RoomChange::Delete, room)),
                _ => Some((RoomChange::Split, room)),
            };
            let (space, store, index, points, halves) = changed_mall(seed, change);
            let layer = index.object_layer();
            // Each object with a subregion in a split half, with its summary.
            let mut in_halves = Vec::new();
            for o in store.ids_sorted() {
                let object = store.get(o).unwrap();
                let summary =
                    summary_of(&space, &index, object, &mut QueryStats::default()).unwrap();
                if summary.iter().any(|s| halves.contains(&s.partition)) {
                    in_halves.push((o, summary));
                }
            }
            for (i, &half) in halves.iter().enumerate() {
                let explicit = ObjectId(2000 + i as u64);
                prop_assert!(
                    in_halves.iter().any(|(o, summary)| {
                        *o == explicit && summary.iter().any(|s| s.partition == half)
                    }),
                    "{} lies in {}", explicit, half
                );
            }
            let base = QueryOptions::for_max_radius(10.0);
            for q in points {
                let mut ctx =
                    EvalContext::new(&space, &store, &index, q, f64::INFINITY, &base).unwrap();
                let mut exact: Vec<(OrdF64, ObjectId)> = Vec::new();
                for o in store.ids_sorted() {
                    let d = ctx.refine_full(o).unwrap();
                    if d.is_finite() {
                        exact.push((OrdF64(d), o));
                    }
                }
                exact.sort();
                let mut tlu = SharedPathUpper::new(&space, index.doors_graph(), q);
                for (o, summary) in &in_halves {
                    if exact.iter().any(|&(_, e)| e == *o) {
                        prop_assert!(tlu.upper(summary.iter()).is_finite(), "{} has no TLU", o);
                    }
                }
                let want: Vec<(ObjectId, u64)> =
                    exact.iter().take(k).map(|&(d, o)| (o, d.0.to_bits())).collect();
                for opts in [base, base.without_skeleton()] {
                    let prep = knn_prep(&space, &index, &store, q, k, &opts).unwrap();
                    let (kbound, candidates) = (prep.kbound, &prep.objects);
                    prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted");
                    let range = index.range_search_dual(
                        &space, q, kbound, kbound + opts.subgraph_slack, opts.use_skeleton,
                    );
                    let q3 = q.at_elevation(space.floor_height());
                    for &o in candidates {
                        let mbr = layer.object_mbr(o).unwrap();
                        let lb = if opts.use_skeleton {
                            index.min_skeleton_distance(&space, q, &mbr)
                        } else {
                            mbr.min_dist(q3)
                        };
                        prop_assert!(lb <= kbound, "{}: bound {} > {}", o, lb, kbound);
                        prop_assert!(range.objects.contains(&o), "{} beyond RangeSearch", o);
                    }
                    for &(d, o) in &exact {
                        if d.0 <= kbound {
                            prop_assert!(candidates.contains(&o), "{} at {} ≤ {}", o, d.0, kbound);
                        }
                    }
                    let out = knn_query(&space, &index, &store, q, k, &opts).unwrap();
                    let got: Vec<(ObjectId, u64)> =
                        out.results.iter().map(|h| (h.object, h.distance.to_bits())).collect();
                    prop_assert_eq!(got, want.clone());
                }
            }
        }
    }

    /// Same two-floor world as the iRQ tests.
    fn setup() -> (IndoorSpace, ObjectStore, CompositeIndex) {
        let mut b = FloorPlanBuilder::new(4.0);
        let mut rooms = Vec::new();
        for f in 0..2u16 {
            for i in 0..3 {
                rooms.push(
                    b.add_room(
                        f,
                        Rect2::from_bounds(20.0 * i as f64, 0.0, 20.0 * (i + 1) as f64, 10.0),
                    )
                    .unwrap(),
                );
            }
        }
        for f in 0..2usize {
            for i in 0..2 {
                b.add_door_between(
                    rooms[f * 3 + i],
                    rooms[f * 3 + i + 1],
                    Point2::new(20.0 * (i + 1) as f64, 5.0),
                )
                .unwrap();
            }
        }
        let st = b
            .add_staircase((0, 1), Rect2::from_bounds(60.0, 0.0, 64.0, 10.0))
            .unwrap();
        b.add_staircase_entrance(st, rooms[2], 0, Point2::new(60.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(st, rooms[5], 1, Point2::new(60.0, 5.0))
            .unwrap();
        let space = b.finish().unwrap();

        let mut store = ObjectStore::new();
        let mut add = |id: u64, x: f64, f: u16| {
            store
                .insert(
                    UncertainObject::with_uniform_weights(
                        ObjectId(id),
                        Circle::new(Point2::new(x, 5.0), 2.0),
                        f,
                        vec![Point2::new(x - 1.0, 5.0), Point2::new(x + 1.0, 4.0)],
                    )
                    .unwrap(),
                )
                .unwrap();
        };
        add(1, 5.0, 0);
        add(2, 30.0, 0);
        add(3, 55.0, 0);
        add(4, 5.0, 1);
        add(5, 55.0, 1);
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    #[test]
    fn matches_naive_oracle_for_various_k() {
        let (space, store, index) = setup();
        let opts = QueryOptions::default();
        for (qx, qf) in [(5.0, 0u16), (30.0, 0), (55.0, 1)] {
            let q = IndoorPoint::new(Point2::new(qx, 5.0), qf);
            for k in [1, 2, 3, 5] {
                let fast = knn_query(&space, &index, &store, q, k, &opts).unwrap();
                let slow = naive_knn(&space, index.doors_graph(), &store, q, k).unwrap();
                assert_eq!(fast.results.len(), slow.len(), "q=({qx},{qf}) k={k}");
                for (hit, (oid, od)) in fast.results.iter().zip(&slow) {
                    assert_eq!(hit.object, *oid, "q=({qx},{qf}) k={k}");
                    assert!((hit.distance - od).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_population() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let res = knn_query(&space, &index, &store, q, 50, &QueryOptions::default()).unwrap();
        assert_eq!(res.results.len(), 5, "all reachable objects returned");
        // Ascending distances.
        for w in res.results.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn a_tie_at_the_kth_distance_still_refines() {
        // One room. Object 5 straddles q (instances 2 m and 10 m away,
        // expected distance 6, loose lower bound); object 3 is a point
        // 6 m away (tight lower bound 6). Best-first refines 5 first;
        // 3's lower bound equals the heap's top, and 3 wins the tie by id.
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, Rect2::from_bounds(0.0, 0.0, 30.0, 10.0))
            .unwrap();
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        let spread = vec![Point2::new(8.0, 5.0), Point2::new(20.0, 5.0)];
        let region = Circle::new(Point2::new(14.0, 5.0), 6.0);
        store
            .insert(UncertainObject::with_uniform_weights(ObjectId(5), region, 0, spread).unwrap())
            .unwrap();
        let point = IndoorPoint::new(Point2::new(4.0, 5.0), 0);
        store
            .insert(UncertainObject::point_object(ObjectId(3), point))
            .unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(10.0, 5.0), 0);
        let res = knn_query(&space, &index, &store, q, 1, &QueryOptions::default()).unwrap();
        assert_eq!(
            res.results,
            vec![KnnHit {
                object: ObjectId(3),
                distance: 6.0
            }]
        );
        assert_eq!(res.stats.refined, 2, "the tie was refined");
    }

    #[test]
    fn zero_k_rejected_and_empty_store_ok() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        assert!(matches!(
            knn_query(&space, &index, &store, q, 0, &QueryOptions::default()),
            Err(QueryError::ZeroK)
        ));
        let empty = ObjectStore::new();
        let idx = CompositeIndex::build(&space, &empty, IndexConfig::default()).unwrap();
        let res = knn_query(&space, &idx, &empty, q, 3, &QueryOptions::default()).unwrap();
        assert!(res.results.is_empty());
    }

    #[test]
    fn ablations_agree_on_results() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(30.0, 5.0), 0);
        let base = QueryOptions::default();
        let a = knn_query(&space, &index, &store, q, 3, &base).unwrap();
        let b = knn_query(&space, &index, &store, q, 3, &base.without_pruning()).unwrap();
        let c = knn_query(&space, &index, &store, q, 3, &base.with_exact_refinement()).unwrap();
        let take = |r: &KnnResult| r.results.iter().map(|h| h.object).collect::<Vec<_>>();
        assert_eq!(take(&a), take(&b));
        assert_eq!(take(&a), take(&c));
        assert!(b.stats.refined >= a.stats.refined);
    }

    #[test]
    fn kbound_is_a_valid_upper_bound() {
        let (space, store, index) = setup();
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let res = knn_query(&space, &index, &store, q, 2, &QueryOptions::default()).unwrap();
        assert!(res.kbound.is_finite());
        // Every returned distance is within kbound.
        for h in &res.results {
            assert!(h.distance <= res.kbound + 1e-9);
        }
        // The k TLUs behind kbound were priced among the seen objects; iRQ
        // prices none.
        let s = res.stats;
        assert!(
            s.seeds_priced >= 2 && s.seeds_priced <= s.entries_checked,
            "{s}"
        );
        let range = crate::range_query(&space, &index, &store, q, 30.0, &QueryOptions::default());
        assert_eq!(range.unwrap().stats.seeds_priced, 0);
    }
}
