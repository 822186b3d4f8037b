//! Indoor k-Nearest-Neighbour Query — `ikNNQ` (Def. 4, Algorithm 2) — as
//! one multi-step search.
//!
//! Where the paper seeds the query with `kSeedsSelection` (Algorithm 5)
//! and an upper-bound radius, this is optimal multi-step kNN (Seidl &
//! Kriegel, SIGMOD 1998), which needs no upper bound. One min-heap holds
//! partitions and objects, every key is a lower bound, and an object is
//! refined exactly only when its best bound pops. The search stops at the
//! first key strictly above the k-th exact distance in hand, so the
//! refined set is exactly the objects whose best key is at most the final
//! k-th distance: no search with the same bounds refines fewer. Three
//! kinds of entry share the heap:
//!
//! * a partition, keyed by Eq. 10 on its MBR (the skeleton lower bound);
//! * an object first listed by a popped partition, at its **MBR key**:
//!   Eq. 10 on its MBR (Lemma 6), or the 3D Euclidean bound when
//!   `use_skeleton` is off;
//! * an object whose MBR entry popped, at its **summary key**
//!   `max(MBR key, summary lower bound)` (Table III, from the current
//!   context). With `use_pruning` off the MBR pop refines at once.
//!
//! The door-distance context starts at `band_for(2 × subgraph_slack)` and
//! grows in cache bands as the keys rise: to `band_for(key + slack)`
//! before an object is priced or refined past the horizon, and by one
//! band when a summary bound with a subregion clamped at the exit horizon
//! pops and the context has not grown since that bound was computed. A
//! bound with no clamped subregion equals the complete context's bit for
//! bit, so every refined key is the complete context's key; exact values
//! do not depend on the horizon either, so the answers are those of a
//! search over the complete context.

use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::pipeline::EvalContext;
use crate::stats::QueryStats;
use idq_distance::band_for;
use idq_geom::{IdSet, Mbr3, OrdF64};
use idq_index::CompositeIndex;
use idq_model::{IndoorPoint, IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

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
}

/// One entry of the search heap. Entries with equal keys pop in
/// declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    /// A partition, at its Eq. 10 key.
    Partition(PartitionId),
    /// An object at its MBR key.
    Seen(ObjectId),
    /// An object at its summary key. `Some(g)`: a subregion bound was
    /// clamped at the exit horizon of the context after `g` growths.
    Bounded(ObjectId, Option<u32>),
}

/// The four columns of Fig. 13(b).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Partition pops: listing objects and keying their MBRs.
    Filtering,
    /// Context growth.
    Subgraph,
    /// Summary reads: pricing an object's summary key.
    Pruning,
    /// Exact evaluations.
    Refinement,
}

/// Wall time per [`Phase`]. The clock is read only when the phase
/// changes, not per pop.
struct PhaseClock {
    phase: Phase,
    since: Instant,
    ms: [f64; 4],
}

impl PhaseClock {
    /// Charges the time since the last read to the current phase.
    fn read(&mut self) {
        let now = Instant::now();
        self.ms[self.phase as usize] += (now - self.since).as_secs_f64() * 1e3;
        self.since = now;
    }

    fn enter(&mut self, phase: Phase) {
        if phase != self.phase {
            self.read();
            self.phase = phase;
        }
    }
}

/// The search's state besides its context.
struct Search<'o> {
    options: &'o QueryOptions,
    heap: BinaryHeap<Reverse<(OrdF64, Entry)>>,
    clock: PhaseClock,
    /// Context growths so far: the tag of a clamped bound.
    growths: u32,
}

impl Search<'_> {
    /// Grows the context to `horizon` when that is wider.
    fn grow(&mut self, ctx: &mut EvalContext<'_>, horizon: f64) -> Result<(), QueryError> {
        if horizon > ctx.horizon() {
            self.clock.enter(Phase::Subgraph);
            ctx.grow(horizon)?;
            self.growths += 1;
        }
        Ok(())
    }

    /// Grows the context to cover an object evaluated at `key`.
    fn cover(&mut self, ctx: &mut EvalContext<'_>, key: f64) -> Result<(), QueryError> {
        let reach = key + self.options.subgraph_slack;
        if reach > ctx.horizon() {
            self.grow(ctx, band_for(reach))?;
        }
        Ok(())
    }

    /// Pushes `o` at its summary key, at least `key`.
    fn price(
        &mut self,
        ctx: &mut EvalContext<'_>,
        o: ObjectId,
        key: f64,
    ) -> Result<(), QueryError> {
        self.cover(ctx, key)?;
        self.clock.enter(Phase::Pruning);
        let b = ctx.bounds(o)?;
        let entry = Entry::Bounded(o, b.clamped.then_some(self.growths));
        self.heap.push(Reverse((OrdF64(key.max(b.lower)), entry)));
        Ok(())
    }
}

/// The context horizon a search starts at: `band_for(2 × slack)`.
pub(crate) fn start_horizon(options: &QueryOptions) -> f64 {
    band_for(2.0 * options.subgraph_slack)
}

/// Validates a kNN query; returns its initial statistics.
pub(crate) fn knn_validate(
    space: &IndoorSpace,
    index: &CompositeIndex,
    store: &ObjectStore,
    k: usize,
) -> Result<QueryStats, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    index.check_fresh(space)?;
    Ok(QueryStats {
        total_objects: store.len(),
        ..QueryStats::default()
    })
}

/// The multi-step search (see the module docs) on `ctx`, which it grows
/// in place. The retrieval counters mean: `partitions_retrieved` the
/// partitions popped, `entries_checked` the distinct objects seen,
/// `candidates_after_filter` the objects whose MBR entry popped,
/// `pruned_by_bounds` those of them not refined, and `nodes_visited` 0
/// (no R-tree descent). Context growths add to `dijkstras_run` unless
/// the query reuses a context its batch group built (`context_reuses`),
/// which charges it for no assembly.
pub(crate) fn knn_search(
    ctx: &mut EvalContext<'_>,
    k: usize,
    options: &QueryOptions,
    mut stats: QueryStats,
) -> Result<KnnResult, QueryError> {
    let (space, index, q) = (ctx.space, ctx.index, ctx.q);
    let mut search = Search {
        options,
        heap: BinaryHeap::new(),
        clock: PhaseClock {
            phase: Phase::Filtering,
            since: Instant::now(),
            ms: [0.0; 4],
        },
        growths: 0,
    };
    let skeleton = index.skeleton();
    let mut scratch = skeleton.scratch(q);
    // Eq. 10 at screen ∞: bit-identical to `min_skeleton_distance`, its
    // double loop factored once per target floor for the whole search.
    let mut eq10 = |m: &Mbr3| skeleton.min_skeleton_distance_pruned(&mut scratch, m, f64::INFINITY);
    let q3 = q.at_elevation(space.floor_height());
    let start = Entry::Partition(ctx.dd.source_partition);
    search.heap.push(Reverse((OrdF64(0.0), start)));
    // Per-query partition state is a slot vector: partition ids are
    // dense arena indices of this space.
    let mut visited = vec![false; space.partition_slots()];
    let mut seen: IdSet<ObjectId> = IdSet::default();
    // Max-heap of the k smallest exact (distance, id).
    let mut top: BinaryHeap<(OrdF64, ObjectId)> = BinaryHeap::with_capacity(k + 1);

    while let Some(Reverse((OrdF64(key), entry))) = search.heap.pop() {
        // Once the top is full, an entry keyed strictly above its k-th
        // distance cannot improve it, nor can any later one; a tie still
        // pops, since a smaller id wins it. A key of ∞ proves every
        // object left unreachable.
        if key == f64::INFINITY || (top.len() == k && key > top.peek().expect("k ≥ 1").0 .0) {
            break;
        }
        let o = match entry {
            Entry::Partition(pid) => {
                search.clock.enter(Phase::Filtering);
                if std::mem::replace(&mut visited[pid.index()], true) {
                    continue;
                }
                stats.partitions_retrieved += 1;
                for &u in index.units().units_of(pid) {
                    for &o in index.object_layer().objects_in(u) {
                        if !seen.insert(o) {
                            continue;
                        }
                        let Ok(mbr) = index.object_layer().object_mbr(o) else {
                            continue;
                        };
                        let lb = if options.use_skeleton {
                            eq10(&mbr)
                        } else {
                            mbr.min_dist(q3)
                        };
                        search.heap.push(Reverse((OrdF64(lb), Entry::Seen(o))));
                    }
                }
                // Expand to adjacent partitions, keyed by their
                // geometric lower bound (Eq. 10).
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
                    let entry = Entry::Partition(next);
                    search.heap.push(Reverse((OrdF64(eq10(&mbr)), entry)));
                }
                continue;
            }
            Entry::Seen(o) => {
                stats.candidates_after_filter += 1;
                if options.use_pruning {
                    search.price(ctx, o, key)?;
                    continue;
                }
                o
            }
            Entry::Bounded(o, Some(tag)) => {
                // A clamped bound is still valid; unless the context has
                // grown since it was computed, grow one band, then
                // re-key.
                if tag == search.growths {
                    search.grow(ctx, band_for(2.0 * ctx.horizon()))?;
                }
                search.price(ctx, o, key)?;
                continue;
            }
            Entry::Bounded(o, None) => o,
        };
        search.cover(ctx, key)?;
        search.clock.enter(Phase::Refinement);
        stats.refined += 1;
        let v = ctx.refine(o, options)?;
        if v.is_finite() {
            top.push((OrdF64(v), o));
            if top.len() > k {
                top.pop();
            }
        }
    }
    search.clock.read();
    let [filtering, subgraph, pruning, refinement] = search.clock.ms;
    stats.filtering_ms += filtering;
    stats.subgraph_ms += subgraph;
    stats.pruning_ms += pruning;
    stats.refinement_ms += refinement;
    stats.entries_checked = seen.len();
    stats.pruned_by_bounds = stats.candidates_after_filter - stats.refined;
    if stats.context_reuses == 0 {
        stats.dijkstras_run += search.growths as usize;
    }
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
    let stats = knn_validate(space, index, store, k)?;
    let t = Instant::now();
    let mut ctx = EvalContext::new(space, store, index, q, start_horizon(options), options)?;
    let stats = QueryStats {
        subgraph_ms: t.elapsed().as_secs_f64() * 1e3,
        dijkstras_run: 1,
        ..stats
    };
    knn_search(&mut ctx, k, options, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_knn;
    use crate::pipeline::summary_of;
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

    /// Every object's exact expected distance on a complete context,
    /// ascending `(distance, id)`, unreachable objects left out, as
    /// `(id, distance bits)`.
    fn exact_ranking(
        space: &IndoorSpace,
        store: &ObjectStore,
        index: &CompositeIndex,
        q: IndoorPoint,
    ) -> Vec<(ObjectId, u64)> {
        let opts = QueryOptions::default();
        let mut ctx = EvalContext::new(space, store, index, q, f64::INFINITY, &opts).unwrap();
        let mut exact: Vec<(OrdF64, ObjectId)> = Vec::new();
        for o in store.ids_sorted() {
            let d = ctx.refine_full(o).unwrap();
            if d.is_finite() {
                exact.push((OrdF64(d), o));
            }
        }
        exact.sort();
        exact.into_iter().map(|(d, o)| (o, d.0.to_bits())).collect()
    }

    fn bits(res: &KnnResult) -> Vec<(ObjectId, u64)> {
        res.results
            .iter()
            .map(|h| (h.object, h.distance.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The answers are the first `k` of the exact ranking (refinement's
        /// arithmetic on the full graph), bit for bit, with and without
        /// the skeleton — also after a deletion, and after a split adds
        /// partition slots the index was not built with.
        #[test]
        fn answers_are_the_exact_ranking_on_changed_malls(
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
            for (i, &half) in halves.iter().enumerate() {
                let explicit = ObjectId(2000 + i as u64);
                let object = store.get(explicit).unwrap();
                let summary =
                    summary_of(&space, &index, object, &mut QueryStats::default()).unwrap();
                prop_assert!(
                    summary.iter().any(|s| s.partition == half),
                    "{} lies in {}", explicit, half
                );
            }
            let base = QueryOptions::for_max_radius(10.0);
            for q in points {
                let mut want = exact_ranking(&space, &store, &index, q);
                want.truncate(k);
                for opts in [base, base.without_skeleton()] {
                    let out = knn_query(&space, &index, &store, q, k, &opts).unwrap();
                    prop_assert_eq!(bits(&out), want.clone());
                    let s = out.stats;
                    prop_assert!(s.refined <= s.candidates_after_filter, "{}", s);
                    prop_assert!(s.candidates_after_filter <= s.entries_checked, "{}", s);
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
    fn answers_are_the_exact_ranking_bit_for_bit() {
        let (space, store, index) = setup();
        for (qx, qf) in [(5.0, 0u16), (30.0, 0), (55.0, 1)] {
            let q = IndoorPoint::new(Point2::new(qx, 5.0), qf);
            let ranking = exact_ranking(&space, &store, &index, q);
            for k in 1..=6 {
                let res =
                    knn_query(&space, &index, &store, q, k, &QueryOptions::default()).unwrap();
                assert_eq!(
                    bits(&res),
                    ranking[..k.min(ranking.len())],
                    "q=({qx},{qf}) k={k}"
                );
                let s = res.stats;
                assert!(s.partitions_retrieved >= 1 && s.dijkstras_run >= 1, "{s}");
                assert_eq!(s.pruned_by_bounds, s.candidates_after_filter - s.refined);
            }
        }
    }

    #[test]
    fn a_one_way_room_terminates_the_growth() {
        // A corridor of twelve 50 m rooms; q sits in the first. Above it,
        // room U's only door is one-way out into the first room. Object 9
        // has one instance in U and one in the first room: U's subregion
        // bound is clamped at every finite band, and only a complete
        // context shows it unreachable.
        let mut b = FloorPlanBuilder::new(4.0);
        let rooms: Vec<PartitionId> = (0..12)
            .map(|i| {
                let x = 50.0 * i as f64;
                b.add_room(0, Rect2::from_bounds(x, 0.0, x + 50.0, 10.0))
                    .unwrap()
            })
            .collect();
        for (i, pair) in rooms.windows(2).enumerate() {
            let x = 50.0 * (i + 1) as f64;
            b.add_door_between(pair[0], pair[1], Point2::new(x, 5.0))
                .unwrap();
        }
        let u = b
            .add_room(0, Rect2::from_bounds(0.0, 10.0, 10.0, 20.0))
            .unwrap();
        b.add_one_way_door(u, rooms[0], Point2::new(5.0, 10.0))
            .unwrap();
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        for (id, x) in [(1, 75.0), (2, 225.0), (3, 475.0), (4, 575.0)] {
            let p = IndoorPoint::new(Point2::new(x, 5.0), 0);
            store
                .insert(UncertainObject::point_object(ObjectId(id), p))
                .unwrap();
        }
        let split = vec![Point2::new(5.0, 9.0), Point2::new(5.0, 11.0)];
        let region = Circle::new(Point2::new(5.0, 10.0), 2.0);
        store
            .insert(UncertainObject::with_uniform_weights(ObjectId(9), region, 0, split).unwrap())
            .unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(25.0, 5.0), 0);
        let ranking = exact_ranking(&space, &store, &index, q);
        assert_eq!(ranking.len(), 4, "object 9 is unreachable");
        let opts = QueryOptions::default();
        // Bands from the start band up to the first complete one: the
        // farthest door is 550 m from q's only seed door.
        let mut bands = vec![start_horizon(&opts)];
        while *bands.last().unwrap() < 550.0 {
            bands.push(2.0 * bands.last().unwrap());
        }
        for k in [1, 4, 5] {
            let res = knn_query(&space, &index, &store, q, k, &opts).unwrap();
            assert_eq!(bits(&res), ranking[..k.min(4)], "k={k}");
            assert!(
                res.stats.dijkstras_run <= bands.len(),
                "k={k}: {}",
                res.stats
            );
        }
    }
}
