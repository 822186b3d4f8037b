//! Shared-distance-cache equivalence: every query on a *warm* index — one
//! index kept across a randomized stream of range/kNN queries, topology
//! commits and standing subscriptions, its cache filled by every earlier
//! op — is bit-identical to the same query on a *cold* index rebuilt from
//! the current space and store for that op alone, whose every row is
//! freshly expanded. Agreement after a topology commit proves the warm
//! cache never serves a stale row (structural invalidation keyed on graph
//! identity works). A final cross-check compares complete cached rows
//! against the all-pairs [`PrecomputedD2D`] oracle.

use indoor_dq::geom::{Circle, Point2, Rect2};
use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::{FloorPlanBuilder, IndoorPoint, IndoorSpace};
use indoor_dq::objects::{ObjectId, ObjectStore, UncertainObject};
use indoor_dq::query::{knn_query, range_query, PrecomputedD2D, QueryOptions, RangeMonitor};
use proptest::prelude::*;

/// A 3×3 grid of 10 m rooms with a spanning corridor (row 0 and every
/// column connected) plus a random subset of extra horizontal doors.
#[allow(clippy::needless_range_loop)] // adjacent-cell indexing reads clearer
fn grid_world(extra_doors: &[bool]) -> IndoorSpace {
    let (nx, ny) = (3usize, 3usize);
    let mut b = FloorPlanBuilder::new(4.0);
    let mut rooms = vec![vec![]; ny];
    for (y, row) in rooms.iter_mut().enumerate() {
        for x in 0..nx {
            row.push(
                b.add_room(
                    0,
                    Rect2::from_bounds(
                        10.0 * x as f64,
                        10.0 * y as f64,
                        10.0 * (x + 1) as f64,
                        10.0 * (y + 1) as f64,
                    ),
                )
                .unwrap(),
            );
        }
    }
    for x in 0..nx - 1 {
        b.add_door_between(
            rooms[0][x],
            rooms[0][x + 1],
            Point2::new(10.0 * (x + 1) as f64, 5.0),
        )
        .unwrap();
    }
    for y in 0..ny - 1 {
        for x in 0..nx {
            b.add_door_between(
                rooms[y][x],
                rooms[y + 1][x],
                Point2::new(10.0 * x as f64 + 5.0, 10.0 * (y + 1) as f64),
            )
            .unwrap();
        }
    }
    let mut i = 0;
    for y in 1..ny {
        for x in 0..nx - 1 {
            if i < extra_doors.len() && extra_doors[i] {
                b.add_door_between(
                    rooms[y][x],
                    rooms[y][x + 1],
                    Point2::new(10.0 * (x + 1) as f64, 10.0 * y as f64 + 5.0),
                )
                .unwrap();
            }
            i += 1;
        }
    }
    b.finish().unwrap()
}

fn populate(positions: &[(f64, f64)]) -> ObjectStore {
    let mut store = ObjectStore::new();
    for (i, &(x, y)) in positions.iter().enumerate() {
        store
            .insert(
                UncertainObject::with_uniform_weights(
                    ObjectId(i as u64 + 1),
                    Circle::new(Point2::new(x, y), 2.0),
                    0,
                    vec![Point2::new(x - 1.0, y), Point2::new(x + 1.0, y - 0.5)],
                )
                .unwrap(),
            )
            .unwrap();
    }
    store
}

/// One step of the randomized stream, decoded from a raw tuple (the
/// vendored proptest stub has no `prop_oneof`/`prop_map`): `kind % 3`
/// selects the op, the remaining fields parameterize it.
#[derive(Clone, Copy, Debug)]
enum Op {
    Range { qx: f64, qy: f64, r: f64 },
    Knn { qx: f64, qy: f64, k: usize },
    ToggleDoor(usize),
}

fn decode(raw: (u8, f64, f64, usize)) -> Op {
    let (kind, a, b, n) = raw;
    let qx = 1.0 + 28.0 * a;
    let qy = 1.0 + 28.0 * b;
    match kind % 3 {
        0 => Op::Range {
            qx,
            qy,
            r: 5.0 + 55.0 * a.max(b),
        },
        1 => Op::Knn {
            qx,
            qy,
            k: 1 + n % 5,
        },
        _ => Op::ToggleDoor(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every query in a randomized stream of queries, topology commits
    /// and standing-subscription refreshes returns bit-identical answers
    /// on the warm index and on a cold rebuilt one.
    #[test]
    fn cached_queries_are_bit_identical_to_uncached(
        extra in proptest::collection::vec(any::<bool>(), 6),
        positions in proptest::collection::vec((5.0f64..25.0, 5.0f64..25.0), 4..8),
        raw_ops in proptest::collection::vec((0u8..3, 0.0f64..1.0, 0.0f64..1.0, 0usize..16), 6..14),
    ) {
        let mut space = grid_world(&extra);
        let store = populate(&positions);
        // ONE warm index, maintained incrementally across the stream; the
        // reference side rebuilds a cold one per op.
        let mut index =
            CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let cold = |space: &IndoorSpace| {
            CompositeIndex::build(space, &store, IndexConfig::default()).unwrap()
        };
        let opts = QueryOptions::default();

        // Two standing subscriptions over the same query, one per side.
        let mq = IndoorPoint::new(Point2::new(15.0, 15.0), 0);
        let mut mon_warm = RangeMonitor::new(mq, 25.0, opts).unwrap();
        let mut mon_cold = RangeMonitor::new(mq, 25.0, opts).unwrap();
        mon_warm.refresh(&space, &index, &store).unwrap();
        mon_cold.refresh(&space, &cold(&space), &store).unwrap();
        prop_assert_eq!(mon_warm.current(), mon_cold.current());

        let door_ids: Vec<_> = space.doors().map(|d| d.id).collect();
        let mut closed = vec![false; door_ids.len()];
        for raw in raw_ops {
            match decode(raw) {
                Op::Range { qx, qy, r } => {
                    let q = IndoorPoint::new(Point2::new(qx, qy), 0);
                    let a = range_query(&space, &index, &store, q, r, &opts).unwrap();
                    let b = range_query(&space, &cold(&space), &store, q, r, &opts).unwrap();
                    let key = |res: &indoor_dq::query::RangeResult| {
                        res.results
                            .iter()
                            .map(|h| (h.object, h.distance.to_bits(), h.certified_by_bound))
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(key(&a), key(&b), "range divergence at q={} r={}", q, r);
                    // The cold side expanded every row it read.
                    prop_assert_eq!(b.stats.shared_cache_hits, 0);
                }
                Op::Knn { qx, qy, k } => {
                    let q = IndoorPoint::new(Point2::new(qx, qy), 0);
                    let a = knn_query(&space, &index, &store, q, k, &opts).unwrap();
                    let b = knn_query(&space, &cold(&space), &store, q, k, &opts).unwrap();
                    let key = |res: &indoor_dq::query::KnnResult| {
                        res.results
                            .iter()
                            .map(|h| (h.object, h.distance.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(key(&a), key(&b), "kNN divergence at q={} k={}", q, k);
                }
                Op::ToggleDoor(i) => {
                    let i = i % door_ids.len();
                    let ev = if closed[i] {
                        space.open_door(door_ids[i]).unwrap()
                    } else {
                        space.close_door(door_ids[i]).unwrap()
                    };
                    closed[i] = !closed[i];
                    index.apply_topology(&space, &store, &ev).unwrap();
                    // Both subscriptions absorb the commit; agreement here
                    // (and on every later query) proves the commit
                    // structurally invalidated the cache — the warm side
                    // never sees a pre-commit row.
                    mon_warm
                        .absorb_delta(&[], &[], true, &space, &index, &store)
                        .unwrap();
                    mon_cold
                        .absorb_delta(&[], &[], true, &space, &cold(&space), &store)
                        .unwrap();
                    prop_assert_eq!(mon_warm.current(), mon_cold.current());
                }
            }
        }

        // Final subscription agreement over the accumulated state.
        prop_assert_eq!(
            mon_warm.refresh(&space, &index, &store).unwrap(),
            mon_cold.refresh(&space, &cold(&space), &store).unwrap()
        );

        // Cross-check: complete cached rows against the all-pairs oracle.
        // (`row` at ∞ returns the full single-source expansion; every
        // settled entry must equal the precomputed door-to-door matrix
        // bit for bit.)
        let graph = index.doors_graph();
        let oracle = PrecomputedD2D::build(&space, graph);
        let cache = index.distance_cache();
        for &d in door_ids.iter().take(4) {
            let (row, _) = cache.row(graph, d, f64::INFINITY, usize::MAX);
            for (v, dist) in row.entries_within(f64::INFINITY) {
                let truth = oracle.door_to_door(d, indoor_dq::model::DoorId(v));
                prop_assert_eq!(
                    dist.to_bits(),
                    truth.to_bits(),
                    "row({:?}) -> door {} disagrees with oracle: {} vs {}",
                    d, v, dist, truth
                );
            }
        }
    }
}
