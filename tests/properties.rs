//! Property-based tests over randomized worlds: the bound hierarchy, the
//! skeleton lower bound, decomposition invariants and oracle agreement.

use indoor_dq::distance::{
    expected::expected_indoor_distance_naive, expected_indoor_distance, object_bounds,
    DoorDistances,
};
use indoor_dq::geom::{decompose_rect, Circle, DecomposeConfig, Point2, Rect2};
use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::{DoorsGraph, FloorPlanBuilder, IndoorPoint, IndoorSpace};
use indoor_dq::objects::{ObjectId, ObjectStore, Subregions, UncertainObject};
use proptest::prelude::*;

/// A randomized single-floor grid world: an `nx × ny` grid of 10 m rooms
/// with doors knocked through a random subset of shared walls (always
/// keeping a spanning corridor so the world stays connected).
#[allow(clippy::needless_range_loop)] // adjacent-cell indexing reads clearer
fn grid_world(nx: usize, ny: usize, extra_doors: &[bool]) -> IndoorSpace {
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
    // Spanning corridor: every room connects to its right neighbour in row
    // 0, and every column connects upward.
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
    // Extra horizontal doors from the randomness budget.
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

fn object_at(id: u64, center: Point2, spread: f64, points: &[(f64, f64)]) -> UncertainObject {
    let positions: Vec<Point2> = points
        .iter()
        .map(|(dx, dy)| Point2::new(center.x + dx * spread, center.y + dy * spread))
        .collect();
    UncertainObject::with_uniform_weights(
        ObjectId(id),
        Circle::new(center, spread.max(0.1) * 1.5),
        0,
        positions,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Euclidean LB ≤ topological LB ≤ exact ≤ topological UB, on
    /// random grids, objects and query points.
    #[test]
    fn bound_hierarchy_holds(
        extra in proptest::collection::vec(any::<bool>(), 6),
        qx in 1.0f64..29.0,
        qy in 1.0f64..29.0,
        // Keep the whole instance cloud inside the 30 m grid: the naive
        // oracle treats out-of-building instances as unreachable (the real
        // sampler never produces them).
        cx in 5.0f64..25.0,
        cy in 5.0f64..25.0,
        spread in 0.2f64..3.9,
    ) {
        let space = grid_world(3, 3, &extra);
        let graph = DoorsGraph::build(&space);
        let q = IndoorPoint::new(Point2::new(qx, qy), 0);
        let center = Point2::new(cx, cy);
        let object = object_at(1, center, spread, &[(-1.0, 0.0), (1.0, 0.3), (0.2, -1.0), (0.0, 1.0)]);
        let dd = DoorDistances::compute(&space, &graph, q).unwrap();
        let subs = Subregions::compute(&object, &space).unwrap();

        let exact = expected_indoor_distance_naive(&space, &dd, &object);
        prop_assert!(exact.is_finite());
        // Fast expected distance equals the oracle.
        let fast = expected_indoor_distance(&space, &dd, &object, &subs);
        prop_assert!((fast.value - exact).abs() < 1e-9, "{} vs {exact}", fast.value);

        // Euclidean lower bound.
        let euclid = object.min_euclidean(q.point);
        prop_assert!(euclid <= exact + 1e-9);

        // Table III bounds sandwich.
        let b = object_bounds(&space, &dd, subs.summaries());
        prop_assert!(b.lower <= exact + 1e-9, "LB {} > exact {exact}", b.lower);
        prop_assert!(b.upper >= exact - 1e-9, "UB {} < exact {exact}", b.upper);
    }

    /// The decomposition preserves area and honours the aspect threshold.
    #[test]
    fn decomposition_invariants(
        w in 1.0f64..500.0,
        h in 1.0f64..500.0,
        t_shape in 0.1f64..0.7,
    ) {
        let r = Rect2::from_bounds(0.0, 0.0, w, h);
        let cfg = DecomposeConfig { t_shape, ..DecomposeConfig::default() };
        let units = decompose_rect(r, &cfg);
        prop_assert!(!units.is_empty());
        let total: f64 = units.iter().map(|u| u.area()).sum();
        prop_assert!((total - r.area()).abs() < 1e-6 * r.area().max(1.0));
        for u in &units {
            // Midpoint halving guarantees at least min(t_shape, 1/√2).
            let floor = t_shape.min(std::f64::consts::FRAC_1_SQRT_2) - 1e-9;
            prop_assert!(u.aspect_ratio() >= floor, "unit {u} ratio {}", u.aspect_ratio());
            prop_assert!(r.contains_rect(u));
        }
    }

    /// RangeSearch never loses a true result (Lemma 6 end-to-end), and the
    /// full pipeline matches the oracle on random grid worlds.
    #[test]
    fn pipeline_matches_oracle_on_random_grids(
        extra in proptest::collection::vec(any::<bool>(), 6),
        qx in 1.0f64..29.0,
        qy in 1.0f64..29.0,
        r in 5.0f64..60.0,
        centers in proptest::collection::vec((5.0f64..25.0, 5.0f64..25.0), 3..10),
    ) {
        let space = grid_world(3, 3, &extra);
        let mut store = ObjectStore::new();
        for (i, (cx, cy)) in centers.iter().enumerate() {
            store
                .insert(object_at(i as u64, Point2::new(*cx, *cy), 1.5, &[(-1.0, 0.0), (1.0, 0.5), (0.0, 1.0)]))
                .unwrap();
        }
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(qx, qy), 0);
        let opts = indoor_dq::query::QueryOptions::for_max_radius(3.0);

        let fast = indoor_dq::query::range_query(&space, &index, &store, q, r, &opts).unwrap();
        let slow = indoor_dq::query::naive_range(&space, index.doors_graph(), &store, q, r).unwrap();
        let fast_ids: Vec<ObjectId> = fast.results.iter().map(|h| h.object).collect();
        let slow_ids: Vec<ObjectId> = slow.iter().map(|x| x.0).collect();
        prop_assert_eq!(fast_ids, slow_ids);

        let k = (centers.len() / 2).max(1);
        let fast = indoor_dq::query::knn_query(&space, &index, &store, q, k, &opts).unwrap();
        let slow = indoor_dq::query::naive_knn(&space, index.doors_graph(), &store, q, k).unwrap();
        prop_assert_eq!(fast.results.len(), slow.len());
        for (a, (_, d)) in fast.results.iter().zip(&slow) {
            prop_assert!((a.distance - d).abs() < 1e-9);
        }
    }

    /// Skeleton distance lower-bounds the true indoor distance on
    /// multi-floor worlds (Lemma 6).
    #[test]
    fn skeleton_lower_bound_random_points(
        ax in 1.0f64..99.0,
        bx in 1.0f64..99.0,
        af in 0u16..3,
        bf in 0u16..3,
    ) {
        let mut b = FloorPlanBuilder::new(4.0);
        let mut halls = Vec::new();
        for f in 0..3u16 {
            halls.push(b.add_room(f, Rect2::from_bounds(0.0, 0.0, 100.0, 10.0)).unwrap());
        }
        let st = b.add_staircase((0, 2), Rect2::from_bounds(100.0, 0.0, 104.0, 10.0)).unwrap();
        for f in 0..3u16 {
            b.add_staircase_entrance(st, halls[f as usize], f, Point2::new(100.0, 5.0)).unwrap();
        }
        let space = b.finish().unwrap();
        let graph = DoorsGraph::build(&space);
        let store = ObjectStore::new();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();

        let p1 = IndoorPoint::new(Point2::new(ax, 5.0), af);
        let p2 = IndoorPoint::new(Point2::new(bx, 5.0), bf);
        let sk = index.skeleton().skeleton_distance(p1, p2);
        let real = indoor_dq::distance::indoor_distance(&space, &graph, p1, p2).unwrap();
        prop_assert!(sk <= real + 1e-9, "skeleton {sk} > indoor {real}");
    }
}
