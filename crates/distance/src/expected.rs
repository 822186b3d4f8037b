//! Expected indoor distance `|q,O|_I` (Def. 1) with the paper's three
//! distance cases (§II-C).
//!
//! * **Single-partition single-path** (Eq. 3): every instance is reached
//!   through the same last door `d`, so
//!   `|q,O|_I = |q,d|_I + Σ p_i · |d, s_i|_E`. The case is detected with
//!   additive-weighted bisectors (Table II): if one entry door dominates
//!   the subregion's bounding circle in the Additive Weighted Voronoi
//!   Diagram of the partition's doors, no per-instance minimisation is
//!   needed.
//! * **Single-partition multi-path** (Eq. 4): instances route through
//!   different doors; each instance takes its own minimum.
//! * **Multi-partition** (Eq. 6): subregion values combine weighted by
//!   their probability mass.

use crate::dijkstra::DoorDistances;
use idq_geom::{Circle, Side, WeightedBisector};
use idq_model::{DoorId, IndoorSpace};
use idq_objects::{Subregion, Subregions, UncertainObject};

/// Which of the paper's §II-C cases applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DistanceCase {
    /// §II-C.1 — one partition, one shared last door (Eq. 3).
    SinglePartitionSinglePath,
    /// §II-C.2 — one partition, instance-specific doors (Eq. 4).
    SinglePartitionMultiPath,
    /// §II-C.3 — the object overlaps several partitions (Eq. 6).
    MultiPartition,
}

/// The expected indoor distance and how it was computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpectedDistance {
    /// `E(|q, O|_I)`; `∞` when some probability mass is unreachable.
    pub value: f64,
    /// Case per Table III.
    pub(crate) case: DistanceCase,
    /// Whether the bisector fast path (Eq. 3) decided at least one
    /// subregion without per-instance minimisation.
    pub(crate) used_bisector_fast_path: bool,
    /// The largest per-instance walking cost entering the expectation.
    /// Against a *restricted* [`DoorDistances`], comparing this to
    /// [`DoorDistances::exit_horizon`] certifies exactness: when no
    /// instance cost exceeds the horizon, no path escaping the candidate
    /// set can undercut any instance's minimum, so `value` equals the
    /// full-graph expectation bit for bit.
    pub max_instance_cost: f64,
}

/// Computes `|q,O|_I` from precomputed door distances.
///
/// With a *restricted* [`DoorDistances`] (subgraph phase) the result may
/// over-estimate when a shortest path leaves the candidate set; the query
/// pipeline falls back to full-graph distances when it matters (see
/// `idq-query`).
pub fn expected_indoor_distance(
    space: &IndoorSpace,
    dd: &DoorDistances,
    object: &UncertainObject,
    subregions: &Subregions,
) -> ExpectedDistance {
    let mut total = 0.0;
    let mut any_single = false;
    let mut any_multi = false;
    let mut fast_path = false;
    let mut max_cost = 0.0f64;

    for sub in subregions.iter() {
        let (cond, single, fast, sub_max) = subregion_expected(space, dd, object, sub);
        if !cond.is_finite() {
            return ExpectedDistance {
                value: f64::INFINITY,
                case: overall_case(subregions, any_single, any_multi),
                used_bisector_fast_path: fast_path,
                max_instance_cost: f64::INFINITY,
            };
        }
        total += cond * sub.summary.prob;
        any_single |= single;
        any_multi |= !single;
        fast_path |= fast;
        max_cost = max_cost.max(sub_max);
    }

    ExpectedDistance {
        value: total,
        case: overall_case(subregions, any_single, any_multi),
        used_bisector_fast_path: fast_path,
        max_instance_cost: max_cost,
    }
}

fn overall_case(subregions: &Subregions, any_single: bool, any_multi: bool) -> DistanceCase {
    if !subregions.single_partition() {
        DistanceCase::MultiPartition
    } else if any_single && !any_multi {
        DistanceCase::SinglePartitionSinglePath
    } else {
        DistanceCase::SinglePartitionMultiPath
    }
}

/// Conditional expected distance of one subregion (mass-normalised), plus
/// whether it resolved as single-path, whether the bisector fast path
/// fired, and the largest per-instance walking cost. Returns `∞` when
/// unreachable.
fn subregion_expected(
    space: &IndoorSpace,
    dd: &DoorDistances,
    object: &UncertainObject,
    sub: &Subregion,
) -> (f64, bool, bool, f64) {
    let pid = sub.summary.partition;
    let Ok(partition) = space.partition(pid) else {
        return (f64::INFINITY, false, false, f64::INFINITY);
    };
    let direct = pid == dd.source_partition;
    let planar = partition.floor_lo == partition.floor_hi;

    // Reachable entry doors with their accumulated weights w_i = |q,d_i|_I.
    let entries: Vec<(DoorId, f64)> = partition
        .doors
        .iter()
        .copied()
        .filter(|&d| space.can_enter(d, pid))
        .map(|d| (d, dd.door_distance(d)))
        .filter(|(_, w)| w.is_finite())
        .collect();

    if entries.is_empty() && !direct {
        return (f64::INFINITY, false, false, f64::INFINITY);
    }

    // Bisector fast path (Eq. 3): only without the direct route and on
    // planar partitions (the AWVD lives in the plane).
    if !direct && planar {
        if let Some(d_star) = dominant_door(space, &entries, sub) {
            let (door, w) = d_star;
            let door_pt = space.door_point(door).expect("entry door is active");
            let mut acc = 0.0;
            let mut max_cost = 0.0f64;
            // Accumulate `w + inner` per instance — the same arithmetic,
            // in the same order, as the Eq. 4 general path below. The
            // fast path then agrees *bitwise* with Eq. 4 whenever the
            // dominant door is every instance's minimiser, so whether the
            // bisector test fires can never change the value — which is
            // what keeps banded (cache-composed) and complete evaluations
            // bit-identical even when truncation changes the entry set.
            for &i in &sub.instance_indices {
                let inst = &object.instances()[i as usize];
                let inner = space.intra_distance(door_pt, inst.indoor_point());
                acc += inst.weight * (w + inner);
                max_cost = max_cost.max(w + inner);
            }
            return (acc / sub.summary.prob, true, entries.len() > 1, max_cost);
        }
    }

    // General path: per-instance minimisation (Eq. 4), optionally with the
    // direct intra-partition route when q shares the partition.
    let mut acc = 0.0;
    let mut max_cost = 0.0f64;
    let mut first_choice: Option<Option<DoorId>> = None;
    let mut uniform_choice = true;
    for &i in &sub.instance_indices {
        let inst = &object.instances()[i as usize];
        let ip = inst.indoor_point();
        let mut best = if direct {
            space.intra_distance(dd.query, ip)
        } else {
            f64::INFINITY
        };
        let mut choice: Option<DoorId> = None;
        for &(d, w) in &entries {
            let door_pt = space.door_point(d).expect("entry door is active");
            let cand = w + space.intra_distance(door_pt, ip);
            if cand < best {
                best = cand;
                choice = Some(d);
            }
        }
        if !best.is_finite() {
            return (f64::INFINITY, false, false, f64::INFINITY);
        }
        match &first_choice {
            None => first_choice = Some(choice),
            Some(c) => uniform_choice &= *c == choice,
        }
        acc += inst.weight * best;
        max_cost = max_cost.max(best);
    }
    (acc / sub.summary.prob, uniform_choice, false, max_cost)
}

/// If one entry door dominates every other over the subregion's bounding
/// circle in the weighted Voronoi sense, return it.
fn dominant_door(
    space: &IndoorSpace,
    entries: &[(DoorId, f64)],
    sub: &Subregion,
) -> Option<(DoorId, f64)> {
    if entries.len() == 1 {
        return Some(entries[0]);
    }
    let center = sub.summary.bbox.center();
    let radius = sub.summary.bbox.lo.dist(sub.summary.bbox.hi) / 2.0;
    let circle = Circle::new(center, radius);
    // Candidate: cheapest door for the circle centre.
    let (mut best, mut best_cost) = (entries[0], f64::INFINITY);
    for &(d, w) in entries {
        let p = space.door_point(d).expect("active door").point;
        let cost = w + p.dist(center);
        if cost < best_cost {
            best_cost = cost;
            best = (d, w);
        }
    }
    let best_pt = space.door_point(best.0).expect("active door").point;
    for &(d, w) in entries {
        if d == best.0 {
            continue;
        }
        let other_pt = space.door_point(d).expect("active door").point;
        let bi = WeightedBisector::new(best_pt, best.1, other_pt, w);
        if bi.circle_side(&circle) != Some(Side::I) {
            return None; // undecided or dominated: fall back to Eq. 4
        }
    }
    Some(best)
}

/// Brute-force expected distance used as an oracle in tests and by the
/// naive query baseline: per-instance shortest paths, no bounds, no cases.
pub fn expected_indoor_distance_naive(
    space: &IndoorSpace,
    dd: &DoorDistances,
    object: &UncertainObject,
) -> f64 {
    let mut total = 0.0;
    for inst in object.instances() {
        let d = crate::point_dist::point_distance(space, dd, inst.indoor_point());
        if !d.is_finite() {
            return f64::INFINITY;
        }
        total += inst.weight * d;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DoorDistances;
    use idq_geom::{Point2, Rect2};
    use idq_model::{DoorsGraph, FloorPlanBuilder, IndoorPoint};
    use idq_objects::{ObjectId, Subregions, UncertainObject};

    /// Figure 4 of the paper, schematically: partition P is entered through
    /// two doors on its west wall (north-west at (20,25), south-west at
    /// (20,15)), so instances near the top of P route through one door and
    /// instances near the bottom through the other — the multi-path case.
    /// A corridor wraps around to a right-hand room for the
    /// multi-partition case.
    fn fig4_space() -> (IndoorSpace, DoorsGraph) {
        let mut b = FloorPlanBuilder::new(4.0);
        let hall = b
            .add_room(0, Rect2::from_bounds(0.0, 10.0, 20.0, 30.0))
            .unwrap();
        let p = b
            .add_room(0, Rect2::from_bounds(20.0, 10.0, 40.0, 30.0))
            .unwrap();
        let right = b
            .add_room(0, Rect2::from_bounds(40.0, 10.0, 60.0, 30.0))
            .unwrap();
        let below = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 60.0, 10.0))
            .unwrap();
        b.add_door_between(hall, p, Point2::new(20.0, 25.0))
            .unwrap(); // NW door of P
        b.add_door_between(hall, p, Point2::new(20.0, 15.0))
            .unwrap(); // SW door of P
        b.add_door_between(p, right, Point2::new(40.0, 20.0))
            .unwrap(); // east door of P
        b.add_door_between(hall, below, Point2::new(10.0, 10.0))
            .unwrap();
        b.add_door_between(below, right, Point2::new(50.0, 10.0))
            .unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        (s, g)
    }

    fn obj(positions: Vec<Point2>) -> UncertainObject {
        let c = positions[0];
        UncertainObject::with_uniform_weights(
            ObjectId(1),
            idq_geom::Circle::new(c, 5.0),
            0,
            positions,
        )
        .unwrap()
    }

    fn eval(
        s: &IndoorSpace,
        g: &DoorsGraph,
        q: Point2,
        o: &UncertainObject,
    ) -> (ExpectedDistance, f64) {
        let dd = DoorDistances::compute(s, g, IndoorPoint::new(q, 0)).unwrap();
        let subs = Subregions::compute(o, s).unwrap();
        let e = expected_indoor_distance(s, &dd, o, &subs);
        let naive = expected_indoor_distance_naive(s, &dd, o);
        (e, naive)
    }

    #[test]
    fn single_path_case_detected_and_matches_naive() {
        let (s, g) = fig4_space();
        // Object huddled next to the NW door of P: that door dominates the
        // whole uncertainty region in the weighted Voronoi sense.
        let o = obj(vec![
            Point2::new(21.0, 27.0),
            Point2::new(22.0, 26.0),
            Point2::new(21.5, 28.0),
        ]);
        let q = Point2::new(5.0, 20.0);
        let (e, naive) = eval(&s, &g, q, &o);
        assert_eq!(e.case, DistanceCase::SinglePartitionSinglePath);
        assert!((e.value - naive).abs() < 1e-9, "{} vs {naive}", e.value);
    }

    #[test]
    fn multi_path_case_detected_and_matches_naive() {
        let (s, g) = fig4_space();
        // s1 near the top of P (NW door wins), s2 near the bottom (SW door
        // wins) — the paper's Fig. 4 situation.
        let o = obj(vec![Point2::new(21.0, 28.0), Point2::new(21.0, 12.0)]);
        let q = Point2::new(5.0, 20.0);
        let (e, naive) = eval(&s, &g, q, &o);
        assert!((e.value - naive).abs() < 1e-9);
        assert_eq!(e.case, DistanceCase::SinglePartitionMultiPath);
    }

    #[test]
    fn multi_partition_case_weights_by_mass() {
        let (s, g) = fig4_space();
        // Instances straddle P and the right hall.
        let o = obj(vec![
            Point2::new(39.0, 20.0),
            Point2::new(41.0, 20.0),
            Point2::new(42.0, 21.0),
        ]);
        let q = Point2::new(5.0, 20.0);
        let (e, naive) = eval(&s, &g, q, &o);
        assert_eq!(e.case, DistanceCase::MultiPartition);
        assert!((e.value - naive).abs() < 1e-9);
    }

    #[test]
    fn query_in_same_partition_uses_direct_route() {
        let (s, g) = fig4_space();
        let o = obj(vec![Point2::new(25.0, 25.0), Point2::new(30.0, 15.0)]);
        let q = Point2::new(25.0, 15.0); // inside P
        let (e, naive) = eval(&s, &g, q, &o);
        assert!((e.value - naive).abs() < 1e-9);
        // Direct Euclidean expectation.
        let manual = 0.5 * Point2::new(25.0, 15.0).dist(Point2::new(25.0, 25.0))
            + 0.5 * Point2::new(25.0, 15.0).dist(Point2::new(30.0, 15.0));
        assert!((e.value - manual).abs() < 1e-9);
    }

    #[test]
    fn unreachable_mass_gives_infinite_expectation() {
        let (mut s, _) = fig4_space();
        // Seal off the right hall entirely.
        let right_doors: Vec<_> = s
            .doors()
            .filter(|d| d.position.x >= 40.0)
            .map(|d| d.id)
            .collect();
        for d in right_doors {
            s.close_door(d).unwrap();
        }
        let g = DoorsGraph::build(&s);
        let o = obj(vec![Point2::new(45.0, 20.0), Point2::new(25.0, 20.0)]);
        let dd =
            DoorDistances::compute(&s, &g, IndoorPoint::new(Point2::new(5.0, 20.0), 0)).unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        let e = expected_indoor_distance(&s, &dd, &o, &subs);
        assert!(e.value.is_infinite());
    }

    #[test]
    fn fast_path_flag_reflects_bisector_use() {
        let (s, g) = fig4_space();
        let near_nw = obj(vec![Point2::new(21.0, 26.0), Point2::new(21.5, 26.5)]);
        let q = Point2::new(5.0, 20.0);
        let dd = DoorDistances::compute(&s, &g, IndoorPoint::new(q, 0)).unwrap();
        let subs = Subregions::compute(&near_nw, &s).unwrap();
        let e = expected_indoor_distance(&s, &dd, &near_nw, &subs);
        assert!(e.used_bisector_fast_path, "several doors, one dominant");
    }
}
