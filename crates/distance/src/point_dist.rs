//! Point-to-point indoor distance `|q,p|_I` (Eq. 1) and its witness path.

use crate::dijkstra::DoorDistances;
use crate::error::DistanceError;
use idq_model::{DoorId, DoorsGraph, IndoorPoint, IndoorSpace};

/// The indoor distance from the origin of `dd` to point `p`, together with
/// the arrival door (`None` when the straight-line intra-partition route
/// inside `P(q)` wins).
///
/// Returns `f64::INFINITY` distance when `p` is unreachable (or lies in no
/// partition).
pub(crate) fn point_distance_via(
    space: &IndoorSpace,
    dd: &DoorDistances,
    p: IndoorPoint,
) -> (f64, Option<DoorId>) {
    let Some(target) = space.partition_at(p) else {
        return (f64::INFINITY, None);
    };
    let mut best = f64::INFINITY;
    let mut via = None;
    if target == dd.source_partition {
        best = space.intra_distance(dd.query, p);
    }
    for &d in space.doors_of(target).unwrap_or(&[]) {
        if !space.can_enter(d, target) {
            continue;
        }
        let base = dd.door_distance(d);
        if !base.is_finite() {
            continue;
        }
        let door_pt = space.door_point(d).expect("active door");
        let total = base + space.intra_distance(door_pt, p);
        if total < best {
            best = total;
            via = Some(d);
        }
    }
    (best, via)
}

/// The indoor distance from the origin of `dd` to `p` (Eq. 1).
#[inline]
pub(crate) fn point_distance(space: &IndoorSpace, dd: &DoorDistances, p: IndoorPoint) -> f64 {
    point_distance_via(space, dd, p).0
}

/// One-shot indoor distance `|q,p|_I`: runs Dijkstra from `q` and evaluates
/// `p`.
pub fn indoor_distance(
    space: &IndoorSpace,
    graph: &DoorsGraph,
    q: IndoorPoint,
    p: IndoorPoint,
) -> Result<f64, DistanceError> {
    let dd = DoorDistances::compute(space, graph, q)?;
    Ok(point_distance(space, &dd, p))
}

/// The shortest path `q →δ p`: total length plus the door sequence `δ`
/// (empty when the route stays inside one partition). `None` when `p` is
/// unreachable.
pub fn shortest_path(
    space: &IndoorSpace,
    graph: &DoorsGraph,
    q: IndoorPoint,
    p: IndoorPoint,
) -> Result<Option<(f64, Vec<DoorId>)>, DistanceError> {
    let dd = DoorDistances::compute(space, graph, q)?;
    let (total, via) = point_distance_via(space, &dd, p);
    if !total.is_finite() {
        return Ok(None);
    }
    let doors = match via {
        None => Vec::new(),
        Some(d) => dd.path_to(d).expect("arrival door is reachable"),
    };
    Ok(Some((total, doors)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point2, Rect2};
    use idq_model::{DoorsGraph, FloorPlanBuilder, PartitionId};

    fn two_rooms() -> (IndoorSpace, DoorsGraph, PartitionId, PartitionId, DoorId) {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let d = b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        (s, g, a, c, d)
    }

    #[test]
    fn same_partition_is_euclidean() {
        let (s, g, ..) = two_rooms();
        let q = IndoorPoint::new(Point2::new(1.0, 1.0), 0);
        let p = IndoorPoint::new(Point2::new(4.0, 5.0), 0);
        let d = indoor_distance(&s, &g, q, p).unwrap();
        assert!((d - 5.0).abs() < 1e-9);
        let (_, doors) = shortest_path(&s, &g, q, p).unwrap().unwrap();
        assert!(doors.is_empty());
    }

    #[test]
    fn cross_partition_goes_through_the_door() {
        let (s, g, _, _, d) = two_rooms();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(18.0, 5.0), 0);
        let dist = indoor_distance(&s, &g, q, p).unwrap();
        assert!((dist - 16.0).abs() < 1e-9); // 8 to the door + 8 beyond
        let (total, doors) = shortest_path(&s, &g, q, p).unwrap().unwrap();
        assert!((total - 16.0).abs() < 1e-9);
        assert_eq!(doors, vec![d]);
    }

    #[test]
    fn detour_beats_blocked_straight_line() {
        // The paper's core motivation (Fig. 1): Euclidean distance is
        // meaningless through walls. Distance must route around.
        let (s, g, ..) = two_rooms();
        let q = IndoorPoint::new(Point2::new(9.0, 9.5), 0);
        let p = IndoorPoint::new(Point2::new(11.0, 9.5), 0);
        let dist = indoor_distance(&s, &g, q, p).unwrap();
        let euclid = q.point.dist(p.point);
        assert!(
            dist > euclid,
            "indoor {dist} must exceed euclidean {euclid}"
        );
        // Route: down to the door at (10,5) and back up.
        let expect = q.point.dist(Point2::new(10.0, 5.0)) + Point2::new(10.0, 5.0).dist(p.point);
        assert!((dist - expect).abs() < 1e-9);
    }

    #[test]
    fn unreachable_returns_none_path_and_infinite_distance() {
        let (mut s, _, _, _, d) = two_rooms();
        s.close_door(d).unwrap();
        let g = DoorsGraph::build(&s);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(18.0, 5.0), 0);
        assert!(indoor_distance(&s, &g, q, p).unwrap().is_infinite());
        assert!(shortest_path(&s, &g, q, p).unwrap().is_none());
    }

    #[test]
    fn point_in_no_partition_is_unreachable() {
        let (s, g, ..) = two_rooms();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let dd = DoorDistances::compute(&s, &g, q).unwrap();
        let nowhere = IndoorPoint::new(Point2::new(99.0, 99.0), 0);
        assert!(point_distance(&s, &dd, nowhere).is_infinite());
    }
}
