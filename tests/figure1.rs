//! Regression tests encoding the paper's running example (Figure 1 and
//! Figure 3): the q→p path through doors d13 and d15, the one-directional
//! door d12, and the Room-21 sliding wall that forces the s→t route
//! through d41/d42.
//!
//! Geometry is schematic (the paper prints no coordinates); topology is
//! the part the tests pin down.

use indoor_dq::model::SplitLine;
use indoor_dq::prelude::*;

/// Builds the relevant fragment of Figure 1:
///
/// ```text
///   +--------+--------+----------------+
///   |  11    |   12   |     room 21    |   floor 0
///   | (hall) |  (p)   |  (s ... t)     |
///   +--d13---+--d15?--+---d41---d42----+
///   |      13 (hall, q)                |
///   +----------------------------------+
/// ```
///
/// * d13 connects hall 13 to hall 11, d15 connects hall 11 to room 12 —
///   reaching p from q takes d13 then d15;
/// * d12 is one-way out of room 12 into hall 11 ("security exit"): room 12
///   cannot be entered through it;
/// * room 21 has doors d41 (west, to hall 13) and d42 (east, to hall 13)
///   and can be split by a sliding wall.
struct Fig1 {
    engine: IndoorEngine,
    hall13: PartitionId,
    room12: PartitionId,
    room21: PartitionId,
    d13: DoorId,
    d15: DoorId,
    d12: DoorId,
    d41: DoorId,
    d42: DoorId,
}

fn build() -> Fig1 {
    let mut b = FloorPlanBuilder::new(4.0);
    let hall11 = b
        .add_named_room("hall 11", 0, Rect2::from_bounds(0.0, 10.0, 20.0, 20.0))
        .unwrap();
    let room12 = b
        .add_named_room("room 12", 0, Rect2::from_bounds(20.0, 10.0, 40.0, 20.0))
        .unwrap();
    let room21 = b
        .add_named_room("room 21", 0, Rect2::from_bounds(40.0, 10.0, 80.0, 20.0))
        .unwrap();
    let hall13 = b
        .add_named_room("hall 13", 0, Rect2::from_bounds(0.0, 0.0, 80.0, 10.0))
        .unwrap();
    let d13 = b
        .add_door_between(hall13, hall11, Point2::new(10.0, 10.0))
        .unwrap();
    let d15 = b
        .add_door_between(hall11, room12, Point2::new(20.0, 15.0))
        .unwrap();
    // One-way: out of room 12 into hall 13 only.
    let d12 = b
        .add_one_way_door(room12, hall13, Point2::new(30.0, 10.0))
        .unwrap();
    let d41 = b
        .add_door_between(room21, hall13, Point2::new(45.0, 10.0))
        .unwrap();
    let d42 = b
        .add_door_between(room21, hall13, Point2::new(75.0, 10.0))
        .unwrap();
    let engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
    Fig1 {
        engine,
        hall13,
        room12,
        room21,
        d13,
        d15,
        d12,
        d41,
        d42,
    }
}

impl Fig1 {
    /// Shortest indoor path `a ⇝ b`: length plus the door sequence.
    fn path(&self, a: IndoorPoint, b: IndoorPoint) -> Option<(f64, Vec<DoorId>)> {
        let out = self.engine.snapshot().execute(&Query::Path { q: a, p: b });
        out.unwrap().into_path().unwrap().path
    }

    /// Point-to-point indoor distance `|a, b|_I`.
    fn distance(&self, a: IndoorPoint, b: IndoorPoint) -> f64 {
        let out = self
            .engine
            .snapshot()
            .execute(&Query::Distance { q: a, p: b });
        out.unwrap().into_distance().unwrap().distance
    }
}

fn q() -> indoor_dq::model::IndoorPoint {
    indoor_dq::model::IndoorPoint::new(Point2::new(5.0, 5.0), 0)
}

fn p() -> indoor_dq::model::IndoorPoint {
    indoor_dq::model::IndoorPoint::new(Point2::new(35.0, 18.0), 0)
}

#[test]
fn q_to_p_goes_through_d13_then_d15() {
    let f = build();
    let (len, doors) = f.path(q(), p()).expect("p reachable");
    assert_eq!(doors, vec![f.d13, f.d15], "the paper's q ⇝(d13,d15) p path");
    assert!(len > 0.0);
    // Euclidean distance is meaningless through the wall: the indoor
    // distance strictly exceeds it.
    assert!(len > q().point.dist(p().point));
}

#[test]
fn room12_cannot_be_entered_through_d12() {
    let f = build();
    let space = f.engine.space();
    // d12 exits room 12 but does not admit entry (the arrow in Fig. 1).
    assert!(space.can_leave(f.d12, f.room12));
    assert!(!space.can_enter(f.d12, f.room12));
    // From inside room 12, d12 gives a direct shortcut down to hall 13.
    let inside = indoor_dq::model::IndoorPoint::new(Point2::new(30.0, 12.0), 0);
    let below = indoor_dq::model::IndoorPoint::new(Point2::new(30.0, 5.0), 0);
    let (_, out_doors) = f.path(inside, below).unwrap();
    assert_eq!(out_doors, vec![f.d12], "exit uses the one-way shortcut");
    // The reverse trip must avoid d12 and go around through d13, d15.
    let (_, in_doors) = f.path(below, inside).unwrap();
    assert_eq!(
        in_doors,
        vec![f.d13, f.d15],
        "entry detours around the one-way door"
    );
}

#[test]
fn closing_d15_seals_room12() {
    let mut f = build();
    f.engine.apply(Update::CloseDoor(f.d15)).unwrap();
    // With d15 closed and d12 exit-only, p is unreachable.
    assert!(f.path(q(), p()).is_none());
    // Re-opening restores the original path.
    f.engine.apply(Update::OpenDoor(f.d15)).unwrap();
    let (_, doors) = f.path(q(), p()).unwrap();
    assert_eq!(doors, vec![f.d13, f.d15]);
}

#[test]
fn sliding_wall_forces_s_t_reroute() {
    let mut f = build();
    let s = indoor_dq::model::IndoorPoint::new(Point2::new(44.0, 18.0), 0);
    let t = indoor_dq::model::IndoorPoint::new(Point2::new(76.0, 18.0), 0);
    // Banquet style: s and t share room 21, distance is the straight line.
    let before = f.distance(s, t);
    assert!((before - s.point.dist(t.point)).abs() < 1e-9);

    // Mount the sliding wall (meeting style): split at x = 60, no
    // connecting door. s must now leave via d41 and re-enter via d42.
    let split = Update::SplitPartition {
        partition: f.room21,
        line: SplitLine::AtX(60.0),
        connecting_door: None,
    };
    let halves = f.engine.apply(split).unwrap().split_halves().unwrap();
    let after = f.distance(s, t);
    assert!(
        after > before,
        "recalculated via d41 and d42: {after} vs {before}"
    );
    let (_, doors) = f.path(s, t).unwrap();
    assert_eq!(doors, vec![f.d41, f.d42], "the paper's d41/d42 reroute");

    // Dismounting the wall restores the direct distance.
    let merge = Update::MergePartitions(halves[0], halves[1]);
    f.engine.apply(merge).unwrap();
    let restored = f.distance(s, t);
    assert!((restored - before).abs() < 1e-9);
}

#[test]
fn queries_respect_the_one_way_topology() {
    let mut f = build();
    // An object inside room 12 and a query in hall 13 below it: the
    // expected distance must follow the d13-d15 detour, not the one-way
    // shortcut.
    let insert = Update::InsertObjectAt {
        center: Point2::new(30.0, 15.0),
        floor: 0,
        radius: 1.0,
        instances: 8,
        seed: 11,
    };
    let o = f.engine.apply(insert).unwrap().inserted_object().unwrap();
    let below = indoor_dq::model::IndoorPoint::new(Point2::new(30.0, 5.0), 0);
    let knn = f.engine.snapshot().execute(&Query::Knn { q: below, k: 1 });
    let knn = knn.unwrap().into_knn().unwrap();
    assert_eq!(knn.results[0].object, o);
    let detour = knn.results[0].distance;
    // The detour is far longer than the straight-line ~10 m.
    assert!(
        detour > 25.0,
        "one-way door must not shorten the query distance: {detour}"
    );
    let _ = f.hall13;
}
