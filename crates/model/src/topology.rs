//! Temporal topology variation (§I, §III-C.1).
//!
//! Indoor spaces change over time: doors open and close, rooms are blocked
//! in emergencies or booked for events, and large rooms are split into
//! smaller ones (or re-merged) by sliding walls — the paper's Room 21
//! banquet/meeting example. Each operation mutates the [`IndoorSpace`] and
//! returns [`TopologyEvent`]s that downstream structures (the doors graph,
//! the composite index) consume for incremental maintenance.

use crate::door::{Direction, DoorKind};
use crate::error::ModelError;
use crate::ids::{DoorId, Floor, PartitionId};
use crate::partition::PartitionKind;
use crate::space::IndoorSpace;
use idq_geom::{Point2, Polygon};

/// A change to the indoor topology, for incremental index maintenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// A new partition appeared.
    PartitionInserted(PartitionId),
    /// A partition (and its doors) was removed.
    PartitionRemoved(PartitionId),
    /// A partition was split in two (sliding wall mounted).
    PartitionSplit {
        /// The retired original.
        old: PartitionId,
        /// The two halves.
        new: [PartitionId; 2],
    },
    /// Two partitions were merged (sliding wall dismounted).
    PartitionsMerged {
        /// The retired halves.
        old: [PartitionId; 2],
        /// The merged partition.
        new: PartitionId,
    },
    /// A door was added.
    DoorInserted(DoorId),
    /// A door was removed.
    DoorRemoved(DoorId),
    /// A door opened or closed.
    DoorStateChanged(DoorId),
    /// A door was re-pointed to a successor partition during split/merge.
    DoorRetargeted(DoorId),
}

/// A door requested as part of a [`PartitionSpec`].
#[derive(Clone, Debug)]
pub struct DoorSpec {
    /// Door midpoint.
    pub position: Point2,
    /// The existing partition on the other side.
    pub other: PartitionId,
    /// Directionality. For [`Direction::OneWay`], passage runs from the
    /// *new* partition into `other`.
    pub direction: Direction,
}

/// Specification of a partition to insert dynamically.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Kind of partition.
    pub kind: PartitionKind,
    /// Optional name.
    pub name: Option<String>,
    /// Floor the partition occupies.
    pub floor: Floor,
    /// Footprint polygon.
    pub footprint: Polygon,
    /// Doors connecting it to existing partitions.
    pub doors: Vec<DoorSpec>,
}

/// An axis-aligned split line for [`IndoorSpace::split_partition`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SplitLine {
    /// Split at `x = c` (vertical sliding wall).
    AtX(f64),
    /// Split at `y = c` (horizontal sliding wall).
    AtY(f64),
}

impl IndoorSpace {
    /// Closes a door (movement through it becomes impossible).
    pub fn close_door(&mut self, d: DoorId) -> Result<TopologyEvent, ModelError> {
        self.set_door_open(d, false)?;
        Ok(TopologyEvent::DoorStateChanged(d))
    }

    /// Re-opens a closed door.
    pub fn open_door(&mut self, d: DoorId) -> Result<TopologyEvent, ModelError> {
        self.set_door_open(d, true)?;
        Ok(TopologyEvent::DoorStateChanged(d))
    }

    /// Adds a door between two existing partitions (temporary doors opened
    /// for events, §II-A).
    pub fn insert_door(
        &mut self,
        a: PartitionId,
        b: PartitionId,
        position: Point2,
        floor: Floor,
        direction: Direction,
    ) -> Result<(DoorId, TopologyEvent), ModelError> {
        let id = self.push_door(position, floor, [a, b], direction, DoorKind::Interior)?;
        Ok((id, TopologyEvent::DoorInserted(id)))
    }

    /// Inserts a new partition with its connecting doors (§III-C.1,
    /// *Insertion*).
    pub fn insert_partition(
        &mut self,
        spec: PartitionSpec,
    ) -> Result<(PartitionId, Vec<DoorId>, Vec<TopologyEvent>), ModelError> {
        if !spec.footprint.vertices().iter().all(|v| v.is_finite()) {
            return Err(ModelError::BadFootprint(
                "non-finite footprint vertex".to_string(),
            ));
        }
        // Validate doors up-front against the other partitions so a failure
        // does not leave a half-inserted partition behind.
        for ds in &spec.doors {
            let other = self.partition(ds.other)?;
            if !other.covers_floor(spec.floor) {
                return Err(ModelError::DoorFloorMismatch {
                    floor: spec.floor,
                    partition: ds.other,
                });
            }
            if !other.contains(ds.position, spec.floor) {
                return Err(ModelError::DoorOffBoundary {
                    position: ds.position,
                    partition: ds.other,
                });
            }
            if !spec.footprint.contains(ds.position) {
                return Err(ModelError::BadFootprint(format!(
                    "door at {} outside the new footprint",
                    ds.position
                )));
            }
        }
        let pid = self.push_partition(
            spec.kind,
            spec.name,
            (spec.floor, spec.floor),
            spec.footprint,
        );
        let mut events = vec![TopologyEvent::PartitionInserted(pid)];
        let mut doors = Vec::with_capacity(spec.doors.len());
        for ds in &spec.doors {
            let id = self.push_door(
                ds.position,
                spec.floor,
                [pid, ds.other],
                ds.direction,
                DoorKind::Interior,
            )?;
            doors.push(id);
            events.push(TopologyEvent::DoorInserted(id));
        }
        Ok((pid, doors, events))
    }

    /// Deletes a partition and its doors (§III-C.1, *Deletion*).
    pub fn delete_partition(&mut self, pid: PartitionId) -> Result<Vec<TopologyEvent>, ModelError> {
        let doors = self.retire_partition(pid)?;
        let mut events: Vec<TopologyEvent> =
            doors.into_iter().map(TopologyEvent::DoorRemoved).collect();
        events.push(TopologyEvent::PartitionRemoved(pid));
        Ok(events)
    }

    /// Splits a rectangular partition in two along an axis-aligned line —
    /// mounting a sliding wall. Existing doors are re-pointed to the half
    /// that geometrically contains them; `connecting_door` optionally adds
    /// a door in the new wall (meeting-style layouts keep the halves
    /// connected).
    pub fn split_partition(
        &mut self,
        pid: PartitionId,
        line: SplitLine,
        connecting_door: Option<Point2>,
    ) -> Result<([PartitionId; 2], Vec<TopologyEvent>), ModelError> {
        let p = self.partition(pid)?;
        if p.floor_lo != p.floor_hi {
            return Err(ModelError::WrongKind(pid));
        }
        let floor = p.floor_lo;
        let kind = p.kind;
        let name = p.name.clone();
        let rect = p.footprint.as_rect().ok_or(ModelError::WrongKind(pid))?;
        let halves = match line {
            // NaN compares false both ways and would slip past the bounds.
            SplitLine::AtX(c) | SplitLine::AtY(c) if !c.is_finite() => None,
            SplitLine::AtX(c) => rect.split_at_x(c),
            SplitLine::AtY(c) => rect.split_at_y(c),
        }
        .ok_or(ModelError::BadSplit(pid))?;
        let old_doors: Vec<DoorId> = p.doors.clone();

        // Pre-validate: every existing door must land in exactly one half
        // (doors *on* the split line would be swallowed by the new wall).
        for &d in &old_doors {
            let pos = self.door(d)?.position;
            let in_a = halves.0.contains(pos);
            let in_b = halves.1.contains(pos);
            if in_a && in_b {
                return Err(ModelError::BadSplit(pid));
            }
        }
        if let Some(pos) = connecting_door {
            let on_line = match line {
                SplitLine::AtX(c) => (pos.x - c).abs() < 1e-6,
                SplitLine::AtY(c) => (pos.y - c).abs() < 1e-6,
            };
            if !on_line || !rect.contains(pos) {
                return Err(ModelError::BadSplit(pid));
            }
        }

        let name_a = name.as_ref().map(|n| format!("{n}.a"));
        let name_b = name.as_ref().map(|n| format!("{n}.b"));
        let a = self.push_partition(kind, name_a, (floor, floor), Polygon::from_rect(halves.0));
        let b = self.push_partition(kind, name_b, (floor, floor), Polygon::from_rect(halves.1));
        let mut events = vec![TopologyEvent::PartitionSplit {
            old: pid,
            new: [a, b],
        }];

        for &d in &old_doors {
            let pos = self.door(d)?.position;
            let target = if halves.0.contains(pos) { a } else { b };
            self.retarget_door(d, pid, target)?;
            events.push(TopologyEvent::DoorRetargeted(d));
        }
        // Retire the original only after doors have moved off it.
        let leftover = self.retire_partition(pid)?;
        debug_assert!(leftover.is_empty(), "doors were retargeted first");

        if let Some(pos) = connecting_door {
            let d = self.push_door(
                pos,
                floor,
                [a, b],
                Direction::Bidirectional,
                DoorKind::Interior,
            )?;
            events.push(TopologyEvent::DoorInserted(d));
        }
        Ok(([a, b], events))
    }

    /// Merges two rectangular partitions whose union is a rectangle —
    /// dismounting a sliding wall (banquet-style layouts). Doors between
    /// the two are removed; all other doors are re-pointed to the merged
    /// partition.
    pub fn merge_partitions(
        &mut self,
        a: PartitionId,
        b: PartitionId,
    ) -> Result<(PartitionId, Vec<TopologyEvent>), ModelError> {
        if a == b {
            return Err(ModelError::BadMerge(a, b));
        }
        let pa = self.partition(a)?;
        let pb = self.partition(b)?;
        if pa.floor_lo != pa.floor_hi
            || pb.floor_lo != pb.floor_hi
            || pa.floor_lo != pb.floor_lo
            || pa.kind != pb.kind
        {
            return Err(ModelError::BadMerge(a, b));
        }
        let floor = pa.floor_lo;
        let kind = pa.kind;
        let ra = pa.footprint.as_rect().ok_or(ModelError::BadMerge(a, b))?;
        let rb = pb.footprint.as_rect().ok_or(ModelError::BadMerge(a, b))?;
        let union = ra.union(&rb);
        if (union.area() - (ra.area() + rb.area())).abs() > 1e-6 * union.area().max(1.0) {
            // Union is not exactly the two rectangles: not adjacent with a
            // full shared edge.
            return Err(ModelError::BadMerge(a, b));
        }
        let name = match (&pa.name, &pb.name) {
            (Some(na), _) => Some(na.trim_end_matches(".a").to_string()),
            (None, Some(nb)) => Some(nb.trim_end_matches(".b").to_string()),
            _ => None,
        };

        let doors_a: Vec<DoorId> = pa.doors.clone();
        let doors_b: Vec<DoorId> = pb.doors.clone();
        let merged = self.push_partition(kind, name, (floor, floor), Polygon::from_rect(union));
        let mut events = vec![TopologyEvent::PartitionsMerged {
            old: [a, b],
            new: merged,
        }];

        for (src, doors) in [(a, doors_a), (b, doors_b)] {
            for d in doors {
                // A door may already have been retired as internal while
                // processing the first half.
                let Ok(door) = self.door(d) else { continue };
                // Doors between the two halves disappear with the wall.
                let internal = door.touches(a) && door.touches(b);
                if internal {
                    self.retire_door(d)?;
                    events.push(TopologyEvent::DoorRemoved(d));
                } else {
                    self.retarget_door(d, src, merged)?;
                    events.push(TopologyEvent::DoorRetargeted(d));
                }
            }
        }
        for pid in [a, b] {
            let leftover = self.retire_partition(pid)?;
            debug_assert!(leftover.is_empty());
        }
        Ok((merged, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FloorPlanBuilder;
    use crate::point::IndoorPoint;
    use idq_geom::Rect2;

    /// Room 21 from the paper's Figure 1: a large room with two doors
    /// (d41 west, d42 east) that can be split by a sliding wall.
    fn banquet_hall() -> (IndoorSpace, PartitionId, [DoorId; 2]) {
        let mut b = FloorPlanBuilder::new(4.0);
        let west = b
            .add_room(0, Rect2::from_bounds(-10.0, 0.0, 0.0, 20.0))
            .unwrap();
        let hall = b
            .add_named_room("room 21", 0, Rect2::from_bounds(0.0, 0.0, 30.0, 20.0))
            .unwrap();
        let east = b
            .add_room(0, Rect2::from_bounds(30.0, 0.0, 40.0, 20.0))
            .unwrap();
        let d41 = b
            .add_door_between(west, hall, Point2::new(0.0, 10.0))
            .unwrap();
        let d42 = b
            .add_door_between(hall, east, Point2::new(30.0, 10.0))
            .unwrap();
        (b.finish().unwrap(), hall, [d41, d42])
    }

    #[test]
    fn split_reassigns_doors_and_retires_original() {
        let (mut s, hall, [d41, d42]) = banquet_hall();
        let ([a, b], events) = s.split_partition(hall, SplitLine::AtX(15.0), None).unwrap();
        assert!(s.partition(hall).is_err());
        assert!(events.contains(&TopologyEvent::PartitionSplit {
            old: hall,
            new: [a, b]
        }));
        // d41 (at x=0) went to the west half, d42 (x=30) to the east half.
        assert!(s.door(d41).unwrap().partitions.contains(&a));
        assert!(s.door(d42).unwrap().partitions.contains(&b));
    }

    #[test]
    fn split_components_check() {
        let (mut s, hall, _) = banquet_hall();
        s.split_partition(hall, SplitLine::AtX(15.0), None).unwrap();
        assert_eq!(s.connected_components(), 2);
    }

    #[test]
    fn split_with_connecting_door_stays_connected() {
        let (mut s, hall, _) = banquet_hall();
        let ([a, b], events) = s
            .split_partition(hall, SplitLine::AtX(15.0), Some(Point2::new(15.0, 10.0)))
            .unwrap();
        assert_eq!(s.connected_components(), 1);
        let inserted = events
            .iter()
            .any(|e| matches!(e, TopologyEvent::DoorInserted(_)));
        assert!(inserted);
        // The new door connects exactly the two halves.
        let wall_door = s
            .doors()
            .find(|d| d.touches(a) && d.touches(b))
            .expect("connecting door");
        assert_eq!(wall_door.position, Point2::new(15.0, 10.0));
    }

    #[test]
    fn merge_restores_single_room() {
        let (mut s, hall, [d41, d42]) = banquet_hall();
        let ([a, b], _) = s
            .split_partition(hall, SplitLine::AtX(15.0), Some(Point2::new(15.0, 10.0)))
            .unwrap();
        let before_doors = s.door_count();
        let (merged, events) = s.merge_partitions(a, b).unwrap();
        // The sliding-wall door disappeared with the wall.
        assert_eq!(s.door_count(), before_doors - 1);
        assert!(s.partition(a).is_err() && s.partition(b).is_err());
        let m = s.partition(merged).unwrap();
        assert_eq!(m.bbox, Rect2::from_bounds(0.0, 0.0, 30.0, 20.0));
        assert!(events
            .iter()
            .any(|e| matches!(e, TopologyEvent::DoorRemoved(_))));
        // Outer doors survived and now point at the merged room.
        assert!(s.door(d41).unwrap().partitions.contains(&merged));
        assert!(s.door(d42).unwrap().partitions.contains(&merged));
        assert_eq!(s.connected_components(), 1);
        // Point location sees the merged room.
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(15.0, 10.0), 0)),
            Some(merged)
        );
    }

    #[test]
    fn merge_rejects_non_adjacent() {
        let mut b = FloorPlanBuilder::new(4.0);
        let r1 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        let mut s = b.finish().unwrap();
        assert!(matches!(
            s.merge_partitions(r1, r2),
            Err(ModelError::BadMerge(..))
        ));
        assert!(matches!(
            s.merge_partitions(r1, r1),
            Err(ModelError::BadMerge(..))
        ));
    }

    #[test]
    fn split_rejects_door_on_split_line() {
        let (mut s, hall, _) = banquet_hall();
        // d41 sits at x = 0 on the west wall; splitting at x = 0 is already
        // rejected as a degenerate cut, so split exactly through d42's x.
        assert!(matches!(
            s.split_partition(hall, SplitLine::AtX(30.0), None),
            Err(ModelError::BadSplit(_) | ModelError::WrongKind(_))
        ));
    }

    #[test]
    fn non_finite_split_lines_are_rejected() {
        let (mut s, hall, _) = banquet_hall();
        let slots = s.partition_slots();
        for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for line in [SplitLine::AtX(c), SplitLine::AtY(c)] {
                assert!(matches!(
                    s.split_partition(hall, line, None),
                    Err(ModelError::BadSplit(p)) if p == hall
                ));
            }
        }
        assert_eq!(s.partition_slots(), slots, "nothing was pushed");
        assert!(s.partition(hall).is_ok(), "the hall is still active");
    }

    #[test]
    fn non_finite_footprints_are_rejected() {
        let (mut s, _, _) = banquet_hall();
        let slots = s.partition_slots();
        for bad in [f64::NAN, f64::INFINITY] {
            let spec = PartitionSpec {
                kind: PartitionKind::Room,
                name: None,
                floor: 0,
                footprint: Polygon::new(vec![
                    Point2::new(0.0, 20.0),
                    Point2::new(10.0, 20.0),
                    Point2::new(10.0, 30.0),
                    Point2::new(bad, 30.0),
                ])
                .unwrap(),
                doors: vec![],
            };
            assert!(matches!(
                s.insert_partition(spec),
                Err(ModelError::BadFootprint(_))
            ));
        }
        assert_eq!(s.partition_slots(), slots, "nothing was pushed");
    }

    #[test]
    fn insert_and_delete_partition_roundtrip() {
        let (mut s, hall, _) = banquet_hall();
        let spec = PartitionSpec {
            kind: PartitionKind::Room,
            name: Some("pop-up booth".into()),
            floor: 0,
            footprint: Polygon::from_rect(Rect2::from_bounds(0.0, 20.0, 10.0, 30.0)),
            doors: vec![DoorSpec {
                position: Point2::new(5.0, 20.0),
                other: hall,
                direction: Direction::Bidirectional,
            }],
        };
        let parts_before = s.partition_count();
        let doors_before = s.door_count();
        let (pid, doors, events) = s.insert_partition(spec).unwrap();
        assert_eq!(doors.len(), 1);
        assert_eq!(events.len(), 2);
        assert_eq!(s.partition_count(), parts_before + 1);
        let events = s.delete_partition(pid).unwrap();
        assert_eq!(events.len(), 2); // door removed + partition removed
        assert_eq!(s.partition_count(), parts_before);
        assert_eq!(s.door_count(), doors_before);
    }

    #[test]
    fn insert_partition_validates_doors_before_mutating() {
        let (mut s, hall, _) = banquet_hall();
        let parts_before = s.partition_count();
        let spec = PartitionSpec {
            kind: PartitionKind::Room,
            name: None,
            floor: 0,
            footprint: Polygon::from_rect(Rect2::from_bounds(100.0, 100.0, 110.0, 110.0)),
            doors: vec![DoorSpec {
                position: Point2::new(105.0, 100.0),
                other: hall, // hall is nowhere near (100,100)
                direction: Direction::Bidirectional,
            }],
        };
        assert!(s.insert_partition(spec).is_err());
        assert_eq!(s.partition_count(), parts_before, "no partial insert");
    }

    #[test]
    fn one_way_door_events_rebuild_graph_consistently() {
        use crate::doors_graph::DoorsGraph;
        let (mut s, hall, _) = banquet_hall();
        let mut g = DoorsGraph::build(&s);
        let ([a, b], events) = s
            .split_partition(hall, SplitLine::AtX(15.0), Some(Point2::new(15.0, 10.0)))
            .unwrap();
        for ev in &events {
            g.apply(&s, ev);
        }
        let fresh = DoorsGraph::build(&s);
        assert_eq!(g.edge_count(), fresh.edge_count());
        let (_, events) = s.merge_partitions(a, b).unwrap();
        for ev in &events {
            g.apply(&s, ev);
        }
        let fresh = DoorsGraph::build(&s);
        assert_eq!(g.edge_count(), fresh.edge_count());
    }
}
