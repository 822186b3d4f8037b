//! Validated fluent construction of indoor spaces.

use crate::door::{Direction, DoorKind};
use crate::error::ModelError;
use crate::ids::{DoorId, Floor, PartitionId};
use crate::partition::PartitionKind;
use crate::space::IndoorSpace;
use idq_geom::{Point2, Polygon, Rect2};

/// Builds an [`IndoorSpace`] incrementally with validation at every step.
///
/// Used directly by tests and examples, and by the synthetic building
/// generator in `idq-workloads`. Typical flow:
///
/// ```
/// use idq_model::FloorPlanBuilder;
/// use idq_geom::{Point2, Rect2};
///
/// let mut b = FloorPlanBuilder::new(4.0);
/// let kitchen = b.add_room(0, Rect2::from_bounds(0.0, 0.0, 6.0, 4.0)).unwrap();
/// let hall = b.add_room(0, Rect2::from_bounds(6.0, 0.0, 16.0, 4.0)).unwrap();
/// b.add_door_between(kitchen, hall, Point2::new(6.0, 2.0)).unwrap();
/// let space = b.finish().unwrap();
/// assert_eq!(space.partition_count(), 2);
/// ```
#[derive(Debug)]
pub struct FloorPlanBuilder {
    space: IndoorSpace,
}

impl FloorPlanBuilder {
    /// Starts a new plan with the given floor height (metres).
    pub fn new(floor_height: f64) -> Self {
        FloorPlanBuilder {
            space: IndoorSpace::new(floor_height),
        }
    }

    /// Adds a rectangular room on one floor.
    pub fn add_room(&mut self, floor: Floor, rect: Rect2) -> Result<PartitionId, ModelError> {
        self.add_partition(PartitionKind::Room, None, floor, Polygon::from_rect(rect))
    }

    /// Adds a named rectangular room (names show up in diagnostics and the
    /// Figure-1 regression tests).
    pub fn add_named_room(
        &mut self,
        name: &str,
        floor: Floor,
        rect: Rect2,
    ) -> Result<PartitionId, ModelError> {
        self.add_partition(
            PartitionKind::Room,
            Some(name.to_string()),
            floor,
            Polygon::from_rect(rect),
        )
    }

    /// Adds a hallway with an arbitrary (usually rectilinear) footprint.
    pub fn add_hallway(
        &mut self,
        floor: Floor,
        footprint: Polygon,
    ) -> Result<PartitionId, ModelError> {
        self.add_partition(PartitionKind::Hallway, None, floor, footprint)
    }

    /// Adds a single-floor partition of any kind.
    pub(crate) fn add_partition(
        &mut self,
        kind: PartitionKind,
        name: Option<String>,
        floor: Floor,
        footprint: Polygon,
    ) -> Result<PartitionId, ModelError> {
        Ok(self
            .space
            .push_partition(kind, name, (floor, floor), footprint))
    }

    /// Adds a staircase spanning floors `floors.0 ..= floors.1` with the
    /// given footprint on each covered floor. Entrance doors are added
    /// separately with [`FloorPlanBuilder::add_staircase_entrance`].
    pub fn add_staircase(
        &mut self,
        floors: (Floor, Floor),
        rect: Rect2,
    ) -> Result<PartitionId, ModelError> {
        if floors.1 < floors.0 {
            return Err(ModelError::BadFootprint(
                "staircase floor interval is inverted".into(),
            ));
        }
        Ok(self.space.push_partition(
            PartitionKind::Staircase,
            None,
            floors,
            Polygon::from_rect(rect),
        ))
    }

    /// Adds a bidirectional door between two partitions at `position`.
    /// The floor is inferred as the lowest common floor.
    pub fn add_door_between(
        &mut self,
        a: PartitionId,
        b: PartitionId,
        position: Point2,
    ) -> Result<DoorId, ModelError> {
        let floor = self.common_floor(a, b)?;
        self.space.push_door(
            position,
            floor,
            [a, b],
            Direction::Bidirectional,
            DoorKind::Interior,
        )
    }

    /// Adds a one-way door passable only `from → to`.
    pub fn add_one_way_door(
        &mut self,
        from: PartitionId,
        to: PartitionId,
        position: Point2,
    ) -> Result<DoorId, ModelError> {
        let floor = self.common_floor(from, to)?;
        self.space.push_door(
            position,
            floor,
            [from, to],
            Direction::OneWay,
            DoorKind::Interior,
        )
    }

    /// Adds a staircase entrance: a door on `floor` between the staircase
    /// and a same-floor partition.
    pub fn add_staircase_entrance(
        &mut self,
        staircase: PartitionId,
        partition: PartitionId,
        floor: Floor,
        position: Point2,
    ) -> Result<DoorId, ModelError> {
        if self.space.partition(staircase)?.kind != PartitionKind::Staircase {
            return Err(ModelError::WrongKind(staircase));
        }
        self.space.push_door(
            position,
            floor,
            [staircase, partition],
            Direction::Bidirectional,
            DoorKind::StaircaseEntrance,
        )
    }

    /// Finishes construction. Currently infallible beyond the per-step
    /// validation, but returns `Result` so global checks can be added
    /// without breaking the API; callers should inspect
    /// [`IndoorSpace::sealed_partitions`] / `connected_components` for
    /// well-formedness diagnostics.
    pub fn finish(self) -> Result<IndoorSpace, ModelError> {
        Ok(self.space)
    }

    fn common_floor(&self, a: PartitionId, b: PartitionId) -> Result<Floor, ModelError> {
        let pa = self.space.partition(a)?;
        let pb = self.space.partition(b)?;
        let lo = pa.floor_lo.max(pb.floor_lo);
        let hi = pa.floor_hi.min(pb.floor_hi);
        if lo > hi {
            Err(ModelError::NoCommonFloor(a, b))
        } else {
            Ok(lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::IndoorPoint;

    #[test]
    fn builds_multi_floor_building_with_staircase() {
        let mut b = FloorPlanBuilder::new(4.0);
        let hall0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 20.0, 5.0))
            .unwrap();
        let hall1 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 20.0, 5.0))
            .unwrap();
        let stairs = b
            .add_staircase((0, 1), Rect2::from_bounds(20.0, 0.0, 24.0, 5.0))
            .unwrap();
        let e0 = b
            .add_staircase_entrance(stairs, hall0, 0, Point2::new(20.0, 2.5))
            .unwrap();
        let e1 = b
            .add_staircase_entrance(stairs, hall1, 1, Point2::new(20.0, 2.5))
            .unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.num_floors(), 2);
        assert_eq!(s.partition_count(), 3);
        assert_eq!(s.door_count(), 2);
        assert_eq!(s.connected_components(), 1);
        // The staircase is locatable from both floors.
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(22.0, 2.0), 0)),
            Some(stairs)
        );
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(22.0, 2.0), 1)),
            Some(stairs)
        );
        // The entrance doors sit on different floors of the same staircase.
        assert_eq!(s.door(e0).unwrap().floor, 0);
        assert_eq!(s.door(e1).unwrap().floor, 1);
        // Walking between entrances costs planar + scaled vertical.
        let w = s.door_to_door(e0, e1).unwrap();
        assert!((w - 8.0).abs() < 1e-9, "0 planar + 4m × factor 2 = {w}");
    }

    #[test]
    fn one_way_door_directionality() {
        let mut b = FloorPlanBuilder::new(4.0);
        let secure = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let public = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let d = b
            .add_one_way_door(secure, public, Point2::new(10.0, 5.0))
            .unwrap();
        let s = b.finish().unwrap();
        assert!(s.can_pass(d, secure, public));
        assert!(!s.can_pass(d, public, secure));
    }

    #[test]
    fn staircase_entrance_requires_staircase() {
        let mut b = FloorPlanBuilder::new(4.0);
        let r1 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        assert!(matches!(
            b.add_staircase_entrance(r1, r2, 0, Point2::new(10.0, 5.0)),
            Err(ModelError::WrongKind(_))
        ));
    }

    #[test]
    fn no_common_floor_is_rejected() {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        assert_eq!(
            b.add_door_between(r0, r1, Point2::new(5.0, 5.0)),
            Err(ModelError::NoCommonFloor(r0, r1))
        );
    }

    #[test]
    fn inverted_staircase_interval_rejected() {
        let mut b = FloorPlanBuilder::new(4.0);
        assert!(b
            .add_staircase((3, 1), Rect2::from_bounds(0.0, 0.0, 4.0, 4.0))
            .is_err());
    }
}
