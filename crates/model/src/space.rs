//! The indoor space: arenas of partitions and doors plus the predicates the
//! distance machinery and the index build on.

use crate::door::{Direction, Door, DoorKind};
use crate::error::ModelError;
use crate::ids::{DoorId, Floor, PartitionId};
use crate::partition::{Partition, PartitionKind};
use crate::point::IndoorPoint;
use idq_geom::{Point2, Polygon};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`IndoorSpace::layout_id`] values.
static NEXT_LAYOUT_ID: AtomicU64 = AtomicU64::new(0);

/// A layout id no other space or layout in this process has had.
fn fresh_layout_id() -> u64 {
    // Relaxed: the id publishes no other data; it only has to be unique.
    NEXT_LAYOUT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Multiplier converting vertical drop into staircase walking length.
///
/// A typical stair slope of ~30° gives a walked path of about twice the
/// height difference; the paper does not specify a value, so this is a
/// documented model constant (configurable per space).
pub(crate) const DEFAULT_STAIR_WALK_FACTOR: f64 = 2.0;

/// A complete indoor space: the building every other crate operates on.
///
/// Entities are stored in arenas and addressed by dense ids; deletions
/// tombstone entries (ids are never reused) so that external structures
/// (index layers, object subregions) can hold ids safely across updates.
#[derive(Clone, Debug)]
pub struct IndoorSpace {
    partitions: Vec<Partition>,
    doors: Vec<Door>,
    floor_height: f64,
    stair_walk_factor: f64,
    /// Per-floor lists of partitions covering that floor (staircases appear
    /// on every floor they span). Maintained across topology updates.
    per_floor: Vec<Vec<PartitionId>>,
    /// Monotone counter bumped by every topology mutation; consumers cache
    /// derived structures (doors graph, index tiers) against it.
    version: u64,
    /// See [`IndoorSpace::layout_id`]. Never encoded.
    layout_id: u64,
}

impl IndoorSpace {
    /// Creates an empty space with the given floor height in metres.
    pub(crate) fn new(floor_height: f64) -> Self {
        IndoorSpace {
            partitions: Vec::new(),
            doors: Vec::new(),
            floor_height,
            stair_walk_factor: DEFAULT_STAIR_WALK_FACTOR,
            per_floor: Vec::new(),
            version: 0,
            layout_id: fresh_layout_id(),
        }
    }

    // ---- basic accessors --------------------------------------------------

    /// Height of one floor, metres.
    #[inline]
    pub fn floor_height(&self) -> f64 {
        self.floor_height
    }

    /// Walking-length factor applied to vertical drops inside staircases.
    #[inline]
    pub fn stair_walk_factor(&self) -> f64 {
        self.stair_walk_factor
    }

    /// Elevation (metres) of a floor index.
    #[inline]
    pub fn elevation(&self, floor: Floor) -> f64 {
        floor as f64 * self.floor_height
    }

    /// Topology version, bumped on every mutation.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Identifies the partition layout — which partitions exist, with
    /// which footprints. A process-unique id drawn from a global counter
    /// when the space is built or decoded, and drawn again whenever its
    /// partition set changes (insert, remove, split, merge). Door
    /// operations keep it, and so does cloning. It is never encoded: a
    /// decoded space gets a fresh id. State derived only from the layout,
    /// such as an object's subregion summary, is keyed to it.
    #[inline]
    pub fn layout_id(&self) -> u64 {
        self.layout_id
    }

    /// Number of floors known to the space (highest covered floor + 1).
    #[inline]
    pub fn num_floors(&self) -> usize {
        self.per_floor.len()
    }

    /// Total number of partition slots (including tombstones).
    #[inline]
    pub fn partition_slots(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of door slots (including tombstones).
    #[inline]
    pub fn door_slots(&self) -> usize {
        self.doors.len()
    }

    /// Looks up a partition, tombstones included.
    pub fn partition_raw(&self, id: PartitionId) -> Result<&Partition, ModelError> {
        self.partitions
            .get(id.index())
            .ok_or(ModelError::UnknownPartition(id))
    }

    /// Looks up an *active* partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition, ModelError> {
        let p = self.partition_raw(id)?;
        if p.active {
            Ok(p)
        } else {
            Err(ModelError::PartitionInactive(id))
        }
    }

    /// Looks up a door, tombstones included.
    pub fn door_raw(&self, id: DoorId) -> Result<&Door, ModelError> {
        self.doors
            .get(id.index())
            .ok_or(ModelError::UnknownDoor(id))
    }

    /// Looks up an *active* door.
    pub fn door(&self, id: DoorId) -> Result<&Door, ModelError> {
        let d = self.door_raw(id)?;
        if d.active {
            Ok(d)
        } else {
            Err(ModelError::DoorInactive(id))
        }
    }

    /// Iterates over active partitions.
    pub fn partitions(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter().filter(|p| p.active)
    }

    /// Iterates over active doors.
    pub fn doors(&self) -> impl Iterator<Item = &Door> {
        self.doors.iter().filter(|d| d.active)
    }

    /// Number of active partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions().count()
    }

    /// Number of active doors.
    pub fn door_count(&self) -> usize {
        self.doors().count()
    }

    /// Active partitions covering `floor`.
    pub fn partitions_on_floor(&self, floor: Floor) -> &[PartitionId] {
        self.per_floor
            .get(floor as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The doors of partition `p` — the paper's `D(p)`. Includes closed
    /// doors (they are still part of the structure); traversal predicates
    /// filter them.
    pub fn doors_of(&self, p: PartitionId) -> Result<&[DoorId], ModelError> {
        Ok(&self.partition(p)?.doors)
    }

    // ---- point location ---------------------------------------------------

    /// The partition containing the indoor point — the paper's `P(q)`.
    ///
    /// On shared boundaries (a point exactly on a wall with a doorway) the
    /// lowest-id containing partition wins, deterministically.
    pub fn partition_at(&self, p: IndoorPoint) -> Option<PartitionId> {
        self.partitions_on_floor(p.floor)
            .iter()
            .copied()
            .filter(|&pid| {
                let part = &self.partitions[pid.index()];
                part.active && part.contains(p.point, p.floor)
            })
            .min()
    }

    /// All partitions containing the indoor point (boundary points can be
    /// in several).
    pub fn partitions_at(&self, p: IndoorPoint) -> Vec<PartitionId> {
        self.partitions_on_floor(p.floor)
            .iter()
            .copied()
            .filter(|&pid| {
                let part = &self.partitions[pid.index()];
                part.active && part.contains(p.point, p.floor)
            })
            .collect()
    }

    // ---- traversal predicates ----------------------------------------------

    /// Whether one may pass through `door` from partition `from` to
    /// partition `to` (door open, active, direction allows, partitions
    /// active).
    pub(crate) fn can_pass(&self, door: DoorId, from: PartitionId, to: PartitionId) -> bool {
        let Ok(d) = self.door(door) else { return false };
        d.allows(from, to) && self.partition(from).is_ok() && self.partition(to).is_ok()
    }

    /// Whether one may pass through `door` into partition `into`.
    pub fn can_enter(&self, door: DoorId, into: PartitionId) -> bool {
        let Ok(d) = self.door(door) else { return false };
        match d.other_side(into) {
            Some(from) => self.can_pass(door, from, into),
            None => false,
        }
    }

    /// Whether one may pass through `door` out of partition `from`.
    pub fn can_leave(&self, door: DoorId, from: PartitionId) -> bool {
        let Ok(d) = self.door(door) else { return false };
        match d.other_side(from) {
            Some(to) => self.can_pass(door, from, to),
            None => false,
        }
    }

    // ---- intra-partition distances -----------------------------------------

    /// Distance between two positions inside one partition.
    ///
    /// Same floor: planar Euclidean (obstructed intra-partition distance is
    /// out of scope, per the paper's §II-A remark). Different floors (only
    /// meaningful inside staircases): planar distance plus the vertical drop
    /// scaled by the stair walking factor.
    pub fn intra_distance(&self, a: IndoorPoint, b: IndoorPoint) -> f64 {
        let planar = a.point.dist(b.point);
        if a.floor == b.floor {
            planar
        } else {
            let dz = (self.elevation(a.floor) - self.elevation(b.floor)).abs();
            planar + dz * self.stair_walk_factor
        }
    }

    /// Distance from an indoor point to a door through their common
    /// partition (`|q, d_q|_E` in the paper's Eq. 1).
    pub fn point_to_door(&self, p: IndoorPoint, door: DoorId) -> Result<f64, ModelError> {
        let d = self.door(door)?;
        Ok(self.intra_distance(p, IndoorPoint::new(d.position, d.floor)))
    }

    /// Door-to-door distance through a shared partition (the doors-graph
    /// edge weight, footnote 1).
    pub(crate) fn door_to_door(&self, a: DoorId, b: DoorId) -> Result<f64, ModelError> {
        let da = self.door(a)?;
        let db = self.door(b)?;
        Ok(self.intra_distance(
            IndoorPoint::new(da.position, da.floor),
            IndoorPoint::new(db.position, db.floor),
        ))
    }

    /// The position of a door as an [`IndoorPoint`].
    pub fn door_point(&self, d: DoorId) -> Result<IndoorPoint, ModelError> {
        let door = self.door(d)?;
        Ok(IndoorPoint::new(door.position, door.floor))
    }

    // ---- construction & mutation primitives ---------------------------------
    //
    // These are the raw arena operations; validated high-level operations
    // live in `builder` (construction) and `topology` (temporal variation).

    /// Adds a partition; returns its id. Used by the builder and by
    /// topology updates.
    pub(crate) fn push_partition(
        &mut self,
        kind: PartitionKind,
        name: Option<String>,
        floors: (Floor, Floor),
        footprint: Polygon,
    ) -> PartitionId {
        let id = PartitionId(self.partitions.len() as u32);
        let bbox = footprint.bbox();
        let is_rect = footprint.as_rect().is_some();
        self.partitions.push(Partition {
            id,
            kind,
            name,
            floor_lo: floors.0,
            floor_hi: floors.1,
            footprint,
            bbox,
            is_rect,
            doors: Vec::new(),
            active: true,
        });
        for f in floors.0..=floors.1 {
            if self.per_floor.len() <= f as usize {
                self.per_floor.resize(f as usize + 1, Vec::new());
            }
            self.per_floor[f as usize].push(id);
        }
        self.version += 1;
        self.layout_id = fresh_layout_id();
        id
    }

    /// Adds a door after validating endpoints; returns its id.
    pub(crate) fn push_door(
        &mut self,
        position: Point2,
        floor: Floor,
        partitions: [PartitionId; 2],
        direction: Direction,
        kind: DoorKind,
    ) -> Result<DoorId, ModelError> {
        if partitions[0] == partitions[1] {
            return Err(ModelError::SelfLoopDoor(partitions[0]));
        }
        for pid in partitions {
            let p = self.partition(pid)?;
            if !p.covers_floor(floor) {
                return Err(ModelError::DoorFloorMismatch {
                    floor,
                    partition: pid,
                });
            }
            // The door midpoint must touch the partition (it sits on the
            // shared wall, hence on the closed boundary of both).
            if !p.contains(position, floor) {
                return Err(ModelError::DoorOffBoundary {
                    position,
                    partition: pid,
                });
            }
        }
        let id = DoorId(self.doors.len() as u32);
        self.doors.push(Door {
            id,
            position,
            floor,
            partitions,
            direction,
            kind,
            open: true,
            active: true,
        });
        for pid in partitions {
            self.partitions[pid.index()].doors.push(id);
        }
        self.version += 1;
        Ok(id)
    }

    /// Tombstones a door, detaching it from its partitions' door lists.
    pub(crate) fn retire_door(&mut self, id: DoorId) -> Result<(), ModelError> {
        let d = self.door(id)?;
        let parts = d.partitions;
        self.doors[id.index()].active = false;
        for pid in parts {
            if let Some(p) = self.partitions.get_mut(pid.index()) {
                p.doors.retain(|&x| x != id);
            }
        }
        self.version += 1;
        Ok(())
    }

    /// Tombstones a partition along with all of its doors. Returns the
    /// retired door ids.
    pub(crate) fn retire_partition(&mut self, id: PartitionId) -> Result<Vec<DoorId>, ModelError> {
        let p = self.partition(id)?;
        let doors: Vec<DoorId> = p.doors.clone();
        let (lo, hi) = (p.floor_lo, p.floor_hi);
        for &d in &doors {
            self.retire_door(d)?;
        }
        self.partitions[id.index()].active = false;
        for f in lo..=hi {
            self.per_floor[f as usize].retain(|&x| x != id);
        }
        self.version += 1;
        self.layout_id = fresh_layout_id();
        Ok(doors)
    }

    /// Sets a door's open flag.
    pub(crate) fn set_door_open(&mut self, id: DoorId, open: bool) -> Result<(), ModelError> {
        self.door(id)?;
        self.doors[id.index()].open = open;
        self.version += 1;
        Ok(())
    }

    /// Re-points one side of a door from partition `from` to partition `to`
    /// (used when a partition is split or merged and its doors move to the
    /// successor partitions). Validates that the door still touches `to`'s
    /// geometry.
    pub(crate) fn retarget_door(
        &mut self,
        id: DoorId,
        from: PartitionId,
        to: PartitionId,
    ) -> Result<(), ModelError> {
        let d = self.door(id)?;
        let (pos, floor) = (d.position, d.floor);
        let side = d
            .partitions
            .iter()
            .position(|&p| p == from)
            .ok_or(ModelError::UnknownDoor(id))?;
        let target = self.partition(to)?;
        if !target.covers_floor(floor) {
            return Err(ModelError::DoorFloorMismatch {
                floor,
                partition: to,
            });
        }
        if !target.contains(pos, floor) {
            return Err(ModelError::DoorOffBoundary {
                position: pos,
                partition: to,
            });
        }
        self.doors[id.index()].partitions[side] = to;
        if let Some(p) = self.partitions.get_mut(from.index()) {
            p.doors.retain(|&x| x != id);
        }
        self.partitions[to.index()].doors.push(id);
        self.version += 1;
        Ok(())
    }

    /// The raw partition arena, tombstones included, in id order.
    pub fn raw_partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The raw door arena, tombstones included, in id order.
    pub fn raw_doors(&self) -> &[Door] {
        &self.doors
    }

    /// Rebuilds a space from its raw arenas, as the durable checkpoint
    /// stores them, without replaying its construction.
    ///
    /// `per_floor` is derived, not stored: walking the arena in id order
    /// and filing each active partition under its floors reproduces the
    /// exact per-floor ordering `push_partition`/`retire_partition`
    /// maintain (pushes happen in id order; retirement preserves relative
    /// order). `num_floors` *is* stored — the per-floor table never
    /// shrinks when a top floor's partitions retire, and
    /// `FloorOutOfSpace` validation depends on its length.
    ///
    /// Fails with [`ModelError::InconsistentParts`] naming the first
    /// violated invariant: `"space floor count"` (more floors than a
    /// [`Floor`] numbers), `"partition arena order"` / `"door arena
    /// order"` (an entity outside its id's slot), `"partition floors"`
    /// (reversed, or at or above `num_floors`), `"partition door id"` /
    /// `"door partition id"` (a reference past the other arena's end).
    pub fn from_wire_parts(
        partitions: Vec<Partition>,
        doors: Vec<Door>,
        floor_height: f64,
        stair_walk_factor: f64,
        num_floors: usize,
        version: u64,
    ) -> Result<Self, ModelError> {
        let check = |violated: bool, what| match violated {
            true => Err(ModelError::InconsistentParts(what)),
            false => Ok(()),
        };
        let (np, nd) = (partitions.len(), doors.len());
        check(num_floors > Floor::MAX as usize + 1, "space floor count")?;
        let misplaced = partitions
            .iter()
            .enumerate()
            .any(|(i, p)| p.id.index() != i);
        check(misplaced, "partition arena order")?;
        let misplaced = doors.iter().enumerate().any(|(i, d)| d.id.index() != i);
        check(misplaced, "door arena order")?;
        let bad_floors =
            |p: &Partition| p.floor_lo > p.floor_hi || p.floor_hi as usize >= num_floors;
        check(partitions.iter().any(bad_floors), "partition floors")?;
        let dangling = |p: &Partition| p.doors.iter().any(|d| d.index() >= nd);
        check(partitions.iter().any(dangling), "partition door id")?;
        let dangling = |d: &Door| d.partitions.iter().any(|p| p.index() >= np);
        check(doors.iter().any(dangling), "door partition id")?;
        let mut per_floor: Vec<Vec<PartitionId>> = vec![Vec::new(); num_floors];
        for p in partitions.iter().filter(|p| p.active) {
            for f in p.floor_lo..=p.floor_hi {
                per_floor[f as usize].push(p.id);
            }
        }
        Ok(IndoorSpace {
            partitions,
            doors,
            floor_height,
            stair_walk_factor,
            per_floor,
            version,
            layout_id: fresh_layout_id(),
        })
    }

    // ---- diagnostics --------------------------------------------------------

    /// Active partitions with no doors at all (unreachable by construction).
    pub fn sealed_partitions(&self) -> Vec<PartitionId> {
        self.partitions()
            .filter(|p| p.doors.is_empty())
            .map(|p| p.id)
            .collect()
    }

    /// Number of weakly connected components over active partitions,
    /// treating every open door as an undirected link. A well-formed
    /// building has one.
    pub fn connected_components(&self) -> usize {
        let n = self.partitions.len();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0;
        for start in 0..n {
            if !self.partitions[start].active || comp[start] != usize::MAX {
                continue;
            }
            count += 1;
            let mut stack = vec![start];
            comp[start] = count;
            while let Some(i) = stack.pop() {
                for &d in &self.partitions[i].doors {
                    let door = &self.doors[d.index()];
                    if !door.active || !door.open {
                        continue;
                    }
                    for pid in door.partitions {
                        let j = pid.index();
                        if self.partitions[j].active && comp[j] == usize::MAX {
                            comp[j] = count;
                            stack.push(j);
                        }
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FloorPlanBuilder;
    use idq_geom::Rect2;

    /// Two rooms side by side joined by one door.
    fn two_rooms() -> (IndoorSpace, PartitionId, PartitionId, DoorId) {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let d = b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
        (b.finish().unwrap(), a, c, d)
    }

    #[test]
    fn from_wire_parts_refuses_inconsistent_arenas() {
        let (s, ..) = two_rooms();
        let n = s.num_floors();
        let rebuild = |edit: &dyn Fn(&mut Vec<Partition>, &mut Vec<Door>), floors: usize| {
            let (mut ps, mut ds) = (s.raw_partitions().to_vec(), s.raw_doors().to_vec());
            edit(&mut ps, &mut ds);
            IndoorSpace::from_wire_parts(ps, ds, 4.0, s.stair_walk_factor(), floors, s.version())
        };
        let refused = |edit: &dyn Fn(&mut Vec<Partition>, &mut Vec<Door>), floors| match rebuild(
            edit, floors,
        ) {
            Err(ModelError::InconsistentParts(what)) => what,
            other => panic!("expected a refusal, got {:?}", other.map(|s| s.version())),
        };
        let rebuilt = rebuild(&|_, _| {}, n).unwrap();
        assert_eq!(rebuilt.partitions_on_floor(0), s.partitions_on_floor(0));
        let too_many = Floor::MAX as usize + 2;
        assert_eq!(refused(&|_, _| {}, too_many), "space floor count");
        assert_eq!(refused(&|p, _| p.swap(0, 1), n), "partition arena order");
        assert_eq!(refused(&|_, d| d[0].id = DoorId(9), n), "door arena order");
        assert_eq!(refused(&|p, _| p[1].floor_hi = 1, n), "partition floors");
        assert_eq!(
            refused(&|p, _| p[0].doors.push(DoorId(9)), n),
            "partition door id"
        );
        assert_eq!(
            refused(&|_, d| d[0].partitions[1] = PartitionId(9), n),
            "door partition id"
        );
    }

    #[test]
    fn point_location_and_accessors() {
        let (s, a, c, d) = two_rooms();
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(3.0, 3.0), 0)),
            Some(a)
        );
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(15.0, 3.0), 0)),
            Some(c)
        );
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(3.0, 3.0), 1)),
            None
        );
        assert_eq!(
            s.partition_at(IndoorPoint::new(Point2::new(50.0, 3.0), 0)),
            None
        );
        assert_eq!(s.doors_of(a).unwrap(), &[d]);
        assert_eq!(s.door(d).unwrap().partitions, [a, c]);
        // The door point is in both rooms (shared wall).
        let on_wall = IndoorPoint::new(Point2::new(10.0, 5.0), 0);
        assert_eq!(s.partitions_at(on_wall).len(), 2);
        assert_eq!(s.partition_at(on_wall), Some(a)); // deterministic min-id
    }

    #[test]
    fn traversal_predicates() {
        let (mut s, a, c, d) = two_rooms();
        assert!(s.can_pass(d, a, c));
        assert!(s.can_pass(d, c, a));
        assert!(s.can_enter(d, a));
        assert!(s.can_leave(d, a));
        s.set_door_open(d, false).unwrap();
        assert!(!s.can_pass(d, a, c));
        let entries: Vec<DoorId> = s
            .doors_of(a)
            .unwrap()
            .iter()
            .copied()
            .filter(|&x| s.can_enter(x, a))
            .collect();
        assert_eq!(entries, Vec::<DoorId>::new());
        s.set_door_open(d, true).unwrap();
        let exits: Vec<DoorId> = s
            .doors_of(c)
            .unwrap()
            .iter()
            .copied()
            .filter(|&x| s.can_leave(x, c))
            .collect();
        assert_eq!(exits, vec![d]);
    }

    #[test]
    fn distances() {
        let (s, _, _, d) = two_rooms();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        assert!((s.point_to_door(q, d).unwrap() - 8.0).abs() < 1e-9);
        // Same-floor intra distance is Euclidean.
        let a = IndoorPoint::new(Point2::new(0.0, 0.0), 0);
        let b = IndoorPoint::new(Point2::new(3.0, 4.0), 0);
        assert!((s.intra_distance(a, b) - 5.0).abs() < 1e-9);
        // Cross-floor adds scaled vertical drop (floor height 4, factor 2).
        let up = IndoorPoint::new(Point2::new(3.0, 4.0), 1);
        assert!((s.intra_distance(a, up) - (5.0 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn versioning_and_retirement() {
        let (mut s, a, c, d) = two_rooms();
        let v = s.version();
        let layout = s.layout_id();
        s.retire_door(d).unwrap();
        assert!(s.version() > v);
        assert_eq!(s.layout_id(), layout, "door operations keep the layout");
        assert_eq!(s.clone().layout_id(), layout, "clones share it");
        assert!(s.door(d).is_err());
        assert!(s.doors_of(a).unwrap().is_empty());
        assert_eq!(s.connected_components(), 2);
        let removed = s.retire_partition(c).unwrap();
        assert_ne!(s.layout_id(), layout, "a partition retirement is new");
        assert!(removed.is_empty()); // its only door already retired
        assert!(s.partition(c).is_err());
        assert_eq!(s.partition_count(), 1);
        assert_eq!(s.partitions_on_floor(0), &[a]);
    }

    #[test]
    fn sealed_and_components_diagnostics() {
        let (s, _, _, _) = two_rooms();
        assert!(s.sealed_partitions().is_empty());
        assert_eq!(s.connected_components(), 1);
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, Rect2::from_bounds(0.0, 0.0, 5.0, 5.0))
            .unwrap();
        let lonely = b.finish().unwrap();
        assert_eq!(lonely.sealed_partitions().len(), 1);
    }

    #[test]
    fn door_validation_errors() {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        // Off both partitions.
        assert!(matches!(
            b.add_door_between(a, c, Point2::new(50.0, 50.0)),
            Err(ModelError::DoorOffBoundary { .. })
        ));
        // Self-loop.
        assert!(matches!(
            b.add_door_between(a, a, Point2::new(5.0, 5.0)),
            Err(ModelError::SelfLoopDoor(_))
        ));
    }
}
