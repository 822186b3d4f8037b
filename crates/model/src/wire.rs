//! Durable wire codec for the indoor space and topology specs.
//!
//! Serialization lives with the types it serializes (this crate owns the
//! space), on top of the primitives in `idq_storage::codec`. The format is
//! full-fidelity: raw arenas with tombstones, door-list order, the topology
//! version counter, and the floor count — everything a recovered space
//! needs to behave identically to the original, including the parts that
//! are history-dependent rather than derivable from active entities
//! (`num_floors` never shrinks; cached geometry is recomputed).
//!
//! All floating-point values travel as IEEE-754 bit patterns, so a decoded
//! space is *bit-identical* in every coordinate — the property the
//! engine's recovery-equivalence digests assert.

use crate::door::{Direction, Door, DoorKind};
use crate::ids::{DoorId, Floor, PartitionId};
use crate::partition::{Partition, PartitionKind};
use crate::space::IndoorSpace;
use crate::topology::{DoorSpec, PartitionSpec, SplitLine};
use idq_geom::{Point2, Polygon};
use idq_storage::codec::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, put_usize, Cursor};
use idq_storage::StorageError;

// ---- geometry primitives --------------------------------------------------

pub fn put_point(buf: &mut Vec<u8>, p: Point2) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

pub fn take_point(c: &mut Cursor<'_>) -> Result<Point2, StorageError> {
    let x = c.take_f64("point.x")?;
    let y = c.take_f64("point.y")?;
    Ok(Point2::new(x, y))
}

/// Vertices are stored in the canonical (counter-clockwise) order
/// [`Polygon::vertices`] exposes, so `Polygon::new` reconstructs the exact
/// vertex sequence; the bounding box and rectangle flag are recomputed
/// deterministically from the same bits.
pub fn put_polygon(buf: &mut Vec<u8>, poly: &Polygon) {
    put_usize(buf, poly.vertices().len());
    for &v in poly.vertices() {
        put_point(buf, v);
    }
}

pub fn take_polygon(c: &mut Cursor<'_>) -> Result<Polygon, StorageError> {
    let n = c.take_len("polygon vertex count")?;
    let mut verts = Vec::with_capacity(n);
    for _ in 0..n {
        verts.push(take_point(c)?);
    }
    let at = c.pos();
    Polygon::new(verts).map_err(|_| StorageError::Decode {
        what: "polygon",
        offset: at,
    })
}

pub fn put_floor(buf: &mut Vec<u8>, f: Floor) {
    put_u32(buf, f as u32);
}

pub fn take_floor(c: &mut Cursor<'_>) -> Result<Floor, StorageError> {
    let v = c.take_u32("floor")?;
    Floor::try_from(v).map_err(|_| StorageError::Decode {
        what: "floor",
        offset: c.pos(),
    })
}

fn put_opt_str(buf: &mut Vec<u8>, s: &Option<String>) {
    put_bool(buf, s.is_some());
    if let Some(s) = s {
        put_str(buf, s);
    }
}

fn take_opt_str(c: &mut Cursor<'_>, what: &'static str) -> Result<Option<String>, StorageError> {
    if c.take_bool(what)? {
        Ok(Some(c.take_str(what)?))
    } else {
        Ok(None)
    }
}

// ---- enums ----------------------------------------------------------------

pub fn put_direction(buf: &mut Vec<u8>, d: Direction) {
    put_u8(
        buf,
        match d {
            Direction::Bidirectional => 0,
            Direction::OneWay => 1,
        },
    );
}

pub fn take_direction(c: &mut Cursor<'_>) -> Result<Direction, StorageError> {
    match c.take_u8("direction")? {
        0 => Ok(Direction::Bidirectional),
        1 => Ok(Direction::OneWay),
        _ => Err(StorageError::Decode {
            what: "direction",
            offset: c.pos() - 1,
        }),
    }
}

fn put_partition_kind(buf: &mut Vec<u8>, k: PartitionKind) {
    put_u8(
        buf,
        match k {
            PartitionKind::Room => 0,
            PartitionKind::Hallway => 1,
            PartitionKind::Staircase => 2,
        },
    );
}

fn take_partition_kind(c: &mut Cursor<'_>) -> Result<PartitionKind, StorageError> {
    match c.take_u8("partition kind")? {
        0 => Ok(PartitionKind::Room),
        1 => Ok(PartitionKind::Hallway),
        2 => Ok(PartitionKind::Staircase),
        _ => Err(StorageError::Decode {
            what: "partition kind",
            offset: c.pos() - 1,
        }),
    }
}

fn put_door_kind(buf: &mut Vec<u8>, k: DoorKind) {
    put_u8(
        buf,
        match k {
            DoorKind::Interior => 0,
            DoorKind::StaircaseEntrance => 1,
        },
    );
}

fn take_door_kind(c: &mut Cursor<'_>) -> Result<DoorKind, StorageError> {
    match c.take_u8("door kind")? {
        0 => Ok(DoorKind::Interior),
        1 => Ok(DoorKind::StaircaseEntrance),
        _ => Err(StorageError::Decode {
            what: "door kind",
            offset: c.pos() - 1,
        }),
    }
}

pub fn put_split_line(buf: &mut Vec<u8>, line: SplitLine) {
    match line {
        SplitLine::AtX(x) => {
            put_u8(buf, 0);
            put_f64(buf, x);
        }
        SplitLine::AtY(y) => {
            put_u8(buf, 1);
            put_f64(buf, y);
        }
    }
}

pub fn take_split_line(c: &mut Cursor<'_>) -> Result<SplitLine, StorageError> {
    match c.take_u8("split line")? {
        0 => Ok(SplitLine::AtX(c.take_f64("split line x")?)),
        1 => Ok(SplitLine::AtY(c.take_f64("split line y")?)),
        _ => Err(StorageError::Decode {
            what: "split line",
            offset: c.pos() - 1,
        }),
    }
}

// ---- topology specs -------------------------------------------------------

pub fn put_partition_spec(buf: &mut Vec<u8>, spec: &PartitionSpec) {
    put_partition_kind(buf, spec.kind);
    put_opt_str(buf, &spec.name);
    put_floor(buf, spec.floor);
    put_polygon(buf, &spec.footprint);
    put_usize(buf, spec.doors.len());
    for d in &spec.doors {
        put_point(buf, d.position);
        put_u32(buf, d.other.0);
        put_direction(buf, d.direction);
    }
}

pub fn take_partition_spec(c: &mut Cursor<'_>) -> Result<PartitionSpec, StorageError> {
    let kind = take_partition_kind(c)?;
    let name = take_opt_str(c, "partition spec name")?;
    let floor = take_floor(c)?;
    let footprint = take_polygon(c)?;
    let n = c.take_len("partition spec door count")?;
    let mut doors = Vec::with_capacity(n);
    for _ in 0..n {
        let position = take_point(c)?;
        let other = PartitionId(c.take_u32("door spec partition")?);
        let direction = take_direction(c)?;
        doors.push(DoorSpec {
            position,
            other,
            direction,
        });
    }
    Ok(PartitionSpec {
        kind,
        name,
        floor,
        footprint,
        doors,
    })
}

// ---- arenas ---------------------------------------------------------------

fn put_partition(buf: &mut Vec<u8>, p: &Partition) {
    put_u32(buf, p.id.0);
    put_partition_kind(buf, p.kind);
    put_opt_str(buf, &p.name);
    put_floor(buf, p.floor_lo);
    put_floor(buf, p.floor_hi);
    put_polygon(buf, &p.footprint);
    put_usize(buf, p.doors.len());
    for d in &p.doors {
        put_u32(buf, d.0);
    }
    put_bool(buf, p.active);
}

fn take_partition(c: &mut Cursor<'_>) -> Result<Partition, StorageError> {
    let id = PartitionId(c.take_u32("partition id")?);
    let kind = take_partition_kind(c)?;
    let name = take_opt_str(c, "partition name")?;
    let floor_lo = take_floor(c)?;
    let floor_hi = take_floor(c)?;
    let footprint = take_polygon(c)?;
    let n = c.take_len("partition door count")?;
    let mut doors = Vec::with_capacity(n);
    for _ in 0..n {
        doors.push(DoorId(c.take_u32("partition door id")?));
    }
    let active = c.take_bool("partition active")?;
    let bbox = footprint.bbox();
    let is_rect = footprint.as_rect().is_some();
    Ok(Partition {
        id,
        kind,
        name,
        floor_lo,
        floor_hi,
        footprint,
        bbox,
        is_rect,
        doors,
        active,
    })
}

fn put_door(buf: &mut Vec<u8>, d: &Door) {
    put_u32(buf, d.id.0);
    put_point(buf, d.position);
    put_floor(buf, d.floor);
    put_u32(buf, d.partitions[0].0);
    put_u32(buf, d.partitions[1].0);
    put_direction(buf, d.direction);
    put_door_kind(buf, d.kind);
    put_bool(buf, d.open);
    put_bool(buf, d.active);
}

fn take_door(c: &mut Cursor<'_>) -> Result<Door, StorageError> {
    let id = DoorId(c.take_u32("door id")?);
    let position = take_point(c)?;
    let floor = take_floor(c)?;
    let partitions = [
        PartitionId(c.take_u32("door partition a")?),
        PartitionId(c.take_u32("door partition b")?),
    ];
    let direction = take_direction(c)?;
    let kind = take_door_kind(c)?;
    let open = c.take_bool("door open")?;
    let active = c.take_bool("door active")?;
    Ok(Door {
        id,
        position,
        floor,
        partitions,
        direction,
        kind,
        open,
        active,
    })
}

// ---- the space ------------------------------------------------------------

/// Serialize the full space: raw arenas (tombstones included, id order),
/// model constants, the mutation-version counter, and the floor count.
pub fn put_space(buf: &mut Vec<u8>, space: &IndoorSpace) {
    put_f64(buf, space.floor_height());
    put_f64(buf, space.stair_walk_factor());
    put_usize(buf, space.num_floors());
    put_u64(buf, space.version());
    let partitions = space.raw_partitions();
    put_usize(buf, partitions.len());
    for p in partitions {
        put_partition(buf, p);
    }
    let doors = space.raw_doors();
    put_usize(buf, doors.len());
    for d in doors {
        put_door(buf, d);
    }
}

/// Decode a space serialized by [`put_space`].
pub fn take_space(c: &mut Cursor<'_>) -> Result<IndoorSpace, StorageError> {
    let floor_height = c.take_f64("space floor height")?;
    let stair_walk_factor = c.take_f64("space stair walk factor")?;
    let num_floors = c.take_usize("space floor count")?;
    // `from_wire_parts` allocates one list per floor, so a corrupt count
    // must fail here rather than abort in that allocation.
    if num_floors > Floor::MAX as usize + 1 {
        return Err(StorageError::Decode {
            what: "space floor count",
            offset: c.pos(),
        });
    }
    let version = c.take_u64("space version")?;
    let np = c.take_len("space partition count")?;
    let mut partitions = Vec::with_capacity(np);
    for i in 0..np {
        let p = take_partition(c)?;
        if p.id.index() != i {
            return Err(StorageError::Decode {
                what: "partition arena order",
                offset: c.pos(),
            });
        }
        partitions.push(p);
    }
    let nd = c.take_len("space door count")?;
    let mut doors = Vec::with_capacity(nd);
    for i in 0..nd {
        let d = take_door(c)?;
        if d.id.index() != i {
            return Err(StorageError::Decode {
                what: "door arena order",
                offset: c.pos(),
            });
        }
        doors.push(d);
    }
    Ok(IndoorSpace::from_wire_parts(
        partitions,
        doors,
        floor_height,
        stair_walk_factor,
        num_floors,
        version,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FloorPlanBuilder;
    use crate::point::IndoorPoint;
    use idq_geom::Rect2;

    fn building() -> IndoorSpace {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
        let up = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let stair = b
            .add_staircase((0, 1), Rect2::from_bounds(8.0, 8.0, 10.0, 10.0))
            .unwrap();
        b.add_staircase_entrance(stair, a, 0, Point2::new(9.0, 8.0))
            .unwrap();
        b.add_staircase_entrance(stair, up, 1, Point2::new(9.0, 9.0))
            .unwrap();
        b.finish().unwrap()
    }

    fn round_trip(space: &IndoorSpace) -> IndoorSpace {
        let mut buf = Vec::new();
        put_space(&mut buf, space);
        let mut c = Cursor::new(&buf);
        let out = take_space(&mut c).unwrap();
        c.finish("space").unwrap();
        assert_ne!(
            out.layout_id(),
            space.layout_id(),
            "decoding draws a new id"
        );
        out
    }

    fn assert_space_identical(a: &IndoorSpace, b: &IndoorSpace) {
        assert_eq!(a.version(), b.version());
        assert_eq!(a.num_floors(), b.num_floors());
        assert_eq!(a.partition_slots(), b.partition_slots());
        assert_eq!(a.door_slots(), b.door_slots());
        assert_eq!(a.floor_height().to_bits(), b.floor_height().to_bits());
        for i in 0..a.partition_slots() {
            let (pa, pb) = (
                a.partition_raw(PartitionId(i as u32)).unwrap(),
                b.partition_raw(PartitionId(i as u32)).unwrap(),
            );
            assert_eq!(pa.kind, pb.kind);
            assert_eq!(pa.name, pb.name);
            assert_eq!((pa.floor_lo, pa.floor_hi), (pb.floor_lo, pb.floor_hi));
            assert_eq!(pa.footprint, pb.footprint);
            assert_eq!(pa.bbox, pb.bbox);
            assert_eq!(pa.is_rect, pb.is_rect);
            assert_eq!(pa.doors, pb.doors);
            assert_eq!(pa.active, pb.active);
        }
        for i in 0..a.door_slots() {
            let (da, db) = (
                a.door_raw(DoorId(i as u32)).unwrap(),
                b.door_raw(DoorId(i as u32)).unwrap(),
            );
            assert_eq!(da.position, db.position);
            assert_eq!(da.floor, db.floor);
            assert_eq!(da.partitions, db.partitions);
            assert_eq!(da.direction, db.direction);
            assert_eq!(da.kind, db.kind);
            assert_eq!((da.open, da.active), (db.open, db.active));
        }
        for f in 0..a.num_floors() as Floor {
            assert_eq!(a.partitions_on_floor(f), b.partitions_on_floor(f));
        }
    }

    #[test]
    fn space_round_trips_bit_identically() {
        let space = building();
        assert_space_identical(&space, &round_trip(&space));
    }

    #[test]
    fn tombstones_and_closed_doors_survive() {
        let mut space = building();
        let door = space.doors().next().unwrap().id;
        space.close_door(door).unwrap();
        let victim = space.partitions().last().unwrap().id;
        space.retire_partition(victim).unwrap();
        let rt = round_trip(&space);
        assert_space_identical(&space, &rt);
        assert!(rt.partition(victim).is_err());
        assert!(!rt.door(door).unwrap().open);
    }

    #[test]
    fn num_floors_survives_top_floor_retirement() {
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let top = b
            .add_room(3, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let mut space = b.finish().unwrap();
        space.retire_partition(top).unwrap();
        assert_eq!(space.num_floors(), 4);
        // Derived-only reconstruction would shrink to 1 floor; the stored
        // count keeps floor validation identical after recovery.
        assert_eq!(round_trip(&space).num_floors(), 4);
    }

    #[test]
    fn specs_and_enums_round_trip() {
        let spec = PartitionSpec {
            kind: PartitionKind::Hallway,
            name: Some("annex".to_string()),
            floor: 2,
            footprint: Polygon::from_rect(Rect2::from_bounds(0.0, 0.0, 4.0, 2.0)),
            doors: vec![DoorSpec {
                position: Point2::new(0.0, 1.0),
                other: PartitionId(7),
                direction: Direction::OneWay,
            }],
        };
        let mut buf = Vec::new();
        put_partition_spec(&mut buf, &spec);
        put_split_line(&mut buf, SplitLine::AtY(3.5));
        let mut c = Cursor::new(&buf);
        let back = take_partition_spec(&mut c).unwrap();
        assert_eq!(back.name.as_deref(), Some("annex"));
        assert_eq!(back.doors[0].other, PartitionId(7));
        assert_eq!(back.doors[0].direction, Direction::OneWay);
        assert_eq!(take_split_line(&mut c).unwrap(), SplitLine::AtY(3.5));
        c.finish("specs").unwrap();
    }

    #[test]
    fn corrupt_enum_tag_is_a_decode_error() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            take_direction(&mut c),
            Err(StorageError::Decode { .. })
        ));
    }

    #[test]
    fn recovered_space_answers_point_location() {
        let space = building();
        let rt = round_trip(&space);
        let q = IndoorPoint::new(Point2::new(3.0, 3.0), 0);
        assert_eq!(space.partition_at(q), rt.partition_at(q));
    }
}
