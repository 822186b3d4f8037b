//! The durable payload format: one WAL record payload (a committed batch)
//! and one checkpoint payload (a materialized version). This doc is the
//! format's specification; `idq_storage` frames each payload (length,
//! CRC32, epoch) and never looks inside it.
//!
//! ```text
//! batch      = FORMAT:u8 updates:seq<update> inserted:seq<u64>
//! checkpoint = FORMAT:u8 space store
//!
//! update     = tag:u8, then by tag:
//!               0 InsertObject     object
//!               1 InsertObjectAt   center:point floor radius:f64
//!                                  instances:usize seed:u64
//!               2 MoveObject       id:u64 center:point floor seed:u64
//!               3 RemoveObject     id:u64
//!               4 OpenDoor         door:u32
//!               5 CloseDoor        door:u32
//!               6 InsertDoor       a:u32 b:u32 position:point floor direction
//!               7 InsertPartition  partition_kind name:opt<str> floor
//!                                  footprint:polygon
//!                                  doors:seq<position:point other:u32 direction>
//!               8 DeletePartition  partition:u32
//!               9 SplitPartition   partition:u32 split_line
//!                                  connecting_door:opt<point>
//!              10 MergePartitions  a:u32 b:u32
//! split_line = 0 x:f64 | 1 y:f64
//!
//! space      = floor_height:f64 stair_walk_factor:f64 num_floors:usize
//!              version:u64 partitions:seq<partition> doors:seq<door>
//! partition  = id:u32 partition_kind name:opt<str> floor_lo:floor
//!              floor_hi:floor footprint:polygon doors:seq<u32> active:bool
//! door       = id:u32 position:point floor partition_a:u32 partition_b:u32
//!              direction door_kind open:bool active:bool
//! store      = id_watermark:u64 objects:seq<object>
//! object     = id:u64 center:point radius:f64 floor instances:seq<instance>
//! instance   = position:point floor weight:f64
//!
//! point          = x:f64 y:f64
//! polygon        = seq<point>
//! floor          = u32
//! direction      = u8: 0 Bidirectional, 1 OneWay
//! partition_kind = u8: 0 Room, 1 Hallway, 2 Staircase
//! door_kind      = u8: 0 Interior, 1 StaircaseEntrance
//! ```
//!
//! Integers are little-endian; `usize` travels as `u64`. An `f64` is its
//! IEEE-754 bit pattern as a `u64`, so every decoded float is
//! bit-identical, the property the recovery digests assert. A `bool` is
//! one byte, `0` or `1`. A `str` is a `u64` byte length, then UTF-8. A
//! `seq<T>` is a `u64` count, then the items; an `opt<T>` is a `bool`,
//! then the `T` if it is `1`. The primitives are `idq_storage::codec`'s.
//!
//! * **Batch.** The updates exactly as the sequencer committed them, then
//!   the ids the batch's inserts allocated, in outcome order, so replay
//!   proves the recovered execution allocated the same ids.
//! * **Checkpoint.** The raw arenas in id order, tombstones included, and
//!   the floor count, which never shrinks: everything a recovered space
//!   needs to behave as the original did. A polygon's vertices are the
//!   counter-clockwise sequence `Polygon::vertices` exposes. Objects are in
//!   ascending id order, and the id-allocation watermark travels with them,
//!   since deterministic id allocation depends on it. The index is
//!   derived state and is rebuilt on recovery.
//!
//! Identical state encodes to identical bytes. A decoder consumes every
//! byte of its payload or fails with a typed [`StorageError::Decode`]
//! naming the field it stopped at; it never panics, and it reserves
//! memory in proportion to the payload, never to a count it read.
//! [`FORMAT`] 3 versions both payloads. Version 2 marked the replay rule
//! that refuses a batch which strands an instance outside every active
//! partition; version 3 drops the radius high-water mark that ended a
//! version-2 checkpoint. Any other version fails to decode, so a
//! directory written at version 2 refuses to recover.

use crate::update::Update;
use idq_geom::{Circle, Point2, Polygon};
use idq_model::{
    Direction, Door, DoorId, DoorKind, DoorSpec, Floor, IndoorSpace, ModelError, Partition,
    PartitionId, PartitionKind, PartitionSpec, SplitLine,
};
use idq_objects::{Instance, ObjectId, ObjectStore, UncertainObject};
use idq_storage::StorageError;
use idq_storage::{
    put_bool, put_f64, put_opt, put_seq, put_str, put_tag, put_u32, put_u64, put_u8, put_usize,
    Cursor,
};

/// The payload format version: the first byte of every WAL record payload
/// and every checkpoint payload.
pub const FORMAT: u8 = 3;

const DIRECTIONS: [Direction; 2] = [Direction::Bidirectional, Direction::OneWay];
const PARTITION_KINDS: [PartitionKind; 3] = [
    PartitionKind::Room,
    PartitionKind::Hallway,
    PartitionKind::Staircase,
];
const DOOR_KINDS: [DoorKind; 2] = [DoorKind::Interior, DoorKind::StaircaseEntrance];

/// One decoded WAL record payload.
#[derive(Clone, Debug)]
pub(crate) struct WalBatch {
    pub(crate) updates: Vec<Update>,
    /// Ids of the objects this batch inserted, in outcome order — both
    /// `InsertObject` (externally named) and `InsertObjectAt` (allocated).
    pub(crate) inserted: Vec<ObjectId>,
}

/// Encodes a WAL record payload straight from the batch the sequencer is
/// about to publish.
pub fn encode_batch(updates: &[Update], inserted: &[ObjectId]) -> Vec<u8> {
    let mut buf = vec![FORMAT];
    put_seq(&mut buf, updates, put_update);
    put_seq(&mut buf, inserted, |buf, id| put_u64(buf, id.0));
    buf
}

/// Decodes a WAL record payload written by [`encode_batch`].
pub(crate) fn decode_batch(payload: &[u8]) -> Result<WalBatch, StorageError> {
    let mut c = Cursor::new(payload);
    take_format(&mut c, "wal format version")?;
    let updates = c.take_seq("batch update count", take_update)?;
    let inserted = c.take_seq("batch inserted-id count", |c| {
        Ok(ObjectId(c.take_u64("batch inserted id")?))
    })?;
    c.finish("wal batch")?;
    Ok(WalBatch { updates, inserted })
}

/// Encodes a checkpoint payload: the space and store layers.
pub(crate) fn encode_checkpoint(space: &IndoorSpace, store: &ObjectStore) -> Vec<u8> {
    let mut buf = vec![FORMAT];
    put_space(&mut buf, space);
    put_store(&mut buf, store);
    buf
}

/// Decodes a checkpoint payload written by `encode_checkpoint`.
pub fn decode_checkpoint(payload: &[u8]) -> Result<(IndoorSpace, ObjectStore), StorageError> {
    let mut c = Cursor::new(payload);
    take_format(&mut c, "checkpoint format version")?;
    let space = take_space(&mut c)?;
    let store = take_store(&mut c)?;
    c.finish("checkpoint payload")?;
    Ok((space, store))
}

fn take_format(c: &mut Cursor<'_>, what: &'static str) -> Result<(), StorageError> {
    match c.take_u8(what)? {
        FORMAT => Ok(()),
        _ => Err(StorageError::Decode { what, offset: 0 }),
    }
}

// ---- updates --------------------------------------------------------------

fn put_update(buf: &mut Vec<u8>, update: &Update) {
    match update {
        Update::InsertObject(object) => {
            put_u8(buf, 0);
            put_object(buf, object);
        }
        Update::InsertObjectAt {
            center,
            floor,
            radius,
            instances,
            seed,
        } => {
            put_u8(buf, 1);
            put_point(buf, *center);
            put_floor(buf, *floor);
            put_f64(buf, *radius);
            put_usize(buf, *instances);
            put_u64(buf, *seed);
        }
        Update::MoveObject {
            id,
            center,
            floor,
            seed,
        } => {
            put_u8(buf, 2);
            put_u64(buf, id.0);
            put_point(buf, *center);
            put_floor(buf, *floor);
            put_u64(buf, *seed);
        }
        Update::RemoveObject(id) => {
            put_u8(buf, 3);
            put_u64(buf, id.0);
        }
        Update::OpenDoor(d) => {
            put_u8(buf, 4);
            put_u32(buf, d.0);
        }
        Update::CloseDoor(d) => {
            put_u8(buf, 5);
            put_u32(buf, d.0);
        }
        Update::InsertDoor {
            a,
            b,
            position,
            floor,
            direction,
        } => {
            put_u8(buf, 6);
            put_u32(buf, a.0);
            put_u32(buf, b.0);
            put_point(buf, *position);
            put_floor(buf, *floor);
            put_tag(buf, &DIRECTIONS, *direction);
        }
        Update::InsertPartition(spec) => {
            put_u8(buf, 7);
            put_partition_spec(buf, spec);
        }
        Update::DeletePartition(p) => {
            put_u8(buf, 8);
            put_u32(buf, p.0);
        }
        Update::SplitPartition {
            partition,
            line,
            connecting_door,
        } => {
            put_u8(buf, 9);
            put_u32(buf, partition.0);
            put_split_line(buf, *line);
            put_opt(buf, *connecting_door, put_point);
        }
        Update::MergePartitions(a, b) => {
            put_u8(buf, 10);
            put_u32(buf, a.0);
            put_u32(buf, b.0);
        }
    }
}

fn take_update(c: &mut Cursor<'_>) -> Result<Update, StorageError> {
    let tag_at = c.pos();
    match c.take_u8("update tag")? {
        0 => Ok(Update::InsertObject(Box::new(take_object(c)?))),
        1 => Ok(Update::InsertObjectAt {
            center: take_point(c)?,
            floor: take_floor(c)?,
            radius: c.take_f64("insert radius")?,
            instances: c.take_usize("insert instance count")?,
            seed: c.take_u64("insert seed")?,
        }),
        2 => Ok(Update::MoveObject {
            id: ObjectId(c.take_u64("move object id")?),
            center: take_point(c)?,
            floor: take_floor(c)?,
            seed: c.take_u64("move seed")?,
        }),
        3 => Ok(Update::RemoveObject(ObjectId(
            c.take_u64("remove object id")?,
        ))),
        4 => Ok(Update::OpenDoor(DoorId(c.take_u32("open door id")?))),
        5 => Ok(Update::CloseDoor(DoorId(c.take_u32("close door id")?))),
        6 => Ok(Update::InsertDoor {
            a: PartitionId(c.take_u32("door partition a")?),
            b: PartitionId(c.take_u32("door partition b")?),
            position: take_point(c)?,
            floor: take_floor(c)?,
            direction: c.take_tag("direction", &DIRECTIONS)?,
        }),
        7 => Ok(Update::InsertPartition(take_partition_spec(c)?)),
        8 => Ok(Update::DeletePartition(PartitionId(
            c.take_u32("delete partition id")?,
        ))),
        9 => Ok(Update::SplitPartition {
            partition: PartitionId(c.take_u32("split partition id")?),
            line: take_split_line(c)?,
            connecting_door: c.take_opt("split connecting door flag", take_point)?,
        }),
        10 => Ok(Update::MergePartitions(
            PartitionId(c.take_u32("merge partition a")?),
            PartitionId(c.take_u32("merge partition b")?),
        )),
        _ => Err(StorageError::Decode {
            what: "update tag",
            offset: tag_at,
        }),
    }
}

fn put_partition_spec(buf: &mut Vec<u8>, spec: &PartitionSpec) {
    put_tag(buf, &PARTITION_KINDS, spec.kind);
    put_opt(buf, spec.name.as_deref(), put_str);
    put_floor(buf, spec.floor);
    put_polygon(buf, &spec.footprint);
    put_seq(buf, &spec.doors, |buf, d| {
        put_point(buf, d.position);
        put_u32(buf, d.other.0);
        put_tag(buf, &DIRECTIONS, d.direction);
    });
}

fn take_partition_spec(c: &mut Cursor<'_>) -> Result<PartitionSpec, StorageError> {
    Ok(PartitionSpec {
        kind: c.take_tag("partition kind", &PARTITION_KINDS)?,
        name: c.take_opt("partition spec name", |c| c.take_str("partition spec name"))?,
        floor: take_floor(c)?,
        footprint: take_polygon(c)?,
        doors: c.take_seq("partition spec door count", |c| {
            Ok(DoorSpec {
                position: take_point(c)?,
                other: PartitionId(c.take_u32("door spec partition")?),
                direction: c.take_tag("direction", &DIRECTIONS)?,
            })
        })?,
    })
}

fn put_split_line(buf: &mut Vec<u8>, line: SplitLine) {
    let (tag, at) = match line {
        SplitLine::AtX(x) => (0, x),
        SplitLine::AtY(y) => (1, y),
    };
    put_u8(buf, tag);
    put_f64(buf, at);
}

fn take_split_line(c: &mut Cursor<'_>) -> Result<SplitLine, StorageError> {
    let tag_at = c.pos();
    match c.take_u8("split line")? {
        0 => Ok(SplitLine::AtX(c.take_f64("split line x")?)),
        1 => Ok(SplitLine::AtY(c.take_f64("split line y")?)),
        _ => Err(StorageError::Decode {
            what: "split line",
            offset: tag_at,
        }),
    }
}

// ---- the space ------------------------------------------------------------

fn put_space(buf: &mut Vec<u8>, space: &IndoorSpace) {
    put_f64(buf, space.floor_height());
    put_f64(buf, space.stair_walk_factor());
    put_usize(buf, space.num_floors());
    put_u64(buf, space.version());
    put_seq(buf, space.raw_partitions(), put_partition);
    put_seq(buf, space.raw_doors(), put_door);
}

fn take_space(c: &mut Cursor<'_>) -> Result<IndoorSpace, StorageError> {
    let floor_height = c.take_f64("space floor height")?;
    let stair_walk_factor = c.take_f64("space stair walk factor")?;
    let num_floors = c.take_usize("space floor count")?;
    let version = c.take_u64("space version")?;
    let partitions = c.take_seq("space partition count", take_partition)?;
    let doors = c.take_seq("space door count", take_door)?;
    IndoorSpace::from_wire_parts(
        partitions,
        doors,
        floor_height,
        stair_walk_factor,
        num_floors,
        version,
    )
    .map_err(|e| StorageError::Decode {
        what: match e {
            ModelError::InconsistentParts(what) => what,
            _ => "space",
        },
        offset: c.pos(),
    })
}

fn put_partition(buf: &mut Vec<u8>, p: &Partition) {
    put_u32(buf, p.id.0);
    put_tag(buf, &PARTITION_KINDS, p.kind);
    put_opt(buf, p.name.as_deref(), put_str);
    put_floor(buf, p.floor_lo);
    put_floor(buf, p.floor_hi);
    put_polygon(buf, &p.footprint);
    put_seq(buf, &p.doors, |buf, d| put_u32(buf, d.0));
    put_bool(buf, p.active);
}

fn take_partition(c: &mut Cursor<'_>) -> Result<Partition, StorageError> {
    let id = PartitionId(c.take_u32("partition id")?);
    let kind = c.take_tag("partition kind", &PARTITION_KINDS)?;
    let name = c.take_opt("partition name", |c| c.take_str("partition name"))?;
    let floor_lo = take_floor(c)?;
    let floor_hi = take_floor(c)?;
    let footprint = take_polygon(c)?;
    let doors = c.take_seq("partition door count", |c| {
        Ok(DoorId(c.take_u32("partition door id")?))
    })?;
    let active = c.take_bool("partition active")?;
    Ok(Partition {
        id,
        kind,
        name,
        floor_lo,
        floor_hi,
        bbox: footprint.bbox(),
        is_rect: footprint.as_rect().is_some(),
        footprint,
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
    put_tag(buf, &DIRECTIONS, d.direction);
    put_tag(buf, &DOOR_KINDS, d.kind);
    put_bool(buf, d.open);
    put_bool(buf, d.active);
}

fn take_door(c: &mut Cursor<'_>) -> Result<Door, StorageError> {
    Ok(Door {
        id: DoorId(c.take_u32("door id")?),
        position: take_point(c)?,
        floor: take_floor(c)?,
        partitions: [
            PartitionId(c.take_u32("door partition a")?),
            PartitionId(c.take_u32("door partition b")?),
        ],
        direction: c.take_tag("direction", &DIRECTIONS)?,
        kind: c.take_tag("door kind", &DOOR_KINDS)?,
        open: c.take_bool("door open")?,
        active: c.take_bool("door active")?,
    })
}

// ---- objects --------------------------------------------------------------

fn put_store(buf: &mut Vec<u8>, store: &ObjectStore) {
    put_u64(buf, store.id_watermark());
    let ids = store.ids_sorted();
    let objects = ids
        .iter()
        .map(|&id| store.get(id).expect("listed id is present"));
    put_seq(buf, objects, put_object);
}

fn take_store(c: &mut Cursor<'_>) -> Result<ObjectStore, StorageError> {
    let watermark = c.take_u64("store watermark")?;
    let mut store = ObjectStore::new();
    c.take_seq("store object count", |c| {
        let at = c.pos();
        let object = take_object(c)?;
        store.insert(object).map_err(|_| StorageError::Decode {
            what: "store object (duplicate id)",
            offset: at,
        })
    })?;
    store.restore_id_watermark(watermark);
    Ok(store)
}

fn put_object(buf: &mut Vec<u8>, o: &UncertainObject) {
    put_u64(buf, o.id.0);
    put_point(buf, o.region.center);
    put_f64(buf, o.region.radius);
    put_floor(buf, o.floor);
    put_seq(buf, o.instances(), |buf, inst| {
        put_point(buf, inst.position);
        put_floor(buf, inst.floor);
        put_f64(buf, inst.weight);
    });
}

fn take_object(c: &mut Cursor<'_>) -> Result<UncertainObject, StorageError> {
    let id = ObjectId(c.take_u64("object id")?);
    let center = take_point(c)?;
    let radius = c.take_f64("object region radius")?;
    let floor = take_floor(c)?;
    let instances = c.take_seq("object instance count", |c| {
        Ok(Instance {
            position: take_point(c)?,
            floor: take_floor(c)?,
            weight: c.take_f64("instance weight")?,
        })
    })?;
    // Re-validation sees the exact bits the original construction saw, so
    // a faithfully stored object always passes; failure means corruption.
    UncertainObject::new(id, Circle::new(center, radius), floor, instances).map_err(|_| {
        StorageError::Decode {
            what: "uncertain object",
            offset: c.pos(),
        }
    })
}

// ---- geometry -------------------------------------------------------------

fn put_point(buf: &mut Vec<u8>, p: Point2) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn take_point(c: &mut Cursor<'_>) -> Result<Point2, StorageError> {
    let x = c.take_f64("point.x")?;
    let y = c.take_f64("point.y")?;
    Ok(Point2::new(x, y))
}

fn put_polygon(buf: &mut Vec<u8>, poly: &Polygon) {
    put_seq(buf, poly.vertices().iter().copied(), put_point);
}

fn take_polygon(c: &mut Cursor<'_>) -> Result<Polygon, StorageError> {
    let vertices = c.take_seq("polygon vertex count", take_point)?;
    Polygon::new(vertices).map_err(|_| StorageError::Decode {
        what: "polygon",
        offset: c.pos(),
    })
}

fn put_floor(buf: &mut Vec<u8>, f: Floor) {
    put_u32(buf, f as u32);
}

fn take_floor(c: &mut Cursor<'_>) -> Result<Floor, StorageError> {
    let v = c.take_u32("floor")?;
    Floor::try_from(v).map_err(|_| StorageError::Decode {
        what: "floor",
        offset: c.pos(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::Rect2;
    use idq_model::{FloorPlanBuilder, IndoorPoint};
    use idq_storage::crc32;

    // ---- the space ----------------------------------------------------------

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
        space.delete_partition(victim).unwrap();
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
        space.delete_partition(top).unwrap();
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
            c.take_tag("direction", &DIRECTIONS),
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

    // ---- objects ------------------------------------------------------------

    fn sample_object(id: u64) -> UncertainObject {
        UncertainObject::with_uniform_weights(
            ObjectId(id),
            Circle::new(Point2::new(1.5, -2.25), 6.0),
            2,
            vec![
                Point2::new(1.0, 2.0),
                Point2::new(0.1 + 0.2, 3.0), // a value with no short decimal form
                Point2::new(-4.0, 5.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn object_round_trips_bit_identically() {
        let o = sample_object(42);
        let mut buf = Vec::new();
        put_object(&mut buf, &o);
        let mut c = Cursor::new(&buf);
        let back = take_object(&mut c).unwrap();
        c.finish("object").unwrap();
        assert_eq!(back.id, o.id);
        assert_eq!(back.region.center, o.region.center);
        assert_eq!(back.region.radius.to_bits(), o.region.radius.to_bits());
        assert_eq!(back.floor, o.floor);
        assert_eq!(back.instances().len(), o.instances().len());
        for (a, b) in back.instances().iter().zip(o.instances()) {
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(a.floor, b.floor);
        }
        assert_eq!(back.instance_bbox(), o.instance_bbox());
    }

    #[test]
    fn store_round_trips_population_and_watermark() {
        let mut store = ObjectStore::new();
        for id in [9u64, 3, 7] {
            store.insert(sample_object(id)).unwrap();
        }
        let minted = store.allocate_id(); // bump the watermark past the ids
        assert_eq!(minted, ObjectId(10));
        let mut buf = Vec::new();
        put_store(&mut buf, &store);
        let mut c = Cursor::new(&buf);
        let back = take_store(&mut c).unwrap();
        c.finish("store").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.ids_sorted(), store.ids_sorted());
        assert_eq!(back.id_watermark(), store.id_watermark());
        for id in back.ids_sorted() {
            assert_eq!(back.get(id).unwrap().floor, store.get(id).unwrap().floor);
        }
    }

    #[test]
    fn point_objects_and_empty_store_round_trip() {
        let mut store = ObjectStore::new();
        store
            .insert(UncertainObject::point_object(
                ObjectId(0),
                IndoorPoint::new(Point2::new(0.0, 0.0), 0),
            ))
            .unwrap();
        let mut buf = Vec::new();
        put_store(&mut buf, &store);
        let back = take_store(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.len(), 1);

        let empty = ObjectStore::new();
        let mut buf = Vec::new();
        put_store(&mut buf, &empty);
        let back = take_store(&mut Cursor::new(&buf)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.id_watermark(), 0);
    }

    #[test]
    fn truncated_object_is_a_decode_error() {
        let mut buf = Vec::new();
        put_object(&mut buf, &sample_object(1));
        buf.truncate(buf.len() - 4);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            take_object(&mut c),
            Err(StorageError::Decode { .. })
        ));
    }

    // ---- batches and checkpoints --------------------------------------------

    fn all_variants() -> Vec<Update> {
        vec![
            Update::InsertObject(Box::new(
                UncertainObject::with_uniform_weights(
                    ObjectId(5),
                    Circle::new(Point2::new(1.0, 2.0), 3.0),
                    0,
                    vec![Point2::new(0.5, 1.5), Point2::new(1.5, 2.5)],
                )
                .unwrap(),
            )),
            Update::InsertObjectAt {
                center: Point2::new(4.0, 5.0),
                floor: 1,
                radius: 2.0,
                instances: 16,
                seed: 0xDEAD_BEEF,
            },
            Update::MoveObject {
                id: ObjectId(5),
                center: Point2::new(6.0, 7.0),
                floor: 2,
                seed: 99,
            },
            Update::RemoveObject(ObjectId(5)),
            Update::OpenDoor(DoorId(3)),
            Update::CloseDoor(DoorId(4)),
            Update::InsertDoor {
                a: PartitionId(0),
                b: PartitionId(1),
                position: Point2::new(10.0, 5.0),
                floor: 0,
                direction: Direction::OneWay,
            },
            Update::InsertPartition(PartitionSpec {
                kind: PartitionKind::Room,
                name: Some("annex".into()),
                floor: 1,
                footprint: Polygon::from_rect(Rect2::from_bounds(0.0, 0.0, 5.0, 5.0)),
                doors: vec![DoorSpec {
                    position: Point2::new(0.0, 2.0),
                    other: PartitionId(2),
                    direction: Direction::Bidirectional,
                }],
            }),
            Update::DeletePartition(PartitionId(6)),
            Update::SplitPartition {
                partition: PartitionId(1),
                line: SplitLine::AtX(2.5),
                connecting_door: Some(Point2::new(2.5, 1.0)),
            },
            Update::SplitPartition {
                partition: PartitionId(1),
                line: SplitLine::AtY(1.5),
                connecting_door: None,
            },
            Update::MergePartitions(PartitionId(1), PartitionId(2)),
        ]
    }

    #[test]
    fn every_update_variant_round_trips() {
        // Decode-then-re-encode must reproduce the exact bytes: a stronger
        // check than structural equality (it covers every float bit and
        // every length prefix).
        for u in all_variants() {
            let mut buf = Vec::new();
            put_update(&mut buf, &u);
            let mut c = Cursor::new(&buf);
            let back = take_update(&mut c).unwrap();
            c.finish("update").unwrap();
            let mut again = Vec::new();
            put_update(&mut again, &back);
            assert_eq!(again, buf, "variant did not survive the round trip");
        }
    }

    #[test]
    fn batch_round_trips_with_inserted_ids() {
        let inserted = [ObjectId(5), ObjectId(60)];
        let buf = encode_batch(&all_variants(), &inserted);
        let back = decode_batch(&buf).unwrap();
        assert_eq!(back.inserted, inserted);
        assert_eq!(encode_batch(&back.updates, &back.inserted), buf);
    }

    #[test]
    fn corrupt_update_tag_is_a_decode_error() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 42);
        assert!(matches!(
            take_update(&mut Cursor::new(&buf)),
            Err(StorageError::Decode {
                what: "update tag",
                ..
            })
        ));
    }

    /// The two-room building and one-object store the checkpoint tests
    /// encode.
    fn test_world() -> (IndoorSpace, ObjectStore) {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c2 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        b.add_door_between(a, c2, Point2::new(10.0, 5.0)).unwrap();
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        store
            .insert(
                UncertainObject::with_uniform_weights(
                    ObjectId(1),
                    Circle::new(Point2::new(5.0, 5.0), 2.0),
                    0,
                    vec![Point2::new(4.0, 5.0), Point2::new(6.0, 5.0)],
                )
                .unwrap(),
            )
            .unwrap();
        (space, store)
    }

    #[test]
    fn engine_checkpoint_round_trips() {
        let (space, store) = test_world();
        let mut buf = encode_checkpoint(&space, &store);
        let (rspace, rstore) = decode_checkpoint(&buf).unwrap();
        assert_eq!(rspace.num_floors(), space.num_floors());
        assert_eq!(rstore.len(), 1);

        // A format-version mismatch fails loudly.
        let version = |what| StorageError::Decode { what, offset: 0 };
        let mut v2 = buf.clone();
        buf[0] = 0xFF;
        assert!(decode_checkpoint(&buf).is_err());
        // Version 2: the same layers followed by a radius high-water mark.
        v2[0] = 2;
        put_f64(&mut v2, 7.5);
        let err = decode_checkpoint(&v2).unwrap_err();
        assert_eq!(err, version("checkpoint format version"));
        let mut batch = encode_batch(&all_variants(), &[ObjectId(5), ObjectId(60)]);
        batch[0] = 2;
        let err = decode_batch(&batch).unwrap_err();
        assert_eq!(err, version("wal format version"));
    }

    /// Pins the payload format: the CRC32 of every byte after the leading
    /// version byte of a checkpoint and of a batch. Round trips re-encode
    /// with the same code and cannot see a format change; this can. The
    /// constants change only together with [`FORMAT`].
    #[test]
    fn payload_format_fingerprint() {
        let (space, store) = test_world();
        let checkpoint = encode_checkpoint(&space, &store);
        let batch = encode_batch(&all_variants(), &[ObjectId(5), ObjectId(60)]);
        assert_eq!((checkpoint[0], batch[0]), (FORMAT, FORMAT));
        assert_eq!(crc32(&checkpoint[1..]), 0x57bb_c6a6);
        assert_eq!(crc32(&batch[1..]), 0xba75_3200);
    }

    /// Every single-byte mutation (XOR `0x01`, `0x80`, `0xFF`) and every
    /// truncation of a WAL batch and of a checkpoint decodes to `Ok` or a
    /// typed `Err`: never a panic, and never an allocation that aborts.
    #[test]
    fn mutated_payloads_decode_or_fail_without_panicking() {
        let batch = encode_batch(&all_variants(), &[ObjectId(5), ObjectId(60)]);
        let (space, store) = test_world();
        let checkpoint = encode_checkpoint(&space, &store);

        fn sweep(name: &str, payload: &[u8], decode: fn(&[u8])) {
            let survives = |bytes: &[u8]| std::panic::catch_unwind(|| decode(bytes)).is_ok();
            for len in 0..payload.len() {
                assert!(survives(&payload[..len]), "{name}: cut at {len} panicked");
            }
            for at in 0..payload.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bytes = payload.to_vec();
                    bytes[at] ^= mask;
                    assert!(survives(&bytes), "{name}: byte {at} ^ {mask:#04x} panicked");
                }
            }
        }
        sweep("batch", &batch, |b| drop(decode_batch(b)));
        sweep("checkpoint", &checkpoint, |b| drop(decode_checkpoint(b)));
    }
}
