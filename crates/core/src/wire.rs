//! Durable wire codec for the engine's log and checkpoint payloads.
//!
//! Three formats live here, all built from the same primitives as the
//! model/object codecs:
//!
//! * [`put_update`] / [`take_update`] — one typed [`Update`], tagged by
//!   variant in declaration order;
//! * [`put_batch`] / [`take_batch`] — one WAL record payload: a batch's
//!   updates plus the object ids its inserts produced
//!   ([`WalBatch::inserted`]), so replay can *prove* the recovered
//!   execution allocated the same ids the original did;
//! * [`put_engine_checkpoint`] / [`take_engine_checkpoint`] — a full
//!   materialized version: space, store, and the history-dependent
//!   `max_radius` high-water mark (the index is derived state and is
//!   rebuilt from the decoded layers).
//!
//! Determinism is the contract: identical engine state encodes to
//! identical bytes, and decoding reproduces bit-identical floats. The
//! crash-matrix tests lean on both directions.

use crate::update::Update;
use idq_model::wire::{
    put_direction, put_floor, put_partition_spec, put_point, put_space, put_split_line,
    take_direction, take_floor, take_partition_spec, take_point, take_space, take_split_line,
};
use idq_model::{DoorId, IndoorSpace, PartitionId};
use idq_objects::wire::{put_object, put_store, take_object, take_store};
use idq_objects::{ObjectId, ObjectStore};
use idq_storage::codec::{put_bool, put_f64, put_u32, put_u64, put_u8, put_usize, Cursor};
use idq_storage::StorageError;

/// Format version of the checkpoint payload (bumped on layout changes so
/// recovery fails loudly instead of misparsing).
const CHECKPOINT_FORMAT: u8 = 1;

pub fn put_update(buf: &mut Vec<u8>, update: &Update) {
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
            put_direction(buf, *direction);
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
            put_bool(buf, connecting_door.is_some());
            if let Some(p) = connecting_door {
                put_point(buf, *p);
            }
        }
        Update::MergePartitions(a, b) => {
            put_u8(buf, 10);
            put_u32(buf, a.0);
            put_u32(buf, b.0);
        }
    }
}

pub fn take_update(c: &mut Cursor<'_>) -> Result<Update, StorageError> {
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
            direction: take_direction(c)?,
        }),
        7 => Ok(Update::InsertPartition(take_partition_spec(c)?)),
        8 => Ok(Update::DeletePartition(PartitionId(
            c.take_u32("delete partition id")?,
        ))),
        9 => Ok(Update::SplitPartition {
            partition: PartitionId(c.take_u32("split partition id")?),
            line: take_split_line(c)?,
            connecting_door: if c.take_bool("split connecting door flag")? {
                Some(take_point(c)?)
            } else {
                None
            },
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

/// One WAL record payload: the batch exactly as the sequencer committed
/// it, plus the object ids its inserts allocated (in outcome order) so
/// replay verifies id-allocation determinism instead of assuming it.
#[derive(Clone, Debug)]
pub struct WalBatch {
    pub updates: Vec<Update>,
    /// Ids of the objects this batch inserted, in outcome order — both
    /// `InsertObject` (externally named) and `InsertObjectAt` (allocated).
    pub inserted: Vec<ObjectId>,
}

pub fn put_batch(buf: &mut Vec<u8>, batch: &WalBatch) {
    put_batch_parts(buf, &batch.updates, &batch.inserted);
}

/// [`put_batch`] from borrowed parts — the committing sequencer encodes
/// straight from the batch it is about to publish, no [`WalBatch`]
/// allocation needed.
pub fn put_batch_parts(buf: &mut Vec<u8>, updates: &[Update], inserted: &[ObjectId]) {
    put_usize(buf, updates.len());
    for u in updates {
        put_update(buf, u);
    }
    put_usize(buf, inserted.len());
    for id in inserted {
        put_u64(buf, id.0);
    }
}

pub fn take_batch(c: &mut Cursor<'_>) -> Result<WalBatch, StorageError> {
    let n = c.take_len("batch update count")?;
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        updates.push(take_update(c)?);
    }
    let n = c.take_len("batch inserted-id count")?;
    let mut inserted = Vec::with_capacity(n);
    for _ in 0..n {
        inserted.push(ObjectId(c.take_u64("batch inserted id")?));
    }
    Ok(WalBatch { updates, inserted })
}

/// Encode a full checkpoint payload: the space and store layers plus the
/// `max_radius` high-water mark (history-dependent — the largest region
/// radius *ever* inserted, not derivable from the live population).
pub fn put_engine_checkpoint(
    buf: &mut Vec<u8>,
    space: &IndoorSpace,
    store: &ObjectStore,
    max_radius: f64,
) {
    put_u8(buf, CHECKPOINT_FORMAT);
    put_space(buf, space);
    put_store(buf, store);
    put_f64(buf, max_radius);
}

/// Decode a checkpoint payload back into its layers.
pub fn take_engine_checkpoint(
    c: &mut Cursor<'_>,
) -> Result<(IndoorSpace, ObjectStore, f64), StorageError> {
    let at = c.pos();
    if c.take_u8("checkpoint format")? != CHECKPOINT_FORMAT {
        return Err(StorageError::Decode {
            what: "checkpoint format version",
            offset: at,
        });
    }
    let space = take_space(c)?;
    let store = take_store(c)?;
    let max_radius = c.take_f64("checkpoint max radius")?;
    Ok((space, store, max_radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Circle, Point2, Polygon, Rect2};
    use idq_model::{Direction, FloorPlanBuilder, PartitionKind, SplitLine};
    use idq_model::{DoorSpec, PartitionSpec};
    use idq_objects::UncertainObject;

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
        let batch = WalBatch {
            updates: all_variants(),
            inserted: vec![ObjectId(5), ObjectId(60)],
        };
        let mut buf = Vec::new();
        put_batch(&mut buf, &batch);
        let mut c = Cursor::new(&buf);
        let back = take_batch(&mut c).unwrap();
        c.finish("batch").unwrap();
        assert_eq!(back.inserted, batch.inserted);
        let mut again = Vec::new();
        put_batch(&mut again, &back);
        assert_eq!(again, buf);
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
        let mut buf = Vec::new();
        put_engine_checkpoint(&mut buf, &space, &store, 7.5);
        let mut c = Cursor::new(&buf);
        let (rspace, rstore, radius) = take_engine_checkpoint(&mut c).unwrap();
        c.finish("checkpoint").unwrap();
        assert_eq!(rspace.num_floors(), space.num_floors());
        assert_eq!(rstore.len(), 1);
        assert_eq!(radius.to_bits(), 7.5f64.to_bits());

        // A format-version mismatch fails loudly.
        buf[0] = 0xFF;
        assert!(take_engine_checkpoint(&mut Cursor::new(&buf)).is_err());
    }

    /// Every single-byte mutation (XOR `0x01`, `0x80`, `0xFF`) and every
    /// truncation of a WAL batch and of a checkpoint decodes to `Ok` or a
    /// typed `Err`: never a panic, and never an allocation that aborts.
    #[test]
    fn mutated_payloads_decode_or_fail_without_panicking() {
        let mut batch = Vec::new();
        put_batch(
            &mut batch,
            &WalBatch {
                updates: all_variants(),
                inserted: vec![ObjectId(5), ObjectId(60)],
            },
        );
        let (space, store) = test_world();
        let mut checkpoint = Vec::new();
        put_engine_checkpoint(&mut checkpoint, &space, &store, 7.5);

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
        sweep("batch", &batch, |b| drop(take_batch(&mut Cursor::new(b))));
        sweep("checkpoint", &checkpoint, |b| {
            drop(take_engine_checkpoint(&mut Cursor::new(b)))
        });
    }
}
