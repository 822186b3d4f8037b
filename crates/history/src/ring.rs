//! The bounded, delta-compressed history ring.
//!
//! One [`EpochRecord`] per absorbed commit group, in strictly increasing
//! epoch order. Most records are [`Payload::Delta`]s — the commit's
//! upserted objects (shared by `Arc` with the store shard that already
//! holds them, so a delta costs pointers, not copies) plus removed ids
//! and the non-derivable `id_watermark`.
//! Every `keyframe_every` epochs, and on every topology commit, the ring
//! pins the published [`Snapshot`] itself as a [`Payload::Keyframe`]:
//! replay starts at the nearest keyframe at or before the target epoch
//! and applies deltas forward, so reconstruction cost is bounded by the
//! keyframe cadence.
//!
//! The ring always begins at a keyframe, and eviction removes whole
//! keyframe groups from the front — which is what makes the eviction
//! contract checkable: either an epoch is reconstructable bit-for-bit,
//! or it is gone and queries over it fail typed.

use crate::index3d::{Segment, SegmentStore};
use crate::options::{HistoryOptions, HistoryStats};
use idq_core::{CommitRecord, Snapshot};
use idq_geom::{IdMap, Point2, Rect2};
use idq_model::{Floor, IndoorPoint, IndoorSpace, PartitionId};
use idq_objects::{ObjectId, UncertainObject};
use std::collections::VecDeque;
use std::sync::Arc;

/// The compressed payload of one non-keyframe epoch: what the commit
/// group changed, plus the id watermark a replay cannot derive from the
/// surviving objects.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    /// Inserted-or-moved objects, ascending by id, shared with the
    /// version's store shards.
    pub(crate) upserts: Vec<Arc<UncertainObject>>,
    /// Removed object ids, ascending.
    pub(crate) removed: Vec<ObjectId>,
    /// The store's id watermark after this epoch (removals can lower the
    /// live ceiling without lowering the watermark).
    pub(crate) watermark: u64,
}

/// What an epoch record holds: a pinned full snapshot or a delta.
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    /// A pinned version — replay base and bit-identity anchor.
    Keyframe {
        /// The snapshot the engine published for this epoch.
        snapshot: Snapshot,
    },
    /// A delta against the previous record.
    Delta(DeltaRecord),
}

/// One retained epoch.
#[derive(Clone, Debug)]
pub(crate) struct EpochRecord {
    /// The commit epoch this record reproduces.
    pub(crate) epoch: u64,
    /// Approximate bytes this record retains (the eviction currency).
    pub(crate) bytes: usize,
    /// Keyframe or delta.
    pub(crate) payload: Payload,
}

/// An object currently resting: the segment-in-progress that closes when
/// the object next moves, is removed, or the ring snapshots a session.
#[derive(Clone, Debug)]
struct OpenTrack {
    floor: Floor,
    partition: Option<PartitionId>,
    position: Point2,
    rect: Rect2,
    from_epoch: u64,
    from_wall_ms: u64,
}

impl OpenTrack {
    /// The track `obj` opens at `epoch`: resting at its region centre, in
    /// the partition that centre locates to.
    fn open(space: &IndoorSpace, obj: &UncertainObject, epoch: u64, wall_ms: u64) -> Self {
        let position = obj.region.center;
        OpenTrack {
            floor: obj.floor,
            partition: space.partition_at(IndoorPoint {
                point: position,
                floor: obj.floor,
            }),
            position,
            rect: obj.footprint_rect(),
            from_epoch: epoch,
            from_wall_ms: wall_ms,
        }
    }

    fn close(&self, object: ObjectId, to_epoch: u64) -> Segment {
        Segment {
            object,
            floor: self.floor,
            partition: self.partition,
            position: self.position,
            rect: self.rect,
            from_epoch: self.from_epoch,
            from_wall_ms: self.from_wall_ms,
            to_epoch,
            alive: true,
        }
    }
}

fn object_bytes(obj: &UncertainObject) -> usize {
    96 + obj.len() * 48
}

fn snapshot_bytes(snapshot: &Snapshot) -> usize {
    256 + snapshot.store().iter().map(object_bytes).sum::<usize>()
}

/// The retention state: records, trajectory segments, open tracks and
/// byte accounting. Owned by the recorder thread behind a mutex;
/// [`crate::HistorySession`] snapshots it by clone (record payloads are
/// `Arc`-backed, segments are plain data).
#[derive(Clone, Debug)]
pub(crate) struct Ring {
    records: VecDeque<EpochRecord>,
    pub(crate) segments: SegmentStore,
    open: IdMap<ObjectId, OpenTrack>,
    options: HistoryOptions,
    /// Sum of `records[i].bytes` plus the segment store estimate.
    rec_bytes: usize,
    /// Epoch of the newest keyframe record.
    last_keyframe: u64,
    pub(crate) evicted_epochs: u64,
    keyframes: usize,
}

impl Ring {
    pub(crate) fn new(options: HistoryOptions) -> Self {
        Ring {
            records: VecDeque::new(),
            segments: SegmentStore::default(),
            open: IdMap::default(),
            options: HistoryOptions {
                max_epochs: options.max_epochs.max(1),
                max_bytes: options.max_bytes,
                keyframe_every: options.keyframe_every.max(1),
            },
            rec_bytes: 0,
            last_keyframe: 0,
            evicted_epochs: 0,
            keyframes: 0,
        }
    }

    /// Seeds the ring with the engine's current version: a keyframe for
    /// its epoch, and an open track per live object.
    pub(crate) fn init_baseline(&mut self, snapshot: Snapshot, wall_ms: u64) {
        let epoch = snapshot.version();
        self.records.clear();
        self.segments = SegmentStore::default();
        self.open.clear();
        self.rec_bytes = 0;
        self.keyframes = 0;
        self.open_tracks_for_population(&snapshot, epoch, wall_ms);
        self.push_keyframe(snapshot, epoch);
    }

    fn open_tracks_for_population(&mut self, snapshot: &Snapshot, epoch: u64, wall_ms: u64) {
        let space = snapshot.state().space();
        for obj in snapshot.store().iter() {
            self.open
                .insert(obj.id, OpenTrack::open(space, obj, epoch, wall_ms));
        }
    }

    fn push_keyframe(&mut self, snapshot: Snapshot, epoch: u64) {
        let bytes = snapshot_bytes(&snapshot);
        self.records.push_back(EpochRecord {
            epoch,
            bytes,
            payload: Payload::Keyframe { snapshot },
        });
        self.rec_bytes += bytes;
        self.last_keyframe = epoch;
        self.keyframes += 1;
    }

    /// Oldest retained epoch (`None` before the baseline lands).
    pub(crate) fn oldest(&self) -> Option<u64> {
        self.records.front().map(|r| r.epoch)
    }

    /// Newest absorbed epoch.
    pub(crate) fn newest(&self) -> Option<u64> {
        self.records.back().map(|r| r.epoch)
    }

    /// Absorbs one commit record into the ring — track maintenance,
    /// keyframe-or-delta capture, then bounded eviction. Runs on the
    /// recorder thread only.
    pub(crate) fn absorb(&mut self, record: CommitRecord) {
        let CommitRecord {
            epoch,
            wall_ms,
            report,
            snapshot,
            ..
        } = record;
        let Some(newest) = self.newest() else {
            // No baseline (engine dropped before attach finished) —
            // treat the record's snapshot as the baseline.
            self.init_baseline(snapshot, wall_ms);
            return;
        };
        if epoch <= newest {
            // Commits raced the attach baseline; the baseline keyframe
            // already covers them.
            return;
        }
        if epoch != newest + 1 {
            // A gap means dropped records (cannot happen through the
            // in-order sequencer hook, but a ring must not serve wrong
            // answers if it ever does): restart from this snapshot.
            self.evicted_epochs += self.records.len() as u64;
            self.init_baseline(snapshot, wall_ms);
            self.evict();
            return;
        }

        let delta = &report.delta;
        if delta.topology_changed {
            // Partitions may have been rewired: close every open track
            // and reopen against the new space so recorded partition
            // sequences stay truthful.
            let open = std::mem::take(&mut self.open);
            for (id, track) in open {
                if track.from_epoch < epoch {
                    self.segments.push(track.close(id, epoch));
                }
            }
            self.open_tracks_for_population(&snapshot, epoch, wall_ms);
        } else {
            for &id in &delta.removed {
                if let Some(track) = self.open.remove(&id) {
                    if track.from_epoch < epoch {
                        self.segments.push(track.close(id, epoch));
                    }
                }
            }
            let space = snapshot.state().space();
            for id in delta.updated() {
                let Ok(obj) = snapshot.store().get_shared(id) else {
                    continue; // upserted then removed within the group
                };
                if let Some(track) = self.open.remove(&id) {
                    if track.from_epoch < epoch {
                        self.segments.push(track.close(id, epoch));
                    }
                }
                self.open
                    .insert(id, OpenTrack::open(space, &obj, epoch, wall_ms));
            }
        }

        let force_keyframe = delta.topology_changed;
        if force_keyframe || epoch - self.last_keyframe >= self.options.keyframe_every {
            self.push_keyframe(snapshot, epoch);
        } else {
            let mut upserts = Vec::new();
            for id in delta.updated() {
                if let Ok(obj) = snapshot.store().get_shared(id) {
                    upserts.push(obj);
                }
            }
            let rec = DeltaRecord {
                upserts,
                removed: delta.removed.clone(),
                watermark: snapshot.store().id_watermark(),
            };
            let bytes = 64
                + rec.upserts.iter().map(|o| object_bytes(o)).sum::<usize>()
                + rec.removed.len() * 8;
            self.records.push_back(EpochRecord {
                epoch,
                bytes,
                payload: Payload::Delta(rec),
            });
            self.rec_bytes += bytes;
        }
        self.evict();
    }

    /// Drops whole keyframe groups from the front while either bound is
    /// exceeded, never touching the newest keyframe's group (the ring
    /// must stay able to answer for its newest epochs).
    fn evict(&mut self) {
        loop {
            let over_epochs = self.records.len() > self.options.max_epochs;
            let over_bytes = self.approx_bytes() > self.options.max_bytes;
            if !(over_epochs || over_bytes) {
                break;
            }
            // The group to drop: front keyframe plus its deltas, ending
            // before the next keyframe. If there is no next keyframe the
            // front group is the newest group — keep it.
            let mut next_keyframe = None;
            for (i, rec) in self.records.iter().enumerate().skip(1) {
                if matches!(rec.payload, Payload::Keyframe { .. }) {
                    next_keyframe = Some(i);
                    break;
                }
            }
            let Some(cut) = next_keyframe else { break };
            for _ in 0..cut {
                let rec = self.records.pop_front().expect("cut < len");
                self.rec_bytes -= rec.bytes;
                if matches!(rec.payload, Payload::Keyframe { .. }) {
                    self.keyframes -= 1;
                }
                self.evicted_epochs += 1;
            }
            let oldest = self.records.front().map(|r| r.epoch).unwrap_or(0);
            self.segments.retire_before(oldest);
        }
    }

    /// Retained-byte estimate: records plus the segment arena.
    fn approx_bytes(&self) -> usize {
        self.rec_bytes + self.segments.approx_bytes()
    }

    pub(crate) fn stats(&self) -> HistoryStats {
        HistoryStats {
            oldest: self.oldest().unwrap_or(0),
            newest: self.newest().unwrap_or(0),
            retained_epochs: self.records.len(),
            keyframes: self.keyframes,
            approx_bytes: self.approx_bytes(),
            evicted_epochs: self.evicted_epochs,
            segments: self.segments.len(),
            open_tracks: self.open.len(),
        }
    }

    /// The retained records, oldest first (session construction).
    pub(crate) fn records(&self) -> &VecDeque<EpochRecord> {
        &self.records
    }

    /// Materialises the open tracks as segments closed at `to_epoch`
    /// (exclusive) — sessions use `newest + 1` so resting objects cover
    /// the whole retained window.
    pub(crate) fn materialized_open_tracks(&self, to_epoch: u64) -> Vec<Segment> {
        let mut out: Vec<Segment> = self
            .open
            .iter()
            .filter(|(_, t)| t.from_epoch < to_epoch)
            .map(|(&id, t)| t.close(id, to_epoch))
            .collect();
        out.sort_by_key(|s| (s.object, s.from_epoch));
        out
    }
}
