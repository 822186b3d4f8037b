//! Typed updates — the write-side mirror of the read side's
//! [`idq_query::Query`].
//!
//! An [`Update`] names any mutation the engine supports: the object flow of
//! §III-C.2 (insert / move / remove) and the topology flow of §III-C.1
//! (door state, temporary doors, partition insertion/deletion, sliding-wall
//! split/merge). One update goes through
//! [`crate::IndoorEngine::apply`]; a stream goes through
//! [`crate::IndoorEngine::apply_batch`], which applies the whole slice as
//! one **atomic transaction** (all-or-nothing) and **amortizes** index
//! maintenance across it (one copy of each touched floor shard, topology
//! events coalesced into a single skeleton repair).
//!
//! Every successful apply bumps the engine's monotone *epoch*, which
//! snapshots expose as [`crate::Snapshot::version`]; a committed
//! batch additionally returns an [`UpdateReport`] whose [`UpdateDelta`]
//! feeds standing monitors (`RangeMonitor::absorb`) without the caller
//! re-deriving what changed.

use idq_geom::Point2;
use idq_model::{Direction, DoorId, Floor, PartitionId, PartitionSpec, SplitLine};
use idq_objects::{ObjectId, UncertainObject};
use std::collections::BTreeSet;

/// One mutation of the indoor world, executed by
/// [`crate::IndoorEngine::apply`] / [`crate::IndoorEngine::apply_batch`].
#[derive(Clone, Debug)]
pub enum Update {
    /// Insert a fully-formed uncertain object (the id must be unused).
    /// Every instance must lie inside a partition, or the update fails
    /// with [`idq_objects::ObjectError::NoHostPartition`].
    InsertObject(Box<UncertainObject>),
    /// Sample and insert an object: Gaussian instances in a circular
    /// region (§V-A's object model); the engine allocates the id.
    InsertObjectAt {
        /// Uncertainty-region centre.
        center: Point2,
        /// Floor of the centre.
        floor: Floor,
        /// Uncertainty-region radius, metres.
        radius: f64,
        /// Instances to sample (≥ 1).
        instances: usize,
        /// Sampling seed (xor-ed with the allocated id).
        seed: u64,
    },
    /// Move an object: §III-C.2's deletion-plus-insertion flow with a
    /// re-sampled uncertainty region at the new position.
    MoveObject {
        /// The object to move.
        id: ObjectId,
        /// New uncertainty-region centre.
        center: Point2,
        /// New floor.
        floor: Floor,
        /// Sampling seed (xor-ed with the id).
        seed: u64,
    },
    /// Remove an object.
    RemoveObject(ObjectId),
    /// Re-open a closed door.
    OpenDoor(DoorId),
    /// Close a door.
    CloseDoor(DoorId),
    /// Add a temporary door between two partitions.
    InsertDoor {
        /// One side.
        a: PartitionId,
        /// The other side.
        b: PartitionId,
        /// Door midpoint.
        position: Point2,
        /// Floor.
        floor: Floor,
        /// Directionality.
        direction: Direction,
    },
    /// Insert a partition with its doors.
    InsertPartition(PartitionSpec),
    /// Delete a partition and its doors. Fails with
    /// [`crate::EngineError::PartitionOccupied`] while an object instance
    /// lies in the partition and in no other (an instance on a wall it
    /// shares with a surviving partition stays put): move or remove the
    /// occupants first, earlier in the same batch if need be.
    DeletePartition(PartitionId),
    /// Split a rectangular partition with a sliding wall.
    SplitPartition {
        /// The partition to split.
        partition: PartitionId,
        /// The wall position.
        line: SplitLine,
        /// Optional connecting door in the new wall.
        connecting_door: Option<Point2>,
    },
    /// Merge two partitions (dismount a sliding wall).
    MergePartitions(PartitionId, PartitionId),
}

impl Update {
    /// Whether this update mutates the topology (space + index tiers)
    /// rather than the object population.
    pub fn is_topology(&self) -> bool {
        !matches!(
            self,
            Update::InsertObject(_)
                | Update::InsertObjectAt { .. }
                | Update::MoveObject { .. }
                | Update::RemoveObject(_)
        )
    }

    /// The object id the update names, when it names one up front
    /// (`InsertObjectAt` allocates its id during application).
    pub fn object_id(&self) -> Option<ObjectId> {
        match self {
            Update::InsertObject(o) => Some(o.id),
            Update::MoveObject { id, .. } => Some(*id),
            Update::RemoveObject(id) => Some(*id),
            _ => None,
        }
    }
}

/// What one applied [`Update`] produced.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOutcome {
    /// An object was inserted.
    ObjectInserted(ObjectId),
    /// An object moved.
    ObjectMoved(ObjectId),
    /// An object was removed.
    ObjectRemoved(ObjectId),
    /// A door re-opened.
    DoorOpened(DoorId),
    /// A door closed.
    DoorClosed(DoorId),
    /// A door was added.
    DoorInserted(DoorId),
    /// A partition was inserted, with its doors.
    PartitionInserted {
        /// The new partition.
        partition: PartitionId,
        /// Its doors, in spec order.
        doors: Vec<DoorId>,
    },
    /// A partition (and its doors) was deleted.
    PartitionDeleted(PartitionId),
    /// A partition was split in two.
    PartitionSplit {
        /// The retired original.
        old: PartitionId,
        /// The two halves.
        halves: [PartitionId; 2],
    },
    /// Two partitions were merged.
    PartitionsMerged {
        /// The merged partition.
        merged: PartitionId,
    },
}

impl UpdateOutcome {
    /// The id of the object this outcome inserted, if any.
    pub fn inserted_object(&self) -> Option<ObjectId> {
        match self {
            UpdateOutcome::ObjectInserted(id) => Some(*id),
            _ => None,
        }
    }

    /// The id of the door this outcome inserted, if any.
    pub fn inserted_door(&self) -> Option<DoorId> {
        match self {
            UpdateOutcome::DoorInserted(d) => Some(*d),
            _ => None,
        }
    }

    /// The two halves of a split, if this outcome is one.
    pub fn split_halves(&self) -> Option<[PartitionId; 2]> {
        match self {
            UpdateOutcome::PartitionSplit { halves, .. } => Some(*halves),
            _ => None,
        }
    }

    /// The merged partition, if this outcome is a merge.
    pub fn merged_partition(&self) -> Option<PartitionId> {
        match self {
            UpdateOutcome::PartitionsMerged { merged } => Some(*merged),
            _ => None,
        }
    }
}

/// The **net** effect of a committed batch on downstream consumers: which
/// objects exist with a new state (`inserted` for ids absent before the
/// batch, `moved` for ids that existed and changed), which disappeared, and
/// whether the topology changed at all. "Net" means intra-batch churn
/// cancels: an object inserted and removed in the same batch appears
/// nowhere; one removed and re-inserted appears in `moved`. All id lists
/// are ascending and disjoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateDelta {
    /// Objects that did not exist before the batch and do now.
    pub inserted: Vec<ObjectId>,
    /// Objects that existed before the batch and changed state.
    pub moved: Vec<ObjectId>,
    /// Objects that existed before the batch and no longer do.
    pub removed: Vec<ObjectId>,
    /// Whether any topology update committed.
    pub topology_changed: bool,
}

impl UpdateDelta {
    /// `inserted ∪ moved` — every id a standing monitor must re-evaluate —
    /// ascending.
    pub fn updated(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self
            .inserted
            .iter()
            .chain(self.moved.iter())
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// `true` when the batch changed nothing downstream consumers can see.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.moved.is_empty()
            && self.removed.is_empty()
            && !self.topology_changed
    }
}

/// Set-backed accumulator the engine folds outcomes into while a batch is
/// in flight; [`DeltaBuilder::finish`] yields the sorted [`UpdateDelta`].
#[derive(Debug, Default)]
pub(crate) struct DeltaBuilder {
    inserted: BTreeSet<ObjectId>,
    moved: BTreeSet<ObjectId>,
    removed: BTreeSet<ObjectId>,
    topology_changed: bool,
}

impl DeltaBuilder {
    pub(crate) fn record(&mut self, outcome: &UpdateOutcome) {
        match outcome {
            UpdateOutcome::ObjectInserted(id) => {
                if self.removed.remove(id) {
                    // Existed before the batch: net effect is a state change.
                    self.moved.insert(*id);
                } else {
                    self.inserted.insert(*id);
                }
            }
            UpdateOutcome::ObjectMoved(id) => {
                if !self.inserted.contains(id) {
                    self.moved.insert(*id);
                }
            }
            UpdateOutcome::ObjectRemoved(id) => {
                if !self.inserted.remove(id) {
                    self.moved.remove(id);
                    self.removed.insert(*id);
                }
            }
            _ => self.topology_changed = true,
        }
    }

    /// Yields the sorted delta: ids only. Which partitions those ids
    /// left and entered is the dispatcher's to derive, from the index
    /// before and after the commit.
    pub(crate) fn finish(self) -> UpdateDelta {
        UpdateDelta {
            inserted: self.inserted.into_iter().collect(),
            moved: self.moved.into_iter().collect(),
            removed: self.removed.into_iter().collect(),
            topology_changed: self.topology_changed,
        }
    }
}

/// Maintenance counters of one committed batch — the evidence that the
/// amortized paths engaged (`benchmark/` reports them per commit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Updates in the batch.
    pub updates: usize,
    /// Position updates (inserts, moves, removes).
    pub position_updates: usize,
    /// Skeleton-tier rebuilds (coalesced: at most one per topology run).
    pub skeleton_rebuilds: usize,
    /// Distinct floor shards the batch's object updates landed in — the
    /// number of per-floor store/o-table slices the commit deep-copied
    /// (everything else was shared structurally with the previous
    /// version). A single-object commit reports 1 (2 for a cross-floor
    /// move); topology updates are accounted by `checkpointed` instead.
    pub shards_touched: usize,
    /// Whether the batch contained topology updates and therefore
    /// copy-on-wrote the space layer — and with it the index's shared
    /// geometry tiers — in addition to the touched object shards.
    pub checkpointed: bool,
    /// How many batches shared this batch's commit epoch (group commit —
    /// see [`crate::WriteHandle`]). An uncontended batch reports 1; a
    /// committed no-op (empty batch, no epoch bump) reports 0.
    pub group_batches: usize,
    /// Whether the batch lost its optimistic staging race and was
    /// transparently re-validated against the state it actually landed
    /// on: between stage and sequence, a commit wrote an object the batch
    /// names, moved the id watermark under a batch that allocates ids, or
    /// changed the topology.
    pub restaged: bool,
}

impl UpdateStats {
    /// Folds one group member's counters into a merged group-commit
    /// report: work counters add, the checkpoint and re-stage flags OR,
    /// and `group_batches` counts the members. `shards_touched` is
    /// deliberately **not** summed — members may share floors, so the
    /// caller sets it from the union of touched floors.
    pub(crate) fn absorb_group_member(&mut self, member: &UpdateStats) {
        self.updates += member.updates;
        self.position_updates += member.position_updates;
        self.skeleton_rebuilds += member.skeleton_rebuilds;
        self.checkpointed |= member.checkpointed;
        self.restaged |= member.restaged;
        self.group_batches += 1;
    }
}

/// The receipt of a committed [`crate::IndoorEngine::apply_batch`]: one
/// [`UpdateOutcome`] per input update (input order), the net
/// [`UpdateDelta`], the engine epoch after the commit, and the maintenance
/// [`UpdateStats`].
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Per-update outcomes, in input order.
    pub outcomes: Vec<UpdateOutcome>,
    /// Net effect on the object population and topology.
    pub delta: UpdateDelta,
    /// Engine epoch after the commit (what subsequent snapshots report as
    /// their version). Under group commit several batches share one
    /// epoch; `offset_in_epoch` breaks the tie.
    pub epoch: u64,
    /// This batch's position within its commit group, in sequencer order:
    /// replaying every committed batch sorted by `(epoch,
    /// offset_in_epoch)` serially reproduces the state bit-exactly. The
    /// merged report a subscription receives covers the whole group and
    /// carries 0.
    pub offset_in_epoch: usize,
    /// Maintenance counters.
    pub stats: UpdateStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_nets_out_intra_batch_churn() {
        let mut b = DeltaBuilder::default();
        // Fresh insert then removal: cancels entirely.
        b.record(&UpdateOutcome::ObjectInserted(ObjectId(1)));
        b.record(&UpdateOutcome::ObjectRemoved(ObjectId(1)));
        // Remove then re-insert of a pre-existing object: a net move.
        b.record(&UpdateOutcome::ObjectRemoved(ObjectId(2)));
        b.record(&UpdateOutcome::ObjectInserted(ObjectId(2)));
        // Insert then move: still a net insert.
        b.record(&UpdateOutcome::ObjectInserted(ObjectId(3)));
        b.record(&UpdateOutcome::ObjectMoved(ObjectId(3)));
        // Move then remove: a net removal.
        b.record(&UpdateOutcome::ObjectMoved(ObjectId(4)));
        b.record(&UpdateOutcome::ObjectRemoved(ObjectId(4)));
        let d = b.finish();
        assert_eq!(d.inserted, vec![ObjectId(3)]);
        assert_eq!(d.moved, vec![ObjectId(2)]);
        assert_eq!(d.removed, vec![ObjectId(4)]);
        assert!(!d.topology_changed);
        assert_eq!(d.updated(), vec![ObjectId(2), ObjectId(3)]);
        assert!(!d.is_empty());
        assert!(UpdateDelta::default().is_empty());
    }

    #[test]
    fn group_stats_merge_adds_work_and_counts_members() {
        let a = UpdateStats {
            updates: 3,
            position_updates: 3,
            shards_touched: 1,
            group_batches: 1,
            ..UpdateStats::default()
        };
        let b = UpdateStats {
            updates: 2,
            position_updates: 1,
            skeleton_rebuilds: 1,
            shards_touched: 2,
            checkpointed: true,
            group_batches: 1,
            restaged: true,
        };
        let mut merged = UpdateStats::default();
        merged.absorb_group_member(&a);
        merged.absorb_group_member(&b);
        assert_eq!(merged.updates, 5);
        assert_eq!(merged.position_updates, 4);
        assert_eq!(merged.skeleton_rebuilds, 1);
        assert!(
            merged.checkpointed,
            "any checkpointing member marks the group"
        );
        assert!(merged.restaged, "any re-staged member marks the group");
        assert_eq!(merged.group_batches, 2, "members counted, not summed");
        // Shard counts never add across members (floors may be shared):
        // the caller computes the union and sets it explicitly.
        assert_eq!(merged.shards_touched, 0);
        merged.shards_touched = 2;
        assert_eq!(merged.shards_touched, 2);
    }

    #[test]
    fn per_batch_stats_keep_their_own_footprint() {
        // A group member's own report must reflect its own footprint and
        // checkpoint flag even when a sibling in the group checkpointed:
        // merging is one-directional, into the merged report only.
        let member = UpdateStats {
            updates: 1,
            position_updates: 1,
            shards_touched: 1,
            group_batches: 4,
            ..UpdateStats::default()
        };
        let mut merged = UpdateStats {
            checkpointed: true,
            shards_touched: 3,
            ..UpdateStats::default()
        };
        merged.absorb_group_member(&member);
        assert!(!member.checkpointed);
        assert_eq!(member.shards_touched, 1);
        assert_eq!(member.group_batches, 4, "member names the group size");
    }

    #[test]
    fn update_classification() {
        assert!(!Update::RemoveObject(ObjectId(1)).is_topology());
        assert!(Update::CloseDoor(idq_model::DoorId(0)).is_topology());
        assert_eq!(
            Update::RemoveObject(ObjectId(7)).object_id(),
            Some(ObjectId(7))
        );
        let at = Update::InsertObjectAt {
            center: Point2::new(0.0, 0.0),
            floor: 0,
            radius: 1.0,
            instances: 4,
            seed: 1,
        };
        assert!(at.object_id().is_none());
        assert!(!at.is_topology());
    }
}
