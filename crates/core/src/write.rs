//! The parallel sharded write path: concurrent staging, the epoch
//! sequencer, and group commit.
//!
//! [`WriteHandle`] makes the engine **multi-writer**. Commit processing is
//! split in two:
//!
//! 1. **Parallel stage phase** — each submitting thread validates and
//!    prepares its batch against the latest published version, with no
//!    locks held. Each position update is staged in one pass, in input
//!    order: duplicate/existence checks, id allocation, its own footprint
//!    traversal and its Gaussian draw, producing a shard-local, `Send`
//!    `PreparedOp`. The first failing update names the batch's error.
//! 2. **Serial epoch sequencer** — staged batches enqueue, and the first
//!    submitter to take the sequencer lock becomes the *leader*: it drains
//!    the queue, orders the batches, validates each one's read set against
//!    the working state (a batch whose reads changed re-stages against
//!    that state, preserving serial semantics), applies the prepared ops,
//!    and publishes **one atomic epoch swap for the whole group**. Batches
//!    that coalesced into the group return without ever leading — their
//!    result slot is already filled when they acquire the lock.
//!
//! Group commit is what makes concurrent single-`apply` callers scale: the
//! dominant per-commit cost (deep-copying each touched floor shard, the
//! snapshot, the broadcast) is paid once per *group* rather than once per
//! batch. The [`WriteHandle::with_commit_window`] knob optionally holds
//! the window open so more writers can join a group; the default (zero)
//! already coalesces naturally under contention, because every submitter
//! blocked on the sequencer lock has its batch in the queue the leader
//! drains.
//!
//! Semantics are unchanged from the single-writer engine: the committed
//! history is **exactly** a serial execution of the batches in sequencer
//! order — `(epoch, offset_in_epoch)` — which
//! `tests/parallel_commit_equivalence.rs` proves bit-exactly against a
//! serial replay.

use crate::error::EngineError;
use crate::feed::CommitRecord;
use crate::service::Shared;
use crate::snapshot::Snapshot;
use crate::state::EngineState;
use crate::update::{DeltaBuilder, Update, UpdateOutcome, UpdateReport, UpdateStats};
use idq_geom::{Circle, IdMap, Mbr3, Point2};
use idq_index::{CompositeIndex, IndexError, UnitId};
use idq_model::{Floor, IndoorSpace, TopologyEvent};
use idq_objects::{GaussianSampler, ObjectError, ObjectId, ObjectStore, UncertainObject};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an object carried over from earlier updates of the same run —
/// sequential semantics without splitting the run on repeated ids.
#[derive(Clone, Copy, Debug)]
enum PendingState {
    /// The object will be live with this region radius / instance count,
    /// filed under this floor's shard.
    Live {
        radius: f64,
        instances: usize,
        floor: Floor,
    },
    /// The object will be gone.
    Removed,
}

/// A staged position update: validated, footprinted and sampled — the
/// commit can no longer fail on user input. Prepared ops are shard-local
/// (they carry the floor(s) they land in) and `Send`: staging happens on
/// the submitting thread, application on whichever thread leads the
/// commit group.
#[derive(Debug)]
enum PreparedOp {
    /// Insert this object under the prepared footprint.
    Insert(Box<UncertainObject>, Vec<UnitId>, Mbr3),
    /// Replace the same-id object under the prepared footprint; the
    /// carried floor is where the object currently lives, so the commit
    /// routes straight to the touched shard(s) without probing.
    Move(Box<UncertainObject>, Vec<UnitId>, Mbr3, Floor),
    /// Remove this object from the carried floor's shards.
    Remove(ObjectId, Floor),
}

/// Accumulators of one in-flight batch transaction.
#[derive(Debug, Default)]
struct BatchState {
    outcomes: Vec<UpdateOutcome>,
    delta: DeltaBuilder,
    stats: UpdateStats,
    /// Floors whose shards the batch's object ops landed in — reported as
    /// `UpdateStats::shards_touched`.
    floors: BTreeSet<Floor>,
}

/// The copy-on-write working state of one write transaction.
///
/// Begins as cheap `Arc` clones of a committed version's layers. The
/// layers themselves are **sharded by floor** (`ObjectStore` into
/// `StoreShard`s, the index's object tier into `FloorShard`s with
/// `Arc`-per-bucket, the index's geometry tiers each behind their own
/// `Arc`), so "cloning a layer" here is a handful of pointer bumps: the
/// first mutation of a *shard* is what deep-copies it (`Arc::make_mut`
/// inside the layer — the committed version always holds a second
/// reference), and everything the batch never touches is shared
/// structurally with the committed version. A pure object batch
/// deep-copies exactly the floor shards its updates land in plus the
/// buckets whose membership changes; a batch containing topology updates
/// degrades to also copying the space and the index's geometry tiers. On
/// success the `Arc`s become the next [`EngineState`]; on error the
/// transaction is dropped and the committed version was never touched —
/// rollback is structural, not compensating.
#[derive(Clone, Debug)]
struct Txn {
    space: Arc<IndoorSpace>,
    store: Arc<ObjectStore>,
    index: Arc<CompositeIndex>,
}

impl Txn {
    fn begin(state: &EngineState) -> Self {
        Txn {
            space: Arc::clone(&state.space),
            store: Arc::clone(&state.store),
            index: Arc::clone(&state.index),
        }
    }

    /// The forward pass of one batch: alternating runs of position updates
    /// (staged one update at a time, then applied) and topology updates
    /// (applied with one deferred skeleton repair per run).
    fn run_batch(&mut self, updates: &[Update], state: &mut BatchState) -> Result<(), EngineError> {
        state.stats.updates = updates.len();
        let mut i = 0;
        while i < updates.len() {
            if updates[i].is_topology() {
                let mut skeleton_dirty = false;
                while i < updates.len() && updates[i].is_topology() {
                    let outcome = self.apply_topology_update(&updates[i], &mut skeleton_dirty)?;
                    state.delta.record(&outcome);
                    state.outcomes.push(outcome);
                    i += 1;
                }
                if skeleton_dirty {
                    Arc::make_mut(&mut self.index).rebuild_skeleton(&self.space);
                    state.stats.skeleton_rebuilds += 1;
                }
            } else {
                let start = i;
                while i < updates.len() && !updates[i].is_topology() {
                    i += 1;
                }
                let ops = self.stage_position_run(&updates[start..i], &mut state.stats)?;
                for op in ops {
                    let outcome = self.apply_object_op(op, &mut state.floors)?;
                    state.delta.record(&outcome);
                    state.outcomes.push(outcome);
                }
            }
        }
        Ok(())
    }

    /// Stages one run of position updates without applying anything — the
    /// validate + prepare half of [`Txn::run_batch`], and the whole of the
    /// parallel stage phase. Each update is validated, footprinted and
    /// sampled in one pass, in input order, so the first failing update
    /// names the error. Id allocations and reservations land on this
    /// transaction's store copy; when the parallel path discards the
    /// staging transaction, nothing is lost — applying the staged inserts
    /// re-reserves every id, so the watermark ends identical to a serial
    /// replay.
    fn stage_position_run(
        &mut self,
        updates: &[Update],
        stats: &mut UpdateStats,
    ) -> Result<Vec<PreparedOp>, EngineError> {
        let mut ops = Vec::with_capacity(updates.len());
        let mut pending: IdMap<ObjectId, PendingState> = IdMap::default();
        for update in updates {
            ops.push(self.stage_position_update(update, &mut pending)?);
            stats.position_updates += 1;
        }
        Ok(ops)
    }

    /// Stages one position [`Update`]: validates it against the store
    /// *and* the run's pending effects (so a run may touch the same object
    /// repeatedly with sequential semantics), allocates ids, computes the
    /// write's footprint and draws its instances. Nothing is applied.
    fn stage_position_update(
        &mut self,
        update: &Update,
        pending: &mut IdMap<ObjectId, PendingState>,
    ) -> Result<PreparedOp, EngineError> {
        match update {
            Update::InsertObject(object) => {
                let id = object.id;
                let exists = match pending.get(&id) {
                    Some(PendingState::Live { .. }) => true,
                    Some(PendingState::Removed) => false,
                    None => self.store.contains(id),
                };
                if exists {
                    return Err(ObjectError::DuplicateObject(id).into());
                }
                check_radius(object.region.radius)?;
                // A fully-formed insert is the one object path with no
                // sampling step to reject a floor the space does not
                // cover — and an out-of-space floor would permanently
                // grow the per-floor shard vectors.
                if object.floor as usize >= self.space.num_floors() {
                    return Err(EngineError::FloorOutOfSpace {
                        floor: object.floor,
                        num_floors: self.space.num_floors(),
                    });
                }
                // Sampled objects are covered by construction; a
                // fully-formed one may have an instance in no partition.
                let (units, mbr) = self.index.object_footprint(&self.space, object);
                self.index
                    .check_covered(&self.space, object, &units)
                    .map_err(|_| ObjectError::NoHostPartition)?;
                // The insert itself is deferred, so reserve the external id
                // now: a later `InsertObjectAt` in this run must allocate
                // past it, exactly as sequential application would after
                // the insert landed.
                Arc::make_mut(&mut self.store).reserve_id(id);
                pending.insert(
                    id,
                    PendingState::Live {
                        radius: object.region.radius,
                        instances: object.len(),
                        floor: object.floor,
                    },
                );
                Ok(PreparedOp::Insert(object.clone(), units, mbr))
            }
            Update::InsertObjectAt {
                center,
                floor,
                radius,
                instances,
                seed,
            } => {
                check_radius(*radius)?;
                check_instances(*instances)?;
                let id = Arc::make_mut(&mut self.store).allocate_id();
                let instances = (*instances).max(1);
                let (object, units, mbr) =
                    self.sample(id, *center, *floor, *radius, instances, *seed)?;
                pending.insert(
                    id,
                    PendingState::Live {
                        radius: *radius,
                        instances,
                        floor: *floor,
                    },
                );
                Ok(PreparedOp::Insert(Box::new(object), units, mbr))
            }
            Update::MoveObject {
                id,
                center,
                floor,
                seed,
            } => {
                let (radius, instances, old_floor) = match pending.get(id) {
                    Some(PendingState::Removed) => {
                        return Err(ObjectError::UnknownObject(*id).into())
                    }
                    Some(PendingState::Live {
                        radius,
                        instances,
                        floor,
                    }) => (*radius, *instances, *floor),
                    None => {
                        let old = self.store.get(*id)?;
                        (old.region.radius, old.len(), old.floor)
                    }
                };
                let (object, units, mbr) =
                    self.sample(*id, *center, *floor, radius, instances, *seed)?;
                pending.insert(
                    *id,
                    PendingState::Live {
                        radius,
                        instances,
                        floor: *floor,
                    },
                );
                Ok(PreparedOp::Move(Box::new(object), units, mbr, old_floor))
            }
            Update::RemoveObject(id) => {
                let old_floor = match pending.get(id) {
                    Some(PendingState::Removed) => {
                        return Err(ObjectError::UnknownObject(*id).into())
                    }
                    Some(PendingState::Live { floor, .. }) => *floor,
                    None => self.store.get(*id)?.floor,
                };
                pending.insert(*id, PendingState::Removed);
                Ok(PreparedOp::Remove(*id, old_floor))
            }
            _ => unreachable!("stage_position_update only sees position updates"),
        }
    }

    /// Footprints and samples one object. A sampled object's instances
    /// are truncated to its region, so its footprint is the region's
    /// bounding box; the partitions owning the units that box meets (a
    /// superset of every partition overlapping the region) are the
    /// sampler's point-location hint, which keeps the draw exact. Each
    /// draw is seeded by `seed ^ id` alone.
    fn sample(
        &self,
        id: ObjectId,
        center: Point2,
        floor: Floor,
        radius: f64,
        instances: usize,
        seed: u64,
    ) -> Result<(UncertainObject, Vec<UnitId>, Mbr3), EngineError> {
        let rect = Circle::new(center, radius).bbox();
        let mbr = Mbr3::planar(rect, floor, self.space.elevation(floor));
        let units = self.index.units_intersecting(&mbr);
        let hint = self.index.units().owning_partitions(&units);
        let sampler = GaussianSampler {
            instances,
            ..GaussianSampler::default()
        };
        let mut rng = StdRng::seed_from_u64(seed ^ id.0);
        let object =
            sampler.sample_with_hint(id, center, floor, radius, &self.space, &hint, &mut rng)?;
        Ok((object, units, mbr))
    }

    /// Applies one staged op to the transaction's store + index copies,
    /// recording the floor shard(s) it lands in (the floors carried on
    /// the staged op feed `UpdateStats::shards_touched`; the layers route
    /// by their O(1) directories). Which partitions the op leaves and
    /// enters is not recorded: the dispatcher derives that from the
    /// index before and after the commit. The `Arc::make_mut`s on the
    /// layer handles cost a few pointer bumps — the deep copies happen
    /// *inside* the layers, per touched floor shard and changed bucket. By
    /// construction (validation + staging) these layer operations cannot
    /// fail on user input; an error simply aborts the transaction with the
    /// committed version untouched.
    fn apply_object_op(
        &mut self,
        op: PreparedOp,
        floors: &mut BTreeSet<Floor>,
    ) -> Result<UpdateOutcome, EngineError> {
        match op {
            PreparedOp::Insert(object, units, mbr) => {
                let id = object.id;
                floors.insert(object.floor);
                Arc::make_mut(&mut self.index).insert_object_prepared(id, units, mbr)?;
                Arc::make_mut(&mut self.store).insert(*object)?;
                Ok(UpdateOutcome::ObjectInserted(id))
            }
            PreparedOp::Move(object, units, mbr, old_floor) => {
                let id = object.id;
                // A cross-floor move touches the old floor's shard too.
                floors.insert(old_floor);
                floors.insert(object.floor);
                Arc::make_mut(&mut self.store).replace_discarding(*object)?;
                Arc::make_mut(&mut self.index).update_object_prepared(id, units, mbr)?;
                Ok(UpdateOutcome::ObjectMoved(id))
            }
            PreparedOp::Remove(id, floor) => {
                floors.insert(floor);
                Arc::make_mut(&mut self.index).remove_object(id)?;
                Arc::make_mut(&mut self.store).discard(id)?;
                Ok(UpdateOutcome::ObjectRemoved(id))
            }
        }
    }

    /// Applies one topology [`Update`]: the space-layer operation (on the
    /// transaction's space copy), then its events through the index with
    /// the skeleton repair deferred into `skeleton_dirty` (callers
    /// coalesce repairs across a run).
    fn apply_topology_update(
        &mut self,
        update: &Update,
        skeleton_dirty: &mut bool,
    ) -> Result<UpdateOutcome, EngineError> {
        match update {
            Update::OpenDoor(d) => {
                let ev = Arc::make_mut(&mut self.space).open_door(*d)?;
                self.absorb_events(&[ev], skeleton_dirty)?;
                Ok(UpdateOutcome::DoorOpened(*d))
            }
            Update::CloseDoor(d) => {
                let ev = Arc::make_mut(&mut self.space).close_door(*d)?;
                self.absorb_events(&[ev], skeleton_dirty)?;
                Ok(UpdateOutcome::DoorClosed(*d))
            }
            Update::InsertDoor {
                a,
                b,
                position,
                floor,
                direction,
            } => {
                let (id, ev) = Arc::make_mut(&mut self.space)
                    .insert_door(*a, *b, *position, *floor, *direction)?;
                self.absorb_events(&[ev], skeleton_dirty)?;
                Ok(UpdateOutcome::DoorInserted(id))
            }
            Update::InsertPartition(spec) => {
                let (partition, doors, events) =
                    Arc::make_mut(&mut self.space).insert_partition(spec.clone())?;
                self.absorb_events(&events, skeleton_dirty)?;
                Ok(UpdateOutcome::PartitionInserted { partition, doors })
            }
            Update::DeletePartition(p) => {
                let events = Arc::make_mut(&mut self.space).delete_partition(*p)?;
                self.absorb_events(&events, skeleton_dirty)
                    .map_err(|e| match e {
                        EngineError::Index(IndexError::Uncovered(object)) => {
                            EngineError::PartitionOccupied {
                                partition: *p,
                                object,
                            }
                        }
                        e => e,
                    })?;
                Ok(UpdateOutcome::PartitionDeleted(*p))
            }
            Update::SplitPartition {
                partition,
                line,
                connecting_door,
            } => {
                let (halves, events) = Arc::make_mut(&mut self.space).split_partition(
                    *partition,
                    *line,
                    *connecting_door,
                )?;
                self.absorb_events(&events, skeleton_dirty)?;
                Ok(UpdateOutcome::PartitionSplit {
                    old: *partition,
                    halves,
                })
            }
            Update::MergePartitions(a, b) => {
                let (merged, events) = Arc::make_mut(&mut self.space).merge_partitions(*a, *b)?;
                self.absorb_events(&events, skeleton_dirty)?;
                Ok(UpdateOutcome::PartitionsMerged { merged })
            }
            _ => unreachable!("apply_topology_update only sees topology updates"),
        }
    }

    fn absorb_events(
        &mut self,
        events: &[TopologyEvent],
        skeleton_dirty: &mut bool,
    ) -> Result<(), EngineError> {
        let index = Arc::make_mut(&mut self.index);
        for ev in events {
            *skeleton_dirty |= index.apply_topology_deferred(&self.space, &self.store, ev)?;
        }
        Ok(())
    }
}

// ---- staged batches and the sequencer -------------------------------------

/// One batch after its parallel stage phase, queued for the sequencer.
#[derive(Debug)]
struct StagedBatch {
    /// The original updates — kept so the sequencer can re-stage the
    /// batch if it lost its optimistic race.
    updates: Vec<Update>,
    /// The version the batch staged against. Pinning it keeps every store
    /// entry staging read alive, so an entry found at the same address
    /// in the working state is the very entry staging read.
    base: Arc<EngineState>,
    /// The prepared ops (`None` for batches containing topology updates,
    /// which must run serially in the sequencer: topology both observes
    /// and mutates the working geometry, and may legitimately fail).
    ops: Option<Vec<PreparedOp>>,
    /// Counters accumulated by staging (carried into the batch's report
    /// when the fast path applies the staged ops unchanged).
    stats: UpdateStats,
}

/// Result slot a submitter parks on while a sequencer leader commits its
/// batch. No condvar: a submitter blocked on the sequencer lock either
/// finds its slot filled when it acquires (a leader committed it), or
/// finds its entry still queued and leads itself.
#[derive(Debug, Default)]
struct Slot(Mutex<Option<Result<UpdateReport, EngineError>>>);

impl Slot {
    fn take(&self) -> Option<Result<UpdateReport, EngineError>> {
        self.0.lock().expect("result slot lock").take()
    }

    fn fill(&self, result: Result<UpdateReport, EngineError>) {
        *self.0.lock().expect("result slot lock") = Some(result);
    }
}

#[derive(Debug)]
struct PendingEntry {
    staged: StagedBatch,
    slot: Arc<Slot>,
}

/// State shared by every [`WriteHandle`] clone of one engine: the staged
/// queue and the sequencer.
#[derive(Debug)]
struct WriterCore {
    /// Batches staged and awaiting sequencing. Submitters push without
    /// the sequencer lock; the leader drains.
    queue: Mutex<Vec<PendingEntry>>,
    /// The serial section: whoever holds it orders, validates, applies
    /// and publishes a group.
    sequencer: Mutex<()>,
}

// ---- the write handle -----------------------------------------------------

/// A cloneable, `Send + Sync` **writer** handle: the multi-writer
/// counterpart of [`crate::IndoorService`].
///
/// Obtain one from [`crate::IndoorEngine::writer`] and clone it into any
/// number of threads; all clones feed one epoch sequencer, so commits
/// from concurrent writers are totally ordered and each epoch is
/// published with a single atomic swap. Batches submitted concurrently
/// may **coalesce into one commit group** (one epoch, one subscription
/// broadcast): each batch still gets its own [`UpdateReport`] with its
/// own outcomes, delta and per-batch stats, plus its position in the
/// group ([`UpdateReport::offset_in_epoch`]) and the group size
/// ([`UpdateStats::group_batches`]).
///
/// Writer retirement is reference-counted: subscriptions see their
/// stream end when the engine *and* every cloned handle have dropped.
///
/// ```
/// use idq_core::{EngineConfig, IndoorEngine, Update};
/// use idq_geom::{Point2, Rect2};
/// use idq_model::FloorPlanBuilder;
///
/// let mut b = FloorPlanBuilder::new(4.0);
/// b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
/// let mut engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
/// let writer = engine.writer();
/// let t = std::thread::spawn(move || {
///     writer
///         .apply(Update::InsertObjectAt {
///             center: Point2::new(5.0, 5.0), floor: 0, radius: 1.0, instances: 4, seed: 1,
///         })
///         .unwrap()
/// });
/// t.join().unwrap();
/// engine.refresh();
/// assert_eq!(engine.store().len(), 1);
/// ```
#[derive(Debug)]
pub struct WriteHandle {
    shared: Arc<Shared>,
    core: Arc<WriterCore>,
    window: Duration,
}

impl Clone for WriteHandle {
    fn clone(&self) -> Self {
        self.shared.add_writer();
        WriteHandle {
            shared: Arc::clone(&self.shared),
            core: Arc::clone(&self.core),
            window: self.window,
        }
    }
}

impl Drop for WriteHandle {
    /// Releases this writer; the last release retires the write side
    /// (subscription streams end, services keep answering on the final
    /// version).
    fn drop(&mut self) {
        self.shared.release_writer();
    }
}

impl WriteHandle {
    /// The engine's own handle (the writer count starts at 1 in the
    /// shared registry, accounting for exactly this handle).
    pub(crate) fn bootstrap(shared: Arc<Shared>) -> Self {
        WriteHandle {
            shared,
            core: Arc::new(WriterCore {
                queue: Mutex::new(Vec::new()),
                sequencer: Mutex::new(()),
            }),
            window: Duration::ZERO,
        }
    }

    /// Returns this handle with a **commit window**: when it leads a
    /// commit group it holds the group open for `window` before draining
    /// the queue, so more concurrent submitters coalesce into one epoch
    /// (fewer shard copies, snapshots and broadcasts per batch — higher
    /// throughput, higher latency). The default of zero still group-commits
    /// whatever queued while the previous leader held the sequencer; the
    /// window only *adds* coalescing time. Per-handle: clones keep the
    /// window they were cloned with.
    #[must_use]
    pub fn with_commit_window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Applies one typed [`Update`] through the sequencer. See
    /// [`WriteHandle::apply_batch`] — this is a one-update batch, and the
    /// cheapest way to issue concurrent small writes (group commit
    /// amortizes the per-epoch costs across every batch in the group).
    pub fn apply(&self, update: Update) -> Result<UpdateOutcome, EngineError> {
        let report = self.apply_batch(std::slice::from_ref(&update))?;
        Ok(report
            .outcomes
            .into_iter()
            .next()
            .expect("one update, one outcome"))
    }

    /// Applies a stream of typed [`Update`]s as **one atomic transaction**,
    /// concurrently with other writers.
    ///
    /// The batch is validated and prepared on the calling thread against
    /// the latest published version (the parallel stage phase), then
    /// ordered by the epoch sequencer. If what staging read changed in
    /// between — an object the batch names was written, the id watermark
    /// moved under a batch that allocates ids, or the topology changed —
    /// the batch is transparently **re-staged** against the state it
    /// actually lands on ([`UpdateStats::restaged`]), so results are
    /// exactly those of a serial execution in sequencer order. On the
    /// first failure nothing commits, and the error is that of the first
    /// failing update in input order (staging failures never enter the
    /// sequencer; serial failures drop the batch from its group).
    ///
    /// Batches submitted while another writer leads coalesce into that
    /// leader's **commit group**: one epoch bump and one subscription
    /// broadcast (carrying the group's merged outcomes and net delta)
    /// cover the whole group, and each batch's own report names the
    /// shared epoch, its offset within it, and its own per-batch stats.
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, EngineError> {
        self.apply_batch_gated(updates, || {})
    }

    /// Test-support entry: like [`WriteHandle::apply_batch`], but calls
    /// `after_stage` between the parallel stage phase and enqueueing for
    /// the sequencer — the window in which a concurrent commit can make
    /// the staged work stale. Deterministic interleaving tests
    /// (`tests/sequencer_interleavings.rs`) use it to force the
    /// stage/publish race.
    #[doc(hidden)]
    pub fn apply_batch_gated(
        &self,
        updates: &[Update],
        after_stage: impl FnOnce(),
    ) -> Result<UpdateReport, EngineError> {
        if updates.is_empty() {
            // A committed no-op: nothing to stage, sequence or publish.
            return Ok(UpdateReport {
                outcomes: Vec::new(),
                delta: DeltaBuilder::default().finish(),
                epoch: self.shared.current().epoch,
                stats: UpdateStats::default(),
                offset_in_epoch: 0,
            });
        }
        let staged = stage_batch(self.shared.current(), updates)?;
        after_stage();
        let slot = Arc::new(Slot::default());
        self.core
            .queue
            .lock()
            .expect("staged-batch queue lock")
            .push(PendingEntry {
                staged,
                slot: Arc::clone(&slot),
            });
        let serial = self.core.sequencer.lock().expect("sequencer lock");
        if let Some(result) = slot.take() {
            // A leader drained and committed this batch as part of its
            // group while we waited for the lock.
            return result;
        }
        self.lead();
        drop(serial);
        slot.take()
            .expect("the leader settles every batch it drains, including its own")
    }

    /// The serial section (the caller holds the sequencer lock): drain
    /// the queue, settle every batch in order (validate, optionally
    /// re-stage, apply), publish one epoch for the group, fill every slot.
    fn lead(&self) {
        if !self.window.is_zero() {
            // Hold the group open: submitters enqueue without the
            // sequencer lock, so everything arriving within the window
            // coalesces into this commit.
            std::thread::sleep(self.window);
        }
        let entries =
            std::mem::take(&mut *self.core.queue.lock().expect("staged-batch queue lock"));
        debug_assert!(!entries.is_empty(), "a leader always has its own entry");
        let base = self.shared.current();
        let mut txn = Txn::begin(&base);
        let mut committed: Vec<(Arc<Slot>, BatchState, Vec<Update>)> = Vec::new();
        for PendingEntry { staged, slot } in entries {
            match settle(&mut txn, staged) {
                Ok((batch, updates)) => committed.push((slot, batch, updates)),
                Err(e) => slot.fill(Err(e)),
            }
        }
        if committed.is_empty() {
            // Every batch in the group failed: nothing to publish, the
            // epoch does not move.
            return;
        }

        let epoch = base.epoch + 1;
        let next = Arc::new(EngineState::from_parts_at(
            txn.space,
            txn.store,
            txn.index,
            base.options,
            epoch,
        ));

        // The durability hook: the whole group's batches land in the WAL
        // — one record per batch, in offset order, under the group's
        // epoch — *before* anything publishes. A failed append fails
        // every batch in the group and the epoch never moves: in-memory
        // state stays exactly as durable state.
        if let Some(durability) = self.shared.durability() {
            let payloads: Vec<Vec<u8>> = committed
                .iter()
                .map(|(_, batch, updates)| {
                    let inserted: Vec<ObjectId> = batch
                        .outcomes
                        .iter()
                        .filter_map(UpdateOutcome::inserted_object)
                        .collect();
                    crate::wire::encode_batch(updates, &inserted)
                })
                .collect();
            if let Err(e) = durability.log_group(epoch, &payloads) {
                for (slot, ..) in committed {
                    slot.fill(Err(e.clone()));
                }
                return;
            }
        }

        // Per-batch reports carry each batch's own outcomes, delta and
        // stats (its own floors and checkpoint flag — not the group's);
        // the merged broadcast report carries the group's concatenated
        // outcomes, net delta, and union stats.
        let group_batches = committed.len();
        let mut merged_outcomes = Vec::new();
        let mut merged_delta = DeltaBuilder::default();
        let mut merged_stats = UpdateStats::default();
        let mut merged_floors: BTreeSet<Floor> = BTreeSet::new();
        let mut reports: Vec<(Arc<Slot>, UpdateReport)> = Vec::with_capacity(group_batches);
        for (offset, (slot, batch, _)) in committed.into_iter().enumerate() {
            merged_stats.absorb_group_member(&batch.stats);
            merged_floors.extend(batch.floors.iter().copied());
            for outcome in &batch.outcomes {
                merged_delta.record(outcome);
                merged_outcomes.push(outcome.clone());
            }
            let mut stats = batch.stats;
            stats.group_batches = group_batches;
            stats.shards_touched = batch.floors.len();
            reports.push((
                slot,
                UpdateReport {
                    outcomes: batch.outcomes,
                    delta: batch.delta.finish(),
                    epoch,
                    stats,
                    offset_in_epoch: offset,
                },
            ));
        }
        merged_stats.shards_touched = merged_floors.len();
        let merged = UpdateReport {
            outcomes: merged_outcomes,
            delta: merged_delta.finish(),
            epoch,
            stats: merged_stats,
            offset_in_epoch: 0,
        };

        self.shared.publish(Arc::clone(&next));
        // Post-publish fan-out: one record — the merged group report, a
        // pinned snapshot, the index the group was applied to and the
        // stamps — offered to every commit feed.
        // Enqueue-only; routing, absorption, compression and eviction
        // run on the consumers' own threads.
        self.shared.fan_out(&CommitRecord {
            epoch,
            wall_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            report: Arc::new(merged),
            snapshot: Snapshot::from_state(Arc::clone(&next)),
            before: Arc::clone(&base.index),
        });
        for (slot, report) in reports {
            slot.fill(Ok(report));
        }
        // After publish: hand the pinned new version to the background
        // checkpoint worker if one is due. Never blocks this leader.
        if let Some(durability) = self.shared.durability() {
            durability.maybe_checkpoint(&next);
        }
    }
}

/// The parallel stage phase: validate + prepare one batch against a
/// published version, on the submitting thread, with no locks held.
/// Batches containing topology updates are marked serial instead (the
/// sequencer runs them with classic all-or-nothing transaction
/// semantics).
fn stage_batch(base: Arc<EngineState>, updates: &[Update]) -> Result<StagedBatch, EngineError> {
    let mut stats = UpdateStats {
        updates: updates.len(),
        ..UpdateStats::default()
    };
    let ops = if updates.iter().any(Update::is_topology) {
        None
    } else {
        Some(Txn::begin(&base).stage_position_run(updates, &mut stats)?)
    };
    Ok(StagedBatch {
        updates: updates.to_vec(),
        base,
        ops,
        stats,
    })
}

/// Whether staging `updates` against `base` read exactly what it would
/// read against the working transaction `txn` — optimistic read-set
/// validation. Staging reads three things: the store entries of the ids
/// the batch names, the id watermark (only when it allocates), and
/// geometry (the index's unit tier and the space), which only topology
/// changes — and every topology commit replaces the space `Arc`. Every
/// store write installs a fresh entry `Arc`, and `base` pins the entries
/// staging read, so comparing entry addresses is exact: a move away and
/// back to identical content is still a new entry.
fn reads_unchanged(txn: &Txn, base: &EngineState, updates: &[Update]) -> bool {
    if !Arc::ptr_eq(&txn.space, &base.space) {
        return false;
    }
    if Arc::ptr_eq(&txn.store, &base.store) {
        // Nothing committed since the batch staged.
        return true;
    }
    let allocates = updates
        .iter()
        .any(|u| matches!(u, Update::InsertObjectAt { .. }));
    if allocates && txn.store.id_watermark() != base.store.id_watermark() {
        return false;
    }
    let entry = |store: &ObjectStore, id| store.get(id).ok().map(std::ptr::from_ref);
    updates
        .iter()
        .filter_map(Update::object_id)
        .all(|id| entry(&txn.store, id) == entry(&base.store, id))
}

/// Settles one batch inside the serial section: serial (topology) batches
/// run as a classic transaction on a clone of the working state; staged
/// position batches apply their prepared ops directly when what they read
/// is unchanged in the working state (which includes earlier members of
/// this group), and re-stage against it otherwise. Returns the batch's
/// original updates alongside its results: the leader's durability hook
/// logs exactly what settled, in settle order.
fn settle(txn: &mut Txn, staged: StagedBatch) -> Result<(BatchState, Vec<Update>), EngineError> {
    let StagedBatch {
        updates,
        base,
        ops,
        stats,
    } = staged;
    let Some(ops) = ops else {
        // Topology (or mixed) batch: must observe and mutate the group's
        // working geometry, and may legitimately fail — run it on a clone
        // so a failure drops out of the group structurally.
        let mut attempt = txn.clone();
        let mut batch = BatchState::default();
        attempt.run_batch(&updates, &mut batch)?;
        batch.stats.checkpointed = true;
        batch.stats.shards_touched = batch.floors.len();
        *txn = attempt;
        return Ok((batch, updates));
    };
    let (ops, stats) = if reads_unchanged(txn, &base, &updates) {
        (ops, stats)
    } else {
        // Re-stage against the state the batch actually lands on: full
        // re-validation and re-preparation, exactly as if it had been
        // submitted serially at this point in the order. The staging
        // clone is discarded; only the re-staged ops touch the working
        // transaction.
        let mut stats = UpdateStats {
            updates: updates.len(),
            restaged: true,
            ..UpdateStats::default()
        };
        let ops = txn.clone().stage_position_run(&updates, &mut stats)?;
        (ops, stats)
    };
    let mut batch = BatchState {
        stats,
        ..BatchState::default()
    };
    for op in ops {
        let outcome = txn
            .apply_object_op(op, &mut batch.floors)
            .expect("staged ops apply cleanly to the state they were validated against");
        batch.delta.record(&outcome);
        batch.outcomes.push(outcome);
    }
    Ok((batch, updates))
}

/// Rejects a non-finite or negative uncertainty radius before it can
/// reach the store.
fn check_radius(radius: f64) -> Result<(), EngineError> {
    if radius.is_finite() && radius >= 0.0 {
        Ok(())
    } else {
        Err(ObjectError::BadRadius(radius).into())
    }
}

/// The most instances one sampled insert may ask for. Each instance is a
/// 32 B `Instance` plus one byte in the object's summary memo, so the cap
/// bounds one object at about 2 MiB, 655 times the paper's 100 instances.
/// A larger request would abort the process in the sampler's allocation,
/// live and again in WAL replay.
const MAX_INSTANCES: usize = 1 << 16;

/// Rejects a sampled insert's instance count above [`MAX_INSTANCES`]
/// before an id is allocated or the sampler allocates.
fn check_instances(instances: usize) -> Result<(), EngineError> {
    if instances <= MAX_INSTANCES {
        Ok(())
    } else {
        Err(ObjectError::TooManyInstances(instances).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_batches_cross_threads() {
        // The whole pipeline hinges on staging on one thread and applying
        // on another: a field change that loses `Send` must fail here.
        const fn assert_send<T: Send>() {}
        assert_send::<StagedBatch>();
        assert_send::<PreparedOp>();
        assert_send::<PendingEntry>();
        assert_send::<WriteHandle>();
    }
}
