//! The engine: space + objects + index, kept consistent — and served
//! concurrently.
//!
//! [`IndoorEngine`] owns an MVCC service whose state lives in an
//! immutable, `Arc`-shared [`EngineState`]: every successful
//! [`IndoorEngine::apply`] / [`IndoorEngine::apply_batch`] commits by
//! building the *next* state — copy-on-write of the layers the batch
//! touched — and swapping it into the service cell under its new epoch.
//! The write path is **multi-writer**: the engine's own applies delegate
//! to a [`WriteHandle`] ([`IndoorEngine::writer`] clones more of them for
//! other threads), and all handles feed one epoch sequencer that stages
//! batches in parallel, orders them, and group-commits concurrent
//! submissions into single epochs (see [`crate::write`]). Reads go
//! through owned [`Snapshot`]s pinned to a version
//! ([`IndoorEngine::snapshot`], or any thread via
//! [`IndoorEngine::service`]); standing queries subscribe through
//! [`crate::IndoorService::subscribe`] and are fed each commit's
//! [`UpdateReport`]. Failure atomicity is structural: an error anywhere
//! in a batch drops the in-flight copy, leaving the committed version
//! untouched.

use crate::durability::{has_durable_state, load_checkpoint, Durability};
use crate::error::EngineError;
use crate::feed::CommitFeed;
use crate::service::{IndoorService, Shared};
use crate::snapshot::Snapshot;
use crate::state::EngineState;
use crate::update::{Update, UpdateOutcome, UpdateReport};
use crate::wire;
use crate::write::WriteHandle;
use crate::DurabilityOptions;
use idq_index::{CompositeIndex, IndexConfig};
use idq_model::IndoorSpace;
use idq_objects::{ObjectId, ObjectStore};
use idq_query::QueryOptions;
use idq_storage::{FileBackend, StorageBackend, StorageError, WalRecord};
use std::path::Path;
use std::sync::Arc;

/// Engine configuration: index layout plus default query options.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Composite-index parameters (fanout, `T_shape`, bulk load).
    pub index: IndexConfig,
    /// Default query options (ablation switches, subgraph slack).
    pub query: QueryOptions,
}

/// The integrated engine: the root owner of one consistent, versioned
/// indoor world.
///
/// The engine holds the bootstrap writer handle; [`IndoorEngine::writer`]
/// clones more [`WriteHandle`]s for concurrent writer threads, and reads
/// and subscriptions go through the [`IndoorService`] handle
/// ([`IndoorEngine::service`]), which any number of threads share.
/// Writer retirement is reference-counted: when the engine *and* every
/// cloned write handle have dropped, services keep answering on the
/// final version and subscriptions see their stream end.
///
/// The engine pins the version its own last apply produced: the borrowing
/// accessors ([`IndoorEngine::space`], [`IndoorEngine::store`],
/// [`IndoorEngine::index`], [`IndoorEngine::validate`]) answer on that
/// pin, which trails the published version only while *other* write
/// handles commit — [`IndoorEngine::refresh`] re-pins to the latest.
/// [`IndoorEngine::epoch`] and [`IndoorEngine::snapshot`] read the latest
/// published version directly.
#[derive(Debug)]
pub struct IndoorEngine {
    shared: Arc<Shared>,
    /// The engine's own writer handle (accounted for by the registry's
    /// initial writer count).
    writer: WriteHandle,
    /// The engine's pin: the version its own last apply produced.
    state: Arc<EngineState>,
}

impl IndoorEngine {
    /// Builds an engine over a space with no objects yet.
    pub fn new(space: IndoorSpace, config: EngineConfig) -> Result<Self, EngineError> {
        Self::with_objects(space, ObjectStore::new(), config)
    }

    /// Builds an engine over a space and an existing object population.
    pub fn with_objects(
        space: IndoorSpace,
        store: ObjectStore,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::with_objects_at(space, store, config, 0)
    }

    /// [`IndoorEngine::with_objects`] resuming at a given epoch — recovery
    /// builds the post-checkpoint engine through this (the index is
    /// derived state, rebuilt here).
    fn with_objects_at(
        space: IndoorSpace,
        store: ObjectStore,
        config: EngineConfig,
        epoch: u64,
    ) -> Result<Self, EngineError> {
        let index = CompositeIndex::build(&space, &store, config.index)?;
        let state = Arc::new(EngineState::from_parts_at(
            Arc::new(space),
            Arc::new(store),
            Arc::new(index),
            config.query,
            epoch,
        ));
        let shared = Arc::new(Shared::new(Arc::clone(&state)));
        let writer = WriteHandle::bootstrap(Arc::clone(&shared));
        Ok(IndoorEngine {
            shared,
            writer,
            state,
        })
    }

    // ---- durability (WAL + checkpoints + recovery) -----------------------

    /// Opens a **durable** engine rooted at a filesystem directory:
    /// recovers from it when it already holds engine state (checkpoint +
    /// log — `space_if_new` is ignored then), otherwise creates a fresh
    /// durable engine over `space_if_new` with an epoch-0 base
    /// checkpoint. Every subsequent commit is written ahead to the log
    /// per [`DurabilityOptions::sync`] before it publishes.
    pub fn open(
        path: impl AsRef<Path>,
        space_if_new: IndoorSpace,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> Result<Self, EngineError> {
        let path = path.as_ref();
        let backend = FileBackend::open(path).map_err(|cause| EngineError::Storage {
            path: path.display().to_string(),
            epoch: 0,
            cause,
        })?;
        Self::open_with(Arc::new(backend), space_if_new, config, options)
    }

    /// [`IndoorEngine::open`] over any [`StorageBackend`] (the in-memory
    /// backend drives the crash-matrix tests).
    pub fn open_with(
        backend: Arc<dyn StorageBackend>,
        space_if_new: IndoorSpace,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> Result<Self, EngineError> {
        if has_durable_state(&backend) {
            Self::recover_with(backend, config, options)
        } else {
            Self::create_with(backend, space_if_new, ObjectStore::new(), config, options)
        }
    }

    /// Creates a **fresh** durable engine on `backend`: builds the
    /// initial version, writes its epoch-0 base checkpoint (so recovery
    /// always has a floor to replay from), and opens the log. Fails if
    /// the backend already holds log records without a checkpoint —
    /// that is somebody's data, not a fresh directory.
    pub fn create_with(
        backend: Arc<dyn StorageBackend>,
        space: IndoorSpace,
        store: ObjectStore,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> Result<Self, EngineError> {
        let engine = Self::with_objects(space, store, config)?;
        let (durability, records) = Durability::open(backend, options, 0)?;
        if let Some(stray) = records.first() {
            return Err(EngineError::Recovery {
                path: durability.backend().label(),
                epoch: stray.epoch,
                cause: StorageError::Corrupt {
                    path: durability.backend().label(),
                    offset: 0,
                    reason: "log records present but no checkpoint: refusing to create over \
                             existing data"
                        .to_string(),
                },
            });
        }
        durability.checkpoint_now(&engine.shared.current())?;
        engine.shared.attach_durability(durability);
        Ok(engine)
    }

    /// Recovers an engine from `backend`: loads the newest valid
    /// checkpoint, rebuilds the derived index, then replays the log
    /// suffix — each commit group as one atomic batch, in
    /// `(epoch, offset_in_epoch)` order — verifying epoch continuity and
    /// that every replayed insert produced exactly the object ids the
    /// original commit logged. A torn record at the very tail of the log
    /// (the in-flight append the crash interrupted) was already discarded
    /// by the log open; corruption anywhere else fails recovery.
    pub fn recover_with(
        backend: Arc<dyn StorageBackend>,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> Result<Self, EngineError> {
        let label = backend.label();
        let ckpt = load_checkpoint(&backend)?;
        let decoded = wire::decode_checkpoint(&ckpt.payload);
        let (space, store) = decoded.map_err(|cause| EngineError::Recovery {
            path: label.clone(),
            epoch: ckpt.epoch,
            cause,
        })?;
        let (durability, records) = Durability::open(backend, options, ckpt.epoch)?;
        let mut engine = Self::with_objects_at(space, store, config, ckpt.epoch).map_err(|e| {
            EngineError::Recovery {
                path: label.clone(),
                epoch: ckpt.epoch,
                cause: StorageError::Corrupt {
                    path: label.clone(),
                    offset: 0,
                    reason: format!("checkpoint does not index: {e}"),
                },
            }
        })?;
        engine.replay(&records, ckpt.epoch, &label)?;
        engine.shared.attach_durability(durability);
        engine.refresh();
        Ok(engine)
    }

    /// Replays the recovered log suffix through the ordinary write path.
    /// Runs *before* durability attaches, so replayed commits are not
    /// logged a second time; the epoch numbering reproduces the original
    /// because each logged group was exactly one epoch bump.
    fn replay(
        &mut self,
        records: &[WalRecord],
        checkpoint_epoch: u64,
        label: &str,
    ) -> Result<(), EngineError> {
        let corrupt = |epoch: u64, reason: String| EngineError::Recovery {
            path: label.to_string(),
            epoch,
            cause: StorageError::Corrupt {
                path: label.to_string(),
                offset: 0,
                reason,
            },
        };
        let mut current = checkpoint_epoch;
        let mut i = 0;
        while i < records.len() {
            let epoch = records[i].epoch;
            let mut j = i;
            while j < records.len() && records[j].epoch == epoch {
                j += 1;
            }
            let group = &records[i..j];
            i = j;
            if epoch <= current {
                // Covered by the checkpoint (log truncation is lazy).
                continue;
            }
            if epoch != current + 1 {
                return Err(corrupt(
                    epoch,
                    format!(
                        "epoch gap in the log: expected {}, found {epoch}",
                        current + 1
                    ),
                ));
            }
            // A commit group replays as ONE atomic batch: concatenating
            // its batches in offset order is equivalent to the serial
            // execution the group committed as, and produces the same
            // single epoch bump as the original group commit.
            let mut updates = Vec::new();
            let mut logged_inserted = Vec::new();
            for record in group {
                let batch =
                    wire::decode_batch(&record.payload).map_err(|cause| EngineError::Recovery {
                        path: label.to_string(),
                        epoch,
                        cause,
                    })?;
                updates.extend(batch.updates);
                logged_inserted.extend(batch.inserted);
            }
            let report = self
                .apply_batch(&updates)
                .map_err(|e| corrupt(epoch, format!("replay of epoch {epoch} failed: {e}")))?;
            if report.epoch != epoch {
                return Err(corrupt(
                    epoch,
                    format!("replay committed epoch {}, log says {epoch}", report.epoch),
                ));
            }
            let replayed: Vec<ObjectId> = report
                .outcomes
                .iter()
                .filter_map(UpdateOutcome::inserted_object)
                .collect();
            if replayed != logged_inserted {
                return Err(corrupt(
                    epoch,
                    format!(
                        "replay of epoch {epoch} allocated object ids {replayed:?}, \
                         log recorded {logged_inserted:?}"
                    ),
                ));
            }
            current = epoch;
        }
        Ok(())
    }

    /// Whether this engine persists its commits (built by one of the
    /// durable constructors).
    pub fn is_durable(&self) -> bool {
        self.shared.durability().is_some()
    }

    /// Writes a checkpoint of the current version synchronously and
    /// truncates the log prefix it covers, returning the checkpointed
    /// epoch — `Ok(None)` on a non-durable engine. Blocks only the
    /// caller; concurrent writers keep committing (the checkpoint
    /// encodes a pinned immutable version).
    pub fn checkpoint(&self) -> Result<Option<u64>, EngineError> {
        match self.shared.durability() {
            Some(d) => d.checkpoint_now(&self.shared.current()).map(Some),
            None => Ok(None),
        }
    }

    /// Epoch of the newest durable checkpoint (`None` on a non-durable
    /// engine). Trails [`IndoorEngine::epoch`] by up to
    /// [`DurabilityOptions::checkpoint_every`] epochs plus the in-flight
    /// background checkpoint.
    pub fn last_checkpoint_epoch(&self) -> Option<u64> {
        self.shared.durability().map(|d| d.last_checkpoint_epoch())
    }

    /// Forces every logged commit durable now regardless of the sync
    /// policy (`Ok` and a no-op on a non-durable engine). The same flush
    /// runs automatically when the last write handle drops.
    pub fn flush_wal(&self) -> Result<(), EngineError> {
        match self.shared.durability() {
            Some(d) => d.flush(),
            None => Ok(()),
        }
    }

    // ---- accessors -------------------------------------------------------

    /// The indoor space (the engine's pinned version; see
    /// [`IndoorEngine::refresh`]).
    pub fn space(&self) -> &IndoorSpace {
        &self.state.space
    }

    /// The object population (the engine's pinned version; see
    /// [`IndoorEngine::refresh`]).
    pub fn store(&self) -> &ObjectStore {
        &self.state.store
    }

    /// The composite index (the engine's pinned version; see
    /// [`IndoorEngine::refresh`]).
    pub fn index(&self) -> &CompositeIndex {
        &self.state.index
    }

    /// The latest committed epoch: bumped once per successful commit (a
    /// batch is one transaction, hence one bump; concurrent batches may
    /// group-commit under a single bump). Two snapshots with equal
    /// [`Snapshot::version`] saw the identical world.
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// Re-pins the engine's borrowing accessors to the latest committed
    /// version — only needed after *other* [`WriteHandle`]s commit (the
    /// engine's own applies re-pin automatically).
    pub fn refresh(&mut self) {
        self.state = self.shared.current();
    }

    // ---- the concurrent service surface ---------------------------------

    /// A cloneable, `Send + Sync` handle for reader threads: snapshots,
    /// query sessions and standing-query subscriptions, all pinned to
    /// committed versions while writers keep committing.
    pub fn service(&self) -> IndoorService {
        IndoorService::new(Arc::clone(&self.shared))
    }

    /// A cloneable, `Send + Sync` **writer** handle feeding the engine's
    /// epoch sequencer: clone it into any number of threads and apply
    /// batches concurrently — batches are staged in parallel, ordered,
    /// conflict-checked, and group-committed (see [`crate::write`]).
    pub fn writer(&self) -> WriteHandle {
        self.writer.clone()
    }

    /// Attaches a commit-retention consumer (at most one per engine, for
    /// its whole life): hands out the consumer end of a
    /// [`CommitFeed`] into which every epoch committed from now on is
    /// enqueued right after it publishes — the merged group report, a
    /// pinned [`Snapshot`] and a wall-clock stamp. Returns `None` when a
    /// consumer was already attached. Attach before spawning concurrent
    /// writers: commits that race the attachment itself may precede the
    /// first queued epoch, so consumers baseline themselves with a
    /// snapshot taken after attaching (`idq-history`'s
    /// `HistoryRecorder::attach` does exactly that).
    pub fn attach_retention(&self) -> Option<CommitFeed> {
        self.shared.attach_retention()
    }

    // ---- snapshots (sessions over a consistent read view) ----------------

    /// An owned snapshot pinned to the latest committed version, using the
    /// engine's configured query options. The snapshot is `Clone + Send +
    /// Sync`: hand it to any thread, it keeps reading this version no
    /// matter what commits afterwards.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_state(self.shared.current())
    }

    // ---- typed updates (§III-C) ------------------------------------------

    /// Applies one typed [`Update`].
    ///
    /// Atomic: on error nothing was committed — the update ran on a
    /// copy-on-write transaction that is simply dropped. A success bumps
    /// the [`IndoorEngine::epoch`], publishes the new version to every
    /// service handle and notifies subscriptions.
    ///
    /// **Cost note:** under MVCC every commit copy-on-writes what it
    /// touches — which, with the state sharded by floor, is the store and
    /// o-table slice of the touched floor(s) plus the buckets whose
    /// membership changes, never the whole object population. A
    /// single-update commit therefore costs O(objects on its floor)
    /// rather than O(all objects). Batching still wins (one shard copy
    /// amortized over the whole batch instead of one per update; see
    /// [`IndoorEngine::apply_batch`]). Concurrent
    /// single-`apply` callers get the same amortization automatically
    /// through **group commit**: clone [`IndoorEngine::writer`] into the
    /// submitting threads and their commits coalesce into shared epochs
    /// (see [`crate::write`]).
    pub fn apply(&mut self, update: Update) -> Result<UpdateOutcome, EngineError> {
        let report = self.apply_batch(std::slice::from_ref(&update))?;
        Ok(report
            .outcomes
            .into_iter()
            .next()
            .expect("one update, one outcome"))
    }

    /// Applies a stream of typed [`Update`]s as **one atomic transaction**:
    /// either every update commits (one epoch bump, one [`UpdateReport`])
    /// or, on the first failure, nothing does — the batch runs on a
    /// copy-on-write transaction over the committed version's layers, so a
    /// failure drops the copy and the committed version was never touched
    /// (no undo log, no compensation). Updates are validated and staged in
    /// input order, so the error returned is that of the first failing
    /// update.
    ///
    /// The batch is also **amortized**: each touched floor shard is copied
    /// once for the whole batch, and a run of topology updates coalesces
    /// its skeleton repairs into a single rebuild at the end of the run
    /// (each position update still costs its own footprint traversal, as
    /// in §III-C.2). Results are equivalent to applying the updates one at
    /// a time in order (same objects, same ids, same query answers) — only
    /// the maintenance cost differs.
    ///
    /// A successful non-empty batch commits via the epoch-stamped atomic
    /// swap: snapshots pinned to older versions are unaffected, new
    /// snapshots see the new version, and every live subscription receives
    /// the report. This delegates to the engine's [`WriteHandle`], so it
    /// sequences correctly against any concurrently committing handles
    /// (and may share its epoch with them — see
    /// [`UpdateReport::offset_in_epoch`]).
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<UpdateReport, EngineError> {
        let result = self.writer.apply_batch(updates);
        self.refresh();
        result
    }

    /// Validates cross-layer invariants of the engine's pinned version
    /// (test/diagnostic support): returns an error when the index has not
    /// absorbed every space mutation, and panics on broken index-internal
    /// invariants (those indicate a bug, never an operational state) —
    /// among them that every stored instance lies in an active partition.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.state.index.validate();
        self.state.index.check_fresh(&self.state.space)?;
        for object in self.state.store.iter() {
            for inst in object.instances() {
                assert!(
                    self.state.space.partition_at(inst.indoor_point()).is_some(),
                    "{} has an instance at {:?} outside every partition",
                    object.id,
                    inst.indoor_point()
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{insert_at, knn, range, three_rooms};
    use idq_geom::{Circle, Point2, Polygon, Rect2};
    use idq_model::{DoorId, IndoorPoint, ModelError, PartitionKind, PartitionSpec, SplitLine};
    use idq_objects::{ObjectError, UncertainObject};
    use idq_query::Query;

    fn move_to(id: ObjectId, center: Point2, seed: u64) -> Update {
        Update::MoveObject {
            id,
            center,
            floor: 0,
            seed,
        }
    }

    fn distance(e: &IndoorEngine, q: IndoorPoint, p: IndoorPoint) -> f64 {
        let out = e.snapshot().execute(&Query::Distance { q, p }).unwrap();
        out.into_distance().unwrap().distance
    }

    fn path_doors(e: &IndoorEngine, q: IndoorPoint, p: IndoorPoint) -> Vec<DoorId> {
        let out = e.snapshot().execute(&Query::Path { q, p }).unwrap();
        out.into_path().unwrap().path.unwrap().1
    }

    #[test]
    fn end_to_end_insert_query_remove() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let o2 = insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 8, 2);
        e.validate().unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let before = knn(&e, q, 2);
        assert_eq!(before.results.len(), 2);
        assert_eq!(before.results[0].object, o1);
        assert_eq!(before.results[1].object, o2);
        let within = range(&e, q, 16.0);
        assert_eq!(within.results.len(), 1);
        e.apply(Update::RemoveObject(o1)).unwrap();
        let after = knn(&e, q, 2);
        assert_eq!(after.results.len(), 1);
        assert_eq!(after.results[0].object, o2);
        e.validate().unwrap();
    }

    #[test]
    fn move_object_changes_ranking() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let o2 = insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 8, 2);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        assert_eq!(knn(&e, q, 1).results[0].object, o1);
        // Move o1 to the far room and o2 near the query.
        e.apply(move_to(o1, Point2::new(28.0, 5.0), 9)).unwrap();
        e.apply(move_to(o2, Point2::new(12.0, 5.0), 9)).unwrap();
        assert_eq!(knn(&e, q, 1).results[0].object, o2);
        e.validate().unwrap();
    }

    #[test]
    fn door_closure_reroutes_distance() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(28.0, 5.0), 0);
        let before = distance(&e, q, p);
        assert!(before.is_finite());
        let doors = path_doors(&e, q, p);
        assert_eq!(doors.len(), 2);
        e.apply(Update::CloseDoor(doors[1])).unwrap();
        assert!(distance(&e, q, p).is_infinite());
        e.apply(Update::OpenDoor(doors[1])).unwrap();
        assert!((distance(&e, q, p) - before).abs() < 1e-9);
        e.validate().unwrap();
    }

    #[test]
    fn split_and_merge_keep_queries_working() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 3);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mid = e
            .space()
            .partition_at(IndoorPoint::new(Point2::new(15.0, 2.0), 0))
            .unwrap();
        let halves = e
            .apply(Update::SplitPartition {
                partition: mid,
                line: SplitLine::AtX(15.5),
                connecting_door: Some(Point2::new(15.5, 5.0)),
            })
            .unwrap()
            .split_halves()
            .unwrap();
        e.validate().unwrap();
        let hits = range(&e, q, 30.0);
        assert!(hits.results.iter().any(|h| h.object == o));
        let merged = e
            .apply(Update::MergePartitions(halves[0], halves[1]))
            .unwrap()
            .merged_partition()
            .unwrap();
        e.validate().unwrap();
        assert!(e.space().partition(merged).is_ok());
        let hits = range(&e, q, 30.0);
        assert!(hits.results.iter().any(|h| h.object == o));
    }

    #[test]
    fn duplicate_insert_is_rejected_consistently() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let id = insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        let dup = UncertainObject::point_object(id, IndoorPoint::new(Point2::new(5.0, 5.0), 0));
        assert!(e.apply(Update::InsertObject(Box::new(dup))).is_err());
        // The failed insert left no trace: cross-layer invariants hold and
        // the original object still answers queries.
        e.validate().unwrap();
        let q = IndoorPoint::new(Point2::new(8.0, 5.0), 0);
        assert_eq!(knn(&e, q, 1).results[0].object, id);
    }

    #[test]
    fn insert_on_an_uncovered_floor_is_rejected() {
        // A fully-formed object names its floor directly (no sampling to
        // reject it); the engine must refuse floors the space does not
        // cover, or the shard vectors would grow to the bogus floor.
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let epoch = e.epoch();
        let stray =
            UncertainObject::point_object(ObjectId(7), IndoorPoint::new(Point2::new(5.0, 5.0), 9));
        let err = e.apply(Update::InsertObject(Box::new(stray))).unwrap_err();
        assert!(matches!(err, EngineError::FloorOutOfSpace { floor: 9, .. }));
        assert!(err.to_string().contains("floor 9"));
        assert_eq!(e.epoch(), epoch);
        assert_eq!(e.store().shard_count(), 0, "no shard slot was created");
        e.validate().unwrap();
    }

    #[test]
    fn bad_radius_or_instance_count_is_rejected_before_anything_changes() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        // A room east of a 1 m wall gap.
        e.apply(Update::InsertPartition(PartitionSpec {
            kind: PartitionKind::Room,
            name: None,
            floor: 0,
            footprint: Polygon::from_rect(Rect2::from_bounds(31.0, 0.0, 41.0, 10.0)),
            doors: vec![],
        }))
        .unwrap();
        let (epoch, watermark) = (e.epoch(), e.store().id_watermark());
        let slack = e.snapshot().options().subgraph_slack;
        for instances in [1 << 40, usize::MAX] {
            let err = e
                .apply(Update::InsertObjectAt {
                    center: Point2::new(15.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances,
                    seed: 2,
                })
                .unwrap_err();
            assert!(
                matches!(err, EngineError::Object(ObjectError::TooManyInstances(n)) if n == instances),
                "{err}"
            );
        }
        for radius in [f64::INFINITY, f64::NAN, -1.0] {
            let sampled = Update::InsertObjectAt {
                center: Point2::new(15.0, 5.0),
                floor: 0,
                radius,
                instances: 4,
                seed: 2,
            };
            let mut formed = UncertainObject::point_object(
                ObjectId(9),
                IndoorPoint::new(Point2::new(15.0, 5.0), 0),
            );
            formed.region.radius = radius;
            for update in [sampled, Update::InsertObject(Box::new(formed))] {
                let err = e.apply(update).unwrap_err();
                assert!(
                    matches!(err, EngineError::Object(ObjectError::BadRadius(r)) if r.to_bits() == radius.to_bits()),
                    "{err}"
                );
            }
        }
        // One instance outside the building, then one in the wall gap.
        for stray in [Point2::new(15.0, -1.0), Point2::new(30.5, 5.0)] {
            let formed = UncertainObject::with_uniform_weights(
                ObjectId(9),
                Circle::new(Point2::new(29.0, 5.0), 2.0),
                0,
                vec![Point2::new(29.0, 5.0), stray],
            )
            .unwrap();
            let err = e.apply(Update::InsertObject(Box::new(formed))).unwrap_err();
            assert_eq!(err, EngineError::Object(ObjectError::NoHostPartition));
        }
        assert_eq!(e.epoch(), epoch);
        assert_eq!(e.store().id_watermark(), watermark);
        assert_eq!(
            e.snapshot().options().subgraph_slack.to_bits(),
            slack.to_bits()
        );
        e.validate().unwrap();
    }

    #[test]
    fn non_finite_topology_input_is_rejected_before_anything_changes() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        let (epoch, watermark) = (e.epoch(), e.store().id_watermark());
        let slots = e.space().partition_slots();
        let room = e.space().partitions().next().unwrap().id;
        let footprint = Polygon::new(vec![
            Point2::new(31.0, 0.0),
            Point2::new(41.0, 0.0),
            Point2::new(41.0, f64::NAN),
            Point2::new(31.0, 10.0),
        ])
        .unwrap();
        for update in [
            Update::SplitPartition {
                partition: room,
                line: SplitLine::AtX(f64::NAN),
                connecting_door: None,
            },
            Update::InsertPartition(PartitionSpec {
                kind: PartitionKind::Room,
                name: None,
                floor: 0,
                footprint,
                doors: vec![],
            }),
        ] {
            let err = e.apply(update).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::Model(ModelError::BadSplit(_) | ModelError::BadFootprint(_))
                ),
                "{err}"
            );
        }
        assert_eq!(e.epoch(), epoch);
        assert_eq!(e.store().id_watermark(), watermark);
        assert_eq!(e.space().partition_slots(), slots);
        e.validate().unwrap();
    }

    #[test]
    fn failed_move_restores_the_original_object() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let id = insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        // Moving to a position outside every partition fails in sampling,
        // before anything commits.
        assert!(e.apply(move_to(id, Point2::new(-50.0, -50.0), 9)).is_err());
        e.validate().unwrap();
        assert!(e.store().contains(id));
        let q = IndoorPoint::new(Point2::new(8.0, 5.0), 0);
        assert_eq!(knn(&e, q, 1).results[0].object, id);
    }

    #[test]
    fn epoch_bumps_once_per_apply_and_stamps_snapshots() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.snapshot().version(), 0);
        insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        assert_eq!(e.epoch(), 1);
        let report = e
            .apply_batch(&[
                Update::InsertObjectAt {
                    center: Point2::new(15.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances: 4,
                    seed: 2,
                },
                Update::InsertObjectAt {
                    center: Point2::new(25.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances: 4,
                    seed: 3,
                },
            ])
            .unwrap();
        // One batch, one epoch bump — and the report names it (an
        // uncontended batch forms a group of one).
        assert_eq!(e.epoch(), 2);
        assert_eq!(report.epoch, 2);
        assert_eq!(report.offset_in_epoch, 0);
        assert_eq!(report.stats.group_batches, 1);
        assert!(!report.stats.restaged);
        assert_eq!(e.snapshot().version(), 2);
        assert_eq!(report.delta.inserted.len(), 2);
        assert!(!report.delta.topology_changed);
        // A failed apply leaves the epoch alone.
        assert!(e
            .apply(move_to(ObjectId(0), Point2::new(-9.0, -9.0), 1))
            .is_err());
        assert_eq!(e.epoch(), 2);
        // An empty batch is a committed no-op.
        let report = e.apply_batch(&[]).unwrap();
        assert_eq!(report.epoch, 2);
        assert!(report.delta.is_empty());
    }

    #[test]
    fn failed_batch_rolls_everything_back() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        let epoch = e.epoch();
        let watermark = e.store().id_watermark();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let before = range(&e, q, 40.0).results;
        // Two good updates followed by a failing one (move to nowhere).
        let err = e.apply_batch(&[
            Update::MoveObject {
                id: o1,
                center: Point2::new(25.0, 5.0),
                floor: 0,
                seed: 7,
            },
            Update::InsertObjectAt {
                center: Point2::new(15.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 8,
            },
            Update::MoveObject {
                id: o1,
                center: Point2::new(-50.0, -50.0),
                floor: 0,
                seed: 9,
            },
        ]);
        assert!(err.is_err());
        e.validate().unwrap();
        assert_eq!(e.epoch(), epoch);
        assert_eq!(e.store().id_watermark(), watermark);
        assert_eq!(e.store().len(), 1);
        assert_eq!(range(&e, q, 40.0).results, before);
        // The object is back at its original position.
        assert_eq!(
            e.store().get(o1).unwrap().region.center,
            Point2::new(5.0, 5.0)
        );
    }

    #[test]
    fn failed_topology_batch_leaves_the_committed_version() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 4, 1);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(28.0, 5.0), 0);
        let d_before = distance(&e, q, p);
        let version = e.space().version();
        let doors = path_doors(&e, q, p);
        // A move, a door closure, then a failing update: the closure ran
        // on the dropped transaction copy, so the committed space is
        // untouched (structurally, not via undo).
        let err = e.apply_batch(&[
            Update::MoveObject {
                id: o1,
                center: Point2::new(25.0, 5.0),
                floor: 0,
                seed: 3,
            },
            Update::CloseDoor(doors[1]),
            Update::RemoveObject(ObjectId(4040)),
        ]);
        assert!(err.is_err());
        e.validate().unwrap();
        assert_eq!(e.space().version(), version, "space untouched");
        assert!((distance(&e, q, p) - d_before).abs() < 1e-9);
        assert_eq!(
            e.store().get(o1).unwrap().region.center,
            Point2::new(15.0, 5.0)
        );
    }

    #[test]
    fn external_insert_reserves_its_id_for_later_allocations() {
        // Regression: an `InsertObject` with an externally minted id,
        // followed in the same batch by an `InsertObjectAt`, must allocate
        // exactly as sequential application would (the insert only lands at
        // commit, so staging has to reserve the id up front).
        let updates = |id: u64| {
            vec![
                Update::InsertObject(Box::new(UncertainObject::point_object(
                    ObjectId(id),
                    IndoorPoint::new(Point2::new(5.0, 5.0), 0),
                ))),
                Update::InsertObjectAt {
                    center: Point2::new(15.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances: 4,
                    seed: 1,
                },
            ]
        };
        for id in [0u64, 5] {
            let mut seq = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
            let mut bat = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
            for u in updates(id) {
                seq.apply(u).unwrap();
            }
            let report = bat.apply_batch(&updates(id)).unwrap();
            assert_eq!(
                seq.store().ids_sorted(),
                bat.store().ids_sorted(),
                "id {id}"
            );
            assert_eq!(report.delta.inserted, seq.store().ids_sorted());
            bat.validate().unwrap();
        }
    }

    #[test]
    fn batch_equals_sequential_on_a_mixed_stream() {
        let mut seq = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let mut bat = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let updates = vec![
            Update::InsertObjectAt {
                center: Point2::new(5.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 1,
            },
            Update::InsertObjectAt {
                center: Point2::new(15.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 2,
            },
            Update::InsertObjectAt {
                center: Point2::new(25.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 3,
            },
            Update::MoveObject {
                id: ObjectId(0),
                center: Point2::new(28.0, 5.0),
                floor: 0,
                seed: 4,
            },
            // Same object again: forces a run split, still equivalent.
            Update::MoveObject {
                id: ObjectId(0),
                center: Point2::new(2.0, 5.0),
                floor: 0,
                seed: 5,
            },
            Update::RemoveObject(ObjectId(1)),
        ];
        for u in &updates {
            seq.apply(u.clone()).unwrap();
        }
        let report = bat.apply_batch(&updates).unwrap();
        assert_eq!(report.outcomes.len(), updates.len());
        assert_eq!(report.delta.inserted, vec![ObjectId(0), ObjectId(2)]);
        assert_eq!(report.delta.removed, Vec::<ObjectId>::new());
        seq.validate().unwrap();
        bat.validate().unwrap();
        assert_eq!(seq.store().ids_sorted(), bat.store().ids_sorted());
        for id in seq.store().ids_sorted() {
            let (a, b) = (seq.store().get(id).unwrap(), bat.store().get(id).unwrap());
            assert_eq!(a.region.center, b.region.center);
            assert_eq!(a.len(), b.len());
        }
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let (a, b) = (range(&seq, q, 30.0), range(&bat, q, 30.0));
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn parallel_sessions_read_while_the_writer_commits() {
        // The tentpole demo in miniature (the full grid lives in
        // tests/concurrency_stress.rs): four reader threads execute
        // sessions on service snapshots while the writer commits, and
        // every answer is consistent with the version its snapshot pins.
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = service.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        let snap = service.snapshot();
                        let out = snap.execute(&Query::Range { q, r: 40.0 }).unwrap();
                        let hits = out.as_range().unwrap().results.len();
                        // Epoch e has exactly 1 + (e - 1) live objects
                        // (first insert above, then one per commit below).
                        assert_eq!(hits as u64, snap.version(), "pinned answers");
                    }
                });
            }
            for seed in 2..=8u64 {
                insert_at(&mut e, Point2::new(14.0 + seed as f64, 5.0), 1.0, 8, seed);
            }
        });
        assert_eq!(e.epoch(), 8);
        assert_eq!(service.epoch(), 8);
    }

    fn world_digest(e: &IndoorEngine) -> Vec<u64> {
        let snap = e.snapshot();
        let mut digest = vec![e.epoch(), snap.store().len() as u64];
        let mut ids: Vec<_> = snap.store().iter().map(|o| o.id).collect();
        ids.sort();
        for id in ids {
            let o = snap.store().get(id).unwrap();
            digest.extend([
                id.0,
                o.region.center.x.to_bits(),
                o.region.center.y.to_bits(),
                o.region.radius.to_bits(),
                o.floor as u64,
            ]);
        }
        digest
    }

    #[test]
    fn durable_engine_recovers_from_log_replay() {
        use idq_storage::MemBackend;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let opts = DurabilityOptions {
            checkpoint_every: 0, // force pure log replay
            ..DurabilityOptions::default()
        };
        let digest = {
            let mut e = IndoorEngine::open_with(
                Arc::clone(&backend),
                three_rooms(),
                EngineConfig::default(),
                opts,
            )
            .unwrap();
            assert!(e.is_durable());
            assert_eq!(e.last_checkpoint_epoch(), Some(0));
            let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
            insert_at(&mut e, Point2::new(25.0, 5.0), 2.0, 8, 2);
            e.apply(move_to(o1, Point2::new(5.0, 5.0), 7)).unwrap();
            world_digest(&e)
        };
        // Reopen: same backend now holds a checkpoint, so `open_with`
        // dispatches to recovery (the fresh space is ignored).
        let r = IndoorEngine::open_with(
            Arc::clone(&backend),
            three_rooms(),
            EngineConfig::default(),
            opts,
        )
        .unwrap();
        assert_eq!(world_digest(&r), digest);
        assert_eq!(r.epoch(), 3);
        r.validate().unwrap();
    }

    #[test]
    fn durable_engine_recovers_from_checkpoint_plus_suffix() {
        use idq_storage::MemBackend;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let opts = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        let digest = {
            let mut e = IndoorEngine::open_with(
                Arc::clone(&backend),
                three_rooms(),
                EngineConfig::default(),
                opts,
            )
            .unwrap();
            for seed in 1..=4u64 {
                insert_at(&mut e, Point2::new(10.0 + seed as f64, 5.0), 1.0, 8, seed);
            }
            // Mid-stream checkpoint, then more commits: recovery loads the
            // checkpoint and replays only the suffix.
            assert_eq!(e.checkpoint().unwrap(), Some(4));
            assert_eq!(e.last_checkpoint_epoch(), Some(4));
            for seed in 5..=7u64 {
                insert_at(&mut e, Point2::new(10.0 + seed as f64, 5.0), 1.0, 8, seed);
            }
            world_digest(&e)
        };
        let r = IndoorEngine::recover_with(Arc::clone(&backend), EngineConfig::default(), opts)
            .unwrap();
        assert_eq!(world_digest(&r), digest);
        assert_eq!(r.epoch(), 7);
    }

    #[test]
    fn create_refuses_a_log_without_a_checkpoint() {
        use idq_storage::{MemBackend, SyncPolicy, Wal};
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        {
            let (mut wal, _) =
                Wal::open(Arc::clone(&backend), SyncPolicy::Always, 1 << 20).unwrap();
            wal.append_commit(1, &[vec![0u8; 4]]).unwrap();
        }
        let err = IndoorEngine::create_with(
            Arc::clone(&backend),
            three_rooms(),
            idq_objects::ObjectStore::new(),
            EngineConfig::default(),
            DurabilityOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Recovery { .. }), "{err}");
    }

    #[test]
    fn recovery_rejects_an_epoch_gap() {
        use idq_storage::MemBackend;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let opts = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        {
            let mut e = IndoorEngine::open_with(
                Arc::clone(&backend),
                three_rooms(),
                EngineConfig::default(),
                opts,
            )
            .unwrap();
            insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        }
        // Forge a record that skips an epoch.
        {
            use idq_storage::{SyncPolicy, Wal};
            let (mut wal, _) =
                Wal::open(Arc::clone(&backend), SyncPolicy::Always, 1 << 20).unwrap();
            wal.append_commit(9, &[wire::encode_batch(&[], &[])])
                .unwrap();
        }
        let err = IndoorEngine::recover_with(backend, EngineConfig::default(), opts).unwrap_err();
        match err {
            EngineError::Recovery { epoch, cause, .. } => {
                assert_eq!(epoch, 9);
                assert!(cause.to_string().contains("epoch gap"), "{cause}");
            }
            other => panic!("expected a recovery error, got {other}"),
        }
    }

    #[test]
    fn recovery_rejects_a_record_of_another_format_version() {
        use idq_storage::{MemBackend, SyncPolicy, Wal};
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let opts = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        let next = {
            let mut e = IndoorEngine::open_with(
                Arc::clone(&backend),
                three_rooms(),
                EngineConfig::default(),
                opts,
            )
            .unwrap();
            insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
            e.epoch() + 1
        };
        // Forge the next epoch's record with a wrong version byte.
        {
            let (mut wal, _) =
                Wal::open(Arc::clone(&backend), SyncPolicy::Always, 1 << 20).unwrap();
            let mut payload = wire::encode_batch(&[], &[]);
            payload[0] = wire::FORMAT - 1;
            wal.append_commit(next, &[payload]).unwrap();
        }
        let err = IndoorEngine::recover_with(backend, EngineConfig::default(), opts).unwrap_err();
        match err {
            EngineError::Recovery { epoch, cause, .. } => {
                assert_eq!(epoch, next);
                assert_eq!(
                    cause,
                    StorageError::Decode {
                        what: "wal format version",
                        offset: 0
                    }
                );
            }
            other => panic!("expected a recovery error, got {other}"),
        }
    }

    #[test]
    fn recovery_rejects_a_log_or_checkpoint_that_strands_an_object() {
        use idq_storage::{write_checkpoint, MemBackend, SyncPolicy, Wal};
        let space = three_rooms();
        let durable = |store: &ObjectStore, epoch: u64| {
            let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let payload = wire::encode_checkpoint(&space, store);
            write_checkpoint(&backend, epoch, &payload).unwrap();
            backend
        };
        let recover = |backend| {
            let options = DurabilityOptions::default();
            IndoorEngine::recover_with(backend, EngineConfig::default(), options).unwrap_err()
        };
        // A logged batch that inserts into a room, then deletes the room.
        let backend = durable(&ObjectStore::new(), 0);
        let room = space.partition_at(IndoorPoint::new(Point2::new(25.0, 5.0), 0));
        let batch = [
            Update::InsertObjectAt {
                center: Point2::new(25.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 2,
            },
            Update::DeletePartition(room.unwrap()),
        ];
        let payload = wire::encode_batch(&batch, &[ObjectId(0)]);
        let (mut wal, _) = Wal::open(Arc::clone(&backend), SyncPolicy::Always, 1 << 20).unwrap();
        wal.append_commit(1, &[payload]).unwrap();
        drop(wal);
        let err = recover(backend);
        assert!(
            matches!(err, EngineError::Recovery { epoch: 1, .. }),
            "{err}"
        );
        // A checkpoint whose store holds an instance outside the building.
        let mut store = ObjectStore::new();
        let stray = IndoorPoint::new(Point2::new(5.0, -1.0), 0);
        store
            .insert(UncertainObject::point_object(ObjectId(0), stray))
            .unwrap();
        let err = recover(durable(&store, 4));
        assert!(
            matches!(err, EngineError::Recovery { epoch: 4, .. }),
            "{err}"
        );
    }
}
