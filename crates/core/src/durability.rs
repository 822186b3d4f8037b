//! The engine's durability layer: WAL group logging, background epoch
//! checkpoints, and the shutdown flush.
//!
//! A durable engine threads every commit group through the crate-private
//! `Durability` handle **before** the sequencer publishes the epoch swap: the group's batches
//! are serialized ([`crate::wire::encode_batch`]) and appended to the
//! write-ahead log as one record per batch, all stamped with the group's
//! epoch, and the configured [`SyncPolicy`] decides when the bytes are
//! forced to stable storage. Only after the append succeeds does the
//! group publish — so a recovered engine never exposes an epoch the log
//! does not fully cover, and a crash between append and publish merely
//! recovers *ahead* of what the dying process acknowledged (a documented
//! one-way discrepancy; the reverse — acknowledged but lost — cannot
//! happen under `always`/`group` sync).
//!
//! Checkpoints run on a background worker thread: the committing writer
//! hands it a pinned [`EngineState`] `Arc` (MVCC's immutable versions
//! make "snapshot while writers proceed" free — the worker encodes from
//! a version nothing will ever mutate), and the worker streams the
//! encoded space + store (with its id watermark) to the backend, publishes
//! the checkpoint atomically, then truncates every log segment the
//! checkpoint made redundant. Writers never wait: the only shared state
//! the worker touches is the WAL mutex, briefly, for the truncation.
//!
//! A durability failure is **fail-stop**: the failing group reports
//! [`EngineError::Storage`] to every batch in it, does not publish, and
//! *permanently poisons* the attachment — every later commit fails with
//! the same error. The latch is load-bearing, not just tidy semantics: a
//! failed append (ENOSPC, EIO, a failed fsync whose bytes still reach
//! disk through the page cache) may have left records of the
//! never-published epoch in the log, and because the epoch did not move,
//! a retried commit would append the *same* epoch again. Recovery groups
//! consecutive same-epoch records into one atomic batch, so it would
//! replay updates that were reported as failed to clients. Once poisoned,
//! no later group can reuse the epoch, and recovery replays at most the
//! failed group's own (unacknowledged) residue — the documented
//! recover-*ahead* discrepancy, never divergence. A background checkpoint
//! failure latches the same way and surfaces on the next commit.

use crate::error::EngineError;
use crate::state::EngineState;
use idq_storage::{latest_checkpoint, write_checkpoint, StorageBackend, SyncPolicy, Wal};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Configuration of a durable engine's storage behaviour.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// When WAL appends are forced to stable storage. The default,
    /// [`SyncPolicy::Group`], syncs once per commit group — group commit
    /// amortizes the fsync exactly like it amortizes the epoch swap.
    pub sync: SyncPolicy,
    /// Epochs between background checkpoints (a checkpoint is considered
    /// due when the committed epoch is at least this far past the last
    /// checkpointed one). `0` disables automatic checkpoints — the log
    /// grows until [`crate::IndoorEngine::checkpoint`] is called.
    pub checkpoint_every: u64,
    /// Size at which the WAL rotates to a fresh segment file. Rotation
    /// happens only at group boundaries; smaller segments mean finer
    /// truncation granularity after checkpoints.
    pub segment_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Group,
            checkpoint_every: 1024,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// State shared between the committing writers and the checkpoint worker.
#[derive(Debug)]
struct DurabilityCore {
    backend: Arc<dyn StorageBackend>,
    wal: Mutex<Wal>,
    /// Epoch of the newest durable checkpoint.
    last_checkpoint: AtomicU64,
    /// A background checkpoint is in flight (at most one at a time).
    inflight: AtomicBool,
    /// Serializes [`DurabilityCore::checkpoint_state`] across the worker
    /// and blocking callers, so two checkpointers never stream the same
    /// `.tmp` or interleave publish/GC.
    checkpoint_lock: Mutex<()>,
    /// The durability failure that fail-stopped this engine, if any.
    /// Latched permanently: a failed WAL append may have left records of
    /// the never-published epoch in the log, so no later commit may run
    /// (it would reuse that epoch and recovery would replay the failed
    /// group). Every subsequent [`Durability::log_group`] returns a clone.
    poisoned: Mutex<Option<EngineError>>,
}

impl DurabilityCore {
    fn storage_error(&self, epoch: u64, cause: idq_storage::StorageError) -> EngineError {
        EngineError::Storage {
            path: self.backend.label(),
            epoch,
            cause,
        }
    }

    /// Writes one checkpoint of `state` and truncates the log prefix it
    /// covers. Runs on the worker thread *and* on blocking
    /// [`Durability::checkpoint_now`] callers; `checkpoint_lock`
    /// serializes the two (they could otherwise stream the same-epoch
    /// `.tmp` concurrently, or one's post-publish GC could delete the
    /// other's in-flight `.tmp` and fail its rename). Blocking a
    /// checkpoint caller on an in-flight checkpoint never blocks
    /// committing writers.
    fn checkpoint_state(&self, state: &EngineState) -> Result<u64, EngineError> {
        let _serialize = self.checkpoint_lock.lock().expect("checkpoint lock");
        let epoch = state.epoch;
        let payload = state.encode_checkpoint();
        write_checkpoint(&self.backend, epoch, &payload)
            .map_err(|e| self.storage_error(epoch, e))?;
        self.last_checkpoint.fetch_max(epoch, Ordering::SeqCst);
        // Everything at or below the checkpointed epoch is now redundant;
        // drop the sealed segments it fully covers. Failure here loses
        // nothing but disk space.
        self.wal
            .lock()
            .expect("wal lock")
            .truncate_below(epoch)
            .map_err(|e| self.storage_error(epoch, e))?;
        Ok(epoch)
    }
}

/// The engine's durability attachment: owns the WAL and the checkpoint
/// worker. Lives in the service's `Shared` once attached; dropped (worker
/// joined) when the last handle on the engine goes away.
#[derive(Debug)]
pub(crate) struct Durability {
    core: Arc<DurabilityCore>,
    options: DurabilityOptions,
    /// Hand-off to the checkpoint worker; dropping it stops the worker.
    tx: Option<mpsc::Sender<Arc<EngineState>>>,
    worker: Option<JoinHandle<()>>,
}

impl Durability {
    /// Opens the WAL on `backend` and starts the checkpoint worker.
    /// Returns the durability attachment plus the decoded log records that
    /// survived (epoch-ordered, torn tail already truncated) for the
    /// caller to replay.
    pub(crate) fn open(
        backend: Arc<dyn StorageBackend>,
        options: DurabilityOptions,
        checkpoint_epoch: u64,
    ) -> Result<(Self, Vec<idq_storage::WalRecord>), EngineError> {
        let label = backend.label();
        let (wal, records) = Wal::open(Arc::clone(&backend), options.sync, options.segment_bytes)
            .map_err(|cause| EngineError::Recovery {
            path: label,
            epoch: checkpoint_epoch,
            cause,
        })?;
        let core = Arc::new(DurabilityCore {
            backend,
            wal: Mutex::new(wal),
            last_checkpoint: AtomicU64::new(checkpoint_epoch),
            inflight: AtomicBool::new(false),
            checkpoint_lock: Mutex::new(()),
            poisoned: Mutex::new(None),
        });
        let (tx, rx) = mpsc::channel::<Arc<EngineState>>();
        let worker_core = Arc::clone(&core);
        let worker = std::thread::Builder::new()
            .name("idq-checkpoint".into())
            .spawn(move || {
                while let Ok(state) = rx.recv() {
                    if let Err(e) = worker_core.checkpoint_state(&state) {
                        // First failure wins; latch it permanently.
                        worker_core
                            .poisoned
                            .lock()
                            .expect("poison lock")
                            .get_or_insert(e);
                    }
                    worker_core.inflight.store(false, Ordering::SeqCst);
                }
            })
            .expect("spawn checkpoint worker");
        Ok((
            Durability {
                core,
                options,
                tx: Some(tx),
                worker: Some(worker),
            },
            records,
        ))
    }

    /// Appends one commit group — one encoded record per batch, all under
    /// `epoch` — durably per the sync policy. Called by the sequencer
    /// leader **before** publishing the epoch; an error means the group
    /// must not publish. Fail-stop: the first failure (an append here, or
    /// a background checkpoint) poisons the attachment permanently and
    /// every later group fails with it — a failed append may have left
    /// this epoch's records in the log, so letting a later group reuse
    /// the epoch would make recovery replay the failed group.
    pub(crate) fn log_group(&self, epoch: u64, payloads: &[Vec<u8>]) -> Result<(), EngineError> {
        let mut poisoned = self.core.poisoned.lock().expect("poison lock");
        if let Some(e) = poisoned.as_ref() {
            return Err(e.clone());
        }
        let result = self
            .core
            .wal
            .lock()
            .expect("wal lock")
            .append_commit(epoch, payloads)
            .map_err(|e| self.core.storage_error(epoch, e));
        if let Err(e) = &result {
            *poisoned = Some(e.clone());
        }
        result
    }

    /// Hands `state` to the background worker when a checkpoint is due
    /// and none is in flight. Never blocks the committing writer.
    pub(crate) fn maybe_checkpoint(&self, state: &Arc<EngineState>) {
        if self.options.checkpoint_every == 0 {
            return;
        }
        let last = self.core.last_checkpoint.load(Ordering::SeqCst);
        if state.epoch.saturating_sub(last) < self.options.checkpoint_every {
            return;
        }
        if self.core.inflight.swap(true, Ordering::SeqCst) {
            return; // one at a time
        }
        let sent = self
            .tx
            .as_ref()
            .map(|tx| tx.send(Arc::clone(state)).is_ok())
            .unwrap_or(false);
        if !sent {
            self.core.inflight.store(false, Ordering::SeqCst);
        }
    }

    /// Writes a checkpoint of `state` synchronously (blocking the
    /// caller, not concurrent writers) and returns its epoch.
    pub(crate) fn checkpoint_now(&self, state: &EngineState) -> Result<u64, EngineError> {
        self.core.checkpoint_state(state)
    }

    /// Epoch of the newest durable checkpoint.
    pub(crate) fn last_checkpoint_epoch(&self) -> u64 {
        self.core.last_checkpoint.load(Ordering::SeqCst)
    }

    /// Forces every appended record to stable storage — the shutdown
    /// flush (makes `SyncPolicy::Os` logs durable up to the last commit).
    pub(crate) fn flush(&self) -> Result<(), EngineError> {
        let mut wal = self.core.wal.lock().expect("wal lock");
        let epoch = wal.last_epoch();
        wal.sync().map_err(|e| self.core.storage_error(epoch, e))
    }

    /// The backend this engine persists to.
    pub(crate) fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.core.backend
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Closing the channel ends the worker loop; join so an in-flight
        // checkpoint finishes (or fails into the poison latch, where it
        // is now moot) before the backend handle drops.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Loads the newest valid checkpoint from `backend`, failing with
/// [`EngineError::Recovery`] when none exists or none validates.
pub(crate) fn load_checkpoint(
    backend: &Arc<dyn StorageBackend>,
) -> Result<idq_storage::Checkpoint, EngineError> {
    match latest_checkpoint(backend) {
        Ok(Some(ckpt)) => Ok(ckpt),
        Ok(None) => Err(EngineError::Recovery {
            path: backend.label(),
            epoch: 0,
            cause: idq_storage::StorageError::NoCheckpoint {
                path: backend.label(),
            },
        }),
        Err(cause) => Err(EngineError::Recovery {
            path: backend.label(),
            epoch: 0,
            cause,
        }),
    }
}

/// Whether `backend` holds any durable engine state (checkpoint files) —
/// the create-vs-recover dispatch of [`crate::IndoorEngine::open`].
pub(crate) fn has_durable_state(backend: &Arc<dyn StorageBackend>) -> bool {
    matches!(latest_checkpoint(backend), Ok(Some(_)))
}
