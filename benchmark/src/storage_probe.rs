//! A counting, timing [`StorageBackend`] wrapper: the storage layer seen
//! from outside. Passed to `IndoorEngine::create_with` / `recover_with`
//! on traced passes only; end-to-end passes run on the bare
//! [`FileBackend`].

use crate::trace;
use idq_storage::{FileBackend, LogFile, StorageBackend, StorageError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the wrapper counts.
#[derive(Clone, Copy, Debug)]
pub enum Counter {
    WalAppends,
    WalBytes,
    WalAppendNs,
    WalSyncs,
    WalSyncNs,
    /// Checkpoints published (`.tmp` renamed to `.ckpt`).
    Checkpoints,
    CheckpointBytes,
    /// Create of the `.tmp` to its rename, summed.
    CheckpointNs,
}

/// What the engine asked of storage since the counters were last taken.
#[derive(Debug, Default)]
pub struct StorageCounters([AtomicU64; 8]);

impl StorageCounters {
    fn add(&self, counter: Counter, amount: u64) {
        self.0[counter as usize].fetch_add(amount, Relaxed);
    }

    /// Reads every counter (indexed by [`Counter`]) and resets it.
    pub fn take(&self) -> [u64; 8] {
        std::array::from_fn(|i| self.0[i].swap(0, Relaxed))
    }
}

#[derive(Debug)]
pub struct ProbeBackend {
    inner: FileBackend,
    counters: Arc<StorageCounters>,
    /// Checkpoint `.tmp` files being written: start time and bytes so far.
    open_checkpoints: Arc<Mutex<HashMap<String, (Instant, u64)>>>,
}

impl ProbeBackend {
    pub fn new(inner: FileBackend, counters: Arc<StorageCounters>) -> Self {
        ProbeBackend {
            inner,
            counters,
            open_checkpoints: Arc::default(),
        }
    }

    fn wrap(&self, name: &str, file: Box<dyn LogFile>) -> Box<dyn LogFile> {
        let kind = if name.starts_with("wal-") {
            Kind::Wal
        } else if name.ends_with(".tmp") {
            self.open_checkpoints
                .lock()
                .expect("checkpoint table poisoned")
                .insert(name.to_string(), (Instant::now(), 0));
            Kind::Checkpoint(name.to_string())
        } else {
            Kind::Other
        };
        Box::new(ProbeFile {
            inner: file,
            kind,
            counters: Arc::clone(&self.counters),
            open_checkpoints: Arc::clone(&self.open_checkpoints),
        })
    }
}

impl StorageBackend for ProbeBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(self.wrap(name, self.inner.create(name)?))
    }

    fn open_at(&self, name: &str, len: u64) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(self.wrap(name, self.inner.open_at(name, len)?))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let _span = trace::span("storage.read");
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        let _span = trace::span("storage.checkpoint_publish");
        self.inner.rename(from, to)?;
        let started = self
            .open_checkpoints
            .lock()
            .expect("checkpoint table poisoned")
            .remove(from);
        if let Some((since, bytes)) = started {
            let c = &self.counters;
            c.add(Counter::Checkpoints, 1);
            c.add(Counter::CheckpointBytes, bytes);
            c.add(Counter::CheckpointNs, since.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

#[derive(Debug)]
enum Kind {
    Wal,
    Checkpoint(String),
    Other,
}

#[derive(Debug)]
struct ProbeFile {
    inner: Box<dyn LogFile>,
    kind: Kind,
    counters: Arc<StorageCounters>,
    open_checkpoints: Arc<Mutex<HashMap<String, (Instant, u64)>>>,
}

impl LogFile for ProbeFile {
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        match &self.kind {
            Kind::Wal => {
                let _span = trace::span("storage.wal_append");
                let t = Instant::now();
                let out = self.inner.append(data);
                let c = &self.counters;
                c.add(Counter::WalAppends, 1);
                c.add(Counter::WalBytes, data.len() as u64);
                c.add(Counter::WalAppendNs, t.elapsed().as_nanos() as u64);
                out
            }
            Kind::Checkpoint(name) => {
                let _span = trace::span("storage.checkpoint_write");
                let out = self.inner.append(data);
                if let Some(entry) = self
                    .open_checkpoints
                    .lock()
                    .expect("checkpoint table poisoned")
                    .get_mut(name)
                {
                    entry.1 += data.len() as u64;
                }
                out
            }
            Kind::Other => self.inner.append(data),
        }
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        match &self.kind {
            Kind::Wal => {
                let _span = trace::span("storage.wal_fsync");
                let t = Instant::now();
                let out = self.inner.sync();
                self.counters.add(Counter::WalSyncs, 1);
                self.counters
                    .add(Counter::WalSyncNs, t.elapsed().as_nanos() as u64);
                out
            }
            Kind::Checkpoint(_) => {
                let _span = trace::span("storage.checkpoint_fsync");
                self.inner.sync()
            }
            Kind::Other => self.inner.sync(),
        }
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}
