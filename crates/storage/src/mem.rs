//! The in-memory test backend with byte-accurate crash simulation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::backend::{LogFile, StorageBackend};
use crate::error::StorageError;

#[derive(Debug, Clone)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable: everything past this offset is lost by
    /// [`MemBackend::crashed`].
    synced: usize,
}

/// An in-memory [`StorageBackend`] that tracks, per file, how many bytes
/// have been made durable via [`LogFile::sync`].
///
/// Cloning shares the underlying store (the handle is an `Arc`), so a test
/// can keep a handle while the engine owns another. [`MemBackend::crashed`]
/// returns an *independent* deep copy in which every file is truncated to
/// its synced length — the exact state a power loss would leave on disk.
///
/// Metadata operations (`create`, `rename`, `delete`) are modeled as
/// immediately durable, mirroring [`FileBackend`](crate::FileBackend)'s
/// directory syncs; data bytes are durable only up to the last `sync`.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: Arc<Mutex<BTreeMap<String, MemFile>>>,
    label: String,
}

impl MemBackend {
    pub fn new() -> Self {
        MemBackend {
            files: Arc::new(Mutex::new(BTreeMap::new())),
            label: "mem".to_string(),
        }
    }

    /// Simulate a crash: an independent backend whose files contain only
    /// their durable (synced) prefixes.
    pub fn crashed(&self) -> MemBackend {
        let files = self.files.lock().expect("mem backend poisoned");
        let survivors: BTreeMap<String, MemFile> = files
            .iter()
            .map(|(name, f)| {
                (
                    name.clone(),
                    MemFile {
                        data: f.data[..f.synced].to_vec(),
                        synced: f.synced,
                    },
                )
            })
            .collect();
        MemBackend {
            files: Arc::new(Mutex::new(survivors)),
            label: format!("{}+crashed", self.label),
        }
    }

    /// Total bytes currently held (synced or not) — handy for asserting a
    /// checkpoint actually truncated the log.
    pub fn total_bytes(&self) -> usize {
        let files = self.files.lock().expect("mem backend poisoned");
        files.values().map(|f| f.data.len()).sum()
    }
}

#[derive(Debug)]
struct MemLogFile {
    files: Arc<Mutex<BTreeMap<String, MemFile>>>,
    name: String,
    len: u64,
}

impl MemLogFile {
    fn with_file<T>(
        &self,
        op: &'static str,
        f: impl FnOnce(&mut MemFile) -> T,
    ) -> Result<T, StorageError> {
        let mut files = self.files.lock().expect("mem backend poisoned");
        match files.get_mut(&self.name) {
            Some(file) => Ok(f(file)),
            None => Err(StorageError::Io {
                op,
                path: self.name.clone(),
                message: "file no longer exists".to_string(),
            }),
        }
    }
}

impl LogFile for MemLogFile {
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.with_file("append", |f| f.data.extend_from_slice(data))?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.with_file("sync", |f| f.synced = f.data.len())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl StorageBackend for MemBackend {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        let mut files = self.files.lock().expect("mem backend poisoned");
        files.insert(
            name.to_string(),
            MemFile {
                data: Vec::new(),
                synced: 0,
            },
        );
        Ok(Box::new(MemLogFile {
            files: Arc::clone(&self.files),
            name: name.to_string(),
            len: 0,
        }))
    }

    fn open_at(&self, name: &str, len: u64) -> Result<Box<dyn LogFile>, StorageError> {
        let mut files = self.files.lock().expect("mem backend poisoned");
        let file = files.get_mut(name).ok_or_else(|| StorageError::Io {
            op: "open",
            path: name.to_string(),
            message: "no such file".to_string(),
        })?;
        let len_usize = usize::try_from(len).expect("mem file length");
        if len_usize > file.data.len() {
            return Err(StorageError::Io {
                op: "truncate",
                path: name.to_string(),
                message: format!("cannot extend to {len} (have {})", file.data.len()),
            });
        }
        file.data.truncate(len_usize);
        file.synced = file.synced.min(len_usize);
        Ok(Box::new(MemLogFile {
            files: Arc::clone(&self.files),
            name: name.to_string(),
            len,
        }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let files = self.files.lock().expect("mem backend poisoned");
        files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| StorageError::Io {
                op: "read",
                path: name.to_string(),
                message: "no such file".to_string(),
            })
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let files = self.files.lock().expect("mem backend poisoned");
        Ok(files.keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock().expect("mem backend poisoned");
        files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::Io {
                op: "delete",
                path: name.to_string(),
                message: "no such file".to_string(),
            })
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        let mut files = self.files.lock().expect("mem backend poisoned");
        let file = files.remove(from).ok_or_else(|| StorageError::Io {
            op: "rename",
            path: from.to_string(),
            message: "no such file".to_string(),
        })?;
        files.insert(to.to_string(), file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_drops_unsynced_suffix() {
        let b = MemBackend::new();
        let mut f = b.create("a.log").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" lost").unwrap();
        let crashed = b.crashed();
        assert_eq!(crashed.read("a.log").unwrap(), b"durable");
        // The original is untouched.
        assert_eq!(b.read("a.log").unwrap(), b"durable lost");
    }

    #[test]
    fn crash_is_independent_of_original() {
        let b = MemBackend::new();
        let mut f = b.create("a.log").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        let crashed = b.crashed();
        f.append(b"y").unwrap();
        f.sync().unwrap();
        assert_eq!(crashed.read("a.log").unwrap(), b"x");
    }

    #[test]
    fn open_at_truncates_and_clamps_synced() {
        let b = MemBackend::new();
        let mut f = b.create("a.log").unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut f = b.open_at("a.log", 4).unwrap();
        f.append(b"AB").unwrap();
        assert_eq!(b.read("a.log").unwrap(), b"0123AB");
        // Only the surviving prefix counts as synced until the next sync.
        assert_eq!(b.crashed().read("a.log").unwrap(), b"0123");
    }

    #[test]
    fn rename_keeps_durable_bytes() {
        let b = MemBackend::new();
        let mut f = b.create("x.tmp").unwrap();
        f.append(b"snapshot").unwrap();
        f.sync().unwrap();
        drop(f);
        b.rename("x.tmp", "x.ckpt").unwrap();
        assert_eq!(b.crashed().read("x.ckpt").unwrap(), b"snapshot");
    }
}
