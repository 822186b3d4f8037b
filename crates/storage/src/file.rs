//! The real-filesystem backend.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use crate::backend::{LogFile, StorageBackend};
use crate::error::StorageError;

/// A [`StorageBackend`] over one directory on the local filesystem.
///
/// Files are created inside `root` (created on open if missing). `sync`
/// maps to `File::sync_data`; `rename` maps to `fs::rename` followed by a
/// best-effort fsync of the directory so the rename itself is durable on
/// filesystems that require it.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
}

impl FileBackend {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| StorageError::io("create_dir_all", &root.display().to_string(), &e))?;
        Ok(FileBackend { root })
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io(&self, op: &'static str, name: &str, err: &std::io::Error) -> StorageError {
        StorageError::io(op, &self.path_of(name).display().to_string(), err)
    }

    fn sync_dir(&self) {
        // Durability of renames/creates needs the directory entry flushed.
        // Best-effort: not every platform lets you fsync a directory.
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

#[derive(Debug)]
struct FsLogFile {
    file: File,
    path: String,
    len: u64,
}

impl LogFile for FsLogFile {
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.file
            .write_all(data)
            .map_err(|e| StorageError::io("append", &self.path, &e))?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("sync", &self.path, &e))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl StorageBackend for FileBackend {
    fn label(&self) -> String {
        self.root.display().to_string()
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        let path = self.path_of(name);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| self.io("create", name, &e))?;
        self.sync_dir();
        Ok(Box::new(FsLogFile {
            file,
            path: path.display().to_string(),
            len: 0,
        }))
    }

    fn open_at(&self, name: &str, len: u64) -> Result<Box<dyn LogFile>, StorageError> {
        let path = self.path_of(name);
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| self.io("open", name, &e))?;
        file.set_len(len)
            .map_err(|e| self.io("truncate", name, &e))?;
        // Make the truncation durable before new appends land after it.
        file.sync_data().map_err(|e| self.io("sync", name, &e))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::Start(len))
            .map_err(|e| self.io("seek", name, &e))?;
        Ok(Box::new(FsLogFile {
            file,
            path: path.display().to_string(),
            len,
        }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        fs::read(self.path_of(name)).map_err(|e| self.io("read", name, &e))
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let entries = fs::read_dir(&self.root)
            .map_err(|e| StorageError::io("read_dir", &self.root.display().to_string(), &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| StorageError::io("read_dir", &self.root.display().to_string(), &e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        fs::remove_file(self.path_of(name)).map_err(|e| self.io("delete", name, &e))?;
        self.sync_dir();
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        fs::rename(self.path_of(from), self.path_of(to))
            .map_err(|e| self.io("rename", from, &e))?;
        self.sync_dir();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("idq-storage-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn create_append_read_round_trip() {
        let root = temp_root("rt");
        let b = FileBackend::open(&root).unwrap();
        let mut f = b.create("a.log").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len(), 11);
        drop(f);
        assert_eq!(b.read("a.log").unwrap(), b"hello world");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_at_truncates_tail() {
        let root = temp_root("trunc");
        let b = FileBackend::open(&root).unwrap();
        let mut f = b.create("a.log").unwrap();
        f.append(b"hello world").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut f = b.open_at("a.log", 5).unwrap();
        assert_eq!(f.len(), 5);
        f.append(b"!").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(b.read("a.log").unwrap(), b"hello!");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn list_rename_delete() {
        let root = temp_root("ops");
        let b = FileBackend::open(&root).unwrap();
        let mut f = b.create("x.tmp").unwrap();
        f.append(b"payload").unwrap();
        f.sync().unwrap();
        drop(f);
        b.rename("x.tmp", "x.ckpt").unwrap();
        let names = b.list().unwrap();
        assert_eq!(names, vec!["x.ckpt".to_string()]);
        b.delete("x.ckpt").unwrap();
        assert!(b.list().unwrap().is_empty());
        assert!(b.delete("x.ckpt").is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
