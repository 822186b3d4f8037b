//! Durability tier for the indoor-dq MVCC service.
//!
//! This crate is deliberately a *leaf*: it knows nothing about buildings,
//! objects, or queries. It provides the four durability primitives the
//! engine composes:
//!
//! - [`StorageBackend`] — a pluggable, thread-safe blob-file namespace
//!   ([`FileBackend`] on a real filesystem, [`MemBackend`] for tests with
//!   byte-accurate crash simulation via [`MemBackend::crashed`]).
//! - `codec` — hand-rolled little-endian primitives, the sequence /
//!   option / enum-tag combinators, and CRC32. The payload format built
//!   on them is specified in one place, `idq_core::wire`.
//! - [`Wal`] — a segmented append-only log of commit groups with a
//!   configurable [`SyncPolicy`], torn-tail tolerant scanning, and prefix
//!   truncation once a checkpoint covers the segments.
//! - `checkpoint` — atomically-published full-state snapshots
//!   (tmp + sync + rename) with CRC validation and fallback to the
//!   newest older checkpoint when the latest is damaged.
//!
//! The durable-write contract the engine relies on: a commit group's
//! records are appended (and synced, per policy) *before* the epoch swap
//! publishes the group, so every state an observer has seen is
//! reconstructible from checkpoint + log suffix.

#![warn(unreachable_pub)]

mod backend;
mod checkpoint;
mod codec;
mod error;
mod file;
mod mem;
mod wal;

pub use backend::{LogFile, StorageBackend};
pub use checkpoint::{latest_checkpoint, write_checkpoint, Checkpoint};
pub use codec::{
    crc32, put_bool, put_f64, put_opt, put_seq, put_str, put_tag, put_u32, put_u64, put_u8,
    put_usize, Cursor,
};
pub use error::StorageError;
pub use file::FileBackend;
pub use mem::MemBackend;
pub use wal::{SyncPolicy, Wal, WalRecord};
