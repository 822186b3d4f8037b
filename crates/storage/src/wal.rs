//! The segmented append-only write-ahead log.
//!
//! ## On-disk format
//!
//! The log is a sequence of segment files named `wal-{seq:016x}.log`.
//! Each segment holds framed records:
//!
//! ```text
//! u32 payload_len | u32 crc32(len_le ++ epoch_le ++ payload) | u64 epoch | payload
//! ```
//!
//! The CRC covers the length field too, so a damaged `len` cannot send
//! the scanner to a bogus frame boundary that happens to re-validate.
//!
//! One record is one staged *batch*; a **commit group** is the run of
//! consecutive records sharing an epoch, appended by a single
//! [`Wal::append_commit`] call (the engine's group-commit window). Records
//! therefore appear in exactly `(epoch, offset_in_epoch)` order, which is
//! the order the replay oracle proves bit-exact.
//!
//! ## Sync policy
//!
//! | policy   | durability point                                    |
//! |----------|-----------------------------------------------------|
//! | `Always` | fsync after every record                            |
//! | `Group`  | one fsync per commit group (default)                |
//! | `Os`     | never fsync; the OS flushes when it pleases         |
//!
//! ## Recovery scan
//!
//! [`Wal::open`] reads every segment in sequence order. A malformed frame
//! in the *final* segment is a torn tail: the segment is truncated to the
//! last valid frame boundary and the bytes after it are discarded. A
//! malformed frame in any earlier segment is [`StorageError::Corrupt`] —
//! prior segments were sealed with their contents synced, so damage there
//! is real corruption, not an interrupted append. After the scan the torn
//! tail (if any) is physically truncated, all existing segments are
//! sealed, and appends continue in a fresh segment.
//!
//! A genuine torn tail is an interrupted *suffix*: nothing after the
//! tear point ever reached a durable frame boundary. So before the
//! final segment's malformed tail is written off as torn, the scanner
//! looks past the damage for a complete, CRC-valid frame. Finding one
//! means acknowledged records sit beyond the damage — that is
//! mid-segment corruption of fsynced data, and it fails recovery with
//! [`StorageError::Corrupt`] instead of silently discarding the
//! acknowledged commits after it. (Out-of-order writeback of a never-
//! synced suffix could in principle trip this too; we prefer a loud
//! recovery error over silently dropping possibly-acknowledged data.)

use std::sync::Arc;

use crate::backend::{LogFile, StorageBackend};
use crate::codec::Cursor;
use crate::error::StorageError;

/// When the WAL forces appended records to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record. Strongest, slowest.
    Always,
    /// One fsync per commit group, before the epoch swap publishes it.
    /// The default: a crash never loses an *acknowledged* commit.
    Group,
    /// Never fsync on the commit path; durability is whenever the OS
    /// writes back. A crash may lose a suffix of acknowledged commits
    /// (recovery still lands on a consistent earlier epoch).
    Os,
}

/// One recovered WAL record: a single staged batch within epoch `epoch`.
/// Records are returned in append order, so `offset_in_epoch` is implicit
/// in a record's position among those sharing its epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub epoch: u64,
    pub payload: Vec<u8>,
}

const FRAME_HEADER: usize = 4 + 4 + 8;

#[derive(Debug)]
struct SealedSegment {
    name: String,
    last_epoch: u64,
}

/// The open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    backend: Arc<dyn StorageBackend>,
    policy: SyncPolicy,
    segment_bytes: u64,
    sealed: Vec<SealedSegment>,
    active: Box<dyn LogFile>,
    active_name: String,
    active_last_epoch: Option<u64>,
    next_seq: u64,
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if rest.len() != 16 {
        return None;
    }
    u64::from_str_radix(rest, 16).ok()
}

/// Result of scanning one segment's bytes.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// Length of the valid prefix; `< data.len()` means a torn tail.
    valid_len: u64,
    /// Offset of a complete, CRC-valid frame found *past* the first
    /// malformed byte. `Some` means acknowledged records sit beyond the
    /// damage: mid-segment corruption, not an interrupted final append.
    intact_after: Option<u64>,
}

fn frame_crc(len: usize, epoch: u64, payload: &[u8]) -> u32 {
    let mut check = crate::codec::Crc32::new();
    check.update(&(len as u32).to_le_bytes());
    check.update(&epoch.to_le_bytes());
    check.update(payload);
    check.finish()
}

/// Parse the frame at `pos`, returning `(record, end_offset)` when it is
/// complete and CRC-valid.
fn parse_frame(data: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    if data.len() - pos < FRAME_HEADER {
        return None;
    }
    let mut c = Cursor::new(&data[pos..pos + FRAME_HEADER]);
    let len = c.take_u32("frame len").expect("header sized") as usize;
    let crc = c.take_u32("frame crc").expect("header sized");
    let epoch = c.take_u64("frame epoch").expect("header sized");
    let payload_start = pos + FRAME_HEADER;
    if data.len() - payload_start < len {
        return None; // incomplete payload
    }
    let payload = &data[payload_start..payload_start + len];
    if frame_crc(len, epoch, payload) != crc {
        return None; // partially-written or damaged frame
    }
    Some((
        WalRecord {
            epoch,
            payload: payload.to_vec(),
        },
        payload_start + len,
    ))
}

fn scan_segment(data: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((record, end)) = parse_frame(data, pos) {
        records.push(record);
        pos = end;
    }
    // The frame at `pos` failed; resync byte-by-byte past it looking for
    // a later frame that still validates (CRC collision odds ~2^-32 make
    // a false positive negligible). Only runs on damaged segments.
    let intact_after = (pos + 1..data.len())
        .find(|&at| parse_frame(data, at).is_some())
        .map(|at| at as u64);
    SegmentScan {
        records,
        valid_len: pos as u64,
        intact_after,
    }
}

fn encode_frame(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&frame_crc(payload.len(), epoch, payload).to_le_bytes());
    frame.extend_from_slice(&epoch.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

impl Wal {
    /// Open (or create) the log under `backend`, returning the WAL
    /// positioned for appends plus every durable record in
    /// `(epoch, offset_in_epoch)` order.
    ///
    /// Tolerates a torn tail in the final segment (truncates it);
    /// malformed bytes anywhere else are [`StorageError::Corrupt`].
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        policy: SyncPolicy,
        segment_bytes: u64,
    ) -> Result<(Wal, Vec<WalRecord>), StorageError> {
        let mut seqs: Vec<(u64, String)> = backend
            .list()?
            .into_iter()
            .filter_map(|name| parse_segment_name(&name).map(|seq| (seq, name)))
            .collect();
        seqs.sort_unstable();

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        let last_index = seqs.len().wrapping_sub(1);
        for (i, (_, name)) in seqs.iter().enumerate() {
            let data = backend.read(name)?;
            let scan = scan_segment(&data);
            let torn = scan.valid_len < data.len() as u64;
            if torn && i != last_index {
                return Err(StorageError::Corrupt {
                    path: name.clone(),
                    offset: scan.valid_len,
                    reason: "malformed frame in a sealed (non-final) segment".to_string(),
                });
            }
            if torn {
                // An intact frame past the damage means the malformed
                // bytes are not an interrupted final append — they sit in
                // front of data that did reach a durable frame boundary.
                // Truncating here would silently discard those records,
                // so surface corruption instead.
                if let Some(at) = scan.intact_after {
                    return Err(StorageError::Corrupt {
                        path: name.clone(),
                        offset: scan.valid_len,
                        reason: format!(
                            "malformed frame followed by an intact frame at byte {at}: \
                             mid-segment corruption, not a torn tail"
                        ),
                    });
                }
                // Physically discard the torn tail so a later crash cannot
                // resurrect ambiguous bytes.
                let mut file = backend.open_at(name, scan.valid_len)?;
                file.sync()?;
            }
            match scan.records.last() {
                Some(last) => sealed.push(SealedSegment {
                    name: name.clone(),
                    last_epoch: last.epoch,
                }),
                None => backend.delete(name)?,
            }
            records.extend(scan.records);
        }

        let next_seq = seqs.last().map(|(seq, _)| seq + 1).unwrap_or(0);
        let active_name = segment_name(next_seq);
        let active = backend.create(&active_name)?;
        Ok((
            Wal {
                backend,
                policy,
                segment_bytes,
                sealed,
                active,
                active_name,
                active_last_epoch: None,
                next_seq: next_seq + 1,
            },
            records,
        ))
    }

    /// Append one commit group: every batch payload of `epoch`, in
    /// `offset_in_epoch` order. Applies the sync policy, then rotates the
    /// segment if it outgrew `segment_bytes` (rotation happens only at
    /// group boundaries, so a group never spans segments).
    pub fn append_commit(&mut self, epoch: u64, payloads: &[Vec<u8>]) -> Result<(), StorageError> {
        for payload in payloads {
            let frame = encode_frame(epoch, payload);
            self.active.append(&frame)?;
            if self.policy == SyncPolicy::Always {
                self.active.sync()?;
            }
        }
        if self.policy == SyncPolicy::Group {
            self.active.sync()?;
        }
        self.active_last_epoch = Some(epoch);
        if self.active.len() >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        // Seal the active segment: its contents must be durable before the
        // sealed invariant (torn bytes there = corruption) can hold.
        self.active.sync()?;
        let name = segment_name(self.next_seq);
        let file = self.backend.create(&name)?;
        let old = std::mem::replace(&mut self.active, file);
        drop(old);
        if let Some(last_epoch) = self.active_last_epoch.take() {
            self.sealed.push(SealedSegment {
                name: std::mem::replace(&mut self.active_name, name),
                last_epoch,
            });
        } else {
            // Empty segment: nothing to recover from it.
            let stale = std::mem::replace(&mut self.active_name, name);
            self.backend.delete(&stale)?;
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Force everything appended so far durable regardless of policy
    /// (shutdown flush for `Group`/`Os`).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.active.sync()
    }

    /// Drop sealed segments whose every record is covered by a checkpoint
    /// at `epoch` (i.e. `last_epoch <= epoch`). The active segment is
    /// never deleted.
    pub fn truncate_below(&mut self, epoch: u64) -> Result<(), StorageError> {
        let mut kept = Vec::new();
        for seg in self.sealed.drain(..) {
            if seg.last_epoch <= epoch {
                self.backend.delete(&seg.name)?;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
        Ok(())
    }

    /// Epoch of the newest record this WAL holds (0 when empty) — error
    /// context for flush failures.
    pub fn last_epoch(&self) -> u64 {
        self.active_last_epoch
            .or_else(|| self.sealed.last().map(|s| s.last_epoch))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBackend;

    fn payloads(items: &[&[u8]]) -> Vec<Vec<u8>> {
        items.iter().map(|p| p.to_vec()).collect()
    }

    fn open_mem(
        backend: &MemBackend,
        policy: SyncPolicy,
        segment_bytes: u64,
    ) -> (Wal, Vec<WalRecord>) {
        Wal::open(Arc::new(backend.clone()), policy, segment_bytes).unwrap()
    }

    /// Corrupts one durable byte of `name`, rewriting the file through the
    /// backend.
    fn flip_byte(backend: &MemBackend, name: &str, offset: usize) {
        let mut data = backend.read(name).unwrap();
        data[offset] ^= 0xFF;
        let mut f = backend.create(name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn round_trip_groups_in_order() {
        let b = MemBackend::new();
        let (mut wal, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        assert!(recs.is_empty());
        wal.append_commit(1, &payloads(&[b"a0", b"a1"])).unwrap();
        wal.append_commit(2, &payloads(&[b"b0"])).unwrap();
        drop(wal);
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        let got: Vec<(u64, &[u8])> = recs
            .iter()
            .map(|r| (r.epoch, r.payload.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, b"a0".as_slice()),
                (1, b"a1".as_slice()),
                (2, b"b0".as_slice())
            ]
        );
    }

    #[test]
    fn group_policy_loses_unsynced_group_on_crash() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Os, 1 << 20);
        wal.append_commit(1, &payloads(&[b"durable"])).unwrap();
        wal.sync().unwrap();
        wal.append_commit(2, &payloads(&[b"volatile"])).unwrap();
        let crashed = b.crashed();
        let (_, recs) = open_mem(&crashed, SyncPolicy::Os, 1 << 20);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].epoch, 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_survives_reopen() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        wal.append_commit(1, &payloads(&[b"keep"])).unwrap();
        drop(wal);
        // Simulate a partial append: frame header bytes with no payload.
        let name = segment_name(0);
        let mut f = b
            .open_at(&name, b.read(&name).unwrap().len() as u64)
            .unwrap();
        f.append(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        f.sync().unwrap();
        drop(f);
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"keep");
        // The torn bytes are physically gone: a second reopen parses clean.
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn mid_segment_len_damage_in_active_segment_is_corruption() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        wal.append_commit(1, &payloads(&[b"first"])).unwrap();
        wal.append_commit(2, &payloads(&[b"second"])).unwrap();
        drop(wal);
        // Flip a bit in the *len* field of the first frame. The intact
        // second frame proves this is corruption of acknowledged data,
        // not a torn tail — truncating would silently drop epoch 2.
        flip_byte(&b, &segment_name(0), 0);
        let err = Wal::open(Arc::new(b), SyncPolicy::Group, 1 << 20).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn mid_segment_payload_damage_in_active_segment_is_corruption() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        wal.append_commit(1, &payloads(&[b"first"])).unwrap();
        wal.append_commit(2, &payloads(&[b"second"])).unwrap();
        drop(wal);
        flip_byte(&b, &segment_name(0), FRAME_HEADER); // first frame's payload
        let err = Wal::open(Arc::new(b), SyncPolicy::Group, 1 << 20).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn damage_in_the_final_frame_is_still_a_torn_tail() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        wal.append_commit(1, &payloads(&[b"keep"])).unwrap();
        wal.append_commit(2, &payloads(&[b"last"])).unwrap();
        drop(wal);
        // Damage the *last* frame's payload: no intact frame follows, so
        // this parses as an interrupted append and truncates to epoch 1.
        let name = segment_name(0);
        let len = b.read(&name).unwrap().len();
        flip_byte(&b, &name, len - 1);
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        let epochs: Vec<u64> = recs.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1]);
    }

    #[test]
    fn corrupt_sealed_segment_is_an_error() {
        let b = MemBackend::new();
        // Tiny segment cap: every group seals its own segment.
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1);
        wal.append_commit(1, &payloads(&[b"one"])).unwrap();
        wal.append_commit(2, &payloads(&[b"two"])).unwrap();
        drop(wal);
        flip_byte(&b, &segment_name(0), FRAME_HEADER); // damage payload of sealed segment
        let err = Wal::open(Arc::new(b), SyncPolicy::Group, 1).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn truncate_below_deletes_covered_segments_only() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1);
        for epoch in 1..=4u64 {
            wal.append_commit(epoch, &payloads(&[b"x"])).unwrap();
        }
        let files = |b: &MemBackend| b.list().unwrap().len();
        let before = files(&b);
        wal.truncate_below(2).unwrap();
        assert_eq!(files(&b), before - 2);
        drop(wal);
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        let epochs: Vec<u64> = recs.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![3, 4]);
    }

    #[test]
    fn always_policy_is_durable_per_record() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Always, 1 << 20);
        wal.append_commit(1, &payloads(&[b"r0", b"r1"])).unwrap();
        let crashed = b.crashed();
        let (_, recs) = open_mem(&crashed, SyncPolicy::Always, 1 << 20);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn empty_payload_and_large_group_round_trip() {
        let b = MemBackend::new();
        let (mut wal, _) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        let group: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        wal.append_commit(7, &group).unwrap();
        wal.append_commit(8, &payloads(&[b""])).unwrap();
        drop(wal);
        let (_, recs) = open_mem(&b, SyncPolicy::Group, 1 << 20);
        assert_eq!(recs.len(), 101);
        assert!(recs[100].payload.is_empty());
    }
}
