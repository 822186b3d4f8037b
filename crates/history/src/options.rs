//! Retention knobs and observability counters.

/// Bounds and cadence of the history ring.
///
/// Retention is bounded **twice**: by epoch count and by approximate
/// bytes. Whichever bound is hit first drives eviction, and eviction is
/// at **keyframe-group granularity** — the ring always starts at a
/// keyframe (deltas are useless without their base), so the oldest
/// retained epoch moves forward one keyframe group at a time, and the
/// effective epoch bound can overshoot `max_epochs` by up to
/// `keyframe_every - 1`. The newest keyframe group is never evicted.
#[derive(Clone, Copy, Debug)]
pub struct HistoryOptions {
    /// Retained epochs before eviction starts (≥ 1).
    pub max_epochs: usize,
    /// Approximate retained bytes — delta payloads, keyframe pins and
    /// trajectory segments, estimated from instance counts, not measured
    /// allocations — before eviction starts.
    pub max_bytes: usize,
    /// Keyframe cadence: a full pinned snapshot every this many epochs
    /// (≥ 1). Topology commits force a keyframe regardless (a delta
    /// cannot replay a rewired space). Smaller values reconstruct faster
    /// and evict at finer granularity; larger values retain longer per
    /// byte.
    pub keyframe_every: u64,
}

impl Default for HistoryOptions {
    fn default() -> Self {
        HistoryOptions {
            max_epochs: 1024,
            max_bytes: 512 << 20,
            keyframe_every: 64,
        }
    }
}

/// A point-in-time summary of the ring (`HistoryRecorder::stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistoryStats {
    /// Oldest retained (reconstructable) epoch.
    pub oldest: u64,
    /// Newest absorbed epoch.
    pub(crate) newest: u64,
    /// Retained epoch count (`newest - oldest + 1`).
    pub retained_epochs: usize,
    /// Keyframes among the retained records.
    pub keyframes: usize,
    /// Approximate retained bytes (same estimate eviction uses).
    pub approx_bytes: usize,
    /// Epochs evicted so far.
    pub evicted_epochs: u64,
    /// Closed presence segments in the `(x, y, time)` trajectory store.
    pub(crate) segments: usize,
    /// Open segments (objects resting at their current position).
    pub(crate) open_tracks: usize,
}
