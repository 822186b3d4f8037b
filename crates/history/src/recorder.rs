//! The recorder: the retention consumer of the engine's commit feed.
//!
//! The commit path never blocks on history: the sequencer only enqueues
//! a [`CommitRecord`] into the [`CommitFeed`] that
//! [`IndoorEngine::attach_retention`] hands out. All real retention work
//! (track maintenance, delta capture, eviction) happens on the
//! recorder's own thread, `idq-history`, which drains that feed. Records
//! arrive in strictly increasing epoch order because the sequencer
//! enqueues in its serial commit section, so the ring never needs
//! reordering.
//!
//! [`CommitRecord`]: idq_core::CommitRecord

use crate::error::HistoryError;
use crate::options::{HistoryOptions, HistoryStats};
use crate::ring::Ring;
use crate::session::HistorySession;
use idq_core::{CommitFeed, IndoorEngine, IndoorService};
use std::sync::{Arc, Mutex};
use std::thread;

/// Owns the history ring and the worker thread that feeds it from the
/// engine's commit stream.
///
/// Attach one per engine with [`HistoryRecorder::attach`] **before
/// spawning concurrent writers** — the recorder baselines on a snapshot
/// taken right after attaching, and commits racing the attach are
/// covered by that baseline keyframe. Dropping the recorder stops the
/// worker; the engine keeps committing (its feed, detached, discards).
#[derive(Debug)]
pub struct HistoryRecorder {
    ring: Arc<Mutex<Ring>>,
    feed: CommitFeed,
    /// Where [`HistoryRecorder::sync`] reads the published epoch.
    service: IndoorService,
    worker: Option<thread::JoinHandle<()>>,
}

impl HistoryRecorder {
    /// Attaches retention to `engine` and starts the worker thread.
    ///
    /// Fails with [`HistoryError::AlreadyAttached`] if the engine already
    /// has a retention consumer (at most one recorder per engine, for its
    /// whole life).
    pub fn attach(engine: &IndoorEngine, options: HistoryOptions) -> Result<Self, HistoryError> {
        // Take the feed FIRST, then the baseline snapshot: any commit
        // after the attach lands in the feed, and absorb() discards
        // queued epochs the baseline already covers. The other order
        // would lose commits between snapshot and attach.
        let feed = engine
            .attach_retention()
            .ok_or(HistoryError::AlreadyAttached)?;
        let baseline = engine.snapshot();
        let wall_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut ring = Ring::new(options);
        ring.init_baseline(baseline, wall_ms);
        let ring = Arc::new(Mutex::new(ring));

        let worker = thread::Builder::new()
            .name("idq-history".into())
            .spawn({
                let ring = Arc::clone(&ring);
                let feed = feed.clone();
                move || Self::run(&ring, &feed)
            })
            .expect("spawn history worker");
        Ok(HistoryRecorder {
            ring,
            feed,
            service: engine.service(),
            worker: Some(worker),
        })
    }

    fn run(ring: &Mutex<Ring>, feed: &CommitFeed) {
        while let Some(record) = feed.next() {
            let epoch = record.epoch;
            ring.lock().unwrap().absorb(record);
            feed.done(epoch);
        }
        feed.detach();
    }

    /// Blocks until every commit the engine has published so far has been
    /// absorbed into the ring — call before opening a session that must
    /// see an epoch the engine just committed.
    pub fn sync(&self) {
        self.feed.wait_for(self.service.epoch());
    }

    /// A consistent read view over the retained window (snapshots the
    /// ring; later commits don't move the session's window). Does not
    /// [`HistoryRecorder::sync`] first.
    pub fn session(&self) -> HistorySession {
        HistorySession::from_ring(&self.ring.lock().unwrap())
    }

    /// Current retention counters.
    pub fn stats(&self) -> HistoryStats {
        self.ring.lock().unwrap().stats()
    }
}

impl Drop for HistoryRecorder {
    fn drop(&mut self) {
        self.feed.detach();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
