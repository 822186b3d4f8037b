//! The commit feed: the one queue a published epoch leaves the write path
//! through.
//!
//! Every commit group fans out, right after it publishes, to the
//! engine's post-publish consumers — standing-query dispatch (see
//! [`crate::service`]) and history retention (`idq-history`'s
//! `HistoryRecorder`, attached via
//! [`crate::IndoorEngine::attach_retention`]). Each consumer owns one
//! [`CommitFeed`]: an unbounded FIFO of [`CommitRecord`]s — the group's
//! merged [`UpdateReport`], a [`Snapshot`] pinned to the freshly
//! published version, the index the group was applied to, and a
//! wall-clock stamp — plus an epoch watermark of what the consumer has
//! finished with.
//!
//! Only the sequencer leader can enqueue (the push/close side is
//! crate-private), and enqueueing is a mutex push and a condvar notify,
//! so the commit path never waits on consumer work by construction.
//! Records arrive in strictly increasing epoch order, exactly one per
//! committed epoch from the attach point on. Each queued record pins its
//! commit's version, and the index before it, until the consumer is done
//! with it.
//!
//! The consumer side is a loop over [`CommitFeed::next`], acknowledging
//! each record with [`CommitFeed::done`] once it is fully absorbed, and
//! a final [`CommitFeed::detach`]. [`CommitFeed::wait_for`] is the
//! barrier anyone may wait on: it returns once the consumer has
//! acknowledged the given epoch — or has gone away.

use crate::snapshot::Snapshot;
use crate::update::UpdateReport;
use idq_index::CompositeIndex;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One committed epoch as a post-publish consumer observes it: the merged
/// commit-group report (net delta over the whole group), a snapshot pinned
/// to the published version, the index the group was applied to, and the
/// stamps that order it in time.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// The epoch this commit published (strictly increasing, one record
    /// per committed epoch).
    pub epoch: u64,
    /// Wall-clock stamp of the publish, milliseconds since the Unix
    /// epoch (0 if the system clock is unreadable). Epochs, not wall
    /// time, are the engine's logical clock — this is metadata for
    /// presenting trajectories, never for ordering.
    pub wall_ms: u64,
    /// The commit group's merged report: concatenated outcomes, the net
    /// [`crate::UpdateDelta`] and union stats. Shared between every
    /// consumer of the commit (and, through
    /// [`crate::Notification::report`], every notified subscription).
    pub report: Arc<UpdateReport>,
    /// A snapshot pinned to the version this commit published. Holding it
    /// keeps the version alive; consumers that retain only deltas should
    /// drop it once the record is absorbed.
    pub snapshot: Snapshot,
    /// The index the commit group was applied to, at epoch `epoch - 1`.
    /// The delta's ids say *what* changed; this index and `snapshot` say
    /// where each changed object was before and after, which is all the
    /// standing-query dispatcher routes on.
    pub before: Arc<CompositeIndex>,
}

/// Where a feed's one consumer is in its life. Pushes are queued only
/// while it is `Attached`, and only then is there anything to wait for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Consumer {
    /// [`CommitFeed::attach`] has not been called yet.
    #[default]
    Never,
    /// Draining the queue.
    Attached,
    /// Detached; the consumer end is never handed out again.
    Gone,
}

#[derive(Debug, Default)]
struct FeedState {
    queue: VecDeque<CommitRecord>,
    /// The write side retired: nothing will ever be pushed again.
    closed: bool,
    consumer: Consumer,
    /// The watermark: every epoch up to this one needs no more waiting —
    /// acknowledged by the consumer, or published with none attached.
    done: u64,
}

#[derive(Debug, Default)]
struct FeedInner {
    state: Mutex<FeedState>,
    /// Signals the consumer (new record, close, detach) and barrier
    /// waiters (watermark moved, consumer gone).
    moved: Condvar,
}

/// One consumer's queue of committed epochs; see the `feed` module docs.
///
/// Clones share the queue: the engine keeps one to push into, the
/// consumer's worker thread drains another, and barrier callers wait on
/// a third.
#[derive(Clone, Debug, Default)]
pub struct CommitFeed {
    inner: Arc<FeedInner>,
}

impl CommitFeed {
    fn state(&self) -> MutexGuard<'_, FeedState> {
        self.inner.state.lock().expect("commit feed lock")
    }

    /// Hands out the consumer end — once; `None` ever after. `published`
    /// is the engine's epoch as the caller last read it: commits up to it
    /// predate the consumer and are folded into the watermark so a
    /// barrier has nothing phantom to wait for. (A commit racing the
    /// attach is either discarded by [`CommitFeed::push`], which advances
    /// the watermark itself, or queued — never lost to both.)
    pub(crate) fn attach(&self, published: u64) -> Option<CommitFeed> {
        let mut s = self.state();
        if s.consumer != Consumer::Never {
            return None;
        }
        s.consumer = Consumer::Attached;
        s.done = s.done.max(published);
        Some(self.clone())
    }

    /// Enqueues one committed epoch for the consumer (a clone of two
    /// `Arc`s), or discards it when none is attached. Never blocks beyond
    /// the queue mutex.
    pub(crate) fn push(&self, record: &CommitRecord) {
        let mut s = self.state();
        if s.consumer != Consumer::Attached {
            s.done = s.done.max(record.epoch);
            return;
        }
        s.queue.push_back(record.clone());
        self.inner.moved.notify_all();
    }

    /// The write side is done: [`CommitFeed::next`] returns `None` once
    /// the backlog is drained.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.inner.moved.notify_all();
    }

    /// Blocks until the next committed epoch arrives. `None` once the
    /// write side has retired **and** the backlog is drained, or after
    /// [`CommitFeed::detach`].
    pub fn next(&self) -> Option<CommitRecord> {
        let mut s = self.state();
        loop {
            if let Some(record) = s.queue.pop_front() {
                return Some(record);
            }
            if s.closed || s.consumer != Consumer::Attached {
                return None;
            }
            s = self.inner.moved.wait(s).expect("commit feed lock");
        }
    }

    /// Acknowledges that the record of `epoch` (and, records being
    /// consumed in order, every earlier one) is fully absorbed: barriers
    /// waiting for it return.
    pub fn done(&self, epoch: u64) {
        let mut s = self.state();
        if epoch > s.done {
            s.done = epoch;
            self.inner.moved.notify_all();
        }
    }

    /// The consumer is going away (worker exiting, owner dropped): the
    /// backlog is released, later pushes are discarded, a blocked
    /// [`CommitFeed::next`] returns `None` and every barrier wakes.
    /// Idempotent.
    pub fn detach(&self) {
        let backlog = {
            let mut s = self.state();
            s.consumer = Consumer::Gone;
            std::mem::take(&mut s.queue)
        };
        self.inner.moved.notify_all();
        // Pinned versions are released outside the lock.
        drop(backlog);
    }

    /// The barrier: blocks until the consumer has acknowledged `epoch`,
    /// or no consumer is attached (never attached, or detached — there
    /// is nothing left to wait for).
    pub fn wait_for(&self, epoch: u64) {
        let mut s = self.state();
        while s.consumer == Consumer::Attached && s.done < epoch {
            s = self.inner.moved.wait(s).expect("commit feed lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{UpdateDelta, UpdateStats};
    use crate::{EngineConfig, IndoorEngine};
    use idq_geom::Rect2;
    use idq_model::FloorPlanBuilder;
    use std::sync::mpsc;

    /// Records for epochs `1..=n`, all pinning one empty engine's version.
    fn records(n: u64) -> Vec<CommitRecord> {
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
        let snapshot = engine.snapshot();
        let before = Arc::clone(&snapshot.state().index);
        (1..=n)
            .map(|epoch| CommitRecord {
                epoch,
                wall_ms: 0,
                report: Arc::new(UpdateReport {
                    outcomes: Vec::new(),
                    delta: UpdateDelta::default(),
                    epoch,
                    offset_in_epoch: 0,
                    stats: UpdateStats::default(),
                }),
                snapshot: snapshot.clone(),
                before: Arc::clone(&before),
            })
            .collect()
    }

    #[test]
    fn records_arrive_in_push_order_and_attach_is_once() {
        let feed = CommitFeed::default();
        let consumer = feed.attach(0).expect("first attach");
        assert!(
            feed.attach(0).is_none(),
            "the consumer end is handed out once"
        );
        for record in &records(3) {
            feed.push(record);
        }
        let epochs: Vec<u64> = (0..3).map(|_| consumer.next().unwrap().epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
    }

    #[test]
    fn close_drains_the_backlog_before_ending_the_stream() {
        let feed = CommitFeed::default();
        let consumer = feed.attach(0).unwrap();
        let records = records(3);
        feed.push(&records[0]);
        feed.push(&records[1]);
        feed.close();
        assert_eq!(consumer.next().map(|r| r.epoch), Some(1));
        assert_eq!(consumer.next().map(|r| r.epoch), Some(2));
        assert!(consumer.next().is_none(), "closed and drained");
        assert!(consumer.next().is_none(), "and stays ended");
    }

    #[test]
    fn barrier_waits_for_the_acknowledgement_not_the_pop() {
        let feed = CommitFeed::default();
        let consumer = feed.attach(0).unwrap();
        feed.push(&records(1)[0]);
        let record = consumer.next().unwrap();
        // Popped but un-acknowledged: the queue is already empty when the
        // waiter starts, yet the barrier must hold. A correct barrier can
        // only return through `done` or `detach`, so the timeout never
        // fails a correct feed; one that watched the queue would return
        // at once.
        let (returned_tx, returned_rx) = mpsc::channel();
        let waiter = std::thread::spawn({
            let feed = feed.clone();
            move || {
                feed.wait_for(1);
                returned_tx.send(()).unwrap();
            }
        });
        assert!(returned_rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        consumer.done(record.epoch);
        returned_rx.recv().expect("barrier released by the ack");
        waiter.join().unwrap();
    }

    #[test]
    fn commits_before_the_attach_are_not_waited_for() {
        let feed = CommitFeed::default();
        let records = records(2);
        // Nobody attached: discarded, and never a reason to wait.
        feed.push(&records[0]);
        feed.wait_for(1);
        let consumer = feed.attach(1).unwrap();
        feed.wait_for(1);
        feed.push(&records[1]);
        assert_eq!(consumer.next().map(|r| r.epoch), Some(2));
    }

    #[test]
    fn pushes_after_detach_are_discarded() {
        let feed = CommitFeed::default();
        let consumer = feed.attach(0).unwrap();
        let records = records(2);
        feed.push(&records[0]);
        consumer.detach();
        feed.push(&records[1]);
        assert!(consumer.next().is_none(), "backlog released, stream over");
        assert!(feed.state().queue.is_empty());
        feed.wait_for(2);
    }

    #[test]
    fn waiters_and_a_blocked_consumer_wake_on_detach() {
        let feed = CommitFeed::default();
        let consumer = feed.attach(0).unwrap();
        let waiter = std::thread::spawn({
            let feed = feed.clone();
            move || feed.wait_for(7)
        });
        let blocked = std::thread::spawn({
            let consumer = consumer.clone();
            move || consumer.next().map(|r| r.epoch)
        });
        // Epoch 7 never arrives; only the consumer's exit can end both.
        consumer.detach();
        waiter.join().unwrap();
        assert_eq!(blocked.join().unwrap(), None);
    }
}
