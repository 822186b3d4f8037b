//! Bounded per-subscription mailboxes with coalesce-on-full
//! backpressure.
//!
//! The dispatcher pushes one [`DeltaMsg`] per routed commit; consumers
//! drain from the other end. The queue is **bounded**: when a consumer
//! falls behind by more than the mailbox capacity, the incoming message
//! is *coalesced* into the newest queued one — membership changes
//! compose (an `Entered` followed by a `Left` cancels, and vice versa),
//! the epoch, ranking and payload advance to the newest commit, and the
//! merged message is marked [`DeltaMsg::lagged`]. The consumer's view
//! stays exact (applying the merged changes yields the same result set
//! as applying both originals) but it observably skipped intermediate
//! epochs — the explicit lag marker standing-query consumers can act on.
//! The dispatcher therefore never blocks and never buffers more than
//! `capacity` messages per subscription.

use idq_objects::ObjectId;
use idq_query::MonitorChange;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// One routed delivery: the membership changes a commit caused for one
/// subscription, with the payload the serving engine attached (the
/// commit's receipt).
#[derive(Clone, Debug)]
pub struct DeltaMsg<R> {
    /// Epoch of the commit this message reflects (the newest coalesced
    /// commit when `lagged`).
    pub epoch: u64,
    /// Membership changes relative to the subscription's previous state,
    /// ascending by object id; only `Entered` / `Left` appear.
    pub changes: Vec<(ObjectId, MonitorChange)>,
    /// For kNN subscriptions: the full ranked top-k after this commit,
    /// ascending `(distance, id)`. `None` for range subscriptions.
    pub ranked: Option<Vec<(ObjectId, f64)>>,
    /// The consumer fell behind and this message coalesces two or more
    /// commits: intermediate epochs were skipped (their net membership
    /// effect is folded into `changes`).
    pub lagged: bool,
    /// Engine-attached payload of the (newest) commit.
    pub payload: R,
}

impl<R> DeltaMsg<R> {
    /// Folds a newer message into this one (coalescing): changes compose
    /// per object — opposite changes cancel, a change on a fresh object
    /// survives — and everything else advances to the newer commit.
    fn absorb(&mut self, newer: DeltaMsg<R>) {
        let mut map: BTreeMap<ObjectId, MonitorChange> = self.changes.drain(..).collect();
        for (id, change) in newer.changes {
            match map.entry(id) {
                Entry::Occupied(slot) => {
                    // Within one subscription's stream the only legal
                    // successor of `Entered` is `Left` and vice versa:
                    // the pair nets out to no change at all.
                    debug_assert_ne!(*slot.get(), change, "changes must alternate per object");
                    slot.remove();
                }
                Entry::Vacant(slot) => {
                    slot.insert(change);
                }
            }
        }
        self.changes = map.into_iter().collect();
        self.epoch = newer.epoch;
        self.ranked = newer.ranked;
        self.payload = newer.payload;
        self.lagged = true;
    }
}

/// What happened to a pushed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// Queued as its own message.
    Delivered,
    /// The mailbox was full: folded into the newest queued message,
    /// which is now marked lagged.
    Coalesced,
    /// The mailbox is closed; the message was dropped.
    Closed,
}

#[derive(Debug)]
struct MailboxState<R> {
    queue: VecDeque<DeltaMsg<R>>,
    closed: bool,
}

/// The sender side: a bounded queue the dispatcher pushes routed
/// deliveries into. Create with [`Mailbox::channel`]; the paired
/// [`MailboxReceiver`] drains it.
#[derive(Debug)]
pub(crate) struct Mailbox<R> {
    state: Mutex<MailboxState<R>>,
    ready: Condvar,
    capacity: usize,
}

impl<R> Mailbox<R> {
    /// Creates a mailbox bounded to `capacity` queued messages (min 1)
    /// and its receiver. `closed` starts the stream already ended (a
    /// subscription registered after writer retirement).
    pub(crate) fn channel(capacity: usize, closed: bool) -> (Arc<Mailbox<R>>, MailboxReceiver<R>) {
        let mailbox = Arc::new(Mailbox {
            state: Mutex::new(MailboxState {
                queue: VecDeque::new(),
                closed,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        });
        let receiver = MailboxReceiver {
            mailbox: Arc::clone(&mailbox),
        };
        (mailbox, receiver)
    }

    /// Pushes one delivery, coalescing into the newest queued message
    /// when full. Never blocks.
    pub(crate) fn push(&self, msg: DeltaMsg<R>) -> PushOutcome {
        let mut state = self.state.lock().expect("mailbox lock");
        if state.closed {
            return PushOutcome::Closed;
        }
        if state.queue.len() >= self.capacity {
            state
                .queue
                .back_mut()
                .expect("capacity >= 1, full queue is non-empty")
                .absorb(msg);
            PushOutcome::Coalesced
        } else {
            state.queue.push_back(msg);
            self.ready.notify_all();
            PushOutcome::Delivered
        }
    }

    /// Ends the stream: queued messages stay drainable, blocked `recv`s
    /// wake, further pushes drop.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("mailbox lock");
        state.closed = true;
        self.ready.notify_all();
    }
}

/// The consumer side of a `Mailbox`.
#[derive(Debug)]
pub struct MailboxReceiver<R> {
    mailbox: Arc<Mailbox<R>>,
}

impl<R> MailboxReceiver<R> {
    /// Takes the next queued delivery without blocking.
    pub fn try_recv(&self) -> Option<DeltaMsg<R>> {
        self.mailbox
            .state
            .lock()
            .expect("mailbox lock")
            .queue
            .pop_front()
    }

    /// Blocks until a delivery arrives or the stream ends; `None` means
    /// closed **and** drained — nothing will ever arrive again.
    pub fn recv(&self) -> Option<DeltaMsg<R>> {
        let mut state = self.mailbox.state.lock().expect("mailbox lock");
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state = self.mailbox.ready.wait(state).expect("mailbox lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(epoch: u64, changes: &[(u64, MonitorChange)]) -> DeltaMsg<u64> {
        DeltaMsg {
            epoch,
            changes: changes.iter().map(|&(id, c)| (ObjectId(id), c)).collect(),
            ranked: None,
            lagged: false,
            payload: epoch,
        }
    }

    #[test]
    fn bounded_push_coalesces_and_marks_lag() {
        let (tx, rx) = Mailbox::channel(2, false);
        use MonitorChange::{Entered, Left};
        assert_eq!(tx.push(msg(1, &[(1, Entered)])), PushOutcome::Delivered);
        assert_eq!(tx.push(msg(2, &[(2, Entered)])), PushOutcome::Delivered);
        // Full: epochs 3 and 4 fold into the epoch-2 message. Object 2
        // enters at 2 and leaves at 3 — both inside the merged message,
        // so the pair cancels; object 3's enter (3) and leave (4)
        // cancel too; only object 4's enter survives.
        assert_eq!(
            tx.push(msg(3, &[(2, Left), (3, Entered)])),
            PushOutcome::Coalesced
        );
        assert_eq!(
            tx.push(msg(4, &[(3, Left), (4, Entered)])),
            PushOutcome::Coalesced
        );

        let first = rx.try_recv().expect("first message intact");
        assert_eq!(first.epoch, 1);
        assert!(!first.lagged);
        let merged = rx.try_recv().expect("merged message");
        assert_eq!(
            merged.epoch, 4,
            "coalesced message reports the newest epoch"
        );
        assert!(merged.lagged);
        assert_eq!(merged.payload, 4, "payload advances with the epoch");
        assert_eq!(
            merged.changes,
            vec![(ObjectId(4), Entered)],
            "cancelled pairs vanish, net changes survive"
        );
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn close_wakes_and_finishes_after_drain() {
        let (tx, rx) = Mailbox::channel(4, false);
        tx.push(msg(1, &[]));
        tx.close();
        assert_eq!(rx.recv().expect("drains the backlog").epoch, 1);
        assert!(rx.recv().is_none(), "closed and drained");
        assert_eq!(tx.push(msg(2, &[])), PushOutcome::Closed);
    }

    #[test]
    fn pre_closed_channel_ends_immediately() {
        let (tx, rx) = Mailbox::<u64>::channel(4, true);
        assert_eq!(tx.push(msg(1, &[])), PushOutcome::Closed);
        assert!(rx.recv().is_none());
    }
}
