//! The concurrent service surface: [`IndoorService`] read/subscribe
//! handles and [`Subscription`] standing queries, served by a
//! query-indexed dispatcher.
//!
//! Writes arrive through the [`crate::IndoorEngine`] and its cloned
//! [`crate::WriteHandle`]s (all sequenced into one total commit order —
//! see [`crate::write`]); any number of [`IndoorService`] clones (cheap,
//! `Send + Sync`) hand out version-pinned [`crate::Snapshot`]s to reader
//! threads and register standing-query subscriptions.
//!
//! Standing queries scale through *routing*, not broadcast. A committing
//! write publishes its new [`EngineState`] with one brief write-lock on
//! the current-version cell, then hands the commit's merged
//! [`UpdateReport`] (plus the index before the commit and a snapshot
//! after it) to a single **dispatch thread** via its
//! [`crate::feed::CommitFeed`] — the sequencer never waits on subscription
//! work. The dispatch thread looks up where each object the
//! [`crate::update::UpdateDelta`] names was before the commit and is
//! after it, intersects those partitions against an
//! [`idq_dispatch::Dispatcher`] query index over every subscription's
//! candidate partitions, absorbs the delta into exactly the affected
//! monitors, and pushes precomputed per-subscription [`Notification`]s
//! into bounded mailboxes. Subscriptions whose footprint is disjoint are
//! skipped with zero per-subscription work, which is what lets one
//! engine serve 100k+ standing queries without a thread or a full report
//! scan per subscription. A consumer that falls behind its mailbox
//! capacity gets consecutive commits coalesced into one notification
//! marked [`Notification::lagged`] — bounded memory per subscription,
//! and the writer is never blocked by a slow consumer.
//!
//! The write side is reference-counted: subscriptions see their stream
//! end when the engine and every write handle have dropped.

use crate::durability::Durability;
use crate::error::EngineError;
use crate::feed::{CommitFeed, CommitRecord};
use crate::snapshot::Snapshot;
use crate::state::EngineState;
use crate::update::UpdateReport;
use idq_dispatch::{
    CommitDelta, DeltaMsg, DispatchStats, Dispatcher, MailboxReceiver, StandingMonitor, SubId,
};
use idq_objects::ObjectId;
use idq_query::{KnnMonitor, MonitorChange, Outcome, Query, QueryOptions, RangeMonitor};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, RwLock};

/// Default bound of a subscription's notification mailbox; consumers
/// further behind than this see coalesced, [`Notification::lagged`]
/// deliveries. See [`IndoorService::subscribe_bounded`] to choose.
///
/// The bound is what idle subscribers cost the fleet: each queued
/// notification holds ~0.25 KiB, so 10 000 subscriptions that are never
/// polled retain at most 10k × 32 × ~0.25 KiB ≈ 80 MiB, and 100 000 about
/// 0.8 GiB. Callers who want a deeper backlog pass their own bound.
pub(crate) const DEFAULT_MAILBOX_CAPACITY: usize = 32;

// ---- shared service state -------------------------------------------------

/// The state shared between the writing [`crate::IndoorEngine`] and every
/// [`IndoorService`] / [`Subscription`] handle.
///
/// Every lock here is a leaf (never held while taking another), except
/// that subscribing reads `current` under the `dispatcher` lock.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The current committed version. Writers hold the write lock only for
    /// the pointer swap; readers only for an `Arc` clone — never across
    /// query evaluation.
    current: RwLock<Arc<EngineState>>,
    /// Live write handles (the engine's bootstrap handle plus every
    /// clone). The stream of commits provably ends when this hits zero.
    writers: Mutex<usize>,
    /// The query index over every live subscription. Locked by the
    /// dispatch thread per commit and briefly by subscribe/drop; never by
    /// the committing writer.
    dispatcher: Mutex<Dispatcher<Arc<UpdateReport>>>,
    /// The dispatch thread's commit feed (the thread is spawned lazily by
    /// the first subscription; until then pushes are discarded).
    dispatch_feed: CommitFeed,
    /// The commit feed of the retention consumer attached via
    /// [`crate::IndoorEngine::attach_retention`], if any.
    retention_feed: CommitFeed,
    /// The engine's durability attachment (WAL + checkpoint worker), set
    /// once — *after* recovery replay, so replayed commits are not
    /// re-logged — and read lock-free by every committing leader.
    durability: std::sync::OnceLock<Durability>,
}

impl Shared {
    pub(crate) fn new(state: Arc<EngineState>) -> Self {
        Shared {
            current: RwLock::new(state),
            // The engine's bootstrap write handle.
            writers: Mutex::new(1),
            dispatcher: Mutex::new(Dispatcher::new()),
            dispatch_feed: CommitFeed::default(),
            retention_feed: CommitFeed::default(),
            durability: std::sync::OnceLock::new(),
        }
    }

    /// Attaches the durability layer (once, at engine construction —
    /// after any recovery replay, so replayed commits are never
    /// re-logged). Commits from this point on log through it before
    /// publishing.
    pub(crate) fn attach_durability(&self, durability: Durability) {
        if self.durability.set(durability).is_err() {
            unreachable!("durability is attached exactly once, at construction");
        }
    }

    /// The durability attachment, if this engine is durable.
    pub(crate) fn durability(&self) -> Option<&Durability> {
        self.durability.get()
    }

    /// Hands out the consumer end of the retention feed (at most once;
    /// `None` when a consumer already took it — unlike durability,
    /// retention is attached by user code, so the race is reportable, not
    /// a bug).
    pub(crate) fn attach_retention(&self) -> Option<CommitFeed> {
        self.retention_feed.attach(self.current().epoch)
    }

    /// The current committed version (an `Arc` clone under a brief read
    /// lock).
    pub(crate) fn current(&self) -> Arc<EngineState> {
        Arc::clone(&self.current.read().expect("current-version lock"))
    }

    /// Publishes a committed version: the epoch-stamped atomic swap.
    pub(crate) fn publish(&self, state: Arc<EngineState>) {
        *self.current.write().expect("current-version lock") = state;
    }

    /// Every post-publish consumer's feed.
    fn feeds(&self) -> [&CommitFeed; 2] {
        [&self.dispatch_feed, &self.retention_feed]
    }

    /// Hands a committed epoch to every attached consumer. Called by the
    /// sequencer leader *after* [`Shared::publish`]; enqueue-only, so the
    /// sequencer never waits on routing, absorption or retention work.
    pub(crate) fn fan_out(&self, record: &CommitRecord) {
        for feed in self.feeds() {
            feed.push(record);
        }
    }

    /// Spawns the dispatch thread on first use. After writer retirement
    /// the feed is already closed, so the thread's whole life is closing
    /// the dispatcher — late registrations see an ended stream.
    fn ensure_dispatch_thread(self: &Arc<Self>) {
        let Some(feed) = self.dispatch_feed.attach(self.current().epoch) else {
            // The thread owns stream lifecycle from here on — including
            // close_all once the retired writer's backlog is drained.
            return;
        };
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("idq-dispatch".into())
            .spawn(move || dispatch_loop(shared, feed))
            .expect("spawn dispatch thread");
    }

    /// Blocks until the dispatch thread has routed every commit published
    /// before the call (immediately when no subscription ever existed).
    pub(crate) fn quiesce(&self) {
        self.dispatch_feed.wait_for(self.current().epoch);
    }

    /// Accounts for a cloned [`crate::WriteHandle`].
    pub(crate) fn add_writer(&self) {
        let mut writers = self.writers.lock().expect("writer count lock");
        debug_assert!(
            *writers > 0,
            "write handles only clone from live write handles"
        );
        *writers += 1;
    }

    /// Releases one write handle; the last release retires the write side:
    /// every commit feed closes, so the dispatch thread routes the
    /// remaining backlog, ends every subscription stream (blocked
    /// `wait()`s return `None`) and exits, the retention consumer drains
    /// and parks, and the service becomes read-only on the final version.
    /// Never takes the dispatcher lock (the dispatch thread holds it for
    /// long stretches).
    pub(crate) fn release_writer(&self) {
        {
            let mut writers = self.writers.lock().expect("writer count lock");
            *writers = writers.saturating_sub(1);
            if *writers > 0 {
                return;
            }
        }
        // Durable shutdown: with the last writer gone the sequencer is
        // provably drained (every committing thread holds a handle), so
        // one final WAL sync makes the whole committed history durable —
        // this is what upgrades `SyncPolicy::Os` to lose-nothing on clean
        // shutdown. Failure is unreportable here (no caller); recovery
        // still sees every synced prefix.
        if let Some(durability) = self.durability() {
            let _ = durability.flush();
        }
        for feed in self.feeds() {
            feed.close();
        }
    }
}

/// The dispatch thread: takes committed epochs in publish order, routes
/// each through the query index, and on shutdown (writer retired, feed
/// drained) ends every subscription stream.
fn dispatch_loop(shared: Arc<Shared>, feed: CommitFeed) {
    while let Some(CommitRecord {
        epoch,
        report,
        snapshot,
        before,
        ..
    }) = feed.next()
    {
        {
            let mut dispatcher = shared.dispatcher.lock().expect("dispatcher lock");
            let updated = report.delta.updated();
            let delta = CommitDelta {
                epoch,
                updated: &updated,
                removed: &report.delta.removed,
                topology_changed: report.delta.topology_changed,
                before: &before,
            };
            dispatcher.dispatch(
                &delta,
                snapshot.space(),
                snapshot.index(),
                snapshot.store(),
                &report,
            );
        }
        feed.done(epoch);
    }
    shared
        .dispatcher
        .lock()
        .expect("dispatcher lock")
        .close_all();
    feed.detach();
}

// ---- service handle -------------------------------------------------------

/// A cloneable, thread-safe handle to a served engine: version-pinned
/// snapshots, query sessions and standing-query subscriptions.
///
/// Obtain one from [`crate::IndoorEngine::service`] and clone it freely
/// across threads; the handle stays valid after the engine is dropped
/// (snapshots keep working on the last committed version; subscriptions
/// drain and report the end of the stream).
///
/// ```
/// use idq_core::{EngineConfig, IndoorEngine, Update};
/// use idq_geom::{Point2, Rect2};
/// use idq_model::{FloorPlanBuilder, IndoorPoint};
/// use idq_query::Query;
///
/// let mut b = FloorPlanBuilder::new(4.0);
/// let a = b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
/// let c = b.add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0)).unwrap();
/// b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
/// let mut engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
/// let service = engine.service();
///
/// // Reader threads execute sessions on pinned versions while the writer
/// // keeps committing.
/// let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
/// let reader = std::thread::spawn({
///     let service = service.clone();
///     move || service.execute(&Query::Range { q, r: 30.0 }).unwrap()
/// });
/// engine
///     .apply(Update::InsertObjectAt {
///         center: Point2::new(15.0, 5.0), floor: 0, radius: 1.0, instances: 8, seed: 7,
///     })
///     .unwrap();
/// reader.join().unwrap();
/// assert_eq!(service.snapshot().version(), engine.epoch());
/// ```
#[derive(Clone)]
pub struct IndoorService {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for IndoorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndoorService")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl IndoorService {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        IndoorService { shared }
    }

    /// The epoch of the latest committed version.
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// A snapshot pinned to the latest committed version, with the
    /// engine's configured query options.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_state(self.shared.current())
    }

    /// Evaluates one typed [`Query`] on a fresh snapshot of the latest
    /// version.
    pub fn execute(&self, query: &Query) -> Result<Outcome, EngineError> {
        self.snapshot().execute(query)
    }

    /// Registers a standing query with the serving engine's configured
    /// query options: its results always match what a fresh query on a
    /// [`IndoorService::snapshot`] of the same epoch would return.
    ///
    /// Supported query kinds:
    ///
    /// | Kind | Standing form | Maintenance |
    /// |---|---|---|
    /// | [`Query::Range`] | continuous `iRQ(q, r)` | incremental per updated object ([`RangeMonitor`]) |
    /// | [`Query::Knn`] | continuous `ikNNQ(q, k)` | a range monitor at a kept radius, re-queried when fewer than `k` remain within it ([`KnnMonitor`]) |
    /// | [`Query::Distance`] | — | [`EngineError::UnsupportedSubscription`] |
    /// | [`Query::Path`] | — | [`EngineError::UnsupportedSubscription`] |
    ///
    /// Point-to-point distance and path queries have no object-dependent
    /// result to maintain incrementally — re-run them on a
    /// [`IndoorService::snapshot`] when the topology changes.
    pub fn subscribe(&self, query: Query) -> Result<Subscription, EngineError> {
        self.subscribe_inner(query, None, DEFAULT_MAILBOX_CAPACITY)
    }

    /// Registers a standing query with explicit query options (ablations,
    /// a tighter slack…): evaluates it once on the latest committed
    /// version (the [`Subscription::initial`] result) and has every
    /// subsequent commit that can affect it routed to it, so the
    /// subscription stays current without re-running the query. See
    /// [`IndoorService::subscribe`] for the supported query kinds.
    pub fn subscribe_with(
        &self,
        query: Query,
        options: QueryOptions,
    ) -> Result<Subscription, EngineError> {
        self.subscribe_inner(query, Some(options), DEFAULT_MAILBOX_CAPACITY)
    }

    /// [`IndoorService::subscribe`] with an explicit mailbox bound. A
    /// consumer more than `capacity` notifications behind gets newer
    /// commits coalesced into one [`Notification::lagged`] delivery —
    /// memory stays bounded and the dispatcher never blocks on it.
    pub fn subscribe_bounded(
        &self,
        query: Query,
        capacity: usize,
    ) -> Result<Subscription, EngineError> {
        self.subscribe_inner(query, None, capacity)
    }

    /// Routing counters of the dispatch layer (deliveries, proven skips,
    /// coalesced lag deliveries…). Zeros until the first subscription.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.shared
            .dispatcher
            .lock()
            .expect("dispatcher lock")
            .stats()
    }

    /// Load of the routing index: `(distinct partitions indexed, total
    /// partition → subscription links, subscriptions routing on
    /// everything)`. Links divided by live subscriptions is the mean
    /// candidate-footprint size — a routing-precision diagnostic.
    pub fn dispatch_index_load(&self) -> (usize, usize, usize) {
        self.shared
            .dispatcher
            .lock()
            .expect("dispatcher lock")
            .index_load()
    }

    /// Blocks until every commit published before this call has been
    /// routed to subscriptions (immediately if none exist). Useful for
    /// tests and benches that want deterministic delivery points; regular
    /// consumers just [`Subscription::wait`].
    pub fn quiesce(&self) {
        self.shared.quiesce()
    }

    /// `explicit_options: None` means the engine's configured options.
    fn subscribe_inner(
        &self,
        query: Query,
        explicit_options: Option<QueryOptions>,
        capacity: usize,
    ) -> Result<Subscription, EngineError> {
        if !matches!(query, Query::Range { .. } | Query::Knn { .. }) {
            return Err(EngineError::UnsupportedSubscription(query));
        }
        self.shared.ensure_dispatch_thread();
        // Hold the dispatcher for the pin + refresh + register sequence:
        // the dispatch thread cannot route anything in between, so every
        // commit is either visible in the baseline (epoch ≤ baseline,
        // dropped by the dispatcher's per-subscription guard) or routed
        // to the registered entry afterwards — never lost. Only the
        // dispatch thread waits on this; the committing writer does not.
        let mut dispatcher = self.shared.dispatcher.lock().expect("dispatcher lock");
        let state = self.shared.current();
        let options = explicit_options.unwrap_or(state.options);
        let baseline = Snapshot::from_state(state);
        let mut monitor = match query {
            Query::Range { q, r } => StandingMonitor::Range(RangeMonitor::new(q, r, options)?),
            Query::Knn { q, k } => StandingMonitor::Knn(KnnMonitor::new(q, k, options)?),
            _ => unreachable!("validated above"),
        };
        let initial = monitor.refresh(baseline.space(), baseline.index(), baseline.store())?;
        let ranked = monitor.ranked();
        let inside: BTreeSet<ObjectId> = initial.iter().copied().collect();
        let (id, rx) = dispatcher.register(
            monitor,
            baseline.version(),
            capacity,
            baseline.space(),
            baseline.index(),
        );
        drop(dispatcher);
        Ok(Subscription {
            query,
            shared: Arc::clone(&self.shared),
            id,
            rx,
            epoch: baseline.version(),
            initial,
            inside,
            ranked,
        })
    }
}

// ---- subscription ---------------------------------------------------------

/// One delta notification of a [`Subscription`]: the membership changes a
/// committed batch caused, together with the commit's receipt.
#[derive(Clone, Debug)]
pub struct Notification {
    /// The epoch of the commit this notification reflects; after handling
    /// it the subscription's result set is current as of this epoch.
    pub epoch: u64,
    /// Every membership change the commit caused, ascending by object id.
    /// May be empty — a routed commit that did not move the standing
    /// result still advances the subscription's epoch.
    pub changes: Vec<(ObjectId, MonitorChange)>,
    /// For kNN subscriptions: the full ranked top-k after this commit,
    /// ascending `(distance, id)`. `None` for range subscriptions.
    pub ranked: Option<Vec<(ObjectId, f64)>>,
    /// This notification coalesces two or more commits because the
    /// consumer fell behind its mailbox capacity: intermediate epochs
    /// were skipped, with their net membership effect folded into
    /// `changes` (the result set is still exact).
    pub lagged: bool,
    /// The (newest coalesced) commit's full receipt (shared with other
    /// subscriptions).
    pub report: Arc<UpdateReport>,
}

/// A standing query kept current by routed commit deltas.
///
/// Created by [`IndoorService::subscribe`]: the subscription starts from
/// the [`Subscription::initial`] result evaluated at its baseline epoch;
/// afterwards the service's dispatch thread absorbs every commit that
/// can affect the query into the subscription's monitor and queues the
/// membership changes here. Commits whose routing footprint is disjoint
/// from the query's candidate partitions are **skipped entirely** — they
/// produce no notification and do not advance
/// [`Subscription::epoch`]; the skip is sound because such a commit
/// provably cannot change the result (see [`idq_dispatch`]).
///
/// Consume with [`Subscription::poll`] (non-blocking drain) or
/// [`Subscription::wait`] (block until the next routed commit; `None`
/// once the writer is gone and the queue is drained). The mailbox is
/// **bounded**: a consumer that falls behind gets newer commits
/// coalesced into one [`Notification::lagged`] delivery instead of
/// unbounded queue growth, and never slows the writer or the dispatch
/// thread.
///
/// Dropping a subscription deregisters it from the dispatcher
/// immediately — an unpolled, forgotten handle stops costing routing
/// work at the next commit.
#[derive(Debug)]
pub struct Subscription {
    query: Query,
    shared: Arc<Shared>,
    id: SubId,
    rx: MailboxReceiver<Arc<UpdateReport>>,
    epoch: u64,
    initial: Vec<ObjectId>,
    /// The standing result set, maintained by applying routed changes.
    inside: BTreeSet<ObjectId>,
    /// The ranked top-k (kNN subscriptions only).
    ranked: Option<Vec<(ObjectId, f64)>>,
}

impl Subscription {
    /// The standing query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The result of the initial evaluation at the baseline epoch,
    /// ascending by object id.
    pub fn initial(&self) -> &[ObjectId] {
        &self.initial
    }

    /// The current standing result set (initial + every applied delta),
    /// ascending by object id.
    pub fn current(&self) -> Vec<ObjectId> {
        self.inside.iter().copied().collect()
    }

    /// Whether an object is currently in the standing result set.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inside.contains(&id)
    }

    /// The epoch the standing result set is current as of. Advances only
    /// on routed commits; commits proven irrelevant leave it unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// For kNN subscriptions, the current ranked top-k, ascending
    /// `(distance, id)`; `None` for range subscriptions.
    pub fn ranked(&self) -> Option<&[(ObjectId, f64)]> {
        self.ranked.as_deref()
    }

    /// Applies every queued notification without blocking, returning them
    /// in epoch order.
    pub fn poll(&mut self) -> Result<Vec<Notification>, EngineError> {
        let mut out = Vec::new();
        while let Some(msg) = self.rx.try_recv() {
            out.push(self.apply(msg));
        }
        Ok(out)
    }

    /// Blocks until the next routed commit's notification arrives and
    /// applies it. Returns `Ok(None)` once the writer is gone and every
    /// queued notification has been applied — the stream has ended and
    /// the result set is final.
    pub fn wait(&mut self) -> Result<Option<Notification>, EngineError> {
        match self.rx.recv() {
            None => Ok(None),
            Some(msg) => Ok(Some(self.apply(msg))),
        }
    }

    /// Folds one precomputed delta message into the local result set.
    fn apply(&mut self, msg: DeltaMsg<Arc<UpdateReport>>) -> Notification {
        for &(id, change) in &msg.changes {
            match change {
                MonitorChange::Entered => {
                    self.inside.insert(id);
                }
                MonitorChange::Left => {
                    self.inside.remove(&id);
                }
                MonitorChange::Unchanged => {}
            }
        }
        self.epoch = msg.epoch;
        if msg.ranked.is_some() {
            self.ranked = msg.ranked.clone();
        }
        Notification {
            epoch: msg.epoch,
            changes: msg.changes,
            ranked: msg.ranked,
            lagged: msg.lagged,
            report: msg.payload,
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Eager deregistration: the dispatcher stops routing to this
        // subscription at the next commit instead of discovering the
        // dead mailbox lazily.
        if let Ok(mut dispatcher) = self.shared.dispatcher.lock() {
            dispatcher.deregister(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{insert_at, knn, range, three_rooms};
    use crate::update::Update;
    use crate::{EngineConfig, IndoorEngine};
    use idq_geom::Point2;
    use idq_model::IndoorPoint;

    #[test]
    fn service_snapshots_track_commits() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        assert_eq!(service.epoch(), 0);
        let pinned = service.snapshot();
        insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(pinned.version(), 0, "pinned snapshots do not move");
        assert_eq!(pinned.store().len(), 0);
        assert_eq!(service.snapshot().store().len(), 1);
    }

    #[test]
    fn subscription_tracks_commits_and_ends_with_the_writer() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 15.0 }).unwrap();
        assert!(sub.initial().is_empty());
        assert_eq!(sub.epoch(), 0);

        // One commit inside the range, one outside.
        e.apply_batch(&[
            Update::InsertObjectAt {
                center: Point2::new(12.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 1,
            },
            Update::InsertObjectAt {
                center: Point2::new(28.0, 5.0),
                floor: 0,
                radius: 1.0,
                instances: 4,
                seed: 2,
            },
        ])
        .unwrap();
        let n = sub.wait().unwrap().expect("one commit routed");
        assert_eq!(n.epoch, 1);
        assert_eq!(n.changes.len(), 1, "only the near object entered");
        assert_eq!(n.changes[0].1, MonitorChange::Entered);
        assert!(!n.lagged);
        assert!(n.ranked.is_none(), "range subscriptions carry no ranking");
        assert_eq!(sub.current().len(), 1);
        assert_eq!(sub.epoch(), 1);

        // A topology commit routes to everyone and refreshes internally.
        let door = e.space().doors().next().unwrap().id;
        e.apply_batch(&[Update::CloseDoor(door)]).unwrap();
        let n = sub.wait().unwrap().expect("topology commit routed");
        assert!(n.report.delta.topology_changed);
        assert_eq!(n.changes.len(), 1, "the near object left");
        assert!(sub.current().is_empty());

        // Dropping the engine ends the stream.
        drop(e);
        assert!(sub.wait().unwrap().is_none());
        assert!(sub.poll().unwrap().is_empty());
    }

    #[test]
    fn poll_drains_routed_commits_in_order() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 40.0 }).unwrap();
        for seed in 1..=3u64 {
            insert_at(&mut e, Point2::new(5.0 + seed as f64, 5.0), 1.0, 4, seed);
        }
        // Routing is asynchronous; wait for the dispatch thread to catch
        // up before draining.
        service.quiesce();
        let notifications = sub.poll().unwrap();
        assert_eq!(notifications.len(), 3);
        assert_eq!(
            notifications.iter().map(|n| n.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(sub.current().len(), 3);
        // Fresh evaluation agrees.
        let fresh = service.execute(&Query::Range { q, r: 40.0 }).unwrap();
        assert_eq!(fresh.as_range().unwrap().results.len(), 3);
    }

    #[test]
    fn irrelevant_commits_are_never_delivered() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        // Explicit zero-slack options; the candidate footprint, which
        // no slack widens, is the query's own room in this floorplan.
        let tight = QueryOptions {
            subgraph_slack: 0.0,
            ..QueryOptions::default()
        };
        let mut sub = service
            .subscribe_with(Query::Range { q, r: 5.0 }, tight)
            .unwrap();

        // Far-room churn: provably outside the footprint.
        for seed in 1..=4u64 {
            insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 4, seed);
        }
        service.quiesce();
        assert!(
            sub.poll().unwrap().is_empty(),
            "disjoint commits produce no notifications"
        );
        assert_eq!(sub.epoch(), 0, "epoch advances only on routed commits");
        let stats = service.dispatch_stats();
        assert_eq!(stats.skipped, 4);
        assert_eq!(stats.deliveries, 0);

        // A commit inside the footprint still gets through.
        insert_at(&mut e, Point2::new(3.0, 5.0), 1.0, 4, 9);
        let n = sub.wait().unwrap().expect("near commit routed");
        assert_eq!(n.changes.len(), 1);
        assert_eq!(sub.epoch(), e.epoch());
    }

    #[test]
    fn a_position_held_only_inside_a_batch_routes_nothing() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        // Zero slack keeps the footprint to the middle room B.
        let tight = QueryOptions {
            subgraph_slack: 0.0,
            ..QueryOptions::default()
        };
        let q = IndoorPoint::new(Point2::new(15.0, 5.0), 0);
        let mut sub = service
            .subscribe_with(Query::Range { q, r: 3.0 }, tight)
            .unwrap();
        assert_eq!(service.dispatch_index_load(), (1, 1, 0));
        let id = insert_at(&mut e, Point2::new(3.0, 5.0), 1.0, 4, 1);
        service.quiesce();
        let skipped = service.dispatch_stats().skipped;

        // One batch moves the object A → B → C: it passes through the
        // footprint, but neither starts nor ends there.
        let to = |x: f64, seed| Update::MoveObject {
            id,
            center: Point2::new(x, 5.0),
            floor: 0,
            seed,
        };
        e.apply_batch(&[to(15.0, 2), to(25.0, 3)]).unwrap();
        service.quiesce();
        assert_eq!(service.dispatch_stats().skipped, skipped + 1);
        assert!(sub.poll().unwrap().is_empty());
        let fresh = service
            .snapshot()
            .with_options(tight)
            .execute(&Query::Range { q, r: 3.0 })
            .unwrap();
        let fresh: Vec<ObjectId> = fresh
            .as_range()
            .unwrap()
            .results
            .iter()
            .map(|h| h.object)
            .collect();
        assert_eq!(sub.current(), fresh);
    }

    #[test]
    fn knn_subscription_tracks_fresh_queries() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Knn { q, k: 2 }).unwrap();
        assert!(sub.initial().is_empty());
        assert_eq!(sub.ranked().map(|r| r.len()), Some(0));

        insert_at(&mut e, Point2::new(12.0, 5.0), 1.0, 4, 1);
        insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 4, 2);
        insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 3);
        let mut last_ranked = None;
        while sub.epoch() < e.epoch() {
            let n = sub.wait().unwrap().expect("stream is live");
            last_ranked = n.ranked;
        }
        // The maintained ranking equals a fresh ikNNQ at the final epoch.
        let fresh = knn(&e, q, 2);
        let fresh_ranked: Vec<(ObjectId, f64)> = fresh
            .results
            .iter()
            .map(|h| (h.object, h.distance))
            .collect();
        assert_eq!(last_ranked.as_deref(), Some(&fresh_ranked[..]));
        assert_eq!(sub.ranked(), Some(&fresh_ranked[..]));
        let fresh_ids: Vec<ObjectId> = {
            let mut ids: Vec<ObjectId> = fresh.results.iter().map(|h| h.object).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(sub.current(), fresh_ids);

        // A door close re-verifies through a full refresh.
        let door = e.space().doors().next().unwrap().id;
        e.apply_batch(&[Update::CloseDoor(door)]).unwrap();
        let n = sub.wait().unwrap().expect("topology routed");
        assert!(n.report.delta.topology_changed);
        let fresh = knn(&e, q, 2);
        assert_eq!(
            sub.ranked().map(|r| r.len()),
            Some(fresh.results.len()),
            "ranking matches the post-topology fresh query"
        );
    }

    #[test]
    fn bounded_subscription_coalesces_with_a_lag_marker() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service
            .subscribe_bounded(Query::Range { q, r: 40.0 }, 2)
            .unwrap();
        // Never polled while 5 commits land: capacity 2 forces the tail
        // to coalesce.
        for seed in 1..=5u64 {
            insert_at(&mut e, Point2::new(5.0 + seed as f64, 5.0), 1.0, 4, seed);
        }
        service.quiesce();
        let notifications = sub.poll().unwrap();
        assert!(notifications.len() < 5, "tail commits were coalesced");
        let last = notifications.last().unwrap();
        assert!(last.lagged, "the merged delivery is marked");
        assert_eq!(last.epoch, 5, "coalesced delivery reports the newest epoch");
        assert_eq!(
            sub.current().len(),
            5,
            "coalesced changes still reconstruct the exact result set"
        );
        assert!(service.dispatch_stats().coalesced > 0);
    }

    #[test]
    fn idle_subscriber_at_the_default_bound_coalesces() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 40.0 }).unwrap();
        // Never polled while the commits land: the mailbox stops growing
        // at the default bound.
        let commits = DEFAULT_MAILBOX_CAPACITY + 8;
        for seed in 1..=commits as u64 {
            let x = 2.0 + (seed % 20) as f64;
            insert_at(&mut e, Point2::new(x, 5.0), 1.0, 4, seed);
        }
        service.quiesce();
        let notifications = sub.poll().unwrap();
        assert_eq!(notifications.len(), DEFAULT_MAILBOX_CAPACITY);
        assert!(notifications[..DEFAULT_MAILBOX_CAPACITY - 1]
            .iter()
            .all(|n| !n.lagged));
        let last = notifications.last().unwrap();
        assert!(last.lagged, "the tail coalesced into one delivery");
        assert_eq!(last.epoch, commits as u64);
        assert_eq!(sub.current().len(), commits, "the view stays exact");
    }

    #[test]
    fn default_subscriptions_match_fresh_queries_after_a_wide_insert() {
        // Subscribe while only small objects exist, then insert an object
        // wider than the default slack was sized for and reconfigure
        // topology: the subscription keeps its options and still matches
        // a fresh default query at that epoch.
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 4, 1);
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 30.0 }).unwrap();

        // Radius 15 needs more than the default 60 m slack by
        // `QueryOptions::for_max_radius` (max(4r + 20, 60)).
        insert_at(&mut e, Point2::new(25.0, 5.0), 15.0, 8, 2);
        let door = e.space().doors().next().unwrap().id;
        e.apply_batch(&[Update::CloseDoor(door), Update::OpenDoor(door)])
            .unwrap();
        while sub.epoch() < e.epoch() {
            assert!(sub.wait().unwrap().is_some(), "writer is still alive");
        }
        let fresh: Vec<ObjectId> = range(&e, q, 30.0)
            .results
            .iter()
            .map(|h| h.object)
            .collect();
        assert_eq!(
            sub.current(),
            fresh,
            "the subscription matches a fresh default query"
        );
    }

    #[test]
    fn distance_and_path_queries_do_not_subscribe() {
        let e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(15.0, 5.0), 0);
        let err = service.subscribe(Query::Distance { q, p }).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedSubscription(_)));
        assert!(err.to_string().contains("subscription"));
        assert!(
            err.to_string().contains("range") && err.to_string().contains("kNN"),
            "the error names the supported kinds: {err}"
        );
        let err = service.subscribe(Query::Path { q, p }).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedSubscription(_)));
        // kNN now subscribes fine.
        let sub = service.subscribe(Query::Knn { q, k: 1 }).unwrap();
        assert!(sub.initial().is_empty());
    }

    #[test]
    fn dropped_subscriptions_deregister_eagerly() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let sub = service.subscribe(Query::Range { q, r: 40.0 }).unwrap();
        let keeper = service.subscribe(Query::Range { q, r: 40.0 }).unwrap();
        drop(sub);
        insert_at(&mut e, Point2::new(5.0, 5.0), 1.0, 4, 1);
        service.quiesce();
        let stats = service.dispatch_stats();
        assert_eq!(stats.registered, 2);
        assert_eq!(stats.dropped, 1, "drop deregistered immediately");
        assert_eq!(
            stats.deliveries, 1,
            "only the surviving subscription was routed"
        );
        drop(keeper);
    }

    #[test]
    fn subscribing_after_writer_retirement_yields_a_closed_stream() {
        let e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let service = e.service();
        drop(e);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut sub = service.subscribe(Query::Range { q, r: 15.0 }).unwrap();
        assert!(sub.wait().unwrap().is_none(), "no writer, stream is over");
        // The service still answers queries on the final version.
        assert!(service
            .execute(&Query::Range { q, r: 15.0 })
            .unwrap()
            .as_range()
            .unwrap()
            .results
            .is_empty());
    }
}
