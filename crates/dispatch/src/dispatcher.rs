//! The query index and routing core: footprints, the inverted
//! partition → subscription map, and per-commit delta dispatch.

use crate::mailbox::{DeltaMsg, Mailbox, MailboxReceiver, PushOutcome};
use idq_geom::IdMap;
use idq_index::CompositeIndex;
use idq_model::{IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore};
use idq_query::{KnnMonitor, MonitorChange, MonitorWork, QueryError, RangeMonitor};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Handle identifying one registered subscription.
pub type SubId = u64;

/// The candidate partitions a standing query could ever draw members
/// from — the subscription side of the routing intersection.
///
/// Soundness: an object can change the query's result only if its
/// expected distance crosses the query threshold, which requires its
/// distance **lower bound** — the minimum over its instances' partition
/// bounds — to be at or below the threshold. Every partition whose
/// geometric bound is within the threshold is retrieved by
/// [`CompositeIndex::range_search`] (no false negatives, with or
/// without the skeleton), so a commit none of whose changed objects was
/// in this set before the commit or is in it after provably cannot change
/// the result.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct QueryFootprint {
    /// Candidate partitions, ascending and deduplicated.
    partitions: Vec<PartitionId>,
    /// The query can currently be affected by a change anywhere — a kNN
    /// subscription whose kept boundary is `+∞` (fewer objects than it
    /// ranked were reachable: any object becoming reachable enters W).
    everything: bool,
}

impl QueryFootprint {
    /// A footprint over an explicit candidate-partition set.
    pub(crate) fn over(mut partitions: Vec<PartitionId>) -> Self {
        partitions.sort_unstable();
        partitions.dedup();
        QueryFootprint {
            partitions,
            everything: false,
        }
    }

    /// The footprint that intersects every commit.
    pub(crate) fn everything() -> Self {
        QueryFootprint {
            partitions: Vec::new(),
            everything: true,
        }
    }

    /// Whether this footprint matches every commit.
    pub(crate) fn covers_everything(&self) -> bool {
        self.everything
    }

    /// The candidate partitions (ascending; empty when
    /// [`QueryFootprint::covers_everything`]).
    pub(crate) fn partitions(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// Whether a commit with the given routing footprint (ascending)
    /// can affect this query. A merge walk over two sorted lists.
    pub(crate) fn intersects(&self, commit_partitions: &[PartitionId]) -> bool {
        if self.everything {
            return true;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.partitions.len() && j < commit_partitions.len() {
            match self.partitions[i].cmp(&commit_partitions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// A standing query's monitor, range or kNN — the two subscription
/// kinds the dispatcher serves.
#[derive(Debug)]
pub enum StandingMonitor {
    /// A standing `iRQ(q, r)`.
    Range(RangeMonitor),
    /// A standing `ikNNQ(q, k)`.
    Knn(KnnMonitor),
}

impl StandingMonitor {
    /// Full re-evaluation; returns the objects currently in the result,
    /// ascending by id.
    pub fn refresh(
        &mut self,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<ObjectId>, QueryError> {
        match self {
            StandingMonitor::Range(m) => m.refresh(space, index, store),
            StandingMonitor::Knn(m) => {
                m.refresh(space, index, store)?;
                Ok(m.current())
            }
        }
    }

    /// Absorbs one committed delta; returns the membership changes,
    /// ascending by object id.
    pub(crate) fn absorb_delta(
        &mut self,
        updated: &[ObjectId],
        removed: &[ObjectId],
        topology_changed: bool,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, QueryError> {
        match self {
            StandingMonitor::Range(m) => {
                m.absorb_delta(updated, removed, topology_changed, space, index, store)
            }
            StandingMonitor::Knn(m) => {
                m.absorb_delta(updated, removed, topology_changed, space, index, store)
            }
        }
    }

    /// The ranked top-k for a kNN monitor, `None` for range.
    pub fn ranked(&self) -> Option<Vec<(ObjectId, f64)>> {
        match self {
            StandingMonitor::Range(_) => None,
            StandingMonitor::Knn(m) => Some(m.ranked()),
        }
    }

    /// Whether a change to an object must reach the monitor even when
    /// the object lies outside the footprint: a range member, or a kNN
    /// object within the kept boundary (W), in the answer or not.
    pub(crate) fn watches(&self, id: ObjectId) -> bool {
        match self {
            StandingMonitor::Range(m) => m.contains(id),
            StandingMonitor::Knn(m) => m.watches(id),
        }
    }

    /// The radius the footprint is taken at: `r` for range, the kept
    /// boundary's distance `R` for kNN (`+∞` while W holds every
    /// reachable object). It changes only on a re-query, on the kNN
    /// boundary's first tightening, or on a topology refresh.
    pub(crate) fn radius(&self) -> f64 {
        match self {
            StandingMonitor::Range(m) => m.radius(),
            StandingMonitor::Knn(m) => m.radius(),
        }
    }

    /// The work the monitor has done so far.
    pub(crate) fn work(&self) -> MonitorWork {
        match self {
            StandingMonitor::Range(m) => m.work(),
            StandingMonitor::Knn(m) => m.work(),
        }
    }

    /// Computes the current candidate-partition footprint: iRQ's
    /// filtering call (`CompositeIndex::range_search`, Algorithm 4's
    /// `R_p`) at [`StandingMonitor::radius`]. The subgraph slack only
    /// sizes the first door-distance band and plays no part in it.
    /// Distances depend on the topology alone (and topology commits
    /// route to every subscription regardless of footprints), while an
    /// object in a slack-only partition has a geometric lower bound
    /// above the threshold and can never be a member — so object churn
    /// there is provably irrelevant and the tighter set routes exactly.
    pub(crate) fn footprint(&self, space: &IndoorSpace, index: &CompositeIndex) -> QueryFootprint {
        let (q, options) = match self {
            StandingMonitor::Range(m) => (m.query_point(), m.options()),
            StandingMonitor::Knn(m) => (m.query_point(), m.options()),
        };
        let radius = self.radius();
        if !radius.is_finite() {
            return QueryFootprint::everything();
        }
        let out = index.range_search(space, q, radius, options.use_skeleton);
        QueryFootprint::over(out.partitions)
    }
}

/// One committed group as the dispatcher routes it: which objects
/// changed, and the index the group was applied to. Where each changed
/// object was comes from `before`; where it is now, from the index
/// [`Dispatcher::dispatch`] is given.
#[derive(Clone, Copy, Debug)]
pub struct CommitDelta<'a> {
    /// Epoch the commit published.
    pub epoch: u64,
    /// Objects inserted, moved or re-sampled, ascending.
    pub updated: &'a [ObjectId],
    /// Objects removed, ascending.
    pub removed: &'a [ObjectId],
    /// The commit changed the space topology: cached distances and all
    /// footprints are invalid, so it routes to **every** subscription.
    pub topology_changed: bool,
    /// The index as it was before the commit: it holds every moved and
    /// removed object, and no inserted one.
    pub before: &'a CompositeIndex,
}

/// Counters describing the dispatcher's routing behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Commits dispatched.
    pub commits: u64,
    /// Per-subscription deliveries (messages accepted by a mailbox,
    /// whether queued or coalesced).
    pub deliveries: u64,
    /// Per-subscription skips — commit × subscription pairs proved
    /// unaffected with zero absorption work, either by the partition
    /// index (footprint disjoint) or by the per-object filter (no
    /// updated object relevant to this subscription).
    pub skipped: u64,
    /// Deliveries folded into an already-queued message because the
    /// consumer's mailbox was full.
    pub coalesced: u64,
    /// Subscriptions ever registered.
    pub registered: u64,
    /// Subscriptions deregistered (consumer drop or absorb failure).
    pub dropped: u64,
    /// Absorptions that failed; the subscription's stream is closed and
    /// the entry removed.
    pub(crate) absorb_errors: u64,
    /// Fresh queries monitors ran while absorbing: topology refreshes,
    /// and kNN re-queries after fewer than `k` objects were left within
    /// the kept boundary.
    pub(crate) requeries: u64,
    /// Refinements monitors recomputed on the full graph while
    /// absorbing, because their banded door distances could not certify
    /// the value. A share of deliveries above about 1 % means the
    /// subgraph slack is narrower than the regions.
    pub(crate) fallbacks: u64,
}

#[derive(Debug)]
struct SubEntry<R> {
    monitor: StandingMonitor,
    /// Taken at the monitor's radius, under the current topology.
    footprint: QueryFootprint,
    mailbox: Arc<Mailbox<R>>,
    /// Baseline guard: commits at or below this epoch are already
    /// reflected in the monitor's initial state and must not be
    /// re-absorbed.
    epoch: u64,
}

/// The query-indexed routing core. Single-threaded by design — the
/// serving engine drives it from one dispatch thread; interior
/// synchronisation lives in the engine, not here.
#[derive(Debug)]
pub struct Dispatcher<R> {
    subs: IdMap<SubId, SubEntry<R>>,
    /// Inverted index: partition → subscriptions whose footprint holds it.
    by_partition: IdMap<PartitionId, BTreeSet<SubId>>,
    /// Subscriptions whose footprint covers everything.
    everything: BTreeSet<SubId>,
    next_id: SubId,
    closed: bool,
    stats: DispatchStats,
}

impl<R> Default for Dispatcher<R> {
    fn default() -> Self {
        Self::new()
    }
}

fn link(
    by_partition: &mut IdMap<PartitionId, BTreeSet<SubId>>,
    everything: &mut BTreeSet<SubId>,
    id: SubId,
    fp: &QueryFootprint,
) {
    if fp.covers_everything() {
        everything.insert(id);
    } else {
        for &p in fp.partitions() {
            by_partition.entry(p).or_default().insert(id);
        }
    }
}

/// The partitions `oid`'s instances lie in, as `index` stores it; none
/// when `index` does not hold `oid`.
fn partitions_of(index: &CompositeIndex, oid: ObjectId) -> Vec<PartitionId> {
    let units = index.object_layer().units_of(oid).unwrap_or(&[]);
    index.units().owning_partitions(units)
}

fn unlink(
    by_partition: &mut IdMap<PartitionId, BTreeSet<SubId>>,
    everything: &mut BTreeSet<SubId>,
    id: SubId,
    fp: &QueryFootprint,
) {
    if fp.covers_everything() {
        everything.remove(&id);
    } else {
        for p in fp.partitions() {
            if let Some(ids) = by_partition.get_mut(p) {
                ids.remove(&id);
                if ids.is_empty() {
                    by_partition.remove(p);
                }
            }
        }
    }
}

impl<R> Dispatcher<R> {
    /// An empty dispatcher.
    pub fn new() -> Self {
        Dispatcher {
            subs: IdMap::default(),
            by_partition: IdMap::default(),
            everything: BTreeSet::new(),
            next_id: 0,
            closed: false,
            stats: DispatchStats::default(),
        }
    }

    /// Routing counters so far.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// Load of the routing index: `(distinct partitions indexed, total
    /// partition → subscription links, subscriptions routing on
    /// everything)`. Links divided by subscriptions is the mean
    /// footprint size — the precision the partition index routes at.
    pub fn index_load(&self) -> (usize, usize, usize) {
        (
            self.by_partition.len(),
            self.by_partition.values().map(BTreeSet::len).sum(),
            self.everything.len(),
        )
    }

    /// Registers a subscription whose monitor is already refreshed
    /// against the caller's baseline snapshot. Commits with epoch at or
    /// below `baseline_epoch` are dropped by the per-subscription guard
    /// (they are already reflected in the monitor's state). Returns the
    /// consumer end of the subscription's bounded mailbox; after
    /// [`Dispatcher::close_all`] the stream comes back already ended.
    ///
    /// Registration cost is dominated by the monitor's initial query,
    /// which since the shared distance cache composes per-door rows
    /// memoized in the index: bulk registration over a warm cache pays
    /// each door's expansion once, not once per subscription. The
    /// monitor keeps no distances: every absorb composes its evaluation
    /// context from the same cache.
    pub fn register(
        &mut self,
        monitor: StandingMonitor,
        baseline_epoch: u64,
        capacity: usize,
        space: &IndoorSpace,
        index: &CompositeIndex,
    ) -> (SubId, MailboxReceiver<R>) {
        let id = self.next_id;
        self.next_id += 1;
        let (mailbox, receiver) = Mailbox::channel(capacity, self.closed);
        if self.closed {
            return (id, receiver);
        }
        let footprint = monitor.footprint(space, index);
        link(&mut self.by_partition, &mut self.everything, id, &footprint);
        self.subs.insert(
            id,
            SubEntry {
                monitor,
                footprint,
                mailbox,
                epoch: baseline_epoch,
            },
        );
        self.stats.registered += 1;
        (id, receiver)
    }

    /// Removes a subscription and closes its stream. A no-op for ids
    /// already gone — consumer-side drops and absorb-failure removals
    /// may race benignly.
    pub fn deregister(&mut self, id: SubId) -> bool {
        let Some(entry) = self.subs.remove(&id) else {
            return false;
        };
        unlink(
            &mut self.by_partition,
            &mut self.everything,
            id,
            &entry.footprint,
        );
        entry.mailbox.close();
        self.stats.dropped += 1;
        true
    }

    /// Ends every stream (the writer retired). Queued messages stay
    /// drainable; later registrations come back pre-closed.
    pub fn close_all(&mut self) {
        self.closed = true;
        for entry in self.subs.values() {
            entry.mailbox.close();
        }
    }

    /// Routes one committed delta: intersects its footprint against the
    /// query index, absorbs it into exactly the affected subscriptions'
    /// monitors and pushes the resulting changes into their mailboxes.
    /// Everything else is skipped with zero per-subscription work.
    ///
    /// The commit's footprint is every partition a changed object
    /// occupied in `delta.before` or occupies in `index`. Monitors absorb
    /// the net delta, and every member lies in its footprint at the
    /// previous version, so where an object was only inside a group
    /// cannot change any result.
    pub fn dispatch(
        &mut self,
        delta: &CommitDelta<'_>,
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        payload: &R,
    ) where
        R: Clone,
    {
        self.stats.commits += 1;
        // Where each updated object is now, resolved once per commit for
        // the per-object filter below. The commit's footprint adds where
        // every moved or removed object was in `before`; inserted ids are
        // absent there. The index's coverage invariant places every
        // changed object on its side of the commit.
        let mut arriving: Vec<(ObjectId, Vec<PartitionId>)> = Vec::new();
        let mut touched: Vec<PartitionId> = Vec::new();
        if !self.subs.is_empty() && !delta.topology_changed {
            for &oid in delta.updated {
                let parts = partitions_of(index, oid);
                debug_assert!(!parts.is_empty(), "{oid:?} not placed after the commit");
                touched.extend(&parts);
                touched.extend(partitions_of(delta.before, oid));
                arriving.push((oid, parts));
            }
            for &oid in delta.removed {
                let parts = partitions_of(delta.before, oid);
                debug_assert!(!parts.is_empty(), "{oid:?} not placed before the commit");
                touched.extend(parts);
            }
            touched.sort_unstable();
            touched.dedup();
        }
        let targets: Vec<SubId> = if delta.topology_changed {
            let mut ids: Vec<SubId> = self.subs.keys().copied().collect();
            ids.sort_unstable();
            ids
        } else if touched.is_empty() {
            Vec::new()
        } else {
            let mut ids: BTreeSet<SubId> = self.everything.iter().copied().collect();
            for p in &touched {
                if let Some(set) = self.by_partition.get(p) {
                    ids.extend(set.iter().copied());
                }
            }
            ids.into_iter().collect()
        };
        self.stats.skipped += (self.subs.len() - targets.len()) as u64;
        let mut relevant: Vec<ObjectId> = Vec::with_capacity(delta.updated.len());

        let mut dead: Vec<SubId> = Vec::new();
        for id in targets {
            let Some(entry) = self.subs.get_mut(&id) else {
                continue;
            };
            if delta.epoch <= entry.epoch {
                // Registered at a baseline at or past this commit: the
                // monitor's initial refresh already reflects it.
                continue;
            }
            // Per-object filter. An updated object outside the footprint
            // after the commit has a distance lower bound above the
            // monitor's radius (the footprint soundness argument, per
            // object), so it cannot *enter* the watched set; if it is not
            // watched now it cannot *leave* either, and absorbing it
            // would be a no-op. A watched object is always evaluated: a
            // kNN object within the kept boundary may leave W and so
            // bring on a re-query, even when it is not in the answer.
            let updated = if delta.topology_changed || entry.footprint.covers_everything() {
                delta.updated
            } else {
                relevant.clear();
                relevant.extend(arriving.iter().filter_map(|(oid, ps)| {
                    (entry.footprint.intersects(ps) || entry.monitor.watches(*oid)).then_some(*oid)
                }));
                if relevant.is_empty()
                    && !delta.removed.iter().any(|&oid| entry.monitor.watches(oid))
                {
                    // Nothing this subscription could observe: the
                    // commit-level route was a false positive of the
                    // union footprint.
                    self.stats.skipped += 1;
                    continue;
                }
                &relevant
            };
            let (radius, work) = (entry.monitor.radius(), entry.monitor.work());
            let changes = match entry.monitor.absorb_delta(
                updated,
                delta.removed,
                delta.topology_changed,
                space,
                index,
                store,
            ) {
                Ok(changes) => changes,
                Err(_) => {
                    // The monitor is no longer trustworthy; end the
                    // stream rather than deliver wrong results.
                    entry.mailbox.close();
                    self.stats.absorb_errors += 1;
                    dead.push(id);
                    continue;
                }
            };
            entry.epoch = delta.epoch;
            let done = entry.monitor.work();
            self.stats.requeries += done.requeries - work.requeries;
            self.stats.fallbacks += done.fallbacks - work.fallbacks;

            // Footprint repair: topology invalidates every footprint, and
            // a kNN footprint follows its kept boundary, which moves only
            // on a re-query or its first tightening.
            if delta.topology_changed || entry.monitor.radius() != radius {
                let fresh = entry.monitor.footprint(space, index);
                if fresh != entry.footprint {
                    unlink(
                        &mut self.by_partition,
                        &mut self.everything,
                        id,
                        &entry.footprint,
                    );
                    link(&mut self.by_partition, &mut self.everything, id, &fresh);
                    entry.footprint = fresh;
                }
            }

            let msg = DeltaMsg {
                epoch: delta.epoch,
                changes,
                ranked: entry.monitor.ranked(),
                lagged: false,
                payload: payload.clone(),
            };
            match entry.mailbox.push(msg) {
                PushOutcome::Delivered => self.stats.deliveries += 1,
                PushOutcome::Coalesced => {
                    self.stats.deliveries += 1;
                    self.stats.coalesced += 1;
                }
                PushOutcome::Closed => {}
            }
        }
        for id in dead {
            self.deregister(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point2, Rect2};
    use idq_index::IndexConfig;
    use idq_model::{FloorPlanBuilder, IndoorPoint};
    use idq_objects::UncertainObject;
    use idq_query::QueryOptions;

    fn setup() -> (IndoorSpace, ObjectStore, CompositeIndex) {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(10.0, 5.0)).unwrap();
        b.add_door_between(r1, r2, Point2::new(20.0, 5.0)).unwrap();
        let space = b.finish().unwrap();
        let store = ObjectStore::new();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        (space, store, index)
    }

    fn q() -> IndoorPoint {
        IndoorPoint::new(Point2::new(2.0, 5.0), 0)
    }

    /// Tight options so footprints stay local inside the small test
    /// floorplan (the default 60 m slack would cover every room).
    fn tight() -> QueryOptions {
        QueryOptions {
            subgraph_slack: 0.0,
            ..QueryOptions::default()
        }
    }

    /// Inserts object `id` at `(x, 5)`, or moves it there, and returns
    /// the index as it was before: the commit's `before`.
    fn place(
        store: &mut ObjectStore,
        index: &mut CompositeIndex,
        space: &IndoorSpace,
        id: u64,
        x: f64,
    ) -> CompositeIndex {
        let before = index.clone();
        let obj =
            UncertainObject::point_object(ObjectId(id), IndoorPoint::new(Point2::new(x, 5.0), 0));
        if store.contains(ObjectId(id)) {
            store.remove(ObjectId(id)).unwrap();
            store.insert(obj).unwrap();
            index
                .update_object(space, store.get(ObjectId(id)).unwrap())
                .unwrap();
        } else {
            index.insert_object(space, &obj).unwrap();
            store.insert(obj).unwrap();
        }
        before
    }

    fn range_monitor(
        space: &IndoorSpace,
        index: &CompositeIndex,
        store: &ObjectStore,
        r: f64,
    ) -> StandingMonitor {
        let mut m = RangeMonitor::new(q(), r, tight()).unwrap();
        m.refresh(space, index, store).unwrap();
        StandingMonitor::Range(m)
    }

    #[test]
    fn disjoint_commits_are_skipped_without_absorption() {
        let (space, mut store, mut index) = setup();
        let mut d: Dispatcher<u64> = Dispatcher::new();
        let (_, rx) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            0,
            16,
            &space,
            &index,
        );

        // An object appears at the far end of the floor: its partitions
        // are outside the query's footprint, so nothing is delivered.
        let far = place(&mut store, &mut index, &space, 1, 25.0);
        d.dispatch(
            &CommitDelta {
                epoch: 1,
                updated: &[ObjectId(1)],
                removed: &[],
                topology_changed: false,
                before: &far,
            },
            &space,
            &index,
            &store,
            &1,
        );
        assert_eq!(d.stats().skipped, 1);
        assert_eq!(d.stats().deliveries, 0);
        assert!(rx.try_recv().is_none());

        // An object appears next to the query point: routed, absorbed,
        // delivered.
        let near = place(&mut store, &mut index, &space, 2, 4.0);
        d.dispatch(
            &CommitDelta {
                epoch: 2,
                updated: &[ObjectId(2)],
                removed: &[],
                topology_changed: false,
                before: &near,
            },
            &space,
            &index,
            &store,
            &2,
        );
        let msg = rx.try_recv().expect("routed commit delivers");
        assert_eq!(msg.epoch, 2);
        assert_eq!(msg.payload, 2);
        assert_eq!(msg.changes, vec![(ObjectId(2), MonitorChange::Entered)]);
        assert_eq!(d.stats().deliveries, 1);
    }

    #[test]
    fn a_member_leaving_for_a_far_room_is_routed_by_where_it_was() {
        let (space, mut store, mut index) = setup();
        place(&mut store, &mut index, &space, 1, 4.0);
        let mut d: Dispatcher<u64> = Dispatcher::new();
        let (_, rx) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            0,
            16,
            &space,
            &index,
        );
        // The member moves to the far room, outside the footprint: only
        // the room it left routes the commit.
        let before = place(&mut store, &mut index, &space, 1, 25.0);
        d.dispatch(
            &CommitDelta {
                epoch: 1,
                updated: &[ObjectId(1)],
                removed: &[],
                topology_changed: false,
                before: &before,
            },
            &space,
            &index,
            &store,
            &1,
        );
        assert_eq!(d.stats().skipped, 0);
        let msg = rx.try_recv().expect("the room it left routes the commit");
        assert_eq!(msg.changes, vec![(ObjectId(1), MonitorChange::Left)]);
    }

    #[test]
    fn topology_routes_to_every_subscription() {
        let (mut space, mut store, mut index) = setup();
        let mut d: Dispatcher<u64> = Dispatcher::new();
        place(&mut store, &mut index, &space, 1, 12.0);
        let (_, rx) = d.register(
            range_monitor(&space, &index, &store, 15.0),
            0,
            16,
            &space,
            &index,
        );

        // Close the door between r0 and r1: object 1 becomes
        // unreachable. Topology commits carry no partition footprint
        // yet must reach everyone.
        let before = index.clone();
        let door = space.doors().next().unwrap().id;
        let ev = space.close_door(door).unwrap();
        index.apply_topology(&space, &store, &ev).unwrap();
        d.dispatch(
            &CommitDelta {
                epoch: 1,
                updated: &[],
                removed: &[],
                topology_changed: true,
                before: &before,
            },
            &space,
            &index,
            &store,
            &1,
        );
        let msg = rx.try_recv().expect("topology commit always routes");
        assert_eq!(msg.changes, vec![(ObjectId(1), MonitorChange::Left)]);
    }

    #[test]
    fn baseline_epoch_guard_drops_already_seen_commits() {
        let (space, mut store, mut index) = setup();
        let near = place(&mut store, &mut index, &space, 1, 4.0);
        let mut d: Dispatcher<u64> = Dispatcher::new();
        // Monitor refreshed at epoch 5 already sees object 1.
        let (_, rx) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            5,
            16,
            &space,
            &index,
        );
        let stale = CommitDelta {
            epoch: 5,
            updated: &[ObjectId(1)],
            removed: &[],
            topology_changed: false,
            before: &near,
        };
        d.dispatch(&stale, &space, &index, &store, &5);
        assert!(rx.try_recv().is_none(), "epoch 5 predates the baseline");

        let fresh = CommitDelta { epoch: 6, ..stale };
        d.dispatch(&fresh, &space, &index, &store, &6);
        let msg = rx.try_recv().expect("epoch 6 is news");
        assert_eq!(msg.epoch, 6);
        assert_eq!(
            msg.changes,
            vec![],
            "object 1 was already in the baseline result"
        );
    }

    #[test]
    fn knn_footprint_moves_only_with_the_boundary() {
        let (space, mut store, mut index) = setup();
        let mut d: Dispatcher<u64> = Dispatcher::new();
        let mut m = KnnMonitor::new(q(), 1, tight()).unwrap();
        m.refresh(&space, &index, &store).unwrap();
        let (id, rx) = d.register(StandingMonitor::Knn(m), 0, 16, &space, &index);
        let footprint = |d: &Dispatcher<u64>| d.subs[&id].footprint.clone();
        assert!(
            footprint(&d).covers_everything(),
            "nothing reachable: the boundary is ∞ and routes everything"
        );
        // Moves object `oid` to `(x, 5)` as commit `epoch`.
        let mut epoch = 0;
        let mut commit = |d: &mut Dispatcher<u64>, oid: u64, x: f64| {
            epoch += 1;
            let before = place(&mut store, &mut index, &space, oid, x);
            let delta = CommitDelta {
                epoch,
                updated: &[ObjectId(oid)],
                removed: &[],
                topology_changed: false,
                before: &before,
            };
            d.dispatch(&delta, &space, &index, &store, &epoch);
        };

        // k = 1 keeps W up to 2 objects. One object: B stays ∞.
        commit(&mut d, 1, 4.0);
        assert_eq!(
            rx.try_recv().unwrap().changes,
            [(ObjectId(1), MonitorChange::Entered)]
        );
        assert!(footprint(&d).covers_everything());
        // The second tightens B to (4, object 2): the footprint moves to
        // the query's own room.
        commit(&mut d, 2, 6.0);
        assert_eq!(rx.try_recv().unwrap().changes, []);
        let tight_fp = footprint(&d);
        assert_eq!(tight_fp.partitions().len(), 1, "{tight_fp:?}");

        // A far arrival is skipped; object 2 overtaking object 1 changes
        // the answer, and object 2 leaving W shrinks it to k: neither
        // moves B, so neither moves the footprint.
        let skipped = d.stats().skipped;
        commit(&mut d, 3, 25.0);
        assert_eq!(d.stats().skipped, skipped + 1);
        assert!(rx.try_recv().is_none());
        commit(&mut d, 2, 3.0);
        assert_eq!(
            rx.try_recv().unwrap().changes,
            [
                (ObjectId(1), MonitorChange::Left),
                (ObjectId(2), MonitorChange::Entered)
            ]
        );
        commit(&mut d, 2, 25.0);
        assert_eq!(
            rx.try_recv().unwrap().changes,
            [
                (ObjectId(1), MonitorChange::Entered),
                (ObjectId(2), MonitorChange::Left)
            ]
        );
        assert_eq!(footprint(&d), tight_fp);
        assert_eq!(d.stats().requeries, 0);

        // Object 1, the last in W, leaves for the middle room: routed by
        // the room it left, W drops below k, and the re-query ranks two
        // objects — B becomes (23, object 2) and the footprint widens to
        // every room.
        commit(&mut d, 1, 15.0);
        let msg = rx.try_recv().expect("a watched object's move routes");
        assert_eq!(msg.changes, []);
        assert_eq!(msg.ranked.unwrap(), [(ObjectId(1), 13.0)]);
        assert_eq!(d.stats().requeries, 1);
        assert_eq!(footprint(&d).partitions().len(), 3);
    }

    #[test]
    fn deregister_unlinks_and_closes_the_stream() {
        let (space, mut store, mut index) = setup();
        let mut d: Dispatcher<u64> = Dispatcher::new();
        let (id, rx) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            0,
            16,
            &space,
            &index,
        );
        assert_eq!(d.subs.len(), 1);
        assert!(d.deregister(id));
        assert!(!d.deregister(id), "second deregister is a no-op");
        assert_eq!(d.subs.len(), 0);
        assert!(rx.recv().is_none(), "stream ended");

        let near = place(&mut store, &mut index, &space, 1, 4.0);
        d.dispatch(
            &CommitDelta {
                epoch: 1,
                updated: &[ObjectId(1)],
                removed: &[],
                topology_changed: false,
                before: &near,
            },
            &space,
            &index,
            &store,
            &1,
        );
        assert_eq!(d.stats().deliveries, 0);
    }

    #[test]
    fn close_all_preorders_future_registrations_closed() {
        let (space, store, index) = setup();
        let mut d: Dispatcher<u64> = Dispatcher::new();
        let (_, rx_live) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            0,
            16,
            &space,
            &index,
        );
        d.close_all();
        assert!(rx_live.recv().is_none());
        let (_, rx_late) = d.register(
            range_monitor(&space, &index, &store, 5.0),
            0,
            16,
            &space,
            &index,
        );
        assert!(rx_late.recv().is_none(), "late registration is pre-closed");
        assert_eq!(d.subs.len(), 1, "closed registrations are not indexed");
    }
}
