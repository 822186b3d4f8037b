//! [`Snapshot`] — an owned, consistent read view over one committed
//! version of the indoor world, executing typed [`Query`]s from any
//! thread.
//!
//! A snapshot pins an [`EngineState`] by reference count: it is `Clone +
//! Send + Sync + 'static`, costs six machine words to copy, and never
//! blocks or is blocked by the writer — a committing
//! [`crate::IndoorEngine::apply_batch`] publishes a *new* state and
//! leaves every pinned version untouched. (The borrowed
//! `EngineSnapshot<'_>` of the single-threaded era is gone; harnesses
//! holding bare layers use [`Snapshot::from_parts`].)

use crate::error::EngineError;
use crate::state::EngineState;
use idq_index::CompositeIndex;
use idq_model::IndoorSpace;
use idq_objects::ObjectStore;
use idq_query::{execute, execute_batch, Outcome, Query, QueryOptions};
use std::sync::Arc;

/// An owned, consistent read view of the indoor world.
///
/// A snapshot pins one committed [`EngineState`] version: every query
/// issued through it sees the same space version, object population and
/// index state, no matter how many batches the writer commits in the
/// meantime. Because the pin is a reference count rather than a borrow,
/// snapshots are freely cloned, sent to other threads, and held across
/// `await`-points or work queues — this is the session handle the
/// concurrent service API hands to reader threads.
///
/// [`Snapshot::execute_batch`] runs its queries one at a time on the
/// pinned version. Queries reuse work through the index's shared
/// door-distance cache rows and each object's memoised subregion
/// summary, in a batch or not.
///
/// Query evaluation holds **no locks**: the layers are reached through
/// the pinned `Arc`s, so a Dijkstra in one session never serialises
/// against other sessions or the writer.
#[derive(Clone, Debug)]
pub struct Snapshot {
    state: Arc<EngineState>,
    options: QueryOptions,
}

impl Snapshot {
    /// Pins a state with its configured query options (the engine's
    /// [`crate::IndoorEngine::snapshot`] and the service's
    /// [`crate::IndoorService::snapshot`] are the usual entry points).
    pub fn from_state(state: Arc<EngineState>) -> Self {
        let options = state.options;
        Snapshot { state, options }
    }

    /// Assembles a snapshot from bare layers at version 0 — benchmark
    /// harnesses that own a space, store and index without an engine use
    /// this.
    pub fn from_parts(
        space: Arc<IndoorSpace>,
        store: Arc<ObjectStore>,
        index: Arc<CompositeIndex>,
        options: QueryOptions,
    ) -> Self {
        Self::from_state(Arc::new(EngineState::from_parts_at(
            space, store, index, options, 0,
        )))
    }

    /// The engine epoch this snapshot is pinned to: two snapshots with the
    /// same version saw the identical world, and a monitor fed from a
    /// [`crate::UpdateReport`] is current iff its last absorbed report's
    /// epoch matches the snapshot version.
    pub fn version(&self) -> u64 {
        self.state.epoch
    }

    /// The pinned state.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// Encodes the pinned version as a checkpoint payload (space and
    /// store — the exact bytes background checkpoints write). Because the
    /// snapshot pins an immutable version, this runs concurrently with
    /// committing writers and always encodes a transactionally consistent
    /// world.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        self.state.encode_checkpoint()
    }

    /// The indoor space this snapshot reads.
    pub fn space(&self) -> &IndoorSpace {
        self.state.space()
    }

    /// The object population this snapshot reads.
    pub fn store(&self) -> &ObjectStore {
        self.state.store()
    }

    /// The composite index this snapshot reads.
    pub fn index(&self) -> &CompositeIndex {
        self.state.index()
    }

    /// The query options every execution uses.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// A copy of this snapshot with different query options, pinned to the
    /// same version.
    pub fn with_options(self, options: QueryOptions) -> Self {
        Snapshot { options, ..self }
    }

    /// Evaluates one query.
    pub fn execute(&self, query: &Query) -> Result<Outcome, EngineError> {
        Ok(execute(
            self.space(),
            self.index(),
            self.store(),
            query,
            &self.options,
        )?)
    }

    /// Evaluates a batch of queries, one [`Snapshot::execute`] each,
    /// returning outcomes in input order; the first error aborts the
    /// batch. See [`idq_query::execute_batch`].
    pub fn execute_batch(&self, queries: &[Query]) -> Result<Vec<Outcome>, EngineError> {
        Ok(execute_batch(
            self.space(),
            self.index(),
            self.store(),
            queries,
            &self.options,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{insert_at, three_rooms};
    use crate::{EngineConfig, IndoorEngine};
    use idq_geom::Point2;
    use idq_model::IndoorPoint;

    #[test]
    fn snapshot_executes_all_query_kinds() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(25.0, 5.0), 0);

        let snap = e.snapshot();
        let range = snap.execute(&Query::Range { q, r: 20.0 }).unwrap();
        assert_eq!(range.as_range().unwrap().results[0].object, o1);
        let knn = snap.execute(&Query::Knn { q, k: 1 }).unwrap();
        assert_eq!(knn.as_knn().unwrap().results[0].object, o1);
        let dist = snap.execute(&Query::Distance { q, p }).unwrap();
        assert!(dist.as_distance().unwrap().distance.is_finite());
        let path = snap.execute(&Query::Path { q, p }).unwrap();
        let (_, doors) = path.as_path().unwrap().path.clone().unwrap();
        assert_eq!(doors.len(), 2);
    }

    #[test]
    fn one_snapshot_serves_a_batch_with_reuse() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 8, 2);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let queries = vec![
            Query::Range { q, r: 16.0 },
            Query::Range { q, r: 30.0 },
            Query::Knn { q, k: 2 },
        ];
        let snap = e.snapshot();
        let outcomes = snap.execute_batch(&queries).unwrap();
        // Later queries at the point compose their contexts from cache
        // rows the first one expanded.
        for out in &outcomes[1..] {
            assert!(out.stats().shared_cache_hits > 0, "{}", out.stats());
        }
        for (query, out) in queries.iter().zip(&outcomes) {
            let single = snap.execute(query).unwrap();
            match (out, single) {
                (Outcome::Range(a), Outcome::Range(b)) => assert_eq!(a.results, b.results),
                (Outcome::Knn(a), Outcome::Knn(b)) => assert_eq!(a.results, b.results),
                _ => panic!("variant mismatch"),
            }
        }
    }

    #[test]
    fn snapshot_options_can_be_overridden() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let base = e.snapshot();
        assert!(base.options().use_pruning);
        let ablated = base
            .clone()
            .with_options(QueryOptions::default().without_pruning());
        let out = ablated.execute(&Query::Range { q, r: 20.0 }).unwrap();
        assert_eq!(out.as_range().unwrap().stats.accepted_by_bounds, 0);
        // The engine's snapshot carries the configured options.
        assert_eq!(*base.options(), base.state().options());
    }

    #[test]
    fn snapshots_pin_their_version_across_writes() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let o1 = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 8, 1);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let pinned = e.snapshot();
        assert_eq!(pinned.version(), 1);

        // Writer keeps committing; the pinned snapshot must not notice.
        e.apply(crate::Update::RemoveObject(o1)).unwrap();
        let o2 = insert_at(&mut e, Point2::new(25.0, 5.0), 1.0, 8, 2);
        assert_eq!(e.epoch(), 3);

        let old = pinned.execute(&Query::Range { q, r: 20.0 }).unwrap();
        assert_eq!(old.as_range().unwrap().results[0].object, o1);
        let new = e.snapshot().execute(&Query::Range { q, r: 40.0 }).unwrap();
        assert_eq!(new.as_range().unwrap().results[0].object, o2);
        // A clone pins the same version.
        let clone = pinned.clone();
        assert_eq!(clone.version(), pinned.version());
    }

    #[test]
    fn from_parts_assembles_a_bare_snapshot() {
        use idq_index::IndexConfig;
        use std::sync::Arc;
        let space = three_rooms();
        let store = ObjectStore::new();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let snap = Snapshot::from_parts(
            Arc::new(space),
            Arc::new(store),
            Arc::new(index),
            QueryOptions::default(),
        );
        assert_eq!(snap.version(), 0);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let out = snap.execute(&Query::Range { q, r: 10.0 }).unwrap();
        assert!(out.as_range().unwrap().results.is_empty());
    }
}
