//! [`EngineState`] — one immutable, epoch-stamped version of the indoor
//! world, shared by reference counting.
//!
//! This is the MVCC substrate of the concurrent service API: every
//! committed write produces a *new* `EngineState` (copy-on-write of what
//! it touched; everything else is shared through [`Arc`]s) and swaps it
//! into the service's current-version cell. Old versions are never
//! mutated — they live for exactly as long as some [`crate::Snapshot`]
//! pins them, so any number of reader threads can evaluate queries
//! against consistent versions while a writer commits, with no locks held
//! during evaluation.
//!
//! # Sharding
//!
//! Structural sharing between versions is **per floor shard**, not per
//! layer. A state decomposes into:
//!
//! * **per-floor shards** — floor `f`'s slice of the object population
//!   ([`idq_objects::StoreShard`]) and of the index's o-table
//!   ([`idq_index::FloorShard`]), plus the `Arc`-per-bucket unit buckets —
//!   deep-copied by a commit **only for the floors its updates land in**;
//! * **a cross-floor core** — the space, the index's geometry tiers (unit
//!   store, R-tree, skeleton, doors graph) and the query options — shared
//!   untouched across every version a pure object commit produces, and
//!   copied only when a topology update rewires the building.
//!
//! The `space`/`store`/`index` fields below keep their façade types (the
//! read path — [`crate::Snapshot`], the query crate — is oblivious to
//! sharding); the shards live *inside* `ObjectStore` and
//! `CompositeIndex`, which is what keeps their public APIs and every
//! query answer observably identical to the unsharded engine.

use idq_index::CompositeIndex;
use idq_model::IndoorSpace;
use idq_objects::ObjectStore;
use idq_query::QueryOptions;
use std::sync::Arc;

/// One immutable version of the engine's world: the indoor space, the
/// object population and the composite index, stamped with the write
/// epoch that produced it.
///
/// States are built by [`crate::IndoorEngine`] commits and read through
/// [`crate::Snapshot`]s; they are exposed so harnesses can assemble
/// snapshots from bare layers (see [`crate::Snapshot::from_parts`]).
#[derive(Clone, Debug)]
pub struct EngineState {
    pub(crate) space: Arc<IndoorSpace>,
    pub(crate) store: Arc<ObjectStore>,
    pub(crate) index: Arc<CompositeIndex>,
    /// The query options configured at engine construction.
    pub(crate) options: QueryOptions,
    /// The write epoch this state is the result of (0 for the initial
    /// population).
    pub(crate) epoch: u64,
}

impl EngineState {
    /// Assembles a state from bare layers at a given epoch. Costs three
    /// pointer moves: the store is not scanned. Harnesses pass epoch 0;
    /// `idq-history` rebuilds retained epochs through this, so a
    /// reconstructed version carries the same epoch stamp, checkpoint
    /// bytes ([`crate::Snapshot::encode_checkpoint`]) and query options
    /// as the live version the engine once published.
    pub fn from_parts_at(
        space: Arc<IndoorSpace>,
        store: Arc<ObjectStore>,
        index: Arc<CompositeIndex>,
        options: QueryOptions,
        epoch: u64,
    ) -> Self {
        EngineState {
            space,
            store,
            index,
            options,
            epoch,
        }
    }

    /// The indoor space of this version.
    pub fn space(&self) -> &IndoorSpace {
        &self.space
    }

    /// The indoor space of this version, shared — a reference-counted
    /// handle for callers assembling derived states
    /// ([`EngineState::from_parts_at`]) without deep-copying the space.
    pub fn space_arc(&self) -> Arc<IndoorSpace> {
        Arc::clone(&self.space)
    }

    /// The object population of this version.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The composite index of this version.
    pub fn index(&self) -> &CompositeIndex {
        &self.index
    }

    /// The write epoch this version is the result of.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The query options configured at engine construction: every
    /// snapshot of this version uses them unless
    /// [`crate::Snapshot::with_options`] replaces them.
    pub fn options(&self) -> QueryOptions {
        self.options
    }

    /// Encodes this version's durable content as a checkpoint payload:
    /// space and store. The index is derived state (rebuilt on recovery);
    /// the epoch travels in the checkpoint header. Safe to call from any
    /// thread on any pinned version — versions are immutable, so
    /// checkpointing runs concurrently with committing writers.
    pub(crate) fn encode_checkpoint(&self) -> Vec<u8> {
        crate::wire::encode_checkpoint(&self.space, &self.store)
    }
}
