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
    /// Base query options configured at engine construction.
    pub(crate) options: QueryOptions,
    /// Largest uncertainty radius ever inserted, used to widen the
    /// subgraph slack of the effective options.
    pub(crate) max_radius: f64,
    /// The write epoch this state is the result of (0 for the initial
    /// population).
    pub(crate) epoch: u64,
}

impl EngineState {
    /// Assembles a state from bare layers at epoch 0 (benchmark harnesses;
    /// engine-produced states carry their commit epoch). Costs three
    /// pointer moves: the store is *not* scanned, so
    /// [`EngineState::effective_options`] of a bare-parts state is just
    /// `options` — harnesses size their options explicitly (e.g. with
    /// [`QueryOptions::for_max_radius`]).
    pub fn from_parts(
        space: Arc<IndoorSpace>,
        store: Arc<ObjectStore>,
        index: Arc<CompositeIndex>,
        options: QueryOptions,
    ) -> Self {
        EngineState {
            space,
            store,
            index,
            options,
            max_radius: 0.0,
            epoch: 0,
        }
    }

    /// Assembles a state from bare layers **at a given epoch** with an
    /// explicit `max_radius` high-water mark — the reconstruction
    /// constructor: `idq-history` rebuilds retained epochs through this so
    /// a reconstructed version carries the same epoch stamp, checkpoint
    /// bytes ([`crate::Snapshot::encode_checkpoint`]) and effective query
    /// options as the live version the engine once published. Like
    /// [`EngineState::from_parts`], the store is not scanned: the caller
    /// supplies the high-water mark it recorded.
    pub fn from_parts_at(
        space: Arc<IndoorSpace>,
        store: Arc<ObjectStore>,
        index: Arc<CompositeIndex>,
        options: QueryOptions,
        max_radius: f64,
        epoch: u64,
    ) -> Self {
        EngineState {
            space,
            store,
            index,
            options,
            max_radius,
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

    /// The base query options configured at engine construction — the
    /// input [`EngineState::effective_options`] widens. Reconstruction
    /// ([`EngineState::from_parts_at`]) takes the base, not the effective
    /// form, so the widening replays from the recorded `max_radius`.
    pub fn base_options(&self) -> QueryOptions {
        self.options
    }

    /// The largest uncertainty-region radius ever inserted up to this
    /// version (a high-water mark: monotone across epochs, not derivable
    /// from the live population).
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// The effective default query options of this version: the base
    /// options with the subgraph slack widened to the largest uncertainty
    /// region ever inserted.
    pub fn effective_options(&self) -> QueryOptions {
        Self::effective_options_for(self.options, self.max_radius)
    }

    /// The widening rule behind [`EngineState::effective_options`], usable
    /// without a state: base options with the subgraph slack widened to a
    /// given radius high-water mark. History replay re-derives per-epoch
    /// effective options through this so reconstructed answers use exactly
    /// the options the live engine used at that epoch.
    pub fn effective_options_for(options: QueryOptions, max_radius: f64) -> QueryOptions {
        let by_radius = QueryOptions::for_max_radius(max_radius);
        QueryOptions {
            subgraph_slack: options.subgraph_slack.max(by_radius.subgraph_slack),
            ..options
        }
    }

    /// Encodes this version's durable content as a checkpoint payload:
    /// space, store, and the `max_radius` high-water mark. The index is
    /// derived state (rebuilt on recovery); the epoch travels in the
    /// checkpoint header. Safe to call from any thread on any pinned
    /// version — versions are immutable, so checkpointing runs
    /// concurrently with committing writers.
    pub(crate) fn encode_checkpoint(&self) -> Vec<u8> {
        crate::wire::encode_checkpoint(&self.space, &self.store, self.max_radius)
    }
}
