//! Distance-aware query evaluation on indoor moving objects (§IV).
//!
//! Two query types over uncertain objects, both defined on the *expected
//! indoor distance* (Def. 3 / Def. 4):
//!
//! * [`range_query`] — `iRQ(q, r)`: objects with `|q,O|_I ≤ r`
//!   (Algorithm 1);
//! * [`knn_query`] — `ikNNQ(q, k)`: the `k` objects with the smallest
//!   `|q,O|_I` (Algorithm 2), as one optimal multi-step search: a single
//!   min-heap of partitions and objects keyed by lower bounds, exact
//!   refinement when an object's best bound pops, and a stop at the first
//!   key above the k-th exact distance. Its door-distance context grows
//!   one band at a time as the keys rise.
//!
//! Both run the paper's four-phase pipeline — **filtering** (geometric
//! lower bounds through the composite index), **subgraph** (door
//! distances banded at the search radius plus slack, composed from
//! per-door expansion rows; for kNN, grown as the search needs), **pruning** (topological /
//! probabilistic bounds) and **refinement** (exact expected distances) —
//! and record per-phase timings plus pruning counters in [`QueryStats`]
//! (the raw material of the paper's Figures 12–14).
//!
//! [`QueryOptions`] exposes the evaluation's ablation switches
//! (`use_skeleton`, `use_pruning`), the subgraph slack discussed in
//! `bounds`' soundness note and the shared cache's byte budget; change
//! one with struct-update syntax or a helper such as
//! [`QueryOptions::without_pruning`]. The `naive` module provides the
//! brute-force oracle, and `precomputed` the door-to-door
//! pre-computation baseline the paper compares maintenance costs against
//! (Fig. 15(d)).
//!
//! The `session` module is the typed front door: a [`Query`] names any
//! of the four query kinds (range, kNN, distance, path), [`execute`]
//! evaluates one, and [`execute_batch`] evaluates many, one [`execute`]
//! each. Every [`Outcome`] carries [`QueryStats`]. Queries reuse work
//! across calls through the index's shared door-distance cache rows and
//! each object's memoised subregion summary (§VII's reuse proposal).
//!
//! Pruning never reads instances: it prices each object from
//! its subregion summary, memoised in the object per partition layout
//! ([`idq_objects::UncertainObject::subregion_summary`]). Only refinement
//! needs instance indices, and it rebuilds them from the same memo's
//! per-instance slots ([`idq_objects::UncertainObject::subregions`]).

#![warn(unreachable_pub)]

mod error;
mod iknn;
mod irq;
mod monitor;
mod naive;
mod options;
mod pipeline;
mod precomputed;
mod session;
mod stats;

pub use error::QueryError;
pub use iknn::{knn_query, KnnHit, KnnResult};
pub use irq::{range_query, RangeHit, RangeResult};
pub use monitor::{KnnMonitor, MonitorChange, MonitorWork, RangeMonitor};
pub use naive::{naive_knn, naive_range};
pub use options::QueryOptions;
pub use precomputed::PrecomputedD2D;
pub use session::{execute, execute_batch, DistanceResult, Outcome, PathResult, Query};
pub use stats::QueryStats;
