//! Indoor distances for uncertain objects (§II of the paper) and the
//! shortest-path machinery that evaluates them **without pre-computed
//! door-to-door distances**.
//!
//! * [`DoorDistances`] — single/multi-source Dijkstra over the doors graph
//!   from a query point, optionally restricted to a candidate partition set
//!   (the query pipeline's *subgraph phase*);
//! * [`indoor_distance`] / [`shortest_path`] — the point-to-point indoor
//!   distance `|q,p|_I` of Eq. 1 and its witness door sequence `q ⇝ p`;
//! * `expected` — the expected indoor distance `|q,O|_I` (Def. 1) with
//!   the paper's three cases: single-partition single-path (Eq. 3, via
//!   additive-weighted bisectors), single-partition multi-path (Eq. 4) and
//!   multi-partition (Eq. 6);
//! * `bounds` — the pruning-bound family: topological upper/lower bounds
//!   (Lemmas 1–2 / Eq. 7), the Markov lower bound (Lemma 4), probabilistic bounds (Lemma 5 /
//!   Eq. 8) and the Table III dispatch;
//! * `cache` — the shared geometry-keyed [`DistanceCache`]: memoized
//!   per-door expansion rows composed into query contexts by
//!   [`DoorDistances::compute_banded`], reused bit-exactly across
//!   queries, subscriptions, dispatch, and history replay.

#![warn(unreachable_pub)]

mod bounds;
mod cache;
mod dijkstra;
mod error;
mod expected;
mod point_dist;

pub use bounds::{object_bounds, ObjectBounds};
pub use cache::{band_for, DistanceCache, DoorRow, RowFetch};
pub use dijkstra::DoorDistances;
pub use error::DistanceError;
pub use expected::{expected_indoor_distance, expected_indoor_distance_naive, ExpectedDistance};
pub use point_dist::{indoor_distance, shortest_path};

// `IndoorPoint` is deliberately NOT re-exported here: `idq_model` is its
// canonical crate and the single import path (`idq_model::IndoorPoint` /
// `indoor_dq::model::IndoorPoint`) keeps call sites coherent.
