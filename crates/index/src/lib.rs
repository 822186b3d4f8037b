//! The composite index for indoor spaces and moving objects (§III).
//!
//! Three layers, as in the paper's Figure 2:
//!
//! * **Geometric layer** — the `rtree` *tree tier* (an R\*-style tree over
//!   decomposed index units with the 1 cm vertical trick) and the
//!   `skeleton` *skeleton tier* (staircase-entrance graph + `M_s2s`
//!   matrix providing the geometric lower bound of Lemma 6 / Eq. 10);
//! * **Topological layer** — the doors graph integrated at the leaf level
//!   (inter-partition links) plus the `h-table` mapping index units to
//!   their partitions;
//! * **Object layer** — per-unit object buckets plus the `o-table` mapping
//!   each object to the units it overlaps, sharded by floor
//!   ([`object_layer::FloorShard`]) so copy-on-write index versions share
//!   every untouched floor's slice structurally.
//!
//! [`CompositeIndex`] ties the layers together, offers `RangeSearch`
//! (Algorithm 4), and maintains every layer incrementally under both
//! object updates and topology updates (§III-C) — the design the paper
//! contrasts with expensive door-to-door distance pre-computation.

#![warn(unreachable_pub)]

mod composite;
mod error;
mod object_layer;
mod rtree;
mod skeleton;
mod units;

pub use composite::{BuildStats, CompositeIndex, IndexConfig, RangeSearchOutcome};
pub use error::IndexError;
pub use object_layer::{FloorShard, ObjectLayer};
pub use rtree::{RTree, SearchStats};
pub use skeleton::SkeletonTier;
pub use units::{UnitId, UnitStore};
