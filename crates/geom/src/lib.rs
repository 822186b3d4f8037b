//! Geometry substrate for indoor distance-aware query evaluation.
//!
//! This crate provides the Euclidean building blocks used by the indoor-space
//! model, the composite index and the distance machinery of the ICDE 2013
//! paper *Efficient Distance-Aware Query Evaluation on Indoor Moving Objects*
//! (Xie, Lu, Pedersen):
//!
//! * [`Point2`] / [`Point3`] — planar and spatial points;
//! * [`Rect2`] — axis-aligned rectangles with min/max point distances;
//! * [`Mbr3`] — the 3D minimum bounding rectangles of the indR-tree tier,
//!   including the paper's "1 cm vertical extent" trick (§III-A.2);
//! * [`Circle`] — circular uncertainty regions (§V-A);
//! * [`Polygon`] — simple rectilinear polygons for irregular partitions;
//! * [`decompose()`](decompose::decompose) — the irregular-partition decomposition of Algorithm 3,
//!   producing quadratic index units bounded by the `T_shape` threshold;
//! * `bisector` — additive-weighted bisectors (Table II) used by the
//!   single-partition multi-path distance case (§II-C.2);
//! * [`IdMap`] / [`IdSet`] — the hash containers for every id-keyed map
//!   in the workspace (a folded-multiply hasher, seeded per process).
//!
//! The crate has no dependencies and is deliberately `f64`-based: indoor
//! coordinates are metres and all distances the paper manipulates are
//! non-negative reals.

#![warn(unreachable_pub)]

mod bisector;
mod circle;
mod decompose;
mod fp;
mod idmap;
mod mbr;
mod point;
mod polygon;
mod rect;
mod segment;

pub use bisector::{Side, WeightedBisector};
pub use circle::Circle;
pub use decompose::{decompose, decompose_rect, DecomposeConfig};
pub use fp::OrdF64;
pub use idmap::{IdMap, IdSet};
pub use mbr::Mbr3;
pub use point::{Point2, Point3};
pub use polygon::Polygon;
pub use rect::Rect2;
