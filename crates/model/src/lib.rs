//! Indoor space model: partitions, directional doors, staircases, the doors
//! graph, and temporal topology variation.
//!
//! This crate is the substrate beneath the composite index and the distance
//! machinery of the ICDE 2013 paper *Efficient Distance-Aware Query
//! Evaluation on Indoor Moving Objects*. It captures everything §II-A calls
//! the "atomic elements" of an indoor space:
//!
//! * [`Partition`] — rooms, hallways and staircases, with polygonal
//!   footprints aligned to floors;
//! * [`Door`] — connections between exactly two partitions, possibly
//!   one-directional (airport security style) and possibly closed;
//! * [`IndoorSpace`] — the building: partition/door arenas, point location,
//!   traversal predicates and intra-partition distances;
//! * [`DoorsGraph`] — the weighted graph over doors (§II-A), derived from
//!   the space rather than stored separately, with incremental maintenance;
//! * `topology` — temporal variation (§I, §III-C.1): opening/closing
//!   doors, inserting/deleting partitions, and splitting/merging rooms with
//!   sliding walls;
//! * [`FloorPlanBuilder`] — a validated fluent constructor used by tests,
//!   examples and the synthetic building generator.

#![warn(unreachable_pub)]

mod builder;
mod door;
mod doors_graph;
mod error;
mod ids;
mod partition;
mod point;
mod space;
mod topology;

pub use builder::FloorPlanBuilder;
pub use door::{Direction, Door, DoorKind};
pub use doors_graph::{DoorEdge, DoorsGraph};
pub use error::ModelError;
pub use ids::{DoorId, Floor, PartitionId};
pub use partition::{Partition, PartitionKind};
pub use point::IndoorPoint;
pub use space::IndoorSpace;
pub use topology::{DoorSpec, PartitionSpec, SplitLine, TopologyEvent};
