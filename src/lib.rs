//! # indoor-dq — distance-aware queries on indoor moving objects
//!
//! A from-scratch Rust implementation of the system described in
//! *Efficient Distance-Aware Query Evaluation on Indoor Moving Objects*
//! (Xie, Lu, Pedersen — ICDE 2013): indoor range queries (`iRQ`) and indoor
//! k-nearest-neighbour queries (`ikNNQ`) over uncertain moving objects in
//! dynamic indoor spaces, backed by a composite index (indR-tree tier,
//! skeleton tier, topological layer, object layer) and a family of indoor
//! distance bounds that avoid door-to-door distance pre-computation.
//!
//! The facade re-exports the component crates:
//!
//! * [`geom`] — geometry substrate (points, rectangles, polygons, bisectors,
//!   partition decomposition);
//! * [`model`] — the indoor space (partitions, directional doors,
//!   staircases, doors graph, temporal topology changes);
//! * [`objects`] — uncertain objects with instance-based PDFs;
//! * [`distance`] — indoor distances and pruning bounds;
//! * [`index`] — the composite index;
//! * [`query`] — the iRQ / ikNNQ processors and baselines;
//! * [`storage`] — the durability substrate (write-ahead log, epoch
//!   checkpoints, pluggable [`storage::StorageBackend`]s);
//! * [`core`] — [`core::IndoorEngine`], the integrated public API;
//! * [`history`] — bounded epoch retention, the `(x, y, time)`
//!   trajectory store and the historical query family
//!   ([`history::HistoryRecorder`], [`history::HistorySession`]);
//! * [`workloads`] — synthetic buildings, objects and query workloads
//!   reproducing the paper's evaluation setup.
//!
//! Each component crate exposes its API at its root
//! (`indoor_dq::index::SearchStats`, never a module path such as
//! `indoor_dq::index::rtree::SearchStats`); its modules are private.
//!
//! ## Quickstart
//!
//! Queries are typed [`query::Query`] values executed through a
//! [`core::Snapshot`] — an owned, consistent read view pinned to one
//! committed version of the engine (`Clone + Send + Sync`, so sessions
//! run from any thread in parallel with the writer; see
//! [`core::IndoorService`] and `examples/live_service.rs`). A batch runs
//! its queries one after another on one snapshot. See
//! `examples/quickstart.rs`; in short:
//!
//! ```
//! use indoor_dq::prelude::*;
//!
//! // A tiny two-room floor plan.
//! let mut builder = FloorPlanBuilder::new(4.0);
//! let a = builder.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
//! let b = builder.add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0)).unwrap();
//! builder.add_door_between(a, b, Point2::new(10.0, 5.0)).unwrap();
//! let space = builder.finish().unwrap();
//!
//! let mut engine = IndoorEngine::new(space, EngineConfig::default()).unwrap();
//! let o1 = engine
//!     .apply(Update::InsertObjectAt {
//!         center: Point2::new(18.0, 5.0), floor: 0, radius: 1.0, instances: 16, seed: 7,
//!     })
//!     .unwrap()
//!     .inserted_object()
//!     .unwrap();
//!
//! // One snapshot, three queries.
//! let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
//! let snapshot = engine.snapshot();
//! let outcomes = snapshot
//!     .execute_batch(&[
//!         Query::Range { q, r: 25.0 },
//!         Query::Range { q, r: 5.0 },
//!         Query::Knn { q, k: 1 },
//!     ])
//!     .unwrap();
//! assert_eq!(outcomes[0].as_range().unwrap().results[0].object, o1);
//! assert!(outcomes[1].as_range().unwrap().results.is_empty());
//! assert_eq!(outcomes[2].as_knn().unwrap().results[0].object, o1);
//! // The two range queries share a query point: the second composes its
//! // door distances from cache rows the first one expanded.
//! assert!(outcomes[1].stats().shared_cache_hits > 0);
//! ```

#![warn(unreachable_pub)]

/// Compiles and runs the README's Rust code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use idq_core as core;
pub use idq_distance as distance;
pub use idq_geom as geom;
pub use idq_history as history;
pub use idq_index as index;
pub use idq_model as model;
pub use idq_objects as objects;
pub use idq_query as query;
pub use idq_storage as storage;
pub use idq_workloads as workloads;

/// Convenience re-exports of the types most applications need.
pub mod prelude {
    pub use idq_core::{
        DurabilityOptions, EngineConfig, EngineError, IndoorEngine, IndoorService, MonitorExt,
        Notification, Snapshot, Subscription, Update, UpdateDelta, UpdateOutcome, UpdateReport,
        UpdateStats, WriteHandle,
    };
    pub use idq_geom::{Circle, Point2, Point3, Rect2};
    pub use idq_history::{
        HistoryError, HistoryOptions, HistoryOutcome, HistoryQuery, HistoryRecorder,
        HistorySession, HistoryStats,
    };
    pub use idq_index::CompositeIndex;
    pub use idq_model::{
        Direction, DoorId, FloorPlanBuilder, IndoorPoint, IndoorSpace, PartitionId, PartitionKind,
    };
    pub use idq_objects::{ObjectId, UncertainObject};
    pub use idq_query::{
        KnnResult, MonitorChange, Outcome, Query, QueryOptions, QueryStats, RangeMonitor,
        RangeResult,
    };
    pub use idq_storage::{FileBackend, MemBackend, StorageBackend, SyncPolicy};
    pub use idq_workloads::{BuildingConfig, ObjectConfig, QueryPointConfig, UpdateStreamConfig};
}
