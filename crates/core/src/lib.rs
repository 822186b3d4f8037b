//! `IndoorEngine` — the integrated public API of the reproduction, served
//! concurrently.
//!
//! The engine fronts a **multi-writer** MVCC service: its state — the
//! [`idq_model::IndoorSpace`], the [`idq_objects::ObjectStore`] and the
//! [`idq_index::CompositeIndex`] — lives in an immutable, `Arc`-shared
//! [`EngineState`], and every committed write publishes a *new* version
//! via an epoch-stamped atomic swap (copy-on-write of the touched
//! layers). Concurrent writers clone a [`WriteHandle`]
//! ([`IndoorEngine::writer`]): batches stage in parallel on their
//! submitting threads, an epoch sequencer orders and conflict-checks
//! them, and concurrent submissions **group-commit** into shared epochs
//! (see `write`). Reads go through owned [`Snapshot`]s pinned to a version:
//! `Clone + Send + Sync`, so any number of threads execute typed
//! [`idq_query::Query`] sessions in parallel with an active writer, with
//! no locks held during evaluation:
//!
//! ```
//! use idq_core::{EngineConfig, IndoorEngine, Update};
//! use idq_geom::{Point2, Rect2};
//! use idq_model::{FloorPlanBuilder, IndoorPoint};
//! use idq_query::Query;
//!
//! let mut b = FloorPlanBuilder::new(4.0);
//! let a = b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
//! let c = b.add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0)).unwrap();
//! b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
//!
//! let mut engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
//! let insert = |x: f64, seed: u64| Update::InsertObjectAt {
//!     center: Point2::new(x, 5.0), floor: 0, radius: 1.0, instances: 8, seed,
//! };
//! let id = engine.apply(insert(15.0, 42)).unwrap().inserted_object().unwrap();
//! let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
//!
//! // One snapshot answers a whole wave of queries consistently; sharing
//! // the query point shares one door-distance Dijkstra across them. The
//! // snapshot is owned: clone it, send it to other threads, keep it —
//! // it stays pinned to its version while the writer commits.
//! let snapshot = engine.snapshot();
//! let outcomes = snapshot
//!     .execute_batch(&[Query::Range { q, r: 30.0 }, Query::Knn { q, k: 1 }])
//!     .unwrap();
//! assert_eq!(outcomes[0].as_range().unwrap().results[0].object, id);
//! assert_eq!(outcomes[1].as_knn().unwrap().results[0].object, id);
//!
//! // Reader threads use a service handle instead of borrowing the engine.
//! let service = engine.service();
//! let worker = std::thread::spawn(move || {
//!     service.execute(&Query::Range { q, r: 30.0 }).unwrap()
//! });
//! engine.apply(insert(18.0, 43)).unwrap();
//! worker.join().unwrap();
//! ```
//!
//! Writes mirror the read side: typed [`Update`]s through
//! [`IndoorEngine::apply`], or whole streams through
//! [`IndoorEngine::apply_batch`] — one atomic transaction whose
//! [`UpdateReport`] feeds standing queries. The first-class form of a
//! standing query is a [`Subscription`]
//! ([`IndoorService::subscribe`]): it yields the initial result at its
//! baseline epoch and one delta [`Notification`] per commit:
//!
//! ```
//! use idq_core::{EngineConfig, IndoorEngine, Update};
//! use idq_geom::{Point2, Rect2};
//! use idq_model::{FloorPlanBuilder, IndoorPoint};
//! use idq_query::Query;
//!
//! let mut b = FloorPlanBuilder::new(4.0);
//! let a = b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
//! let c = b.add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0)).unwrap();
//! b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
//! let mut engine = IndoorEngine::new(b.finish().unwrap(), EngineConfig::default()).unwrap();
//!
//! let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
//! let mut sub = engine.service().subscribe(Query::Range { q, r: 12.0 }).unwrap();
//! assert!(sub.initial().is_empty());
//!
//! // One atomic, amortized transaction; one epoch bump; one notification.
//! engine
//!     .apply_batch(&[
//!         Update::InsertObjectAt {
//!             center: Point2::new(8.0, 5.0), floor: 0, radius: 1.0, instances: 8, seed: 1,
//!         },
//!         Update::InsertObjectAt {
//!             center: Point2::new(18.0, 5.0), floor: 0, radius: 1.0, instances: 8, seed: 2,
//!         },
//!     ])
//!     .unwrap();
//! let n = sub.wait().unwrap().expect("one commit");
//! assert_eq!(n.changes.len(), 1); // only the near object entered
//! assert_eq!(sub.epoch(), engine.epoch());
//! ```

#![warn(unreachable_pub)]

mod durability;
mod engine;
mod error;
mod feed;
mod monitor;
mod service;
mod snapshot;
mod state;
#[cfg(test)]
mod testkit;
mod update;
mod wire;
mod write;

pub use durability::DurabilityOptions;
pub use engine::{EngineConfig, IndoorEngine};
pub use error::EngineError;
pub use feed::{CommitFeed, CommitRecord};
pub use monitor::MonitorExt;
pub use service::{IndoorService, Notification, Subscription};
pub use snapshot::Snapshot;
pub use state::EngineState;
pub use update::{Update, UpdateDelta, UpdateOutcome, UpdateReport, UpdateStats};
pub use wire::{decode_checkpoint, encode_batch, FORMAT};
pub use write::WriteHandle;
