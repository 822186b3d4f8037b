//! Synthetic workloads reproducing the paper's evaluation setup (§V-A).
//!
//! The paper evaluates on a real shopping-mall floor plan whose published
//! statistics are: floors of 600 m × 600 m × 4 m, 100 rooms and 4 corner
//! staircases per floor, hallways connecting everything; buildings of
//! 10/20/30 floors (≈1K/2K/3K partitions); 10K–30K objects with circular
//! uncertainty regions of radius 5/10/15 m sampled by 100 Gaussian
//! instances; 50 random query points per experiment.
//!
//! * [`BuildingConfig`] / [`generate_building`] — the parametric mall
//!   generator (see DESIGN.md for the substitution argument);
//! * [`ObjectConfig`] / [`generate_objects`] — uncertain-object populations;
//! * [`QueryPointConfig`] / [`generate_query_points`] — query workloads;
//! * [`UpdateStreamConfig`] / [`generate_update_stream`] — mixed typed
//!   update streams (position reports + door churn) for ingest benchmarks;
//! * [`SubscriptionSetConfig`] / [`generate_subscription_set`] — standing
//!   continuous-query fleets for the dispatch engine's routing benchmarks;
//! * `experiment` — paper-style table printing for the figure
//!   binaries.

#![warn(unreachable_pub)]

mod building;
mod defaults;
mod experiment;
mod objects;
mod queries;
mod subscriptions;
mod updates;

pub use building::{generate_building, BuildingConfig, GeneratedBuilding};
pub use defaults::PaperDefaults;
pub use experiment::SeriesTable;
pub use objects::{generate_objects, sample_one, ObjectConfig};
pub use queries::{generate_query_points, QueryPointConfig};
pub use subscriptions::{generate_subscription_set, SubscriptionSetConfig};
pub use updates::{generate_update_stream, UpdateStreamConfig};
