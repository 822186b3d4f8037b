//! Uncertain indoor moving objects (§II-B of the paper).
//!
//! Indoor positioning (RFID, Wi-Fi, Bluetooth) reports object locations as
//! regions, not points. Following the paper we represent a moving object
//! `O` by a circular uncertainty region plus a discrete instance set
//! `{(s_i, p_i)}` with `Σ p_i = 1` — the instance representation is general
//! for arbitrary distributions (§II-B).
//!
//! * [`UncertainObject`] / [`Instance`] — the objects themselves;
//! * [`Subregions`] — the partition-aligned decomposition `O = ∪ S[j]`
//!   that the exact expected distance operates on, and its instance-free
//!   projection, the [`SubregionSummary`] list the bounds read. Each
//!   object version memoises its summary per partition layout
//!   ([`UncertainObject::subregion_summary`]), so bounds never read
//!   instances, plus one subregion slot per instance, so refinement
//!   rebuilds the full decomposition without point location
//!   ([`UncertainObject::subregions`]);
//! * [`GaussianSampler`] — the paper's instance generator (§V-A: 100
//!   samples, Gaussian around the region centre, σ = diameter/6);
//! * [`ObjectStore`] — the mutable population of objects, the ground truth
//!   beneath the index's object layer, sharded by floor ([`StoreShard`])
//!   so copy-on-write store versions share every untouched floor.

#![warn(unreachable_pub)]

mod error;
mod object;
mod sampler;
mod shards;
mod store;
mod subregion;

pub use error::ObjectError;
pub use object::{Instance, ObjectId, UncertainObject};
pub use sampler::GaussianSampler;
pub use shards::{FloorShards, Shard};
pub use store::{ObjectStore, StoreShard};
pub use subregion::{Subregion, SubregionSummary, Subregions};
