//! Query-indexed standing-query dispatch — serving 100k+ subscriptions
//! by routing each commit only to the queries it can affect.
//!
//! The engine's original subscription path broadcast every commit's full
//! report to every standing query: O(subscriptions × commits) absorption
//! work and one consumer thread per query. This crate inverts that, the
//! way continuous-query systems index the **queries** rather than the
//! objects: every subscription's monitor carries a *footprint* — the
//! candidate partitions its standing query could ever draw members from,
//! the same restriction the range pipeline computes during filtering —
//! and a [`Dispatcher`] keeps an inverted partition → subscriptions index
//! over those footprints. A committed batch arrives as one
//! [`CommitDelta`]: the ids that changed and the index as it was before
//! the commit. The dispatcher derives the commit's routing footprint
//! itself — the partitions each moved or removed object occupied in that
//! earlier index, and those each inserted or moved object occupies in the
//! current one — and intersects it against the query index; only the
//! overlapping subscriptions absorb the delta, everyone else is skipped
//! with **zero** per-subscription work.
//!
//! Soundness of the skip: a commit can change a standing query's result
//! only by moving some object's expected distance across the query's
//! threshold (`r`, or the radius of a kNN monitor's kept boundary, which
//! moves only when the monitor re-queries), which requires an instance
//! within that threshold; the instance's partition then has a geometric
//! lower bound below the threshold and is — by the geometric lower bound
//! of the pipeline's filtering phase (the footprint *is* iRQ's filtering
//! call, `CompositeIndex::range_search` at the threshold; no false
//! negatives) — in the query's candidate set. The commit's routing
//! footprint contains every partition a changed object's instances
//! occupied before *or* after the batch, so a commit whose footprint is
//! disjoint from the query's provably leaves the result untouched.
//! Positions an object held only in the middle of a batch need not count:
//! monitors absorb the net delta, and every member lies in its query's
//! footprint at the previous version. Topology commits route to every
//! subscription (each re-queries, and every footprint is invalid), and
//! footprints are repaired afterwards.
//!
//! Delivery is decoupled from absorption: each subscription owns a
//! **bounded `Mailbox`** of precomputed [`DeltaMsg`]s. The dispatcher —
//! a single thread in the serving engine — absorbs deltas into the
//! monitors and pushes the resulting membership changes; a full mailbox
//! **coalesces** the new message into the newest queued one (membership
//! changes compose; opposite changes cancel) and marks it
//! [`DeltaMsg::lagged`], so a slow or absent consumer costs bounded
//! memory and never blocks the commit path.
//!
//! The crate is deliberately engine-agnostic: generic over the payload
//! `R` attached to each delivery (the serving engine attaches its
//! `Arc<UpdateReport>`), and depending only on the model/index/query
//! layers beneath it.

#![warn(unreachable_pub)]

mod dispatcher;
mod mailbox;

pub use dispatcher::{CommitDelta, DispatchStats, Dispatcher, StandingMonitor, SubId};
pub use mailbox::{DeltaMsg, MailboxReceiver};
