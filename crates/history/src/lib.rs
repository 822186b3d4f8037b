//! # idq-history
//!
//! Bounded epoch retention, an `(x, y, time)` trajectory store, and a
//! historical query family for the indoor MVCC engine.
//!
//! The live engine answers "where is everything **now**"; this crate
//! answers "where was everything **then**" — without slowing the writers
//! that keep "now" moving:
//!
//! * **Commit-feed consumer.** [`HistoryRecorder::attach`] takes the
//!   retention end of the engine's commit feed
//!   ([`idq_core::CommitFeed`], the same queue type standing-query
//!   dispatch drains). The sequencer enqueues in its serial section, so
//!   records arrive in strict epoch order — and enqueueing is all it
//!   does; all retention work happens on the recorder's own thread,
//!   keeping the write path's overhead to a queue push and a snapshot
//!   pin.
//! * **Delta-compressed ring.** Each commit group is retained as its net
//!   delta (upserted objects `Arc`-shared with the version's own store —
//!   pointers, not copies) with periodic **keyframes**: full pinned
//!   snapshots, forced on topology changes. Any retained epoch replays
//!   from the nearest keyframe through the same store/index maintenance
//!   the live engine uses, making reconstruction **bit-identical**
//!   (checkpoint-byte equal) to the version the engine once published.
//!   Retention is bounded by epoch count *and* approximate bytes
//!   ([`HistoryOptions`]); eviction drops whole keyframe groups and is
//!   surfaced as typed [`HistoryError::Evicted`] — never a silently
//!   partial answer.
//! * **Trajectory store.** Object movement is decomposed into resting
//!   `Segment`s (footprint rect × epoch interval) kept in one
//!   time-ordered arena with exact per-object and per-partition side
//!   tables; [`HistoryQuery::RangeDuring`]'s "anything nearby at all?"
//!   prefilter is a scan of it.
//! * **Query family** ([`HistoryQuery`], evaluated on a
//!   [`HistorySession`] — a frozen view of the retained window):
//!   [`HistoryQuery::RangeDuring`] (who crossed a region during a
//!   window, via a standing monitor walked across the delta stream),
//!   [`HistoryQuery::Trajectory`] (where an object was),
//!   [`HistoryQuery::KnnAt`] (nearest neighbours at a past epoch, on the
//!   reconstructed version), and [`HistoryQuery::Together`] (MOIST-style
//!   co-movement over shared partition sequences).
//!
//! ```no_run
//! use idq_history::{HistoryOptions, HistoryQuery, HistoryRecorder};
//! # fn demo(engine: &idq_core::IndoorEngine) -> Result<(), Box<dyn std::error::Error>> {
//! let recorder = HistoryRecorder::attach(engine, HistoryOptions::default())?;
//! // ... commit updates through the engine as usual ...
//! recorder.sync(); // drain the queue before reading
//! let session = recorder.session();
//! let at = session.reconstruct(session.newest())?; // a pinned past version
//! # let _ = at; Ok(()) }
//! ```

#![warn(unreachable_pub)]

mod error;
mod index3d;
mod options;
mod recorder;
mod ring;
mod session;

pub use error::HistoryError;
pub use options::{HistoryOptions, HistoryStats};
pub use recorder::HistoryRecorder;
pub use ring::DeltaRecord;
pub use session::{Companion, HistoryOutcome, HistoryQuery, HistorySession, TrajectorySpan};
