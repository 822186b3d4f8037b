//! The historical query family's error type.

use idq_core::EngineError;

/// Any error surfaced by the history ring and its query family.
///
/// The central contract is that retention limits surface as **typed
/// errors, never as wrong answers**: a window that touches epochs the
/// ring has evicted fails with [`HistoryError::Evicted`] instead of
/// silently answering from the partial tail it still holds.
#[derive(Clone, Debug, PartialEq)]
pub enum HistoryError {
    /// The window names an epoch older than the ring retains. The answer
    /// over the surviving suffix would be silently partial, so no answer
    /// is given; re-issue the query clamped to `oldest_retained`.
    Evicted {
        /// The requested epoch that fell out of retention.
        requested: u64,
        /// The oldest epoch the ring can still reconstruct.
        oldest_retained: u64,
    },
    /// The window names an epoch the recorder has not absorbed yet —
    /// either genuinely in the future, or committed but still in the
    /// recorder's queue (`HistoryRecorder::sync` drains it).
    FutureEpoch {
        /// The requested epoch past the ring's newest.
        requested: u64,
        /// The newest epoch the ring has absorbed.
        newest: u64,
    },
    /// The window is inverted (`from > to`).
    EmptyWindow {
        /// Window start.
        from: u64,
        /// Window end (exclusive of nothing — windows are inclusive).
        to: u64,
    },
    /// The engine's retention feed was already taken — at most one
    /// `HistoryRecorder` per engine, for its whole life.
    AlreadyAttached,
    /// Replay or historical query evaluation failed in an engine layer
    /// ([`std::error::Error::source`] exposes it).
    Engine(EngineError),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Evicted {
                requested,
                oldest_retained,
            } => write!(
                f,
                "epoch {requested} is out of retention (oldest retained epoch is {oldest_retained})"
            ),
            HistoryError::FutureEpoch { requested, newest } => write!(
                f,
                "epoch {requested} is not recorded yet (newest recorded epoch is {newest})"
            ),
            HistoryError::EmptyWindow { from, to } => {
                write!(f, "inverted history window [{from}, {to}]")
            }
            HistoryError::AlreadyAttached => {
                write!(f, "the engine already has a retention consumer attached")
            }
            HistoryError::Engine(e) => write!(f, "historical replay failed: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HistoryError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for HistoryError {
    fn from(e: EngineError) -> Self {
        HistoryError::Engine(e)
    }
}
impl From<idq_query::QueryError> for HistoryError {
    fn from(e: idq_query::QueryError) -> Self {
        HistoryError::Engine(e.into())
    }
}
impl From<idq_objects::ObjectError> for HistoryError {
    fn from(e: idq_objects::ObjectError) -> Self {
        HistoryError::Engine(e.into())
    }
}
impl From<idq_index::IndexError> for HistoryError {
    fn from(e: idq_index::IndexError) -> Self {
        HistoryError::Engine(e.into())
    }
}
