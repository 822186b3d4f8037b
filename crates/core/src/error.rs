//! Engine-level error type unifying the layer errors.

/// Any error surfaced by [`crate::IndoorEngine`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// Indoor-space model error.
    Model(idq_model::ModelError),
    /// Object-layer error.
    Object(idq_objects::ObjectError),
    /// Index maintenance error.
    Index(idq_index::IndexError),
    /// Distance evaluation error.
    Distance(idq_distance::DistanceError),
    /// Query evaluation error.
    Query(idq_query::QueryError),
    /// The query kind cannot back a standing subscription. Range
    /// ([`idq_query::Query::Range`]) and kNN ([`idq_query::Query::Knn`])
    /// queries have incremental maintenance paths and subscribe fine;
    /// point-to-point distance and path queries have no object-dependent
    /// result to maintain — re-run those on a fresh snapshot instead.
    UnsupportedSubscription(idq_query::Query),
    /// An object update named a floor no partition of the space covers.
    /// Rejected up front: beyond being unanswerable by every query, an
    /// out-of-space floor would permanently grow the per-floor shard
    /// vectors of the copy-on-write state.
    FloorOutOfSpace {
        /// The floor the update named.
        floor: idq_model::Floor,
        /// Floors the space covers (valid floors are `0..num_floors`).
        num_floors: usize,
    },
    /// A partition deletion would leave an object instance outside every
    /// partition. Nothing committed; move or remove the object first.
    PartitionOccupied {
        /// The partition the update tried to delete.
        partition: idq_model::PartitionId,
        /// An object with an instance only that partition contains.
        object: idq_objects::ObjectId,
    },
    /// A durability operation failed: the write-ahead log or a checkpoint
    /// could not be written. The failing commit did **not** publish — the
    /// in-memory state still matches what is durable.
    Storage {
        /// Where the storage backend lives (directory path, or the
        /// in-memory backend's label).
        path: String,
        /// The epoch being made durable when the failure hit.
        epoch: u64,
        /// The underlying storage failure
        /// ([`std::error::Error::source`] exposes it).
        cause: idq_storage::StorageError,
    },
    /// Crash recovery failed: the checkpoint or log suffix exists but
    /// could not be turned back into a consistent engine (corruption past
    /// the torn tail, an epoch gap, or a replay that diverged from the
    /// logged outcomes).
    Recovery {
        /// Where the storage backend lives.
        path: String,
        /// The epoch recovery was processing when it failed.
        epoch: u64,
        /// The underlying failure
        /// ([`std::error::Error::source`] exposes it).
        cause: idq_storage::StorageError,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "{e}"),
            EngineError::Object(e) => write!(f, "{e}"),
            EngineError::Index(e) => write!(f, "{e}"),
            EngineError::Distance(e) => write!(f, "{e}"),
            EngineError::Query(e) => write!(f, "{e}"),
            EngineError::UnsupportedSubscription(q) => {
                write!(
                    f,
                    "standing subscription requires a range or kNN query \
                     (distance and path queries have no incremental \
                     maintenance path), got {q}"
                )
            }
            EngineError::FloorOutOfSpace { floor, num_floors } => {
                write!(
                    f,
                    "floor {floor} is outside the space (covers {num_floors} floor(s))"
                )
            }
            EngineError::PartitionOccupied { partition, object } => {
                write!(
                    f,
                    "partition {partition} still hosts an instance of object {object}"
                )
            }
            EngineError::Storage { path, epoch, .. } => {
                write!(f, "durability failure at {path} (epoch {epoch})")
            }
            EngineError::Recovery { path, epoch, .. } => {
                write!(f, "recovery failure at {path} (epoch {epoch})")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage { cause, .. } | EngineError::Recovery { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<idq_model::ModelError> for EngineError {
    fn from(e: idq_model::ModelError) -> Self {
        EngineError::Model(e)
    }
}
impl From<idq_objects::ObjectError> for EngineError {
    fn from(e: idq_objects::ObjectError) -> Self {
        EngineError::Object(e)
    }
}
impl From<idq_index::IndexError> for EngineError {
    fn from(e: idq_index::IndexError) -> Self {
        EngineError::Index(e)
    }
}
impl From<idq_distance::DistanceError> for EngineError {
    fn from(e: idq_distance::DistanceError) -> Self {
        EngineError::Distance(e)
    }
}
impl From<idq_query::QueryError> for EngineError {
    fn from(e: idq_query::QueryError) -> Self {
        EngineError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = idq_query::QueryError::ZeroK.into();
        assert!(e.to_string().contains('1'));
        let e: EngineError =
            idq_model::ModelError::UnknownPartition(idq_model::PartitionId(2)).into();
        assert!(e.to_string().contains("P2"));
    }

    #[test]
    fn storage_errors_expose_their_source() {
        use std::error::Error;
        let cause = idq_storage::StorageError::Corrupt {
            path: "wal-0000000000000000.log".into(),
            offset: 16,
            reason: "crc mismatch".into(),
        };
        let e = EngineError::Storage {
            path: "/var/lib/idq".into(),
            epoch: 42,
            cause: cause.clone(),
        };
        assert!(e.to_string().contains("/var/lib/idq"));
        assert!(e.to_string().contains("42"));
        let src = e.source().expect("storage errors carry a source");
        assert!(src.to_string().contains("crc mismatch"));
        let e = EngineError::Recovery {
            path: "mem".into(),
            epoch: 7,
            cause,
        };
        assert!(e.source().is_some());
        assert!(matches!(e, EngineError::Recovery { epoch: 7, .. }));
    }
}
