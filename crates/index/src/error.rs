//! Index-layer errors.

use idq_model::PartitionId;
use idq_objects::ObjectId;

/// Errors raised by the composite index.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexError {
    /// The partition has no index units (not indexed / already removed).
    PartitionNotIndexed(PartitionId),
    /// The object is not present in the object layer.
    ObjectNotIndexed(ObjectId),
    /// The object is already present.
    ObjectAlreadyIndexed(ObjectId),
    /// An instance of the object lies outside every active partition, so
    /// no partition can list it (see [`crate::CompositeIndex::check_covered`]).
    Uncovered(ObjectId),
    /// The index no longer matches the space (apply the missing topology
    /// events or rebuild).
    StaleIndex {
        /// Version the index reflects.
        index_version: u64,
        /// Current space version.
        space_version: u64,
    },
    /// Propagated model error.
    Model(idq_model::ModelError),
    /// Propagated object error.
    Object(idq_objects::ObjectError),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::PartitionNotIndexed(p) => write!(f, "partition {p} is not indexed"),
            IndexError::ObjectNotIndexed(o) => write!(f, "object {o} is not indexed"),
            IndexError::ObjectAlreadyIndexed(o) => write!(f, "object {o} is already indexed"),
            IndexError::Uncovered(o) => {
                write!(f, "object {o} has an instance outside every partition")
            }
            IndexError::StaleIndex {
                index_version,
                space_version,
            } => write!(
                f,
                "index at space version {index_version}, space at {space_version}"
            ),
            IndexError::Model(e) => write!(f, "model error: {e}"),
            IndexError::Object(e) => write!(f, "object error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<idq_model::ModelError> for IndexError {
    fn from(e: idq_model::ModelError) -> Self {
        IndexError::Model(e)
    }
}

impl From<idq_objects::ObjectError> for IndexError {
    fn from(e: idq_objects::ObjectError) -> Self {
        IndexError::Object(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(IndexError::ObjectNotIndexed(ObjectId(3))
            .to_string()
            .contains("O3"));
        assert!(IndexError::StaleIndex {
            index_version: 1,
            space_version: 5
        }
        .to_string()
        .contains('5'));
    }
}
