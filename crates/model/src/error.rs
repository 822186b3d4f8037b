//! Model-level errors.

use crate::ids::{DoorId, Floor, PartitionId};
use idq_geom::Point2;

/// Errors raised while constructing or mutating an indoor space.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// Unknown or out-of-range partition id.
    UnknownPartition(PartitionId),
    /// Unknown or out-of-range door id.
    UnknownDoor(DoorId),
    /// The partition was deleted earlier.
    PartitionInactive(PartitionId),
    /// The door was deleted earlier.
    DoorInactive(DoorId),
    /// A door must connect two distinct partitions.
    SelfLoopDoor(PartitionId),
    /// Door position does not lie on/in both partitions it connects.
    DoorOffBoundary {
        /// The offending door position.
        position: Point2,
        /// The partition that does not contain it.
        partition: PartitionId,
    },
    /// The door floor is outside a connected partition's floor interval.
    DoorFloorMismatch {
        /// The door's floor.
        floor: Floor,
        /// The partition whose interval excludes it.
        partition: PartitionId,
    },
    /// Two partitions share no common floor so a door floor is ambiguous or
    /// impossible.
    NoCommonFloor(PartitionId, PartitionId),
    /// Invalid polygon supplied for a footprint.
    BadFootprint(String),
    /// A split line misses the partition interior.
    BadSplit(PartitionId),
    /// Merge requires two same-floor, edge-adjacent partitions whose union
    /// is a valid footprint.
    BadMerge(PartitionId, PartitionId),
    /// Operation valid only on the given partition kind.
    WrongKind(PartitionId),
    /// Raw arenas no sequence of operations could have built
    /// ([`crate::IndoorSpace::from_wire_parts`]); names the violated
    /// invariant.
    InconsistentParts(&'static str),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            ModelError::UnknownDoor(d) => write!(f, "unknown door {d}"),
            ModelError::PartitionInactive(p) => write!(f, "partition {p} was deleted"),
            ModelError::DoorInactive(d) => write!(f, "door {d} was deleted"),
            ModelError::SelfLoopDoor(p) => {
                write!(
                    f,
                    "door must connect two distinct partitions, got {p} twice"
                )
            }
            ModelError::DoorOffBoundary {
                position,
                partition,
            } => {
                write!(f, "door at {position} does not touch partition {partition}")
            }
            ModelError::DoorFloorMismatch { floor, partition } => {
                write!(
                    f,
                    "door floor {floor} outside partition {partition}'s floors"
                )
            }
            ModelError::NoCommonFloor(a, b) => {
                write!(f, "partitions {a} and {b} share no common floor")
            }
            ModelError::BadFootprint(msg) => write!(f, "bad footprint: {msg}"),
            ModelError::BadSplit(p) => write!(f, "split line misses interior of {p}"),
            ModelError::BadMerge(a, b) => write!(f, "cannot merge {a} and {b}"),
            ModelError::WrongKind(p) => write!(f, "operation not valid for kind of {p}"),
            ModelError::InconsistentParts(what) => write!(f, "inconsistent space parts: {what}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = ModelError::DoorOffBoundary {
            position: Point2::new(1.0, 2.0),
            partition: PartitionId(3),
        };
        assert!(e.to_string().contains("P3"));
        assert!(ModelError::UnknownDoor(DoorId(9))
            .to_string()
            .contains("d9"));
    }
}
