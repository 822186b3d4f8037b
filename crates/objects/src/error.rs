//! Object-layer errors.

use crate::object::ObjectId;

/// Errors raised by object construction and the object store.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjectError {
    /// An object must have at least one instance.
    EmptyInstances,
    /// Instance weights must be positive and sum to 1 (within tolerance).
    BadWeights {
        /// The offending sum.
        sum: f64,
    },
    /// Instance coordinates must be finite.
    NonFiniteInstance(usize),
    /// Unknown object id.
    UnknownObject(ObjectId),
    /// The object id already exists in the store.
    DuplicateObject(ObjectId),
    /// No partition could host an instance (point is outside the building).
    NoHostPartition,
    /// The uncertainty radius must be non-negative and finite.
    BadRadius(f64),
    /// A sampled insert asked for more instances than one object may hold.
    TooManyInstances(usize),
}

impl std::fmt::Display for ObjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectError::EmptyInstances => write!(f, "object has no instances"),
            ObjectError::BadWeights { sum } => {
                write!(f, "instance weights sum to {sum}, expected 1")
            }
            ObjectError::NonFiniteInstance(i) => write!(f, "instance {i} is non-finite"),
            ObjectError::UnknownObject(id) => write!(f, "unknown object {id}"),
            ObjectError::DuplicateObject(id) => write!(f, "object {id} already exists"),
            ObjectError::NoHostPartition => {
                write!(f, "no partition can host the object's instances")
            }
            ObjectError::BadRadius(r) => write!(f, "invalid object radius {r}"),
            ObjectError::TooManyInstances(n) => {
                write!(f, "{n} instances requested for one object")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(ObjectError::BadWeights { sum: 0.5 }
            .to_string()
            .contains("0.5"));
        assert!(ObjectError::UnknownObject(ObjectId(7))
            .to_string()
            .contains("O7"));
        assert!(ObjectError::BadRadius(-1.0).to_string().contains("-1"));
        assert!(ObjectError::TooManyInstances(1 << 40)
            .to_string()
            .contains("1099511627776 instances"));
    }
}
