//! Query-layer errors.

/// Errors raised during query evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// Propagated index error (stale index, unknown object…).
    Index(idq_index::IndexError),
    /// Propagated distance error (query outside the building…).
    Distance(idq_distance::DistanceError),
    /// Propagated object error.
    Object(idq_objects::ObjectError),
    /// `k` must be positive.
    ZeroK,
    /// The range must be non-negative and finite.
    BadRange(f64),
    /// `QueryOptions::subgraph_slack` must be non-negative and finite.
    BadSlack(f64),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Index(e) => write!(f, "index error: {e}"),
            QueryError::Distance(e) => write!(f, "distance error: {e}"),
            QueryError::Object(e) => write!(f, "object error: {e}"),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
            QueryError::BadRange(r) => write!(f, "invalid query range {r}"),
            QueryError::BadSlack(s) => write!(f, "invalid subgraph slack {s}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<idq_index::IndexError> for QueryError {
    fn from(e: idq_index::IndexError) -> Self {
        QueryError::Index(e)
    }
}

impl From<idq_distance::DistanceError> for QueryError {
    fn from(e: idq_distance::DistanceError) -> Self {
        QueryError::Distance(e)
    }
}

impl From<idq_objects::ObjectError> for QueryError {
    fn from(e: idq_objects::ObjectError) -> Self {
        QueryError::Object(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(QueryError::ZeroK.to_string().contains('1'));
        assert!(QueryError::BadRange(-3.0).to_string().contains("-3"));
        assert!(QueryError::BadSlack(f64::NAN).to_string().contains("NaN"));
    }
}
