//! Typed storage failures.
//!
//! Variants are `Clone + PartialEq` (mirroring the engine's `EngineError`
//! conventions) so they can ride inside engine errors and be asserted on
//! in tests. IO causes are captured as rendered strings: `std::io::Error`
//! is neither `Clone` nor `PartialEq`, and the rendered form is what a
//! recovery log needs anyway.

use std::fmt;

/// An error from the durability tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying backend operation failed (open, append, sync,
    /// rename, ...). `op` names the operation, `path` the file it
    /// targeted, `message` the rendered OS error.
    Io {
        op: &'static str,
        path: String,
        message: String,
    },
    /// A file exists but its contents fail structural or CRC validation
    /// somewhere other than a tolerated torn tail.
    Corrupt {
        path: String,
        offset: u64,
        reason: String,
    },
    /// A payload decoded from an otherwise-valid frame does not parse as
    /// the expected domain value. `what` names the value being decoded,
    /// `offset` is the byte position within the payload.
    Decode { what: &'static str, offset: usize },
    /// Recovery was requested but the backend holds no valid checkpoint.
    NoCheckpoint { path: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, message } => {
                write!(f, "storage io error during {op} on {path:?}: {message}")
            }
            StorageError::Corrupt {
                path,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "corrupt storage file {path:?} at byte {offset}: {reason}"
                )
            }
            StorageError::Decode { what, offset } => {
                write!(f, "failed to decode {what} at payload byte {offset}")
            }
            StorageError::NoCheckpoint { path } => {
                write!(f, "no valid checkpoint found in {path:?}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Wrap an `std::io::Error` from operation `op` on `path`.
    pub(crate) fn io(op: &'static str, path: &str, err: &std::io::Error) -> Self {
        StorageError::Io {
            op,
            path: path.to_string(),
            message: err.to_string(),
        }
    }
}
