//! DPSS error type.

use std::fmt;

/// Errors returned by DPSS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpssError {
    /// The named dataset is not registered with the master.
    UnknownDataset(String),
    /// The client is not on the master's access-control list.
    AccessDenied(String),
    /// A read or seek went past the end of the dataset.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Dataset size.
        size: u64,
    },
    /// The referenced server does not exist in the cluster.
    UnknownServer(usize),
    /// A write payload did not match the physical request it claimed to
    /// service (previously an `assert!`, now a typed error).
    WriteSizeMismatch {
        /// Bytes the physical request covers.
        expected: u64,
        /// Bytes the caller supplied.
        actual: u64,
    },
    /// A physical request addressed bytes outside its block's stripe slot —
    /// servicing it would silently corrupt (or truncate into) a neighbouring
    /// block, so it is rejected up front.
    StripeViolation {
        /// Offset within the block where the request starts.
        in_block_offset: u64,
        /// Requested length.
        len: u64,
        /// The layout's block size.
        block_size: u64,
    },
    /// The file handle was already closed.
    Closed,
    /// The client's fetch thread for this server could not be started, or
    /// ended (panicked) before answering a read.
    FetchThreadGone(usize),
}

impl fmt::Display for DpssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpssError::UnknownDataset(name) => write!(f, "unknown dataset: {name}"),
            DpssError::AccessDenied(client) => write!(f, "access denied for client: {client}"),
            DpssError::OutOfBounds { offset, size } => {
                write!(f, "offset {offset} out of bounds for dataset of {size} bytes")
            }
            DpssError::UnknownServer(id) => write!(f, "unknown DPSS server {id}"),
            DpssError::WriteSizeMismatch { expected, actual } => {
                write!(f, "write payload of {actual} bytes does not match the {expected}-byte physical request")
            }
            DpssError::StripeViolation {
                in_block_offset,
                len,
                block_size,
            } => write!(
                f,
                "request for {len} bytes at in-block offset {in_block_offset} overruns the {block_size}-byte stripe slot"
            ),
            DpssError::Closed => write!(f, "file handle is closed"),
            DpssError::FetchThreadGone(id) => write!(f, "the client's fetch thread for DPSS server {id} is gone"),
        }
    }
}

impl std::error::Error for DpssError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(DpssError::UnknownDataset("x".into()).to_string().contains('x'));
        assert!(DpssError::OutOfBounds { offset: 10, size: 5 }
            .to_string()
            .contains("10"));
        assert!(DpssError::AccessDenied("viz".into()).to_string().contains("viz"));
    }
}
