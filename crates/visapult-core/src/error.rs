//! The crate-wide error type.

use std::fmt;

/// Errors raised while running a Visapult pipeline.
#[derive(Debug)]
pub enum VisapultError {
    /// A storage-cache operation failed.
    Dpss(dpss::DpssError),
    /// A wire-protocol decode failed.
    Protocol(String),
    /// An I/O error (sockets, files).
    Io(std::io::Error),
    /// A configuration error detected before running.
    Config(String),
    /// Bytes read for a volume did not decode to it.
    Decode(volren::ByteCountMismatch),
}

impl fmt::Display for VisapultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisapultError::Dpss(e) => write!(f, "DPSS error: {e}"),
            VisapultError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            VisapultError::Io(e) => write!(f, "I/O error: {e}"),
            VisapultError::Config(msg) => write!(f, "configuration error: {msg}"),
            VisapultError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for VisapultError {}

/// The error a panic in `who` becomes ("`who` panicked: message"), so the
/// caller reports it instead of going down with it.
pub(crate) fn panicked(who: &str, payload: &(dyn std::any::Any + Send)) -> VisapultError {
    VisapultError::Io(std::io::Error::other(crate::viewer::panic_detail(who, payload)))
}

impl From<dpss::DpssError> for VisapultError {
    fn from(e: dpss::DpssError) -> Self {
        VisapultError::Dpss(e)
    }
}

impl From<volren::ByteCountMismatch> for VisapultError {
    fn from(e: volren::ByteCountMismatch) -> Self {
        VisapultError::Decode(e)
    }
}

impl From<std::io::Error> for VisapultError {
    fn from(e: std::io::Error) -> Self {
        VisapultError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: VisapultError = dpss::DpssError::Closed.into();
        assert!(e.to_string().contains("DPSS"));
        let e: VisapultError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(VisapultError::Config("bad".into()).to_string().contains("bad"));
        assert!(VisapultError::Protocol("short".into()).to_string().contains("short"));
        let e: VisapultError = volren::ByteCountMismatch {
            dims: (2, 2, 2),
            bytes: 31,
        }
        .into();
        assert!(e.to_string().contains("31 bytes"));
    }
}
