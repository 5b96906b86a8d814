//! Error type for fabric operations.

use std::fmt;

/// Errors surfaced by the simulated fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MercuryError {
    /// The destination address was never registered with the fabric.
    AddressUnknown(String),
    /// A request did not receive a response within its timeout.
    Timeout,
    /// The local endpoint was shut down while the operation was in flight.
    LocalShutdown,
    /// The remote handler answered with an application-level error.
    Remote(String),
    /// A bulk-handle lookup failed (unknown id or revoked registration).
    BulkHandleInvalid(u64),
    /// A bulk transfer addressed bytes outside the registered region.
    BulkOutOfRange { offset: usize, len: usize, size: usize },
    /// The address string could not be parsed.
    BadAddress(String),
}

impl fmt::Display for MercuryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MercuryError::AddressUnknown(a) => write!(f, "unknown address: {a}"),
            MercuryError::Timeout => write!(f, "operation timed out"),
            MercuryError::LocalShutdown => write!(f, "local endpoint shut down"),
            MercuryError::Remote(msg) => write!(f, "remote error: {msg}"),
            MercuryError::BulkHandleInvalid(id) => write!(f, "invalid bulk handle {id}"),
            MercuryError::BulkOutOfRange { offset, len, size } => {
                write!(f, "bulk access [{offset}, {}) outside region of {size} bytes", offset + len)
            }
            MercuryError::BadAddress(a) => write!(f, "malformed address: {a}"),
        }
    }
}

impl std::error::Error for MercuryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MercuryError::BulkOutOfRange { offset: 10, len: 20, size: 16 };
        assert!(e.to_string().contains("[10, 30)"));
        assert!(MercuryError::Timeout.to_string().contains("timed out"));
    }
}
