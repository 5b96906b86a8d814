//! Error type shared by the wire serializer and deserializer.

use std::fmt;

/// Failure while encoding to or decoding from the mochi wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended in the middle of a value.
    Eof,
    /// A complete value was decoded but bytes remain after it.
    TrailingBytes,
    /// An unknown type tag was encountered.
    InvalidTag(u8),
    /// A string run was not valid UTF-8.
    InvalidUtf8,
    /// A varint did not terminate within ten bytes or overflowed `u64`.
    VarintOverflow,
    /// An integer does not fit the representable range (e.g. `u128` above
    /// `u64::MAX`, or a negative run below `i64::MIN`).
    IntOutOfRange,
    /// Error reported by a `Serialize`/`Deserialize` implementation.
    Message(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::InvalidTag(tag) => write!(f, "invalid wire tag 0x{tag:02x}"),
            WireError::InvalidUtf8 => write!(f, "string run is not valid UTF-8"),
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::IntOutOfRange => write!(f, "integer out of representable range"),
            WireError::Message(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl serde::ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

impl serde::de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}
