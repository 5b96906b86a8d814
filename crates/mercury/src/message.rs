//! Wire-level message types exchanged through the fabric.
//!
//! A [`Message`] is either a request (expects a correlated response), a
//! response, or a one-way notification. Payloads are opaque byte buffers;
//! argument encoding is the business of upper layers (`mochi-margo`
//! serializes RPC inputs/outputs, mirroring Mercury's proc/serialization
//! split).

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::address::Address;
use crate::error::MercuryError;

/// Status of a response as seen by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Handler completed and produced the payload.
    Ok,
    /// Handler (or dispatcher) failed; the string is an error description.
    Error(String),
    /// No handler was registered for the requested RPC id / provider id.
    NoHandler,
    /// The handler's bulk transfer with the caller's region failed with
    /// this transport error: the caller sees it as its own.
    Transport(MercuryError),
}

/// Body of a request message.
#[derive(Debug, Clone)]
pub struct RequestBody {
    /// Identifies the RPC (hash of its name, Mercury-style).
    pub rpc_id: u64,
    /// Identifies the provider within the destination process.
    pub provider_id: u16,
    /// Correlation id; unique per outstanding request of the source.
    pub xid: u64,
    /// Calling context: the RPC id of the parent RPC, if this request was
    /// issued from within another handler (Listing 1 reports these).
    pub parent_rpc_id: u64,
    /// Calling context: provider id of the parent RPC.
    pub parent_provider_id: u16,
    /// Absolute deadline of the call chain, if one is in force. Carried
    /// in-memory (the simulated fabric shares one clock domain); a real
    /// transport would ship remaining-microseconds instead.
    pub deadline: Option<Instant>,
    /// Serialized input argument.
    pub payload: Bytes,
}

/// Body of a response message.
#[derive(Debug, Clone)]
pub struct ResponseBody {
    /// Correlation id copied from the request.
    pub xid: u64,
    /// Transport-visible status.
    pub status: ResponseStatus,
    /// Serialized output argument (empty on error).
    pub payload: Bytes,
}

/// Body of a one-way notification (no response expected).
#[derive(Debug, Clone)]
pub struct OneWayBody {
    /// Identifies the RPC (hash of its name).
    pub rpc_id: u64,
    /// Identifies the provider within the destination process.
    pub provider_id: u16,
    /// Serialized payload.
    pub payload: Bytes,
}

/// A message variant.
#[derive(Debug, Clone)]
pub enum Message {
    /// Expects a [`Message::Response`] with the same `xid`.
    Request(RequestBody),
    /// Response to an earlier request.
    Response(ResponseBody),
    /// Fire-and-forget notification.
    OneWay(OneWayBody),
}

impl Message {
    /// Payload size in bytes (used by the bandwidth model).
    pub fn payload_len(&self) -> usize {
        match self {
            Message::Request(r) => r.payload.len(),
            Message::Response(r) => r.payload.len(),
            Message::OneWay(o) => o.payload.len(),
        }
    }
}

/// A message together with its source and destination addresses.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender address, shared with the sending endpoint: the receiver
    /// hands the same allocation on to its handlers.
    pub source: Arc<Address>,
    /// Destination address.
    pub dest: Address,
    /// The message.
    pub message: Message,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_len_matches() {
        let m = Message::Request(RequestBody {
            rpc_id: 1,
            provider_id: 2,
            xid: 3,
            parent_rpc_id: u64::MAX,
            parent_provider_id: u16::MAX,
            deadline: None,
            payload: Bytes::from_static(b"hello"),
        });
        assert_eq!(m.payload_len(), 5);
        let m = Message::OneWay(OneWayBody { rpc_id: 1, provider_id: 0, payload: Bytes::new() });
        assert_eq!(m.payload_len(), 0);
    }
}
