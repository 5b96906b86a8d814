//! RPC identifiers, handler types, and the handler-side context.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use mochi_mercury::{Address, BulkAccess, BulkHandle, RequestInfo, ResponseStatus};
use mochi_util::crc32;

use crate::codec;
use crate::error::MargoError;
use crate::monitoring::MonitoringEvent;
use crate::runtime::MargoRuntime;

/// Derives the numeric RPC id from its name, Mercury-style (a CRC of the
/// name string). `echo`-like names land in the u32 range, matching the
/// `rpc_id` values of Listing 1.
pub fn rpc_id_for_name(name: &str) -> u64 {
    crc32(name.as_bytes()) as u64
}

/// A registered RPC handler. Runs inside a ULT in the pool chosen at
/// registration time; must eventually call [`RpcContext::respond`] or
/// [`RpcContext::respond_err`] (requests a caller waits on), unless the
/// message was one-way.
pub type RpcHandler = Arc<dyn Fn(RpcContext) + Send + Sync>;

/// Everything a handler needs: the request, the runtime (for nested calls
/// and bulk transfers), and the response channel.
pub struct RpcContext {
    pub(crate) margo: MargoRuntime,
    pub(crate) request: RequestInfo,
    pub(crate) rpc_name: Arc<str>,
    pub(crate) responded: AtomicBool,
    pub(crate) oneway: bool,
}

impl RpcContext {
    /// Deserializes the request payload.
    pub fn args<T: DeserializeOwned>(&self) -> Result<T, MargoError> {
        codec::decode(&self.request.payload)
    }

    /// Raw request payload.
    pub fn payload(&self) -> &[u8] {
        &self.request.payload
    }

    /// Raw request payload as a shared [`Bytes`] handle — providers that
    /// frame their payloads ([`crate::frame::decode_framed`]) use this so
    /// body slices stay zero-copy views of the request buffer.
    pub fn payload_bytes(&self) -> &Bytes {
        &self.request.payload
    }

    /// Address of the requester.
    pub fn source(&self) -> &Address {
        &self.request.source
    }

    /// Name of this RPC.
    pub fn rpc_name(&self) -> &str {
        &self.rpc_name
    }

    /// Hashed id of this RPC.
    pub fn rpc_id(&self) -> u64 {
        self.request.rpc_id
    }

    /// Provider id this request targets.
    pub fn provider_id(&self) -> u16 {
        self.request.provider_id
    }

    /// The runtime this handler runs in. Its forwards, made while the
    /// handler runs, are nested calls of this RPC: they carry it as
    /// parent and its caller's deadline.
    pub fn margo(&self) -> &MargoRuntime {
        &self.margo
    }

    /// Serializes `output` and answers the request. Subsequent calls (and
    /// calls for one-way messages) are no-ops returning `Ok`.
    pub fn respond<T: Serialize>(&self, output: &T) -> Result<(), MargoError> {
        let payload = codec::encode(output)?;
        self.respond_raw(ResponseStatus::Ok, payload)
    }

    /// Answers the request with an application-level error.
    pub fn respond_err(&self, message: impl Into<String>) -> Result<(), MargoError> {
        self.respond_raw(ResponseStatus::Error(message.into()), Bytes::new())
    }

    /// Answers the request with a raw payload (no JSON encoding) — the
    /// data-plane counterpart of [`RpcContext::respond`], used with
    /// [`crate::frame`] framing.
    pub fn respond_bytes(&self, payload: Bytes) -> Result<(), MargoError> {
        self.respond_raw(ResponseStatus::Ok, payload)
    }

    fn respond_raw(&self, status: ResponseStatus, payload: Bytes) -> Result<(), MargoError> {
        if self.oneway || self.responded.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        let payload_size = payload.len();
        self.margo.endpoint().respond(&self.request, status, payload)?;
        self.margo.emit(&MonitoringEvent::ResponseSent {
            identity: &self.margo.identity_for(
                self.request.rpc_id,
                &self.rpc_name,
                self.request.provider_id,
                self.request.context,
            ),
            dest: &self.request.source,
            payload_size,
        });
        Ok(())
    }

    /// Exposes a local buffer for the requester (or anyone) to bulk-access.
    pub fn expose_bulk(&self, buffer: Arc<Mutex<Vec<u8>>>, access: BulkAccess) -> BulkHandle {
        self.margo.endpoint().expose_bulk(buffer, access)
    }

    /// Pulls data described by a remote bulk handle into a local buffer,
    /// recording the transfer in the monitoring stream.
    pub fn bulk_pull(
        &self,
        remote: &BulkHandle,
        remote_offset: usize,
        local: &BulkHandle,
        local_offset: usize,
        len: usize,
    ) -> Result<(), MargoError> {
        self.margo.bulk_pull(remote, remote_offset, local, local_offset, len)
    }

    /// Pushes local data into a remote bulk region, recording the transfer.
    pub fn bulk_push(
        &self,
        local: &BulkHandle,
        local_offset: usize,
        remote: &BulkHandle,
        remote_offset: usize,
        len: usize,
    ) -> Result<(), MargoError> {
        self.margo.bulk_push(local, local_offset, remote, remote_offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_id_is_stable_and_u32_ranged() {
        let a = rpc_id_for_name("echo");
        let b = rpc_id_for_name("echo");
        let c = rpc_id_for_name("echo2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a <= u32::MAX as u64);
    }

    #[test]
    fn distinct_names_rarely_collide() {
        use std::collections::HashSet;
        let names: Vec<String> = (0..1000).map(|i| format!("component_{i}_op")).collect();
        let ids: HashSet<u64> = names.iter().map(|n| rpc_id_for_name(n)).collect();
        assert_eq!(ids.len(), names.len());
    }
}
