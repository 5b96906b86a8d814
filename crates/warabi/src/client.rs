//! Warabi's client library: blob target handles.

#![deny(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use mochi_margo::{decode_framed, encode_framed, MargoError, MargoRuntime, Raw, Rpc};
use mochi_mercury::{Address, BulkAccess};
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::provider::rpc;
use crate::provider::{BulkArgs, ReadArgs, WriteHeader};
use crate::target::BlobId;

/// Transfers larger than this use the bulk (RDMA-model) path.
const BULK_THRESHOLD: u64 = 64 * 1024;

/// Handle to a remote blob target.
#[derive(Clone)]
pub struct TargetHandle {
    margo: MargoRuntime,
    address: Address,
    provider_id: u16,
    timeout: Duration,
}

impl TargetHandle {
    /// Creates a handle to the target served by `(address, provider_id)`.
    pub fn new(margo: &MargoRuntime, address: Address, provider_id: u16) -> Self {
        let timeout = margo.rpc_timeout();
        Self { margo: margo.clone(), address, provider_id, timeout }
    }

    /// Single chokepoint for typed RPCs: every forward in this client
    /// routes through here (or [`Self::call_raw`]) so retry, breaker, and
    /// deadline handling apply uniformly; `clippy.toml`'s
    /// `disallowed-methods` keeps every other forward out of this file.
    #[expect(clippy::disallowed_methods, reason = "the client's chokepoint")]
    fn call<I: Serialize, O: DeserializeOwned>(
        &self,
        rpc: Rpc<'static, I, O>,
        input: &I,
    ) -> Result<O, MargoError> {
        self.margo.forward_timeout(&self.address, rpc, self.provider_id, input, self.timeout)
    }

    /// Raw-payload counterpart of [`Self::call`] for framed data-plane
    /// RPCs.
    #[expect(clippy::disallowed_methods, reason = "the client's chokepoint")]
    fn call_raw(&self, rpc: Rpc<'static, Raw, Raw>, payload: Bytes) -> Result<Bytes, MargoError> {
        self.margo.forward_raw(&self.address, rpc, self.provider_id, payload, self.timeout)
    }

    /// Overrides the per-RPC timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Allocates a zero-filled blob.
    pub fn create(&self, size: u64) -> Result<BlobId, MargoError> {
        self.call(rpc::CREATE, &size)
    }

    /// Writes `data` at `offset`; large writes use the bulk path.
    pub fn write(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<(), MargoError> {
        if data.len() as u64 >= BULK_THRESHOLD {
            return self.write_bulk(id, offset, data);
        }
        let payload = encode_framed(&WriteHeader { id, offset }, data)?;
        let _ = self.call_raw(rpc::WRITE, payload)?;
        Ok(())
    }

    /// Writes through the bulk path explicitly.
    pub fn write_bulk(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<(), MargoError> {
        // leaf: the fabric copies out of it.
        let buffer = Arc::new(Mutex::new(data.to_vec()));
        let handle = self.margo.expose_bulk(Arc::clone(&buffer), BulkAccess::ReadOnly);
        let result = self.call(
            rpc::WRITE_BULK,
            &BulkArgs { id, offset, len: data.len() as u64, handle: handle.clone() },
        );
        self.margo.unexpose_bulk(&handle);
        result.map(|_| ())
    }

    /// Reads `len` bytes at `offset`; large reads use the bulk path.
    pub fn read(&self, id: BlobId, offset: u64, len: u64) -> Result<Vec<u8>, MargoError> {
        if len >= BULK_THRESHOLD {
            return self.read_bulk(id, offset, len);
        }
        let args = mochi_margo::encode(&ReadArgs { id, offset, len })?;
        let reply = self.call_raw(rpc::READ, args)?;
        let (len, body) = decode_framed::<u64>(&reply)?;
        if len as usize > body.len() {
            return Err(MargoError::Codec("read body truncated".into()));
        }
        Ok(body[..len as usize].to_vec())
    }

    /// Reads through the bulk path explicitly.
    pub fn read_bulk(&self, id: BlobId, offset: u64, len: u64) -> Result<Vec<u8>, MargoError> {
        // leaf: the fabric copies into it.
        let buffer = Arc::new(Mutex::new(vec![0u8; len as usize]));
        let handle = self.margo.expose_bulk(Arc::clone(&buffer), BulkAccess::WriteOnly);
        let result =
            self.call(rpc::READ_BULK, &BulkArgs { id, offset, len, handle: handle.clone() });
        self.margo.unexpose_bulk(&handle);
        result?;
        let data = Arc::try_unwrap(buffer)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone());
        Ok(data)
    }

    /// Size of a blob.
    pub fn size(&self, id: BlobId) -> Result<u64, MargoError> {
        self.call(rpc::SIZE, &id)
    }

    /// Forces a blob to durable storage.
    pub fn persist(&self, id: BlobId) -> Result<(), MargoError> {
        let _: bool = self.call(rpc::PERSIST, &id)?;
        Ok(())
    }

    /// Deletes a blob; returns whether it existed.
    pub fn erase(&self, id: BlobId) -> Result<bool, MargoError> {
        self.call(rpc::ERASE, &id)
    }

    /// Lists all blob ids.
    pub fn list(&self) -> Result<Vec<BlobId>, MargoError> {
        self.call(rpc::LIST, &())
    }
}
