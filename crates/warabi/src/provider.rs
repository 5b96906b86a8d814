//! The Warabi provider: serves a [`BlobTarget`] over Margo RPCs, with an
//! inline path for small transfers and a bulk (RDMA-model) path for
//! large ones.

#![deny(clippy::disallowed_methods)]

use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use mochi_margo::{decode_framed, encode_framed, MargoError, MargoRuntime, RpcContext};
use mochi_mercury::{BulkAccess, BulkHandle};
use parking_lot::Mutex;

use crate::target::{BlobId, BlobTarget};

/// RPCs registered by a Warabi provider.
/// The declarations themselves live in [`crate::rpc_names`].
pub use crate::rpc_names as rpc;

/// Framed header of inline `WRITE` (body = data).
#[derive(Debug, Serialize, Deserialize)]
pub struct WriteHeader {
    /// Target blob.
    pub id: BlobId,
    /// Write offset.
    pub offset: u64,
}

/// Arguments of inline `READ`.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReadArgs {
    /// Target blob.
    pub id: BlobId,
    /// Read offset.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// Arguments of the bulk transfer RPCs.
#[derive(Debug, Serialize, Deserialize)]
pub struct BulkArgs {
    /// Target blob.
    pub id: BlobId,
    /// Offset within the blob.
    pub offset: u64,
    /// Bytes to transfer.
    pub len: u64,
    /// Client-exposed region (readable for `WRITE_BULK`, writable for
    /// `READ_BULK`).
    pub handle: BulkHandle,
}

/// A registered Warabi provider.
pub struct WarabiProvider {
    margo: MargoRuntime,
    provider_id: u16,
    target: Arc<dyn BlobTarget>,
}

impl WarabiProvider {
    /// Registers a provider serving `target` under `provider_id`.
    pub fn register(
        margo: &MargoRuntime,
        provider_id: u16,
        pool: Option<&str>,
        target: Arc<dyn BlobTarget>,
    ) -> Result<Arc<Self>, MargoError> {
        let t = Arc::clone(&target);
        margo.register_typed(rpc::CREATE, provider_id, pool, move |size: u64, _| {
            t.create(size).map_err(|e| e.to_string())
        })?;

        let t = Arc::clone(&target);
        margo.register(
            rpc::WRITE,
            provider_id,
            pool,
            Arc::new(move |ctx: RpcContext| {
                let result = (|| -> Result<(), String> {
                    let (header, body) = decode_framed::<WriteHeader>(ctx.payload_bytes())
                        .map_err(|e| e.to_string())?;
                    t.write(header.id, header.offset, &body).map_err(|e| e.to_string())
                })();
                ctx.reply(result.map(|()| true));
            }),
        )?;

        let t = Arc::clone(&target);
        margo.register(
            rpc::READ,
            provider_id,
            pool,
            Arc::new(move |ctx: RpcContext| {
                let result = (|| -> Result<Bytes, String> {
                    let args: ReadArgs = ctx.args().map_err(|e| e.to_string())?;
                    let data =
                        t.read(args.id, args.offset, args.len).map_err(|e| e.to_string())?;
                    encode_framed(&(data.len() as u64), &data).map_err(|e| e.to_string())
                })();
                ctx.reply_bytes(result);
            }),
        )?;

        let t = Arc::clone(&target);
        margo.register_typed(rpc::WRITE_BULK, provider_id, pool, move |args: BulkArgs, ctx| {
            // Pull the client's data into a scratch buffer, then write it.
            // leaf: the fabric copies into it; it is emptied before the write.
            let scratch = Arc::new(Mutex::new(vec![0u8; args.len as usize]));
            let local = ctx.expose_bulk(Arc::clone(&scratch), BulkAccess::ReadWrite);
            let pulled = ctx.bulk_pull(&args.handle, 0, &local, 0, args.len as usize);
            ctx.margo().unexpose_bulk(&local);
            pulled.map_err(|e| e.to_string())?;
            let data = std::mem::take(&mut *scratch.lock());
            t.write(args.id, args.offset, &data).map_err(|e| e.to_string())?;
            Ok(true)
        })?;

        let t = Arc::clone(&target);
        margo.register_typed(rpc::READ_BULK, provider_id, pool, move |args: BulkArgs, ctx| {
            let data = t.read(args.id, args.offset, args.len).map_err(|e| e.to_string())?;
            // leaf: the fabric copies out of it.
            let scratch = Arc::new(Mutex::new(data));
            let local = ctx.expose_bulk(Arc::clone(&scratch), BulkAccess::ReadOnly);
            let pushed = ctx.bulk_push(&local, 0, &args.handle, 0, args.len as usize);
            ctx.margo().unexpose_bulk(&local);
            pushed.map_err(|e| e.to_string())?;
            Ok(true)
        })?;

        let t = Arc::clone(&target);
        margo.register_typed(rpc::SIZE, provider_id, pool, move |id: BlobId, _| {
            t.size(id).map_err(|e| e.to_string())
        })?;
        let t = Arc::clone(&target);
        margo.register_typed(rpc::PERSIST, provider_id, pool, move |id: BlobId, _| {
            t.persist(id).map(|()| true).map_err(|e| e.to_string())
        })?;
        let t = Arc::clone(&target);
        margo.register_typed(rpc::ERASE, provider_id, pool, move |id: BlobId, _| {
            t.erase(id).map_err(|e| e.to_string())
        })?;
        let t = Arc::clone(&target);
        margo.register_typed(rpc::LIST, provider_id, pool, move |_: (), _| {
            t.list().map_err(|e| e.to_string())
        })?;

        Ok(Arc::new(Self { margo: margo.clone(), provider_id, target }))
    }

    /// This provider's id.
    pub fn provider_id(&self) -> u16 {
        self.provider_id
    }

    /// Direct access to the backing target.
    pub fn target(&self) -> &Arc<dyn BlobTarget> {
        &self.target
    }

    /// Deregisters all RPCs.
    pub fn deregister(&self) -> Result<(), MargoError> {
        for &declared in rpc::ALL {
            self.margo.deregister(declared, self.provider_id)?;
        }
        Ok(())
    }
}
