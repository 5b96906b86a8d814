//! Virtual databases: bottom-up replication (paper §7, Observation 10).
//!
//! "A Yokan 'virtual database' could forward the data it receives to N
//! other actual databases living on other nodes. The client accessing
//! this virtual database does not know that the provider it contacts does
//! not actually hold data itself or that the data is replicated."
//!
//! [`VirtualDatabaseProvider`] registers the *same* RPC names as a real
//! Yokan provider, so any [`crate::client::DatabaseHandle`] works against
//! it unchanged — that indistinguishability is the point of the design.
//! Writes go to all replicas (write-all); reads try replicas in order and
//! return the first answer, which keeps reads available while any single
//! replica survives.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use mochi_margo::{decode_framed_borrowed, encode_framed, MargoError, MargoRuntime, RpcContext};
use mochi_mercury::Address;

use crate::client::DatabaseHandle;
use crate::provider::{encode_values, rpc, ListKeysArgs};
use crate::views::{DecodedGetMultiHeader, DecodedKeyHeader, DecodedPutMultiHeader};

/// Location of one replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSpec {
    /// Address of the process running the replica provider.
    pub address: String,
    /// Provider id of the replica.
    pub provider_id: u16,
}

/// Configuration of a virtual database (the provider's `config` object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualConfig {
    /// Backing replicas, in read-preference order.
    pub replicas: Vec<ReplicaSpec>,
}

struct Inner {
    replicas: Vec<DatabaseHandle>,
}

impl Inner {
    fn write_all<T>(
        &self,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, String> {
        let mut last = Err("virtual database has no replicas".to_string());
        for handle in &self.replicas {
            let value =
                op(handle).map_err(|e| format!("replica {} failed: {e}", handle.address()))?;
            last = Ok(value);
        }
        last
    }

    fn read_any<T>(
        &self,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, String> {
        if self.replicas.is_empty() {
            return Err("virtual database has no replicas".into());
        }
        let mut errors = Vec::new();
        for handle in &self.replicas {
            match op(handle) {
                Ok(value) => return Ok(value),
                Err(e) => errors.push(format!("{}: {e}", handle.address())),
            }
        }
        Err(format!("all replicas failed: {errors:?}"))
    }
}

/// The part of the yokan surface a virtual database serves: the names
/// [`VirtualDatabaseProvider::register`] installs, one `register` call
/// each, and so the names `deregister` removes (`rpc::ALL` also lists the
/// routing, versioned and hint RPCs, which only a real provider has).
const SURFACE: [&str; 10] = [
    rpc::PUT,
    rpc::PUT_MULTI,
    rpc::GET,
    rpc::GET_MULTI,
    rpc::ERASE,
    rpc::EXISTS,
    rpc::LIST_KEYS,
    rpc::LEN,
    rpc::FLUSH,
    rpc::CLEAR,
];

/// A provider that replicates over N backing Yokan databases.
pub struct VirtualDatabaseProvider {
    margo: MargoRuntime,
    provider_id: u16,
    inner: Arc<Inner>,
}

impl VirtualDatabaseProvider {
    /// Registers a virtual database under `provider_id`, backed by
    /// `replicas` (each `(address, provider_id)` of a real Yokan
    /// provider). `timeout` bounds each per-replica RPC so a dead replica
    /// fails over quickly on the read path.
    pub fn register(
        margo: &MargoRuntime,
        provider_id: u16,
        pool: Option<&str>,
        replicas: Vec<(Address, u16)>,
        timeout: Duration,
    ) -> Result<Arc<Self>, MargoError> {
        let replicas = replicas
            .into_iter()
            .map(|(address, id)| DatabaseHandle::new(margo, address, id).with_timeout(timeout))
            .collect();
        let inner = Arc::new(Inner { replicas });

        type FramedOp = Box<dyn Fn(&Inner, &Bytes) -> Result<Bytes, String> + Send + Sync>;
        let raw = |inner: &Arc<Inner>, f: FramedOp| -> mochi_margo::RpcHandler {
            let inner = Arc::clone(inner);
            Arc::new(move |ctx: RpcContext| {
                match f(&inner, ctx.payload_bytes()) {
                    Ok(payload) => {
                        let _ = ctx.respond_bytes(payload);
                    }
                    Err(message) => {
                        let _ = ctx.respond_err(message);
                    }
                }
            })
        };

        // The same header views, and so the same refusals, as a real
        // provider's handlers.
        margo.register(
            rpc::PUT,
            provider_id,
            pool,
            raw(
                &inner,
                Box::new(|inner, payload| {
                    let (header, body) = decode_framed_borrowed::<DecodedKeyHeader<'_>>(payload)
                        .map_err(|e| e.to_string())?;
                    inner.write_all(|h| h.put(header.key.0, body))?;
                    encode_framed(&true, &[]).map_err(|e| e.to_string())
                }),
            ),
        )?;
        margo.register(
            rpc::PUT_MULTI,
            provider_id,
            pool,
            raw(
                &inner,
                Box::new(|inner, payload| {
                    let (header, body) =
                        decode_framed_borrowed::<DecodedPutMultiHeader<'_>>(payload)
                            .map_err(|e| e.to_string())?;
                    let pairs = header.pairs(body)?;
                    inner.write_all(|h| h.put_multi(&pairs))?;
                    encode_framed(&(pairs.len() as u64), &[]).map_err(|e| e.to_string())
                }),
            ),
        )?;
        margo.register(
            rpc::GET,
            provider_id,
            pool,
            raw(
                &inner,
                Box::new(|inner, payload| {
                    let (header, _) = decode_framed_borrowed::<DecodedKeyHeader<'_>>(payload)
                        .map_err(|e| e.to_string())?;
                    let value = inner.read_any(|h| h.get(header.key.0))?;
                    encode_values(&[value.as_deref()]).map_err(|e| e.to_string())
                }),
            ),
        )?;
        margo.register(
            rpc::GET_MULTI,
            provider_id,
            pool,
            raw(
                &inner,
                Box::new(|inner, payload| {
                    let (header, _) =
                        decode_framed_borrowed::<DecodedGetMultiHeader<'_>>(payload)
                            .map_err(|e| e.to_string())?;
                    let values = inner.read_any(|h| h.get_multi(&header.keys.0))?;
                    let lent: Vec<Option<&[u8]>> = values.iter().map(Option::as_deref).collect();
                    encode_values(&lent).map_err(|e| e.to_string())
                }),
            ),
        )?;
        let erase_inner = Arc::clone(&inner);
        margo.register_typed(rpc::ERASE, provider_id, pool, move |key: Vec<u8>, _| {
            erase_inner.write_all(|h| h.erase(&key))
        })?;
        let exists_inner = Arc::clone(&inner);
        margo.register_typed(rpc::EXISTS, provider_id, pool, move |key: Vec<u8>, _| {
            exists_inner.read_any(|h| h.exists(&key))
        })?;
        let list_inner = Arc::clone(&inner);
        margo.register_typed(rpc::LIST_KEYS, provider_id, pool, move |args: ListKeysArgs, _| {
            let after = args.start_after.as_deref();
            list_inner.read_any(|h| h.list_keys(&args.prefix, after, args.max))
        })?;
        let len_inner = Arc::clone(&inner);
        margo.register_typed(rpc::LEN, provider_id, pool, move |_: (), _| {
            len_inner.read_any(|h| h.len())
        })?;
        let flush_inner = Arc::clone(&inner);
        margo.register_typed(rpc::FLUSH, provider_id, pool, move |_: (), _| {
            flush_inner.write_all(|h| h.flush()).map(|()| true)
        })?;
        let clear_inner = Arc::clone(&inner);
        margo.register_typed(rpc::CLEAR, provider_id, pool, move |_: (), _| {
            clear_inner.write_all(|h| h.clear()).map(|()| true)
        })?;

        Ok(Arc::new(Self { margo: margo.clone(), provider_id, inner }))
    }

    /// Current replica addresses, in read order.
    pub fn replicas(&self) -> Vec<Address> {
        self.inner.replicas.iter().map(|h| h.address().clone()).collect()
    }

    /// Deregisters the virtual provider's RPCs.
    pub fn deregister(&self) -> Result<(), MargoError> {
        for name in SURFACE {
            self.margo.deregister(name, self.provider_id)?;
        }
        Ok(())
    }
}
