//! The Yokan provider: serves a [`Database`] over Margo RPCs.
//!
//! Control RPCs (erase, exists, list, len, flush, clear) use the argument
//! codec; data-plane RPCs (put/get, single and multi) use binary framing
//! so values travel as raw bytes. A handler decodes a request's header as
//! a [`crate::views`] view: keys and values stay slices of the request
//! buffer all the way into the backend, and a value read travels from the
//! store into the reply frame in one copy (`encode_values`).

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use serde::{Deserialize, Serialize};

use mochi_margo::{
    decode_framed_borrowed, encode_framed, encode_framed_with, MargoError, MargoRuntime,
    RpcContext,
};

use crate::backend::Database;
use crate::views::{
    DecodedGetMultiHeader, DecodedKeyHeader, DecodedPutMultiHeader, Seq, ValuesHeaderView,
};

/// RPC names registered by a Yokan provider (one set per provider id).
/// The constants themselves live in [`crate::rpc_names`].
pub use crate::rpc_names as rpc;

/// Framed-header of `PUT` and `GET` requests.
#[derive(Debug, Serialize, Deserialize)]
pub struct KeyHeader {
    /// The key.
    pub key: Vec<u8>,
}

/// Framed-header of `PUT_MULTI`: keys plus the length of each value in
/// the concatenated body.
#[derive(Debug, Serialize, Deserialize)]
pub struct PutMultiHeader {
    /// Keys.
    pub keys: Vec<Vec<u8>>,
    /// Length of each value in the body, in order.
    pub value_lens: Vec<u32>,
}

/// Framed-header of `GET_MULTI` requests.
#[derive(Debug, Serialize, Deserialize)]
pub struct GetMultiHeader {
    /// Keys to fetch.
    pub keys: Vec<Vec<u8>>,
}

/// Framed-header of `GET`/`GET_MULTI` responses: `-1` marks a missing
/// key, otherwise the value's length in the concatenated body.
#[derive(Debug, Serialize, Deserialize)]
pub struct ValuesHeader {
    /// Per-key value length or -1.
    pub lens: Vec<i64>,
}

/// Arguments of `LIST_KEYS`.
#[derive(Debug, Serialize, Deserialize)]
pub struct ListKeysArgs {
    /// Key prefix filter.
    pub prefix: Vec<u8>,
    /// Exclusive resume cursor.
    pub start_after: Option<Vec<u8>>,
    /// Maximum keys to return.
    pub max: usize,
}

/// Reply of `PUT_VERSIONED_MULTI`. The request is a [`PutMultiHeader`]
/// whose values are encoded [`crate::version`] records.
#[derive(Debug, Serialize, Deserialize)]
pub struct PutVersionedMultiReply {
    /// How many records won their compare and were stored.
    pub stored: u64,
    /// Per-key: whether a *live* (non-tombstone) record existed before
    /// the op — an erase's "did the key exist" answer.
    pub existed: Vec<bool>,
}

/// Arguments of `HINT_LIST`.
#[derive(Debug, Serialize, Deserialize)]
pub struct HintListArgs {
    /// Maximum hints to return (oldest-key order).
    pub max: usize,
}

/// One hinted-handoff record (Dynamo-style): the argument of `HINT_PUT`,
/// which parks it on this provider for its unreachable `target`, and an
/// element of `HINT_LIST`'s reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HintEntry {
    /// Ring member the record is destined for.
    pub target: String,
    /// The key.
    pub key: Vec<u8>,
    /// Version stamp.
    pub version: u64,
    /// Whether the hinted write is a deletion.
    pub tombstone: bool,
    /// Raw value (empty for tombstones).
    pub value: Vec<u8>,
}

/// One entry of `HINT_DROP`: dropped only if the parked version is still
/// `<= version`, so a fresher hint parked mid-replay survives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HintDropEntry {
    /// Ring member the record was destined for.
    pub target: String,
    /// The key.
    pub key: Vec<u8>,
    /// Version the drainer replayed.
    pub version: u64,
}

/// Arguments of `HINT_DROP`.
#[derive(Debug, Serialize, Deserialize)]
pub struct HintDropArgs {
    /// Replayed hints to drop.
    pub entries: Vec<HintDropEntry>,
}

/// Bound on parked hints per provider. A full store rejects new hints
/// (the writer counts that as a failed ack), so an extended outage
/// degrades to quorum failures instead of unbounded memory growth.
const HINT_CAP: usize = 8192;

struct HintRecord {
    version: u64,
    tombstone: bool,
    value: Vec<u8>,
}

/// In-memory hint store: deliberately *not* part of the [`Database`]
/// (hints are transient routing state — they must not pollute
/// `list_keys`/`len` or ride along a rebalance copy).
struct HintStore {
    // leaf: map operations only; nothing is called under it.
    map: parking_lot::Mutex<std::collections::BTreeMap<(String, Vec<u8>), HintRecord>>,
}

/// A registered Yokan provider.
pub struct YokanProvider {
    margo: MargoRuntime,
    provider_id: u16,
    db: Arc<dyn Database>,
}

/// Frames a `GET`/`GET_MULTI` reply: the lengths (`-1` for a missing
/// key), then every value copied straight into the frame.
pub(crate) fn encode_values(values: &[Option<&[u8]>]) -> Result<Bytes, MargoError> {
    let lens = Seq(values.iter().map(|value| value.map_or(-1, |value| value.len() as i64)));
    let body: usize = values.iter().flatten().map(|value| value.len()).sum();
    // A length takes a tag and a varint: three bytes up to 16 KiB.
    encode_framed_with(&ValuesHeaderView { lens }, body + 3 * values.len(), |frame| {
        for value in values.iter().flatten() {
            frame.put_slice(value);
        }
    })
}

/// Reads `keys` and frames the reply while the backend lends the values.
fn read_reply(db: &dyn Database, keys: &[&[u8]]) -> Result<Bytes, String> {
    let mut reply = None;
    db.read_with(keys, &mut |values| reply = Some(encode_values(values)))
        .map_err(|e| e.to_string())?;
    reply.ok_or("backend lent no values")?.map_err(|e| e.to_string())
}

fn framed_handler(
    db: &Arc<dyn Database>,
    handler: impl Fn(&dyn Database, &[u8]) -> Result<Bytes, String> + Send + Sync + 'static,
) -> mochi_margo::RpcHandler {
    let db = Arc::clone(db);
    Arc::new(move |ctx: RpcContext| match handler(&*db, ctx.payload()) {
        Ok(payload) => {
            let _ = ctx.respond_bytes(payload);
        }
        Err(message) => {
            let _ = ctx.respond_err(message);
        }
    })
}

impl YokanProvider {
    /// Registers a provider serving `db` under `provider_id`.
    pub fn register(
        margo: &MargoRuntime,
        provider_id: u16,
        pool: Option<&str>,
        db: Arc<dyn Database>,
    ) -> Result<Arc<Self>, MargoError> {
        // PUT: header = key, body = value.
        margo.register(
            rpc::PUT,
            provider_id,
            pool,
            framed_handler(&db, |db, payload| {
                let (header, body) =
                    decode_framed_borrowed::<DecodedKeyHeader<'_>>(payload).map_err(|e| e.to_string())?;
                db.put(header.key.0, body).map_err(|e| e.to_string())?;
                encode_framed(&true, &[]).map_err(|e| e.to_string())
            }),
        )?;
        // PUT_MULTI.
        margo.register(
            rpc::PUT_MULTI,
            provider_id,
            pool,
            framed_handler(&db, |db, payload| {
                let (header, body) = decode_framed_borrowed::<DecodedPutMultiHeader<'_>>(payload)
                    .map_err(|e| e.to_string())?;
                let pairs = header.pairs(body)?;
                // One backend call: stripe-grouped / WAL-batched.
                db.put_multi(&pairs).map_err(|e| e.to_string())?;
                encode_framed(&(pairs.len() as u64), &[]).map_err(|e| e.to_string())
            }),
        )?;
        // GET.
        margo.register(
            rpc::GET,
            provider_id,
            pool,
            framed_handler(&db, |db, payload| {
                let (header, _) =
                    decode_framed_borrowed::<DecodedKeyHeader<'_>>(payload).map_err(|e| e.to_string())?;
                read_reply(db, &[header.key.0])
            }),
        )?;
        // GET_MULTI.
        margo.register(
            rpc::GET_MULTI,
            provider_id,
            pool,
            framed_handler(&db, |db, payload| {
                let (header, _) = decode_framed_borrowed::<DecodedGetMultiHeader<'_>>(payload)
                    .map_err(|e| e.to_string())?;
                read_reply(db, &header.keys.0)
            }),
        )?;
        // Control plane (argument codec).
        let erase_db = Arc::clone(&db);
        margo.register_typed(rpc::ERASE, provider_id, pool, move |key: Vec<u8>, _| {
            erase_db.erase(&key).map_err(|e| e.to_string())
        })?;
        let exists_db = Arc::clone(&db);
        margo.register_typed(rpc::EXISTS, provider_id, pool, move |key: Vec<u8>, _| {
            exists_db.exists(&key).map_err(|e| e.to_string())
        })?;
        let list_db = Arc::clone(&db);
        margo.register_typed(rpc::LIST_KEYS, provider_id, pool, move |args: ListKeysArgs, _| {
            list_db
                .list_keys(&args.prefix, args.start_after.as_deref(), args.max)
                .map_err(|e| e.to_string())
        })?;
        let len_db = Arc::clone(&db);
        margo.register_typed(rpc::LEN, provider_id, pool, move |_: (), _| {
            len_db.len().map_err(|e| e.to_string())
        })?;
        let flush_db = Arc::clone(&db);
        margo.register_typed(rpc::FLUSH, provider_id, pool, move |_: (), _| {
            flush_db.flush().map(|()| true).map_err(|e| e.to_string())
        })?;
        let clear_db = Arc::clone(&db);
        margo.register_typed(rpc::CLEAR, provider_id, pool, move |_: (), _| {
            clear_db.clear().map(|()| true).map_err(|e| e.to_string())
        })?;
        // Batch erase (a rebalance's post-cutover cleanup). Like `ERASE`
        // it is not idempotent-declared — the routed client drives it
        // with explicit round-level retries instead.
        let erase_multi_db = Arc::clone(&db);
        margo.register_typed(
            rpc::ERASE_MULTI,
            provider_id,
            pool,
            move |keys: Vec<Vec<u8>>, _| {
                let mut erased = 0u64;
                for key in &keys {
                    if erase_multi_db.erase(key).map_err(|e| e.to_string())? {
                        erased += 1;
                    }
                }
                Ok(erased)
            },
        )?;
        // Versioned-record + hint surface (routed keyspaces, DESIGN.md
        // §18). Records arrive encoded, the backend compares and stores,
        // and the plain `GET`/`GET_MULTI` read them back.
        margo.register(
            rpc::PUT_VERSIONED_MULTI,
            provider_id,
            pool,
            framed_handler(&db, |db, payload| {
                let (header, body) = decode_framed_borrowed::<DecodedPutMultiHeader<'_>>(payload)
                    .map_err(|e| e.to_string())?;
                let pairs = header.pairs(body)?;
                // Refused as a whole, before anything is stored.
                if !pairs.iter().all(|(_, record)| crate::version::is_record(record)) {
                    return Err("value is not a versioned record".into());
                }
                let mut stored = 0u64;
                let mut existed = Vec::with_capacity(pairs.len());
                for (key, record) in pairs {
                    let (won, was_live) =
                        db.put_if_newer(key, record).map_err(|e| e.to_string())?;
                    stored += u64::from(won);
                    existed.push(was_live);
                }
                encode_framed(&PutVersionedMultiReply { stored, existed }, &[])
                    .map_err(|e| e.to_string())
            }),
        )?;
        let hints = Arc::new(HintStore {
            map: parking_lot::Mutex::new(std::collections::BTreeMap::new()),
        });
        let hint_put_store = Arc::clone(&hints);
        margo.register_typed(rpc::HINT_PUT, provider_id, pool, move |args: HintEntry, _| {
            let slot = (args.target, args.key);
            let mut map = hint_put_store.map.lock();
            if map.len() >= HINT_CAP && !map.contains_key(&slot) {
                return Ok(false);
            }
            // Keep-freshest: `>=` so a transport-level re-send of the
            // same hint converges instead of being dropped.
            if map.get(&slot).is_none_or(|parked| args.version >= parked.version) {
                map.insert(
                    slot,
                    HintRecord {
                        version: args.version,
                        tombstone: args.tombstone,
                        value: args.value,
                    },
                );
            }
            Ok(true)
        })?;
        let hint_list_store = Arc::clone(&hints);
        margo.register_typed(rpc::HINT_LIST, provider_id, pool, move |args: HintListArgs, _| {
            let map = hint_list_store.map.lock();
            let entries: Vec<HintEntry> = map
                .iter()
                .take(args.max)
                .map(|((target, key), parked)| HintEntry {
                    target: target.clone(),
                    key: key.clone(),
                    version: parked.version,
                    tombstone: parked.tombstone,
                    value: parked.value.clone(),
                })
                .collect();
            Ok(entries)
        })?;
        let hint_drop_store = hints;
        margo.register_typed(rpc::HINT_DROP, provider_id, pool, move |args: HintDropArgs, _| {
            let mut map = hint_drop_store.map.lock();
            let mut dropped = 0u64;
            for entry in &args.entries {
                let slot = (entry.target.clone(), entry.key.clone());
                let replayed = map.get(&slot).is_some_and(|parked| parked.version <= entry.version);
                if replayed {
                    map.remove(&slot);
                    dropped += 1;
                }
            }
            Ok(dropped)
        })?;

        Ok(Arc::new(Self { margo: margo.clone(), provider_id, db }))
    }

    /// This provider's id.
    pub fn provider_id(&self) -> u16 {
        self.provider_id
    }

    /// Direct access to the backing database (local callers, tests).
    pub fn database(&self) -> &Arc<dyn Database> {
        &self.db
    }

    /// Deregisters all RPCs of this provider.
    pub fn deregister(&self) -> Result<(), MargoError> {
        for name in rpc::ALL {
            self.margo.deregister(name, self.provider_id)?;
        }
        Ok(())
    }
}
