//! Yokan's client library: the resource handle of Figure 1.
//!
//! A [`DatabaseHandle`] "maps to a remote resource by encapsulating the
//! address and provider ID of the provider holding that resource" and
//! offers put/get-style access; the operations a caller fans out over
//! several providers also come in a posting form (`post_*` returns a
//! [`PendingCall`] to wait on).

#![deny(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use mochi_margo::{
    decode, decode_framed, decode_framed_borrowed, encode_framed, encode_framed_with, MargoError,
    MargoRuntime, PendingForward, Raw, Rpc,
};
use mochi_mercury::Address;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::provider::rpc;
use crate::provider::{ListKeysArgs, PutVersionedMultiReply, ValuesHeader};
use crate::version::{decode_record, encode_record_into, RECORD_OVERHEAD};
use crate::views::{key_seq, GetMultiHeaderView, Key, KeyHeaderView, PutMultiHeaderView, Seq};

/// One record as returned by [`DatabaseHandle::get_versioned`]:
/// the decoded version stamp, tombstone flag, and raw value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// HLC-style version (0 for legacy unversioned records).
    pub version: u64,
    /// Whether the record is a deletion marker.
    pub tombstone: bool,
    /// Raw value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl VersionedValue {
    /// Decodes what the provider stores; the value is copied out once.
    fn from_stored(stored: &[u8]) -> Self {
        let record = decode_record(stored);
        Self { version: record.version, tombstone: record.tombstone, value: record.value.to_vec() }
    }
}

/// Frames `keys` with the values `write_values` appends to the frame, whose
/// lengths are `value_lens`: the wire form of `PUT_MULTI` and
/// `PUT_VERSIONED_MULTI`. Keys are encoded from the caller's slices and
/// values copied once, into the frame.
fn encode_pairs<'a>(
    keys: impl Iterator<Item = &'a [u8]> + Clone,
    value_lens: impl Iterator<Item = usize> + Clone,
    write_values: impl FnOnce(&mut BytesMut),
) -> Result<Bytes, MargoError> {
    // Per key: its bytes, two bytes of framing, three for its length.
    let size: usize = keys.clone().map(|key| key.len() + 5).chain(value_lens.clone()).sum();
    let header = PutMultiHeaderView {
        keys: key_seq(keys),
        value_lens: Seq(value_lens.map(|len| len as u32)),
    };
    encode_framed_with(&header, size, write_values)
}

/// A put-if-newer request in wire form: `(key, version, value)` records,
/// `None` for a tombstone (a deletion that wins freshest-wins merges).
/// Encoded once from borrowed data, then sent — or re-sent — to any
/// provider ([`DatabaseHandle::put_versioned`]).
#[derive(Clone)]
pub struct VersionedBatch(Bytes);

impl VersionedBatch {
    /// Encodes `records` (the iterator is walked three times: keys,
    /// lengths, values).
    pub fn encode<'a>(
        records: impl Iterator<Item = (&'a [u8], u64, Option<&'a [u8]>)> + Clone,
    ) -> Result<Self, MargoError> {
        encode_pairs(
            records.clone().map(|(key, _, _)| key),
            records.clone().map(|(_, _, value)| RECORD_OVERHEAD + value.map_or(0, <[u8]>::len)),
            |frame| {
                for (_, version, value) in records {
                    encode_record_into(frame, version, value);
                }
            },
        )
        .map(Self)
    }
}

/// A multi-key read request in wire form ([`DatabaseHandle::get_versioned`]).
#[derive(Clone)]
pub struct KeyBatch(Bytes);

impl KeyBatch {
    /// Encodes `keys`.
    pub fn encode<'a>(keys: impl Iterator<Item = &'a [u8]> + Clone) -> Result<Self, MargoError> {
        let size = keys.clone().map(|key| key.len() + 2).sum();
        encode_framed_with(&GetMultiHeaderView { keys: key_seq(keys) }, size, |_| {}).map(Self)
    }
}

/// An RPC that has been posted to a provider and not yet waited for
/// (the `post_*` methods of [`DatabaseHandle`]): a caller with several
/// providers to ask posts to all of them, then waits.
#[must_use = "wait on the posted call to obtain the reply"]
pub struct PendingCall<T> {
    /// The posted forward, or why the request could not be encoded.
    posted: Result<PendingForward, MargoError>,
    /// Decodes the raw reply.
    finish: fn(Bytes) -> Result<T, MargoError>,
}

impl<T> PendingCall<T> {
    /// Blocks until the reply arrives (or the call fails) and decodes it.
    pub fn wait(self) -> Result<T, MargoError> {
        self.posted?.wait().and_then(self.finish)
    }
}

/// Splits a `ValuesHeader`-framed reply into per-key values (`None` for
/// missing keys), each made of its slice of the reply by `value`.
fn decode_values<T>(reply: &[u8], value: fn(&[u8]) -> T) -> Result<Vec<Option<T>>, MargoError> {
    let (header, mut body) = decode_framed_borrowed::<ValuesHeader>(reply)?;
    let mut out = Vec::with_capacity(header.lens.len());
    for len in header.lens {
        let Ok(len) = usize::try_from(len) else {
            out.push(None);
            continue;
        };
        let Some((stored, rest)) = body.split_at_checked(len) else {
            return Err(MargoError::Codec("get_multi body truncated".into()));
        };
        out.push(Some(value(stored)));
        body = rest;
    }
    Ok(out)
}

/// Handle to a remote Yokan database.
#[derive(Clone)]
pub struct DatabaseHandle {
    margo: MargoRuntime,
    /// Shared with every forward this handle posts.
    address: Arc<Address>,
    provider_id: u16,
    timeout: Duration,
}

impl DatabaseHandle {
    /// Creates a handle to the database served by `(address, provider_id)`.
    pub fn new(margo: &MargoRuntime, address: Address, provider_id: u16) -> Self {
        let timeout = margo.rpc_timeout();
        Self { margo: margo.clone(), address: Arc::new(address), provider_id, timeout }
    }

    /// Single chokepoint for typed RPCs: every forward in this client is
    /// posted here (or in [`Self::post_raw`]) so retry, breaker, and
    /// deadline handling apply uniformly; `clippy.toml`'s
    /// `disallowed-methods` keeps every other forward out of this file.
    #[expect(clippy::disallowed_methods, reason = "the client's chokepoint")]
    fn post<I: Serialize, O>(
        &self,
        rpc: Rpc<'static, I, O>,
        input: &I,
    ) -> Result<PendingForward, MargoError> {
        self.margo.iforward_full(&self.address, rpc, self.provider_id, input, self.timeout)
    }

    /// Raw-payload counterpart of [`Self::post`] for framed data-plane
    /// RPCs.
    #[expect(clippy::disallowed_methods, reason = "the client's chokepoint")]
    fn post_raw(&self, rpc: Rpc<'static, Raw, Raw>, payload: Bytes) -> PendingForward {
        self.margo.iforward_raw(&self.address, rpc, self.provider_id, payload, self.timeout)
    }

    /// [`Self::post`], waited for on the spot.
    fn call<I: Serialize, O: DeserializeOwned>(
        &self,
        rpc: Rpc<'static, I, O>,
        input: &I,
    ) -> Result<O, MargoError> {
        self.post(rpc, input)?.wait_decoded()
    }

    /// [`Self::post_raw`], waited for on the spot.
    fn call_raw(&self, rpc: Rpc<'static, Raw, Raw>, payload: Bytes) -> Result<Bytes, MargoError> {
        self.post_raw(rpc, payload).wait()
    }

    /// Overrides the per-RPC timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The provider's address.
    pub fn address(&self) -> &Address {
        &self.address
    }

    /// The provider id.
    pub fn provider_id(&self) -> u16 {
        self.provider_id
    }

    /// Stores `value` under `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MargoError> {
        let payload = encode_framed(&KeyHeaderView { key: Key(key) }, value)?;
        let _reply = self.call_raw(rpc::PUT, payload)?;
        Ok(())
    }

    /// Stores many pairs in one RPC.
    pub fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), MargoError> {
        let payload = encode_pairs(
            pairs.iter().map(|(key, _)| *key),
            pairs.iter().map(|(_, value)| value.len()),
            |frame| pairs.iter().for_each(|(_, value)| frame.put_slice(value)),
        )?;
        let _reply = self.call_raw(rpc::PUT_MULTI, payload)?;
        Ok(())
    }

    /// Fetches the value under `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MargoError> {
        let payload = encode_framed(&KeyHeaderView { key: Key(key) }, &[])?;
        let reply = self.call_raw(rpc::GET, payload)?;
        Ok(decode_values(&reply, <[u8]>::to_vec)?.into_iter().next().flatten())
    }

    /// Fetches many values in one RPC (entry is `None` for missing keys).
    pub fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, MargoError> {
        let batch = KeyBatch::encode(keys.iter().copied())?;
        decode_values(&self.call_raw(rpc::GET_MULTI, batch.0)?, <[u8]>::to_vec)
    }

    /// Removes `key`; returns whether it existed.
    pub fn erase(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.call(rpc::ERASE, &key.to_vec())
    }

    /// Removes many keys in one RPC; returns how many existed. Like
    /// `erase`, not retried by the transport (the count is not stable
    /// under re-execution).
    pub fn erase_multi(&self, keys: &[&[u8]]) -> Result<u64, MargoError> {
        let keys: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
        self.call(rpc::ERASE_MULTI, &keys)
    }

    /// Put-if-newer of many versioned records in one RPC.
    pub fn put_versioned(
        &self,
        batch: &VersionedBatch,
    ) -> Result<PutVersionedMultiReply, MargoError> {
        self.post_put_versioned(batch).wait()
    }

    /// Posts [`Self::put_versioned`] without waiting for the reply.
    pub fn post_put_versioned(
        &self,
        batch: &VersionedBatch,
    ) -> PendingCall<PutVersionedMultiReply> {
        PendingCall {
            posted: Ok(self.post_raw(rpc::PUT_VERSIONED_MULTI, batch.0.clone())),
            finish: |reply| Ok(decode_framed::<PutVersionedMultiReply>(&reply)?.0),
        }
    }

    /// Fetches many records with their version stamps (entry is `None`
    /// when the provider holds no record at all; a tombstone comes back
    /// as `Some` with the flag set).
    pub fn get_versioned(
        &self,
        keys: &KeyBatch,
    ) -> Result<Vec<Option<VersionedValue>>, MargoError> {
        self.post_get_versioned(keys).wait()
    }

    /// Posts [`Self::get_versioned`] without waiting for the reply.
    pub fn post_get_versioned(&self, keys: &KeyBatch) -> PendingCall<Vec<Option<VersionedValue>>> {
        PendingCall {
            posted: Ok(self.post_raw(rpc::GET_MULTI, keys.0.clone())),
            finish: |reply| decode_values(&reply, VersionedValue::from_stored),
        }
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.call(rpc::EXISTS, &key.to_vec())
    }

    /// Lists up to `max` keys starting with `prefix`, after `start_after`.
    pub fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        let page = ListKeysArgs {
            prefix: prefix.to_vec(),
            start_after: start_after.map(<[u8]>::to_vec),
            max,
        };
        self.post_list_keys(&page).wait()
    }

    /// Posts [`Self::list_keys`] without waiting for the reply.
    pub fn post_list_keys(&self, page: &ListKeysArgs) -> PendingCall<Vec<Vec<u8>>> {
        PendingCall { posted: self.post(rpc::LIST_KEYS, page), finish: |reply| decode(&reply) }
    }

    /// Number of keys.
    pub fn len(&self) -> Result<u64, MargoError> {
        self.call(rpc::LEN, &())
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> Result<bool, MargoError> {
        Ok(self.len()? == 0)
    }

    /// Persists the database to disk.
    pub fn flush(&self) -> Result<(), MargoError> {
        let _: bool = self.call(rpc::FLUSH, &())?;
        Ok(())
    }

    /// Removes all keys.
    pub fn clear(&self) -> Result<(), MargoError> {
        let _: bool = self.call(rpc::CLEAR, &())?;
        Ok(())
    }
}
