//! RPC declarations, identifiers, handler types, and the handler-side
//! context.

#![deny(clippy::disallowed_methods)]

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use mochi_mercury::{Address, BulkAccess, BulkHandle, MercuryError, RequestInfo, ResponseStatus};
use mochi_util::crc32;
use mochi_util::Flag;

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

/// Whether margo may re-send an RPC after a transport-class failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// A re-run leaves the same state and the same reply: margo re-sends
    /// the call when an attempt times out or finds no handler.
    Idempotent,
    /// Sent once per forward: the caller sees the first attempt's failure.
    Once,
}

/// The input and output of an RPC whose request and reply travel as raw
/// bytes ([`crate::frame`]). It implements neither `Serialize` nor
/// `Deserialize`, so a typed forward or handler of a raw RPC does not
/// compile.
pub enum Raw {}

/// The input and output of a service's list of its RPCs
/// ([`Rpc::untyped`]): such an entry can be named, compared and
/// deregistered, never forwarded or served.
pub enum Untyped {}

/// An RPC, declared once (Mercury's `HG_Register`): its name, its retry
/// class and, as types, its input `I` and output `O`. Each service keeps
/// its declarations as consts in its `rpc_names` module; margo registers,
/// forwards and retries by them. A bare name (`&str`) is an RPC of
/// whatever types its use asks for, sent [`RetryClass::Once`].
///
/// A handler or a forward whose types differ from the declaration's does
/// not compile (see [`rpc_table!`](crate::rpc_table) for ones that agree):
///
/// ```compile_fail
/// # use mochi_margo::{MargoRuntime, Rpc};
/// const ERASE: Rpc<'static, Vec<u8>, bool> = Rpc::once("erase");
/// # fn f(margo: &MargoRuntime) -> Result<(), mochi_margo::MargoError> {
/// margo.register_typed(ERASE, 0, None, |key: String, _| Ok(!key.is_empty()))?;
/// # Ok(())
/// # }
/// ```
///
/// ```compile_fail
/// # use mochi_margo::{MargoRuntime, Rpc};
/// const ERASE: Rpc<'static, Vec<u8>, bool> = Rpc::once("erase");
/// # fn f(margo: &MargoRuntime, dest: &mochi_mercury::Address) -> Result<(), mochi_margo::MargoError> {
/// let existed: bool = margo.forward(dest, ERASE, 0, &"k".to_string())?;
/// # Ok(())
/// # }
/// ```
pub struct Rpc<'n, I, O> {
    name: &'n str,
    retry: RetryClass,
    types: PhantomData<fn(I) -> O>,
}

impl<'n, I, O> Rpc<'n, I, O> {
    /// An RPC margo re-sends after a transport-class failure.
    pub const fn idempotent(name: &'n str) -> Self {
        Self { name, retry: RetryClass::Idempotent, types: PhantomData }
    }

    /// An RPC margo never re-sends.
    pub const fn once(name: &'n str) -> Self {
        Self { name, retry: RetryClass::Once, types: PhantomData }
    }

    /// The wire-visible name.
    pub const fn name(&self) -> &'n str {
        self.name
    }

    /// Whether margo may re-send it.
    pub const fn retry(&self) -> RetryClass {
        self.retry
    }

    /// The numeric id its name hashes to ([`rpc_id_for_name`]).
    pub fn id(&self) -> u64 {
        rpc_id_for_name(self.name)
    }

    /// The same declaration without its types: the form of a service's
    /// list of all its RPCs.
    pub const fn untyped(self) -> Rpc<'n, Untyped, Untyped> {
        self.retype()
    }

    /// The same declaration with other types: margo's typed paths hand
    /// their encoded payloads to its raw ones.
    pub(crate) const fn retype<I2, O2>(self) -> Rpc<'n, I2, O2> {
        Rpc { name: self.name, retry: self.retry, types: PhantomData }
    }
}

impl<I, O> Clone for Rpc<'_, I, O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<I, O> Copy for Rpc<'_, I, O> {}

impl<I, O, I2, O2> PartialEq<Rpc<'_, I2, O2>> for Rpc<'_, I, O> {
    fn eq(&self, other: &Rpc<'_, I2, O2>) -> bool {
        self.name == other.name && self.retry == other.retry
    }
}

impl<I, O> fmt::Display for Rpc<'_, I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Declares a service's RPC table: a `pub const` [`Rpc`] per entry, and
/// `ALL`, every entry [`Rpc::untyped`], which deregistration walks. An
/// RPC is written once, so no list of it can fall behind.
///
/// ```
/// # use mochi_margo::{MargoError, MargoRuntime, Raw};
/// mochi_margo::rpc_table! {
///     /// Erases a key; the reply says whether it existed.
///     ERASE: Rpc<Vec<u8>, bool> = once("kv_erase");
///     /// Reads a value (framed).
///     GET: Rpc<Raw, Raw> = idempotent("kv_get");
/// }
/// assert!(ALL == [ERASE.untyped(), GET.untyped()]);
/// # fn f(margo: &MargoRuntime, dest: &mochi_mercury::Address) -> Result<(), MargoError> {
/// margo.register_typed(ERASE, 0, None, |key: Vec<u8>, _| Ok(!key.is_empty()))?;
/// let existed: bool = margo.forward(dest, ERASE, 0, &b"k".to_vec())?;
/// # Ok(())
/// # }
/// ```
#[macro_export]
macro_rules! rpc_table {
    ($($(#[$doc:meta])* $name:ident: Rpc<$i:ty, $o:ty> = $class:ident($wire:literal);)+) => {
        $($(#[$doc])*
        pub const $name: $crate::Rpc<'static, $i, $o> = $crate::Rpc::$class($wire);)+
        /// Every RPC above, untyped (deregistration walks it).
        pub const ALL: &[$crate::Rpc<'static, $crate::Untyped, $crate::Untyped>] =
            &[$($name.untyped()),+];
    };
}

impl<'n, I, O> From<&'n str> for Rpc<'n, I, O> {
    fn from(name: &'n str) -> Self {
        Self::once(name)
    }
}

impl<'n, I, O> From<&'n String> for Rpc<'n, I, O> {
    fn from(name: &'n String) -> Self {
        Self::once(name)
    }
}

/// A registered RPC handler. Runs inside a ULT in the pool chosen at
/// registration time; must eventually call [`RpcContext::reply`] or
/// [`RpcContext::reply_bytes`] (requests a caller waits on), unless the
/// message was one-way.
pub type RpcHandler = Arc<dyn Fn(RpcContext) + Send + Sync>;

/// Everything a handler needs: the request, the runtime (for nested calls
/// and bulk transfers), and the response channel.
pub struct RpcContext {
    pub(crate) margo: MargoRuntime,
    pub(crate) request: RequestInfo,
    pub(crate) rpc_name: Arc<str>,
    pub(crate) responded: Flag,
    pub(crate) oneway: bool,
    /// How the handler's last bulk transfer failed, if it did (see
    /// [`RpcContext::reply_bytes`]).
    // leaf: set and taken by the handler's own thread.
    pub(crate) bulk_failure: Mutex<Option<MercuryError>>,
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

    /// Answers the request with a handler's result: `Ok` serialized by
    /// the argument codec, `Err` as an application-level error (and so is
    /// an output that fails to serialize). Subsequent calls (and calls for
    /// one-way messages) do nothing.
    pub fn reply<T: Serialize>(&self, result: Result<T, String>) {
        self.reply_bytes(result.and_then(|output| {
            codec::encode(&output).map_err(|e| format!("reply encoding failed: {e}"))
        }));
    }

    /// [`RpcContext::reply`] with a raw payload (no encoding): the
    /// data-plane form, used with [`crate::frame`] framing.
    ///
    /// An `Err` that follows a failed bulk transfer is that transfer's
    /// failure, not the handler's verdict: it is sent as
    /// [`ResponseStatus::Transport`], so the caller sees the transport
    /// error, and margo re-sends the call if its RPC is idempotent.
    pub fn reply_bytes(&self, result: Result<Bytes, String>) {
        let (status, payload) = match result {
            Ok(payload) => (ResponseStatus::Ok, payload),
            Err(message) => match self.bulk_failure.lock().take() {
                Some(failure) => (ResponseStatus::Transport(failure), Bytes::new()),
                None => (ResponseStatus::Error(message), Bytes::new()),
            },
        };
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a reply the endpoint cannot send leaves its caller to the forward's timeout and retry; the handler has no one else to tell"
        )]
        let _ = self.respond_raw(status, payload);
    }

    fn respond_raw(&self, status: ResponseStatus, payload: Bytes) -> Result<(), MargoError> {
        if self.oneway || self.responded.swap(true) {
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
        self.note_bulk(self.margo.bulk_pull(remote, remote_offset, local, local_offset, len))
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
        self.note_bulk(self.margo.bulk_push(local, local_offset, remote, remote_offset, len))
    }

    /// Remembers how a bulk transfer ended, for [`RpcContext::reply_bytes`].
    fn note_bulk(&self, result: Result<(), MargoError>) -> Result<(), MargoError> {
        *self.bulk_failure.lock() = match &result {
            Err(MargoError::Transport(failure)) => Some(failure.clone()),
            _ => None,
        };
        result
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
