//! The Yokan RPC surface: every RPC, declared once with its types and
//! its retry class (`mochi_margo::Rpc`).
//!
//! The provider (`provider.rs`) registers these and the client
//! (`client.rs`) calls them, so a handler and its callers cannot disagree
//! on a name or a type. An idempotent RPC leaves the same state and reply
//! when it runs twice (`tests/retry_replay.rs` replays each); `ERASE` and
//! `ERASE_MULTI` are sent once, because each reply counts what was there
//! and a re-run finds the first run's work done.

use mochi_margo::{rpc_table, Raw};

use crate::provider::ListKeysArgs;

rpc_table! {
    /// Put one pair (framed: header = key, body = value).
    PUT: Rpc<Raw, Raw> = idempotent("yokan_put");
    /// Put many pairs (framed).
    PUT_MULTI: Rpc<Raw, Raw> = idempotent("yokan_put_multi");
    /// Get one value (framed response).
    GET: Rpc<Raw, Raw> = idempotent("yokan_get");
    /// Get many values (framed response).
    GET_MULTI: Rpc<Raw, Raw> = idempotent("yokan_get_multi");
    /// Erase a key; the reply says whether it existed.
    ERASE: Rpc<Vec<u8>, bool> = once("yokan_erase");
    /// Existence check.
    EXISTS: Rpc<Vec<u8>, bool> = idempotent("yokan_exists");
    /// Prefix listing with pagination.
    LIST_KEYS: Rpc<ListKeysArgs, Vec<Vec<u8>>> = idempotent("yokan_list_keys");
    /// Number of keys.
    LEN: Rpc<(), u64> = idempotent("yokan_len");
    /// Persist to disk.
    FLUSH: Rpc<(), bool> = idempotent("yokan_flush");
    /// Remove all keys.
    CLEAR: Rpc<(), bool> = idempotent("yokan_clear");
    /// Erase many keys in one RPC (routing drain cleanup); the reply counts
    /// those that existed.
    ERASE_MULTI: Rpc<Vec<Vec<u8>>, u64> = once("yokan_erase_multi");
    /// Put-if-newer of versioned records (framed like `PUT_MULTI`, each
    /// value an encoded record). The routed keyspace's write primitive —
    /// replica fan-out, owed copies, read repair, rebalance and catch-up
    /// copies: the server keeps whichever record is freshest. Reads need no
    /// counterpart: `GET_MULTI` returns records as stored.
    PUT_VERSIONED_MULTI: Rpc<Raw, Raw> = idempotent("yokan_put_versioned_multi");
}
