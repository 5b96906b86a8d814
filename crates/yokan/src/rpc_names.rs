//! The Yokan RPC surface: every wire-visible RPC name, in one place.
//!
//! Registration sites (`provider.rs`), client call sites (`client.rs`),
//! and the replication layer (`replication.rs`) all pull names from this
//! module, so a provider and its clients can never drift apart — and
//! `mochi-lint`'s contract checker (MOCHI006/007/008) resolves these
//! constants when it cross-checks register/forward pairs.

/// Put one pair (framed: header = key, body = value).
pub const PUT: &str = "yokan_put";
/// Put many pairs (framed).
pub const PUT_MULTI: &str = "yokan_put_multi";
/// Get one value (framed response).
pub const GET: &str = "yokan_get";
/// Get many values (framed response).
pub const GET_MULTI: &str = "yokan_get_multi";
/// Erase a key.
pub const ERASE: &str = "yokan_erase";
/// Existence check.
pub const EXISTS: &str = "yokan_exists";
/// Prefix listing with pagination.
pub const LIST_KEYS: &str = "yokan_list_keys";
/// Number of keys.
pub const LEN: &str = "yokan_len";
/// Persist to disk.
pub const FLUSH: &str = "yokan_flush";
/// Remove all keys.
pub const CLEAR: &str = "yokan_clear";
/// Erase many keys in one RPC (routing drain cleanup).
pub const ERASE_MULTI: &str = "yokan_erase_multi";
/// Put-if-newer of versioned records (framed like `PUT_MULTI`, each
/// value an encoded record). The routed keyspace's write primitive —
/// replica fan-out, hint replay, read repair, rebalance and catch-up
/// copies: the server keeps whichever record is freshest. Reads need no
/// counterpart: `GET_MULTI` returns records as stored.
pub const PUT_VERSIONED_MULTI: &str = "yokan_put_versioned_multi";
/// Park a hinted-handoff record on this provider for a currently
/// unreachable owner (Dynamo-style sloppy quorum).
pub const HINT_PUT: &str = "yokan_hint_put";
/// List parked hints (the background drainer's work queue).
pub const HINT_LIST: &str = "yokan_hint_list";
/// Drop replayed hints (version-matched so a newer hint parked during
/// the replay survives).
pub const HINT_DROP: &str = "yokan_hint_drop";

/// Every name above (used for deregistration).
pub const ALL: [&str; 15] = [
    PUT,
    PUT_MULTI,
    GET,
    GET_MULTI,
    ERASE,
    EXISTS,
    LIST_KEYS,
    LEN,
    FLUSH,
    CLEAR,
    ERASE_MULTI,
    PUT_VERSIONED_MULTI,
    HINT_PUT,
    HINT_LIST,
    HINT_DROP,
];
