//! The Warabi RPC surface: every RPC, declared once with its types and
//! its retry class (`mochi_margo::Rpc`).
//!
//! The provider (`provider.rs`) registers these and the client
//! (`client.rs`) calls them, so a handler and its callers cannot disagree
//! on a name or a type. An idempotent RPC leaves the same state and reply
//! when it runs twice (`tests/retry_replay.rs` replays each); `CREATE`
//! allocates a fresh blob id per call and `ERASE` answers whether the
//! blob existed, so both are sent once.

use mochi_margo::{rpc_table, Raw};

use crate::provider::BulkArgs;
use crate::target::BlobId;

rpc_table! {
    /// Allocate a blob.
    CREATE: Rpc<u64, BlobId> = once("warabi_create");
    /// Inline write (framed).
    WRITE: Rpc<Raw, Raw> = idempotent("warabi_write");
    /// Inline read (framed response).
    READ: Rpc<Raw, Raw> = idempotent("warabi_read");
    /// Bulk write: server pulls from the client's exposed region.
    WRITE_BULK: Rpc<BulkArgs, bool> = idempotent("warabi_write_bulk");
    /// Bulk read: server pushes into the client's exposed region.
    READ_BULK: Rpc<BulkArgs, bool> = idempotent("warabi_read_bulk");
    /// Blob size.
    SIZE: Rpc<BlobId, u64> = idempotent("warabi_size");
    /// Force to durable storage.
    PERSIST: Rpc<BlobId, bool> = idempotent("warabi_persist");
    /// Delete a blob; the reply says whether it existed.
    ERASE: Rpc<BlobId, bool> = once("warabi_erase");
    /// List blob ids.
    LIST: Rpc<(), Vec<BlobId>> = idempotent("warabi_list");
}
