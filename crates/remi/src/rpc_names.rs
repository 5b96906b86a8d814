//! The REMI RPC surface: every RPC, declared once with its types and its
//! retry class (`mochi_margo::Rpc`).
//!
//! The provider (`provider.rs`) registers these and the client
//! (`client.rs`) calls them, so a handler and its callers cannot disagree
//! on a name or a type. Restarting a session with the same token and
//! re-pulling the same exposed regions are safe, so `START` and `PULL`
//! are idempotent (`tests/retry_replay.rs` replays both); `END` tears the
//! session down and chunks are sequenced, so both are sent once.

use mochi_margo::{rpc_table, Raw};

use crate::protocol::{EndArgs, PullArgs, StartArgs, TransferSummary};

rpc_table! {
    /// Starts a migration (both strategies).
    START: Rpc<StartArgs, bool> = idempotent("remi_migration_start");
    /// Carries one packed chunk (chunked strategy; framed).
    CHUNK: Rpc<Raw, Raw> = once("remi_migration_chunk");
    /// Finishes a migration: verify checksums, move into place.
    END: Rpc<EndArgs, TransferSummary> = once("remi_migration_end");
    /// RDMA strategy: asks the destination to pull the exposed files.
    PULL: Rpc<PullArgs, TransferSummary> = idempotent("remi_migration_pull");
}
