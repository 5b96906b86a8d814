//! The Bedrock control-plane RPC surface: every wire-visible RPC name,
//! in one place.
//!
//! The server (`server.rs`) registers these and the client (`client.rs`)
//! calls them through [`crate::proto`], which re-exports this module, so
//! both sides share a single definition.

/// `get_config` RPC name.
pub const GET_CONFIG: &str = "bedrock_get_config";
/// `query` (Jx9) RPC name.
pub const QUERY: &str = "bedrock_query_config";
/// `add_pool` RPC name.
pub const ADD_POOL: &str = "bedrock_add_pool";
/// `remove_pool` RPC name.
pub const REMOVE_POOL: &str = "bedrock_remove_pool";
/// `add_xstream` RPC name.
pub const ADD_XSTREAM: &str = "bedrock_add_xstream";
/// `remove_xstream` RPC name.
pub const REMOVE_XSTREAM: &str = "bedrock_remove_xstream";
/// `load_module` RPC name.
pub const LOAD_MODULE: &str = "bedrock_load_module";
/// `start_provider` RPC name.
pub const START_PROVIDER: &str = "bedrock_start_provider";
/// `stop_provider` RPC name.
pub const STOP_PROVIDER: &str = "bedrock_stop_provider";
/// `lookup_provider` RPC name.
pub const LOOKUP_PROVIDER: &str = "bedrock_lookup_provider";
/// `migrate_provider` RPC name.
pub const MIGRATE_PROVIDER: &str = "bedrock_migrate_provider";
/// `checkpoint_provider` RPC name.
pub const CHECKPOINT_PROVIDER: &str = "bedrock_checkpoint_provider";
/// `restore_provider` RPC name.
pub const RESTORE_PROVIDER: &str = "bedrock_restore_provider";
/// Registers a cross-process dependent of a local provider.
pub const ADD_DEPENDENT: &str = "bedrock_add_dependent";
/// Removes a cross-process dependent registration.
pub const REMOVE_DEPENDENT: &str = "bedrock_remove_dependent";
/// Transaction prepare RPC name.
pub const TXN_PREPARE: &str = "bedrock_txn_prepare";
/// Transaction commit RPC name.
pub const TXN_COMMIT: &str = "bedrock_txn_commit";
/// Transaction abort RPC name.
pub const TXN_ABORT: &str = "bedrock_txn_abort";
