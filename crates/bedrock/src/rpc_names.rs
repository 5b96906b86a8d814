//! The Bedrock control-plane RPC surface: every RPC, declared once with
//! its types and its retry class (`mochi_margo::Rpc`).
//!
//! The server (`server.rs`) registers these and the client (`client.rs`)
//! calls them through [`crate::proto`], which re-exports this module, so
//! a handler and its callers cannot disagree on a name or a type. Each is
//! sent once: a reconfiguration that ran is not run again behind its
//! caller's back.

use serde_json::Value;

use mochi_margo::rpc_table;

use crate::config::ProviderSpec;
use crate::server::proto::{
    CheckpointArgs, DependentArgs, LoadModuleArgs, MigrateArgs, MigrateReply, NameArgs,
    ProviderInfo, QueryArgs, TxnIdArgs, TxnPrepareArgs,
};

rpc_table! {
    /// The process configuration (Listing 3 shape, live).
    GET_CONFIG: Rpc<(), Value> = once("bedrock_get_config");
    /// A Jx9 query against the configuration (Listing 4).
    QUERY: Rpc<QueryArgs, Value> = once("bedrock_query_config");
    /// Adds a pool described by a JSON object.
    ADD_POOL: Rpc<Value, ()> = once("bedrock_add_pool");
    /// Removes a pool.
    REMOVE_POOL: Rpc<NameArgs, ()> = once("bedrock_remove_pool");
    /// Adds an xstream described by a JSON object.
    ADD_XSTREAM: Rpc<Value, ()> = once("bedrock_add_xstream");
    /// Removes an xstream.
    REMOVE_XSTREAM: Rpc<NameArgs, ()> = once("bedrock_remove_xstream");
    /// Loads a module.
    LOAD_MODULE: Rpc<LoadModuleArgs, ()> = once("bedrock_load_module");
    /// Starts a provider.
    START_PROVIDER: Rpc<ProviderSpec, ()> = once("bedrock_start_provider");
    /// Stops a provider.
    STOP_PROVIDER: Rpc<NameArgs, ()> = once("bedrock_stop_provider");
    /// A provider's routing info.
    LOOKUP_PROVIDER: Rpc<NameArgs, ProviderInfo> = once("bedrock_lookup_provider");
    /// Migrates a provider to another Bedrock process.
    MIGRATE_PROVIDER: Rpc<MigrateArgs, MigrateReply> = once("bedrock_migrate_provider");
    /// Checkpoints a provider to a directory.
    CHECKPOINT_PROVIDER: Rpc<CheckpointArgs, ()> = once("bedrock_checkpoint_provider");
    /// Restores a provider from a checkpoint directory.
    RESTORE_PROVIDER: Rpc<CheckpointArgs, ()> = once("bedrock_restore_provider");
    /// Registers a cross-process dependent of a local provider.
    ADD_DEPENDENT: Rpc<DependentArgs, ()> = once("bedrock_add_dependent");
    /// Removes a cross-process dependent registration.
    REMOVE_DEPENDENT: Rpc<DependentArgs, ()> = once("bedrock_remove_dependent");
    /// Two-phase commit: prepare.
    TXN_PREPARE: Rpc<TxnPrepareArgs, ()> = once("bedrock_txn_prepare");
    /// Two-phase commit: commit.
    TXN_COMMIT: Rpc<TxnIdArgs, ()> = once("bedrock_txn_commit");
    /// Two-phase commit: abort.
    TXN_ABORT: Rpc<TxnIdArgs, ()> = once("bedrock_txn_abort");
}
