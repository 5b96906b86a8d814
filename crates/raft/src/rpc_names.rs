//! The Raft RPC surface: every wire-visible RPC name, in one place.
//!
//! The node (`node.rs`) registers these and the client (`client.rs`)
//! calls them, so this module is the single definition both sides share.

/// Leader election.
pub const REQUEST_VOTE: &str = "raft_request_vote";
/// Replication + heartbeat.
pub const APPEND_ENTRIES: &str = "raft_append_entries";
/// Snapshot transfer to laggards.
pub const INSTALL_SNAPSHOT: &str = "raft_install_snapshot";
/// Client command submission.
pub const SUBMIT: &str = "raft_submit";
/// Cluster/status introspection.
pub const STATUS: &str = "raft_status";
/// Membership change: add a server.
pub const ADD_SERVER: &str = "raft_add_server";
/// Membership change: remove a server.
pub const REMOVE_SERVER: &str = "raft_remove_server";

/// All names (deregistration).
pub const ALL: [&str; 7] = [
    REQUEST_VOTE,
    APPEND_ENTRIES,
    INSTALL_SNAPSHOT,
    SUBMIT,
    STATUS,
    ADD_SERVER,
    REMOVE_SERVER,
];
