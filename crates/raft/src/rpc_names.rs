//! The Raft RPC surface: every RPC, declared once with its types and its
//! retry class (`mochi_margo::Rpc`).
//!
//! The node (`node.rs`) registers these and the client (`client.rs`)
//! calls them, so a handler and its callers cannot disagree on a name or
//! a type. Each is sent once: raft's own rounds (elections, heartbeats,
//! the client's leader search) are its retries.

use mochi_margo::rpc_table;

use crate::messages::{
    AppendEntriesArgs, AppendEntriesReply, InstallSnapshotArgs, InstallSnapshotReply,
    MembershipArgs, RequestVoteArgs, RequestVoteReply, StatusReply, SubmitArgs, SubmitReply,
};

rpc_table! {
    /// Leader election.
    REQUEST_VOTE: Rpc<RequestVoteArgs, RequestVoteReply> = once("raft_request_vote");
    /// Replication + heartbeat.
    APPEND_ENTRIES: Rpc<AppendEntriesArgs, AppendEntriesReply> = once("raft_append_entries");
    /// Snapshot transfer to laggards.
    INSTALL_SNAPSHOT: Rpc<InstallSnapshotArgs, InstallSnapshotReply> =
        once("raft_install_snapshot");
    /// Client command submission.
    SUBMIT: Rpc<SubmitArgs, SubmitReply> = once("raft_submit");
    /// Cluster/status introspection.
    STATUS: Rpc<(), StatusReply> = once("raft_status");
    /// Membership change: add a server.
    ADD_SERVER: Rpc<MembershipArgs, SubmitReply> = once("raft_add_server");
    /// Membership change: remove a server.
    REMOVE_SERVER: Rpc<MembershipArgs, SubmitReply> = once("raft_remove_server");
}
