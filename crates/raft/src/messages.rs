//! Raft RPC argument and reply types.

use serde::{Deserialize, Serialize};

use mochi_mercury::Address;

use crate::types::{LogEntry, LogIndex, Term};

/// RPCs registered by a Raft node.
/// The declarations themselves live in [`crate::rpc_names`].
pub use crate::rpc_names as rpc;

/// `RequestVote` arguments (§5.2 of the Raft paper, plus the PreVote
/// extension of Ongaro's thesis §9.6 — without it, a restarted node with
/// a stale log can livelock the cluster by endlessly bumping terms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestVoteArgs {
    /// Candidate's (proposed) term.
    pub term: Term,
    /// Candidate's address.
    pub candidate: Address,
    /// Index of the candidate's last log entry.
    pub last_log_index: LogIndex,
    /// Term of the candidate's last log entry.
    pub last_log_term: Term,
    /// PreVote probe: a grant promises nothing and changes no state.
    pub pre_vote: bool,
}

/// `RequestVote` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestVoteReply {
    /// Responder's current term.
    pub term: Term,
    /// Whether the vote was granted.
    pub vote_granted: bool,
}

/// `AppendEntries` arguments (§5.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppendEntriesArgs {
    /// Leader's term.
    pub term: Term,
    /// Leader's address (for client redirection).
    pub leader: Address,
    /// Index of the entry preceding the new ones.
    pub prev_log_index: LogIndex,
    /// Term of that entry.
    pub prev_log_term: Term,
    /// New entries (empty for heartbeats).
    pub entries: Vec<LogEntry>,
    /// Leader's commit index.
    pub leader_commit: LogIndex,
}

/// `AppendEntries` reply, with the conflict hint optimization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppendEntriesReply {
    /// Responder's current term.
    pub term: Term,
    /// Whether the entries were appended.
    pub success: bool,
    /// On failure, an index the leader should retry from (first index of
    /// the conflicting term, or just past the follower's log end).
    pub conflict_index: LogIndex,
    /// On success, the index of the last entry the follower now holds
    /// matching the leader (for match-index advancement).
    pub match_index: LogIndex,
}

/// `InstallSnapshot` arguments (§7), sent whole — our snapshots are small.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstallSnapshotArgs {
    /// Leader's term.
    pub term: Term,
    /// Leader's address.
    pub leader: Address,
    /// Last index covered by the snapshot.
    pub last_included_index: LogIndex,
    /// Term of that entry.
    pub last_included_term: Term,
    /// Membership at the snapshot point.
    pub membership: Vec<Address>,
    /// Serialized state machine.
    pub data: Vec<u8>,
}

/// `InstallSnapshot` reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstallSnapshotReply {
    /// Responder's current term.
    pub term: Term,
}

/// Client submission arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitArgs {
    /// Opaque application command.
    pub command: Vec<u8>,
}

/// Client submission reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SubmitReply {
    /// Committed and applied; the state machine's response.
    Applied(Vec<u8>),
    /// This node is not the leader; try the hinted address.
    Redirect(Option<Address>),
    /// Leadership was lost (or timed out) before commitment.
    Failed(String),
}

/// Node status (introspection / tests / benches).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusReply {
    /// Current term.
    pub term: Term,
    /// Role name (`"Leader"`, `"Follower"`, `"Candidate"`).
    pub role: String,
    /// Known leader, if any.
    pub leader: Option<Address>,
    /// Last log index.
    pub last_log_index: LogIndex,
    /// Commit index.
    pub commit_index: LogIndex,
    /// Applied index.
    pub last_applied: LogIndex,
    /// Current membership.
    pub membership: Vec<Address>,
}

/// Membership-change arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MembershipArgs {
    /// The server being added or removed.
    pub server: Address,
}
