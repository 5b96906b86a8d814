//! Core Raft types.

use serde::{Deserialize, Serialize};

use mochi_mercury::Address;

/// A Raft term.
pub type Term = u64;
/// A position in the replicated log (1-based; 0 = "nothing").
pub type LogIndex = u64;

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Accepting entries from a leader.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Replicating entries to followers.
    Leader,
}

/// What a log entry carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaftCommand {
    /// Barrier appended by a fresh leader to commit entries from earlier
    /// terms (§8 of the Raft paper: a leader may only count replicas for
    /// entries of its own term).
    Noop,
    /// Application command, applied to the state machine.
    App(Vec<u8>),
    /// Cluster membership change: the full new member list.
    Config(Vec<Address>),
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Term the entry was created in.
    pub term: Term,
    /// Its index.
    pub index: LogIndex,
    /// Payload.
    pub command: RaftCommand,
}

/// The replicated state machine. Commands are opaque bytes — Raft does
/// not know what they mean (the paper's composability requirement).
pub trait StateMachine: Send {
    /// Applies a committed command, returning the response for the client
    /// that submitted it.
    fn apply(&mut self, command: &[u8]) -> Vec<u8>;

    /// Serializes the full state for snapshotting.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state from a snapshot.
    fn restore(&mut self, snapshot: &[u8]);
}

/// A trivial state machine that appends commands to a vector — used by
/// tests to check linearized order.
#[derive(Debug, Default)]
pub struct LogMachine {
    /// Applied commands, in order.
    pub applied: Vec<Vec<u8>>,
}

impl StateMachine for LogMachine {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        self.applied.push(command.to_vec());
        (self.applied.len() as u64).to_le_bytes().to_vec()
    }

    #[expect(
        clippy::expect_used,
        reason = "serializing the in-memory state machine image is infallible"
    )]
    fn snapshot(&self) -> Vec<u8> {
        serde_json::to_vec(&self.applied).expect("serializes")
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.applied = serde_json::from_slice(snapshot).unwrap_or_default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_machine_applies_and_snapshots() {
        let mut sm = LogMachine::default();
        sm.apply(b"a");
        sm.apply(b"b");
        let snap = sm.snapshot();
        let mut sm2 = LogMachine::default();
        sm2.restore(&snap);
        assert_eq!(sm2.applied, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn entries_serialize() {
        let entry = LogEntry {
            term: 3,
            index: 7,
            command: RaftCommand::Config(vec![Address::tcp("n1", 1)]),
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: LogEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }
}
