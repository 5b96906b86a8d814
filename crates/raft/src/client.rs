//! Raft client session: submit commands with leader discovery, redirect
//! following, and bounded retries.

use std::time::{Duration, Instant};

use parking_lot::RwLock;

use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;

use crate::messages::{rpc, MembershipArgs, StatusReply, SubmitArgs, SubmitReply};

/// A client handle onto a Raft cluster.
pub struct RaftClient {
    margo: MargoRuntime,
    provider_id: u16,
    members: Vec<Address>,
    // leaf: read or replaced whole.
    leader_hint: RwLock<Option<Address>>,
    /// Overall deadline per operation.
    op_timeout: Duration,
    /// Timeout of each individual RPC attempt. Should exceed the cluster's
    /// `submit_timeout_ms` for strict exactly-once behavior; shorter values
    /// fail over faster after a leader death at the cost of retrying
    /// commands whose first attempt may still commit (at-least-once).
    rpc_timeout: Duration,
}

impl RaftClient {
    /// Creates a client knowing at least one member.
    pub fn new(margo: &MargoRuntime, provider_id: u16, members: Vec<Address>) -> Self {
        Self {
            margo: margo.clone(),
            provider_id,
            members,
            leader_hint: RwLock::new(None),
            op_timeout: Duration::from_secs(10),
            rpc_timeout: Duration::from_secs(5),
        }
    }

    /// Overrides the per-operation deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Overrides the per-attempt RPC timeout (see the field docs for the
    /// failover-speed vs exactly-once trade-off).
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> Self {
        self.rpc_timeout = timeout;
        self
    }

    fn candidates(&self) -> Vec<Address> {
        let mut list = Vec::new();
        if let Some(hint) = self.leader_hint.read().clone() {
            list.push(hint);
        }
        for member in &self.members {
            if !list.contains(member) {
                list.push(member.clone());
            }
        }
        list
    }

    fn run<F>(&self, call: F) -> Result<Vec<u8>, MargoError>
    where
        F: Fn(&Address) -> Result<SubmitReply, MargoError>,
    {
        let deadline = Instant::now() + self.op_timeout;
        let mut last_error: MargoError = MargoError::Handler("no members".into());
        while Instant::now() < deadline {
            for target in self.candidates() {
                match call(&target) {
                    Ok(SubmitReply::Applied(result)) => {
                        *self.leader_hint.write() = Some(target);
                        return Ok(result);
                    }
                    Ok(SubmitReply::Redirect(hint)) => {
                        *self.leader_hint.write() = hint;
                        last_error = MargoError::Handler("redirected".into());
                    }
                    Ok(SubmitReply::Failed(reason)) => {
                        last_error = MargoError::Handler(reason);
                    }
                    Err(e) => last_error = e,
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err(last_error)
    }

    /// Submits a command; returns the state machine's response once the
    /// command commits.
    pub fn submit(&self, command: &[u8]) -> Result<Vec<u8>, MargoError> {
        let args = SubmitArgs { command: command.to_vec() };
        self.run(|target| {
            self.margo.forward_timeout(
                target,
                rpc::SUBMIT,
                self.provider_id,
                &args,
                self.rpc_timeout,
            )
        })
    }

    /// Adds a server to the cluster.
    pub fn add_server(&self, server: &Address) -> Result<(), MargoError> {
        let args = MembershipArgs { server: server.clone() };
        self.run(|target| {
            self.margo.forward_timeout(
                target,
                rpc::ADD_SERVER,
                self.provider_id,
                &args,
                self.rpc_timeout,
            )
        })
        .map(|_| ())
    }

    /// Removes a server from the cluster.
    pub fn remove_server(&self, server: &Address) -> Result<(), MargoError> {
        let args = MembershipArgs { server: server.clone() };
        self.run(|target| {
            self.margo.forward_timeout(
                target,
                rpc::REMOVE_SERVER,
                self.provider_id,
                &args,
                self.rpc_timeout,
            )
        })
        .map(|_| ())
    }

    /// Fetches the status of one node.
    pub fn status_of(&self, member: &Address) -> Result<StatusReply, MargoError> {
        self.margo.forward_timeout(
            member,
            rpc::STATUS,
            self.provider_id,
            &(),
            Duration::from_secs(2),
        )
    }

    /// Finds the current leader by polling members.
    pub fn find_leader(&self) -> Option<Address> {
        for member in self.candidates() {
            if let Ok(status) = self.status_of(&member) {
                if status.role == "Leader" {
                    *self.leader_hint.write() = Some(member.clone());
                    return Some(member);
                }
                if let Some(leader) = status.leader {
                    if let Ok(s2) = self.status_of(&leader) {
                        if s2.role == "Leader" {
                            *self.leader_hint.write() = Some(leader.clone());
                            return Some(leader);
                        }
                    }
                }
            }
        }
        None
    }
}
