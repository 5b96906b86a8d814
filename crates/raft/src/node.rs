//! The Raft node: election, replication, commitment, snapshots,
//! membership changes.
//!
//! Threading model: one *ticker* thread drives election timeouts and
//! snapshot policy; as leader, one *replicator* thread per peer pushes
//! `AppendEntries` (or `InstallSnapshot` for laggards). All shared state
//! sits behind a single mutex (the private `Core` struct); RPCs are sent
//! outside it.
//! Client submissions block in their handler ULT until the entry commits,
//! so the node registers its RPCs in a dedicated `__raft__` pool with
//! several execution streams to keep a few submissions in flight.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use mochi_argobots::pool::Notifier;
use mochi_margo::{MargoError, MargoRuntime, Rpc};
use mochi_mercury::Address;
use mochi_util::ordered_lock::{rank, OrderedMutex};
use mochi_util::SeededRng;
use mochi_util::Flag;

use crate::messages::{rpc, *};
use crate::storage::{Meta, RaftStorage, SnapshotRecord};
use crate::types::{LogEntry, LogIndex, RaftCommand, Role, StateMachine, Term};

/// Tuning of a Raft node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaftConfig {
    /// Election timeout lower bound (ms).
    pub election_timeout_min_ms: u64,
    /// Election timeout upper bound (ms).
    pub election_timeout_max_ms: u64,
    /// Heartbeat interval (ms).
    pub heartbeat_ms: u64,
    /// Timeout of individual Raft RPCs (ms).
    pub rpc_timeout_ms: u64,
    /// Take a snapshot when the log exceeds this many entries.
    pub snapshot_threshold: u64,
    /// How long a client submission may wait for commitment (ms).
    pub submit_timeout_ms: u64,
    /// RNG seed (timeout randomization).
    pub seed: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        Self {
            election_timeout_min_ms: 150,
            election_timeout_max_ms: 300,
            heartbeat_ms: 30,
            rpc_timeout_ms: 50,
            snapshot_threshold: 1024,
            submit_timeout_ms: 2000,
            seed: 0x4a57,
        }
    }
}

impl RaftConfig {
    /// Faster timeouts for tests on the instant fabric.
    pub fn fast() -> Self {
        Self {
            election_timeout_min_ms: 50,
            election_timeout_max_ms: 100,
            heartbeat_ms: 10,
            rpc_timeout_ms: 20,
            submit_timeout_ms: 2000,
            ..Default::default()
        }
    }
}

type Waiter = SyncSender<Result<Vec<u8>, String>>;

struct Core {
    role: Role,
    meta: Meta,
    /// Entries after the snapshot; entry `log[i]` has index
    /// `snap_index + 1 + i`.
    log: Vec<LogEntry>,
    snap_index: LogIndex,
    snap_term: Term,
    snap_membership: Vec<Address>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    membership: Vec<Address>,
    leader_hint: Option<Address>,
    last_heartbeat: Instant,
    election_timeout: Duration,
    next_index: HashMap<Address, LogIndex>,
    match_index: HashMap<Address, LogIndex>,
    waiters: HashMap<LogIndex, Waiter>,
    sm: Box<dyn StateMachine>,
}

impl Core {
    fn last_log_index(&self) -> LogIndex {
        self.snap_index + self.log.len() as u64
    }

    fn last_log_term(&self) -> Term {
        self.log.last().map(|e| e.term).unwrap_or(self.snap_term)
    }

    /// Term of the entry at `index`; `None` if compacted away or absent.
    fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == 0 {
            return Some(0);
        }
        if index == self.snap_index {
            return Some(self.snap_term);
        }
        if index < self.snap_index {
            return None;
        }
        self.log.get((index - self.snap_index - 1) as usize).map(|e| e.term)
    }

    fn entry_at(&self, index: LogIndex) -> Option<&LogEntry> {
        if index <= self.snap_index {
            return None;
        }
        self.log.get((index - self.snap_index - 1) as usize)
    }

    /// Entries from `from` (inclusive) up to a batch limit.
    fn entries_from(&self, from: LogIndex, max: usize) -> Vec<LogEntry> {
        if from <= self.snap_index {
            return Vec::new();
        }
        let start = (from - self.snap_index - 1) as usize;
        self.log.iter().skip(start).take(max).cloned().collect()
    }

    /// Effective membership: latest Config entry in the log, else the
    /// snapshot's.
    fn recompute_membership(&mut self) {
        let from_log = self
            .log
            .iter()
            .rev()
            .find_map(|e| match &e.command {
                RaftCommand::Config(list) => Some(list.clone()),
                _ => None,
            });
        self.membership = from_log.unwrap_or_else(|| self.snap_membership.clone());
    }

    fn quorum(&self) -> usize {
        self.membership.len() / 2 + 1
    }

    fn fail_all_waiters(&mut self, reason: &str) {
        for (_, waiter) in self.waiters.drain() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a waiter that timed out dropped its receiver; nobody is left to tell"
            )]
            let _ = waiter.send(Err(reason.to_string()));
        }
    }
}

struct NodeInner {
    margo: MargoRuntime,
    provider_id: u16,
    config: RaftConfig,
    storage: RaftStorage,
    core: OrderedMutex<Core>,
    /// Wakes replicators when new entries arrive or leadership changes.
    signal: Notifier,
    stopped: Flag,
    threads: OrderedMutex<Vec<std::thread::JoinHandle<()>>>,
    replicators: OrderedMutex<std::collections::HashSet<Address>>,
    rng: OrderedMutex<SeededRng>,
}

/// A running Raft node.
#[derive(Clone)]
pub struct RaftNode {
    inner: Arc<NodeInner>,
}

/// The pool Raft registers its handlers in (created on demand with a few
/// ESs so blocking submissions don't serialize the whole protocol).
const RAFT_POOL: &str = "__raft__";
const RAFT_POOL_ES: usize = 4;
/// Max entries per AppendEntries.
const BATCH: usize = 64;

impl RaftNode {
    /// Starts a Raft node. `peers` is the full initial membership
    /// (including this node); every node of a fresh cluster must start
    /// with the same list. If durable state exists in `data_dir`, it wins
    /// over `peers` (a restart).
    pub fn start(
        margo: &MargoRuntime,
        provider_id: u16,
        peers: &[Address],
        sm: Box<dyn StateMachine>,
        data_dir: impl Into<std::path::PathBuf>,
        config: RaftConfig,
    ) -> Result<Self, MargoError> {
        let storage = RaftStorage::open(data_dir)
            .map_err(|e| MargoError::Handler(format!("raft storage: {e}")))?;
        let meta = storage.load_meta();
        let snapshot = storage.load_snapshot();
        let log = storage
            .load_log()
            .map_err(|e| MargoError::Handler(format!("raft storage: {e}")))?;
        let mut core = Core {
            role: Role::Follower,
            meta,
            log,
            snap_index: 0,
            snap_term: 0,
            snap_membership: peers.to_vec(),
            commit_index: 0,
            last_applied: 0,
            membership: peers.to_vec(),
            leader_hint: None,
            last_heartbeat: Instant::now(),
            election_timeout: Duration::from_millis(config.election_timeout_max_ms),
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            waiters: HashMap::new(),
            sm,
        };
        if let Some(snapshot) = snapshot {
            core.sm.restore(&snapshot.data);
            core.snap_index = snapshot.last_included_index;
            core.snap_term = snapshot.last_included_term;
            core.snap_membership = snapshot.membership;
            core.commit_index = core.snap_index;
            core.last_applied = core.snap_index;
            // Drop log entries covered by the snapshot (the log file may
            // predate it).
            core.log.retain(|e| e.index > snapshot.last_included_index);
        }
        core.recompute_membership();

        // Dedicated pool for the (blocking) handlers.
        if margo.find_pool_by_name(RAFT_POOL).is_none() {
            margo.add_pool_from_json(&format!(r#"{{"name": "{RAFT_POOL}"}}"#))?;
            for i in 0..RAFT_POOL_ES {
                margo.add_xstream_from_json(&format!(
                    r#"{{"name": "{RAFT_POOL}-es{i}", "scheduler": {{"pools": ["{RAFT_POOL}"]}}}}"#
                ))?;
            }
        }

        let inner = Arc::new(NodeInner {
            margo: margo.clone(),
            provider_id,
            config,
            storage,
            core: OrderedMutex::new(rank::RAFT_CORE, "raft.core", core),
            signal: Notifier::new(),
            stopped: Flag::new(false),
            threads: OrderedMutex::new(rank::RAFT_THREADS, "raft.threads", Vec::new()),
            replicators: OrderedMutex::new(
                rank::RAFT_REPLICATORS,
                "raft.replicators",
                std::collections::HashSet::new(),
            ),
            rng: OrderedMutex::new(
                rank::RAFT_RNG,
                "raft.rng",
                SeededRng::new(config.seed).child(&margo.address().to_string()),
            ),
        });
        let node = Self { inner };
        node.randomize_timeout();
        node.register_rpcs()?;
        node.spawn_ticker()?;
        Ok(node)
    }

    /// This node's address.
    pub fn address(&self) -> Address {
        self.inner.margo.address()
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.inner.core.lock().role
    }

    /// Whether this node currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role() == Role::Leader
    }

    /// Current status snapshot.
    pub fn status(&self) -> StatusReply {
        let core = self.inner.core.lock();
        StatusReply {
            term: core.meta.term,
            role: format!("{:?}", core.role),
            leader: core.leader_hint.clone(),
            last_log_index: core.last_log_index(),
            commit_index: core.commit_index,
            last_applied: core.last_applied,
            membership: core.membership.clone(),
        }
    }

    fn randomize_timeout(&self) {
        // Draw the value first and release `rng` before touching `core`:
        // `rng` is a leaf (rank above `core`), so holding it across the
        // core acquisition would invert the lock hierarchy.
        let ms = {
            let mut rng = self.inner.rng.lock();
            rng.range_u64(
                self.inner.config.election_timeout_min_ms,
                self.inner.config.election_timeout_max_ms + 1,
            )
        };
        self.inner.core.lock().election_timeout = Duration::from_millis(ms);
    }

    // ------------------------------------------------------------------
    // Role transitions (called with the core lock held)
    // ------------------------------------------------------------------

    /// Writes `meta` and adopts it only once it is on disk: a term or a
    /// vote this node acts on survives a restart, so it can never ack an
    /// older leader or vote twice in one term after one. On an error the
    /// node keeps the meta it had; the caller refuses what it was asked.
    fn persist_meta(inner: &NodeInner, core: &mut Core, meta: Meta) -> Result<(), String> {
        inner.storage.save_meta(&meta).map_err(storage_error)?;
        core.meta = meta;
        Ok(())
    }

    /// Steps down, adopting `term` if it is newer. `Err` when the newer
    /// term could not be persisted: the node is a follower of its old term
    /// then, and a handler must not answer for the new one.
    fn become_follower(inner: &Arc<NodeInner>, core: &mut Core, term: Term) -> Result<(), String> {
        let was_leader = core.role == Role::Leader;
        core.role = Role::Follower;
        if was_leader {
            core.fail_all_waiters("lost leadership");
        }
        if term > core.meta.term {
            Self::persist_meta(inner, core, Meta { term, voted_for: None })?;
        }
        // Note: the election timer is NOT reset here — only genuine
        // leader contact (AppendEntries/InstallSnapshot) or granting a
        // vote restarts it, which is what keeps a deposed node from
        // being repeatedly silenced by stray higher terms.
        Ok(())
    }

    /// Takes leadership once the barrier entry (§5.4.2), which lets
    /// earlier-term entries commit, is in this node's log on disk: a
    /// leader counts its own log toward every commit quorum.
    fn become_leader(inner: &Arc<NodeInner>, core: &mut Core) -> Result<(), String> {
        let entry = LogEntry {
            term: core.meta.term,
            index: core.last_log_index() + 1,
            command: RaftCommand::Noop,
        };
        inner.storage.append_entries(std::slice::from_ref(&entry)).map_err(storage_error)?;
        core.role = Role::Leader;
        core.leader_hint = Some(inner.margo.address());
        let next = core.last_log_index() + 1;
        core.next_index.clear();
        core.match_index.clear();
        for peer in core.membership.clone() {
            if peer != inner.margo.address() {
                core.next_index.insert(peer.clone(), next);
                core.match_index.insert(peer, 0);
            }
        }
        core.log.push(entry);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit + apply (called with the core lock held)
    // ------------------------------------------------------------------

    fn apply_committed(inner: &Arc<NodeInner>, core: &mut Core) {
        while core.last_applied < core.commit_index {
            let index = core.last_applied + 1;
            let Some(entry) = core.entry_at(index).cloned() else {
                break; // compacted: snapshot already covers it
            };
            let result = match &entry.command {
                RaftCommand::App(command) => core.sm.apply(command),
                RaftCommand::Noop => Vec::new(),
                RaftCommand::Config(list) => {
                    // Committed config: if we were removed, step down.
                    if !list.contains(&inner.margo.address()) && core.role == Role::Leader {
                        core.role = Role::Follower;
                        core.fail_all_waiters("removed from cluster");
                    }
                    Vec::new()
                }
            };
            core.last_applied = index;
            if let Some(waiter) = core.waiters.remove(&index) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a waiter that timed out dropped its receiver; nobody is left to tell"
                )]
                let _ = waiter.send(Ok(result));
            }
        }
    }

    fn advance_commit(inner: &Arc<NodeInner>, core: &mut Core) {
        if core.role != Role::Leader {
            return;
        }
        let self_addr = inner.margo.address();
        let mut matches: Vec<LogIndex> = core
            .membership
            .iter()
            .filter(|p| **p != self_addr)
            .map(|p| core.match_index.get(p).copied().unwrap_or(0))
            .collect();
        if core.membership.contains(&self_addr) {
            matches.push(core.last_log_index());
        }
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let quorum = core.quorum();
        if matches.len() < quorum {
            return;
        }
        let candidate = matches[quorum - 1];
        if candidate > core.commit_index && core.term_at(candidate) == Some(core.meta.term) {
            core.commit_index = candidate;
            Self::apply_committed(inner, core);
        }
    }

    // ------------------------------------------------------------------
    // Ticker: elections + snapshot policy + replicator management
    // ------------------------------------------------------------------

    fn spawn_ticker(&self) -> Result<(), MargoError> {
        let inner = Arc::clone(&self.inner);
        let node = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("raft-tick-{}", self.address()))
            .spawn(move || {
                while !inner.stopped.get() {
                    std::thread::sleep(Duration::from_millis(5));
                    node.tick();
                }
            })
            .map_err(|e| MargoError::Spawn(format!("raft ticker: {e}")))?;
        self.inner.threads.lock().push(handle);
        Ok(())
    }

    fn tick(&self) {
        let inner = &self.inner;
        let election = {
            let mut core = inner.core.lock();
            // Snapshot policy.
            if core.log.len() as u64 > inner.config.snapshot_threshold
                && core.last_applied > core.snap_index
            {
                Self::take_snapshot(inner, &mut core);
            }
            match core.role {
                Role::Leader => {
                    drop(core);
                    self.ensure_replicators();
                    None
                }
                Role::Follower | Role::Candidate => {
                    if core.last_heartbeat.elapsed() >= core.election_timeout
                        && core.membership.contains(&inner.margo.address())
                    {
                        Some(Self::prepare_election(inner, &mut core))
                    } else {
                        None
                    }
                }
            }
        };
        if let Some((term, args, peers)) = election {
            self.randomize_timeout();
            self.run_election(term, args, peers);
        }
    }

    fn take_snapshot(inner: &Arc<NodeInner>, core: &mut Core) {
        let at = core.last_applied;
        let Some(term) = core.term_at(at) else { return };
        let record = SnapshotRecord {
            last_included_index: at,
            last_included_term: term,
            membership: core.membership.clone(),
            data: core.sm.snapshot(),
        };
        if inner.storage.save_snapshot(&record).is_err() {
            return;
        }
        core.log.retain(|e| e.index > at);
        core.snap_index = at;
        core.snap_term = term;
        core.snap_membership = record.membership;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the snapshot is durable: a log file that still holds the entries it covers is a crash between the two writes, and `start` drops those entries"
        )]
        let _ = inner.storage.rewrite_log(&core.log);
    }

    fn prepare_election(
        inner: &Arc<NodeInner>,
        core: &mut Core,
    ) -> (Term, RequestVoteArgs, Vec<Address>) {
        // Phase 1 (PreVote) changes no durable state: we propose term+1
        // and only bump the real term if a quorum would elect us.
        core.last_heartbeat = Instant::now(); // restart our own timer
        let proposed = core.meta.term + 1;
        let args = RequestVoteArgs {
            term: proposed,
            candidate: inner.margo.address(),
            last_log_index: core.last_log_index(),
            last_log_term: core.last_log_term(),
            pre_vote: true,
        };
        let peers: Vec<Address> = core
            .membership
            .iter()
            .filter(|p| **p != inner.margo.address())
            .cloned()
            .collect();
        (proposed, args, peers)
    }

    /// Sends `args` to all peers in parallel; returns whether a quorum
    /// (counting our own vote) granted. Steps down and returns false if
    /// any reply carries a higher term (real votes only).
    fn collect_votes(inner: &Arc<NodeInner>, args: &RequestVoteArgs, peers: &[Address]) -> bool {
        let quorum = inner.core.lock().quorum();
        let mut granted = 1usize; // self
        if granted >= quorum {
            return true;
        }
        let (tx, rx) = sync_channel::<RequestVoteReply>(peers.len().max(1));
        for peer in peers {
            let inner = Arc::clone(inner);
            let args = args.clone();
            let peer = peer.clone();
            let tx = tx.clone();
            #[expect(
                clippy::expect_used,
                reason = "thread spawn failure is unrecoverable resource exhaustion; aborting the election is correct"
            )]
            std::thread::Builder::new()
                .name("raft-vote".into())
                .spawn(move || {
                    let reply: Result<RequestVoteReply, _> = inner.margo.forward_timeout(
                        &peer,
                        rpc::REQUEST_VOTE,
                        inner.provider_id,
                        &args,
                        Duration::from_millis(inner.config.rpc_timeout_ms),
                    );
                    if let Ok(reply) = reply {
                        if tx.send(reply).is_err() {
                            // The collector reached quorum (or timed
                            // out) and dropped the receiver; nothing is
                            // owed to a concluded election.
                        }
                    }
                })
                .expect("spawn vote thread");
        }
        drop(tx);
        let deadline =
            Instant::now() + Duration::from_millis(inner.config.rpc_timeout_ms * 2);
        let mut received = 0usize;
        while granted < quorum && received < peers.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(reply) => {
                    received += 1;
                    if !args.pre_vote && reply.term > args.term {
                        let mut core = inner.core.lock();
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "stepping down answers no one: a term that did not persist is not adopted, and the next message that carries it tries again"
                        )]
                        let _ = Self::become_follower(inner, &mut core, reply.term);
                        return false;
                    }
                    if reply.vote_granted {
                        granted += 1;
                    }
                }
                Err(_) => break,
            }
        }
        granted >= quorum
    }

    fn run_election(&self, proposed: Term, prevote_args: RequestVoteArgs, peers: Vec<Address>) {
        let inner = Arc::clone(&self.inner);
        #[expect(
            clippy::expect_used,
            reason = "thread spawn failure is unrecoverable resource exhaustion"
        )]
        std::thread::Builder::new()
            .name("raft-election".into())
            .spawn(move || {
                // Phase 1: PreVote — costs nothing if we cannot win.
                if !Self::collect_votes(&inner, &prevote_args, &peers) {
                    return;
                }
                // Phase 2: real election at the proposed term.
                let real_args = {
                    let mut core = inner.core.lock();
                    if core.meta.term >= proposed || core.role == Role::Leader {
                        return; // the world moved on during the prevote
                    }
                    let meta = Meta { term: proposed, voted_for: Some(inner.margo.address()) };
                    if Self::persist_meta(&inner, &mut core, meta).is_err() {
                        // A vote we cannot persist is a vote we must not
                        // cast: after a restart this node could vote
                        // again in the same term and elect two leaders.
                        core.role = Role::Follower;
                        return;
                    }
                    core.role = Role::Candidate;
                    core.last_heartbeat = Instant::now();
                    RequestVoteArgs {
                        term: proposed,
                        candidate: inner.margo.address(),
                        last_log_index: core.last_log_index(),
                        last_log_term: core.last_log_term(),
                        pre_vote: false,
                    }
                };
                if !Self::collect_votes(&inner, &real_args, &peers) {
                    return;
                }
                let mut core = inner.core.lock();
                if core.role == Role::Candidate && core.meta.term == proposed {
                    if Self::become_leader(&inner, &mut core).is_err() {
                        core.role = Role::Follower;
                        return;
                    }
                    drop(core);
                    inner.signal.notify_all();
                }
            })
            .expect("spawn election thread");
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn ensure_replicators(&self) {
        let peers: Vec<Address> = {
            let core = self.inner.core.lock();
            core.membership
                .iter()
                .filter(|p| **p != self.inner.margo.address())
                .cloned()
                .collect()
        };
        let mut replicators = self.inner.replicators.lock();
        for peer in peers {
            if replicators.insert(peer.clone()) {
                let inner = Arc::clone(&self.inner);
                #[expect(
                    clippy::expect_used,
                    reason = "thread spawn failure is unrecoverable resource exhaustion"
                )]
                let handle = std::thread::Builder::new()
                    .name(format!("raft-repl-{peer}"))
                    .spawn(move || Self::replicator_loop(inner, peer))
                    .expect("spawn replicator");
                self.inner.threads.lock().push(handle);
            }
        }
    }

    fn replicator_loop(inner: Arc<NodeInner>, peer: Address) {
        let heartbeat = Duration::from_millis(inner.config.heartbeat_ms);
        let rpc_timeout = Duration::from_millis(inner.config.rpc_timeout_ms);
        let mut last_send = Instant::now() - heartbeat;
        while !inner.stopped.get() {
            let generation = inner.signal.generation();
            enum Work {
                Idle,
                Append(AppendEntriesArgs),
                Snapshot(InstallSnapshotArgs),
            }
            let work = {
                let core = inner.core.lock();
                if core.role != Role::Leader || !core.membership.contains(&peer) {
                    Work::Idle
                } else {
                    let next = core.next_index.get(&peer).copied().unwrap_or(1);
                    if next <= core.snap_index {
                        // Ship the *persisted* snapshot: its data matches
                        // snap_index exactly. A live state-machine dump
                        // would include later entries, which the follower
                        // would then re-apply on top (double application).
                        let term = core.meta.term;
                        drop(core);
                        match inner.storage.load_snapshot() {
                            Some(record) => Work::Snapshot(InstallSnapshotArgs {
                                term,
                                leader: inner.margo.address(),
                                last_included_index: record.last_included_index,
                                last_included_term: record.last_included_term,
                                membership: record.membership,
                                data: record.data,
                            }),
                            None => Work::Idle, // racing with compaction; retry
                        }
                    } else {
                        let entries = core.entries_from(next, BATCH);
                        let need_heartbeat = last_send.elapsed() >= heartbeat;
                        if entries.is_empty() && !need_heartbeat {
                            Work::Idle
                        } else {
                            let prev = next - 1;
                            Work::Append(AppendEntriesArgs {
                                term: core.meta.term,
                                leader: inner.margo.address(),
                                prev_log_index: prev,
                                prev_log_term: core.term_at(prev).unwrap_or(0),
                                entries,
                                leader_commit: core.commit_index,
                            })
                        }
                    }
                }
            };
            match work {
                Work::Idle => {
                    inner.signal.wait_if_unchanged(generation, heartbeat);
                }
                Work::Append(args) => {
                    last_send = Instant::now();
                    let sent = args.prev_log_index + args.entries.len() as u64;
                    let had_entries = !args.entries.is_empty();
                    let reply: Result<AppendEntriesReply, _> = inner.margo.forward_timeout(
                        &peer,
                        rpc::APPEND_ENTRIES,
                        inner.provider_id,
                        &args,
                        rpc_timeout,
                    );
                    match reply {
                        Ok(reply) => {
                            let mut core = inner.core.lock();
                            if reply.term > core.meta.term {
                                #[expect(
                                    clippy::let_underscore_must_use,
                                    reason = "stepping down answers no one: a term that did not persist is not adopted, and the next message that carries it tries again"
                                )]
                                let _ = Self::become_follower(&inner, &mut core, reply.term);
                                continue;
                            }
                            if core.role != Role::Leader || core.meta.term != args.term {
                                continue;
                            }
                            if reply.success {
                                core.match_index.insert(peer.clone(), reply.match_index);
                                core.next_index.insert(peer.clone(), reply.match_index + 1);
                                Self::advance_commit(&inner, &mut core);
                                // More to send? Loop immediately.
                                if core.last_log_index() > sent {
                                    continue;
                                }
                            } else {
                                let next = reply.conflict_index.max(1);
                                core.next_index.insert(peer.clone(), next);
                                continue; // retry immediately
                            }
                        }
                        Err(_) => {
                            // Peer unreachable: pace retries by heartbeat.
                            inner.signal.wait_if_unchanged(generation, heartbeat);
                        }
                    }
                    if !had_entries {
                        inner.signal.wait_if_unchanged(inner.signal.generation(), heartbeat);
                    }
                }
                Work::Snapshot(args) => {
                    last_send = Instant::now();
                    let last = args.last_included_index;
                    let reply: Result<InstallSnapshotReply, _> = inner.margo.forward_timeout(
                        &peer,
                        rpc::INSTALL_SNAPSHOT,
                        inner.provider_id,
                        &args,
                        rpc_timeout * 4,
                    );
                    if let Ok(reply) = reply {
                        let mut core = inner.core.lock();
                        if reply.term > core.meta.term {
                            #[expect(
                                clippy::let_underscore_must_use,
                                reason = "stepping down answers no one: a term that did not persist is not adopted, and the next message that carries it tries again"
                            )]
                            let _ = Self::become_follower(&inner, &mut core, reply.term);
                        } else if core.role == Role::Leader {
                            core.match_index.insert(peer.clone(), last);
                            core.next_index.insert(peer.clone(), last + 1);
                        }
                    } else {
                        inner.signal.wait_if_unchanged(generation, heartbeat);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Local submission (also used by the SUBMIT RPC handler)
    // ------------------------------------------------------------------

    /// Appends a command if leader; blocks until committed and applied.
    pub fn submit_local(&self, command: Vec<u8>) -> SubmitReply {
        self.append_and_wait(RaftCommand::App(command))
    }

    fn append_and_wait(&self, command: RaftCommand) -> SubmitReply {
        let inner = &self.inner;
        let (tx, rx) = sync_channel(1);
        {
            let mut core = inner.core.lock();
            if core.role != Role::Leader {
                return SubmitReply::Redirect(core.leader_hint.clone());
            }
            let entry = LogEntry {
                term: core.meta.term,
                index: core.last_log_index() + 1,
                command: command.clone(),
            };
            // The entry counts toward its own commit as soon as it is in
            // the leader's log, so it enters that log only once on disk.
            if let Err(e) = inner.storage.append_entries(std::slice::from_ref(&entry)) {
                return SubmitReply::Failed(storage_error(e));
            }
            if let RaftCommand::Config(list) = &command {
                // Configs take effect at append time (§6 of the Raft
                // paper's single-server change discipline).
                core.membership = list.clone();
            }
            core.waiters.insert(entry.index, tx);
            core.log.push(entry);
            // Single-node cluster: commit immediately.
            Self::advance_commit(inner, &mut core);
        }
        self.ensure_replicators();
        inner.signal.notify_all();
        match rx.recv_timeout(Duration::from_millis(inner.config.submit_timeout_ms)) {
            Ok(Ok(result)) => SubmitReply::Applied(result),
            Ok(Err(reason)) => SubmitReply::Failed(reason),
            Err(_) => SubmitReply::Failed("commit timeout".into()),
        }
    }

    // ------------------------------------------------------------------
    // RPC handlers
    // ------------------------------------------------------------------

    fn register_rpcs(&self) -> Result<(), MargoError> {
        self.serve(rpc::REQUEST_VOTE, Self::handle_request_vote)?;
        self.serve(rpc::APPEND_ENTRIES, Self::handle_append_entries)?;
        self.serve(rpc::INSTALL_SNAPSHOT, Self::handle_install_snapshot)?;
        self.serve(rpc::SUBMIT, |node, args| Ok(node.submit_local(args.command)))?;
        self.serve(rpc::STATUS, |node, ()| Ok(node.status()))?;
        self.serve(rpc::ADD_SERVER, |node, args| Ok(node.change_membership(args.server, true)))?;
        self.serve(rpc::REMOVE_SERVER, |node, args| Ok(node.change_membership(args.server, false)))
    }

    /// Registers `handler` for `rpc` on this node's provider id, in its pool.
    fn serve<I, O>(
        &self,
        rpc: Rpc<'static, I, O>,
        handler: fn(&RaftNode, I) -> Result<O, String>,
    ) -> Result<(), MargoError>
    where
        I: DeserializeOwned + 'static,
        O: Serialize + 'static,
    {
        let node = self.clone();
        let (margo, provider_id) = (&self.inner.margo, self.inner.provider_id);
        margo.register_typed(rpc, provider_id, Some(RAFT_POOL), move |args, _| {
            handler(&node, args)
        })?;
        Ok(())
    }

    fn change_membership(&self, server: Address, add: bool) -> SubmitReply {
        let new_list = {
            let core = self.inner.core.lock();
            if core.role != Role::Leader {
                return SubmitReply::Redirect(core.leader_hint.clone());
            }
            let mut list = core.membership.clone();
            if add {
                if list.contains(&server) {
                    return SubmitReply::Applied(Vec::new());
                }
                list.push(server);
            } else {
                if !list.contains(&server) {
                    return SubmitReply::Applied(Vec::new());
                }
                list.retain(|a| *a != server);
            }
            list.sort();
            list
        };
        self.append_and_wait(RaftCommand::Config(new_list))
    }

    // A handler that cannot persist what it would acknowledge answers
    // with an error instead: the caller counts no vote and the leader
    // retries the entries or the snapshot after a heartbeat.

    fn handle_request_vote(&self, args: RequestVoteArgs) -> Result<RequestVoteReply, String> {
        let inner = &self.inner;
        let mut core = inner.core.lock();
        let up_to_date = args.last_log_term > core.last_log_term()
            || (args.last_log_term == core.last_log_term()
                && args.last_log_index >= core.last_log_index());
        // Leader stickiness (thesis §4.2.3): ignore campaigns while we
        // believe a leader is alive, so stragglers cannot depose it.
        let heard_from_leader_recently = core.role == Role::Follower
            && core.leader_hint.is_some()
            && core.last_heartbeat.elapsed()
                < Duration::from_millis(inner.config.election_timeout_min_ms);
        if args.pre_vote {
            let granted =
                args.term > core.meta.term && up_to_date && !heard_from_leader_recently;
            return Ok(RequestVoteReply { term: core.meta.term, vote_granted: granted });
        }
        if heard_from_leader_recently && args.term > core.meta.term {
            return Ok(RequestVoteReply { term: core.meta.term, vote_granted: false });
        }
        if args.term > core.meta.term {
            Self::become_follower(inner, &mut core, args.term)?;
        }
        let mut granted = false;
        if args.term == core.meta.term {
            let can_vote = core.meta.voted_for.is_none()
                || core.meta.voted_for.as_ref() == Some(&args.candidate);
            if can_vote && up_to_date {
                let meta = Meta { term: core.meta.term, voted_for: Some(args.candidate.clone()) };
                Self::persist_meta(inner, &mut core, meta)?;
                granted = true;
                core.last_heartbeat = Instant::now();
            }
        }
        Ok(RequestVoteReply { term: core.meta.term, vote_granted: granted })
    }

    fn handle_append_entries(&self, args: AppendEntriesArgs) -> Result<AppendEntriesReply, String> {
        let inner = &self.inner;
        let mut core = inner.core.lock();
        if args.term < core.meta.term {
            return Ok(AppendEntriesReply {
                term: core.meta.term,
                success: false,
                conflict_index: core.last_log_index() + 1,
                match_index: 0,
            });
        }
        Self::become_follower(inner, &mut core, args.term)?;
        core.leader_hint = Some(args.leader.clone());
        core.last_heartbeat = Instant::now();

        // Entries at or before the snapshot are committed and match by
        // definition; clamp prev to the snapshot boundary.
        let prev = args.prev_log_index;
        if prev > core.last_log_index() {
            return Ok(AppendEntriesReply {
                term: core.meta.term,
                success: false,
                conflict_index: core.last_log_index() + 1,
                match_index: 0,
            });
        }
        if prev > core.snap_index {
            let local_term = core.term_at(prev);
            if local_term != Some(args.prev_log_term) {
                // Conflict: hint the first index of the conflicting term.
                let bad_term = local_term.unwrap_or(0);
                let mut first = prev;
                while first > core.snap_index + 1 && core.term_at(first - 1) == Some(bad_term) {
                    first -= 1;
                }
                return Ok(AppendEntriesReply {
                    term: core.meta.term,
                    success: false,
                    conflict_index: first,
                    match_index: 0,
                });
            }
        }

        // The entries this node lacks: those past its log, or, from the
        // first one whose term differs, the rest of the batch, which
        // replaces the divergent suffix.
        let mut divergent_from: Option<usize> = None;
        let mut to_append: Vec<LogEntry> = Vec::new();
        for (i, entry) in args.entries.iter().enumerate() {
            if entry.index <= core.snap_index {
                continue; // already in the snapshot
            }
            match core.term_at(entry.index) {
                Some(term) if term == entry.term => {} // already have it
                Some(_) => {
                    divergent_from = Some((entry.index - core.snap_index - 1) as usize);
                    to_append.extend_from_slice(&args.entries[i..]);
                    break;
                }
                None => to_append.push(entry.clone()),
            }
        }
        // On disk first: success acknowledges entries this node holds
        // across a restart.
        if let Some(keep) = divergent_from {
            let mut log = core.log[..keep].to_vec();
            log.extend_from_slice(&to_append);
            inner.storage.rewrite_log(&log).map_err(storage_error)?;
            core.log = log;
            core.recompute_membership();
        } else if !to_append.is_empty() {
            inner.storage.append_entries(&to_append).map_err(storage_error)?;
            core.log.extend_from_slice(&to_append);
            if to_append.iter().any(|e| matches!(e.command, RaftCommand::Config(_))) {
                core.recompute_membership();
            }
        }

        let match_index =
            (args.prev_log_index + args.entries.len() as u64).min(core.last_log_index());
        if args.leader_commit > core.commit_index {
            core.commit_index = args.leader_commit.min(match_index);
            Self::apply_committed(inner, &mut core);
        }
        Ok(AppendEntriesReply {
            term: core.meta.term,
            success: true,
            conflict_index: 0,
            match_index,
        })
    }

    fn handle_install_snapshot(
        &self,
        args: InstallSnapshotArgs,
    ) -> Result<InstallSnapshotReply, String> {
        let inner = &self.inner;
        let mut core = inner.core.lock();
        if args.term < core.meta.term {
            return Ok(InstallSnapshotReply { term: core.meta.term });
        }
        Self::become_follower(inner, &mut core, args.term)?;
        core.leader_hint = Some(args.leader.clone());
        core.last_heartbeat = Instant::now();
        if args.last_included_index <= core.commit_index {
            return Ok(InstallSnapshotReply { term: core.meta.term }); // stale
        }
        // The leader counts a replied install as replicated: save it
        // before this node's state moves to it.
        let record = SnapshotRecord {
            last_included_index: args.last_included_index,
            last_included_term: args.last_included_term,
            membership: args.membership,
            data: args.data,
        };
        inner.storage.save_snapshot(&record).map_err(storage_error)?;
        core.sm.restore(&record.data);
        core.log.retain(|e| e.index > record.last_included_index);
        core.snap_index = record.last_included_index;
        core.snap_term = record.last_included_term;
        core.snap_membership = record.membership;
        core.commit_index = record.last_included_index;
        core.last_applied = record.last_included_index;
        core.recompute_membership();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the snapshot is durable: a log file that still holds the entries it covers is a crash between the two writes, and `start` drops those entries"
        )]
        let _ = inner.storage.rewrite_log(&core.log);
        Ok(InstallSnapshotReply { term: core.meta.term })
    }

    /// Stops threads and deregisters RPCs. The durable state remains for
    /// a later restart.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true) {
            return;
        }
        self.inner.signal.notify_all();
        {
            let mut core = self.inner.core.lock();
            core.fail_all_waiters("node shutting down");
        }
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for handle in threads {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a thread that panicked has reported it through the panic hook; shutdown goes on"
            )]
            let _ = handle.join();
        }
        for &name in rpc::ALL {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a name that is already gone is what deregistering wants"
            )]
            let _ = self.inner.margo.deregister(name, self.inner.provider_id);
        }
    }
}

impl Drop for NodeInner {
    fn drop(&mut self) {
        self.stopped.set(true);
        self.signal.notify_all();
    }
}

/// A storage error as the reply of a refused request.
fn storage_error(e: std::io::Error) -> String {
    format!("raft storage: {e}")
}
