//! Integration tests for Mochi-RAFT: election, replication, failover,
//! partitions, log convergence, restarts, snapshots, and membership
//! changes — all on the simulated fabric with injected faults.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric};
use mochi_raft::messages::{
    rpc, AppendEntriesArgs, AppendEntriesReply, RequestVoteArgs, RequestVoteReply, SubmitReply,
};
use mochi_raft::types::LogMachine;
use mochi_raft::{
    LogEntry, RaftClient, RaftCommand, RaftConfig, RaftNode, RaftStorage, StateMachine,
};
use mochi_util::time::wait_until;
use mochi_util::TempDir;

const RAFT_PROVIDER: u16 = 7;

/// State machine that shares its applied log with the test.
struct SharedMachine(Arc<Mutex<LogMachine>>);

impl StateMachine for SharedMachine {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        self.0.lock().apply(command)
    }
    fn snapshot(&self) -> Vec<u8> {
        self.0.lock().snapshot()
    }
    fn restore(&mut self, snapshot: &[u8]) {
        self.0.lock().restore(snapshot)
    }
}

struct Cluster {
    fabric: Fabric,
    dir: TempDir,
    addresses: Vec<Address>,
    nodes: Vec<(MargoRuntime, RaftNode, Arc<Mutex<LogMachine>>)>,
    config: RaftConfig,
}

impl Cluster {
    fn new(n: usize) -> Self {
        Self::with_config(n, RaftConfig::fast())
    }

    fn with_config(n: usize, config: RaftConfig) -> Self {
        let fabric = Fabric::new();
        let dir = TempDir::new("raft-cluster").unwrap();
        let addresses: Vec<Address> =
            (0..n).map(|i| Address::tcp(format!("r{i}"), 1)).collect();
        let mut nodes = Vec::new();
        for (i, addr) in addresses.iter().enumerate() {
            let margo = MargoRuntime::init_default(&fabric, addr.clone()).unwrap();
            let machine = Arc::new(Mutex::new(LogMachine::default()));
            let node = RaftNode::start(
                &margo,
                RAFT_PROVIDER,
                &addresses,
                Box::new(SharedMachine(Arc::clone(&machine))),
                dir.path().join(format!("r{i}")),
                config,
            )
            .unwrap();
            nodes.push((margo, node, machine));
        }
        Self { fabric, dir, addresses, nodes, config }
    }

    fn client(&self) -> RaftClient {
        let margo =
            MargoRuntime::init_default(&self.fabric, Address::tcp("raft-client", 1)).unwrap();
        RaftClient::new(&margo, RAFT_PROVIDER, self.addresses.clone())
    }

    fn leader_index(&self) -> Option<usize> {
        self.nodes.iter().position(|(_, node, _)| node.is_leader())
    }

    fn wait_for_leader(&self) -> usize {
        assert!(
            wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
                self.leader_index().is_some()
            }),
            "no leader elected"
        );
        self.leader_index().unwrap()
    }

    fn shutdown(self) {
        for (margo, node, _) in &self.nodes {
            node.shutdown();
            margo.finalize();
        }
    }
}

#[test]
fn elects_exactly_one_leader() {
    let cluster = Cluster::new(3);
    cluster.wait_for_leader();
    // Give elections a moment to settle, then count leaders.
    std::thread::sleep(Duration::from_millis(200));
    let leaders = cluster.nodes.iter().filter(|(_, n, _)| n.is_leader()).count();
    assert_eq!(leaders, 1);
    cluster.shutdown();
}

#[test]
fn replicates_commands_to_all_nodes() {
    let cluster = Cluster::new(3);
    cluster.wait_for_leader();
    let client = cluster.client();
    for i in 0..10u32 {
        let reply = client.submit(format!("cmd-{i}").as_bytes()).unwrap();
        assert!(!reply.is_empty());
    }
    // All machines converge to the same 10 commands in order.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        cluster.nodes.iter().all(|(_, _, m)| m.lock().applied.len() == 10)
    }));
    let reference = cluster.nodes[0].2.lock().applied.clone();
    for (_, _, machine) in &cluster.nodes[1..] {
        assert_eq!(machine.lock().applied, reference);
    }
    assert_eq!(reference[3], b"cmd-3".to_vec());
    cluster.shutdown();
}

#[test]
fn leader_crash_triggers_failover_and_no_data_loss() {
    let cluster = Cluster::new(3);
    let leader = cluster.wait_for_leader();
    let client = cluster.client();
    client.submit(b"before-crash").unwrap();

    // Crash the leader abruptly.
    cluster.nodes[leader].1.shutdown();
    cluster.nodes[leader].0.finalize();

    // A new leader emerges among the survivors.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        cluster
            .nodes
            .iter()
            .enumerate()
            .any(|(i, (_, n, _))| i != leader && n.is_leader())
    }));
    client.submit(b"after-crash").unwrap();
    // Survivors hold both commands in order.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leader)
            .all(|(_, (_, _, m))| m.lock().applied.len() == 2)
    }));
    for (i, (_, _, machine)) in cluster.nodes.iter().enumerate() {
        if i != leader {
            let applied = machine.lock().applied.clone();
            assert_eq!(applied, vec![b"before-crash".to_vec(), b"after-crash".to_vec()]);
        }
    }
    for (i, (margo, node, _)) in cluster.nodes.iter().enumerate() {
        if i != leader {
            node.shutdown();
            margo.finalize();
        }
    }
}

#[test]
fn minority_partition_cannot_commit() {
    let cluster = Cluster::new(3);
    let leader = cluster.wait_for_leader();
    let client = cluster.client();
    client.submit(b"committed").unwrap();

    // Isolate the leader (minority of 1).
    let leader_host = cluster.addresses[leader].host().to_string();
    let others: Vec<String> = cluster
        .addresses
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != leader)
        .map(|(_, a)| a.host().to_string())
        .collect();
    let mut majority_side = others.clone();
    majority_side.push("raft-client".into());
    cluster.fabric.faults().set_partition(&[vec![leader_host], majority_side]);

    // The majority elects a new leader and keeps committing.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        cluster
            .nodes
            .iter()
            .enumerate()
            .any(|(i, (_, n, _))| i != leader && n.is_leader())
    }));
    client.submit(b"majority-commit").unwrap();

    // Heal: the old leader rejoins as follower and converges.
    cluster.fabric.faults().heal_partition();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        cluster.nodes[leader].2.lock().applied.len() == 2
    }));
    assert_eq!(
        cluster.nodes[leader].2.lock().applied,
        vec![b"committed".to_vec(), b"majority-commit".to_vec()]
    );
    cluster.shutdown();
}

#[test]
fn node_restart_recovers_from_disk() {
    let fabric = Fabric::new();
    let dir = TempDir::new("raft-restart").unwrap();
    let addresses: Vec<Address> = (0..3).map(|i| Address::tcp(format!("r{i}"), 1)).collect();
    type Node = (MargoRuntime, RaftNode, Arc<Mutex<LogMachine>>);
    let mk_node = |i: usize, fabric: &Fabric, addresses: &[Address]| -> Node {
        let margo = MargoRuntime::init_default(fabric, addresses[i].clone()).unwrap();
        let machine = Arc::new(Mutex::new(LogMachine::default()));
        let node = RaftNode::start(
            &margo,
            RAFT_PROVIDER,
            addresses,
            Box::new(SharedMachine(Arc::clone(&machine))),
            dir.path().join(format!("r{i}")),
            RaftConfig::fast(),
        )
        .unwrap();
        (margo, node, machine)
    };
    let mut nodes: Vec<_> = (0..3).map(|i| mk_node(i, &fabric, &addresses)).collect();
    let client_margo = MargoRuntime::init_default(&fabric, Address::tcp("c", 1)).unwrap();
    let client = RaftClient::new(&client_margo, RAFT_PROVIDER, addresses.clone());
    for i in 0..5u32 {
        client.submit(format!("persist-{i}").as_bytes()).unwrap();
    }

    // Crash node 2 and restart it from its data dir.
    nodes[2].1.shutdown();
    nodes[2].0.finalize();
    std::thread::sleep(Duration::from_millis(100));
    nodes[2] = mk_node(2, &fabric, &addresses);

    // It catches up with all five commands (replayed or re-replicated).
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        nodes[2].2.lock().applied.len() == 5
    }));
    assert_eq!(nodes[2].2.lock().applied[4], b"persist-4".to_vec());
    for (margo, node, _) in &nodes {
        node.shutdown();
        margo.finalize();
    }
    client_margo.finalize();
}

#[test]
fn snapshots_compact_the_log_and_bootstrap_laggards() {
    let mut config = RaftConfig::fast();
    config.snapshot_threshold = 20;
    let cluster = Cluster::with_config(3, config);
    let leader = cluster.wait_for_leader();
    let client = cluster.client();

    // Cut off node (leader+1)%3, write enough to force a snapshot.
    let laggard = (leader + 1) % 3;
    let laggard_host = cluster.addresses[laggard].host().to_string();
    cluster.fabric.faults().blackhole(&cluster.addresses[laggard]);
    for i in 0..60u32 {
        client.submit(format!("bulk-{i}").as_bytes()).unwrap();
    }
    // Leader must have compacted (snapshot threshold 20 < 60 entries).
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
        cluster.nodes[leader].1.status().last_log_index > 20
    }));

    // Reconnect the laggard: it should be caught up via InstallSnapshot
    // + AppendEntries.
    cluster.fabric.faults().unblackhole(&cluster.addresses[laggard]);
    let _ = laggard_host;
    assert!(
        wait_until(Duration::from_secs(15), Duration::from_millis(20), || {
            cluster.nodes[laggard].2.lock().applied.len() == 60
        }),
        "laggard applied {} of 60",
        cluster.nodes[laggard].2.lock().applied.len()
    );
    cluster.shutdown();
}

#[test]
fn membership_change_add_and_remove() {
    let cluster = Cluster::new(3);
    cluster.wait_for_leader();
    let client = cluster.client();
    client.submit(b"pre").unwrap();

    // Add a fourth node.
    let addr = Address::tcp("r3", 1);
    let margo = MargoRuntime::init_default(&cluster.fabric, addr.clone()).unwrap();
    let machine = Arc::new(Mutex::new(LogMachine::default()));
    let node = RaftNode::start(
        &margo,
        RAFT_PROVIDER,
        std::slice::from_ref(&addr), // it learns real membership from the leader
        Box::new(SharedMachine(Arc::clone(&machine))),
        cluster.dir.path().join("r3"),
        cluster.config,
    )
    .unwrap();
    client.add_server(&addr).unwrap();

    // The new node replicates history.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        machine.lock().applied.len() == 1
    }));
    client.submit(b"post-add").unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        machine.lock().applied.len() == 2
    }));

    // Remove it again; further commits don't reach it.
    client.remove_server(&addr).unwrap();
    client.submit(b"post-remove").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(machine.lock().applied.len(), 2);

    node.shutdown();
    margo.finalize();
    cluster.shutdown();
}

#[test]
fn status_reports_consistent_cluster_shape() {
    let cluster = Cluster::new(3);
    cluster.wait_for_leader();
    let client = cluster.client();
    client.submit(b"x").unwrap();
    let leader = client.find_leader().expect("leader findable");
    let status = client.status_of(&leader).unwrap();
    assert_eq!(status.role, "Leader");
    assert_eq!(status.membership.len(), 3);
    assert!(status.commit_index >= 1);
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Persist before acknowledging: a node acks a vote, an entry or a
// proposal only once it is on disk. A directory at `meta.json` or
// `log.bin` in the node's data dir makes that write fail.
// ---------------------------------------------------------------------

/// One node of a three-member cluster whose other two members never
/// start: it hears from no leader, so it answers a probe's RPCs itself.
struct LoneNode {
    _fabric: Fabric,
    dir: TempDir,
    margo: MargoRuntime,
    node: RaftNode,
    machine: Arc<Mutex<LogMachine>>,
    probe: MargoRuntime,
}

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

impl LoneNode {
    fn start(members: &[&str]) -> Fallible<Self> {
        let fabric = Fabric::new();
        let dir = TempDir::new("raft-lone")?;
        let addresses: Vec<Address> = members.iter().map(|m| Address::tcp(*m, 1)).collect();
        let margo = MargoRuntime::init_default(&fabric, addresses[0].clone())?;
        let machine = Arc::new(Mutex::new(LogMachine::default()));
        let node = RaftNode::start(
            &margo,
            RAFT_PROVIDER,
            &addresses,
            Box::new(SharedMachine(Arc::clone(&machine))),
            dir.path(),
            RaftConfig::fast(),
        )?;
        let probe = MargoRuntime::init_default(&fabric, Address::tcp("probe", 1))?;
        Ok(Self { _fabric: fabric, dir, margo, node, machine, probe })
    }

    /// Makes writes of `file` fail (`true`) or succeed again (`false`).
    fn block(&self, file: &str, blocked: bool) -> std::io::Result<()> {
        let path = self.dir.path().join(file);
        if !blocked {
            return std::fs::remove_dir(&path);
        }
        if path.is_file() {
            std::fs::remove_file(&path)?;
        }
        std::fs::create_dir(&path)
    }

    fn call<I: serde::Serialize, O: serde::de::DeserializeOwned>(
        &self,
        rpc: mochi_margo::Rpc<'static, I, O>,
        args: &I,
    ) -> Result<O, mochi_margo::MargoError> {
        let to = self.margo.address();
        self.probe.forward_timeout(&to, rpc, RAFT_PROVIDER, args, Duration::from_secs(2))
    }

    fn shutdown(self) {
        self.node.shutdown();
        self.margo.finalize();
        self.probe.finalize();
    }
}

#[test]
fn a_vote_that_cannot_be_persisted_is_not_granted() {
    let lone = LoneNode::start(&["r0", "r1", "r2"]).unwrap();
    lone.block("meta.json", true).unwrap();
    let vote = RequestVoteArgs {
        term: 5,
        candidate: Address::tcp("r1", 1),
        last_log_index: 0,
        last_log_term: 0,
        pre_vote: false,
    };
    let reply: Result<RequestVoteReply, _> = lone.call(rpc::REQUEST_VOTE, &vote);
    assert!(
        !matches!(reply, Ok(RequestVoteReply { vote_granted: true, .. })),
        "granted a vote it could not persist: {reply:?}"
    );

    // Once the write goes through, the same request is granted, and the
    // vote is on disk.
    lone.block("meta.json", false).unwrap();
    let reply: RequestVoteReply = lone.call(rpc::REQUEST_VOTE, &vote).unwrap();
    assert!(reply.vote_granted, "{reply:?}");
    let meta = RaftStorage::open(lone.dir.path()).unwrap().load_meta();
    assert_eq!((meta.term, meta.voted_for), (5, Some(Address::tcp("r1", 1))));
    lone.shutdown();
}

#[test]
fn entries_that_cannot_be_persisted_are_not_acknowledged() {
    let lone = LoneNode::start(&["r0", "r1", "r2"]).unwrap();
    lone.block("log.bin", true).unwrap();
    let append = AppendEntriesArgs {
        term: 1,
        leader: Address::tcp("r1", 1),
        prev_log_index: 0,
        prev_log_term: 0,
        entries: vec![LogEntry { term: 1, index: 1, command: RaftCommand::App(b"a".to_vec()) }],
        leader_commit: 1,
    };
    let reply: Result<AppendEntriesReply, _> = lone.call(rpc::APPEND_ENTRIES, &append);
    assert!(
        !matches!(reply, Ok(AppendEntriesReply { success: true, .. })),
        "acknowledged an entry it could not persist: {reply:?}"
    );
    assert!(lone.machine.lock().applied.is_empty(), "applied an entry it does not hold");

    lone.block("log.bin", false).unwrap();
    let reply: AppendEntriesReply = lone.call(rpc::APPEND_ENTRIES, &append).unwrap();
    assert!(reply.success, "{reply:?}");
    assert_eq!(lone.machine.lock().applied, vec![b"a".to_vec()]);
    assert_eq!(RaftStorage::open(lone.dir.path()).unwrap().load_log().unwrap().len(), 1);
    lone.shutdown();
}

#[test]
fn a_proposal_that_cannot_be_persisted_is_refused() {
    // A one-member cluster: its leader commits on its own log alone.
    let lone = LoneNode::start(&["r0"]).unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        lone.node.is_leader()
    }));
    lone.block("log.bin", true).unwrap();
    match lone.node.submit_local(b"lost".to_vec()) {
        SubmitReply::Failed(reason) => assert!(reason.contains("raft storage"), "{reason}"),
        other => panic!("accepted a proposal it could not persist: {other:?}"),
    }
    assert!(lone.machine.lock().applied.is_empty(), "applied a proposal it does not hold");

    lone.block("log.bin", false).unwrap();
    assert!(matches!(lone.node.submit_local(b"kept".to_vec()), SubmitReply::Applied(_)));
    assert_eq!(lone.machine.lock().applied, vec![b"kept".to_vec()]);
    lone.shutdown();
}
