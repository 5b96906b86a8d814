//! Resilience, bottom-up and top-down (paper §7):
//!
//! 1. **virtual databases** (Observation 10): clients talk to a provider
//!    that transparently replicates to N real databases;
//! 2. **Raft-replicated state** (Observation 11): a counter state machine
//!    survives leader crashes with no lost updates;
//! 3. **checkpoint + SWIM recovery** (Observations 9 & 12): a crashed
//!    service member is rebuilt from its checkpoint on a fresh node.
//!
//! ```text
//! cargo run --release --example resilient_kv
//! ```

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde_json::json;

use mochi_rs::bedrock::ProviderSpec;
use mochi_rs::core::{Cluster, DynamicService, ResilienceConfig, ResilienceManager, ServiceConfig};
use mochi_rs::margo::MargoRuntime;
use mochi_rs::mercury::{Address, Fabric};
use mochi_rs::raft::{RaftClient, RaftConfig, RaftNode, StateMachine};
use mochi_rs::util::time::wait_until;
use mochi_rs::yokan::backend::memory::MemoryDatabase;
use mochi_rs::yokan::{DatabaseHandle, VirtualDatabase, YokanProvider};

fn part1_virtual_database(fabric: &Fabric) {
    println!("== part 1: virtual (replicated) database ==");
    let rep1 = MargoRuntime::init_default(fabric, Address::tcp("rep1", 1)).unwrap();
    let rep2 = MargoRuntime::init_default(fabric, Address::tcp("rep2", 1)).unwrap();
    let front = MargoRuntime::init_default(fabric, Address::tcp("front", 1)).unwrap();
    let client = MargoRuntime::init_default(fabric, Address::tcp("c1", 1)).unwrap();
    let _p1 = YokanProvider::register(&rep1, 1, None, Arc::new(MemoryDatabase::new())).unwrap();
    let _p2 = YokanProvider::register(&rep2, 1, None, Arc::new(MemoryDatabase::new())).unwrap();
    let replicas = vec![(rep1.address(), 1), (rep2.address(), 1)];
    let virtual_db = VirtualDatabase::new(&front, replicas, Duration::from_millis(500));
    let _v = YokanProvider::register(&front, 9, None, Arc::new(virtual_db)).unwrap();

    // The client cannot tell this is not a plain database.
    let db = DatabaseHandle::new(&client, front.address(), 9);
    db.put(b"replicated", b"twice").unwrap();
    println!("  wrote through the virtual provider");
    rep1.finalize();
    println!(
        "  replica 1 crashed; read still answers: {:?}",
        String::from_utf8_lossy(&db.get(b"replicated").unwrap().unwrap())
    );
    rep2.finalize();
    front.finalize();
    client.finalize();
    println!();
}

/// A Raft-replicated counter: `add N` commands, linearized.
struct Counter(Arc<Mutex<i64>>);
impl StateMachine for Counter {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        let delta = i64::from_le_bytes(command.try_into().unwrap_or([0; 8]));
        let mut value = self.0.lock();
        *value += delta;
        value.to_le_bytes().to_vec()
    }
    fn snapshot(&self) -> Vec<u8> {
        self.0.lock().to_le_bytes().to_vec()
    }
    fn restore(&mut self, snapshot: &[u8]) {
        *self.0.lock() = i64::from_le_bytes(snapshot.try_into().unwrap_or([0; 8]));
    }
}

fn part2_raft_counter(fabric: &Fabric) {
    println!("== part 2: Raft-replicated counter ==");
    let dir = mochi_rs::util::TempDir::new("resilient-raft").unwrap();
    let addresses: Vec<Address> = (0..3).map(|i| Address::tcp(format!("raft{i}"), 1)).collect();
    let mut nodes = Vec::new();
    for (i, addr) in addresses.iter().enumerate() {
        let margo = MargoRuntime::init_default(fabric, addr.clone()).unwrap();
        let counter = Arc::new(Mutex::new(0i64));
        let node = RaftNode::start(
            &margo,
            7,
            &addresses,
            Box::new(Counter(Arc::clone(&counter))),
            dir.path().join(format!("n{i}")),
            RaftConfig::fast(),
        )
        .unwrap();
        nodes.push((margo, node, counter));
    }
    let cm = MargoRuntime::init_default(fabric, Address::tcp("raft-client", 1)).unwrap();
    let client = RaftClient::new(&cm, 7, addresses.clone());
    for delta in [5i64, 7, -2] {
        let result = client.submit(&delta.to_le_bytes()).unwrap();
        println!(
            "  add {delta}: committed value = {}",
            i64::from_le_bytes(result.try_into().unwrap())
        );
    }
    // Crash the leader; the cluster keeps counting.
    let leader = client.find_leader().unwrap();
    let idx = addresses.iter().position(|a| *a == leader).unwrap();
    println!("  crashing leader {leader}");
    nodes[idx].1.shutdown();
    nodes[idx].0.finalize();
    let result = client.submit(&100i64.to_le_bytes()).unwrap();
    println!(
        "  add 100 after failover: committed value = {}",
        i64::from_le_bytes(result.try_into().unwrap())
    );
    for (i, (margo, node, _)) in nodes.iter().enumerate() {
        if i != idx {
            node.shutdown();
            margo.finalize();
        }
    }
    cm.finalize();
    println!();
}

fn part3_checkpoint_recovery() {
    println!("== part 3: checkpoint + SWIM-triggered recovery ==");
    let cluster = Cluster::new(4);
    let service = DynamicService::deploy(&cluster, ServiceConfig::default(), 3, |i| {
        vec![ProviderSpec::new(format!("db{i}"), "yokan", 10 + i as u16)
            .with_config(json!({"backend": "lsm"}))]
    })
    .unwrap();
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: Duration::from_millis(100), auto_recover: true },
    );
    let client = MargoRuntime::init_default(cluster.fabric(), Address::tcp("c3", 1)).unwrap();
    let victim = service.addresses()[2].clone();
    let db = DatabaseHandle::new(&client, victim.clone(), 12);
    for i in 0..25u32 {
        db.put(format!("k{i}").as_bytes(), b"survives-crashes").unwrap();
    }
    println!("  wrote 25 keys to the member at {victim}");
    // Wait for a checkpoint, then pull the plug.
    wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        manager.stats().checkpoints.load(std::sync::atomic::Ordering::SeqCst) >= 2
    });
    cluster.crash(&victim).unwrap();
    println!("  crashed it abruptly (no farewell; peers rely on SWIM)");
    let recovered = wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
        manager.stats().recoveries.load(std::sync::atomic::Ordering::SeqCst) >= 1
            && !service.addresses().contains(&victim)
    });
    assert!(recovered, "recovery did not happen");
    let new_home = service
        .addresses()
        .into_iter()
        .find(|a| service.server(a).is_some_and(|s| s.provider_names().contains(&"db2".into())))
        .unwrap();
    println!("  SWIM detected the death; db2 restored on fresh node {new_home}");
    let db = DatabaseHandle::new(&client, new_home, 12).with_timeout(Duration::from_secs(2));
    wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
        db.len().map(|n| n == 25).unwrap_or(false)
    });
    println!("  recovered database serves {} keys — no data lost", db.len().unwrap());
    manager.stop();
    service.shutdown();
    client.finalize();
}

fn main() {
    let fabric = Fabric::new();
    part1_virtual_database(&fabric);
    part2_raft_counter(&fabric);
    part3_checkpoint_recovery();
    println!("done.");
}
