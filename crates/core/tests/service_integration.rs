//! End-to-end tests of the dynamic service: deployment, elasticity
//! (scale-out/in with Pufferscale + REMI), and top-down resilience
//! (SWIM-detected death → checkpoint restore on a fresh node).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde_json::json;

use mochi_bedrock::{Module, ProviderContext, ProviderInstance};

use mochi_core::{Cluster, DynamicService, ResilienceConfig, ResilienceManager, ServiceConfig};
use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, NetworkModel};
use mochi_pufferscale::Weights;
use mochi_remi::Strategy;
use mochi_util::time::wait_until;
use mochi_yokan::DatabaseHandle;

fn kv_namer(i: usize) -> Vec<mochi_bedrock::ProviderSpec> {
    vec![mochi_bedrock::ProviderSpec::new(format!("db{i}"), "yokan", 10 + i as u16)
        .with_config(json!({"backend": "lsm"}))]
}

fn client_margo(cluster: &Cluster, name: &str) -> MargoRuntime {
    MargoRuntime::init_default(cluster.fabric(), Address::tcp(name, 1)).unwrap()
}

#[test]
fn deploy_serves_kv_on_every_node() {
    let cluster = Cluster::new(4);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 3, kv_namer).unwrap();
    assert_eq!(service.addresses().len(), 3);
    // SSG view converges to 3 members.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.len() == 3)
    }));
    // Each node serves its own database.
    let client = client_margo(&cluster, "client");
    for (i, addr) in service.addresses().iter().enumerate() {
        let db = DatabaseHandle::new(&client, addr.clone(), 10 + i as u16);
        db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        assert_eq!(db.len().unwrap(), 1);
    }
    service.shutdown();
    client.finalize();
}

#[test]
fn scale_out_and_rebalance_moves_providers() {
    let cluster = Cluster::new(4);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 2, |i| {
            // Two databases per node so rebalancing has moveable pieces.
            vec![
                mochi_bedrock::ProviderSpec::new(format!("db{i}a"), "yokan", 10 + 2 * i as u16)
                    .with_config(json!({"backend": "lsm"})),
                mochi_bedrock::ProviderSpec::new(format!("db{i}b"), "yokan", 11 + 2 * i as u16)
                    .with_config(json!({"backend": "lsm"})),
            ]
        })
        .unwrap();
    let client = client_margo(&cluster, "client");
    // Load data into db0a so it has weight.
    let addr0 = service.addresses()[0].clone();
    let db = DatabaseHandle::new(&client, addr0, 10);
    for i in 0..50u32 {
        db.put(format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
    }

    let new_addr = service.add_node().unwrap();
    assert_eq!(service.addresses().len(), 3);
    // The new member joins the SWIM group.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.contains(&new_addr))
    }));

    let plan = service
        .rebalance(Strategy::chunked_default(), &Weights { load: 1.0, data: 1.0, time: 0.05 })
        .unwrap();
    assert!(!plan.moves.is_empty(), "rebalance should move something to the new node");
    assert!(plan.moves.iter().any(|m| m.to == new_addr.to_string()));
    // Whatever moved is reachable at its new home: lookup via bedrock.
    for step in &plan.moves {
        let to: Address = step.to.parse().unwrap();
        let server = service.server(&to).unwrap();
        assert!(server.provider_names().contains(&step.resource));
    }
    service.shutdown();
    client.finalize();
}

#[test]
fn scale_in_preserves_data() {
    let cluster = Cluster::new(3);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 2, kv_namer).unwrap();
    let client = client_margo(&cluster, "client");
    let victim = service.addresses()[1].clone();
    let db = DatabaseHandle::new(&client, victim.clone(), 11);
    for i in 0..30u32 {
        db.put(format!("k{i}").as_bytes(), b"payload").unwrap();
    }

    let plan = service
        .remove_node(&victim, Strategy::Rdma, &Weights::default())
        .unwrap();
    assert!(plan.moves.iter().any(|m| m.resource == "db1"));
    assert_eq!(service.addresses().len(), 1);
    // The database moved to the survivor with its data.
    let survivor = service.addresses()[0].clone();
    let moved_db = DatabaseHandle::new(&client, survivor, 11);
    assert_eq!(moved_db.len().unwrap(), 30);
    assert_eq!(moved_db.get(b"k7").unwrap().as_deref(), Some(b"payload".as_slice()));
    // The node returned to the pool.
    assert_eq!(cluster.free_nodes(), 2);
    service.shutdown();
    client.finalize();
}

#[test]
fn resilience_recovers_crashed_member_from_checkpoint() {
    let cluster = Cluster::new(4); // 3 in use + 1 spare for recovery
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 3, kv_namer).unwrap();
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: Duration::from_millis(100), auto_recover: true },
    );
    let client = client_margo(&cluster, "client");
    let victim = service.addresses()[2].clone();
    let db = DatabaseHandle::new(&client, victim.clone(), 12);
    for i in 0..20u32 {
        db.put(format!("k{i}").as_bytes(), b"precious").unwrap();
    }
    // Let at least one checkpoint sweep capture the data.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        manager.stats().checkpoints.load(std::sync::atomic::Ordering::SeqCst) >= 2
    }));

    // Crash the member abruptly.
    cluster.crash(&victim).unwrap();

    // SWIM detects it; the manager provisions a fresh node and restores.
    // Wait until the victim's address has been replaced in the service
    // (a recovery elsewhere — e.g. a false suspicion — doesn't count).
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            manager.stats().recoveries.load(std::sync::atomic::Ordering::SeqCst) >= 1
                && !service.addresses().contains(&victim)
        }),
        "victim was not replaced"
    );
    // The service is back to full strength.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        service.addresses().len() == 3
    }));
    // The recovered provider serves the checkpointed data from wherever
    // db2 landed.
    let recovered_addr = service
        .addresses()
        .into_iter()
        .find(|a| {
            service
                .server(a)
                .is_some_and(|s| s.provider_names().contains(&"db2".to_string()))
        })
        .expect("db2 lives somewhere");
    let recovered = DatabaseHandle::new(&client, recovered_addr, 12)
        .with_timeout(Duration::from_secs(2));
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
            recovered.len().map(|n| n == 20).unwrap_or(false)
        }),
        "recovered db2 does not serve the checkpointed data (len={:?})",
        recovered.len()
    );
    assert_eq!(recovered.get(b"k3").unwrap().as_deref(), Some(b"precious".as_slice()));

    manager.stop();
    service.shutdown();
    client.finalize();
}

/// A member rebuilt after one death reports the next death like any
/// other, and neither recovery stops the checkpoint sweeper.
#[test]
fn resilience_keeps_checkpointing_after_two_deaths() {
    let cluster = Cluster::new(5); // 3 in use + 2 spares for recovery
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 3, kv_namer).unwrap();
    let interval = Duration::from_millis(100);
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: interval, auto_recover: true },
    );
    let stat =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::SeqCst);
    let replaced = |victim: &Address, recoveries: u64| {
        wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            stat(&manager.stats().recoveries) >= recoveries
                && !service.addresses().contains(victim)
                && service.addresses().len() == 3
        })
    };
    let originals = service.addresses();
    cluster.crash(&originals[2]).unwrap();
    assert!(replaced(&originals[2], 1), "first victim was not replaced");
    // An original member dies; the rebuilt one sees it die too.
    cluster.crash(&originals[0]).unwrap();
    assert!(replaced(&originals[0], 2), "second victim was not replaced");

    let swept = stat(&manager.stats().checkpoints);
    assert!(
        wait_until(Duration::from_secs(10), interval / 4, || {
            stat(&manager.stats().checkpoints) >= swept + 5
        }),
        "checkpoint sweeps stopped after the second recovery (stuck at {})",
        stat(&manager.stats().checkpoints)
    );

    manager.stop();
    service.shutdown();
}

/// A provider whose checkpoint is written but never restores.
struct Unrestorable;

impl Module for Unrestorable {
    fn type_name(&self) -> &str {
        "unrestorable"
    }

    fn create(&self, _ctx: ProviderContext) -> Result<Box<dyn ProviderInstance>, String> {
        Ok(Box::new(Unrestorable))
    }
}

impl ProviderInstance for Unrestorable {
    fn type_name(&self) -> &str {
        "unrestorable"
    }

    fn stop(&self) -> Result<(), String> {
        Ok(())
    }

    fn checkpoint(&self, dir: &Path) -> Result<(), String> {
        std::fs::write(dir.join("state"), b"checkpointed").map_err(|e| e.to_string())
    }

    fn restore(&self, _dir: &Path) -> Result<(), String> {
        Err("checkpoint does not restore".into())
    }
}

/// A member rebuilt on a fresh node still joins and serves when a
/// checkpoint of one of its providers does not restore, but it is not
/// counted as a recovery: it came back without the state it had.
#[test]
fn a_member_whose_checkpoint_does_not_restore_is_not_a_recovery() {
    let mut catalog = mochi_core::default_catalog();
    catalog.install("libunrestorable.so", Arc::new(Unrestorable));
    let cluster = Cluster::with_options(4, catalog, NetworkModel::instant());
    let mut config = ServiceConfig::default();
    config.process.libraries.insert("unrestorable".into(), "libunrestorable.so".into());
    let service = DynamicService::deploy(&cluster, config, 3, |i| {
        vec![mochi_bedrock::ProviderSpec::new(format!("state{i}"), "unrestorable", 10 + i as u16)]
    })
    .unwrap();
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: Duration::from_millis(100), auto_recover: true },
    );
    let stat =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::SeqCst);
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        stat(&manager.stats().checkpoints) >= 2
    }));

    let victim = service.addresses()[2].clone();
    cluster.crash(&victim).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            !service.addresses().contains(&victim) && service.addresses().len() == 3
        }),
        "victim was not replaced"
    );
    // The count follows the join by microseconds when it is taken.
    assert!(
        !wait_until(Duration::from_secs(1), Duration::from_millis(10), || {
            stat(&manager.stats().recoveries) > 0
        }),
        "a member whose checkpoint did not restore was counted as recovered"
    );

    manager.stop();
    service.shutdown();
}
