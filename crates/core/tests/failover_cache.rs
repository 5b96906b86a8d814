//! `FailoverKv` keeps the location that last resolved and gives it up
//! exactly when it may be wrong: the member set changed, the SSG view moved
//! on, or the location answered with an error of the rerouting kind.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use serde_json::json;

use mochi_core::{
    Cluster, DynamicService, FailoverKv, ResilienceConfig, ResilienceManager, ServiceConfig,
};
use mochi_margo::MargoRuntime;
use mochi_mercury::Address;
use mochi_remi::Strategy;
use mochi_util::time::wait_until;

fn kv_namer(i: usize) -> Vec<mochi_bedrock::ProviderSpec> {
    vec![mochi_bedrock::ProviderSpec::new(format!("db{i}"), "yokan", 10 + i as u16)
        .with_config(json!({"backend": "lsm"}))]
}

fn deploy(nodes: usize, members: usize) -> (Arc<Cluster>, Arc<DynamicService>) {
    let cluster = Cluster::new(nodes);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), members, kv_namer).unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.len() == members)
    }));
    (cluster, service)
}

fn client_margo(cluster: &Cluster) -> MargoRuntime {
    MargoRuntime::init_default(cluster.fabric(), Address::tcp("client", 1)).unwrap()
}

fn address_of(kv: &FailoverKv) -> Address {
    kv.handle().expect("the provider is hosted somewhere").address().clone()
}

#[test]
fn healthy_provider_resolves_once() {
    let (cluster, service) = deploy(3, 3);
    let client = client_margo(&cluster);
    let db1 = FailoverKv::new(&service, &client, "db1");
    assert_eq!(db1.resolutions(), 0);
    for i in 0..200u32 {
        db1.put(format!("k{i}").as_bytes(), b"v").unwrap();
        assert!(db1.get(format!("k{i}").as_bytes()).unwrap().is_some());
    }
    assert_eq!(db1.resolutions(), 1);
    service.shutdown();
    client.finalize();
}

#[test]
fn follows_a_member_rebuilt_on_a_fresh_node() {
    // Three members and a spare node for the rebuild, which the test
    // drives itself: whether SWIM notices a death in time is
    // `service_integration`'s subject, not this one's.
    let (cluster, service) = deploy(4, 3);
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: Duration::from_millis(50), auto_recover: false },
    );
    let client = client_margo(&cluster);
    let db2 = FailoverKv::new(&service, &client, "db2")
        .with_timeout(Duration::from_millis(100))
        .with_max_rounds(60);
    db2.put(b"k", b"precious").unwrap();
    let victim = address_of(&db2);
    let swept = manager.stats().checkpoints.load(Ordering::SeqCst);
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        manager.stats().checkpoints.load(Ordering::SeqCst) >= swept + 2
    }));

    cluster.crash(&victim).unwrap();
    manager.recover(&victim);
    assert_eq!(manager.stats().recoveries.load(Ordering::SeqCst), 1);
    assert!(!service.addresses().contains(&victim));

    // The very next operation goes to the new incarnation: the member set
    // changed, so the remembered location is not even tried.
    let before = db2.resolutions();
    assert_eq!(db2.get(b"k").unwrap().as_deref(), Some(b"precious".as_slice()));
    assert_ne!(address_of(&db2), victim);
    assert!(db2.resolutions() > before);

    manager.stop();
    service.shutdown();
    client.finalize();
}

#[test]
fn follows_a_provider_migrated_inside_an_unchanged_view() {
    let (cluster, service) = deploy(2, 2);
    let client = client_margo(&cluster);
    let db0 = FailoverKv::new(&service, &client, "db0");
    db0.put(b"k", b"moved-with-me").unwrap();
    let old = address_of(&db0);
    let new = service.addresses().into_iter().find(|a| *a != old).unwrap();
    let stamp = service.membership_stamp();

    service.server(&old).unwrap().migrate_provider("db0", &new, Strategy::Rdma).unwrap();
    // Nothing the cache watches has moved: only the old location's
    // `NoHandler` can tell the client.
    assert_eq!(service.membership_stamp(), stamp);
    let before = db0.resolutions();
    assert_eq!(db0.get(b"k").unwrap().as_deref(), Some(b"moved-with-me".as_slice()));
    assert_eq!(address_of(&db0), new);
    assert_eq!(db0.resolutions(), before + 1);

    service.shutdown();
    client.finalize();
}
