//! Reproduces Figure 2 of the paper literally: three providers (A, B, C)
//! in one process, pools X/Y/Z, ES0 serving X+Y, ES1 serving Z; network
//! progress runs as ULTs of Pool Z, on ES1, and hands each request to the
//! pool of its provider: RPCs targeting A or B run in Pool X, RPCs
//! targeting C run in Pool Y, both on ES0.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mochi_rs::margo::{MargoConfig, MargoError, MargoRuntime, Monitor, MonitoringEvent};
use mochi_rs::mercury::{Address, Fabric};

fn figure2_config() -> MargoConfig {
    MargoConfig::from_json(
        r#"{
          "argobots": {
            "pools": [
              { "name": "PoolX", "type": "fifo_wait", "access": "mpmc" },
              { "name": "PoolY", "type": "fifo_wait", "access": "mpmc" },
              { "name": "PoolZ", "type": "fifo_wait", "access": "mpmc" }
            ],
            "xstreams": [
              { "name": "ES0", "scheduler": { "type": "basic_wait", "pools": ["PoolX", "PoolY"] } },
              { "name": "ES1", "scheduler": { "type": "basic_wait", "pools": ["PoolZ"] } }
            ]
          },
          "progress_pool": "PoolZ",
          "default_rpc_pool": "PoolX"
        }"#,
    )
    .unwrap()
}

#[test]
fn figure2_topology_boots_and_routes() {
    let fabric = Fabric::new();
    let server =
        MargoRuntime::init(&fabric, Address::tcp("fig2", 1), &figure2_config()).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("client", 1)).unwrap();

    // Provider A and B in PoolX, provider C in PoolY (Figure 2 mapping).
    let hits = Arc::new(AtomicUsize::new(0));
    for (provider_id, pool) in [(1u16, "PoolX"), (2, "PoolX"), (3, "PoolY")] {
        let hits = Arc::clone(&hits);
        server
            .register_typed("work", provider_id, Some(pool), move |n: u64, _| {
                hits.fetch_add(1, Ordering::SeqCst);
                Ok(n + u64::from(provider_id))
            })
            .unwrap();
    }

    for provider_id in [1u16, 2, 3] {
        let out: u64 = client.forward(&server.address(), "work", provider_id, &100u64).unwrap();
        assert_eq!(out, 100 + u64::from(provider_id));
    }
    assert_eq!(hits.load(Ordering::SeqCst), 3);

    // The topology reads back exactly as configured.
    let config = server.config_json();
    let pool_names: Vec<&str> = config["argobots"]["pools"]
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p["name"].as_str().unwrap())
        .collect();
    assert_eq!(pool_names, vec!["PoolX", "PoolY", "PoolZ"]);
    assert_eq!(config["progress_pool"], "PoolZ");
    let registrations = server.registrations();
    assert_eq!(registrations.len(), 3);
    assert!(registrations.iter().any(|(n, p, pool)| n == "work" && *p == 3 && pool == "PoolY"));

    // Pool statistics show the routing: PoolX executed exactly its two
    // handlers, PoolY its one, and PoolZ the progress ULTs that dispatched
    // them (one per burst of arrivals, so at least one and no fixed count).
    let stats = server.abt().pool_stats();
    let popped = |name: &str| {
        stats.iter().find(|p| p.name == name).map(|p| p.total_popped).unwrap_or(0)
    };
    assert_eq!(popped("PoolX"), 2);
    assert_eq!(popped("PoolY"), 1);
    assert!(popped("PoolZ") >= 1);

    server.finalize();
    client.finalize();
}

/// When each request was taken from the mailbox, by provider id.
#[derive(Default)]
struct Receptions(Mutex<Vec<(u16, Instant)>>);

impl Monitor for Receptions {
    fn observe(&self, event: &MonitoringEvent<'_>) {
        if let MonitoringEvent::RequestReceived { identity, .. } = event {
            self.0.lock().unwrap().push((identity.provider_id, Instant::now()));
        }
    }
}

/// Why Figure 2 gives progress its own xstream: ULTs run to completion,
/// so a handler that blocks ES0 holds up every handler behind it — but not
/// the reception of further requests, which happens on ES1.
#[test]
fn blocked_handler_xstream_does_not_delay_reception() {
    const BLOCK: Duration = Duration::from_millis(200);
    let fabric = Fabric::new();
    let server =
        MargoRuntime::init(&fabric, Address::tcp("fig2b", 1), &figure2_config()).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("client", 1)).unwrap();
    let (started_tx, started) = std::sync::mpsc::channel();
    let started_tx = Mutex::new(started_tx);
    server
        .register_typed("work", 1, Some("PoolX"), move |(): (), _| {
            started_tx.lock().unwrap().send(()).unwrap();
            std::thread::sleep(BLOCK);
            Ok(())
        })
        .unwrap();
    server.register_typed("work", 3, Some("PoolY"), |(): (), _| Ok(())).unwrap();
    let receptions = Arc::new(Receptions::default());
    server.add_monitor(receptions.clone());

    let server_address = Arc::new(server.address());
    let post = |provider_id| {
        client
            .iforward_full::<(), ()>(
                &server_address,
                "work",
                provider_id,
                &(),
                Duration::from_secs(5),
            )
            .unwrap()
    };
    let blocker = post(1);
    started.recv().unwrap(); // ES0 is now inside provider A's handler
    let posted = Instant::now();
    let behind = post(3);
    behind.wait_decoded::<()>().unwrap();
    let answered = Instant::now();
    blocker.wait_decoded::<()>().unwrap();

    let received = receptions.0.lock().unwrap().iter().find(|(p, _)| *p == 3).unwrap().1;
    assert!(
        received - posted < BLOCK / 2,
        "reception waited {:?} for the blocked handler xstream",
        received - posted
    );
    // Its handler did wait: PoolY is ES0's too.
    assert!(answered - posted >= BLOCK / 2, "{:?}", answered - posted);
    server.finalize();
    client.finalize();
}

#[test]
fn figure2_validity_rules_hold() {
    let fabric = Fabric::new();
    let server =
        MargoRuntime::init(&fabric, Address::tcp("fig2v", 1), &figure2_config()).unwrap();
    // Removing a pool in use by an ES fails (the paper's exact example).
    assert!(server.remove_pool("PoolX").is_err());
    // Adding a duplicate pool name fails.
    assert!(server.add_pool_from_json(r#"{"name": "PoolX"}"#).is_err());
    // ES1 is the only xstream running progress: without it the process
    // would stop receiving.
    assert!(matches!(server.remove_xstream("ES1").unwrap_err(), MargoError::PoolBusy { .. }));
    // With a second xstream on PoolZ it may go, and RPCs still arrive.
    server
        .add_xstream_from_json(r#"{"name": "ES2", "scheduler": {"pools": ["PoolZ"]}}"#)
        .unwrap();
    server.remove_xstream("ES1").unwrap();
    server.register_typed("double", 0, None, |n: u64, _| Ok(2 * n)).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("client", 1)).unwrap();
    let out: u64 = client.forward(&server.address(), "double", 0, &21u64).unwrap();
    assert_eq!(out, 42);
    server.deregister("double", 0).unwrap();
    client.finalize();
    // Removing the ES first, then the now-unused pool, succeeds.
    server.remove_xstream("ES0").unwrap();
    // PoolX still has no handlers registered, so margo releases it.
    server.remove_pool("PoolX").unwrap();
    server.remove_pool("PoolY").unwrap();
    server.finalize();
}
