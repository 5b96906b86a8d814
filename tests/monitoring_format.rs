//! Reproduces Listing 1: the monitoring JSON a Mochi process emits, with
//! per-context keys (`parent_rpc:parent_provider:rpc:provider`), per-peer
//! `received from <addr>` blocks, ULT duration statistics, and the
//! periodic in-flight/pool-size samples the paper's §4 describes.

use std::time::Duration;

use mochi_rs::margo::{rpc_id_for_name, MargoConfig, MargoRuntime};
use mochi_rs::mercury::{Address, Fabric};
use mochi_rs::util::time::wait_until;

#[test]
fn listing1_shape_from_a_live_service() {
    let fabric = Fabric::new();
    let mut config = MargoConfig::default();
    config.monitoring.sampling_period_ms = 10;
    let server = MargoRuntime::init(&fabric, Address::tcp("mon-server", 1), &config).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("mon-client", 1)).unwrap();

    // An "echo" RPC, as in the listing.
    server
        .register_typed("echo", 0, None, |s: String, _| Ok(s))
        .unwrap();
    for _ in 0..3 {
        let _: String = client.forward(&server.address(), "echo", 0, &"hi".to_string()).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(50)); // a few samples

    let stats = server.monitoring_json().unwrap();

    // Key format: 65535:65535:<rpc_id>:<provider_id> for top-level calls.
    let echo_id = rpc_id_for_name("echo");
    let key = format!("65535:65535:{echo_id}:0");
    let entry = &stats["rpcs"][&key];
    assert_eq!(entry["rpc_id"].as_u64().unwrap(), echo_id);
    assert_eq!(entry["provider_id"], 0);
    assert_eq!(entry["parent_rpc_id"], 65535);
    assert_eq!(entry["parent_provider_id"], 65535);
    assert_eq!(entry["name"], "echo");

    // target → "received from <addr>" → ult → duration {num avg min max}.
    let peer_key = format!("received from {}", client.address());
    let duration = &entry["target"][&peer_key]["ult"]["duration"];
    assert_eq!(duration["num"], 3);
    for field in ["avg", "min", "max", "var", "sum"] {
        assert!(duration[field].is_number(), "missing {field}: {duration}");
    }
    assert!(duration["max"].as_f64().unwrap() >= duration["min"].as_f64().unwrap());

    // The origin side lives in the *client's* dump.
    let client_stats = client.monitoring_json().unwrap();
    let sent_key = format!("sent to {}", server.address());
    let forward = &client_stats["rpcs"][&key]["origin"][&sent_key]["forward"]["duration"];
    assert_eq!(forward["num"], 3);

    // §4: "periodically tracks the number of in-flight RPCs and the sizes
    // of user-level thread pools".
    let progress = &stats["progress"];
    assert!(progress["samples"].as_u64().unwrap() >= 2);
    assert!(progress["in_flight_rpcs"]["target"]["num"].as_u64().unwrap() >= 2);
    assert!(progress["pool_sizes"].as_object().unwrap().contains_key("__primary__"));

    server.finalize();
    client.finalize();
}

#[test]
fn nested_rpcs_attribute_parent_context() {
    // Listing 1's note: "these statistics also include the context
    // (parent RPC and parent provider) in which an RPC was issued".
    let fabric = Fabric::new();
    let backend = MargoRuntime::init_default(&fabric, Address::tcp("backend", 1)).unwrap();
    let frontend = MargoRuntime::init_default(&fabric, Address::tcp("frontend", 1)).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("client", 1)).unwrap();

    backend.register_typed("store", 2, None, |v: u64, _| Ok(v)).unwrap();
    let backend_addr = backend.address();
    frontend
        .register_typed("ingest", 7, None, move |v: u64, ctx| {
            ctx.forward::<u64, u64>(&backend_addr, "store", 2, &v).map_err(|e| e.to_string())
        })
        .unwrap();
    let _: u64 = client.forward(&frontend.address(), "ingest", 7, &9u64).unwrap();

    let ingest_id = rpc_id_for_name("ingest");
    let store_id = rpc_id_for_name("store");
    let nested_key = format!("{ingest_id}:7:{store_id}:2");
    let peer_key = format!("received from {}", frontend.address());
    // The reply can be back at the client before the backend's handler ULT
    // has recorded its end: wait for the dump to count it.
    let mut stats = backend.monitoring_json().unwrap();
    wait_until(Duration::from_secs(2), Duration::from_millis(1), || {
        stats = backend.monitoring_json().unwrap();
        stats["rpcs"][&nested_key]["target"][&peer_key]["ult"]["duration"]["num"] == 1
    });
    assert!(
        stats["rpcs"].as_object().unwrap().contains_key(&nested_key),
        "expected parent-attributed key {nested_key}, got {:?}",
        stats["rpcs"].as_object().unwrap().keys().collect::<Vec<_>>()
    );
    let entry = &stats["rpcs"][&nested_key];
    assert_eq!(entry["parent_rpc_id"].as_u64().unwrap(), ingest_id);
    assert_eq!(entry["parent_provider_id"], 7);
    // And it was received from the *frontend*, not the client.
    assert_eq!(entry["target"][&peer_key]["ult"]["duration"]["num"], 1);

    backend.finalize();
    frontend.finalize();
    client.finalize();
}

#[test]
fn peers_that_differ_only_in_port_keep_their_own_blocks() {
    // A peer is found by the hash its address carries: two processes of
    // one node (same scheme, same host) must not share a block, on either
    // side of the call.
    let fabric = Fabric::new();
    let server = MargoRuntime::init_default(&fabric, Address::tcp("node", 1)).unwrap();
    let twin = MargoRuntime::init_default(&fabric, Address::tcp("node", 2)).unwrap();
    let first = MargoRuntime::init_default(&fabric, Address::tcp("peer", 1)).unwrap();
    let second = MargoRuntime::init_default(&fabric, Address::tcp("peer", 2)).unwrap();
    for process in [&server, &twin] {
        process.register_typed("echo", 0, None, |s: String, _| Ok(s)).unwrap();
    }
    for (client, calls) in [(&first, 2), (&second, 5)] {
        for _ in 0..calls {
            let _: String = client.forward(&server.address(), "echo", 0, &"x".to_string()).unwrap();
        }
    }
    let _: String = first.forward(&twin.address(), "echo", 0, &"x".to_string()).unwrap();

    let key = format!("65535:65535:{}:0", rpc_id_for_name("echo"));
    let received = |stats: &serde_json::Value, from: &MargoRuntime| {
        let block = format!("received from {}", from.address());
        stats["rpcs"][&key]["target"][&block]["ult"]["duration"]["num"].as_u64()
    };
    // As above: a reply can beat the handler's end into the dump.
    let mut stats = server.monitoring_json().unwrap();
    wait_until(Duration::from_secs(2), Duration::from_millis(1), || {
        stats = server.monitoring_json().unwrap();
        received(&stats, &first) == Some(2) && received(&stats, &second) == Some(5)
    });
    assert_eq!(received(&stats, &first), Some(2), "{}", stats["rpcs"][&key]["target"]);
    assert_eq!(received(&stats, &second), Some(5), "{}", stats["rpcs"][&key]["target"]);
    assert_eq!(stats["rpcs"][&key]["target"].as_object().unwrap().len(), 2);

    let origin = &first.monitoring_json().unwrap()["rpcs"][&key]["origin"];
    let sent = |to: &MargoRuntime| {
        origin[format!("sent to {}", to.address())]["forward"]["duration"]["num"].as_u64()
    };
    assert_eq!((sent(&server), sent(&twin)), (Some(2), Some(1)), "{origin}");

    for process in [&server, &twin, &first, &second] {
        process.finalize();
    }
}

#[test]
fn monitoring_can_be_disabled_entirely() {
    let fabric = Fabric::new();
    let mut config = MargoConfig::default();
    config.monitoring.enabled = false;
    let server = MargoRuntime::init(&fabric, Address::tcp("quiet", 1), &config).unwrap();
    let client = MargoRuntime::init_default(&fabric, Address::tcp("cq", 1)).unwrap();
    server.register_typed("echo", 0, None, |s: String, _| Ok(s)).unwrap();
    let _: String = client.forward(&server.address(), "echo", 0, &"x".to_string()).unwrap();
    assert!(server.monitoring_json().is_none());
    server.finalize();
    client.finalize();
}
