//! The legs of one `RoutedKv` operation overlap (DESIGN.md §17.2): the
//! caller's thread posts every destination's batch and only then waits, so
//! an operation over three replicas costs its slowest leg, not the sum —
//! on the clean path and on the first round of the failure path alike.
//! Timings are taken against a fault plane that slows or swallows the
//! client's requests; the members themselves stay healthy and in the view.

use std::time::{Duration, Instant};

use serde_json::json;

use mochi_core::routed::{RoutedConfig, RoutedKv};
use mochi_core::{Cluster, DynamicService, ServiceConfig};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, LinkScript};
use mochi_util::time::wait_until;

const KEYSPACE: &str = "legs";
const MEMBERS: usize = 3;

struct Deployed {
    cluster: std::sync::Arc<Cluster>,
    service: std::sync::Arc<DynamicService>,
    client: MargoRuntime,
    routed: RoutedKv,
}

/// Three members, one per node, `replication_factor 3`: every key lives
/// on all of them, so every operation has exactly three legs.
fn deploy(leg_timeout: Duration) -> Deployed {
    let cluster = Cluster::new(MEMBERS + 1);
    let service = DynamicService::deploy(&cluster, ServiceConfig::default(), MEMBERS, |i| {
        vec![mochi_bedrock::ProviderSpec::new(format!("kv{i}"), "yokan", 10 + i as u16)
            .with_config(json!({"backend": "map"}))
            .with_tag(format!("keyspace:{KEYSPACE}"))]
    })
    .unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.len() == MEMBERS)
    }));
    // One transport attempt per leg: what is timed below is the routing
    // layer's own schedule, not margo's retry backoff.
    let mut config = MargoConfig::default();
    config.retry.max_attempts = 1;
    let client = MargoRuntime::init(cluster.fabric(), Address::tcp("client", 1), &config).unwrap();
    let routed = RoutedKv::for_keyspace(
        &service,
        &client,
        KEYSPACE,
        RoutedConfig { replication_factor: 3, leg_timeout, ..RoutedConfig::default() },
    )
    .unwrap();
    Deployed { cluster, service, client, routed }
}

fn pairs(count: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..count).map(|i| (format!("key-{i:03}").into_bytes(), format!("v{i}").into_bytes())).collect()
}

fn timed<T>(op: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed())
}

#[test]
fn three_slow_legs_cost_one_spike() {
    const SPIKE: Duration = Duration::from_millis(40);
    let d = deploy(Duration::from_millis(500));
    let pairs = pairs(16);
    let refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    for slot in d.routed.put_multi(&refs) {
        slot.unwrap();
    }
    let slow = LinkScript::DelaySpike { period: 1, spike: SPIKE };
    let faults = d.cluster.fabric().faults();
    let about_one_spike = |what: &str, elapsed: Duration| {
        assert!(elapsed >= SPIKE, "{what} returned in {elapsed:?}, before its slowest leg");
        assert!(elapsed < 2 * SPIKE, "{what} took {elapsed:?}: its legs ran one after another");
    };

    // One slow member: the operation still waits for all three legs.
    let slow_host = d.service.addresses()[0].host().to_string();
    faults.push_script(Some("client"), Some(&slow_host), slow);
    let (value, elapsed) = timed(|| d.routed.get(b"key-003"));
    assert_eq!(value.unwrap().as_deref(), Some(b"v3".as_slice()));
    about_one_spike("get with one slow leg", elapsed);
    faults.clear_scripts(Some("client"), Some(&slow_host));

    // Every request the client sends is slow: three legs, one spike.
    faults.push_script(Some("client"), None, slow);
    let (value, elapsed) = timed(|| d.routed.get(b"key-007"));
    assert_eq!(value.unwrap().as_deref(), Some(b"v7".as_slice()));
    about_one_spike("get", elapsed);
    let (slots, elapsed) = timed(|| d.routed.put_multi(&refs));
    for slot in slots {
        slot.unwrap();
    }
    about_one_spike("put_multi", elapsed);
    // Listing asks every member, and filters through a quorum read: one
    // spike each.
    let (listed, elapsed) = timed(|| d.routed.list_keys(b"key-", None, 100));
    assert_eq!(listed.unwrap().len(), pairs.len());
    assert!(elapsed < 4 * SPIKE, "list_keys took {elapsed:?}");
    faults.clear_scripts(Some("client"), None);

    // Across members, unchanged: sorted, deduplicated over the three
    // copies, and counted once.
    let listed = d.routed.list_keys(b"key-", None, 100).unwrap();
    assert_eq!(listed, pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
    assert_eq!(d.routed.list_keys(b"key-", Some(b"key-009"), 3).unwrap().len(), 3);
    assert_eq!(d.routed.len().unwrap(), pairs.len() as u64);

    drop(d.routed);
    d.service.shutdown();
    d.client.finalize();
}

#[test]
fn two_unreachable_legs_time_out_together() {
    // `FAIL_FAST_ROUNDS` of `routed.rs`: a replicated leg gives up after
    // two resolution rounds and lets the hints absorb the loss.
    const ROUNDS: u32 = 2;
    const LEG_TIMEOUT: Duration = Duration::from_millis(200);
    let d = deploy(LEG_TIMEOUT);
    d.routed.put(b"warm", b"up").unwrap();
    // The client's requests to two of the three members vanish.
    let faults = d.cluster.fabric().faults();
    for address in &d.service.addresses()[1..] {
        faults.set_drop_probability(Some("client"), Some(address.host()), 1.0);
    }
    let (outcome, elapsed) = timed(|| d.routed.put(b"key", b"value"));
    // One real ack plus two hints parked on the reachable member.
    outcome.unwrap();
    assert_eq!(d.routed.replication_stats().hinted_writes, 2);
    // Both legs were posted together, so their first timeouts are one
    // wait; only the second rounds — the failure path proper — run one
    // after the other. Legs that blocked from the start would need
    // `2 × ROUNDS` timeouts.
    assert!(elapsed >= ROUNDS * LEG_TIMEOUT, "{elapsed:?}");
    assert!(
        elapsed < 2 * ROUNDS * LEG_TIMEOUT,
        "two dead legs cost {elapsed:?}: their timeouts did not overlap"
    );
    for address in &d.service.addresses()[1..] {
        faults.set_drop_probability(Some("client"), Some(address.host()), 0.0);
    }
    drop(d.routed);
    d.service.shutdown();
    d.client.finalize();
}
