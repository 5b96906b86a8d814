//! End-to-end tests of the routed keyspace (`RoutedKv`): steady-state
//! scatter-gather routing, keyspace-tag discovery, what a replica set of
//! one does and does not do, and — the acceptance bar of experiment A9 —
//! a live rebalance soak where a provider joins and another retires
//! mid-traffic under a scripted fault plane, with zero acked-write loss
//! and no acked erase undone, at `replication_factor` 1 and 3.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde_json::json;

use mochi_core::routed::{RoutedConfig, RoutedKv};
use mochi_core::{Cluster, DynamicService, FailoverKv, HashRing, ServiceConfig};
use mochi_margo::{MargoConfig, MargoError, MargoRuntime};
use mochi_mercury::{Address, LinkScript, MercuryError};
use mochi_util::time::wait_until;
use mochi_yokan::version::{decode_record, is_record};

const KEYSPACE: &str = "soak";

fn keyspace_namer(i: usize) -> Vec<mochi_bedrock::ProviderSpec> {
    vec![mochi_bedrock::ProviderSpec::new(format!("kv{i}"), "yokan", 10 + i as u16)
        .with_config(json!({"backend": "lsm"}))
        .with_tag(format!("keyspace:{KEYSPACE}"))]
}

/// Client runtime with patient retry settings: the soak injects message
/// drops, and a dropped idempotent RPC should be re-sent rather than
/// surface as a lost ack.
fn soak_client(cluster: &Cluster, name: &str) -> MargoRuntime {
    let mut config = MargoConfig::default();
    config.retry.max_attempts = 4;
    config.rpc_timeout_ms = 2_000;
    MargoRuntime::init(cluster.fabric(), Address::tcp(name, 1), &config).unwrap()
}

/// `key@member` for every key of `keys` that one of its owners under the
/// keyspace's current ring holds no record of, read straight from the
/// members: no quorum read, so nothing is repaired on the way.
fn missing_copies(
    service: &Arc<DynamicService>,
    client: &MargoRuntime,
    routed: &RoutedKv,
    keys: &[Vec<u8>],
    replication_factor: usize,
) -> Vec<String> {
    let ring = HashRing::new(&routed.members());
    let mut missing = Vec::new();
    for member in ring.members() {
        let owned: Vec<&[u8]> = keys
            .iter()
            .filter(|key| ring.owners(key, replication_factor).contains(&member.as_str()))
            .map(Vec::as_slice)
            .collect();
        let held = FailoverKv::new(service, client, member).get_multi(&owned).unwrap();
        for (key, record) in owned.iter().zip(held) {
            if record.is_none() {
                missing.push(format!("{}@{member}", String::from_utf8_lossy(key)));
            }
        }
    }
    missing
}

fn wait_for_view(service: &DynamicService, members: usize) {
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.len() == members)
    }));
}

#[test]
fn routed_keyspace_spreads_and_serves() {
    let cluster = Cluster::new(3);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 2, |i| {
            // Two keyspace members per node → a 4-way ring over 2 nodes.
            vec![
                mochi_bedrock::ProviderSpec::new(format!("kv{i}a"), "yokan", 10 + 2 * i as u16)
                    .with_config(json!({"backend": "lsm"}))
                    .with_tag(format!("keyspace:{KEYSPACE}")),
                mochi_bedrock::ProviderSpec::new(format!("kv{i}b"), "yokan", 11 + 2 * i as u16)
                    .with_config(json!({"backend": "lsm"}))
                    .with_tag(format!("keyspace:{KEYSPACE}")),
            ]
        })
        .unwrap();
    wait_for_view(&service, 2);
    let client = soak_client(&cluster, "client");
    let routed =
        RoutedKv::for_keyspace(&service, &client, KEYSPACE, RoutedConfig::default()).unwrap();
    assert_eq!(routed.members(), vec!["kv0a", "kv0b", "kv1a", "kv1b"]);

    // Batched writes fan out per destination; every slot must ack.
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..200)
        .map(|i| (format!("key-{i:04}").into_bytes(), format!("value-{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    for slot in routed.put_multi(&refs) {
        slot.unwrap();
    }
    assert_eq!(routed.len().unwrap(), 200);

    // The ring actually spreads the keyspace: every member holds keys.
    for member in routed.members() {
        let direct = FailoverKv::new(&service, &client, &member);
        assert!(direct.len().unwrap() > 0, "{member} owns no keys");
    }

    // Batched reads see every write; single-key ops agree.
    let key_refs: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
    for (slot, (_, value)) in routed.get_multi(&key_refs).into_iter().zip(&pairs) {
        assert_eq!(slot.unwrap().as_deref(), Some(value.as_slice()));
    }
    assert_eq!(routed.get(b"key-0007").unwrap().as_deref(), Some(b"value-7".as_slice()));
    assert!(routed.exists(b"key-0199").unwrap());

    // Merged listing is globally sorted, deduplicated, and bounded.
    let listed = routed.list_keys(b"key-", None, 1000).unwrap();
    assert_eq!(listed.len(), 200);
    assert!(listed.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(routed.list_keys(b"key-", None, 10).unwrap().len(), 10);

    // Erase routes by owner and reports per-key existence.
    assert!(routed.erase(b"key-0000").unwrap());
    assert!(!routed.erase(b"key-0000").unwrap());
    let gone: Vec<&[u8]> = vec![b"key-0001".as_slice(), b"key-0002".as_slice(), b"no-such-key".as_slice()];
    let erased: Vec<bool> =
        routed.erase_multi(&gone).into_iter().map(|slot| slot.unwrap()).collect();
    assert_eq!(erased, vec![true, true, false]);
    assert_eq!(routed.len().unwrap(), 197);

    service.shutdown();
    client.finalize();
}

#[test]
fn join_and_retire_move_minimal_slices() {
    let cluster = Cluster::new(3);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 2, keyspace_namer).unwrap();
    wait_for_view(&service, 2);
    let client = soak_client(&cluster, "client");
    let routed =
        RoutedKv::for_keyspace(&service, &client, KEYSPACE, RoutedConfig::default()).unwrap();

    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300)
        .map(|i| (format!("key-{i:04}").into_bytes(), format!("value-{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    for slot in routed.put_multi(&refs) {
        slot.unwrap();
    }

    // Join: Pufferscale picks the host, the copier moves the keys whose
    // owner set gains the joiner.
    let spec = mochi_bedrock::ProviderSpec::new("kv2", "yokan", 12)
        .with_config(json!({"backend": "lsm"}))
        .with_tag(format!("keyspace:{KEYSPACE}"));
    let report = routed.join_provider(&spec, None).unwrap();
    assert!(report.moved_keys > 0, "the joiner must receive keys");
    assert!(report.slices > 0, "moved records ship in batches");
    assert!(
        report.moved_keys < 300,
        "minimal disruption: only the joiner's arcs move, not the keyspace"
    );
    assert_eq!(routed.members(), vec!["kv0", "kv1", "kv2"]);

    // No key was lost or duplicated: the global count is exact again
    // after cleanup, and every value reads back.
    assert_eq!(routed.len().unwrap(), 300);
    let joiner = FailoverKv::new(&service, &client, "kv2");
    assert_eq!(joiner.len().unwrap(), report.moved_keys);
    let key_refs: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
    for (slot, (_, value)) in routed.get_multi(&key_refs).into_iter().zip(&pairs) {
        assert_eq!(slot.unwrap().as_deref(), Some(value.as_slice()));
    }

    // Retire kv0: everything it owned drains to the survivors; the
    // provider stays up but is empty and out of the ring.
    let report = routed.retire("kv0").unwrap();
    assert!(report.moved_keys > 0);
    assert_eq!(routed.members(), vec!["kv1", "kv2"]);
    assert_eq!(routed.len().unwrap(), 300);
    let retired = FailoverKv::new(&service, &client, "kv0");
    assert_eq!(retired.len().unwrap(), 0, "retired member keeps nothing");
    for (slot, (_, value)) in routed.get_multi(&key_refs).into_iter().zip(&pairs) {
        assert_eq!(slot.unwrap().as_deref(), Some(value.as_slice()));
    }

    service.shutdown();
    client.finalize();
}

/// A replica set of one has nobody to park a hint for: when the owner
/// is unreachable the write fails with the leg's own error, and nothing
/// is hinted anywhere.
#[test]
fn a_replica_set_of_one_parks_no_hint() {
    let cluster = Cluster::new(4);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 3, keyspace_namer).unwrap();
    wait_for_view(&service, 3);
    let client = soak_client(&cluster, "client");
    let config = RoutedConfig {
        leg_timeout: Duration::from_millis(50),
        leg_max_rounds: 2,
        ..RoutedConfig::default()
    };
    let routed = RoutedKv::for_keyspace(&service, &client, KEYSPACE, config).unwrap();
    routed.put(b"reachable", b"v").unwrap();

    // Cut the client off from the node hosting the key's owner.
    let owner = HashRing::new(&routed.members()).owner(b"k").unwrap().to_string();
    let (owner_addr, _) = FailoverKv::new(&service, &client, &owner).resolve().unwrap();
    let faults = cluster.fabric().faults();
    faults.set_drop_probability(Some("client"), Some(owner_addr.host()), 1.0);

    let err = routed.put(b"k", b"v").unwrap_err();
    assert!(
        matches!(
            err,
            MargoError::Transport(MercuryError::Timeout) | MargoError::BreakerOpen { .. }
        ),
        "the owner's own failure, not a quorum verdict: {err}"
    );
    assert!(routed.erase(b"k").is_err());
    assert!(routed.get(b"k").is_err());
    assert_eq!(routed.replication_stats().hinted_writes, 0);
    assert_eq!(routed.drain_hints_now(), 0);
    assert!(routed.fail_member(&owner).is_err(), "rf=1 has no survivor to fail over to");

    faults.clear();
    service.shutdown();
    client.finalize();
}

/// A keyspace opened over providers that already hold raw values (written
/// through a plain handle, before `RoutedKv` existed for them) serves
/// them as they are — version 0 — and the next put stamps them. A
/// membership change copies records, not stored bytes: a raw value that
/// moves arrives as a version-0 record, and a tombstone as a tombstone.
#[test]
fn raw_values_written_before_the_keyspace_are_served_and_upgraded() {
    let cluster = Cluster::new(3);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 2, keyspace_namer).unwrap();
    wait_for_view(&service, 2);
    let client = soak_client(&cluster, "client");
    let ring = HashRing::new(&["kv0", "kv1"]);
    let keys: Vec<Vec<u8>> = (0..20).map(|i| format!("legacy-{i:02}").into_bytes()).collect();
    let owner_of = |key: &[u8]| FailoverKv::new(&service, &client, ring.owner(key).unwrap());
    for key in &keys {
        owner_of(key).put(key, b"raw value").unwrap();
    }

    let routed =
        RoutedKv::for_keyspace(&service, &client, KEYSPACE, RoutedConfig::default()).unwrap();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    for slot in routed.get_multi(&refs) {
        assert_eq!(slot.unwrap().as_deref(), Some(b"raw value".as_slice()));
    }
    assert_eq!(routed.len().unwrap(), 20);

    routed.put(&keys[0], b"stamped").unwrap();
    assert!(routed.erase(&keys[1]).unwrap(), "a raw value counts as existing");
    assert_eq!(routed.get(&keys[0]).unwrap().as_deref(), Some(b"stamped".as_slice()));
    assert_eq!(routed.get(&keys[1]).unwrap(), None);
    assert_eq!(routed.len().unwrap(), 19);
    let stored = owner_of(&keys[0]).get(&keys[0]).unwrap().unwrap();
    let record = decode_record(&stored);
    assert!(record.version > 0, "the put must stamp a version");
    assert_eq!(record.value, b"stamped");
    let stored = owner_of(&keys[1]).get(&keys[1]).unwrap().unwrap();
    assert!(decode_record(&stored).tombstone, "an erase leaves a tombstone record");

    // A still-raw value and an erased key that a join moves to kv2 and a
    // retire of kv2 moves back.
    let grown = HashRing::new(&["kv0", "kv1", "kv2"]);
    let mut movers = keys[2..].iter().filter(|key| grown.owner(key) == Some("kv2"));
    let raw = movers.next().expect("some raw key moves to the joiner");
    let erased = movers.next().expect("a second key moves to the joiner");
    assert!(routed.erase(erased).unwrap());
    let reads_back = |stage: &str| {
        assert_eq!(routed.get(raw).unwrap().as_deref(), Some(b"raw value".as_slice()), "{stage}");
        assert_eq!(routed.get(erased).unwrap(), None, "{stage}: the erased key is back");
        assert_eq!(routed.len().unwrap(), 18, "{stage}");
    };
    let spec = mochi_bedrock::ProviderSpec::new("kv2", "yokan", 12)
        .with_config(json!({"backend": "lsm"}))
        .with_tag(format!("keyspace:{KEYSPACE}"));
    routed.join_provider(&spec, None).unwrap();
    reads_back("after the join");
    let joiner = FailoverKv::new(&service, &client, "kv2");
    let stored = joiner.get(raw).unwrap().expect("the joiner holds the moved raw value");
    assert!(is_record(&stored), "a copied raw value is stored as a record");
    let record = decode_record(&stored);
    assert_eq!((record.version, record.value), (0, b"raw value".as_slice()));
    let stored = joiner.get(erased).unwrap().expect("the joiner holds the moved tombstone");
    assert!(decode_record(&stored).tombstone);

    routed.retire("kv2").unwrap();
    reads_back("after the retire");
    assert_eq!(joiner.len().unwrap(), 0, "retired member keeps nothing");
    for member in grown.members() {
        let stored = FailoverKv::new(&service, &client, member).get(erased).unwrap();
        assert!(stored.is_none_or(|s| decode_record(&s).tombstone), "{member} lists it live");
    }

    service.shutdown();
    client.finalize();
}

/// The A9 acceptance soak: under a seeded fault plane (probabilistic
/// drops + deterministic delay spikes), a provider joins and another
/// retires while a writer hammers the keyspace. Every write the client
/// saw acked must read back with its exact value afterwards — zero
/// acked-write loss across both membership changes — and every key
/// whose erase was acked must stay erased, for every seed, with one copy
/// of each key and with three.
#[test]
fn live_rebalance_soak_loses_no_acked_write() {
    for (seed, replication_factor) in [(1, 1), (2, 1), (3, 1), (4, 3)] {
        live_rebalance_round(seed, replication_factor);
    }
}

/// Raises the flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn live_rebalance_round(seed: u64, replication_factor: usize) {
    let cluster = Cluster::new(4);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 3, keyspace_namer).unwrap();
    wait_for_view(&service, 3);
    let client = soak_client(&cluster, "client");
    let routed = RoutedKv::for_keyspace(
        &service,
        &client,
        KEYSPACE,
        RoutedConfig {
            leg_timeout: Duration::from_millis(500),
            replication_factor,
            ..RoutedConfig::default()
        },
    )
    .unwrap();

    // Preload so the join has slices to drain from the first moment.
    let preload: Vec<(Vec<u8>, Vec<u8>)> = (0..400)
        .map(|i| (format!("pre-{seed}-{i:04}").into_bytes(), format!("v{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        preload.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    for slot in routed.put_multi(&refs) {
        slot.unwrap();
    }

    // Scripted fault plane: seeded 1% drops everywhere plus a
    // deterministic delay spike on every 50th message.
    let faults = cluster.fabric().faults();
    faults.set_seed(seed);
    faults.set_drop_probability(None, None, 0.01);
    faults.push_script(
        None,
        None,
        LinkScript::DelaySpike { period: 50, spike: Duration::from_millis(2) },
    );

    let stop = AtomicBool::new(false);
    let acked: std::sync::Mutex<BTreeMap<Vec<u8>, Vec<u8>>> =
        std::sync::Mutex::new(preload.iter().cloned().collect());
    // Keys whose erase was acked (no key is ever written twice).
    let erased: std::sync::Mutex<BTreeSet<Vec<u8>>> = std::sync::Mutex::new(BTreeSet::new());

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let key = format!("live-{seed}-{i:06}").into_bytes();
                let value = format!("val-{seed}-{i}").into_bytes();
                if i.is_multiple_of(7) {
                    // Erase a previously acked key. Erase is not
                    // idempotent: on error the server-side effect is
                    // unknown, so the expectation drops the key either
                    // way — zero-loss is asserted over acked *puts*.
                    let victim = acked.lock().unwrap().keys().next().cloned();
                    if let Some(victim) = victim {
                        acked.lock().unwrap().remove(&victim);
                        if routed.erase(&victim).is_ok() {
                            erased.lock().unwrap().insert(victim);
                        }
                    }
                } else if routed.put(&key, &value).is_ok() {
                    acked.lock().unwrap().insert(key, value);
                }
            }
            i
        });

        // A failed assertion below must fail the test, not leave the
        // scope waiting for a writer nobody stops.
        let _stop_writer = StopOnDrop(&stop);

        // Every put acked before a membership change is held by its full
        // owner set after it, with no read in between to repair it: a
        // write that asked `W` of three replicas owes the third a copy,
        // and the change ships it before it copies anything.
        let held_through = |change: &str, keys: &[Vec<u8>]| {
            if replication_factor == 1 {
                return;
            }
            let missing = missing_copies(&service, &client, &routed, keys, replication_factor);
            assert!(missing.is_empty(), "seed {seed}: after the {change}, missing {missing:?}");
        };

        // Mid-traffic: grow the service by a node, join a fresh provider
        // on it, then retire one of the founding members.
        let new_node = service.add_node().unwrap();
        wait_for_view(&service, 4);
        let spec = mochi_bedrock::ProviderSpec::new("kv3", "yokan", 13)
            .with_config(json!({"backend": "lsm"}))
            .with_tag(format!("keyspace:{KEYSPACE}"));
        let before_join: Vec<Vec<u8>> = acked.lock().unwrap().keys().cloned().collect();
        let join = routed.join_provider(&spec, Some(&new_node)).unwrap();
        assert!(join.moved_keys > 0, "seed {seed}: join drained nothing");
        held_through("join", &before_join);

        let before_retire: Vec<Vec<u8>> = acked.lock().unwrap().keys().cloned().collect();
        let retire = routed.retire("kv1").unwrap();
        assert!(retire.moved_keys > 0, "seed {seed}: retire drained nothing");
        held_through("retire", &before_retire);

        stop.store(true, Ordering::Release);
        let ops = writer.join().unwrap();
        assert!(ops > 0);
    });

    // Heal the fabric for verification: the soak asserts durability of
    // acked writes, not availability under ongoing faults.
    faults.clear();

    assert_eq!(routed.members(), vec!["kv0", "kv2", "kv3"]);
    let expected = acked.into_inner().unwrap();
    let keys: Vec<&[u8]> = expected.keys().map(Vec::as_slice).collect();
    for (slot, (key, value)) in routed.get_multi(&keys).into_iter().zip(&expected) {
        let read = slot
            .unwrap_or_else(|e| panic!("seed {seed}: acked key {:?} unreadable: {e}",
                String::from_utf8_lossy(key)));
        assert_eq!(
            read.as_deref(),
            Some(value.as_slice()),
            "seed {seed}: acked write lost for {:?}",
            String::from_utf8_lossy(key)
        );
    }
    // No import, stale copy or hint brought an erased key back.
    let erased = erased.into_inner().unwrap();
    assert!(!erased.is_empty(), "seed {seed}: the soak acked no erase");
    let keys: Vec<&[u8]> = erased.iter().map(Vec::as_slice).collect();
    for (slot, key) in routed.get_multi(&keys).into_iter().zip(&erased) {
        assert_eq!(
            slot.unwrap(),
            None,
            "seed {seed}: erased key {:?} is back",
            String::from_utf8_lossy(key)
        );
    }
    // The keyspace holds at least the acked state. (Strict equality
    // would be wrong: a put or erase that *errored* at the client may
    // still have executed server-side — those keys exist without being
    // expected, which is permitted; losing an acked key is not.)
    assert!(routed.len().unwrap() >= expected.len() as u64, "seed {seed}");

    service.shutdown();
    client.finalize();
}
