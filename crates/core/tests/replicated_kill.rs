//! Provider-kill survival of the replicated routed keyspace (DESIGN.md
//! §18): at `replication_factor 3`, a member process is crashed abruptly
//! mid-traffic under a seeded fault plane. The acceptance bar:
//!
//! * zero acked-write loss — every put the client saw `Ok` reads back
//!   with its exact value after the dust settles,
//! * quorum reads keep serving *during* the outage (no rebalance, no
//!   manual intervention required to stay available),
//! * `fail_member` retires the corpse without a drain and the catch-up,
//!   hinted-handoff and read-repair machinery re-converges every
//!   surviving replica to byte-identical records,
//!
//! for every seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde_json::json;

use mochi_core::routed::{RoutedConfig, RoutedKv};
use mochi_core::{Cluster, DynamicService, FailoverKv, HashRing, ServiceConfig};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, LinkScript};
use mochi_util::time::wait_until;
use mochi_yokan::version::decode_record;

const KEYSPACE: &str = "replicated";

fn keyspace_namer(i: usize) -> Vec<mochi_bedrock::ProviderSpec> {
    vec![
        mochi_bedrock::ProviderSpec::new(format!("kv{i}"), "yokan", 10 + i as u16)
            .with_config(json!({"backend": "lsm"}))
            .with_tag(format!("keyspace:{KEYSPACE}")),
    ]
}

/// Client runtime with patient retry settings (the fault plane drops
/// messages; idempotent RPCs should be re-sent, not surface as losses).
fn chaos_client(cluster: &Cluster, name: &str) -> MargoRuntime {
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
) -> Vec<String> {
    let ring = HashRing::new(&routed.members());
    let mut missing = Vec::new();
    for member in ring.members() {
        let owned: Vec<&[u8]> = keys
            .iter()
            .filter(|key| ring.owners(key, 3).contains(&member.as_str()))
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
    assert!(wait_until(
        Duration::from_secs(10),
        Duration::from_millis(10),
        || { service.view().is_some_and(|v| v.len() == members) }
    ));
}

/// The headline acceptance test: kill a provider mid-traffic at rf=3,
/// lose nothing, stay serving, converge — for every seed.
#[test]
fn provider_kill_loses_no_acked_write() {
    const SEEDS: [u64; 3] = [11, 12, 13];
    for seed in SEEDS {
        provider_kill_round(seed);
    }
}

/// Raises the flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn provider_kill_round(seed: u64) {
    const VICTIM: &str = "kv1";
    let cluster = Cluster::new(5);
    let service =
        DynamicService::deploy(&cluster, ServiceConfig::default(), 4, keyspace_namer).unwrap();
    wait_for_view(&service, 4);
    let client = chaos_client(&cluster, "client");
    let routed = RoutedKv::for_keyspace(
        &service,
        &client,
        KEYSPACE,
        RoutedConfig {
            replication_factor: 3,
            leg_timeout: Duration::from_millis(500),
            hint_drain_interval: Duration::from_millis(50),
            ..RoutedConfig::default()
        },
    )
    .unwrap();
    assert_eq!(routed.members(), vec!["kv0", "kv1", "kv2", "kv3"]);

    // Preload: fully replicated state before any fault exists.
    let preload: Vec<(Vec<u8>, Vec<u8>)> = (0..300)
        .map(|i| {
            (
                format!("pre-{seed}-{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
        })
        .collect();
    let refs: Vec<(&[u8], &[u8])> = preload
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
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
        LinkScript::DelaySpike {
            period: 50,
            spike: Duration::from_millis(2),
        },
    );

    let stop = AtomicBool::new(false);
    let acked_puts = AtomicU64::new(0);
    let acked: std::sync::Mutex<BTreeMap<Vec<u8>, Vec<u8>>> =
        std::sync::Mutex::new(preload.iter().cloned().collect());

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let key = format!("live-{seed}-{i:06}").into_bytes();
                let value = format!("val-{seed}-{i}").into_bytes();
                if i.is_multiple_of(7) {
                    // Replicated erase is a versioned tombstone write;
                    // like the rebalance soak, the expectation drops the
                    // key whether or not the erase acked — zero-loss is
                    // asserted over acked *puts*.
                    // Only live-keys are erased: the outage assertions
                    // below sample the preload set directly.
                    let victim = acked
                        .lock()
                        .unwrap()
                        .keys()
                        .find(|k| k.starts_with(b"live-"))
                        .cloned();
                    if let Some(victim) = victim {
                        acked.lock().unwrap().remove(&victim);
                        let _ = routed.erase(&victim);
                    }
                } else if routed.put(&key, &value).is_ok() {
                    acked.lock().unwrap().insert(key, value);
                    acked_puts.fetch_add(1, Ordering::AcqRel);
                }
            }
            i
        });

        // A failed assertion below must fail the test, not leave the
        // scope waiting for a writer nobody stops.
        let _stop_writer = StopOnDrop(&stop);

        // Let the writer establish traffic, then kill the victim's node
        // abruptly: no provider shutdown, no farewell — SWIM finds out.
        let before_kill = acked_puts.load(Ordering::Acquire);
        assert!(
            wait_until(Duration::from_secs(10), Duration::from_millis(5), || {
                acked_puts.load(Ordering::Acquire) > before_kill + 10
            }),
            "seed {seed}: writer made no progress before the kill"
        );
        let dead_addr = service
            .addresses()
            .into_iter()
            .find(|addr| {
                service
                    .server(addr)
                    .is_some_and(|s| s.lookup_provider(VICTIM).is_ok())
            })
            .unwrap_or_else(|| panic!("seed {seed}: no node hosts {VICTIM}"));
        cluster.crash(&dead_addr).unwrap();
        wait_for_view(&service, 3);

        // Quorum reads serve *during* the outage: the victim is still a
        // ring member, but 2-of-3 replicas answer every sampled key.
        for (key, value) in preload.iter().step_by(12) {
            let read = routed.get(key).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: outage read of {:?} failed: {e}",
                    String::from_utf8_lossy(key)
                )
            });
            assert_eq!(read.as_deref(), Some(value.as_slice()), "seed {seed}");
        }

        // Writes keep acking during the outage too (quorum + hints).
        let during_outage = acked_puts.load(Ordering::Acquire);
        assert!(
            wait_until(Duration::from_secs(10), Duration::from_millis(5), || {
                acked_puts.load(Ordering::Acquire) > during_outage + 10
            }),
            "seed {seed}: no write acked during the outage"
        );

        // Retire the corpse: no drain, no rebalance — survivors already
        // hold every record; only re-replication catch-up runs.
        let before_fail: Vec<Vec<u8>> = acked.lock().unwrap().keys().cloned().collect();
        let report = routed.fail_member(VICTIM).unwrap();
        // Every put acked before it is held by every survivor, with no
        // read in between to repair it: the copies the writes owed, and
        // the hints parked for the corpse, shipped before it returned.
        let missing = missing_copies(&service, &client, &routed, &before_fail);
        assert!(missing.is_empty(), "seed {seed}: after fail_member, missing {missing:?}");
        assert!(
            report.recopied_keys > 0,
            "seed {seed}: catch-up restored no replicas (report {report:?})"
        );
        assert_eq!(routed.members(), vec!["kv0", "kv2", "kv3"]);
        assert!(
            !routed.rebalancing(),
            "fail_member must not open a move window"
        );

        // A little more traffic on the shrunken ring, then stop.
        let after_fail = acked_puts.load(Ordering::Acquire);
        assert!(
            wait_until(Duration::from_secs(10), Duration::from_millis(5), || {
                acked_puts.load(Ordering::Acquire) > after_fail + 10
            }),
            "seed {seed}: no write acked after fail_member"
        );
        stop.store(true, Ordering::Release);
        let ops = writer.join().unwrap();
        assert!(ops > 0);
    });

    // Heal the fabric: the test asserts durability and convergence of
    // acked writes, not availability under ongoing faults.
    faults.clear();

    // Zero acked-write loss: every acked put reads back exactly.
    let expected = acked.into_inner().unwrap();
    let keys: Vec<&[u8]> = expected.keys().map(Vec::as_slice).collect();
    for (slot, (key, value)) in routed.get_multi(&keys).into_iter().zip(&expected) {
        let read = slot.unwrap_or_else(|e| {
            panic!(
                "seed {seed}: acked key {:?} unreadable: {e}",
                String::from_utf8_lossy(key)
            )
        });
        assert_eq!(
            read.as_deref(),
            Some(value.as_slice()),
            "seed {seed}: acked write lost for {:?}",
            String::from_utf8_lossy(key)
        );
    }

    // All parked hints replay now that the fabric is healed.
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
            routed.drain_hints_now() == 0
        }),
        "seed {seed}: hints never fully drained"
    );

    // Digest convergence: with 3 members at rf=3 every survivor owns
    // every key, so all three must hold byte-identical versioned
    // records for every acked key. The quorum reads in the wait loop
    // double as the read-repair trigger for any laggard replica.
    let survivors = ["kv0", "kv2", "kv3"];
    let direct: Vec<FailoverKv> = survivors
        .iter()
        .map(|m| FailoverKv::new(&service, &client, m))
        .collect();
    let converged = wait_until(Duration::from_secs(15), Duration::from_millis(100), || {
        // Quorum-read everything (repairs stale replicas as a side
        // effect), then compare raw replica records bytewise.
        if routed
            .get_multi(&keys)
            .into_iter()
            .zip(&expected)
            .any(|(slot, (_, value))| !matches!(&slot, Ok(Some(read)) if read == value))
        {
            return false;
        }
        let mut replicas: Vec<Vec<Option<Vec<u8>>>> = Vec::with_capacity(direct.len());
        for handle in &direct {
            match handle.get_multi(&keys) {
                Ok(records) => replicas.push(records),
                Err(_) => return false,
            }
        }
        (0..keys.len()).all(|i| {
            let first = &replicas[0][i];
            first.is_some() && replicas.iter().all(|member| &member[i] == first)
        })
    });
    assert!(
        converged,
        "seed {seed}: replicas never converged to identical records"
    );

    // The raw records really are versioned envelopes of the acked data.
    for (i, (key, value)) in expected.iter().enumerate() {
        let raw = direct[0]
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("seed {seed}: converged key {i} vanished"));
        let record = decode_record(&raw);
        assert!(
            !record.tombstone,
            "seed {seed}: live key stored as tombstone"
        );
        assert_eq!(record.value, value.as_slice(), "seed {seed}");
        assert!(
            record.version > 0,
            "seed {seed}: replicated record kept version 0"
        );
    }

    let stats = routed.replication_stats();
    assert!(
        stats.read_repairs >= stats.repair_failures,
        "seed {seed}: stats accounting broke: {stats:?}"
    );

    service.shutdown();
    client.finalize();
}
