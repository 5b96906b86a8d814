//! The legs of one `RoutedKv` operation overlap (DESIGN.md §17.2): the
//! caller's thread posts every destination's batch and only then waits, so
//! an operation over three replicas costs its slowest leg, not the sum —
//! on the clean path and on the first round of the failure path alike.
//! Timings are taken against a fault plane that slows or swallows the
//! client's requests; the members themselves stay healthy and in the view.
//!
//! The same deployment holds the quorum contract (DESIGN.md §18.2): a
//! write acks on `W` real copies, owed copies never count, so the two
//! replicas a read asks always hold the last acked write; the pair rotates
//! from call to call, so read repair still reaches every replica, and a
//! replica that does not answer sends the read to the third. A put asks
//! two replicas too: the third is owed the record, which ships in a batch
//! per member by the next drain, or stays owed while the member is down.

use std::iter::once;
use std::ops::Range;
use std::time::{Duration, Instant};

use serde_json::json;

use mochi_core::routed::{RoutedConfig, RoutedKv};
use mochi_core::{Cluster, DynamicService, FailoverKv, HashRing, ServiceConfig};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, LinkScript};
use mochi_util::time::wait_until;
use mochi_yokan::client::{KeyBatch, VersionedBatch, VersionedValue};

const KEYSPACE: &str = "legs";
const MEMBERS: usize = 3;

struct Deployed {
    cluster: std::sync::Arc<Cluster>,
    service: std::sync::Arc<DynamicService>,
    client: MargoRuntime,
    routed: RoutedKv,
}

impl Deployed {
    /// The members' hosts, in `DynamicService::addresses` order.
    fn hosts(&self) -> Vec<String> {
        self.service.addresses().iter().map(|address| address.host().to_string()).collect()
    }

    /// The key's replicas, in the order a write asks them.
    fn replicas(&self, key: &[u8]) -> Vec<String> {
        let ring = HashRing::new(&self.routed.members());
        ring.owners(key, MEMBERS).into_iter().map(str::to_string).collect()
    }

    /// `count` keys whose third replica is `member`: a put of one asks
    /// the other two and owes `member` the copy.
    fn owing(&self, member: &str, count: usize) -> Vec<Vec<u8>> {
        let keys = (0..).map(|i| format!("key-{i:05}").into_bytes());
        keys.filter(|key| self.replicas(key)[2] == member).take(count).collect()
    }

    /// The host `member` runs on.
    fn host_of(&self, member: &str) -> String {
        let (address, _) = FailoverKv::new(&self.service, &self.client, member).resolve().unwrap();
        address.host().to_string()
    }

    /// Put-if-newer RPCs the client has forwarded, from its own
    /// monitoring dump.
    fn versioned_puts(&self) -> u64 {
        self.versioned_puts_to("")
    }

    /// Put-if-newer RPCs the client has forwarded to the peers whose
    /// address contains `to`.
    fn versioned_puts_to(&self, to: &str) -> u64 {
        let stats = self.client.monitoring_json().expect("monitoring is on by default");
        let rpcs = stats["rpcs"].as_object().into_iter().flatten().map(|(_, rpc)| rpc);
        rpcs.filter(|rpc| rpc["name"] == "yokan_put_versioned_multi")
            .flat_map(|rpc| rpc["origin"].as_object().into_iter().flatten())
            .filter(|(peer, _)| peer.contains(to))
            .map(|(_, peer)| peer["forward"]["duration"]["num"].as_u64().unwrap_or(0))
            .sum()
    }

    /// Drops (`true`) or delivers every request the client sends `host`.
    fn cut(&self, host: &str, cut: bool) {
        let faults = self.cluster.fabric().faults();
        faults.set_drop_probability(Some("client"), Some(host), if cut { 1.0 } else { 0.0 });
    }

    fn shutdown(self) {
        drop(self.routed);
        self.service.shutdown();
        self.client.finalize();
    }
}

/// Three members, one per node, `replication_factor 3`: every key lives
/// on all of them, so a write or a read has two legs, or three when one of
/// its first two does not answer. The drainer does not tick
/// during a test: its passes would add legs to the ones timed and
/// failures to an unreachable member's breaker.
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
    let mut margo = MargoConfig::default();
    margo.retry.max_attempts = 1;
    let client = MargoRuntime::init(cluster.fabric(), Address::tcp("client", 1), &margo).unwrap();
    let routed = RoutedKv::for_keyspace(
        &service,
        &client,
        KEYSPACE,
        RoutedConfig {
            replication_factor: 3,
            leg_timeout,
            hint_drain_interval: Duration::from_secs(600),
            ..RoutedConfig::default()
        },
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

    // One slow member: a read asks two of the three replicas, starting
    // one further on each call, so of three reads exactly one leaves the
    // slow member out.
    let slow_host = d.hosts()[0].clone();
    faults.push_script(Some("client"), Some(&slow_host), slow);
    let mut quick = 0;
    for _ in 0..MEMBERS {
        let (value, elapsed) = timed(|| d.routed.get(b"key-003"));
        assert_eq!(value.unwrap().as_deref(), Some(b"v3".as_slice()));
        assert!(elapsed < 2 * SPIKE, "get with one slow leg took {elapsed:?}");
        quick += usize::from(elapsed < SPIKE);
    }
    assert_eq!(quick, 1, "{quick} of {MEMBERS} reads left the slow member out");
    faults.clear_scripts(Some("client"), Some(&slow_host));

    // Every request the client sends is slow: two or three legs, one spike.
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
    d.shutdown();
}

/// Puts `key` with the client's requests to `key`'s replicas at
/// `positions` (in the order a write asks them) vanishing, and returns how
/// long the refused put took.
fn refused_put_with_replicas_cut(positions: Range<usize>, leg_timeout: Duration) -> Duration {
    let d = deploy(leg_timeout);
    d.routed.put(b"warm", b"up").unwrap();
    let cut: Vec<String> = d.replicas(b"key")[positions].iter().map(|m| d.host_of(m)).collect();
    for host in &cut {
        d.cut(host, true);
    }
    let (outcome, elapsed) = timed(|| d.routed.put(b"key", b"value"));
    // One real ack is not the write quorum, whatever the two cut replicas
    // are owed.
    let refused = outcome.err().map(|e| e.to_string()).unwrap_or_default();
    assert!(
        refused.contains("write quorum not met"),
        "a write acked by one of three replicas: {refused:?}"
    );
    assert_eq!(d.routed.replication_stats().hinted_writes, 2);
    for host in &cut {
        d.cut(host, false);
    }
    d.shutdown();
    elapsed
}

#[test]
fn two_unreachable_legs_time_out_together() {
    // `FAIL_FAST_ROUNDS` of `routed.rs`: a replicated leg gives up after
    // two resolution rounds and lets the owed copies absorb the loss.
    const ROUNDS: u32 = 2;
    const LEG_TIMEOUT: Duration = Duration::from_millis(200);
    // The two replicas a write asks first: both legs were posted together,
    // so their first timeouts are one wait; only the second rounds — the
    // failure path proper — run one after the other. Legs that blocked
    // from the start would need `2 × ROUNDS` timeouts.
    let elapsed = refused_put_with_replicas_cut(0..2, LEG_TIMEOUT);
    assert!(elapsed >= ROUNDS * LEG_TIMEOUT, "{elapsed:?}");
    assert!(
        elapsed < 2 * ROUNDS * LEG_TIMEOUT,
        "two dead legs cost {elapsed:?}: their timeouts did not overlap"
    );
    // One of those two and the third: the write asks the third only after
    // its first round waited out the dead leg, so the two timeouts run
    // one after the other (DESIGN.md §17.2) — but each still only once.
    let elapsed = refused_put_with_replicas_cut(1..3, LEG_TIMEOUT);
    assert!(elapsed >= 2 * ROUNDS * LEG_TIMEOUT, "{elapsed:?}");
    assert!(
        elapsed < 2 * 2 * ROUNDS * LEG_TIMEOUT,
        "a dead leg in each round cost {elapsed:?}: more than one timeout each"
    );
}

/// A put that reaches one replica (A) owes the other two their copies; a
/// read that then reaches only those two must not return the value the
/// put replaced. Either the put is refused, or the read sees it.
#[test]
fn a_write_acked_by_one_real_replica_is_never_read_stale() {
    let d = deploy(Duration::from_millis(100));
    let hosts = d.hosts();
    d.routed.put(b"key", b"old").unwrap();
    // 1. Only A is reachable.
    d.cut(&hosts[1], true);
    d.cut(&hosts[2], true);
    let put = d.routed.put(b"key", b"new");
    // 2. Only B and C are.
    d.cut(&hosts[0], true);
    d.cut(&hosts[1], false);
    d.cut(&hosts[2], false);
    // 3. Read.
    let read = d.routed.get(b"key").unwrap();
    d.cut(&hosts[0], false);
    match put {
        Ok(()) => assert_eq!(read.as_deref(), Some(b"new".as_slice()), "an acked write read stale"),
        Err(err) => assert!(err.to_string().contains("write quorum not met"), "{err}"),
    }
    // Refused or not, the write owes each unreachable replica its copy.
    assert_eq!(d.routed.replication_stats().hinted_writes, 2);
    d.shutdown();
}

/// Each member in turn holds an older record than the other two, written
/// behind the keyspace's back: at most one get per replica finds it, and
/// the repair that get posts brings it up to date.
#[test]
fn read_repair_reaches_every_replica() {
    let d = deploy(Duration::from_millis(500));
    let members: Vec<FailoverKv> =
        (0..MEMBERS).map(|i| FailoverKv::new(&d.service, &d.client, &format!("kv{i}"))).collect();
    let fresh = VersionedValue { version: 2, tombstone: false, value: b"fresh".to_vec() };
    for (stale, member) in members.iter().enumerate() {
        let key = format!("drifted-{stale}").into_bytes();
        for (i, holder) in members.iter().enumerate() {
            let (version, value) = if i == stale { (1, &b"stale"[..]) } else { (2, &b"fresh"[..]) };
            let record = VersionedBatch::encode(once((key.as_slice(), version, Some(value))));
            let record = record.unwrap();
            holder.with_handle(|h| h.put_versioned(&record)).unwrap();
        }
        let repairs = d.routed.replication_stats().read_repairs;
        let mut gets = 0;
        while d.routed.replication_stats().read_repairs == repairs {
            assert!(gets < MEMBERS, "{gets} gets never asked kv{stale}");
            assert_eq!(d.routed.get(&key).unwrap().as_deref(), Some(b"fresh".as_slice()));
            gets += 1;
        }
        assert_eq!(d.routed.replication_stats().read_repairs, repairs + 1);
        let wanted = KeyBatch::encode(once(key.as_slice())).unwrap();
        let held = || member.with_handle(|h| h.get_versioned(&wanted));
        assert!(
            wait_until(Duration::from_secs(5), Duration::from_millis(5), || {
                held().is_ok_and(|records| records == [Some(fresh.clone())])
            }),
            "kv{stale} still holds {:?}",
            held()
        );
    }
    assert_eq!(d.routed.replication_stats().repair_failures, 0);
    d.shutdown();
}

/// A replica that answers nothing: the two reads in three whose window
/// holds it wait out its leg, then get the value from the third replica.
#[test]
fn a_read_whose_window_holds_a_silent_replica_asks_the_third() {
    const LEG_TIMEOUT: Duration = Duration::from_millis(100);
    let d = deploy(LEG_TIMEOUT);
    d.routed.put(b"key", b"value").unwrap();
    let silent = d.hosts()[0].clone();
    d.cut(&silent, true);
    let mut second_rounds = 0;
    for _ in 0..MEMBERS {
        let (value, elapsed) = timed(|| d.routed.get(b"key"));
        assert_eq!(value.unwrap().as_deref(), Some(b"value".as_slice()));
        second_rounds += usize::from(elapsed >= LEG_TIMEOUT);
    }
    assert_eq!(second_rounds, 2, "{second_rounds} of {MEMBERS} reads asked the silent replica");
    d.cut(&silent, false);
    d.shutdown();
}

/// A put waits for the two replicas its quorum needs; what the third is
/// owed ships in one batch per member, so 64 puts cost two RPCs each and
/// at most one more per member. After the drain, with no read to repair
/// anything, every replica holds the same record of every key.
#[test]
fn a_put_asks_two_replicas_and_the_third_copy_ships_in_a_batch() {
    const PUTS: usize = 64;
    let d = deploy(Duration::from_millis(500));
    let pairs = pairs(PUTS);
    let before = d.versioned_puts();
    for (key, value) in &pairs {
        d.routed.put(key, value).unwrap();
    }
    d.routed.drain_hints_now();
    let sent = d.versioned_puts() - before;
    assert!(sent <= (2 * PUTS + MEMBERS) as u64, "{PUTS} puts forwarded {sent} put RPCs");
    let wanted = KeyBatch::encode(pairs.iter().map(|(key, _)| key.as_slice())).unwrap();
    let held: Vec<Vec<Option<VersionedValue>>> = (0..MEMBERS)
        .map(|i| FailoverKv::new(&d.service, &d.client, &format!("kv{i}")))
        .map(|member| member.with_handle(|h| h.get_versioned(&wanted)).unwrap())
        .collect();
    for (records, (_, value)) in held[0].iter().zip(&pairs) {
        assert_eq!(records.as_ref().map(|record| &record.value), Some(value));
    }
    assert!(held.iter().all(|records| *records == held[0]), "replicas differ after the drain");
    assert_eq!(d.routed.replication_stats().read_repairs, 0);
    d.shutdown();
}

/// The replica a put does not ask is unreachable: the put acks on the two
/// it asked, the copy stays owed through a drain that cannot deliver it,
/// and once the member is back the next drain delivers it.
#[test]
fn a_copy_owed_to_an_unreachable_replica_arrives_once_it_is_back() {
    let d = deploy(Duration::from_millis(100));
    let last = d.replicas(b"key")[2].clone();
    let host = d.host_of(&last);
    d.cut(&host, true);
    d.routed.put(b"key", b"value").unwrap();
    assert_eq!(d.routed.drain_hints_now(), 1, "the copy is still owed");
    // The member was not asked: it missed no write leg.
    assert_eq!(d.routed.replication_stats().hinted_writes, 0);
    d.cut(&host, false);
    assert_eq!(d.routed.drain_hints_now(), 0);
    let wanted = KeyBatch::encode(once(b"key".as_slice())).unwrap();
    let member = FailoverKv::new(&d.service, &d.client, &last);
    let held = member.with_handle(|h| h.get_versioned(&wanted)).unwrap();
    assert_eq!(held[0].as_ref().map(|record| record.value.as_slice()), Some(b"value".as_slice()));
    assert_eq!(d.routed.replication_stats().repair_failures, 0);
    d.shutdown();
}

/// An owed copy waits in the coordinator, so the crash of another member
/// cannot take it: with the key's first replica (the member a handoff
/// would have parked it on) gone, the copy still reaches the third
/// replica once it answers, with no read in between to repair it.
#[test]
fn an_owed_copy_outlives_the_member_that_would_have_held_its_hint() {
    let d = deploy(Duration::from_millis(100));
    let replicas = d.replicas(b"key");
    let third = d.host_of(&replicas[2]);
    d.cut(&third, true);
    d.routed.put(b"key", b"value").unwrap();
    d.routed.drain_hints_now();
    let (first, _) = FailoverKv::new(&d.service, &d.client, &replicas[0]).resolve().unwrap();
    d.cluster.crash(&first).unwrap();
    d.cut(&third, false);
    d.routed.drain_hints_now();
    let wanted = KeyBatch::encode(once(b"key".as_slice())).unwrap();
    let member = FailoverKv::new(&d.service, &d.client, &replicas[2]);
    let held = member.with_handle(|h| h.get_versioned(&wanted)).unwrap();
    assert_eq!(
        held[0].as_ref().map(|record| record.value.as_slice()),
        Some(b"value".as_slice()),
        "{} never got the copy it was owed",
        replicas[2]
    );
    assert_eq!(d.routed.drain_hints_now(), 0);
    d.shutdown();
}

/// Once a shipment to an unreachable member has failed, writes only add
/// to what it is owed: no put sends it a batch, and the next drain sends
/// it everything in one.
#[test]
fn a_member_whose_shipment_failed_is_sent_nothing_until_the_next_drain() {
    const FIRST: usize = 64;
    const MORE: usize = 500;
    let d = deploy(Duration::from_millis(100));
    let victim = "kv2";
    let keys = d.owing(victim, FIRST + MORE);
    let host = d.host_of(victim);
    let to_victim = format!("//{host}:");
    d.cut(&host, true);
    for key in &keys[..FIRST] {
        d.routed.put(key, b"v").unwrap();
    }
    // The 64th put shipped the victim's outbox: wait for it to fail.
    assert!(wait_until(Duration::from_secs(5), Duration::from_millis(5), || {
        d.versioned_puts_to(&to_victim) == 1 && d.routed.replication_stats().drain_errors == 1
    }));
    for key in &keys[FIRST..] {
        d.routed.put(key, b"v").unwrap();
    }
    assert_eq!(d.versioned_puts_to(&to_victim), 1, "a write shipped to a member that is down");
    // The drain waits for every shipment posted before it: a batch a
    // write shipped, still in flight above, is counted after it.
    let owed = d.routed.drain_hints_now();
    assert_eq!(d.versioned_puts_to(&to_victim), 2, "not one batch from the drain alone");
    assert_eq!(owed, (FIRST + MORE) as u64);
    d.cut(&host, false);
    d.shutdown();
}

/// A shipment that fails after the route changed hands its records to the
/// route current then: what it carried for a member that has been failed
/// meanwhile goes to the survivors.
#[test]
fn a_shipment_that_fails_after_a_route_change_follows_the_new_route() {
    // `OUTBOX` of `routed.rs`: the put that fills an outbox ships it.
    const OUTBOX: usize = 64;
    let d = deploy(Duration::from_millis(100));
    let host = d.host_of("kv2");
    d.cut(&host, true);
    for key in d.owing("kv2", OUTBOX) {
        d.routed.put(&key, b"v").unwrap();
    }
    // The last put posted kv2's outbox, which fails a leg timeout later,
    // while `fail_member` publishes the route without kv2.
    let report = d.routed.fail_member("kv2").unwrap();
    assert_eq!(report.replayed_hints, OUTBOX as u64, "copies left behind in the old route");
    assert_eq!(d.routed.drain_hints_now(), 0);
    d.cut(&host, false);
    d.shutdown();
}

/// Copies owed to a member that then fails go to each key's current
/// owners: one put RPC per survivor, not one per copy.
#[test]
fn copies_owed_to_a_failed_member_go_out_in_one_batch_per_survivor() {
    const OWED: usize = 200;
    let d = deploy(Duration::from_millis(100));
    let host = d.host_of("kv2");
    d.cut(&host, true);
    let pairs = pairs(OWED);
    for (key, value) in &pairs {
        d.routed.put(key, value).unwrap();
    }
    // Every put owes kv2 its copy: as the replica it did not ask, or as
    // one whose leg failed.
    assert_eq!(d.routed.drain_hints_now(), OWED as u64);
    assert!(d.routed.replication_stats().hinted_writes > 0);
    let before = d.versioned_puts();
    let report = d.routed.fail_member("kv2").unwrap();
    assert_eq!(report.replayed_hints, OWED as u64);
    let sent = d.versioned_puts() - before;
    // Every key's owners are the two survivors.
    assert!(sent <= 2, "{OWED} owed copies shipped in {sent} put RPCs");
    assert_eq!(d.routed.drain_hints_now(), 0);
    let wanted = KeyBatch::encode(pairs.iter().map(|(key, _)| key.as_slice())).unwrap();
    for survivor in ["kv0", "kv1"] {
        let member = FailoverKv::new(&d.service, &d.client, survivor);
        let held = member.with_handle(|h| h.get_versioned(&wanted)).unwrap();
        assert!(held.iter().zip(&pairs).all(|(record, (_, value))| {
            record.as_ref().is_some_and(|record| record.value == *value)
        }));
    }
    d.cut(&host, false);
    d.shutdown();
}
