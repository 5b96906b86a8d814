//! Integration tests for Yokan: provider/client over the fabric, the
//! virtual replicated database (Observation 10), and the Bedrock module
//! (start/stop/migrate/checkpoint/restore).

use std::sync::Arc;
use std::time::Duration;

use mochi_bedrock::{BedrockServer, Client, ModuleCatalog, ProcessConfig, ProviderSpec};
use mochi_margo::{encode_framed, MargoRuntime};
use mochi_mercury::{Address, Fabric};
use mochi_util::TempDir;
use mochi_yokan::backend::memory::MemoryDatabase;
use mochi_yokan::client::VersionedBatch;
use mochi_yokan::provider::{rpc, PutMultiHeader};
use mochi_yokan::replication::{ReplicaSpec, VirtualConfig};
use mochi_yokan::version::encode_record;
use mochi_yokan::views::{key_seq, PutMultiHeaderView, Seq};
use mochi_yokan::{DatabaseHandle, VirtualDatabase, YokanProvider};

fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
    MargoRuntime::init_default(fabric, Address::tcp(host, 1)).unwrap()
}

fn memory_provider(margo: &MargoRuntime, id: u16) -> Arc<YokanProvider> {
    YokanProvider::register(margo, id, None, Arc::new(MemoryDatabase::new())).unwrap()
}

/// A provider serving a virtual database over `replicas`.
fn virtual_provider(
    margo: &MargoRuntime,
    id: u16,
    replicas: Vec<(Address, u16)>,
) -> Arc<YokanProvider> {
    let db = VirtualDatabase::new(margo, replicas, Duration::from_millis(500));
    YokanProvider::register(margo, id, None, Arc::new(db)).unwrap()
}

/// How many `name` requests `margo`'s handlers have finished, from its
/// monitoring dump (nested calls included).
fn handled(margo: &MargoRuntime, name: &str) -> u64 {
    let stats = margo.monitoring_json().unwrap_or_default();
    let entries = stats["rpcs"].as_object().into_iter().flat_map(|rpcs| rpcs.values());
    let targets = entries
        .filter(|entry| entry["name"] == name)
        .flat_map(|entry| entry["target"].as_object().into_iter().flat_map(|peers| peers.values()));
    targets.filter_map(|peer| peer["ult"]["duration"]["num"].as_u64()).sum()
}

#[test]
fn put_get_roundtrip_over_fabric() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let _provider = memory_provider(&server, 1);
    let db = DatabaseHandle::new(&client, server.address(), 1);

    db.put(b"key", b"value").unwrap();
    assert_eq!(db.get(b"key").unwrap().as_deref(), Some(b"value".as_slice()));
    assert_eq!(db.get(b"missing").unwrap(), None);
    assert!(db.exists(b"key").unwrap());
    assert_eq!(db.len().unwrap(), 1);
    assert!(db.erase(b"key").unwrap());
    assert!(!db.erase(b"key").unwrap());
    assert!(db.is_empty().unwrap());
    server.finalize();
    client.finalize();
}

#[test]
fn large_values_roundtrip() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let _provider = memory_provider(&server, 1);
    let db = DatabaseHandle::new(&client, server.address(), 1);
    let value: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    db.put(b"big", &value).unwrap();
    assert_eq!(db.get(b"big").unwrap().unwrap(), value);
    server.finalize();
    client.finalize();
}

#[test]
fn multi_ops_and_listing() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let _provider = memory_provider(&server, 1);
    let db = DatabaseHandle::new(&client, server.address(), 1);

    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
        .map(|i| (format!("k/{i}").into_bytes(), format!("value-{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    db.put_multi(&refs).unwrap();
    assert_eq!(db.len().unwrap(), 10);

    let keys: Vec<&[u8]> = vec![b"k/3", b"k/999", b"k/7"];
    let values = db.get_multi(&keys).unwrap();
    assert_eq!(values[0].as_deref(), Some(b"value-3".as_slice()));
    assert_eq!(values[1], None);
    assert_eq!(values[2].as_deref(), Some(b"value-7".as_slice()));

    let listed = db.list_keys(b"k/", None, 4).unwrap();
    assert_eq!(listed.len(), 4);
    let next = db.list_keys(b"k/", Some(&listed[3]), 100).unwrap();
    assert_eq!(listed.len() + next.len(), 10);
    server.finalize();
    client.finalize();
}

#[test]
fn two_providers_one_process_are_isolated() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let _p1 = memory_provider(&server, 1);
    let _p2 = memory_provider(&server, 2);
    let db1 = DatabaseHandle::new(&client, server.address(), 1);
    let db2 = DatabaseHandle::new(&client, server.address(), 2);
    db1.put(b"k", b"one").unwrap();
    db2.put(b"k", b"two").unwrap();
    assert_eq!(db1.get(b"k").unwrap().as_deref(), Some(b"one".as_slice()));
    assert_eq!(db2.get(b"k").unwrap().as_deref(), Some(b"two".as_slice()));
    server.finalize();
    client.finalize();
}

#[test]
fn virtual_database_replicates_transparently() {
    let fabric = Fabric::new();
    let rep1 = boot(&fabric, "rep1");
    let rep2 = boot(&fabric, "rep2");
    let front = boot(&fabric, "front");
    let client = boot(&fabric, "client");
    let p1 = memory_provider(&rep1, 1);
    let p2 = memory_provider(&rep2, 1);
    let _virtual_db = virtual_provider(&front, 9, vec![(rep1.address(), 1), (rep2.address(), 1)]);

    // The client talks to the virtual provider with a plain handle — it
    // cannot tell it is not a real database (Observation 10).
    let db = DatabaseHandle::new(&client, front.address(), 9);
    db.put(b"replicated", b"yes").unwrap();
    assert_eq!(db.get(b"replicated").unwrap().as_deref(), Some(b"yes".as_slice()));

    // Both replicas really hold the data.
    assert_eq!(p1.database().get(b"replicated").unwrap().as_deref(), Some(b"yes".as_slice()));
    assert_eq!(p2.database().get(b"replicated").unwrap().as_deref(), Some(b"yes".as_slice()));

    // Kill replica 1: reads fail over to replica 2.
    rep1.finalize();
    assert_eq!(db.get(b"replicated").unwrap().as_deref(), Some(b"yes".as_slice()));
    // Writes (write-all) now fail — data safety over availability.
    assert!(db.put(b"new", b"x").is_err());

    rep2.finalize();
    front.finalize();
    client.finalize();
}

#[test]
fn virtual_database_deregisters_exactly_what_it_registered() {
    let fabric = Fabric::new();
    let front = boot(&fabric, "front");
    let client = boot(&fabric, "client");
    let virtual_db = virtual_provider(&front, 9, vec![]);
    assert!(!front.registrations().is_empty());

    // No replica to write to is an error reply, not a panic in the handler.
    let db = DatabaseHandle::new(&client, front.address(), 9);
    let error = db.put(b"k", b"v").unwrap_err().to_string();
    assert!(error.contains("no replicas"), "{error}");

    // A virtual database is served by an ordinary provider; stopping it
    // removes what it registered and reports success (Bedrock's `stop`
    // relies on it).
    virtual_db.deregister().expect("deregister what was registered");
    assert_eq!(front.registrations(), vec![], "a registration outlived deregister");

    front.finalize();
    client.finalize();
}

#[test]
fn virtual_database_multi_and_erase_paths() {
    let fabric = Fabric::new();
    let rep1 = boot(&fabric, "rep1");
    let rep2 = boot(&fabric, "rep2");
    let front = boot(&fabric, "front");
    let client = boot(&fabric, "client");
    let p1 = memory_provider(&rep1, 1);
    let p2 = memory_provider(&rep2, 1);
    let _virtual_db = virtual_provider(&front, 9, vec![(rep1.address(), 1), (rep2.address(), 1)]);
    let db = DatabaseHandle::new(&client, front.address(), 9);
    db.put_multi(&[(b"a".as_slice(), b"1".as_slice()), (b"b", b"2")]).unwrap();
    let got = db.get_multi(&[b"a", b"b", b"c"]).unwrap();
    assert_eq!(got[0].as_deref(), Some(b"1".as_slice()));
    assert_eq!(got[2], None);
    assert!(db.erase(b"a").unwrap());
    assert_eq!(db.len().unwrap(), 1);
    assert_eq!(db.list_keys(b"", None, 10).unwrap(), vec![b"b".to_vec()]);
    db.put(b"c", b"3").unwrap();
    assert_eq!(db.erase_multi(&[b"b", b"c", b"absent"]).unwrap(), 2);
    for replica in [&p1, &p2] {
        assert!(replica.database().is_empty().unwrap());
    }
    // Each replica got one `ERASE` (for "a") and one `ERASE_MULTI`. A reply
    // can beat the replica's own count of its handler, so wait for it.
    for replica in [&rep1, &rep2] {
        let count =
            || (handled(replica, rpc::ERASE_MULTI.name()), handled(replica, rpc::ERASE.name()));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while count() != (1, 1) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(count(), (1, 1), "(ERASE_MULTI, ERASE) requests at {}", replica.address());
    }
    rep1.finalize();
    rep2.finalize();
    front.finalize();
    client.finalize();
}

/// A virtual database stores no versioned records: a put-if-newer sent
/// to one is refused with its backend's error, and reaches no replica.
#[test]
fn a_versioned_put_to_a_virtual_database_is_refused() {
    let fabric = Fabric::new();
    let rep1 = boot(&fabric, "rep1");
    let rep2 = boot(&fabric, "rep2");
    let front = boot(&fabric, "front");
    let client = boot(&fabric, "client");
    let p1 = memory_provider(&rep1, 1);
    let p2 = memory_provider(&rep2, 1);
    let _virtual_db = virtual_provider(&front, 9, vec![(rep1.address(), 1), (rep2.address(), 1)]);
    let db = DatabaseHandle::new(&client, front.address(), 9);
    let batch = VersionedBatch::encode([(&b"k"[..], 1, Some(&b"v"[..]))].into_iter()).unwrap();
    let refusal = db.put_versioned(&batch).unwrap_err().to_string();
    assert!(refusal.contains("stores no versioned records"), "{refusal}");
    for replica in [&p1, &p2] {
        assert_eq!(replica.database().get(b"k").unwrap(), None);
    }
    rep1.finalize();
    rep2.finalize();
    front.finalize();
    client.finalize();
}

/// A `PUT_MULTI` whose header disagrees with its body is refused with the
/// same error by a real provider and by a virtual database: neither
/// slices past the body (a panic in the handler, a timeout at the caller)
/// nor stores the pairs a keys/lengths mismatch leaves over.
#[test]
fn malformed_put_multi_gets_the_same_error_from_both_providers() {
    let fabric = Fabric::new();
    let rep = boot(&fabric, "rep");
    let front = boot(&fabric, "front");
    let client = boot(&fabric, "client");
    let real = memory_provider(&rep, 1);
    let _virtual_db = virtual_provider(&front, 9, vec![(rep.address(), 1)]);
    let key = |k: &[u8]| k.to_vec();
    let short_body = PutMultiHeader { keys: vec![key(b"k")], value_lens: vec![100] };
    let lone_key = PutMultiHeader { keys: vec![key(b"a"), key(b"b")], value_lens: vec![5] };
    for (header, expected) in
        [(short_body, "body length mismatch"), (lone_key, "keys/value_lens length mismatch")]
    {
        let payload = encode_framed(&header, b"12345").unwrap();
        let refusal = |to: &MargoRuntime, id: u16| {
            let wait = Duration::from_secs(1);
            client
                .forward_raw(&to.address(), rpc::PUT_MULTI, id, payload.clone(), wait)
                .unwrap_err()
                .to_string()
        };
        let from_real = refusal(&rep, 1);
        assert!(from_real.contains(expected), "{from_real}");
        assert_eq!(refusal(&front, 9), from_real);
    }
    assert_eq!(real.database().len().unwrap(), 0, "a refused batch stores nothing");

    rep.finalize();
    front.finalize();
    client.finalize();
}

/// A put-if-newer batch holding a value that is not a versioned record is
/// refused as a whole: the valid record ahead of it is not stored either.
/// And what a provider is sent does not depend on who encoded it: the
/// owned header structs (the ladder, older clients) and the client's
/// borrowed views put the same bytes on the wire.
#[test]
fn a_non_record_value_refuses_the_whole_versioned_batch() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let provider = memory_provider(&server, 1);
    let db = DatabaseHandle::new(&client, server.address(), 1);

    let record = encode_record(7, Some(b"value"));
    let body = [&record[..], b"raw"].concat();
    let header = PutMultiHeader {
        keys: vec![b"good".to_vec(), b"bad".to_vec()],
        value_lens: vec![record.len() as u32, 3],
    };
    let wait = Duration::from_secs(1);
    let refusal = client
        .forward_raw(
            &server.address(),
            rpc::PUT_VERSIONED_MULTI,
            1,
            encode_framed(&header, &body).unwrap(),
            wait,
        )
        .unwrap_err()
        .to_string();
    assert!(refusal.contains("not a versioned record"), "{refusal}");
    assert_eq!(provider.database().len().unwrap(), 0, "the valid record was stored");

    // The same batch without the raw value, encoded by the client's views
    // and by the owned header: one frame, and it is stored.
    let owned = PutMultiHeader { keys: vec![b"good".to_vec()], value_lens: vec![record.len() as u32] };
    let viewed = PutMultiHeaderView {
        keys: key_seq([&b"good"[..]].into_iter()),
        value_lens: Seq([record.len() as u32].into_iter()),
    };
    let frame = encode_framed(&owned, &record).unwrap();
    assert_eq!(frame, encode_framed(&viewed, &record).unwrap());
    client.forward_raw(&server.address(), rpc::PUT_VERSIONED_MULTI, 1, frame, wait).unwrap();
    assert_eq!(db.get(b"good").unwrap(), Some(record));

    server.finalize();
    client.finalize();
}

fn yokan_catalog() -> ModuleCatalog {
    let mut catalog = ModuleCatalog::new();
    catalog.install(mochi_yokan::bedrock::LIBRARY, mochi_yokan::bedrock::bedrock_module());
    catalog.install(
        mochi_yokan::bedrock::VIRTUAL_LIBRARY,
        mochi_yokan::bedrock::virtual_bedrock_module(),
    );
    catalog
}

fn yokan_process_config(backend: &str) -> ProcessConfig {
    ProcessConfig::from_json(&format!(
        r#"{{ "libraries": {{ "yokan": "libyokan.so" }},
             "providers": [ {{ "name": "db", "type": "yokan", "provider_id": 1,
                               "config": {{ "backend": "{backend}" }} }} ] }}"#
    ))
    .unwrap()
}

#[test]
fn bedrock_managed_yokan_lifecycle() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-bedrock").unwrap();
    let server = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &yokan_process_config("lsm"),
        yokan_catalog(),
        dir.path().join("n1"),
    )
    .unwrap();
    let client_margo = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client_margo, server.address(), 1);
    db.put(b"managed", b"yes").unwrap();
    assert_eq!(db.get(b"managed").unwrap().as_deref(), Some(b"yes".as_slice()));

    // get_config exposes component state.
    let handle = Client::new(&client_margo).make_service_handle(server.address(), 0);
    let config = handle.get_config().unwrap();
    assert_eq!(config["providers"][0]["state"]["backend"], "lsm");

    handle.stop_provider("db").unwrap();
    assert!(db.get(b"managed").is_err());
    server.shutdown();
    client_margo.finalize();
}

#[test]
fn lsm_statistics_are_part_of_the_bedrock_config() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-lsm-stats").unwrap();
    let config = ProcessConfig::from_json(
        r#"{ "libraries": { "yokan": "libyokan.so" },
             "providers": [ { "name": "db", "type": "yokan", "provider_id": 1,
                              "config": { "backend": "lsm", "memtable_bytes": 4096,
                                          "lsm_stripes": 2, "max_tables": 2 } } ] }"#,
    )
    .unwrap();
    let n1 = dir.path().join("n1");
    let server =
        BedrockServer::bootstrap(&fabric, Address::tcp("n1", 1), &config, yokan_catalog(), n1)
            .unwrap();
    let client_margo = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client_margo, server.address(), 1);
    let handle = Client::new(&client_margo).make_service_handle(server.address(), 0);
    let lsm = || handle.query("$p = $__config__.providers[0]; return $p.state.lsm;").unwrap();
    let put_round = |round: u8, keys: u32| {
        for i in 0..keys {
            db.put(format!("event-{i:05}").as_bytes(), &[round; 200]).unwrap();
        }
    };

    put_round(0, 200);
    let ingested = lsm();
    for field in ["tables", "logs", "value_bytes_live", "value_bytes_total", "bytes_merged"] {
        assert!(ingested[field].as_u64().unwrap() > 0, "{field}: {ingested}");
    }
    assert_eq!(ingested["bytes_relocated"], 0, "new keys are never copied: {ingested}");
    assert_eq!(ingested["value_bytes_live"], ingested["value_bytes_total"], "{ingested}");
    let per_key = ingested["index_bytes_per_key"].as_f64().unwrap();
    assert!(per_key > 16.0 && per_key <= 24.0, "{ingested}");

    // A quarter of the keys is never written again: the logs that hold
    // them die around them, and merges copy them out.
    for round in 1..6 {
        put_round(round, 150);
    }
    db.flush().unwrap();
    let churned = lsm();
    assert!(churned["bytes_relocated"].as_u64().unwrap() > 0, "{churned}");
    let (live, total) = (&churned["value_bytes_live"], &churned["value_bytes_total"]);
    assert!(live.as_u64() < total.as_u64(), "{churned}");
    assert_eq!(db.get(b"event-00042").unwrap(), Some(vec![5; 200]));
    assert_eq!(db.get(b"event-00199").unwrap(), Some(vec![0; 200]));

    // The map backend has no such statistics.
    let config = handle.get_config().unwrap();
    assert!(config["providers"][0]["state"]["lsm"].is_object());
    server.shutdown();
    let server = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n2", 1),
        &yokan_process_config("map"),
        yokan_catalog(),
        dir.path().join("n2"),
    )
    .unwrap();
    let handle = Client::new(&client_margo).make_service_handle(server.address(), 0);
    assert!(handle.get_config().unwrap()["providers"][0]["state"].get("lsm").is_none());
    server.shutdown();
    client_margo.finalize();
}

/// Bedrock's `yokan-virtual` module serves a virtual database from its
/// `VirtualConfig`, and stopping the provider leaves no registration of
/// it behind.
#[test]
fn bedrock_starts_and_stops_a_virtual_database() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-bedrock-virtual").unwrap();
    let rep1 = boot(&fabric, "rep1");
    let rep2 = boot(&fabric, "rep2");
    let p1 = memory_provider(&rep1, 1);
    let p2 = memory_provider(&rep2, 1);
    let mut process = ProcessConfig::default();
    process.libraries.insert("yokan-virtual".into(), mochi_yokan::bedrock::VIRTUAL_LIBRARY.into());
    let server = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("front", 1),
        &process,
        yokan_catalog(),
        dir.path().join("front"),
    )
    .unwrap();
    let replica = |margo: &MargoRuntime| ReplicaSpec {
        address: margo.address().to_string(),
        provider_id: 1,
    };
    let config = VirtualConfig { replicas: vec![replica(&rep1), replica(&rep2)] };
    let spec = ProviderSpec::new("vdb", "yokan-virtual", 9)
        .with_config(serde_json::to_value(&config).unwrap());
    server.start_provider(&spec).unwrap();

    let client = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client, server.address(), 9);
    db.put(b"through", b"bedrock").unwrap();
    for provider in [&p1, &p2] {
        assert_eq!(provider.database().get(b"through").unwrap(), Some(b"bedrock".to_vec()));
    }

    server.stop_provider("vdb").unwrap();
    let left: Vec<_> =
        server.margo().registrations().into_iter().filter(|(_, id, _)| *id == 9).collect();
    assert_eq!(left, vec![], "a registration outlived stop_provider");

    server.shutdown();
    rep1.finalize();
    rep2.finalize();
    client.finalize();
}

#[test]
fn bedrock_migration_carries_lsm_data() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-migrate").unwrap();
    let n1 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &yokan_process_config("lsm"),
        yokan_catalog(),
        dir.path().join("n1"),
    )
    .unwrap();
    let mut empty = ProcessConfig::default();
    empty.libraries.insert("yokan".into(), "libyokan.so".into());
    let n2 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n2", 1),
        &empty,
        yokan_catalog(),
        dir.path().join("n2"),
    )
    .unwrap();

    let client_margo = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client_margo, n1.address(), 1);
    for i in 0..200u32 {
        db.put(format!("key-{i:04}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }

    let handle = Client::new(&client_margo).make_service_handle(n1.address(), 0);
    let reply = handle
        .migrate_provider("db", &n2.address(), mochi_remi::Strategy::chunked_default())
        .unwrap();
    assert!(reply.bytes > 0);

    // Same data now served from n2.
    let db2 = DatabaseHandle::new(&client_margo, n2.address(), 1);
    assert_eq!(db2.len().unwrap(), 200);
    assert_eq!(db2.get(b"key-0042").unwrap().as_deref(), Some(b"value-42".as_slice()));
    assert!(db.get(b"key-0042").is_err(), "old location must be gone");
    n1.shutdown();
    n2.shutdown();
    client_margo.finalize();
}

#[test]
fn bedrock_migration_of_map_backend_uses_dump() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-migrate-map").unwrap();
    let n1 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &yokan_process_config("map"),
        yokan_catalog(),
        dir.path().join("n1"),
    )
    .unwrap();
    let mut empty = ProcessConfig::default();
    empty.libraries.insert("yokan".into(), "libyokan.so".into());
    let n2 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n2", 1),
        &empty,
        yokan_catalog(),
        dir.path().join("n2"),
    )
    .unwrap();
    let client_margo = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client_margo, n1.address(), 1);
    db.put(b"in-memory", b"moves-too").unwrap();
    let handle = Client::new(&client_margo).make_service_handle(n1.address(), 0);
    handle.migrate_provider("db", &n2.address(), mochi_remi::Strategy::Rdma).unwrap();
    // NOTE: the map backend migrates its *files* (the dump); the fresh
    // provider starts from an empty map plus the dump file on disk — the
    // restore path is what re-imports it at the service layer. Here we
    // verify the dump arrived intact on n2's disk.
    let dump_path = dir.path().join("n2/providers/db/db/dump.ykn");
    assert!(dump_path.is_file(), "dump file migrated");
    let pairs = mochi_yokan::backend::read_dump(&dump_path).unwrap();
    assert_eq!(pairs, vec![(b"in-memory".to_vec(), b"moves-too".to_vec())]);
    n1.shutdown();
    n2.shutdown();
    client_margo.finalize();
}

#[test]
fn checkpoint_restore_roundtrip_through_bedrock() {
    let fabric = Fabric::new();
    let dir = TempDir::new("yokan-ckpt").unwrap();
    let server = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &yokan_process_config("map"),
        yokan_catalog(),
        dir.path().join("n1"),
    )
    .unwrap();
    let client_margo = boot(&fabric, "client");
    let db = DatabaseHandle::new(&client_margo, server.address(), 1);
    db.put(b"saved", b"state").unwrap();

    let pfs = dir.path().join("pfs/ckpt");
    let handle = Client::new(&client_margo).make_service_handle(server.address(), 0);
    handle.checkpoint_provider("db", pfs.to_str().unwrap()).unwrap();

    // Lose the data, then restore.
    db.clear().unwrap();
    assert!(db.is_empty().unwrap());
    handle.restore_provider("db", pfs.to_str().unwrap()).unwrap();
    assert_eq!(db.get(b"saved").unwrap().as_deref(), Some(b"state".as_slice()));
    server.shutdown();
    client_margo.finalize();
}
