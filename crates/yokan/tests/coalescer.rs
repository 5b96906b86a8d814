//! Client-side write coalescing (`CoalescingHandle`), over the fabric
//! against a real provider. The contract under test is the one in the
//! handle's doc comment: within-key ordering is strict, every non-put
//! operation is a read-your-writes barrier, batches ship on count, age
//! (background ticker) and Drop, and only idempotent RPCs ever ride the
//! runtime's transport retries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric, LinkScript};
use mochi_util::TempDir;
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase};
use mochi_yokan::backend::Database;
use mochi_yokan::provider::rpc;
use mochi_yokan::{CoalescerConfig, DatabaseHandle, YokanProvider};

fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
    MargoRuntime::init_default(fabric, Address::tcp(host, 1)).unwrap()
}

/// Provider over the striped LSM — the coalescer's put_multi batches run
/// the same grouped-by-stripe path the tentpole optimizes.
fn lsm_provider(margo: &MargoRuntime, dir: &TempDir) -> Arc<YokanProvider> {
    let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
    YokanProvider::register(margo, 1, None, Arc::new(db)).unwrap()
}

/// Config that never ships on its own: every flush in the test is
/// attributable to the mechanism being exercised.
fn manual_config() -> CoalescerConfig {
    CoalescerConfig {
        max_pending: usize::MAX,
        max_bytes: usize::MAX,
        max_delay: Duration::from_secs(3600),
    }
}

#[test]
fn puts_buffer_locally_until_a_barrier() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-barrier").unwrap();
    let provider = lsm_provider(&server, &dir);
    let db = DatabaseHandle::new(&client, server.address(), 1).coalescing(manual_config());

    for i in 0..10u32 {
        db.put(format!("buf-{i}").as_bytes(), b"v").unwrap();
    }
    // Nothing shipped yet: the server has seen no write.
    assert_eq!(provider.database().len().unwrap(), 0);
    // Any read is a barrier: it observes every buffered put.
    assert_eq!(db.get(b"buf-7").unwrap().as_deref(), Some(b"v".as_slice()));
    assert_eq!(provider.database().len().unwrap(), 10);
    assert_eq!(db.len().unwrap(), 10);
    drop(db);
    server.finalize();
    client.finalize();
}

#[test]
fn within_key_ordering_is_strict() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-order").unwrap();
    let provider = lsm_provider(&server, &dir);
    let db = DatabaseHandle::new(&client, server.address(), 1).coalescing(manual_config());

    // Rewrites inside one batch collapse to the last value before the
    // batch ever leaves the client.
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    db.put(b"other", b"x").unwrap();
    db.put(b"k", b"v3").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"v3".as_slice()));
    assert_eq!(provider.database().get(b"k").unwrap().as_deref(), Some(b"v3".as_slice()));

    // Across a barrier, later puts stay later: erase between two puts of
    // the same key must not see the second one.
    db.put(b"seq", b"first").unwrap();
    assert!(db.erase(b"seq").unwrap());
    db.put(b"seq", b"second").unwrap();
    assert_eq!(db.get(b"seq").unwrap().as_deref(), Some(b"second".as_slice()));
    drop(db);
    server.finalize();
    client.finalize();
}

#[test]
fn batch_ships_when_the_count_threshold_trips() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-count").unwrap();
    let provider = lsm_provider(&server, &dir);
    let config = CoalescerConfig { max_pending: 4, ..manual_config() };
    let db = DatabaseHandle::new(&client, server.address(), 1).coalescing(config);

    for i in 0..3u32 {
        db.put(format!("n-{i}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(provider.database().len().unwrap(), 0, "below threshold: still buffered");
    db.put(b"n-3", b"v").unwrap();
    assert_eq!(provider.database().len().unwrap(), 4, "4th distinct key ships the batch");
    drop(db);
    server.finalize();
    client.finalize();
}

#[test]
fn ticker_ships_an_aged_batch_without_any_caller() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-age").unwrap();
    let provider = lsm_provider(&server, &dir);
    let config = CoalescerConfig { max_delay: Duration::from_millis(20), ..manual_config() };
    let db = DatabaseHandle::new(&client, server.address(), 1).coalescing(config);

    db.put(b"aged", b"out").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while provider.database().len().unwrap() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        provider.database().get(b"aged").unwrap().as_deref(),
        Some(b"out".as_slice()),
        "ticker never shipped the aged batch"
    );
    drop(db);
    server.finalize();
    client.finalize();
}

#[test]
fn drop_flushes_the_remaining_batch() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-drop").unwrap();
    let provider = lsm_provider(&server, &dir);
    {
        let db = DatabaseHandle::new(&client, server.address(), 1).coalescing(manual_config());
        for i in 0..25u32 {
            db.put(format!("drop-{i:02}").as_bytes(), b"survives").unwrap();
        }
        assert_eq!(provider.database().len().unwrap(), 0);
        // Handle goes out of scope with the batch still pending.
    }
    assert_eq!(provider.database().len().unwrap(), 25);
    assert_eq!(
        provider.database().get(b"drop-13").unwrap().as_deref(),
        Some(b"survives".as_slice())
    );
    server.finalize();
    client.finalize();
}

#[test]
fn shipped_batches_survive_transport_retries_exactly_once() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-retry").unwrap();
    let provider = lsm_provider(&server, &dir);
    let db = DatabaseHandle::new(&client, server.address(), 1)
        .with_timeout(Duration::from_millis(200))
        .coalescing(manual_config());

    // The coalescer's only mutation RPC must be retry-safe; the erase it
    // delegates must not be.
    assert!(client.is_idempotent(rpc::PUT_MULTI), "coalesced batches must ride retries");
    assert!(!client.is_idempotent(rpc::ERASE), "erase must stay exactly-once");

    db.put(b"retried", b"once").unwrap();
    // First send on the client→server link vanishes; the runtime
    // re-sends the idempotent put_multi and the batch lands once.
    fabric.faults().push_script(Some("client"), Some("server"), LinkScript::FailFirst(1));
    db.sync().unwrap();
    assert_eq!(provider.database().len().unwrap(), 1);
    assert_eq!(
        provider.database().get(b"retried").unwrap().as_deref(),
        Some(b"once".as_slice())
    );

    // Same fault against erase: no retry happens, the caller gets the
    // failure, and the key is untouched — at-most-once, surfaced.
    // Scripts on one link share its message counter, so the first script
    // goes before the second can see ordinal 1.
    fabric.faults().clear_scripts(Some("client"), Some("server"));
    fabric.faults().push_script(Some("client"), Some("server"), LinkScript::FailFirst(1));
    assert!(db.erase(b"retried").is_err(), "dropped erase must surface, not silently retry");
    assert_eq!(
        provider.database().get(b"retried").unwrap().as_deref(),
        Some(b"once".as_slice()),
        "erase executed despite the dropped request"
    );
    drop(db);
    server.finalize();
    client.finalize();
}

#[test]
fn concurrent_putters_share_one_handle_without_loss() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    let dir = TempDir::new("coalesce-mt").unwrap();
    let provider = lsm_provider(&server, &dir);
    let config = CoalescerConfig { max_pending: 16, ..manual_config() };
    let db =
        Arc::new(DatabaseHandle::new(&client, server.address(), 1).coalescing(config));

    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                for i in 0..100u32 {
                    db.put(format!("mt-{t}-{i:03}").as_bytes(), b"v").unwrap();
                }
            });
        }
    });
    db.sync().unwrap();
    assert_eq!(provider.database().len().unwrap(), 400);
    drop(db);
    server.finalize();
    client.finalize();
}
