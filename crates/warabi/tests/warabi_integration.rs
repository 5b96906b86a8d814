//! Integration tests for Warabi over the fabric, including the bulk
//! (RDMA-model) transfer paths and the Bedrock module.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mochi_bedrock::{BedrockServer, Client, ModuleCatalog, ProcessConfig};
use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric, LinkScript};
use mochi_util::time::wait_until;
use mochi_util::{SeededRng, TempDir};
use mochi_warabi::target::MemoryTarget;
use mochi_warabi::{rpc_names as rpc, TargetHandle, WarabiProvider};

fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
    MargoRuntime::init_default(fabric, Address::tcp(host, 1)).unwrap()
}

fn setup(fabric: &Fabric) -> (MargoRuntime, MargoRuntime, Arc<WarabiProvider>, TargetHandle) {
    let server = boot(fabric, "server");
    let client = boot(fabric, "client");
    let provider = WarabiProvider::register(&server, 1, None, Arc::new(MemoryTarget::new())).unwrap();
    let handle = TargetHandle::new(&client, server.address(), 1);
    (server, client, provider, handle)
}

#[test]
fn create_write_read_inline() {
    let fabric = Fabric::new();
    let (server, client, _provider, handle) = setup(&fabric);
    let id = handle.create(1000).unwrap();
    handle.write(id, 100, b"inline-data").unwrap();
    assert_eq!(handle.read(id, 100, 11).unwrap(), b"inline-data");
    assert_eq!(handle.size(id).unwrap(), 1000);
    assert_eq!(handle.list().unwrap(), vec![id]);
    handle.persist(id).unwrap();
    assert!(handle.erase(id).unwrap());
    assert!(handle.list().unwrap().is_empty());
    server.finalize();
    client.finalize();
}

#[test]
fn large_transfers_use_bulk_path_and_round_trip() {
    let fabric = Fabric::new();
    let (server, client, _provider, handle) = setup(&fabric);
    let mut rng = SeededRng::new(7);
    let mut data = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut data);
    let id = handle.create(data.len() as u64).unwrap();
    handle.write(id, 0, &data).unwrap(); // > threshold → bulk
    let back = handle.read(id, 0, data.len() as u64).unwrap();
    assert_eq!(back, data);
    // Server-side monitoring saw bulk transfers.
    let stats = server.monitoring_json().unwrap();
    let pulls = stats["bulk"]["pull"]["size"]["num"].as_u64().unwrap();
    let pushes = stats["bulk"]["push"]["size"]["num"].as_u64().unwrap();
    assert!(pulls >= 1, "expected bulk pull, stats: {stats}");
    assert!(pushes >= 1, "expected bulk push");
    server.finalize();
    client.finalize();
}

#[test]
fn explicit_bulk_and_inline_agree() {
    let fabric = Fabric::new();
    let (server, client, _provider, handle) = setup(&fabric);
    let id = handle.create(5000).unwrap();
    handle.write_bulk(id, 0, &vec![7u8; 5000]).unwrap();
    assert_eq!(handle.read(id, 4990, 10).unwrap(), vec![7u8; 10]);
    assert_eq!(handle.read_bulk(id, 0, 5000).unwrap(), vec![7u8; 5000]);
    server.finalize();
    client.finalize();
}

#[test]
fn a_bulk_write_whose_pull_is_dropped_is_sent_again() {
    let fabric = Fabric::new();
    let (server, client, provider, handle) = setup(&fabric);
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let id = handle.create(data.len() as u64).unwrap();
    // The server's next message to the client is its pull of the region
    // the client exposed: it is dropped, the handler fails with the
    // transport's error, and the idempotent `WRITE_BULK` is sent again.
    fabric.faults().push_script(Some("server"), Some("client"), LinkScript::FailFirst(1));
    handle.write_bulk(id, 0, &data).unwrap();
    assert_eq!(provider.target().read(id, 0, data.len() as u64).unwrap(), data);
    // Handler runs, from the server's monitoring dump.
    let key = format!("65535:65535:{}:1", rpc::WRITE_BULK.id());
    let peer = format!("received from {}", client.address());
    let runs = || {
        server.monitoring_json().unwrap()["rpcs"][&key]["target"][&peer]["ult"]["duration"]["num"]
            .as_u64()
    };
    assert!(wait_until(Duration::from_secs(2), Duration::from_millis(5), || runs() >= Some(2)));
    assert_eq!(runs(), Some(2));
    server.finalize();
    client.finalize();
}

#[test]
fn out_of_bounds_errors_propagate() {
    let fabric = Fabric::new();
    let (server, client, _provider, handle) = setup(&fabric);
    let id = handle.create(10).unwrap();
    let err = handle.write(id, 8, b"toolong").unwrap_err();
    assert!(err.to_string().contains("outside"), "{err}");
    let err = handle.read(id, 0, 11).unwrap_err();
    assert!(err.to_string().contains("outside"), "{err}");
    let err = handle.size(999).unwrap_err();
    assert!(err.to_string().contains("no blob"), "{err}");
    server.finalize();
    client.finalize();
}

#[test]
fn bedrock_managed_warabi_with_file_target_migrates() {
    let fabric = Fabric::new();
    let dir = TempDir::new("warabi-bedrock").unwrap();
    let mut catalog = ModuleCatalog::new();
    catalog.install(mochi_warabi::bedrock::LIBRARY, mochi_warabi::bedrock::bedrock_module());

    let config = ProcessConfig::from_json(
        r#"{ "libraries": { "warabi": "libwarabi.so" },
             "providers": [ { "name": "blobs", "type": "warabi", "provider_id": 1,
                              "config": { "target": "file" } } ] }"#,
    )
    .unwrap();
    let n1 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &config,
        catalog.clone(),
        dir.path().join("n1"),
    )
    .unwrap();
    let mut empty = ProcessConfig::default();
    empty.libraries.insert("warabi".into(), "libwarabi.so".into());
    let n2 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n2", 1),
        &empty,
        catalog,
        dir.path().join("n2"),
    )
    .unwrap();

    let client_margo = boot(&fabric, "client");
    let handle = TargetHandle::new(&client_margo, n1.address(), 1);
    let id = handle.create(256).unwrap();
    handle.write(id, 0, &vec![9u8; 256]).unwrap();

    let bedrock = Client::new(&client_margo).make_service_handle(n1.address(), 0);
    bedrock.migrate_provider("blobs", &n2.address(), mochi_remi::Strategy::Rdma).unwrap();

    let handle2 = TargetHandle::new(&client_margo, n2.address(), 1);
    assert_eq!(handle2.list().unwrap(), vec![id]);
    assert_eq!(handle2.read(id, 0, 256).unwrap(), vec![9u8; 256]);
    n1.shutdown();
    n2.shutdown();
    client_margo.finalize();
}

/// Boots a Bedrock process serving the Warabi provider "blobs" (id 1)
/// over a `target` ("memory" or "file") target, a client, a handle to
/// the blobs and the directory a checkpoint goes to.
fn bedrock_blobs(
    fabric: &Fabric,
    dir: &TempDir,
    target: &str,
) -> (BedrockServer, MargoRuntime, TargetHandle, PathBuf) {
    let mut catalog = ModuleCatalog::new();
    catalog.install(mochi_warabi::bedrock::LIBRARY, mochi_warabi::bedrock::bedrock_module());
    let config = ProcessConfig::from_json(&format!(
        r#"{{ "libraries": {{ "warabi": "libwarabi.so" }},
             "providers": [ {{ "name": "blobs", "type": "warabi", "provider_id": 1,
                              "config": {{ "target": "{target}" }} }} ] }}"#
    ))
    .unwrap();
    let host = format!("n1-{target}");
    let server = BedrockServer::bootstrap(
        fabric,
        Address::tcp(&host, 1),
        &config,
        catalog,
        dir.path().join(&host),
    )
    .unwrap();
    let client_margo = boot(fabric, &format!("client-{target}"));
    let handle = TargetHandle::new(&client_margo, server.address(), 1);
    (server, client_margo, handle, dir.path().join(format!("pfs-{target}")))
}

#[test]
fn bedrock_checkpoint_restore_memory_target() {
    let fabric = Fabric::new();
    let dir = TempDir::new("warabi-ckpt").unwrap();
    let (server, client_margo, handle, pfs) = bedrock_blobs(&fabric, &dir, "memory");
    let id = handle.create(32).unwrap();
    handle.write(id, 0, b"snapshot-me-please-0123456789abc").unwrap();

    let bedrock = Client::new(&client_margo).make_service_handle(server.address(), 0);
    bedrock.checkpoint_provider("blobs", pfs.to_str().unwrap()).unwrap();
    handle.erase(id).unwrap();
    bedrock.restore_provider("blobs", pfs.to_str().unwrap()).unwrap();
    let ids = handle.list().unwrap();
    assert_eq!(ids.len(), 1);
    assert_eq!(handle.read(ids[0], 0, 32).unwrap(), b"snapshot-me-please-0123456789abc");
    server.shutdown();
    client_margo.finalize();
}

#[test]
fn a_restored_blob_keeps_its_id() {
    let fabric = Fabric::new();
    let dir = TempDir::new("warabi-ckpt-id").unwrap();
    for target in ["memory", "file"] {
        let (server, client_margo, handle, pfs) = bedrock_blobs(&fabric, &dir, target);
        let id = handle.create(8).unwrap();
        handle.write(id, 0, b"kept-id!").unwrap();
        let bedrock = Client::new(&client_margo).make_service_handle(server.address(), 0);
        bedrock.checkpoint_provider("blobs", pfs.to_str().unwrap()).unwrap();
        handle.write(id, 0, b"changed!").unwrap();
        bedrock.restore_provider("blobs", pfs.to_str().unwrap()).unwrap();
        // The id the client held before the checkpoint reads the
        // checkpointed bytes.
        assert_eq!(handle.read(id, 0, 8).unwrap(), b"kept-id!", "{target} target");
        assert_eq!(handle.list().unwrap(), vec![id], "{target} target");
        server.shutdown();
        client_margo.finalize();
    }
}

#[test]
fn a_blob_erased_between_checkpoints_stays_erased() {
    let fabric = Fabric::new();
    let dir = TempDir::new("warabi-ckpt-erase").unwrap();
    for target in ["memory", "file"] {
        let (server, client_margo, handle, pfs) = bedrock_blobs(&fabric, &dir, target);
        let kept = handle.create(4).unwrap();
        handle.write(kept, 0, b"kept").unwrap();
        let gone = handle.create(4).unwrap();
        handle.write(gone, 0, b"gone").unwrap();
        let bedrock = Client::new(&client_margo).make_service_handle(server.address(), 0);
        bedrock.checkpoint_provider("blobs", pfs.to_str().unwrap()).unwrap();
        assert!(handle.erase(gone).unwrap());
        bedrock.checkpoint_provider("blobs", pfs.to_str().unwrap()).unwrap();
        bedrock.restore_provider("blobs", pfs.to_str().unwrap()).unwrap();
        assert_eq!(handle.list().unwrap().len(), 1, "{target} target: the erased blob came back");
        assert_eq!(handle.read(kept, 0, 4).unwrap(), b"kept", "{target} target");
        server.shutdown();
        client_margo.finalize();
    }
}
