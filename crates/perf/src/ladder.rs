//! The layer ladder: each rung alone, single-threaded, in ns per call, with
//! the workload's key/value shape and backend, so adjacent rungs subtract to
//! a layer's cost. This is the Mercury paper's method (null-RPC latency
//! measured apart from payload cost) carried up the stack.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mochi_argobots::{AbtRuntime, PoolConfig, Ult, XstreamConfig};
use mochi_core::ring::DEFAULT_VNODES;
use mochi_core::{FailoverKv, HashRing};
use mochi_margo::{decode_framed, encode_framed, CallContext, MargoConfig, MargoRuntime};
use mochi_mercury::{Address, Fabric, Incoming, NetworkModel, ResponseStatus};
use mochi_util::TempDir;
use mochi_yokan::backend::{create_backend, BackendConfig, Database};
use mochi_yokan::client::DatabaseHandle;
use mochi_yokan::provider::{KeyHeader, PutMultiHeader, YokanProvider};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::deploy::{provider_name, Deployment};
use crate::keys;
use crate::spec::{Shape, Workload, BATCH_KEYS, NODES};
use crate::stats;

/// Calls per rung: at least 20 000, or 2 000 for multi-ops, in 200 timed
/// groups whose median is reported.
const GROUPS: usize = 200;

/// Single-key puts of the fixed ingest; a constant so that its counts
/// (`sst_files`, bytes on disk) repeat exactly.
const INGEST_PUTS: u64 = 100_000;

/// Multi-op calls of the fixed ingest ([`BATCH_KEYS`] keys each).
const INGEST_CALLS: u64 = 2_000;

fn calls_per_group(workload: &Workload) -> usize {
    match workload.shape {
        Shape::Batch => 10,
        Shape::Point { .. } | Shape::Ingest { .. } => 100,
    }
}

/// Median over [`GROUPS`] groups of a group's mean ns per call; one
/// untimed group first. `call` gets the running call number.
fn median_ns(
    per_group: usize,
    mut call: impl FnMut(u64) -> Result<(), String>,
) -> Result<f64, String> {
    let mut number = 0;
    let mut samples = Vec::with_capacity(GROUPS);
    for group in 0..=GROUPS {
        let started = Instant::now();
        for _ in 0..per_group {
            call(number)?;
            number += 1;
        }
        if group > 0 {
            samples.push(started.elapsed().as_nanos() as f64 / per_group as f64);
        }
    }
    Ok(stats::median(&samples))
}

/// Key index of call `number`'s `slot`-th key: scattered, never repeating
/// within a rung's fresh key range.
fn rung_key(prefix: &str, number: u64, slot: usize) -> Vec<u8> {
    format!("{prefix}-{:014}", number * BATCH_KEYS as u64 + slot as u64).into_bytes()
}

/// The `(key, value)` pairs call `number` of a put rung writes.
fn rung_pairs(workload: &Workload, prefix: &str, number: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..workload.keys_per_call())
        .map(|slot| {
            let key = rung_key(prefix, number, slot);
            let value = keys::value(&key, 0, workload.value_len);
            (key, value)
        })
        .collect()
}

fn as_refs(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
    pairs
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect()
}

/// Times `encode_framed` and `decode_framed` of one request; returns the
/// frame with the two figures.
fn wire_rung<H: Serialize + DeserializeOwned>(
    header: &H,
    body: &[u8],
    per_group: usize,
) -> Result<(Bytes, f64, f64), String> {
    let frame = encode_framed(header, body).map_err(|e| e.to_string())?;
    let encode = median_ns(per_group, |_| {
        black_box(encode_framed(black_box(header), black_box(body)).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let decode = median_ns(per_group, |_| {
        black_box(decode_framed::<H>(black_box(&frame)).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    Ok((frame, encode, decode))
}

/// `wire.encode_ns`, `wire.decode_ns`: the header and body the yokan client
/// sends for this workload's put, through `margo::frame` (and `mochi-wire`
/// under it). Also returns that frame, the payload of the fabric rung.
fn wire(workload: &Workload) -> Result<(Bytes, f64, f64), String> {
    let pairs = rung_pairs(workload, "w", 0);
    let per_group = calls_per_group(workload) * 10;
    match workload.shape {
        Shape::Batch => {
            let header = PutMultiHeader {
                keys: pairs.iter().map(|(k, _)| k.clone()).collect(),
                value_lens: pairs.iter().map(|(_, v)| v.len() as u32).collect(),
            };
            let body: Vec<u8> = pairs.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            wire_rung(&header, &body, per_group)
        }
        Shape::Point { .. } | Shape::Ingest { .. } => {
            let (key, value) = &pairs[0];
            wire_rung(&KeyHeader { key: key.clone() }, value, per_group)
        }
    }
}

/// `mercury.rtt_ns`: request and response between two raw endpoints on a
/// free link, every step driven from this thread.
fn mercury(workload: &Workload, frame: &Bytes) -> Result<f64, String> {
    let fabric = Fabric::with_model(NetworkModel::instant());
    let client = fabric.register(Address::tcp("rtt-client", 1));
    let server = fabric.register(Address::tcp("rtt-server", 1));
    let result = median_ns(calls_per_group(workload), |_| {
        let pending = client
            .send_request(
                server.address(),
                1,
                0,
                CallContext::TOP_LEVEL,
                frame.clone(),
            )
            .map_err(|e| e.to_string())?;
        match server.progress(Duration::ZERO).map_err(|e| e.to_string())? {
            Some(Incoming::Request(request)) => server
                .respond(&request, ResponseStatus::Ok, Bytes::new())
                .map_err(|e| e.to_string())?,
            _ => return Err("the request did not reach the peer".into()),
        }
        client.progress(Duration::ZERO).map_err(|e| e.to_string())?;
        black_box(
            pending
                .wait(Duration::from_secs(1))
                .map_err(|e| e.to_string())?,
        );
        Ok(())
    });
    fabric.shutdown();
    result
}

/// `argobots.handoff_ns`: submit one ULT to a one-xstream pool and wait for
/// it — two thread wake-ups, the price of every pool dispatch.
fn argobots() -> Result<f64, String> {
    let abt = AbtRuntime::new();
    abt.add_pool(PoolConfig::named("handoff"))
        .map_err(|e| e.to_string())?;
    abt.add_xstream(XstreamConfig::named("handoff-es", "handoff"))
        .map_err(|e| e.to_string())?;
    let result = median_ns(100, |_| {
        let (done, wait) = mpsc::sync_channel(1);
        let ult = Ult::new("handoff", move || {
            let _ = done.send(());
        });
        abt.submit("handoff", ult).map_err(|e| e.to_string())?;
        wait.recv().map_err(|e| e.to_string())
    });
    abt.shutdown();
    result
}

/// A server and a client margo runtime on their own free fabric.
struct RpcPair {
    fabric: Fabric,
    server: MargoRuntime,
    client: MargoRuntime,
}

impl RpcPair {
    fn start() -> Result<Self, String> {
        let fabric = Fabric::with_model(NetworkModel::instant());
        let config = MargoConfig::default();
        let server = MargoRuntime::init(&fabric, Address::tcp("rung-server", 1), &config)
            .map_err(|e| e.to_string())?;
        let client = MargoRuntime::init(&fabric, Address::tcp("rung-client", 1), &config)
            .map_err(|e| e.to_string())?;
        Ok(RpcPair {
            fabric,
            server,
            client,
        })
    }

    fn stop(self) {
        self.client.finalize();
        self.server.finalize();
        self.fabric.shutdown();
    }
}

/// `margo.null_rpc_ns`: `forward` of a `u64` echo.
fn margo_null_rpc() -> Result<f64, String> {
    let pair = RpcPair::start()?;
    pair.server
        .register_typed("perf_echo", 0, None, |input: u64, _ctx| {
            Ok::<u64, String>(input)
        })
        .map_err(|e| e.to_string())?;
    let address = pair.server.address();
    let result = median_ns(100, |number| {
        let echoed: u64 = pair
            .client
            .forward(&address, "perf_echo", 0, &number)
            .map_err(|e| e.to_string())?;
        if echoed == number {
            Ok(())
        } else {
            Err(format!("echo returned {echoed} for {number}"))
        }
    });
    pair.stop();
    result
}

/// Put and get rungs over anything with the KV call shapes.
trait Kv {
    fn put_call(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), String>;
    /// Must find every key.
    fn get_call(&self, keys: &[&[u8]]) -> Result<(), String>;
}

fn found_all(values: Vec<Option<Vec<u8>>>) -> Result<(), String> {
    if values.iter().all(Option::is_some) {
        Ok(())
    } else {
        Err("a key written by the put rung was not found".into())
    }
}

macro_rules! impl_kv {
    ($($ty:ty),*) => {$(
        impl Kv for $ty {
            fn put_call(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), String> {
                match pairs {
                    [(key, value)] => self.put(key, value),
                    many => self.put_multi(many),
                }
                .map_err(|e| e.to_string())
            }

            fn get_call(&self, keys: &[&[u8]]) -> Result<(), String> {
                match keys {
                    [key] => found_all(vec![self.get(key).map_err(|e| e.to_string())?]),
                    many => found_all(self.get_multi(many).map_err(|e| e.to_string())?),
                }
            }
        }
    )*};
}

impl_kv!(dyn Database, DatabaseHandle, FailoverKv);

/// Put rung over fresh keys, then get rung over those keys.
fn put_then_get<K: Kv + ?Sized>(
    workload: &Workload,
    kv: &K,
    prefix: &str,
) -> Result<(f64, f64), String> {
    let per_group = calls_per_group(workload);
    let put = median_ns(per_group, |number| {
        let pairs = rung_pairs(workload, prefix, number);
        kv.put_call(&as_refs(&pairs))
    })?;
    let written = ((GROUPS + 1) * per_group) as u64;
    let get = median_ns(per_group, |number| {
        // A fixed odd stride visits the written calls in scattered order.
        let target = number * 7_919 % written;
        let keys: Vec<Vec<u8>> = (0..workload.keys_per_call())
            .map(|slot| rung_key(prefix, target, slot))
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        kv.get_call(&refs)
    })?;
    Ok((put, get))
}

fn open_backend(workload: &Workload, dir: &Path) -> Result<Arc<dyn Database>, String> {
    let config: BackendConfig =
        serde_json::from_value(workload.provider_config()).map_err(|e| e.to_string())?;
    create_backend(&config, dir)
        .map(Arc::from)
        .map_err(|e| e.to_string())
}

fn dir_stats(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut tables) = (0, 0);
    let mut pending = vec![dir.to_path_buf()];
    while let Some(folder) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&folder) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else if let Ok(meta) = entry.metadata() {
                bytes += meta.len();
                if entry.file_name().to_string_lossy().starts_with("sst-") {
                    tables += 1;
                }
            }
        }
    }
    (bytes, tables)
}

/// Figures of the direct-backend rung.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendRung {
    pub put_ns: f64,
    pub get_ns: f64,
    pub put_stall_p999_us: f64,
    pub sst_files: f64,
    pub disk_bytes_per_user_byte: f64,
}

/// `yokan.backend.*` and `yokan.lsm.*`: a fixed single-thread ingest straight
/// into the `Database` trait, every call timed, then `flush()` and reads
/// (which on the LSM backend mostly hit SSTables).
fn backend(workload: &Workload) -> Result<BackendRung, String> {
    let dir = TempDir::new("perf-backend").map_err(|e| e.to_string())?;
    let db = open_backend(workload, dir.path())?;
    let calls = match workload.shape {
        Shape::Batch => INGEST_CALLS,
        Shape::Point { .. } | Shape::Ingest { .. } => INGEST_PUTS,
    };
    let mut user_bytes = 0u64;
    let mut per_call = Vec::with_capacity(calls as usize);
    for number in 0..calls {
        let pairs = rung_pairs(workload, "b", number);
        user_bytes += pairs
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
        let started = Instant::now();
        db.put_call(&as_refs(&pairs))?;
        per_call.push(started.elapsed().as_nanos() as u64);
    }
    db.flush().map_err(|e| e.to_string())?;
    let (disk_bytes, tables) = dir_stats(dir.path());
    let per_group = calls_per_group(workload);
    let get_ns = median_ns(per_group, |number| {
        let target = number * 7_919 % calls;
        let keys: Vec<Vec<u8>> = (0..workload.keys_per_call())
            .map(|slot| rung_key("b", target, slot))
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        db.get_call(&refs)
    })?;
    // The same statistic as the other rungs: median over groups of calls of
    // the group's mean.
    let group_means: Vec<f64> = per_call
        .chunks(per_group)
        .map(|group| group.iter().sum::<u64>() as f64 / group.len() as f64)
        .collect();
    let put_ns = stats::median(&group_means);
    let stall = stats::pick(&mut per_call, 99.9);
    drop(db);
    Ok(BackendRung {
        put_ns,
        get_ns,
        put_stall_p999_us: stall.value as f64 / 1e3,
        sst_files: tables as f64,
        disk_bytes_per_user_byte: disk_bytes as f64 / user_bytes as f64,
    })
}

/// `yokan.rpc.*`: `DatabaseHandle` to a `YokanProvider` over margo.
fn yokan_rpc(workload: &Workload) -> Result<(f64, f64), String> {
    let dir = TempDir::new("perf-rpc").map_err(|e| e.to_string())?;
    let pair = RpcPair::start()?;
    let provider =
        YokanProvider::register(&pair.server, 1, None, open_backend(workload, dir.path())?)
            .map_err(|e| e.to_string())?;
    let handle = DatabaseHandle::new(&pair.client, pair.server.address(), 1);
    let result = put_then_get(workload, &handle, "r");
    provider.deregister().map_err(|e| e.to_string())?;
    drop(provider);
    pair.stop();
    result
}

/// `core.failover.*`: `FailoverKv` to one named provider of a deployed
/// service (its own deployment, so the in-situ trace starts clean).
fn failover(workload: &Workload) -> Result<(f64, f64), String> {
    let (deployment, _) = Deployment::start(workload)?;
    let kv = FailoverKv::new(&deployment.service, &deployment.client, &provider_name(0));
    let result = put_then_get(workload, &kv, "f");
    drop(kv);
    deployment.shutdown();
    result
}

/// `core.ring.lookup_ns`: `HashRing::owner`, or `owners(key, rf)` when
/// replicated, per key.
fn ring(workload: &Workload) -> Result<f64, String> {
    let members: Vec<String> = (0..NODES).map(provider_name).collect();
    let ring = HashRing::with_vnodes(&members, DEFAULT_VNODES);
    let keys: Vec<Vec<u8>> = (0..1_000).map(keys::key).collect();
    let rf = workload.replication_factor;
    median_ns(1_000, |number| {
        let key = &keys[number as usize % keys.len()];
        if rf > 1 {
            black_box(ring.owners(black_box(key), rf));
        } else {
            black_box(ring.owner(black_box(key)));
        }
        Ok(())
    })
}

/// Runs every rung that needs no in-situ trace; `(name, value)` pairs.
pub fn run(workload: &Workload) -> Result<Vec<(&'static str, f64)>, String> {
    let (frame, encode, decode) = wire(workload)?;
    let backend = backend(workload)?;
    let (rpc_put, rpc_get) = yokan_rpc(workload)?;
    let (failover_put, failover_get) = failover(workload)?;
    Ok(vec![
        ("wire.encode_ns", encode),
        ("wire.decode_ns", decode),
        ("mercury.rtt_ns", mercury(workload, &frame)?),
        ("argobots.handoff_ns", argobots()?),
        ("margo.null_rpc_ns", margo_null_rpc()?),
        ("yokan.backend.put_ns", backend.put_ns),
        ("yokan.backend.get_ns", backend.get_ns),
        ("yokan.rpc.put_ns", rpc_put),
        ("yokan.rpc.get_ns", rpc_get),
        ("core.failover.put_ns", failover_put),
        ("core.failover.get_ns", failover_get),
        ("core.ring.lookup_ns", ring(workload)?),
        ("yokan.lsm.put_stall_p999_us", backend.put_stall_p999_us),
        ("yokan.lsm.sst_files", backend.sst_files),
        (
            "yokan.lsm.disk_bytes_per_user_byte",
            backend.disk_bytes_per_user_byte,
        ),
    ])
}
