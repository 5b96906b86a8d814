//! Retry soundness, checked by replaying (DESIGN.md §11.1).
//!
//! Margo re-sends a call after a transport-class failure only if the
//! RPC's declaration is idempotent (`mochi_margo::RetryClass`). This
//! suite holds every such promise of Yokan's, Warabi's and REMI's tables
//! (their `rpc_names` modules) to what the runtime does. For each
//! idempotent RPC and each seed it builds two identical starting states,
//! issues the call once against the first, and once against the second
//! with that server's first reply to the client lost
//! (`LinkScript::FailFirst(1)`), so that margo times the attempt out and
//! re-sends it. The handler must have run once and twice,
//! both callers must get the same reply, and the two states must end
//! equal. `the_replayed_rpcs_are_exactly_the_declared_ones` checks that
//! each service has a replay case for exactly the RPCs its table declares
//! idempotent.
//!
//! A failure names the RPC, the backend and the seed; to replay one seed
//! alone, change `0..SEEDS` in `replay_all` to `[seed]`. Helpers return
//! `Result` and the `#[test]` bodies assert: clippy's panic lints allow
//! test functions, not their helpers.

use std::fmt::{Debug, Display};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mochi_margo::{MargoError, MargoRuntime, RetryClass, Rpc, Untyped};
use mochi_mercury::{Address, BulkAccess, Fabric, LinkScript};
use mochi_remi::protocol::{PullArgs, StartArgs, TransferSummary};
use mochi_remi::rpc_names as remi_rpc;
use mochi_remi::{FileSet, MigrationOptions, RemiClient, RemiProvider, Strategy};
use mochi_util::{SeededRng, TempDir};
use mochi_warabi::provider::BulkArgs;
use mochi_warabi::rpc_names as warabi_rpc;
use mochi_warabi::target::{FileTarget, MemoryTarget};
use mochi_warabi::{BlobTarget, TargetHandle, WarabiProvider};
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase};
use mochi_yokan::backend::memory::MemoryDatabase;
use mochi_yokan::client::VersionedBatch;
use mochi_yokan::rpc_names as yokan_rpc;
use mochi_yokan::version::encode_record;
use mochi_yokan::{Database, DatabaseHandle, VirtualDatabase, YokanProvider};

/// Seeded starting states per RPC and backend.
const SEEDS: u64 = 4;
/// The faulted call's per-attempt timeout: the lost reply costs one.
const FAULTED_TIMEOUT: Duration = Duration::from_millis(300);
/// The clean call's: long enough that it is never re-sent.
const CLEAN_TIMEOUT: Duration = Duration::from_secs(30);
/// Host of the calling process.
const CLIENT: &str = "client";

/// An entry of a service's list of its RPCs.
type Declared = Rpc<'static, Untyped, Untyped>;

// ---------------------------------------------------------------- harness

/// What one call returned: its reply in debug form, or its error.
type Outcome = Result<String, String>;

/// The call of one case, made against either side with a timeout.
type Call = Box<dyn Fn(&Side, Duration) -> Outcome>;

fn outcome<T: Debug>(result: Result<T, MargoError>) -> Outcome {
    result.map(|reply| format!("{reply:?}")).map_err(|e| e.to_string())
}

/// Maps an error to a `String` that says what failed.
fn say<E: Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One case's fabric, processes and directories, all released when it
/// ends. Its first process is the client, its second exposes the regions
/// of bulk RPCs: a server's bulk transfers then do not cross the link
/// whose first message is dropped.
struct Net {
    fabric: Fabric,
    procs: Mutex<Vec<MargoRuntime>>,
    dirs: Mutex<Vec<TempDir>>,
}

impl Net {
    fn new() -> Result<Self, String> {
        let net = Net { fabric: Fabric::new(), procs: Mutex::default(), dirs: Mutex::default() };
        net.boot(CLIENT)?;
        net.boot("bulk")?;
        Ok(net)
    }

    fn client(&self) -> MargoRuntime {
        self.procs.lock()[0].clone()
    }

    fn bulk(&self) -> MargoRuntime {
        self.procs.lock()[1].clone()
    }

    /// A process on `host`; its monitor counts handler runs.
    fn boot(&self, host: &str) -> Result<MargoRuntime, String> {
        let margo = MargoRuntime::init_default(&self.fabric, Address::tcp(host, 1))
            .map_err(say("margo init"))?;
        self.procs.lock().push(margo.clone());
        Ok(margo)
    }

    fn dir(&self) -> Result<PathBuf, String> {
        let dir = TempDir::new("retry-replay").map_err(say("tempdir"))?;
        let path = dir.path().to_path_buf();
        self.dirs.lock().push(dir);
        Ok(path)
    }
}

impl Drop for Net {
    fn drop(&mut self) {
        for margo in self.procs.lock().iter() {
            margo.finalize();
        }
    }
}

/// How many `rpc` requests `margo`'s handlers have finished, from its
/// monitoring dump (nested calls included).
fn handled(margo: &MargoRuntime, rpc: &str) -> u64 {
    let stats = margo.monitoring_json().unwrap_or_default();
    let entries = stats["rpcs"].as_object().into_iter().flat_map(|rpcs| rpcs.values());
    let targets = entries
        .filter(|entry| entry["name"] == rpc)
        .flat_map(|entry| entry["target"].as_object().into_iter().flat_map(|peers| peers.values()));
    targets.filter_map(|peer| peer["ult"]["duration"]["num"].as_u64()).sum()
}

/// [`handled`], once it reaches `want` or two seconds pass: a reply can
/// beat the server's own count of the handler that sent it.
fn settled(margo: &MargoRuntime, rpc: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let count = handled(margo, rpc);
        if count >= want || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The RPCs of `all` that are declared idempotent.
fn declared(all: &[Declared]) -> Vec<Declared> {
    all.iter().copied().filter(|rpc| rpc.retry() == RetryClass::Idempotent).collect()
}

/// One of a case's two starting states.
struct Side {
    /// The process whose handler the call runs.
    server: MargoRuntime,
    /// Reads everything the call may have changed, in comparable form.
    state: Box<dyn Fn() -> Result<String, String>>,
}

/// Replays one case and says how it broke the promise, if it did. It
/// builds the clean and the faulted side, issues the call once against
/// each, the faulted one with its server's first reply to the client
/// lost, and asks that the handler ran once and twice, that both callers
/// got the same reply (`Ok`, unless the case is `refused`), and that the
/// two states ended equal.
fn replay(
    case: &str,
    rpc: &str,
    side: impl Fn(&Net, &str) -> Result<Side, String>,
    call: impl FnOnce(&Net) -> Result<Call, String>,
    refused: bool,
) -> Result<(), String> {
    let in_case = |e: String| format!("{case}: {e}");
    let net = Net::new().map_err(in_case)?;
    let sides = [side(&net, "clean").map_err(in_case)?, side(&net, "faulted").map_err(in_case)?];
    let call = call(&net).map_err(in_case)?;
    let before = sides.each_ref().map(|side| handled(&side.server, rpc));
    let clean = call(&sides[0], CLEAN_TIMEOUT);
    let faulted_host = sides[1].server.address();
    let script = LinkScript::FailFirst(1);
    net.fabric.faults().push_script(Some(faulted_host.host()), Some(CLIENT), script);
    let faulted = call(&sides[1], FAULTED_TIMEOUT);
    let runs = [
        settled(&sides[0].server, rpc, before[0] + 1) - before[0],
        settled(&sides[1].server, rpc, before[1] + 2) - before[1],
    ];
    let why = if runs != [1, 2] {
        format!("the handler ran {runs:?} times (clean, faulted), not [1, 2]")
    } else if clean.is_ok() == refused {
        format!("the clean call returned {clean:?}")
    } else if clean != faulted {
        format!("the replies differ\n  clean:   {clean:?}\n  faulted: {faulted:?}")
    } else {
        let [clean, faulted] =
            [(sides[0].state)().map_err(in_case)?, (sides[1].state)().map_err(in_case)?];
        if clean == faulted {
            return Ok(());
        }
        format!("the end states differ\n  clean:   {clean}\n  faulted: {faulted}")
    };
    Err(in_case(why))
}

/// Replays every RPC of `all` that is declared idempotent, on every
/// kind of backend and from every seed, and returns every broken
/// promise. An RPC's cases run at once, each on its own fabric: a faulted
/// call spends its time waiting out a timeout.
fn replay_all<K: Copy + Send>(
    all: &[Declared],
    kinds: &[K],
    case: fn(K, Declared, u64) -> Result<(), String>,
) -> Vec<String> {
    let mut broken = Vec::new();
    for rpc in declared(all) {
        std::thread::scope(|scope| {
            let spawn =
                |kind| (0..SEEDS).map(move |seed| scope.spawn(move || case(kind, rpc, seed)));
            let runs: Vec<_> = kinds.iter().flat_map(|&kind| spawn(kind)).collect();
            for run in runs {
                broken.extend(run.join().unwrap_or_else(|_| Err(format!("{rpc}: panicked"))).err());
            }
        });
    }
    broken
}

fn random_bytes(rng: &mut SeededRng, lo: usize, hi: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; rng.range(lo, hi)];
    rng.fill_bytes(&mut bytes);
    bytes
}

// ------------------------------------------------------------------ Yokan

#[derive(Debug, Clone, Copy)]
enum Backend {
    Map,
    Lsm,
    /// A `VirtualDatabase` over two map replicas.
    Virtual,
}

/// The keys a starting state and a call draw from, so that calls overlap
/// stored values, versioned records, tombstones and absent keys.
const KEYS: [&[u8]; 8] = [b"a/0", b"a/1", b"a/2", b"a/3", b"b/0", b"b/1", b"b/2", b"c"];

/// A Yokan provider on `host` over `backend`, holding `seed`'s starting
/// state: a value, a versioned record, a tombstone or nothing per key.
/// Its state is every stored record (of each replica, for a virtual
/// database) and `len`.
fn yokan_side(net: &Net, backend: Backend, host: &str, seed: u64) -> Result<Side, String> {
    let server = net.boot(host)?;
    let mut stores = Vec::new();
    let db: Arc<dyn Database> = match backend {
        Backend::Map => Arc::new(MemoryDatabase::new()),
        Backend::Lsm => {
            // Small memtables: the starting state spans sealed tables.
            let config = LsmConfig { memtable_bytes: 128, max_tables: 2, stripes: 2 };
            Arc::new(LsmDatabase::open(net.dir()?, config).map_err(say("open lsm"))?)
        }
        Backend::Virtual => {
            let mut replicas = Vec::new();
            for i in 0..2 {
                let replica = net.boot(&format!("{host}-replica{i}"))?;
                let store: Arc<dyn Database> = Arc::new(MemoryDatabase::new());
                YokanProvider::register(&replica, 1, None, Arc::clone(&store))
                    .map_err(say("register replica"))?;
                replicas.push((replica.address(), 1));
                stores.push(store);
            }
            Arc::new(VirtualDatabase::new(&server, replicas, Duration::from_secs(5)))
        }
    };
    YokanProvider::register(&server, 1, None, Arc::clone(&db)).map_err(say("register"))?;
    if stores.is_empty() {
        stores.push(db);
    }
    let mut rng = SeededRng::new(seed).child("state");
    for key in KEYS {
        let (roll, version) = (rng.next_f64(), rng.range_u64(1, 16));
        let value = random_bytes(&mut rng, 1, 24);
        // Below 0.3 a plain value, then a live record, a tombstone from
        // 0.55, and nothing from 0.8.
        let record = (roll >= 0.3).then(|| encode_record(version, (roll < 0.55).then_some(&value)));
        for store in stores.iter().filter(|_| roll < 0.8) {
            let stored = match &record {
                None => store.put(key, &value),
                Some(record) => store.put_if_newer(key, record).map(drop),
            };
            stored.map_err(say("seed a record"))?;
        }
    }
    let handle = DatabaseHandle::new(&net.client(), server.address(), 1);
    let state = move || {
        let mut records = Vec::new();
        for store in &stores {
            let mut pairs = store.dump().map_err(say("dump"))?;
            pairs.sort();
            records.push(pairs);
        }
        let len = handle.len().map_err(say("len"))?;
        Ok(format!("records {records:?}, len {len}"))
    };
    Ok(Side { server, state: Box::new(state) })
}

/// The call of `rpc` for `seed`, its arguments drawn from the seed and
/// issued through the Yokan client; an error for an RPC with no case.
fn yokan_call(rpc: Declared, seed: u64, net: &Net) -> Result<Call, String> {
    let mut rng = SeededRng::new(seed).child("call");
    let mut keys = KEYS.to_vec();
    rng.shuffle(&mut keys);
    keys.truncate(rng.range(1, 5));
    let values: Vec<Vec<u8>> = keys.iter().map(|_| random_bytes(&mut rng, 0, 24)).collect();
    let versions: Vec<u64> = keys.iter().map(|_| rng.range_u64(1, 16)).collect();
    let live: Vec<bool> = keys.iter().map(|_| rng.chance(0.7)).collect();
    let prefix: &[u8] = [&b""[..], b"a/", b"b/"][rng.range(0, 3)];
    let start_after = rng.chance(0.5).then(|| KEYS[rng.range(0, KEYS.len())]);
    let max = rng.range(1, 7);
    let client = net.client();
    let db = move |side: &Side, t| {
        DatabaseHandle::new(&client, side.server.address(), 1).with_timeout(t)
    };
    use yokan_rpc::*;
    let call: Call = match rpc {
        _ if rpc == PUT => Box::new(move |side, t| outcome(db(side, t).put(keys[0], &values[0]))),
        _ if rpc == PUT_MULTI => Box::new(move |side, t| {
            let pairs: Vec<(&[u8], &[u8])> =
                keys.iter().zip(&values).map(|(key, value)| (*key, value.as_slice())).collect();
            outcome(db(side, t).put_multi(&pairs))
        }),
        _ if rpc == GET => Box::new(move |side, t| outcome(db(side, t).get(keys[0]))),
        _ if rpc == GET_MULTI => Box::new(move |side, t| outcome(db(side, t).get_multi(&keys))),
        _ if rpc == EXISTS => Box::new(move |side, t| outcome(db(side, t).exists(keys[0]))),
        _ if rpc == LIST_KEYS => {
            Box::new(move |side, t| outcome(db(side, t).list_keys(prefix, start_after, max)))
        }
        _ if rpc == LEN => Box::new(move |side, t| outcome(db(side, t).len())),
        _ if rpc == FLUSH => Box::new(move |side, t| outcome(db(side, t).flush())),
        _ if rpc == CLEAR => Box::new(move |side, t| outcome(db(side, t).clear())),
        _ if rpc == PUT_VERSIONED_MULTI => Box::new(move |side, t| {
            let values = values.iter().zip(&live).map(|(v, live)| live.then_some(v.as_slice()));
            let records = keys.iter().zip(&versions).zip(values).map(|((k, v), x)| (*k, *v, x));
            let batch = VersionedBatch::encode(records).map_err(|e| e.to_string())?;
            // The reply's `existed` is left out: it says whether a live
            // record was there before the call, and a re-run sees the
            // first run's writes. So an erase through the routed keyspace
            // can read `Ok(false)` for a key it did erase (DESIGN.md §18.1).
            outcome(db(side, t).put_versioned(&batch).map(drop))
        }),
        other => return Err(format!("no Yokan replay case for {other}")),
    };
    Ok(call)
}

fn yokan_case(backend: Backend, rpc: Declared, seed: u64) -> Result<(), String> {
    // A virtual database stores no versioned records: both callers get
    // the same refusal.
    let refused = matches!(backend, Backend::Virtual) && rpc == yokan_rpc::PUT_VERSIONED_MULTI;
    let side = |net: &Net, host: &str| yokan_side(net, backend, host, seed);
    let case = format!("{rpc} on {backend:?}, seed {seed}");
    replay(&case, rpc.name(), side, |net| yokan_call(rpc, seed, net), refused)
}

// ----------------------------------------------------------------- Warabi

#[derive(Debug, Clone, Copy)]
enum Target {
    Memory,
    File,
}

/// The blobs of a starting state, as `(id, size)`; their bytes are drawn
/// from the seed.
const BLOBS: [(u64, u64); 3] = [(1, 40), (2, 96), (3, 160)];

/// A Warabi provider on `host` over a `kind` target holding `seed`'s
/// blobs. Its state is the blob list, and every blob's size and bytes.
fn warabi_side(net: &Net, kind: Target, host: &str, seed: u64) -> Result<Side, String> {
    let server = net.boot(host)?;
    let target: Arc<dyn BlobTarget> = match kind {
        Target::Memory => Arc::new(MemoryTarget::new()),
        Target::File => Arc::new(FileTarget::open(net.dir()?).map_err(say("open target"))?),
    };
    WarabiProvider::register(&server, 1, None, Arc::clone(&target)).map_err(say("register"))?;
    let mut rng = SeededRng::new(seed).child("state");
    for (id, size) in BLOBS {
        let mut data = vec![0u8; size as usize];
        rng.fill_bytes(&mut data);
        target.restore_blob(id, &data).map_err(say("seed a blob"))?;
    }
    let state = move || {
        let mut blobs = Vec::new();
        for id in target.list().map_err(say("list"))? {
            let size = target.size(id).map_err(say("size"))?;
            blobs.push((id, size, target.read(id, 0, size).map_err(say("read"))?));
        }
        Ok(format!("{blobs:?}"))
    };
    Ok(Side { server, state: Box::new(state) })
}

/// The call of `rpc` for `seed`, on a range of one blob drawn from the
/// seed. The bulk RPCs are forwarded with their region exposed by the
/// case's bulk process; the others go through the Warabi client.
fn warabi_call(rpc: Declared, seed: u64, net: &Net) -> Result<Call, String> {
    let mut rng = SeededRng::new(seed).child("call");
    let (id, size) = BLOBS[rng.range(0, BLOBS.len())];
    let offset = rng.range_u64(0, size);
    let len = rng.range_u64(1, size - offset + 1);
    let mut data = vec![0u8; len as usize];
    rng.fill_bytes(&mut data);
    let (client, bulk) = (net.client(), net.bulk());
    let target = {
        let client = client.clone();
        move |side: &Side, t| TargetHandle::new(&client, side.server.address(), 1).with_timeout(t)
    };
    let bulk_call = move |side: &Side, t, rpc, region: Vec<u8>, access| {
        let region = Arc::new(Mutex::new(region));
        let exposed = bulk.expose_bulk(Arc::clone(&region), access);
        let args = BulkArgs { id, offset, len, handle: exposed.clone() };
        let reply: Result<bool, _> =
            client.forward_timeout(&side.server.address(), rpc, 1, &args, t);
        bulk.unexpose_bulk(&exposed);
        outcome(reply.map(|ok| (ok, region.lock().clone())))
    };
    use warabi_rpc::*;
    let call: Call = match rpc {
        _ if rpc == WRITE => {
            Box::new(move |side, t| outcome(target(side, t).write(id, offset, &data)))
        }
        _ if rpc == WRITE_BULK => Box::new(move |side, t| {
            bulk_call(side, t, WRITE_BULK, data.clone(), BulkAccess::ReadOnly)
        }),
        _ if rpc == READ => Box::new(move |side, t| outcome(target(side, t).read(id, offset, len))),
        _ if rpc == READ_BULK => Box::new(move |side, t| {
            bulk_call(side, t, READ_BULK, vec![0; len as usize], BulkAccess::WriteOnly)
        }),
        _ if rpc == SIZE => Box::new(move |side, t| outcome(target(side, t).size(id))),
        _ if rpc == PERSIST => Box::new(move |side, t| outcome(target(side, t).persist(id))),
        _ if rpc == LIST => Box::new(move |side, t| outcome(target(side, t).list())),
        other => return Err(format!("no Warabi replay case for {other}")),
    };
    Ok(call)
}

fn warabi_case(kind: Target, rpc: Declared, seed: u64) -> Result<(), String> {
    let side = |net: &Net, host: &str| warabi_side(net, kind, host, seed);
    let case = format!("{rpc} on {kind:?}, seed {seed}");
    replay(&case, rpc.name(), side, |net| warabi_call(rpc, seed, net), false)
}

// ------------------------------------------------------------------- REMI

/// The files a migration carries, relative to its root. The first is
/// also at the destination before the migration, with other bytes.
const FILES: [&str; 4] = ["f0.bin", "d/f1.bin", "d/e/f2.bin", "f3.bin"];
/// Files at the destination that the migration does not carry.
const BYSTANDERS: [&str; 2] = ["keep.txt", "d/old.bin"];
/// The transfer token of a `PULL` case's session.
const TOKEN: &str = "replayed-transfer";

fn write_files(root: &Path, files: &[&str], rng: &mut SeededRng, max: usize) -> Result<(), String> {
    for rel in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap_or(root)).map_err(say("mkdir"))?;
        std::fs::write(&path, random_bytes(rng, 1, max)).map_err(say("write"))?;
    }
    Ok(())
}

/// A REMI provider on `host` whose tree holds `seed`'s starting files;
/// with `started`, a session for that fileset is open under [`TOKEN`].
/// Its state is the tree's paths and bytes.
fn remi_side(net: &Net, host: &str, seed: u64, started: Option<&FileSet>) -> Result<Side, String> {
    let server = net.boot(host)?;
    let root = net.dir()?;
    RemiProvider::register(&server, 1, &root, None).map_err(say("register"))?;
    let mut rng = SeededRng::new(seed).child("state");
    write_files(&root, &[&FILES[..1], &BYSTANDERS].concat(), &mut rng, 500)?;
    if let Some(fileset) = started {
        let start =
            StartArgs { token: TOKEN.into(), files: fileset.files.clone(), dest_subdir: None };
        let address = server.address();
        let started: Result<bool, _> =
            net.client().forward_timeout(&address, remi_rpc::START, 1, &start, CLEAN_TIMEOUT);
        started.map_err(say("start"))?;
    }
    let state = move || {
        let tree = FileSet::scan(&root).map_err(say("scan"))?;
        let mut files = Vec::new();
        for entry in &tree.files {
            files.push((&entry.path, std::fs::read(tree.absolute(entry)).map_err(say("read"))?));
        }
        Ok(format!("{files:?}"))
    };
    Ok(Side { server, state: Box::new(state) })
}

/// `START` as the first step of a whole migration of `fileset` under
/// `strategy`, the reply compared being the migration's report; or `PULL`
/// on an open session, the files exposed by the case's bulk process.
fn remi_call(
    rpc: Declared,
    strategy: Strategy,
    fileset: &FileSet,
    net: &Net,
) -> Result<Call, String> {
    let (client, remi) = (net.client(), RemiClient::new(&net.client()));
    let fileset = fileset.clone();
    use remi_rpc::*;
    let call: Call = match rpc {
        _ if rpc == START => Box::new(move |side, timeout| {
            let options = MigrationOptions { timeout, ..MigrationOptions::default() };
            let report = remi.migrate(&side.server.address(), 1, &fileset, strategy, &options);
            outcome(report.map(|report| (report.files, report.bytes, report.chunks)))
        }),
        _ if rpc == PULL => {
            let mut exposed = Vec::new();
            for entry in &fileset.files {
                let (path, size) = (fileset.absolute(entry), entry.size as usize);
                let handle = net.bulk().expose_bulk_file(path, size, BulkAccess::ReadOnly);
                exposed.push(handle.map_err(say("expose"))?);
            }
            Box::new(move |side, timeout| {
                let args = PullArgs { token: TOKEN.into(), bulk_handles: exposed.clone() };
                let summary: Result<TransferSummary, _> =
                    client.forward_timeout(&side.server.address(), PULL, 1, &args, timeout);
                outcome(summary)
            })
        }
        other => return Err(format!("no REMI replay case for {other}")),
    };
    Ok(call)
}

fn remi_case(strategy: Strategy, rpc: Declared, seed: u64) -> Result<(), String> {
    // A pull is the RDMA strategy's transfer: the chunked one has none.
    if rpc == remi_rpc::PULL && strategy != Strategy::Rdma {
        return Ok(());
    }
    let source = TempDir::new("retry-replay-source").map_err(say("tempdir"))?;
    write_files(source.path(), &FILES, &mut SeededRng::new(seed).child("source"), 3000)?;
    let fileset = FileSet::scan(source.path()).map_err(say("scan"))?;
    let started = (rpc == remi_rpc::PULL).then_some(&fileset);
    let side = |net: &Net, host: &str| remi_side(net, host, seed, started);
    let case = format!("{rpc} under {strategy:?}, seed {seed}");
    replay(&case, rpc.name(), side, |net| remi_call(rpc, strategy, &fileset, net), false)
}

// ------------------------------------------------------------------ tests

#[test]
fn yokan_rpcs_replay_on_a_map_an_lsm_and_a_virtual_database() {
    let backends = [Backend::Map, Backend::Lsm, Backend::Virtual];
    let broken = replay_all(yokan_rpc::ALL, &backends, yokan_case);
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn warabi_rpcs_replay_on_a_memory_and_a_file_target() {
    let targets = [Target::Memory, Target::File];
    let broken = replay_all(warabi_rpc::ALL, &targets, warabi_case);
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn remi_start_replays_under_both_strategies_and_pull_under_rdma() {
    let strategies = [Strategy::Rdma, Strategy::ChunkedRpc { chunk_size: 1024, window: 2 }];
    let broken = replay_all(remi_rpc::ALL, &strategies, remi_case);
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// Each service has a replay case for exactly the RPCs its table
/// declares idempotent: an idempotent declaration with no case fails
/// here, and so does a case for an RPC that is sent once.
#[test]
fn the_replayed_rpcs_are_exactly_the_declared_ones() {
    let net = Net::new().expect("net");
    let nothing = FileSet { root: PathBuf::new(), files: Vec::new() };
    let check = |all: &[Declared], has_case: &dyn Fn(Declared) -> bool| {
        let declared = declared(all);
        for &rpc in all {
            assert_eq!(declared.contains(&rpc), has_case(rpc), "{rpc}: declared vs replayed");
        }
    };
    check(yokan_rpc::ALL, &|rpc| yokan_call(rpc, 0, &net).is_ok());
    check(warabi_rpc::ALL, &|rpc| warabi_call(rpc, 0, &net).is_ok());
    check(remi_rpc::ALL, &|rpc| remi_call(rpc, Strategy::Rdma, &nothing, &net).is_ok());
}
