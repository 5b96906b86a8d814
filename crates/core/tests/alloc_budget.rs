//! Allocation budget of the routed data path.
//!
//! A counting global allocator (every thread of the test process: the
//! client, the three members' execution streams, SWIM, the samplers)
//! counts heap allocations while one client drives `RoutedKv` over the
//! three-member keyspace the benchmark deploys: a free link, the `"map"`
//! backend, monitoring on. What the background makes on its own is
//! measured over an idle window of the same length and subtracted.
//!
//! The budgets fail when a layer goes back to allocating per key or per
//! event: a point get at `replication_factor` 1 made 41 allocations before
//! the data path was put on a diet (EXPERIMENTS.md "PR 22").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use mochi_bedrock::ProviderSpec;
use mochi_core::{default_catalog, Cluster, DynamicService, RoutedConfig, RoutedKv, ServiceConfig};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, NetworkModel};
use mochi_util::time::wait_until;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 3;
const KEYSPACE: &str = "budget";
const KEYS: usize = 256;
const BATCH: usize = 64;
/// Calls per measured window.
const CALLS: usize = 2_000;
/// Windows per operation; the median is reported.
const WINDOWS: usize = 3;

struct Deployment {
    routed: RoutedKv,
    client: MargoRuntime,
    service: Arc<DynamicService>,
    _cluster: Arc<Cluster>,
}

fn deploy(replication_factor: usize, monitoring: bool) -> Deployment {
    let cluster = Cluster::with_options(NODES, default_catalog(), NetworkModel::instant());
    let mut config = ServiceConfig::default();
    config.process.margo.monitoring.enabled = monitoring;
    let service = DynamicService::deploy(&cluster, config, NODES, |i| {
        vec![ProviderSpec::new(format!("kv{i}"), "yokan", 10 + i as u16)
            .with_config(json!({"backend": "map"}))
            .with_tag(format!("keyspace:{KEYSPACE}"))]
    })
    .expect("deploy");
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(1), || {
        service.view().is_some_and(|view| view.len() == NODES)
    }));
    let mut margo = MargoConfig::default();
    margo.monitoring.enabled = monitoring;
    let client = MargoRuntime::init(cluster.fabric(), Address::tcp("client", 1), &margo)
        .expect("client runtime");
    let routed_config = RoutedConfig { replication_factor, ..RoutedConfig::default() };
    let routed =
        RoutedKv::for_keyspace(&service, &client, KEYSPACE, routed_config).expect("keyspace");
    Deployment { routed, client, service, _cluster: cluster }
}

impl Deployment {
    fn shutdown(self) {
        let Deployment { routed, client, service, _cluster } = self;
        drop(routed);
        client.finalize();
        service.shutdown();
    }
}

/// Allocations per call of `op`, net of what the process allocates while
/// the client does nothing for as long as the calls took.
fn allocations_per_call(mut op: impl FnMut(usize)) -> u64 {
    let mut windows: Vec<i64> = (0..WINDOWS)
        .map(|_| {
            let started = Instant::now();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for call in 0..CALLS {
                op(call);
            }
            let busy = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let took = started.elapsed();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            std::thread::sleep(took);
            let idle = ALLOCATIONS.load(Ordering::Relaxed) - before;
            busy as i64 - idle as i64
        })
        .collect();
    windows.sort_unstable();
    let median = windows[WINDOWS / 2].max(0) as f64;
    (median / CALLS as f64).round() as u64
}

/// What one deployment's operations allocate per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    get: u64,
    put: u64,
    get_multi: u64,
    put_multi: u64,
}

fn measure(replication_factor: usize, monitoring: bool) -> Counts {
    let deployment = deploy(replication_factor, monitoring);
    let routed = &deployment.routed;
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| format!("key-{i:012}").into_bytes()).collect();
    let value = vec![7u8; 64];
    let pairs: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (k.as_slice(), value.as_slice())).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    // Preload, then see every RPC kind once per key: maps have their
    // entries, queues their capacity, threads their stripes.
    for slot in routed.put_multi(&pairs) {
        slot.expect("preload");
    }
    for key in &refs {
        routed.put(key, &value).expect("warm put");
        assert_eq!(routed.get(key).expect("warm get").as_deref(), Some(&value[..]));
    }
    for slot in routed.get_multi(&refs) {
        slot.expect("warm get_multi");
    }
    let batch = |call: usize| (call * BATCH) % (KEYS - BATCH + 1);
    let counts = Counts {
        get: allocations_per_call(|call| {
            routed.get(refs[call % KEYS]).expect("get");
        }),
        put: allocations_per_call(|call| {
            routed.put(refs[call % KEYS], &value).expect("put");
        }),
        get_multi: allocations_per_call(|call| {
            let at = batch(call);
            routed.get_multi(&refs[at..at + BATCH]).into_iter().for_each(|slot| {
                slot.expect("get_multi");
            });
        }),
        put_multi: allocations_per_call(|call| {
            let at = batch(call);
            routed.put_multi(&pairs[at..at + BATCH]).into_iter().for_each(|slot| {
                slot.expect("put_multi");
            });
        }),
    };
    deployment.shutdown();
    counts
}

#[test]
fn the_data_path_stays_within_its_allocation_budget() {
    let rf1 = measure(1, true);
    let rf1_quiet = measure(1, false);
    let rf3 = measure(3, true);
    let rf3_quiet = measure(3, false);
    println!("allocations per call   rf=1: {rf1:?}");
    println!("  monitoring off       rf=1: {rf1_quiet:?}");
    println!("allocations per call   rf=3: {rf3:?}");
    println!("  monitoring off       rf=3: {rf3_quiet:?}");

    assert!(rf1.get <= 20, "rf=1 get allocates {} times", rf1.get);
    assert!(rf3.get <= 45, "rf=3 get allocates {} times", rf3.get);
    assert!(rf1.put <= 25, "rf=1 put allocates {} times", rf1.put);
    assert!(rf3.put <= 55, "rf=3 put allocates {} times", rf3.put);
    let per_key = |per_call: u64| per_call as f64 / BATCH as f64;
    assert!(per_key(rf1.get_multi) <= 5.0, "get_multi: {} per key", per_key(rf1.get_multi));
    assert!(per_key(rf1.put_multi) <= 5.0, "put_multi: {} per key", per_key(rf1.put_multi));
    // Statistics "at no engineering cost" (paper §4): once an RPC kind has
    // its entry, recording another one allocates nothing.
    assert_eq!(rf1, rf1_quiet, "monitoring on vs off at rf=1");
    assert_eq!(rf3, rf3_quiet, "monitoring on vs off at rf=3");
}
