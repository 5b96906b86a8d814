//! A4 — contention ablation: striped backends vs. global locks.
//!
//! Claim under test: removing the three global locks from the RPC data
//! plane (hash-striped memory shards, snapshot-read LSM, striped
//! statistics) turns flat or negative thread scaling into near-linear
//! scaling, without regressing the single-thread path.
//!
//! Four legs:
//!   1. Memory backend put/get at 1/2/4/8 threads, 16 shards vs. the
//!      historical single-lock layout (`with_shards(1)`: one lock over
//!      the whole table, which is a hash table with a lazily sorted key
//!      order like every shard, no longer the B-tree it once was).
//!   2. LSM gets at 1/2/4/8 threads, snapshot reads vs. a bench-local
//!      global-mutex wrapper reproducing the old "every op takes the
//!      writer lock" design; plus a single-thread get p50 check.
//!   3. LSM puts at 1/2/4/8 threads, 8 stripes (per-stripe value logs,
//!      each merging on its sealing writer) vs. a single stripe — the
//!      DESIGN.md §15 write path. Emits `target/BENCH_a04.json` with
//!      throughput and put p50/p99, which `scripts/bench-multicore.sh`
//!      checks for.
//!   4. Echo RPCs through two monitored Margo runtimes, confirming the
//!      striped statistics monitor still emits Listing-1-shaped dumps.
//!
//! The ratio assertions only fire when the host exposes >= 4 CPUs;
//! on smaller machines the tables still print but contention cannot
//! manifest, so the numbers are reported unasserted (and recorded as
//! `"asserted": false` in the JSON).

use std::path::Path;
use std::sync::{Barrier, Mutex};

use mochi_bench::{fmt_rate, measure, Table};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, Fabric};
use mochi_util::TempDir;
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase};
use mochi_yokan::backend::memory::MemoryDatabase;
use mochi_yokan::backend::Database;
use serde_json::json;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_THREAD: usize = 20_000;
const LSM_OPS_PER_THREAD: usize = 5_000;

/// The pre-striping LSM design: one global mutex in front of every
/// operation. Kept here (not in the library) purely as a baseline.
struct GlobalLocked {
    inner: Mutex<LsmDatabase>,
}

impl GlobalLocked {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().get(key).unwrap()
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.inner.lock().unwrap().put(key, value).unwrap();
    }
}

/// Runs `threads` workers in lockstep, each performing `ops` calls of
/// `op(thread_index, op_index)`, and returns aggregate ops/second.
fn run_threads<F>(threads: usize, ops: usize, op: F) -> f64
where
    F: Fn(usize, usize) + Send + Sync,
{
    let barrier = Barrier::new(threads + 1);
    // thread::scope joins every worker before returning, so the elapsed
    // time around the scope call (started once all workers are at the
    // barrier) covers exactly the measured operations.
    let start = std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let op = &op;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..ops {
                    op(t, i);
                }
            });
        }
        barrier.wait();
        std::time::Instant::now()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (threads * ops) as f64 / elapsed
}

fn key_for(thread: usize, i: usize) -> Vec<u8> {
    format!("k-{thread:02}-{:05}", i % 512).into_bytes()
}

fn bench_memory(parallel: bool) {
    let mut table = Table::new(&["threads", "put 1-shard", "put 16-shard", "get 1-shard", "get 16-shard"]);
    let mut put_ratio_at_4 = 0.0;
    let mut get_ratio_at_4 = 0.0;

    for &threads in &THREAD_COUNTS {
        let global = MemoryDatabase::with_shards(1);
        let striped = MemoryDatabase::with_shards(16);
        for db in [&global, &striped] {
            for t in 0..threads {
                for i in 0..512 {
                    db.put(&key_for(t, i), b"prefill-value").unwrap();
                }
            }
        }

        let put_global = run_threads(threads, OPS_PER_THREAD, |t, i| {
            global.put(&key_for(t, i), b"contention-bench-value-0123456789").unwrap();
        });
        let put_striped = run_threads(threads, OPS_PER_THREAD, |t, i| {
            striped.put(&key_for(t, i), b"contention-bench-value-0123456789").unwrap();
        });
        let get_global = run_threads(threads, OPS_PER_THREAD, |t, i| {
            let _ = global.get(&key_for(t, i)).unwrap();
        });
        let get_striped = run_threads(threads, OPS_PER_THREAD, |t, i| {
            let _ = striped.get(&key_for(t, i)).unwrap();
        });

        if threads == 4 {
            put_ratio_at_4 = put_striped / put_global;
            get_ratio_at_4 = get_striped / get_global;
        }

        table.row(&[
            threads.to_string(),
            fmt_rate((OPS_PER_THREAD * threads) as u64, (OPS_PER_THREAD * threads) as f64 / put_global),
            fmt_rate((OPS_PER_THREAD * threads) as u64, (OPS_PER_THREAD * threads) as f64 / put_striped),
            fmt_rate((OPS_PER_THREAD * threads) as u64, (OPS_PER_THREAD * threads) as f64 / get_global),
            fmt_rate((OPS_PER_THREAD * threads) as u64, (OPS_PER_THREAD * threads) as f64 / get_striped),
        ]);
    }

    table.print("A4 — memory backend throughput: 1 shard (global lock) vs 16 shards");

    if parallel {
        assert!(
            put_ratio_at_4 >= 2.0,
            "striped puts should be >= 2x the single-shard baseline at 4 threads \
             (measured {put_ratio_at_4:.2}x)"
        );
        assert!(
            get_ratio_at_4 >= 2.0,
            "striped gets should be >= 2x the single-shard baseline at 4 threads \
             (measured {get_ratio_at_4:.2}x)"
        );
        println!(
            "4-thread striped/global ratio: put {put_ratio_at_4:.2}x, get {get_ratio_at_4:.2}x (asserted >= 2x)"
        );
    } else {
        println!(
            "4-thread striped/global ratio: put {put_ratio_at_4:.2}x, get {get_ratio_at_4:.2}x \
             (host has < 4 CPUs; not asserted)"
        );
    }
}

fn bench_lsm(parallel: bool) {
    let dir_snapshot = TempDir::new("a04-lsm-snapshot").unwrap();
    let dir_global = TempDir::new("a04-lsm-global").unwrap();
    let config = LsmConfig { memtable_bytes: 64 * 1024, max_tables: 4, ..LsmConfig::default() };
    let snapshot_db = LsmDatabase::open(dir_snapshot.path(), config).unwrap();
    let global_db = GlobalLocked {
        // One stripe under the mutex: the pre-striping design had one
        // WAL and one memtable, so the baseline reproduces that too.
        inner: Mutex::new(
            LsmDatabase::open(dir_global.path(), LsmConfig { stripes: 1, ..config }).unwrap(),
        ),
    };

    // Prefill through several flush cycles so gets touch SSTables, not
    // just the active memtable.
    for t in 0..8 {
        for i in 0..512 {
            let key = key_for(t, i);
            snapshot_db.put(&key, b"lsm-prefill-value-0123456789").unwrap();
            global_db.put(&key, b"lsm-prefill-value-0123456789");
        }
    }
    snapshot_db.flush().unwrap();
    global_db.inner.lock().unwrap().flush().unwrap();

    // Single-thread p50: snapshot reads must not regress vs the global
    // mutex (both are uncontended here; snapshot adds one Arc clone).
    let p50_snapshot = measure(500, 5_000, || {
        let _ = snapshot_db.get(&key_for(0, 7)).unwrap();
    })
    .quantile(0.5);
    let p50_global = measure(500, 5_000, || {
        let _ = global_db.get(&key_for(0, 7));
    })
    .quantile(0.5);

    let mut table = Table::new(&["threads", "get global-mutex", "get snapshot-read"]);
    let mut ratio_at_4 = 0.0;
    for &threads in &THREAD_COUNTS {
        let rate_global = run_threads(threads, LSM_OPS_PER_THREAD, |t, i| {
            let _ = global_db.get(&key_for(t % 8, i));
        });
        let rate_snapshot = run_threads(threads, LSM_OPS_PER_THREAD, |t, i| {
            let _ = snapshot_db.get(&key_for(t % 8, i)).unwrap();
        });
        if threads == 4 {
            ratio_at_4 = rate_snapshot / rate_global;
        }
        table.row(&[
            threads.to_string(),
            fmt_rate((LSM_OPS_PER_THREAD * threads) as u64, (LSM_OPS_PER_THREAD * threads) as f64 / rate_global),
            fmt_rate((LSM_OPS_PER_THREAD * threads) as u64, (LSM_OPS_PER_THREAD * threads) as f64 / rate_snapshot),
        ]);
    }
    table.print("A4 — LSM get throughput: global mutex vs snapshot reads");

    // Allow 50% headroom on the single-thread comparison: both paths
    // are sub-microsecond and timer noise dominates below that.
    assert!(
        p50_snapshot <= p50_global * 1.5,
        "snapshot-read get p50 ({p50_snapshot:.3e}s) must not regress past 1.5x the \
         global-mutex baseline ({p50_global:.3e}s) single-threaded"
    );
    println!(
        "single-thread get p50: snapshot {p50_snapshot:.3e}s vs global-mutex {p50_global:.3e}s \
         (asserted <= 1.5x)"
    );
    if parallel {
        println!("4-thread snapshot/global ratio: {ratio_at_4:.2}x");
    } else {
        println!("4-thread snapshot/global ratio: {ratio_at_4:.2}x (host has < 4 CPUs)");
    }
}

fn write_db(dir: &Path, stripes: usize) -> LsmDatabase {
    let config = LsmConfig { memtable_bytes: 64 * 1024, max_tables: 4, stripes };
    LsmDatabase::open(dir, config).unwrap()
}

/// Leg 3: the §15 parallel write path. Returns the JSON fragment for
/// `target/BENCH_a04.json`.
fn bench_lsm_writes(parallel: bool) -> serde_json::Value {
    const VALUE: &[u8] = b"write-scaling-bench-value-0123456789abcdef";

    // Single-thread put latency first, on fresh databases, so the
    // distribution is not polluted by the scaling runs' compaction debt.
    let p50_p99 = |stripes: usize| {
        let dir = TempDir::new("a04-lsm-write-lat").unwrap();
        let db = write_db(dir.path(), stripes);
        let mut i = 0u64;
        let hist = measure(500, 5_000, || {
            db.put(format!("lat-{i:08}").as_bytes(), VALUE).unwrap();
            i += 1;
        });
        (hist.quantile(0.5), hist.quantile(0.99))
    };
    let (p50_single, p99_single) = p50_p99(1);
    let (p50_striped, p99_striped) = p50_p99(8);

    let mut table = Table::new(&["threads", "put 1-stripe", "put 8-stripe"]);
    let mut scaling = Vec::new();
    let mut ratio_at_4 = 0.0;
    for &threads in &THREAD_COUNTS {
        // Fresh databases per thread count: write benches accumulate
        // tables, and carried-over compaction debt would bias later rows.
        let dir_single = TempDir::new("a04-lsm-write-single").unwrap();
        let dir_striped = TempDir::new("a04-lsm-write-striped").unwrap();
        let single = write_db(dir_single.path(), 1);
        let striped = write_db(dir_striped.path(), 8);

        let rate_single = run_threads(threads, LSM_OPS_PER_THREAD, |t, i| {
            single.put(format!("w{t}-{i:08}").as_bytes(), VALUE).unwrap();
        });
        let rate_striped = run_threads(threads, LSM_OPS_PER_THREAD, |t, i| {
            striped.put(format!("w{t}-{i:08}").as_bytes(), VALUE).unwrap();
        });
        if threads == 4 {
            ratio_at_4 = rate_striped / rate_single;
        }
        let ops = (LSM_OPS_PER_THREAD * threads) as u64;
        table.row(&[
            threads.to_string(),
            fmt_rate(ops, ops as f64 / rate_single),
            fmt_rate(ops, ops as f64 / rate_striped),
        ]);
        scaling.push(json!({
            "threads": threads,
            "single_stripe_ops_per_s": rate_single,
            "striped_ops_per_s": rate_striped,
        }));
    }
    table.print("A4 — LSM put throughput: 1 stripe vs 8 stripes (inline merges)");

    assert!(
        p50_striped <= p50_single * 1.5,
        "striped put p50 ({p50_striped:.3e}s) must not regress past 1.5x the \
         single-stripe baseline ({p50_single:.3e}s) single-threaded"
    );
    println!(
        "single-thread put p50: striped {p50_striped:.3e}s vs single-stripe {p50_single:.3e}s \
         (asserted <= 1.5x); p99 {p99_striped:.3e}s vs {p99_single:.3e}s"
    );
    if parallel {
        assert!(
            ratio_at_4 >= 2.0,
            "striped puts should be >= 2x the single-stripe baseline at 4 threads \
             (measured {ratio_at_4:.2}x)"
        );
        println!("4-thread striped/single-stripe put ratio: {ratio_at_4:.2}x (asserted >= 2x)");
    } else {
        println!(
            "4-thread striped/single-stripe put ratio: {ratio_at_4:.2}x \
             (host has < 4 CPUs; not asserted)"
        );
    }

    json!({
        "write_scaling": scaling,
        "ratio_at_4_threads": ratio_at_4,
        "put_p50_s": { "single_stripe": p50_single, "striped": p50_striped },
        "put_p99_s": { "single_stripe": p99_single, "striped": p99_striped },
    })
}

fn bench_echo() {
    let fabric = Fabric::new();
    let mut config = MargoConfig::default();
    config.monitoring.enabled = true;
    let server = MargoRuntime::init(&fabric, Address::tcp("a04-srv", 1), &config).unwrap();
    let client = MargoRuntime::init(&fabric, Address::tcp("a04-cli", 1), &config).unwrap();
    server.register_typed("echo", 0, None, |v: u64, _| Ok(v)).unwrap();
    let server_addr = server.address();

    let echo = measure(100, 2_000, || {
        let _: u64 = client.forward(&server_addr, "echo", 0, &7u64).unwrap();
    });
    println!(
        "echo through striped statistics monitor: {} (p50 {:.3e}s)",
        fmt_rate(2_000, echo.mean() * 2_000.0),
        echo.quantile(0.5)
    );

    // Listing-1 shape must survive the striped-accumulator merge.
    let stats = server.monitoring_json().unwrap();
    let rpcs = stats["rpcs"].as_object().unwrap();
    assert!(!rpcs.is_empty(), "monitor recorded no RPCs");
    let (key, entry) = rpcs.iter().next().unwrap();
    assert_eq!(key.split(':').count(), 4, "Listing-1 key format");
    let target = entry["target"].as_object().expect("echo target stats present");
    let (_, peer) = target.iter().next().expect("one peer recorded");
    let duration = peer["ult"]["duration"].as_object().expect("duration stream");
    for field in ["num", "avg", "min", "max", "var", "sum"] {
        assert!(duration.contains_key(field), "duration stream carries {field}");
    }
    assert_eq!(duration["num"].as_u64().unwrap(), 2_100, "all echo handler runs counted");

    server.finalize();
    client.finalize();
}

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel = cpus >= 4;
    println!("host parallelism: {cpus} (ratio assertions {})", if parallel { "on" } else { "off" });

    bench_memory(parallel);
    bench_lsm(parallel);
    let writes = bench_lsm_writes(parallel);
    bench_echo();

    // Machine-readable record for `scripts/bench-multicore.sh`.
    let report = json!({
        "bench": "a04_contention",
        "measured": true,
        "host_parallelism": cpus,
        "asserted": parallel,
        "lsm_writes": writes,
    });
    let rendered = serde_json::to_string_pretty(&report).unwrap();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_a04.json");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    std::fs::write(&out, &rendered).unwrap();
    println!("wrote {}", out.display());

    println!("claim: striping removes data-plane lock contention; single-thread");
    println!("latency and the Listing-1 monitoring contract are unchanged.");
}
