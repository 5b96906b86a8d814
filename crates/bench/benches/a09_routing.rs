//! A9 — routed keyspace scaling: 1 vs 2 vs 4 providers.
//!
//! Claim under test: `RoutedKv`'s client-side consistent-hash routing
//! with concurrent scatter-gather multi-ops turns per-provider caps into
//! aggregate throughput — a mixed read/write workload over 4 providers
//! sustains >= 2x the single-provider rate, because each destination leg
//! is an independent RPC pipeline into an independent process.
//!
//! Two legs:
//!   1. Mixed throughput: 8 client threads issue interleaved
//!      `put_multi`/`get_multi` batches against a routed keyspace of
//!      1, 2, then 4 Yokan providers (one per service node). Reported
//!      as aggregate key-ops/s per provider count.
//!   2. Multi-op latency: single-thread `put_multi`/`get_multi` batch
//!      p50/p99 per provider count — fan-out must buy throughput
//!      without inflating the individual batch.
//!
//! The >= 2x ratio assertion only fires when the host exposes >= 4 CPUs
//! (below that the fan-out legs and the provider processes time-slice a
//! shared core and the scaling cannot manifest); the numbers still
//! print and land in the JSON with `"asserted": false`.
//!
//! Emits `target/BENCH_a09.json`, which `scripts/bench-multicore.sh`'s
//! routing gate checks for.

use std::path::Path;
use std::sync::Barrier;

use mochi_bench::{fmt_latency, fmt_rate, measure, Table};
use mochi_core::routed::{RoutedConfig, RoutedKv};
use mochi_core::{Cluster, DynamicService, ServiceConfig};
use mochi_margo::MargoRuntime;
use mochi_mercury::Address;
use serde_json::json;

const KEYSPACE: &str = "a09";
const PROVIDER_COUNTS: [usize; 3] = [1, 2, 4];
const THREADS: usize = 8;
const ROUNDS_PER_THREAD: usize = 150;
/// Keys per `put_multi`/`get_multi` batch.
const BATCH: usize = 16;
/// Distinct keys per thread (gets always hit preloaded keys).
const KEYS_PER_THREAD: usize = 512;

fn key_for(thread: usize, i: usize) -> Vec<u8> {
    format!("a09-{thread:02}-{:04}", i % KEYS_PER_THREAD).into_bytes()
}

/// One routed keyspace over `providers` Yokan providers, one per
/// service node, plus the client runtime issuing the workload.
struct Deployment {
    service: std::sync::Arc<DynamicService>,
    client: MargoRuntime,
    routed: RoutedKv,
}

impl Deployment {
    fn new(providers: usize) -> Self {
        let cluster = Cluster::new(providers);
        let service = DynamicService::deploy(&cluster, ServiceConfig::default(), providers, |i| {
            vec![mochi_bedrock::ProviderSpec::new(format!("kv{i}"), "yokan", 10 + i as u16)
                .with_config(json!({"backend": "lsm"}))
                .with_tag(format!("keyspace:{KEYSPACE}"))]
        })
        .expect("deploy");
        mochi_bench::await_or_panic("service view", || {
            service.view().is_some_and(|v| v.len() == providers)
        });
        let client = MargoRuntime::init_default(
            cluster.fabric(),
            Address::tcp(format!("a09-cli-{providers}"), 1),
        )
        .expect("client runtime");
        let routed = RoutedKv::for_keyspace(&service, &client, KEYSPACE, RoutedConfig::default())
            .expect("routed keyspace");
        assert_eq!(routed.members().len(), providers);
        Self { service, client, routed }
    }

    /// Preloads every key the mixed workload will read.
    fn preload(&self) {
        for t in 0..THREADS {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS_PER_THREAD)
                .map(|i| (key_for(t, i), b"a09-preload-value-0123456789".to_vec()))
                .collect();
            let refs: Vec<(&[u8], &[u8])> =
                pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            for slot in self.routed.put_multi(&refs) {
                slot.expect("preload put");
            }
        }
    }

    fn teardown(self) {
        self.service.shutdown();
        self.client.finalize();
    }
}

/// Runs `THREADS` workers in lockstep, each performing
/// `ROUNDS_PER_THREAD` mixed rounds (one `put_multi` + one `get_multi`
/// of `BATCH` keys), and returns aggregate key-ops/s.
fn mixed_throughput(routed: &RoutedKv) -> f64 {
    let barrier = Barrier::new(THREADS + 1);
    let start = std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS_PER_THREAD {
                    let base = round * BATCH;
                    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..BATCH)
                        .map(|j| (key_for(t, base + j), b"a09-mixed-value-0123456789".to_vec()))
                        .collect();
                    let refs: Vec<(&[u8], &[u8])> =
                        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                    for slot in routed.put_multi(&refs) {
                        slot.expect("mixed put");
                    }
                    // Read a disjoint window so the gets are not served
                    // by a batch the same round just wrote.
                    let keys: Vec<Vec<u8>> =
                        (0..BATCH).map(|j| key_for(t, base + KEYS_PER_THREAD / 2 + j)).collect();
                    let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                    for slot in routed.get_multi(&key_refs) {
                        assert!(slot.expect("mixed get").is_some(), "preloaded key missing");
                    }
                }
            });
        }
        barrier.wait();
        std::time::Instant::now()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (THREADS * ROUNDS_PER_THREAD * 2 * BATCH) as f64 / elapsed
}

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel = cpus >= 4;
    println!("host parallelism: {cpus} (ratio assertion {})", if parallel { "on" } else { "off" });

    let mut table =
        Table::new(&["providers", "mixed throughput", "put_multi latency", "get_multi latency"]);
    let mut scaling = Vec::new();
    let mut rate_at = [0.0f64; PROVIDER_COUNTS.len()];

    for (slot, &providers) in PROVIDER_COUNTS.iter().enumerate() {
        let deployment = Deployment::new(providers);
        deployment.preload();

        let rate = mixed_throughput(&deployment.routed);
        rate_at[slot] = rate;

        // Single-thread batch latency on the warmed keyspace.
        let mut round = 0usize;
        let put_hist = measure(20, 200, || {
            let base = round * BATCH;
            round += 1;
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..BATCH)
                .map(|j| (key_for(0, base + j), b"a09-latency-value".to_vec()))
                .collect();
            let refs: Vec<(&[u8], &[u8])> =
                pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            for slot in deployment.routed.put_multi(&refs) {
                slot.expect("latency put");
            }
        });
        let mut round = 0usize;
        let get_hist = measure(20, 200, || {
            let base = round * BATCH;
            round += 1;
            let keys: Vec<Vec<u8>> = (0..BATCH).map(|j| key_for(0, base + j)).collect();
            let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            for slot in deployment.routed.get_multi(&key_refs) {
                slot.expect("latency get");
            }
        });

        let total_ops = (THREADS * ROUNDS_PER_THREAD * 2 * BATCH) as u64;
        table.row(&[
            providers.to_string(),
            fmt_rate(total_ops, total_ops as f64 / rate),
            fmt_latency(&put_hist),
            fmt_latency(&get_hist),
        ]);
        scaling.push(json!({
            "providers": providers,
            "mixed_key_ops_per_s": rate,
            "put_multi_p50_s": put_hist.quantile(0.5),
            "put_multi_p99_s": put_hist.quantile(0.99),
            "get_multi_p50_s": get_hist.quantile(0.5),
            "get_multi_p99_s": get_hist.quantile(0.99),
        }));

        deployment.teardown();
    }

    table.print("A9 — routed keyspace: mixed read/write scaling by provider count");

    let ratio = rate_at[PROVIDER_COUNTS.len() - 1] / rate_at[0];
    if parallel {
        assert!(
            ratio >= 2.0,
            "4-provider mixed throughput should be >= 2x the single-provider \
             baseline (measured {ratio:.2}x)"
        );
        println!("4-vs-1 provider mixed throughput: {ratio:.2}x (asserted >= 2x)");
    } else {
        println!(
            "4-vs-1 provider mixed throughput: {ratio:.2}x (host has < 4 CPUs; not asserted)"
        );
    }

    // Machine-readable record for `scripts/bench-multicore.sh`.
    let report = json!({
        "bench": "a09_routing",
        "measured": true,
        "host_parallelism": cpus,
        "asserted": parallel,
        "threads": THREADS,
        "batch": BATCH,
        "mixed_scaling": scaling,
        "ratio_4_vs_1_providers": ratio,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render report");
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_a09.json");
    std::fs::create_dir_all(out.parent().expect("parent")).expect("create dir");
    std::fs::write(&out, &rendered).expect("write report");
    println!("wrote {}", out.display());

    println!("claim: consistent-hash routing aggregates independent provider");
    println!("pipelines; batch latency stays flat while throughput scales.");
}
