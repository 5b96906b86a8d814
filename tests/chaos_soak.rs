//! Seeded chaos soak for the resilient RPC plane (ISSUE 5 capstone).
//!
//! For each of three fixed seeds the soak deploys a small dynamic KV
//! service, then layers every fault class the fabric offers on top of a
//! live write workload:
//!
//! * probabilistic drops on the client's links (absorbed by retries),
//! * a partition isolating the client from the whole service,
//! * one blackholed member, detected by SWIM and rebuilt from its
//!   checkpoint on a spare node by the [`ResilienceManager`].
//!
//! Invariants checked after the fabric heals:
//!
//! 1. **Zero acked-write loss** — every `put` that returned `Ok` is
//!    readable afterwards, including writes to the blackholed member's
//!    database (checkpointed before the blackhole, served by the
//!    recovered incarnation that [`FailoverKv`] re-resolves).
//! 2. **Breaker convergence** — breakers tripped during the chaos window
//!    re-close (probe succeeds) for every destination still in the SSG
//!    view; the dead incarnation's breaker is excluded by the view.
//! 3. **No silent retry of non-idempotent RPCs** — a server-side
//!    invocation counter proves an undeclared RPC is sent exactly once
//!    per logical call even when the fabric eats the request.
//! 4. **Bounded post-heal latency** — once breakers are closed again an
//!    operation completes in ordinary time, not a retry-storm multiple.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use mochi_rs::core::{
    Cluster, DynamicService, FailoverKv, ResilienceConfig, ResilienceManager, ServiceConfig,
};
use mochi_rs::margo::{MargoConfig, MargoRuntime};
use mochi_rs::mercury::{Address, LinkScript};
use mochi_rs::util::time::wait_until;

const SEEDS: [u64; 3] = [1, 2, 3];

fn kv_namer(i: usize) -> Vec<mochi_rs::bedrock::ProviderSpec> {
    vec![mochi_rs::bedrock::ProviderSpec::new(format!("db{i}"), "yokan", 10 + i as u16)
        .with_config(json!({"backend": "lsm"}))]
}

/// Client runtime tuned so the soak exercises the whole resilience
/// machinery quickly: short backoffs, a low breaker threshold, and a
/// probe interval the convergence assertion can wait out.
fn soak_client(cluster: &Cluster, seed: u64) -> MargoRuntime {
    let mut config = MargoConfig::default();
    config.retry.max_attempts = 4;
    config.retry.base_backoff_ms = 2;
    config.retry.max_backoff_ms = 20;
    config.retry.seed = seed;
    config.breaker.failure_threshold = 4;
    config.breaker.probe_interval_ms = 100;
    MargoRuntime::init(cluster.fabric(), Address::tcp("client", 1), &config).unwrap()
}

/// Address of the member currently hosting `provider`, per the service's
/// own records.
fn host_of(service: &DynamicService, provider: &str) -> Address {
    service
        .addresses()
        .into_iter()
        .find(|a| {
            service
                .server(a)
                .is_some_and(|s| s.provider_names().contains(&provider.to_string()))
        })
        .unwrap_or_else(|| panic!("{provider} is hosted nowhere"))
}

fn run_soak(seed: u64) {
    let cluster = Cluster::new(4); // 3 members + 1 spare for recovery
    let faults = cluster.fabric().faults();
    faults.set_seed(seed);

    let service = DynamicService::deploy(&cluster, ServiceConfig::default(), 3, kv_namer).unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
        service.view().is_some_and(|v| v.len() == 3)
    }));
    let manager = ResilienceManager::attach(
        &service,
        ResilienceConfig { checkpoint_interval: Duration::from_millis(50), auto_recover: true },
    );

    let client = soak_client(&cluster, seed);
    let db0 = FailoverKv::new(&service, &client, "db0")
        .with_timeout(Duration::from_millis(100))
        .with_max_rounds(60);
    let db2 = FailoverKv::new(&service, &client, "db2")
        .with_timeout(Duration::from_millis(100))
        .with_max_rounds(60);

    // ---- Phase A: baseline writes on a healthy fabric -----------------
    let mut acked: Vec<(u32, &'static str)> = Vec::new();
    for i in 0..10u32 {
        db0.put(format!("a{i}").as_bytes(), b"baseline").unwrap();
        acked.push((i, "a"));
    }
    // Seed the soon-to-be-blackholed member's database, then wait for two
    // checkpoint sweeps so the acked writes are durably captured before
    // the member dies — recovery restores from checkpoint, and "acked"
    // only means "survives" once a sweep has seen it.
    for i in 0..10u32 {
        db2.put(format!("c{i}").as_bytes(), b"checkpointed").unwrap();
        acked.push((i, "c"));
    }
    let swept = manager.stats().checkpoints.load(Ordering::SeqCst);
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
            manager.stats().checkpoints.load(Ordering::SeqCst) >= swept + 2
        }),
        "checkpoint sweeps stalled"
    );

    // ---- Phase B: chaos ----------------------------------------------
    // Lossy links in both directions between the client and the world.
    faults.set_drop_probability(Some("client"), None, 0.15);
    faults.set_drop_probability(None, Some("client"), 0.15);
    // One blackholed member: peers only learn through SWIM timeouts.
    let victim = host_of(&service, "db2");
    faults.blackhole(&victim);

    // Writes keep flowing through the lossy fabric; every Ok is recorded.
    for i in 10..25u32 {
        if db0.put(format!("a{i}").as_bytes(), b"during-drops").is_ok() {
            acked.push((i, "a"));
        }
    }

    // Partition the client away from everything. Writes in this window
    // must fail — quickly trip the db0 breaker — and must NOT be acked.
    faults.set_partition(&[vec!["client".to_string()]]);
    let quick = FailoverKv::new(&service, &client, "db0")
        .with_timeout(Duration::from_millis(50))
        .with_max_rounds(3);
    for i in 0..4u32 {
        assert!(
            quick.put(format!("p{i}").as_bytes(), b"partitioned").is_err(),
            "a write during a full partition must not be acked"
        );
    }
    faults.heal_partition();

    // Meanwhile SWIM notices the blackholed member and the manager
    // rebuilds db2 from its checkpoint on the spare node.
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            manager.stats().recoveries.load(Ordering::SeqCst) >= 1
                && !service.addresses().contains(&victim)
        }),
        "blackholed member was not replaced"
    );
    // Retire the zombie before lifting the blackhole: the original
    // process must not rejoin the group its replacement now serves.
    cluster.crash(&victim).unwrap();

    // ---- Phase C: heal ------------------------------------------------
    faults.clear();
    for i in 25..35u32 {
        db0.put(format!("a{i}").as_bytes(), b"after-heal").unwrap();
        acked.push((i, "a"));
    }

    // Invariant 1: zero acked-write loss, across failover for db2.
    for (i, series) in &acked {
        let (kv, key) = match *series {
            "a" => (&db0, format!("a{i}")),
            _ => (&db2, format!("c{i}")),
        };
        assert!(
            kv.get(key.as_bytes()).unwrap().is_some(),
            "acked write {key} lost after heal (seed {seed})"
        );
    }

    // Invariant 2: breakers re-close for every destination still in the
    // view, within the probe interval (plus scheduling slack). Post-heal
    // traffic above supplied the successful probes.
    assert!(
        wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            let Some(view) = service.view() else { return false };
            #[expect(
                clippy::let_underscore_must_use,
                reason = "only the probe traffic matters: a failed call is one more probe"
            )]
            let _ = db0.len();
            client.breakers().all_closed_among(|addr| view.contains(addr))
        }),
        "breakers did not re-close after heal (seed {seed})"
    );

    // Invariant 4: with breakers closed an op completes in ordinary
    // time — not a retry-storm or probe-cycle multiple.
    let t0 = Instant::now();
    db0.put(b"final", b"latency-probe").unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "post-heal latency unbounded: {:?} (seed {seed})",
        t0.elapsed()
    );

    manager.stop();
    service.shutdown();
    client.finalize();
}

#[test]
fn chaos_soak_is_safe_across_seeds() {
    for seed in SEEDS {
        run_soak(seed);
    }
}

/// Invariant 3: an RPC that was never declared idempotent is sent exactly
/// once per logical call, even when the fabric eats the request — the
/// server-side counter is the ground truth, the client's monitoring the
/// cross-check.
#[test]
fn non_idempotent_rpc_is_sent_exactly_once_under_faults() {
    let cluster = Cluster::new(1);
    let faults = cluster.fabric().faults();
    faults.set_seed(7);

    let aux_addr = Address::tcp("aux", 1);
    let server = MargoRuntime::init_default(cluster.fabric(), aux_addr.clone()).unwrap();
    let hits = Arc::new(AtomicU64::new(0));
    let hits_on_server = Arc::clone(&hits);
    let rpc_id = server
        .register_typed::<u64, u64, _>("soak_incr", 0, None, move |n, _| {
            Ok(hits_on_server.fetch_add(n, Ordering::SeqCst) + n)
        })
        .unwrap();

    let client = soak_client(&cluster, 7);
    // Eat the first request on the client → aux link. A retryable
    // timeout results, but "soak_incr" was never declared idempotent, so
    // the runtime must not re-send it.
    faults.push_script(Some("client"), Some("aux"), LinkScript::FailFirst(1));
    let err = client
        .forward_timeout::<u64, u64>(&aux_addr, "soak_incr", 0, &1, Duration::from_millis(80))
        .unwrap_err();
    assert!(err.is_timeout(), "expected a timeout, got {err:?}");
    assert_eq!(hits.load(Ordering::SeqCst), 0, "dropped request must not be re-sent");

    // The client's own monitoring agrees: one timeout, zero retries.
    let stats = client.monitoring_json().expect("monitoring enabled by default");
    let peer = &stats["rpcs"][format!("65535:65535:{rpc_id}:0")]["origin"]
        [format!("sent to {aux_addr}")];
    assert_eq!(peer["retries"], 0);
    assert_eq!(peer["errors"]["timeout"], 1);

    // With the script exhausted the same call goes through — once.
    faults.clear_scripts(Some("client"), Some("aux"));
    let total: u64 = client
        .forward_timeout(&aux_addr, "soak_incr", 0, &1, Duration::from_millis(80))
        .unwrap();
    assert_eq!(total, 1);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    client.finalize();
    server.finalize();
}
