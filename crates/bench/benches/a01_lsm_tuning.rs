//! Ablation A1 — LSM tuning behind experiment E11.
//!
//! DESIGN.md §7 claims the ingest/analysis trade-off of E11 rests on two
//! component-level facts:
//!   (a) small memtables + narrow compaction tiers make ingestion pay
//!       a maintenance cost per memtable — a table write and its
//!       `sync_data` per flush, and each byte rewritten once per tier:
//!       O(n log n) in per-shard data;
//!   (b) scan cost depends on the number of live SSTables, which the
//!       same tuning controls.
//! This ablation sweeps the two knobs in isolation (no network) to show
//! each effect, justifying both the "ingest-tuned" and "scan-tuned"
//! configurations used by E11 and the `hepnos_workflow` example.
//!
//! A third knob arrived with the striped write path (DESIGN.md §15): the
//! stripe count. The second table sweeps stripes × writer threads to show
//! where parallel ingest stops paying — the gating numbers live in
//! `a04_contention`, this table is the tuning-oriented view.

use std::sync::{Arc, Barrier};

use mochi_bench::{fmt_rate, fmt_secs, Table};
use mochi_util::time::Stopwatch;
use mochi_util::TempDir;
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase};
use mochi_yokan::Database;

const KEYS: usize = 4000;
const VALUE: usize = 512;

fn main() {
    let mut table = Table::new(&[
        "memtable",
        "max_tables",
        "ingest",
        "tables after",
        "full scan",
    ]);
    for (memtable_bytes, max_tables) in [
        (4 << 10, 2usize),
        (16 << 10, 3),
        (64 << 10, 4),
        (256 << 10, 4),
        (64 << 20, 8), // scan-tuned: never flushes at this scale
    ] {
        let dir = TempDir::new("a01").unwrap();
        // One stripe: this sweep isolates the memtable/compaction knobs,
        // so stripe parallelism must not blur the picture.
        let config = LsmConfig { memtable_bytes, max_tables, stripes: 1 };
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        let value = vec![0xAAu8; VALUE];
        let sw = Stopwatch::start();
        for i in 0..KEYS {
            db.put(format!("event/{i:08}").as_bytes(), &value).unwrap();
        }
        let ingest = sw.elapsed_secs();
        let tables = db.table_count();

        let sw = Stopwatch::start();
        let mut cursor: Option<Vec<u8>> = None;
        let mut seen = 0usize;
        loop {
            let keys = db.list_keys(b"event/", cursor.as_deref(), 64).unwrap();
            if keys.is_empty() {
                break;
            }
            for key in &keys {
                if db.get(key).unwrap().is_some() {
                    seen += 1;
                }
            }
            cursor = keys.last().cloned();
        }
        assert_eq!(seen, KEYS);
        let scan = sw.elapsed_secs();

        table.row(&[
            mochi_util::bytesize::format_bytes(memtable_bytes as u64),
            max_tables.to_string(),
            fmt_secs(ingest),
            tables.to_string(),
            fmt_secs(scan),
        ]);
    }
    table.print(&format!(
        "A1 — LSM tuning ablation ({KEYS} keys x {VALUE} B, single backend, no network)"
    ));
    println!("shape: small memtables inflate ingest (seal+compaction churn)");
    println!("while large memtables avoid it — the asymmetry E11's dynamic");
    println!("reconfiguration exploits per step.");
    println!();

    stripe_sweep();
}

/// Stripes × writer threads: parallel ingest throughput (puts/s).
fn stripe_sweep() {
    let thread_counts = [1usize, 2, 4, 8];
    let mut table = Table::new(&["stripes", "1 thr", "2 thr", "4 thr", "8 thr"]);
    for stripes in [1usize, 2, 4, 8] {
        let mut row = vec![stripes.to_string()];
        for &threads in &thread_counts {
            let dir = TempDir::new("a01-stripes").unwrap();
            let config = LsmConfig { memtable_bytes: 64 << 10, max_tables: 4, stripes };
            let db = Arc::new(LsmDatabase::open(dir.path(), config).unwrap());
            let per_thread = KEYS / threads;
            let barrier = Arc::new(Barrier::new(threads + 1));
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let db = Arc::clone(&db);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let value = vec![0x55u8; VALUE];
                        barrier.wait();
                        for i in 0..per_thread {
                            db.put(format!("w{t}/{i:08}").as_bytes(), &value).unwrap();
                        }
                    })
                })
                .collect();
            barrier.wait();
            let sw = Stopwatch::start();
            for worker in workers {
                worker.join().unwrap();
            }
            let elapsed = sw.elapsed_secs();
            row.push(fmt_rate((per_thread * threads) as u64, elapsed));
        }
        table.row(&row);
    }
    table.print(&format!(
        "A1b — striped ingest ({KEYS} puts x {VALUE} B total, threads pinned to disjoint key ranges)"
    ));
    println!("shape: one stripe serializes every writer on one WAL; stripe");
    println!("counts at or above the thread count let ingest scale until the");
    println!("sync path (shared disk) becomes the limit.");
}
