//! Seeded model check: the LSM backend behaves exactly like a model
//! `BTreeMap` under random operation sequences, including flushes,
//! compaction-inducing churn, and reopen (crash-restart with a clean
//! WAL). The same model as `lsm_proptest.rs`, driven by
//! `mochi_util::SeededRng` so that it builds without the `proptest`
//! crate; a failure prints the seed that replays it.

use std::collections::BTreeMap;
use std::path::Path;

use mochi_util::{SeededRng, TempDir};
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase};
use mochi_yokan::backend::Database;

const SEEDS: u64 = 200;
const OPS_PER_SEED: usize = 300;

/// Tiers of three (`max_tables + 1`): a table of 9 × 128 bytes or more
/// sits in the third tier. Two stripes, so ~300 operations fill them
/// that far while the reopen op still exercises routing stability.
const CONFIG: LsmConfig = LsmConfig { memtable_bytes: 128, max_tables: 2, stripes: 2 };
const THIRD_TIER_BYTES: u64 = 9 * 128;

/// Small key space (73 keys, the empty one included) so operations
/// collide often.
fn key(rng: &mut SeededRng) -> Vec<u8> {
    (0..rng.range(0, 3)).map(|_| b'a' + rng.range(0, 8) as u8).collect()
}

fn largest_table(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tbl"))
        .map(|e| e.metadata().unwrap().len())
        .max()
        .unwrap_or(0)
}

/// Runs one seed; returns the size of the largest table file it left.
fn run_seed(seed: u64) -> u64 {
    let mut rng = SeededRng::new(seed);
    let dir = TempDir::new("lsm-model").unwrap();
    let mut db = LsmDatabase::open(dir.path(), CONFIG).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for step in 0..OPS_PER_SEED {
        // put 4 : erase 2 : get 3 : list 1 : len 1 : flush 1 : reopen 1
        match rng.range(0, 13) {
            0..=3 => {
                let (k, mut v) = (key(&mut rng), vec![0u8; rng.range(0, 160)]);
                rng.fill_bytes(&mut v);
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            4..=5 => {
                let k = key(&mut rng);
                assert_eq!(db.erase(&k).unwrap(), model.remove(&k).is_some(), "step {step}");
            }
            6..=8 => {
                let k = key(&mut rng);
                assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned(), "step {step}");
            }
            9 => {
                let prefix: Vec<u8> = key(&mut rng).into_iter().take(1).collect();
                let got = db.list_keys(&prefix, None, usize::MAX).unwrap();
                let want: Vec<Vec<u8>> =
                    model.keys().filter(|k| k.starts_with(&prefix)).cloned().collect();
                assert_eq!(got, want, "step {step}");
            }
            10 => assert_eq!(db.len().unwrap(), model.len() as u64, "step {step}"),
            11 => db.flush().unwrap(),
            _ => {
                drop(db);
                db = LsmDatabase::open(dir.path(), CONFIG).unwrap();
            }
        }
    }
    // Final full comparison, after one more reopen.
    drop(db);
    let largest = largest_table(dir.path());
    let db = LsmDatabase::open(dir.path(), CONFIG).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(db.dump().unwrap(), want);
    largest
}

#[test]
fn lsm_matches_model_over_seeded_histories() {
    // The histories are independent and spend most of their time in
    // `sync_data`: a few workers overlap the waits.
    const WORKERS: u64 = 4;
    let reached_third_tier: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                scope.spawn(move || {
                    let mut reached = 0;
                    for seed in (worker..SEEDS).step_by(WORKERS as usize) {
                        match std::panic::catch_unwind(|| run_seed(seed)) {
                            Ok(largest) => reached += u64::from(largest >= THIRD_TIER_BYTES),
                            Err(_) => panic!("LSM diverged from the model: run_seed({seed})"),
                        }
                    }
                    reached
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("a seed failed, named above")).sum()
    });
    // The histories are long enough to be about tiered compaction at all.
    assert!(
        reached_third_tier * 2 > SEEDS,
        "only {reached_third_tier} of {SEEDS} histories built a third-tier table"
    );
}
