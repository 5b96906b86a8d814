//! Crash-recovery coverage for the striped LSM write path (DESIGN.md
//! §15): a "crash" is dropping the database instance at a chosen point
//! and reopening the directory, with the flush-path fault hooks
//! (`LsmFailPoint`) pinning the crash instant inside the drain.
//!
//! The contract under test: every acknowledged write survives a crash
//! at ANY point of the seal → persist → truncate pipeline, and recovery
//! is idempotent when the crash left both a table and its source
//! segment behind. The same for compaction: a crash while the merged
//! table is being written, or after it is durable with its inputs only
//! partly unlinked, recovers the exact acknowledged state — an erased
//! key stays erased.

use std::path::Path;
use std::sync::{Arc, Mutex};

use mochi_util::TempDir;
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase, LsmFailPoint};
use mochi_yokan::Database;

/// Counts on-disk files by extension — the only view a crashed process
/// leaves behind.
fn files_with_ext(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == ext))
        .count()
}

/// Crash in the window between seal and flush: sealed segments exist on
/// disk, no table was ever written. A stalled background pool holds the
/// pipeline in exactly that state.
#[test]
fn acked_writes_survive_crash_between_seal_and_flush() {
    let dir = TempDir::new("crash-sealed").unwrap();
    let config = LsmConfig { memtable_bytes: 256, stripes: 2, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Never runs its tasks: every seal parks as a `.seg` file.
        assert!(db.set_background_executor(Arc::new(|_task| {})));
        for i in 0..100u32 {
            db.put(format!("seal-{i:04}").as_bytes(), &[b'a'; 64]).unwrap();
        }
        assert_eq!(db.table_count(), 0, "stalled pool must not have flushed");
        assert!(files_with_ext(dir.path(), "seg") > 0, "expected sealed segments on disk");
        // Crash: drop without flush. Acked state lives only in segments
        // and the active WALs.
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.len().unwrap(), 100);
    assert_eq!(db.get(b"seal-0042").unwrap().as_deref(), Some([b'a'; 64].as_slice()));
    // Recovered segments are queued for flush, not stranded.
    db.flush().unwrap();
    assert_eq!(db.sealed_bytes(), 0);
    assert_eq!(db.len().unwrap(), 100);
}

/// Crash inside the drain, before the SSTable hits disk: the fault hook
/// aborts maintenance, leaving only WAL state behind.
#[test]
fn crash_before_table_persist_replays_from_segments() {
    let dir = TempDir::new("crash-pre-table").unwrap();
    let config = LsmConfig { memtable_bytes: 256, stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Synchronous executor: the fault fires deterministically inside
        // the caller that sealed.
        assert!(db.set_background_executor(Arc::new(|task| task())));
        db.set_fail_point(LsmFailPoint::BeforeTablePersist);
        for i in 0..30u32 {
            db.put(format!("pre-{i:04}").as_bytes(), &[b'b'; 32]).unwrap();
        }
        assert!(db.take_background_error().is_some(), "fault never fired");
        assert_eq!(files_with_ext(dir.path(), "tbl"), 0);
        assert!(files_with_ext(dir.path(), "seg") > 0);
        // Crash with the injected fault still armed; a fresh instance
        // starts clean (fail points are per-instance).
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.len().unwrap(), 30);
    for i in 0..30u32 {
        assert_eq!(
            db.get(format!("pre-{i:04}").as_bytes()).unwrap().as_deref(),
            Some([b'b'; 32].as_slice()),
            "acked write pre-{i:04} lost in recovery"
        );
    }
}

/// Crash after the SSTable is durable but before its source segment is
/// truncated: recovery sees the same data twice (table + segment) and
/// must converge to a single copy.
#[test]
fn duplicate_table_and_segment_recover_idempotently() {
    let dir = TempDir::new("crash-dup").unwrap();
    let config = LsmConfig { memtable_bytes: 256, stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert!(db.set_background_executor(Arc::new(|task| task())));
        db.set_fail_point(LsmFailPoint::AfterTablePersist);
        for i in 0..30u32 {
            db.put(format!("dup-{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        assert!(db.take_background_error().is_some(), "fault never fired");
        // The crash window: table durable, segment not yet deleted.
        assert!(files_with_ext(dir.path(), "tbl") > 0);
        assert!(files_with_ext(dir.path(), "seg") > 0);
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.len().unwrap(), 30, "duplicate table+segment must not double-count");
    assert_eq!(db.get(b"dup-0007").unwrap().as_deref(), Some(b"v7".as_slice()));
    // Draining the recovered segment retires it for good.
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "seg"), 0);
    drop(db);
    // Second recovery from the now-clean layout: still idempotent.
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.len().unwrap(), 30);
    assert_eq!(db.get(b"dup-0029").unwrap().as_deref(), Some(b"v29".as_slice()));
}

/// Crash while background maintenance is genuinely concurrent: writers
/// overwrite keys while flushes race on real threads, then the process
/// "dies" mid-churn. Recovery must hold exactly the acknowledged final
/// values — no loss, no resurrection of overwritten data.
#[test]
fn mid_churn_crash_recovers_exactly_the_acked_state() {
    let dir = TempDir::new("crash-churn").unwrap();
    let config = LsmConfig { memtable_bytes: 1024, stripes: 4, ..LsmConfig::default() };
    let pending: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        let handles = Arc::clone(&pending);
        assert!(db.set_background_executor(Arc::new(move |task| {
            handles.lock().unwrap().push(std::thread::spawn(task));
        })));
        for round in 0..2u32 {
            for i in 0..200u32 {
                db.put(format!("churn-{i:04}").as_bytes(), format!("r{round}").as_bytes())
                    .unwrap();
            }
        }
        // Crash: drop with maintenance possibly mid-flight.
    }
    // The dropped instance's in-flight tasks abort via their dead weak
    // handle (or finish their current drain); wait them out so reopen
    // reads a quiescent directory, as a post-crash restart would.
    for handle in pending.lock().unwrap().drain(..) {
        handle.join().unwrap();
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.len().unwrap(), 200);
    for i in 0..200u32 {
        assert_eq!(
            db.get(format!("churn-{i:04}").as_bytes()).unwrap().as_deref(),
            Some(b"r1".as_slice()),
            "churn-{i:04} must hold the last acknowledged overwrite"
        );
    }
}

/// Every `torn-<i>` below `keys` holds `v<i>` and nothing else exists.
fn expect_torn_keys(db: &LsmDatabase, keys: u32) {
    assert_eq!(db.len().unwrap(), u64::from(keys));
    for i in 0..keys {
        assert_eq!(
            db.get(format!("torn-{i}").as_bytes()).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
            "acked write torn-{i} lost"
        );
    }
}

/// Crash while a flush is writing its table: the records are on disk,
/// the checksum trailer is not. The torn file must not be mistaken for
/// a table — everything in it is still in the sealed segment.
#[test]
fn torn_flush_does_not_brick_the_database() {
    let dir = TempDir::new("crash-torn-flush").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"torn-0", b"v0").unwrap();
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        assert!(db.flush().is_err(), "fault never fired");
        assert_eq!(files_with_ext(dir.path(), "seg"), 1);
    }
    let db = LsmDatabase::open(dir.path(), config).expect("reopen after a torn flush");
    assert_eq!(files_with_ext(dir.path(), "tmp"), 0, "leftover not cleaned up");
    assert_eq!(files_with_ext(dir.path(), "tbl"), 0);
    expect_torn_keys(&db, 1);
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
    expect_torn_keys(&db, 1);
}

/// The same crash inside a compaction, whose table is the longest write
/// there is: the inputs are untouched until the merged table is durable,
/// so the torn file is simply dropped.
#[test]
fn torn_merge_does_not_brick_the_database() {
    let dir = TempDir::new("crash-torn-merge").unwrap();
    let config = LsmConfig { max_tables: 8, stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        for i in 0..3u32 {
            db.put(format!("torn-{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            db.flush().unwrap();
        }
        assert_eq!(files_with_ext(dir.path(), "tbl"), 3);
    }
    // Reopened with narrower tiers, the next drain has nothing to flush
    // and one run to merge.
    let config = LsmConfig { max_tables: 2, ..config };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        assert!(db.flush().is_err(), "fault never fired");
    }
    let db = LsmDatabase::open(dir.path(), config).expect("reopen after a torn merge");
    assert_eq!(files_with_ext(dir.path(), "tmp"), 0, "leftover not cleaned up");
    assert_eq!(files_with_ext(dir.path(), "tbl"), 3, "inputs must outlive a torn merge");
    expect_torn_keys(&db, 3);
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "tbl"), 1, "the merge completes after recovery");
    expect_torn_keys(&db, 3);
}

/// Crash between "merged table durable" and "inputs unlinked" — after
/// the first unlink — with a key's value in the oldest input and its
/// tombstone in the newest. The run reaches the stripe's oldest table,
/// so the merged table carries no tombstone: the erased key stays
/// erased only because inputs are unlinked oldest first (newest first
/// would have left the value and removed the tombstone).
#[test]
fn crash_after_whole_stripe_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-merge-whole").unwrap();
    let config = LsmConfig { max_tables: 2, stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"doomed", b"value").unwrap();
        db.put(b"kept-0", b"a").unwrap();
        db.flush().unwrap();
        db.put(b"kept-1", b"b").unwrap();
        db.flush().unwrap();
        assert!(db.erase(b"doomed").unwrap());
        db.put(b"kept-0", b"a2").unwrap();
        db.set_fail_point(LsmFailPoint::AfterMergePersist);
        assert!(db.flush().is_err(), "fault never fired");
        // Merged table + the two newer inputs; the oldest is gone.
        assert_eq!(files_with_ext(dir.path(), "tbl"), 3);
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    let acked = vec![(b"kept-0".to_vec(), b"a2".to_vec()), (b"kept-1".to_vec(), b"b".to_vec())];
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    // The leftovers merge away; the state does not change.
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
    assert_eq!(db.dump().unwrap(), acked);
}

/// The same crash when the run stops short of the oldest table: a
/// tier-1 table holds the value, the run above it holds the tombstone,
/// and the merged table must keep it — nothing else stands between the
/// old value and a reader once the input that held the tombstone is
/// unlinked.
#[test]
fn crash_after_partial_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-merge-partial").unwrap();
    let config =
        LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1, ..LsmConfig::default() };
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> =
        (0..10u32).map(|i| (format!("big-{i}").into_bytes(), vec![b'x'; 100])).collect();
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // One batch seals once: a single table of ≥ 3 × 256 bytes.
        let batch: Vec<(&[u8], &[u8])> = acked
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .chain([(b"doomed".as_slice(), b"value".as_slice())])
            .collect();
        db.put_multi(&batch).unwrap();
        assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
        assert!(db.erase(b"doomed").unwrap());
        db.flush().unwrap();
        db.put(b"small-0", b"a").unwrap();
        db.flush().unwrap();
        db.put(b"small-1", b"b").unwrap();
        db.set_fail_point(LsmFailPoint::AfterMergePersist);
        assert!(db.flush().is_err(), "fault never fired");
        // The big table, the merged run, and the run's two newer inputs
        // — the input that held the tombstone is the one unlinked.
        assert_eq!(files_with_ext(dir.path(), "tbl"), 4);
    }
    acked.push((b"small-0".to_vec(), b"a".to_vec()));
    acked.push((b"small-1".to_vec(), b"b".to_vec()));
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    db.flush().unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}
