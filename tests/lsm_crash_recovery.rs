//! Crash-recovery coverage for the striped LSM write path (DESIGN.md
//! §15): a "crash" is dropping the database instance at a chosen point
//! and reopening the directory, with the fault hooks (`LsmFailPoint`)
//! pinning the crash instant inside a merge or failing a file step.
//!
//! The contract under test: every acknowledged write survives a crash
//! at ANY point of the seal → merge pipeline — it is in the active WAL
//! or in exactly one `sst-*` file — and no write is acknowledged that a
//! reopen would not find. A crash while a merged table is being written,
//! or after it is durable with its inputs only partly unlinked, or an
//! unlink that fails, recovers the exact acknowledged state — an erased
//! key stays erased.

use std::path::Path;
use std::sync::{Arc, Mutex};

use mochi_util::{crc32, TempDir};
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

/// One WAL record as the backend frames it: op (1 = put, 2 = erase), key
/// and value lengths, key, value, CRC-32 of all that.
fn wal_record(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut record = vec![op];
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(&(value.len() as u32).to_le_bytes());
    record.extend_from_slice(key);
    record.extend_from_slice(value);
    let crc = crc32(&record);
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

/// Crash right after seals that nothing merged — a stalled background
/// pool holds the pipeline in exactly that state. The `.seg` files *are*
/// the tables: there is nothing to redo and nothing queued.
#[test]
fn acked_writes_survive_crash_after_seals_nothing_merged() {
    let dir = TempDir::new("crash-sealed").unwrap();
    // Tiers wide enough that the ~14 seals per stripe stay below the two
    // full tiers past which a writer would merge inline.
    let config = LsmConfig { memtable_bytes: 256, max_tables: 8, stripes: 2 };
    let sealed = {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Never runs its tasks: no merge ever happens.
        assert!(db.set_background_executor(Arc::new(|_task| {})));
        for i in 0..100u32 {
            db.put(format!("seal-{i:04}").as_bytes(), &[b'a'; 64]).unwrap();
        }
        assert_eq!(db.compaction_bytes_written(), 0, "stalled pool must not have merged");
        assert_eq!(files_with_ext(dir.path(), "tbl"), 0);
        assert!(db.table_count() > 0, "expected sealed segments");
        assert_eq!(files_with_ext(dir.path(), "seg"), db.table_count());
        db.table_count()
        // Crash: drop without flush. Acked state lives only in segments
        // and the active WALs.
    };
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.table_count(), sealed, "every segment reopens as the table it was");
    assert_eq!(db.len().unwrap(), 100);
    assert_eq!(db.get(b"seal-0042").unwrap().as_deref(), Some([b'a'; 64].as_slice()));
    db.flush().unwrap();
    assert_eq!(db.len().unwrap(), 100);
}

/// Crash between the seal's rename and the creation of the fresh WAL:
/// the stripe's log already carries its table name and no `wal-<s>.log`
/// exists. `open` loads the one and creates the other.
#[test]
fn crash_between_the_seals_rename_and_the_fresh_wal_loses_nothing() {
    let dir = TempDir::new("crash-rename").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"old", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"old", b"2").unwrap();
        db.put(b"new", b"3").unwrap();
        assert!(db.erase(b"new").unwrap());
    }
    // What the seal had done when the process died.
    let wal = dir.path().join("wal-000.log");
    std::fs::rename(&wal, dir.path().join("sst-000-0000000001.seg")).unwrap();
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert!(wal.exists());
    assert_eq!(db.table_count(), 2);
    assert_eq!(db.dump().unwrap(), vec![(b"old".to_vec(), b"2".to_vec())]);
    db.put(b"after", b"4").unwrap();
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "seg"), 3);
    assert_eq!(db.len().unwrap(), 2);
}

/// A directory from before sealed segments were tables: `sst-*` files,
/// a sealed `wal-<s>-<epoch>.seg` awaiting a flush that no longer
/// exists, an active WAL. The segment is newer than every table and
/// older than the WAL, and joins the sequence there.
#[test]
fn a_sealed_segment_of_the_old_layout_reopens_on_top_of_the_tables() {
    let dir = TempDir::new("crash-legacy").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"a", b"table").unwrap();
        db.put(b"b", b"table").unwrap();
        db.put(b"c", b"table").unwrap();
        db.flush().unwrap();
        db.put(b"c", b"wal").unwrap();
    }
    let segment = [
        wal_record(1, b"a", b"segment"),
        wal_record(2, b"b", b""),
        wal_record(1, b"c", b"segment"),
        wal_record(1, b"d", b"segment"),
    ]
    .concat();
    std::fs::write(dir.path().join("wal-000-0000000000.seg"), segment).unwrap();
    let acked = vec![
        (b"a".to_vec(), b"segment".to_vec()),
        (b"c".to_vec(), b"wal".to_vec()),
        (b"d".to_vec(), b"segment".to_vec()),
    ];
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.dump().unwrap(), acked);
    assert!(dir.path().join("sst-000-0000000001.seg").exists(), "adopted into the sequence");
    assert_eq!(files_with_ext(dir.path(), "seg"), 2);
    db.flush().unwrap();
    drop(db);
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}

/// A WAL append that fails half-way (a full disk) must not leave its
/// half in the log: replay stops at a torn record, and every write
/// acknowledged after it would be lost with it.
#[test]
fn a_failed_wal_append_leaves_no_torn_record_behind_later_writes() {
    let dir = TempDir::new("crash-torn-append").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    let mut acked = vec![(b"before".to_vec(), b"0".to_vec())];
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"before", b"0").unwrap();
        db.set_fail_point(LsmFailPoint::WalAppendTorn);
        assert!(db.put(b"failed", &[b'x'; 100]).is_err(), "fault never fired");
        db.set_fail_point(LsmFailPoint::None);
        assert_eq!(db.get(b"failed").unwrap(), None, "a failed put is not applied");
        for i in 0..10u32 {
            let (key, value) = (format!("later-{i}").into_bytes(), vec![i as u8; 20]);
            db.put(&key, &value).unwrap();
            acked.push((key, value));
        }
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.dump().unwrap(), acked, "reopen holds exactly the acknowledged writes");
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

/// Crash while a merge is writing its table: the records are on disk,
/// the checksum trailer is not. The torn file must not be mistaken for a
/// table — the inputs are untouched until the merged table is durable,
/// so it is simply dropped.
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
        assert_eq!(files_with_ext(dir.path(), "seg"), 3);
    }
    // Reopened with narrower tiers, the next flush has nothing to seal
    // and one run to merge.
    let config = LsmConfig { max_tables: 2, ..config };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        assert!(db.flush().is_err(), "fault never fired");
    }
    let db = LsmDatabase::open(dir.path(), config).expect("reopen after a torn merge");
    assert_eq!(files_with_ext(dir.path(), "tmp"), 0, "leftover not cleaned up");
    assert_eq!(files_with_ext(dir.path(), "seg"), 3, "inputs must outlive a torn merge");
    expect_torn_keys(&db, 3);
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "seg"), 0);
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
        assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
        assert_eq!(files_with_ext(dir.path(), "seg"), 2);
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    let acked = vec![(b"kept-0".to_vec(), b"a2".to_vec()), (b"kept-1".to_vec(), b"b".to_vec())];
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    // The leftovers merge away; the state does not change.
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
    assert_eq!(files_with_ext(dir.path(), "seg"), 0);
    assert_eq!(db.dump().unwrap(), acked);
}

/// The same merge when the oldest input's unlink *fails* (and the process
/// lives): unlinking must stop there. Were the newer inputs removed all
/// the same, what survives would not be a suffix of the run — the value
/// without its tombstone — and the next `open` would load it back.
#[test]
fn failed_unlink_after_whole_stripe_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-unlink-fails").unwrap();
    let config = LsmConfig { max_tables: 2, stripes: 1, ..LsmConfig::default() };
    let acked = vec![(b"kept-0".to_vec(), b"a2".to_vec()), (b"kept-1".to_vec(), b"b".to_vec())];
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"doomed", b"value").unwrap();
        db.put(b"kept-0", b"a").unwrap();
        db.flush().unwrap();
        db.put(b"kept-1", b"b").unwrap();
        db.flush().unwrap();
        assert!(db.erase(b"doomed").unwrap());
        db.put(b"kept-0", b"a2").unwrap();
        db.set_fail_point(LsmFailPoint::InputUnlinkFails);
        let err = db.flush().expect_err("the parked unlink error surfaces");
        assert!(err.to_string().contains("unlink"), "{err}");
        db.set_fail_point(LsmFailPoint::None);
        // The merge itself stands; all three inputs are still on disk.
        assert_eq!(db.table_count(), 1);
        assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
        assert_eq!(files_with_ext(dir.path(), "seg"), 3);
        assert_eq!(db.dump().unwrap(), acked);
    }
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    db.flush().unwrap();
    assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
    assert_eq!(files_with_ext(dir.path(), "seg"), 0);
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
    let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
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
        assert_eq!(files_with_ext(dir.path(), "seg"), 1);
        assert!(db.erase(b"doomed").unwrap());
        db.flush().unwrap();
        db.put(b"small-0", b"a").unwrap();
        db.flush().unwrap();
        db.put(b"small-1", b"b").unwrap();
        db.set_fail_point(LsmFailPoint::AfterMergePersist);
        assert!(db.flush().is_err(), "fault never fired");
        // The big table, the merged run, and the run's two newer inputs
        // — the input that held the tombstone is the one unlinked.
        assert_eq!(files_with_ext(dir.path(), "tbl"), 1);
        assert_eq!(files_with_ext(dir.path(), "seg"), 3);
    }
    acked.push((b"small-0".to_vec(), b"a".to_vec()));
    acked.push((b"small-1".to_vec(), b"b".to_vec()));
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    db.flush().unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}
