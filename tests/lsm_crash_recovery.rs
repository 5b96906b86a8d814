//! Crash-recovery coverage for the striped LSM write path (DESIGN.md
//! §15): a "crash" is dropping the database instance at a chosen point
//! and reopening the directory, with the fault hooks (`LsmFailPoint`)
//! pinning the crash instant inside a merge or failing a file step, or
//! with the directory edited by hand into what a crash leaves.
//!
//! The contract under test: every acknowledged write survives a crash
//! at ANY point of the seal → merge pipeline — it is in the unsealed tail
//! of a value log, in a sealed range no merged table covers, or in
//! exactly one current `.tbl` — and no write is acknowledged that a
//! reopen would not find. A merged table retires its inputs by naming
//! them, so a crash after it is durable recovers the exact acknowledged
//! state — an erased key stays erased. A `clear` retires a stripe the
//! same way, so a crash inside it leaves all or nothing. A bad record
//! before a log's last seal, or a table that references a missing log, is
//! corruption, not a torn tail.

use std::path::{Path, PathBuf};

use mochi_util::TempDir;
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase, LsmFailPoint, MAX_STRIPES};
use mochi_yokan::backend::YokanError;
use mochi_yokan::Database;

/// The files in `dir` with extension `ext`, by name — the only view a
/// crashed process leaves behind.
fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()).map(|e| e.path());
    let mut found: Vec<PathBuf> =
        entries.filter(|p| p.extension().is_some_and(|x| x == ext)).collect();
    found.sort();
    found
}

fn pairs(items: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    items.iter().map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec())).collect()
}

/// Crash right after seals that nothing merged. The sealed ranges of the
/// logs *are* the tables: there is nothing to redo and nothing queued.
#[test]
fn acked_writes_survive_crash_after_seals_nothing_merged() {
    let dir = TempDir::new("crash-sealed").unwrap();
    // Tiers wider than the ~14 seals per stripe, so no seal completes a
    // run and nothing merges; logs of 289 seals.
    let config = LsmConfig { memtable_bytes: 256, max_tables: 16, stripes: 2 };
    let sealed = {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        for i in 0..100u32 {
            db.put(format!("seal-{i:04}").as_bytes(), &[b'a'; 64]).unwrap();
        }
        assert_eq!(db.compaction_bytes_written(), 0, "wide tiers must not have merged");
        assert_eq!(files(dir.path(), "tbl").len(), 0);
        assert!(db.table_count() > 2, "expected sealed ranges");
        assert_eq!(files(dir.path(), "log").len(), 2, "one log per stripe holds every range");
        db.table_count()
        // Crash: drop without flush. Acked state lives only in the logs.
    };
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.table_count(), sealed, "every range reopens as the table it was");
    assert_eq!(db.len().unwrap(), 100);
    assert_eq!(db.get(b"seal-0042").unwrap().as_deref(), Some([b'a'; 64].as_slice()));
    db.flush().unwrap();
    assert_eq!(db.len().unwrap(), 100);
}

/// Crash while a seal's `SEAL` marker is half written: the records before
/// it are an unterminated tail again, so they replay into the memtable and
/// the next seal marks them. A seal loses nothing at any instant.
#[test]
fn a_torn_seal_marker_leaves_its_records_to_the_next_seal() {
    let dir = TempDir::new("crash-torn-seal").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"old", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"old", b"2").unwrap();
        db.put(b"new", b"3").unwrap();
        assert!(db.erase(b"new").unwrap());
        db.flush().unwrap();
        assert_eq!(db.table_count(), 2);
    }
    // What the seal had written when the process died: half its marker.
    let log = files(dir.path(), "log").remove(0);
    let data = std::fs::read(&log).unwrap();
    std::fs::write(&log, &data[..data.len() - 10]).unwrap();
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.table_count(), 1, "the torn seal's records are the memtable again");
    assert_eq!(db.dump().unwrap(), pairs(&[("old", "2")]));
    db.put(b"after", b"4").unwrap();
    db.flush().unwrap();
    drop(db);
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.table_count(), 2);
    assert_eq!(db.dump().unwrap(), pairs(&[("after", "4"), ("old", "2")]));
}

/// A directory written before value logs — an active `wal-<s>.log`, a
/// sealed `.seg` — is refused, naming the file, not half read.
#[test]
fn a_directory_of_an_older_layout_is_refused_naming_the_file() {
    for old in ["wal-000.log", "sst-000-0000000001.seg", "wal-000-0000000000.seg"] {
        let dir = TempDir::new("crash-legacy").unwrap();
        std::fs::write(dir.path().join("lsm-stripes"), "1\n").unwrap();
        std::fs::write(dir.path().join(old), b"").unwrap();
        match LsmDatabase::open(dir.path(), LsmConfig::default()) {
            Err(YokanError::Corrupt(why)) => assert!(why.contains(old), "{why}"),
            other => panic!("{old}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A log append that fails half-way (a full disk) must not leave its
/// half in the log: every write acknowledged after it would sit behind a
/// torn record.
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

/// Crash mid-churn: writers overwrite keys while their seals merge
/// inline, then the process "dies" without a flush. Recovery must hold
/// exactly the acknowledged final values — no loss, no resurrection of
/// overwritten data.
#[test]
fn mid_churn_crash_recovers_exactly_the_acked_state() {
    let dir = TempDir::new("crash-churn").unwrap();
    // ~9 seals per stripe in tiers of 3: several merges per stripe.
    let config = LsmConfig { memtable_bytes: 128, max_tables: 2, stripes: 4 };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        for round in 0..2u32 {
            for i in 0..200u32 {
                db.put(format!("churn-{i:04}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
        }
        assert!(db.compaction_bytes_written() > 0, "the churn must have merged");
        // Crash: drop without flush.
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
/// table — nothing covers the ranges until the merged table is durable,
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
        assert_eq!(db.table_count(), 3);
    }
    // Reopened with narrower tiers, the next flush has nothing to seal
    // and one run to merge.
    let config = LsmConfig { max_tables: 2, ..config };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        assert!(db.flush().is_err(), "fault never fired");
        assert_eq!(files(dir.path(), "tmp").len(), 1);
    }
    let db = LsmDatabase::open(dir.path(), config).expect("reopen after a torn merge");
    assert_eq!(files(dir.path(), "tmp").len(), 0, "leftover not cleaned up");
    assert_eq!(files(dir.path(), "tbl").len(), 0);
    assert_eq!(db.table_count(), 3, "the ranges must outlive a torn merge");
    expect_torn_keys(&db, 3);
    db.flush().unwrap();
    assert_eq!(files(dir.path(), "tbl").len(), 1, "the merge completes after recovery");
    assert_eq!(db.table_count(), 1);
    expect_torn_keys(&db, 3);
}

/// A stripe whose oldest table is a merged `.tbl` holding `doomed`, with
/// its tombstone and an overwrite in the two ranges above it: the flush
/// that seals the second merges all three — the whole stripe, so the
/// product drops both the tombstone and the value.
fn whole_stripe_run(db: &LsmDatabase) {
    db.put(b"doomed", b"value").unwrap();
    db.put(b"kept-0", b"a").unwrap();
    db.flush().unwrap();
    db.put(b"kept-1", b"b").unwrap();
    db.flush().unwrap();
    db.put(b"kept-2", b"c").unwrap();
    db.flush().unwrap();
    assert_eq!(db.table_count(), 1, "three ranges merged into one table");
    assert!(db.erase(b"doomed").unwrap());
    db.flush().unwrap();
    db.put(b"kept-0", b"a2").unwrap();
}

const WHOLE: LsmConfig = LsmConfig { memtable_bytes: 4 << 20, max_tables: 2, stripes: 1 };

/// Crash after the merged table is durable, before any input is unlinked.
/// The older `.tbl` still holds the erased key's value; the product names
/// it as an input, so `open` does not load it back — and the ranges its
/// watermark covers stay merged.
#[test]
fn crash_after_whole_stripe_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-merge-whole").unwrap();
    let acked = pairs(&[("kept-0", "a2"), ("kept-1", "b"), ("kept-2", "c")]);
    {
        let db = LsmDatabase::open(dir.path(), WHOLE).unwrap();
        whole_stripe_run(&db);
        db.set_fail_point(LsmFailPoint::AfterMergePersist);
        assert!(db.flush().is_err(), "fault never fired");
        // The product and its input table, both on disk.
        assert_eq!(files(dir.path(), "tbl").len(), 2);
        assert_eq!(db.table_count(), 1);
    }
    let db = LsmDatabase::open(dir.path(), WHOLE).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    assert_eq!(db.table_count(), 1, "merged ranges and the retired table stay merged");
    assert_eq!(files(dir.path(), "tbl").len(), 1, "open unlinks the retired table");
    db.flush().unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}

/// The same merge when the first unlink after it — of the retired table
/// — *fails* and the process lives: the merge stands, the error surfaces
/// from `flush()`, and the table left on disk stays retired through the
/// next merge, which retries the unlink. When the process dies with such
/// a table still on disk, `open` keeps it retired, and the merges after it
/// change nothing.
#[test]
fn failed_unlink_after_whole_stripe_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-unlink-fails").unwrap();
    let acked = pairs(&[("kept-0", "a2"), ("kept-1", "b"), ("kept-2", "c")]);
    let leftover = {
        let db = LsmDatabase::open(dir.path(), WHOLE).unwrap();
        whole_stripe_run(&db);
        db.set_fail_point(LsmFailPoint::InputUnlinkFails);
        let err = db.flush().expect_err("the parked unlink error surfaces");
        assert!(err.to_string().contains("unlink"), "{err}");
        db.set_fail_point(LsmFailPoint::None);
        assert_eq!(db.table_count(), 1);
        assert_eq!(files(dir.path(), "tbl").len(), 2);
        assert_eq!(db.dump().unwrap(), acked);
        // Another merge above it lists it again, and retries the unlink.
        for name in ["x", "y", "z"] {
            db.put(name.as_bytes(), b"1").unwrap();
            db.flush().unwrap();
        }
        assert_eq!(files(dir.path(), "tbl").len(), 1);
        // The whole-stripe merge that drops x, y and z fails to unlink the
        // table it retires, and the process dies.
        for name in ["x", "y", "z"] {
            assert!(db.erase(name.as_bytes()).unwrap());
        }
        let retired = files(dir.path(), "tbl").remove(0);
        db.set_fail_point(LsmFailPoint::InputUnlinkFails);
        db.flush().expect_err("the parked unlink error surfaces");
        assert!(retired.exists());
        retired
    };
    let db = LsmDatabase::open(dir.path(), WHOLE).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.get(b"x").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    assert!(!leftover.exists(), "open unlinks the retired table");
    for name in ["p", "q", "r"] {
        db.put(name.as_bytes(), b"2").unwrap();
        db.flush().unwrap();
        assert!(db.erase(name.as_bytes()).unwrap());
    }
    db.flush().unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}

/// The same crash when the run stops short of the oldest table: a
/// higher-tier `.tbl` holds the value, the run above it holds the
/// tombstone, and the merged table must keep it — nothing else stands
/// between the old value and a reader once the ranges are covered.
#[test]
fn crash_after_partial_merge_keeps_the_erased_key_erased() {
    let dir = TempDir::new("crash-merge-partial").unwrap();
    let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Three batches that seal once each merge into one table of the
        // third tier (≥ 9 × 256 bytes), which holds `doomed`.
        for batch in 0..3u32 {
            let big: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
                .map(|i| (format!("big-{batch}-{i}").into_bytes(), vec![b'x'; 100]))
                .collect();
            let refs: Vec<(&[u8], &[u8])> = big
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .chain([(b"doomed".as_slice(), b"value".as_slice())])
                .collect();
            db.put_multi(&refs).unwrap();
            acked.extend(big);
        }
        assert_eq!((db.table_count(), files(dir.path(), "tbl").len()), (1, 1));
        assert!(db.erase(b"doomed").unwrap());
        db.flush().unwrap();
        db.put(b"small-0", b"a").unwrap();
        db.flush().unwrap();
        db.put(b"small-1", b"b").unwrap();
        db.set_fail_point(LsmFailPoint::AfterMergePersist);
        assert!(db.flush().is_err(), "fault never fired");
        // The big table and the merged run.
        assert_eq!(files(dir.path(), "tbl").len(), 2);
        assert_eq!(db.table_count(), 2);
    }
    acked.push((b"small-0".to_vec(), b"a".to_vec()));
    acked.push((b"small-1".to_vec(), b"b".to_vec()));
    acked.sort();
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert_eq!(db.get(b"doomed").unwrap(), None, "erased key resurrected");
    assert_eq!(db.dump().unwrap(), acked);
    assert_eq!(db.table_count(), 2);
    db.flush().unwrap();
    assert_eq!(db.dump().unwrap(), acked);
}

/// Rot is not a torn tail: a flipped byte in a record that a later `SEAL`
/// closes fails `open` as `Corrupt` instead of silently ending the log
/// there and losing every range after it.
#[test]
fn a_flipped_byte_before_a_logs_last_seal_is_corrupt() {
    let dir = TempDir::new("crash-rot").unwrap();
    let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        db.put(b"first", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"second", b"2").unwrap();
        db.flush().unwrap();
        db.put(b"tail", b"3").unwrap();
    }
    let log = files(dir.path(), "log").remove(0);
    let mut data = std::fs::read(&log).unwrap();
    data[10] ^= 0x01; // inside the key of the first record
    std::fs::write(&log, data).unwrap();
    match LsmDatabase::open(dir.path(), config) {
        Err(YokanError::Corrupt(why)) => {
            assert!(why.contains("before the log's last seal"), "{why}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A merged table whose values live in a log that is not there cannot be
/// read: `Corrupt`, naming the table, rather than failing at the first
/// get.
#[test]
fn a_table_that_references_a_missing_log_is_corrupt() {
    let dir = TempDir::new("crash-missing-log").unwrap();
    let config = LsmConfig { max_tables: 1, stripes: 1, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        for key in ["a", "b"] {
            db.put(key.as_bytes(), b"value").unwrap();
            db.flush().unwrap();
        }
        assert_eq!(files(dir.path(), "tbl").len(), 1);
    }
    for log in files(dir.path(), "log") {
        std::fs::remove_file(log).unwrap();
    }
    match LsmDatabase::open(dir.path(), config) {
        Err(YokanError::Corrupt(why)) => {
            assert!(why.contains(".tbl") && why.contains("missing"), "{why}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A log whose values a merge freed while the process lived is unlinked
/// then; a crash before that unlink leaves it behind, and `open` — which
/// finds no table that references it and no range its tables do not
/// cover — unlinks it.
#[test]
fn a_log_that_nothing_references_is_unlinked_by_open() {
    let dir = TempDir::new("crash-dead-log").unwrap();
    // Logs of (1 + 1)² = 4 seals; one key, overwritten by every seal.
    let config = LsmConfig { memtable_bytes: 256, max_tables: 1, stripes: 1 };
    let (first, saved) = {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        let first = files(dir.path(), "log").remove(0);
        let mut saved = Vec::new();
        for round in 0..12u8 {
            db.put(b"k", &[round; 300]).unwrap();
            if round == 3 {
                // Its fourth seal moved the stripe on to a new log.
                saved = std::fs::read(&first).unwrap();
            }
        }
        assert!(!first.exists(), "the running process unlinks it");
        (first, saved)
    };
    // What a crash before that unlink would have left.
    std::fs::write(&first, saved).unwrap();
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    assert!(!first.exists(), "open must unlink a log nothing references");
    assert_eq!(db.get(b"k").unwrap(), Some(vec![11; 300]));
    assert_eq!(db.len().unwrap(), 1);
}

/// A stripe with a merged table, a range above it and an unsealed tail
/// that erases a key of the table; returns what it holds.
fn clearable(db: &LsmDatabase) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut acked = Vec::new();
    for i in 0..26u32 {
        let (key, value) = (format!("c-{i:02}").into_bytes(), vec![i as u8; 40]);
        db.put(&key, &value).unwrap();
        acked.push((key, value));
    }
    assert!(db.erase(b"c-03").unwrap());
    acked.remove(3);
    assert_eq!(files(db.dir(), "tbl").len(), 1);
    assert!(db.table_count() >= 2, "a range above the table");
    acked
}

const CLEARED: LsmConfig = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };

/// `clear` retires a stripe the way a merge retires its run: it seals the
/// tail, moves on to a fresh log, and publishes one empty `.tbl` that
/// lists every table as an input and whose watermark covers every seal.
/// A crash before that table is durable brings everything back — the old
/// log ends in a seal, so it may sit below the fresh one.
#[test]
fn a_crash_before_clears_table_is_durable_keeps_everything() {
    let dir = TempDir::new("crash-clear-torn").unwrap();
    let acked = {
        let db = LsmDatabase::open(dir.path(), CLEARED).unwrap();
        let acked = clearable(&db);
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        assert!(db.clear().is_err(), "fault never fired");
        assert_eq!(files(dir.path(), "log").len(), 2, "the old log and the fresh one");
        acked
    };
    let db = LsmDatabase::open(dir.path(), CLEARED).expect("a sealed log below a newer one");
    assert_eq!(db.dump().unwrap(), acked);
    db.clear().unwrap();
    assert_eq!(db.len().unwrap(), 0);
    drop(db);
    let db = LsmDatabase::open(dir.path(), CLEARED).unwrap();
    assert_eq!(db.len().unwrap(), 0);
}

/// A crash — or a failed unlink — after `clear`'s table is durable,
/// before any old file is gone: `open` finds the old table retired and
/// the old log merged, unlinks both, and the stripe is empty.
#[test]
fn a_crash_after_clears_table_is_durable_opens_empty() {
    for fault in [LsmFailPoint::AfterMergePersist, LsmFailPoint::InputUnlinkFails] {
        let dir = TempDir::new("crash-clear-done").unwrap();
        {
            let db = LsmDatabase::open(dir.path(), CLEARED).unwrap();
            clearable(&db);
            db.set_fail_point(fault);
            let cleared = db.clear();
            db.set_fail_point(LsmFailPoint::None);
            match fault {
                LsmFailPoint::AfterMergePersist => assert!(cleared.is_err(), "fault never fired"),
                _ => {
                    cleared.unwrap();
                    let parked = db.take_background_error().expect("the unlink error is parked");
                    assert!(parked.to_string().contains("unlink"), "{parked}");
                }
            }
            assert_eq!(db.len().unwrap(), 0, "{fault:?}");
            // Nothing old was unlinked.
            assert_eq!(files(dir.path(), "tbl").len(), 2, "{fault:?}");
            assert_eq!(files(dir.path(), "log").len(), 2, "{fault:?}");
        }
        let db = LsmDatabase::open(dir.path(), CLEARED).unwrap();
        assert_eq!(db.dump().unwrap(), pairs(&[]), "{fault:?}: cleared data came back");
        assert_eq!(files(dir.path(), "tbl").len(), 1, "{fault:?}: the old table outlived open");
        assert_eq!(files(dir.path(), "log").len(), 1, "{fault:?}: the old log outlived open");
        db.put(b"after", b"1").unwrap();
        db.flush().unwrap();
        drop(db);
        let db = LsmDatabase::open(dir.path(), CLEARED).unwrap();
        assert_eq!(db.dump().unwrap(), pairs(&[("after", "1")]));
    }
}

/// A process that died while creating the stripe manifest leaves its
/// temporary file, never an empty manifest: the directory opens.
#[test]
fn a_leftover_manifest_tmp_is_ignored() {
    let dir = TempDir::new("crash-manifest").unwrap();
    std::fs::write(dir.path().join("lsm-stripes.tmp"), b"").unwrap();
    let config = LsmConfig { stripes: 2, ..LsmConfig::default() };
    {
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.stripe_count(), 2);
        db.put(b"k", b"v").unwrap();
    }
    std::fs::write(dir.path().join("lsm-stripes.tmp"), b"").unwrap();
    let db = LsmDatabase::open(dir.path(), LsmConfig { stripes: 4, ..config }).unwrap();
    assert_eq!(db.stripe_count(), 2);
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"v".as_slice()));
}

/// A manifest that is not a stripe count in `1..=MAX_STRIPES` — empty
/// (what a manifest renamed into place before its bytes were durable
/// reads as after a power loss), not a number, zero, or too large — is
/// refused as corruption naming it, and left as it was: the directory
/// never opens with the configured count instead.
#[test]
fn a_bad_stripe_manifest_is_refused_naming_it() {
    let too_many = format!("{}\n", MAX_STRIPES + 1);
    for manifest in ["", "x", "0", too_many.as_str()] {
        let dir = TempDir::new("crash-bad-manifest").unwrap();
        let path = dir.path().join("lsm-stripes");
        std::fs::write(&path, manifest).unwrap();
        let config = LsmConfig { stripes: 2, ..LsmConfig::default() };
        match LsmDatabase::open(dir.path(), config) {
            Err(YokanError::Corrupt(why)) => {
                assert!(why.contains("lsm-stripes"), "{manifest:?}: {why}")
            }
            Ok(db) => panic!("{manifest:?}: opened with {} stripes", db.stripe_count()),
            Err(other) => panic!("{manifest:?}: expected Corrupt, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), manifest);
    }
}
