//! Property tests on Raft's durable storage: arbitrary append/rewrite
//! schedules and torn tails never corrupt the prefix; snapshots and meta
//! round-trip exactly.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use mochi_mercury::Address;
use mochi_raft::storage::{Meta, RaftStorage, SnapshotRecord};
use mochi_raft::types::{LogEntry, RaftCommand};
use mochi_util::{SeededRng, TempDir};

const CASES: u64 = 256;

fn bytes(rng: &mut SeededRng, max_len: usize) -> Vec<u8> {
    (0..rng.range(0, max_len)).map(|_| rng.next_u64() as u8).collect()
}

fn entries(rng: &mut SeededRng, lo: usize, hi: usize) -> Vec<LogEntry> {
    (0..rng.range(lo, hi))
        .map(|_| LogEntry {
            index: rng.range_u64(1, 100),
            term: rng.range_u64(1, 10),
            command: RaftCommand::App(bytes(rng, 32)),
        })
        .collect()
}

#[test]
fn append_rewrite_schedules_round_trip() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let batches: Vec<Vec<LogEntry>> =
            (0..rng.range(1, 6)).map(|_| entries(&mut rng, 0, 8)).collect();
        let rewrite_at = rng.chance(0.5).then(|| rng.range(0, 5));
        let dir = TempDir::new("raft-storage-prop").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        let mut expected: Vec<LogEntry> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            if rewrite_at == Some(i) {
                // Rewrite with the first half of what we have so far.
                expected.truncate(expected.len() / 2);
                storage.rewrite_log(&expected).unwrap();
            }
            storage.append_entries(batch).unwrap();
            expected.extend(batch.iter().cloned());
        }
        assert_eq!(
            storage.load_log().unwrap(),
            expected,
            "append_rewrite_schedules_round_trip, seed {seed}"
        );
    }
}

#[test]
fn torn_tail_preserves_prefix() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("torn_tail_preserves_prefix, seed {seed}");
        let written = entries(&mut rng, 1, 10);
        let cut = rng.range(1, 64);
        let dir = TempDir::new("raft-torn-prop").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        storage.append_entries(&written).unwrap();
        let path = dir.path().join("log.bin");
        let data = std::fs::read(&path).unwrap();
        let keep = data.len().saturating_sub(cut % data.len().max(1));
        std::fs::write(&path, &data[..keep]).unwrap();
        let loaded = storage.load_log().unwrap();
        // The loaded log is a strict prefix of what was written.
        assert!(loaded.len() <= written.len(), "{at}");
        assert_eq!(&written[..loaded.len()], &loaded[..], "{at}");
    }
}

#[test]
fn meta_and_snapshot_round_trip() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("meta_and_snapshot_round_trip, seed {seed}");
        let dir = TempDir::new("raft-meta-prop").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        let meta = Meta {
            term: rng.next_u64(),
            voted_for: rng.chance(0.5).then(|| Address::tcp(format!("n{}", rng.range(0, 8)), 1)),
        };
        storage.save_meta(&meta).unwrap();
        assert_eq!(storage.load_meta(), meta, "{at}");

        let snapshot = SnapshotRecord {
            last_included_index: rng.next_u64(),
            last_included_term: rng.next_u64(),
            membership: vec![Address::tcp("a", 1)],
            data: bytes(&mut rng, 256),
        };
        storage.save_snapshot(&snapshot).unwrap();
        assert_eq!(storage.load_snapshot(), Some(snapshot), "{at}");
    }
}
