//! Property tests on Raft's durable storage: arbitrary append/rewrite
//! schedules and torn tails never corrupt the prefix; snapshots and meta
//! round-trip exactly.

use proptest::prelude::*;

use mochi_mercury::Address;
use mochi_raft::storage::{Meta, RaftStorage, SnapshotRecord};
use mochi_raft::types::{LogEntry, RaftCommand};
use mochi_util::TempDir;

fn entry_strategy() -> impl Strategy<Value = LogEntry> {
    (1u64..100, 1u64..10, proptest::collection::vec(any::<u8>(), 0..32)).prop_map(
        |(index, term, payload)| LogEntry {
            index,
            term,
            command: RaftCommand::App(payload),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn append_rewrite_schedules_round_trip(
        batches in proptest::collection::vec(
            proptest::collection::vec(entry_strategy(), 0..8), 1..6),
        rewrite_at in proptest::option::of(0usize..5),
    ) {
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
        prop_assert_eq!(storage.load_log().unwrap(), expected);
    }

    #[test]
    fn torn_tail_preserves_prefix(
        entries in proptest::collection::vec(entry_strategy(), 1..10),
        cut in 1usize..64,
    ) {
        let dir = TempDir::new("raft-torn-prop").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        storage.append_entries(&entries).unwrap();
        let path = dir.path().join("log.bin");
        let data = std::fs::read(&path).unwrap();
        let keep = data.len().saturating_sub(cut % data.len().max(1));
        std::fs::write(&path, &data[..keep]).unwrap();
        let loaded = storage.load_log().unwrap();
        // The loaded log is a strict prefix of what was written.
        prop_assert!(loaded.len() <= entries.len());
        prop_assert_eq!(&entries[..loaded.len()], &loaded[..]);
    }

    #[test]
    fn meta_and_snapshot_round_trip(
        term in any::<u64>(),
        vote in proptest::option::of(0u32..8),
        snap_index in any::<u64>(),
        snap_term in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let dir = TempDir::new("raft-meta-prop").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        let meta = Meta {
            term,
            voted_for: vote.map(|n| Address::tcp(format!("n{n}"), 1)),
        };
        storage.save_meta(&meta).unwrap();
        prop_assert_eq!(storage.load_meta(), meta);

        let snapshot = SnapshotRecord {
            last_included_index: snap_index,
            last_included_term: snap_term,
            membership: vec![Address::tcp("a", 1)],
            data,
        };
        storage.save_snapshot(&snapshot).unwrap();
        prop_assert_eq!(storage.load_snapshot().unwrap(), snapshot);
    }
}
