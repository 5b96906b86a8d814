//! Durable Raft state: term/vote metadata, the log, and snapshots.
//!
//! Layout in the node's data directory:
//!
//! * `meta.json` — `{term, voted_for}`, rewritten atomically on change;
//! * `log.bin` — length-prefixed JSON records, appended on new entries
//!   and rewritten on truncation (conflict resolution or compaction);
//! * `snapshot.bin` — latest snapshot: metadata + state machine bytes.

use std::io::Write;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use mochi_mercury::Address;
use mochi_util::{atomic_write, crc32};

use crate::types::{LogEntry, LogIndex, Term};

/// Durable term/vote pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Meta {
    /// Latest term seen.
    pub term: Term,
    /// Who we voted for in `term`.
    pub voted_for: Option<Address>,
}

/// Snapshot record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotRecord {
    /// Last log index the snapshot covers.
    pub last_included_index: LogIndex,
    /// Its term.
    pub last_included_term: Term,
    /// Membership at that point.
    pub membership: Vec<Address>,
    /// Serialized state machine.
    pub data: Vec<u8>,
}

/// File-backed Raft storage.
pub struct RaftStorage {
    dir: PathBuf,
}

impl RaftStorage {
    /// Opens storage rooted at `dir` (created if missing).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta.json")
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("log.bin")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    /// Persists term/vote.
    pub fn save_meta(&self, meta: &Meta) -> std::io::Result<()> {
        atomic_write(&self.meta_path(), &serde_json::to_vec(meta)?)
    }

    /// Loads term/vote (default when absent).
    pub fn load_meta(&self) -> Meta {
        std::fs::read(self.meta_path())
            .ok()
            .and_then(|data| serde_json::from_slice(&data).ok())
            .unwrap_or_default()
    }

    fn encode_entry(entry: &LogEntry) -> std::io::Result<Vec<u8>> {
        let body = serde_json::to_vec(entry)?;
        let mut record = Vec::with_capacity(8 + body.len());
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        record.extend_from_slice(&body);
        record.extend_from_slice(&crc32(&body).to_le_bytes());
        Ok(record)
    }

    /// Appends entries to the log file.
    pub fn append_entries(&self, entries: &[LogEntry]) -> std::io::Result<()> {
        let mut buffer = Vec::new();
        for entry in entries {
            buffer.extend_from_slice(&Self::encode_entry(entry)?);
        }
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(self.log_path())?;
        file.write_all(&buffer)?;
        Ok(())
    }

    /// Rewrites the whole log (truncation, compaction).
    pub fn rewrite_log(&self, entries: &[LogEntry]) -> std::io::Result<()> {
        let mut buffer = Vec::new();
        for entry in entries {
            buffer.extend_from_slice(&Self::encode_entry(entry)?);
        }
        atomic_write(&self.log_path(), &buffer)
    }

    /// Loads the log, tolerating a torn tail.
    pub fn load_log(&self) -> Vec<LogEntry> {
        let Ok(data) = std::fs::read(self.log_path()) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        // `[u32 len][body][u32 crc]` records; the first one that is short,
        // fails its checksum or does not parse is the torn tail.
        let mut rest = data.as_slice();
        while let Some((len, after)) = rest.split_first_chunk::<4>() {
            let len = u32::from_le_bytes(*len) as usize;
            let Some((body, after)) = after.split_at_checked(len) else { break };
            let Some((stored, after)) = after.split_first_chunk::<4>() else { break };
            if crc32(body) != u32::from_le_bytes(*stored) {
                break;
            }
            match serde_json::from_slice(body) {
                Ok(entry) => entries.push(entry),
                Err(_) => break,
            }
            rest = after;
        }
        entries
    }

    /// Persists a snapshot.
    pub fn save_snapshot(&self, snapshot: &SnapshotRecord) -> std::io::Result<()> {
        atomic_write(&self.snapshot_path(), &serde_json::to_vec(snapshot)?)
    }

    /// Loads the latest snapshot, if any.
    pub fn load_snapshot(&self) -> Option<SnapshotRecord> {
        let data = std::fs::read(self.snapshot_path()).ok()?;
        serde_json::from_slice(&data).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RaftCommand;
    use mochi_util::TempDir;

    fn entry(index: LogIndex, term: Term) -> LogEntry {
        LogEntry { term, index, command: RaftCommand::App(vec![index as u8]) }
    }

    #[test]
    fn meta_round_trip() {
        let dir = TempDir::new("raft-meta").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        assert_eq!(storage.load_meta(), Meta::default());
        let meta = Meta { term: 5, voted_for: Some(Address::tcp("n1", 1)) };
        storage.save_meta(&meta).unwrap();
        assert_eq!(storage.load_meta(), meta);
    }

    #[test]
    fn log_append_and_reload() {
        let dir = TempDir::new("raft-log").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        storage.append_entries(&[entry(1, 1), entry(2, 1)]).unwrap();
        storage.append_entries(&[entry(3, 2)]).unwrap();
        let log = storage.load_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[2].term, 2);
    }

    #[test]
    fn rewrite_truncates() {
        let dir = TempDir::new("raft-rewrite").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        storage.append_entries(&[entry(1, 1), entry(2, 1), entry(3, 1)]).unwrap();
        storage.rewrite_log(&[entry(1, 1)]).unwrap();
        assert_eq!(storage.load_log().len(), 1);
    }

    #[test]
    fn torn_tail_tolerated() {
        let dir = TempDir::new("raft-torn").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        storage.append_entries(&[entry(1, 1), entry(2, 1)]).unwrap();
        let path = dir.path().join("log.bin");
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();
        let log = storage.load_log();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = TempDir::new("raft-snap").unwrap();
        let storage = RaftStorage::open(dir.path()).unwrap();
        assert!(storage.load_snapshot().is_none());
        let snapshot = SnapshotRecord {
            last_included_index: 10,
            last_included_term: 3,
            membership: vec![Address::tcp("n1", 1)],
            data: vec![1, 2, 3],
        };
        storage.save_snapshot(&snapshot).unwrap();
        assert_eq!(storage.load_snapshot().unwrap(), snapshot);
    }
}
