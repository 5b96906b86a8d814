//! Database backends behind Yokan's abstract interface.
//!
//! "A resource will generally follow an abstract interface so that the
//! functionality provided by the component can be implemented in various
//! ways" (paper §3.1). The [`Database`] trait is that interface; backends:
//!
//! * [`memory::MemoryDatabase`] (`"map"`) — ordered in-memory map,
//! * [`lsm::LsmDatabase`] (`"lsm"`) — WAL + memtable + SSTables with
//!   compaction; its on-disk files are what REMI migrates and what makes
//!   restarts after a crash meaningful.

pub mod lsm;
pub mod memory;

use std::fmt;
use std::path::Path;

/// A full key–value dump, sorted by key.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// What [`Database::read_with`] calls with the values it lends: one entry
/// per key asked for, `None` for a missing key.
pub type ReadVisitor<'v> = dyn FnMut(&[Option<&[u8]>]) + 'v;

use serde::{Deserialize, Serialize};

/// Errors raised by database backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YokanError {
    /// I/O failure (message includes the path).
    Io(String),
    /// On-disk data failed validation.
    Corrupt(String),
    /// Configuration or usage error.
    Config(String),
}

impl fmt::Display for YokanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YokanError::Io(m) => write!(f, "io: {m}"),
            YokanError::Corrupt(m) => write!(f, "corrupt database: {m}"),
            YokanError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for YokanError {}

impl From<std::io::Error> for YokanError {
    fn from(e: std::io::Error) -> Self {
        YokanError::Io(e.to_string())
    }
}

/// The abstract database interface served by a Yokan provider.
pub trait Database: Send + Sync {
    /// Backend name (`"map"`, `"lsm"`).
    fn backend_name(&self) -> &'static str;

    /// Stores `value` under `key`, replacing any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError>;

    /// Fetches the value under `key`.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError>;

    /// Removes `key`; returns whether it existed.
    fn erase(&self, key: &[u8]) -> Result<bool, YokanError>;

    /// Stores the encoded [`crate::version`] record `record` under `key`
    /// unless what is stored there is at least as fresh
    /// ([`crate::version::record_is_newer`]). Atomic per key: a concurrent
    /// write to the key lands wholly before or after. Returns whether the
    /// record was stored, and whether a live (non-tombstone) value was
    /// there before.
    fn put_if_newer(&self, key: &[u8], record: &[u8]) -> Result<(bool, bool), YokanError>;

    /// Stores several pairs. Backends override this to amortize lock
    /// acquisition (one stripe lock per shard group, one WAL append per
    /// batch); atomicity remains per-key.
    fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), YokanError> {
        for (key, value) in pairs {
            self.put(key, value)?;
        }
        Ok(())
    }

    /// Fetches several keys; `result[i]` is the value of `keys[i]`.
    fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Reads `keys` and lends what is stored to `visit`, called once:
    /// `values[i]` is the value of `keys[i]`, valid for the duration of the
    /// call. A provider frames its reply from inside `visit`, so a backend
    /// that can lend its stored bytes (the memory backend, under its shard
    /// locks) serves a read without copying a value out first.
    fn read_with(&self, keys: &[&[u8]], visit: &mut ReadVisitor<'_>) -> Result<(), YokanError> {
        let values = self.get_multi(keys)?;
        let lent: Vec<Option<&[u8]>> = values.iter().map(Option::as_deref).collect();
        visit(&lent);
        Ok(())
    }

    /// Whether `key` exists.
    fn exists(&self, key: &[u8]) -> Result<bool, YokanError> {
        Ok(self.get(key)?.is_some())
    }

    /// Lists up to `max` keys with prefix `prefix`, strictly after
    /// `start_after` (exclusive), in lexicographic order.
    fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError>;

    /// Number of live keys.
    fn len(&self) -> Result<u64, YokanError>;

    /// Whether the database holds no keys.
    fn is_empty(&self) -> Result<bool, YokanError> {
        Ok(self.len()? == 0)
    }

    /// Persists in-memory state to disk (no-op for pure-memory backends).
    fn flush(&self) -> Result<(), YokanError>;

    /// Removes every key.
    fn clear(&self) -> Result<(), YokanError>;

    /// Full contents, sorted by key (checkpoint support; fine at the
    /// scales this simulator targets).
    fn dump(&self) -> Result<KvPairs, YokanError>;

    /// Bulk-load contents (used by restore); existing keys are replaced.
    fn load(&self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), YokanError> {
        for (key, value) in pairs {
            self.put(key, value)?;
        }
        Ok(())
    }

}

/// Backend selection and tuning, from the provider's `config` JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendConfig {
    /// `"map"` or `"lsm"`.
    #[serde(default = "default_backend")]
    pub backend: String,
    /// LSM: seal the memtable after this many bytes.
    #[serde(default = "default_memtable_bytes")]
    pub memtable_bytes: usize,
    /// LSM: width of a compaction tier — once more than this many of a
    /// stripe's newest tables sit in one size tier, they merge into one
    /// table of the next ([`lsm::LsmConfig::max_tables`]).
    #[serde(default = "default_max_tables")]
    pub max_tables: usize,
    /// Memory backend: number of hash-striped shards (clamped to
    /// `1..=memory::MAX_SHARDS`; `1` reproduces the single-lock layout).
    #[serde(default = "default_shards")]
    pub shards: usize,
    /// LSM: number of independent stripes (clamped to
    /// `1..=lsm::MAX_STRIPES`; `1` reproduces the single-writer layout).
    /// The count is fixed at directory creation; reopens follow the
    /// on-disk manifest.
    #[serde(default = "default_lsm_stripes")]
    pub lsm_stripes: usize,
    /// LSM: name of the Argobots pool for background compaction.
    /// `None` (the default) keeps compaction inline on the writer.
    /// Interpreted by the Bedrock module (`crate::bedrock`), which
    /// creates the pool and a dedicated xstream on demand.
    #[serde(default)]
    pub background_pool: Option<String>,
}

fn default_backend() -> String {
    "map".into()
}

fn default_shards() -> usize {
    memory::DEFAULT_SHARDS
}

fn default_memtable_bytes() -> usize {
    4 << 20
}

fn default_max_tables() -> usize {
    4
}

fn default_lsm_stripes() -> usize {
    lsm::DEFAULT_STRIPES
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self {
            backend: default_backend(),
            memtable_bytes: default_memtable_bytes(),
            max_tables: default_max_tables(),
            shards: default_shards(),
            lsm_stripes: default_lsm_stripes(),
            background_pool: None,
        }
    }
}

/// Instantiates a backend in `dir` (the provider's data directory; only
/// used by file-backed backends). Compaction stays inline on the
/// writer; see [`create_backend_with`] to move it to a background
/// executor.
pub fn create_backend(
    config: &BackendConfig,
    dir: &Path,
) -> Result<Box<dyn Database>, YokanError> {
    create_backend_with(config, dir, None)
}

/// [`create_backend`], plus an optional background executor for the LSM
/// backend's compaction work (ignored by memory backends).
pub fn create_backend_with(
    config: &BackendConfig,
    dir: &Path,
    executor: Option<lsm::BackgroundExecutor>,
) -> Result<Box<dyn Database>, YokanError> {
    match config.backend.as_str() {
        "map" => Ok(Box::new(memory::MemoryDatabase::with_shards(config.shards))),
        "lsm" => {
            let db = lsm::LsmDatabase::open(
                dir,
                lsm::LsmConfig {
                    memtable_bytes: config.memtable_bytes,
                    max_tables: config.max_tables,
                    stripes: config.lsm_stripes,
                },
            )?;
            if let Some(executor) = executor {
                db.set_background_executor(executor);
            }
            Ok(Box::new(db))
        }
        other => Err(YokanError::Config(format!("unknown backend '{other}'"))),
    }
}

/// Writes a checkpoint dump: `[u64 count]` then, per pair,
/// `[u32 klen][u32 vlen][key][value]`, CRC-32-tailed.
pub fn write_dump(path: &Path, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), YokanError> {
    let mut buffer = Vec::new();
    buffer.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (key, value) in pairs {
        buffer.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buffer.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buffer.extend_from_slice(key);
        buffer.extend_from_slice(value);
    }
    let crc = mochi_util::crc32(&buffer);
    buffer.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(path, buffer).map_err(|e| YokanError::Io(format!("{}: {e}", path.display())))
}

/// The little-endian `u32` at `data[pos..pos + 4]`, `None` when `data`
/// ends before it does.
pub(crate) fn le_u32_at(data: &[u8], pos: usize) -> Option<u32> {
    data.get(pos..)?.first_chunk().map(|bytes| u32::from_le_bytes(*bytes))
}

/// Reads a checkpoint dump written by [`write_dump`].
pub fn read_dump(path: &Path) -> Result<KvPairs, YokanError> {
    let data =
        std::fs::read(path).map_err(|e| YokanError::Io(format!("{}: {e}", path.display())))?;
    let too_short = || YokanError::Corrupt("dump too short".into());
    let (body, crc_bytes) = data.split_last_chunk::<4>().ok_or_else(too_short)?;
    if mochi_util::crc32(body) != u32::from_le_bytes(*crc_bytes) {
        return Err(YokanError::Corrupt("dump checksum mismatch".into()));
    }
    let count = u64::from_le_bytes(*body.first_chunk::<8>().ok_or_else(too_short)?);
    // Each pair costs at least its two length words, so a larger count is
    // corruption the checksum cannot see — and must not size an allocation.
    if count > (body.len() / 8) as u64 {
        return Err(YokanError::Corrupt(format!("dump count {count} exceeds its body")));
    }
    let mut pairs = Vec::with_capacity(count as usize);
    let mut pos = 8usize;
    for _ in 0..count {
        let (Some(klen), Some(vlen)) = (le_u32_at(body, pos), le_u32_at(body, pos + 4)) else {
            return Err(YokanError::Corrupt("dump truncated".into()));
        };
        let (klen, vlen) = (klen as usize, vlen as usize);
        pos += 8;
        if pos + klen + vlen > body.len() {
            return Err(YokanError::Corrupt("dump truncated".into()));
        }
        let key = body[pos..pos + klen].to_vec();
        pos += klen;
        let value = body[pos..pos + vlen].to_vec();
        pos += vlen;
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// Shared conformance tests run against every backend.
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    pub fn basic_ops(db: &dyn Database) {
        assert_eq!(db.len().unwrap(), 0);
        assert!(db.is_empty().unwrap());
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(db.get(b"missing").unwrap(), None);
        assert!(db.exists(b"beta").unwrap());
        assert_eq!(db.len().unwrap(), 2);
        // Overwrite.
        db.put(b"alpha", b"one").unwrap();
        assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(b"one".as_slice()));
        assert_eq!(db.len().unwrap(), 2);
        // Erase.
        assert!(db.erase(b"alpha").unwrap());
        assert!(!db.erase(b"alpha").unwrap());
        assert_eq!(db.get(b"alpha").unwrap(), None);
        assert_eq!(db.len().unwrap(), 1);
    }

    pub fn listing(db: &dyn Database) {
        for key in ["a/1", "a/2", "a/3", "b/1", "b/2"] {
            db.put(key.as_bytes(), b"v").unwrap();
        }
        let keys = db.list_keys(b"a/", None, 10).unwrap();
        assert_eq!(keys, vec![b"a/1".to_vec(), b"a/2".to_vec(), b"a/3".to_vec()]);
        // Pagination.
        let page1 = db.list_keys(b"", None, 2).unwrap();
        assert_eq!(page1.len(), 2);
        let page2 = db.list_keys(b"", Some(&page1[1]), 2).unwrap();
        assert_eq!(page2, vec![b"a/3".to_vec(), b"b/1".to_vec()]);
        // Erased keys don't list.
        db.erase(b"a/2").unwrap();
        let keys = db.list_keys(b"a/", None, 10).unwrap();
        assert_eq!(keys, vec![b"a/1".to_vec(), b"a/3".to_vec()]);
    }

    pub fn dump_and_load(db: &dyn Database, other: &dyn Database) {
        for i in 0..50u32 {
            db.put(format!("k{i:03}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        db.erase(b"k007").unwrap();
        let dump = db.dump().unwrap();
        assert_eq!(dump.len(), 49);
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0), "dump must be sorted");
        other.load(&dump).unwrap();
        assert_eq!(other.len().unwrap(), 49);
        assert_eq!(other.get(b"k010").unwrap(), db.get(b"k010").unwrap());
        assert_eq!(other.get(b"k007").unwrap(), None);
    }

    pub fn clear(db: &dyn Database) {
        db.put(b"x", b"1").unwrap();
        db.clear().unwrap();
        assert_eq!(db.len().unwrap(), 0);
        assert_eq!(db.get(b"x").unwrap(), None);
        db.put(b"y", b"2").unwrap(); // usable after clear
        assert_eq!(db.len().unwrap(), 1);
    }

    pub fn multi_ops(db: &dyn Database) {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..40u32)
            .map(|i| (format!("m{i:03}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        let borrowed: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        db.put_multi(&borrowed).unwrap();
        assert_eq!(db.len().unwrap(), 40);
        // get_multi preserves request order, including misses.
        let query: Vec<&[u8]> = vec![b"m005", b"absent", b"m039", b"m000"];
        let values = db.get_multi(&query).unwrap();
        assert_eq!(values[0].as_deref(), Some(5u32.to_le_bytes().as_slice()));
        assert_eq!(values[1], None);
        assert_eq!(values[2].as_deref(), Some(39u32.to_le_bytes().as_slice()));
        assert_eq!(values[3].as_deref(), Some(0u32.to_le_bytes().as_slice()));
        // put_multi overwrites like put.
        db.put_multi(&[(b"m005".as_slice(), b"new".as_slice())]).unwrap();
        assert_eq!(db.get(b"m005").unwrap().as_deref(), Some(b"new".as_slice()));
        assert_eq!(db.len().unwrap(), 40);
        // Empty batches are fine.
        db.put_multi(&[]).unwrap();
        assert_eq!(db.get_multi(&[]).unwrap(), Vec::<Option<Vec<u8>>>::new());
    }

    pub fn put_if_newer(db: &dyn Database) {
        use crate::version::encode_record;
        let (v1, v2, dead) =
            (encode_record(1, Some(b"a")), encode_record(2, Some(b"b")), encode_record(3, None));
        assert_eq!(db.put_if_newer(b"k", &v2).unwrap(), (true, false), "absent: stored");
        assert_eq!(db.put_if_newer(b"k", &v1).unwrap(), (false, true), "older: refused");
        assert_eq!(db.put_if_newer(b"k", &v2).unwrap(), (false, true), "same record: no-op");
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(v2.as_slice()));
        assert_eq!(db.put_if_newer(b"k", &dead).unwrap(), (true, true), "tombstone wins");
        assert_eq!(db.put_if_newer(b"k", &v2).unwrap(), (false, false), "no resurrection");
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(dead.as_slice()));
        // A raw value is version 0: any record replaces it, and it was live.
        db.put(b"raw", b"legacy").unwrap();
        assert_eq!(db.put_if_newer(b"raw", &v1).unwrap(), (true, true));
        // A key the backend erased is absent, not a stale incumbent.
        assert!(db.erase(b"raw").unwrap());
        assert_eq!(db.put_if_newer(b"raw", &v1).unwrap(), (true, false));
    }

    pub fn empty_and_binary_keys(db: &dyn Database) {
        db.put(b"", b"empty-key").unwrap();
        assert_eq!(db.get(b"").unwrap().as_deref(), Some(b"empty-key".as_slice()));
        let binary_key = [0u8, 255, 7, 0, 128];
        db.put(&binary_key, b"").unwrap();
        assert_eq!(db.get(&binary_key).unwrap().as_deref(), Some(b"".as_slice()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_dispatches() {
        let dir = mochi_util::TempDir::new("yokan-factory").unwrap();
        let map = create_backend(&BackendConfig::default(), dir.path()).unwrap();
        assert_eq!(map.backend_name(), "map");
        let lsm_config = BackendConfig { backend: "lsm".into(), ..Default::default() };
        let lsm = create_backend(&lsm_config, dir.path()).unwrap();
        assert_eq!(lsm.backend_name(), "lsm");
        let bad = BackendConfig { backend: "rocksdb".into(), ..Default::default() };
        assert!(create_backend(&bad, dir.path()).is_err());
    }

    #[test]
    fn dump_with_an_absurd_pair_count_is_corrupt() {
        let dir = mochi_util::TempDir::new("yokan-dump").unwrap();
        let path = dir.path().join("dump.ykn");
        let pairs = vec![(b"k".to_vec(), b"v".to_vec())];
        write_dump(&path, &pairs).unwrap();
        assert_eq!(read_dump(&path).unwrap(), pairs);

        // The same dump claiming u64::MAX pairs, under a correct checksum.
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() - 4);
        data[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = mochi_util::crc32(&data);
        data.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, data).unwrap();
        assert!(matches!(read_dump(&path), Err(YokanError::Corrupt(_))));
    }

    #[test]
    fn config_defaults_from_json() {
        let config: BackendConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(config.backend, "map");
        assert!(config.memtable_bytes > 0);
    }
}
