//! The `"map"` backend: an ordered in-memory map, hash-striped over N
//! independently locked shards so concurrent execution streams stop
//! serializing on one global `RwLock`.
//!
//! Single-key operations (`put`/`get`/`erase`/`exists`) touch exactly one
//! shard. Whole-table operations (`list_keys`/`len`/`clear`/`dump`)
//! acquire every shard in ascending stripe index — which is ascending
//! lock rank (`rank::YOKAN_SHARD_BASE + i`) — and hold all guards
//! simultaneously, so they observe an atomic cut of the table and cannot
//! deadlock against each other or against single-shard writers. The bulk
//! operations (`put_multi`/`get_multi`) group keys by shard and take each
//! shard lock once per group, in ascending order.

use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

use mochi_util::fnv1a64;
use mochi_util::ordered_lock::{rank, OrderedReadGuard, OrderedRwLock, OrderedWriteGuard};

use super::{Database, YokanError};
use crate::version::{decode_record, record_is_newer};

/// Upper bound on the shard count; the lock hierarchy reserves ranks
/// `YOKAN_SHARD_BASE .. YOKAN_SHARD_BASE + YOKAN_SHARD_MAX` for stripes.
pub const MAX_SHARDS: usize = rank::YOKAN_SHARD_MAX as usize;

/// Default shard count: enough stripes that 8 execution streams collide
/// rarely (birthday bound ≈ 1 − e^(−8²/2·16) ≈ 0.86 per instant, but each
/// collision only costs one shard, not the whole table), small enough
/// that whole-table scans stay cheap.
pub const DEFAULT_SHARDS: usize = 16;

type Shard = BTreeMap<Vec<u8>, Vec<u8>>;

/// In-memory ordered map. Fast, volatile: crashes lose everything, which
/// is exactly the backend the checkpoint/restore experiments contrast
/// with the LSM backend.
#[derive(Debug)]
pub struct MemoryDatabase {
    shards: Box<[OrderedRwLock<Shard>]>,
}

impl Default for MemoryDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryDatabase {
    /// Creates an empty database with [`DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty database with `shards` stripes (clamped to
    /// `1..=MAX_SHARDS`). `with_shards(1)` reproduces the historical
    /// single-`RwLock` layout and serves as the contention baseline in
    /// the `a04_contention` benchmark.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        Self {
            shards: (0..shards)
                .map(|i| {
                    OrderedRwLock::new(rank::YOKAN_SHARD_BASE + i as u32, "yokan.shard", Shard::new())
                })
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &[u8]) -> &OrderedRwLock<Shard> {
        &self.shards[(fnv1a64(key) % self.shards.len() as u64) as usize]
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        (fnv1a64(key) % self.shards.len() as u64) as usize
    }

    /// Read-locks every shard in ascending rank order (an atomic cut).
    fn read_all(&self) -> Vec<OrderedReadGuard<'_, Shard>> {
        self.shards.iter().map(|shard| shard.read()).collect()
    }

    /// Write-locks every shard in ascending rank order.
    fn write_all(&self) -> Vec<OrderedWriteGuard<'_, Shard>> {
        self.shards.iter().map(|shard| shard.write()).collect()
    }
}

impl Database for MemoryDatabase {
    fn backend_name(&self) -> &'static str {
        "map"
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        self.shard_of(key).write().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn put_if_newer(&self, key: &[u8], record: &[u8]) -> Result<(bool, bool), YokanError> {
        // One walk of the map under the shard's write lock.
        match self.shard_of(key).write().entry(key.to_vec()) {
            Entry::Vacant(slot) => {
                slot.insert(record.to_vec());
                Ok((true, false))
            }
            Entry::Occupied(mut slot) => {
                let was_live = !decode_record(slot.get()).tombstone;
                let newer = record_is_newer(record, slot.get());
                if newer {
                    slot.insert(record.to_vec());
                }
                Ok((newer, was_live))
            }
        }
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        Ok(self.shard_of(key).read().get(key).cloned())
    }

    fn erase(&self, key: &[u8]) -> Result<bool, YokanError> {
        Ok(self.shard_of(key).write().remove(key).is_some())
    }

    fn exists(&self, key: &[u8]) -> Result<bool, YokanError> {
        Ok(self.shard_of(key).read().contains_key(key))
    }

    fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), YokanError> {
        // Group by shard so each stripe lock is taken once, in ascending
        // rank order, instead of once per key.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (key, _)) in pairs.iter().enumerate() {
            groups[self.shard_index(key)].push(i);
        }
        for (shard, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut map = shard.write();
            for &i in group {
                let (key, value) = pairs[i];
                map.insert(key.to_vec(), value.to_vec());
            }
        }
        Ok(())
    }

    fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            groups[self.shard_index(key)].push(i);
        }
        let mut values: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (shard, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let map = shard.read();
            for &i in group {
                values[i] = map.get(keys[i]).cloned();
            }
        }
        Ok(values)
    }

    fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        let guards = self.read_all();
        let lower = match start_after {
            Some(s) if s >= prefix => Bound::Excluded(s.to_vec()),
            _ => Bound::Included(prefix.to_vec()),
        };
        // Each shard contributes at most `max` candidates; the merged,
        // sorted list is then truncated to the global `max`.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for shard in &guards {
            keys.extend(
                shard
                    .range((lower.clone(), Bound::Unbounded))
                    .map(|(k, _)| k)
                    .take_while(|k| k.starts_with(prefix))
                    .take(max)
                    .cloned(),
            );
        }
        keys.sort_unstable();
        keys.truncate(max);
        Ok(keys)
    }

    fn len(&self) -> Result<u64, YokanError> {
        let guards = self.read_all();
        Ok(guards.iter().map(|shard| shard.len() as u64).sum())
    }

    fn flush(&self) -> Result<(), YokanError> {
        Ok(())
    }

    fn clear(&self) -> Result<(), YokanError> {
        let mut guards = self.write_all();
        for shard in &mut guards {
            shard.clear();
        }
        Ok(())
    }

    fn dump(&self) -> Result<super::KvPairs, YokanError> {
        let guards = self.read_all();
        let mut pairs: super::KvPairs = Vec::new();
        for shard in &guards {
            pairs.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn basic_ops() {
        conformance::basic_ops(&MemoryDatabase::new());
    }

    #[test]
    fn listing() {
        conformance::listing(&MemoryDatabase::new());
    }

    #[test]
    fn dump_and_load() {
        conformance::dump_and_load(&MemoryDatabase::new(), &MemoryDatabase::new());
    }

    #[test]
    fn clear() {
        conformance::clear(&MemoryDatabase::new());
    }

    #[test]
    fn empty_and_binary_keys() {
        conformance::empty_and_binary_keys(&MemoryDatabase::new());
    }

    #[test]
    fn multi_ops() {
        conformance::multi_ops(&MemoryDatabase::new());
    }

    #[test]
    fn put_if_newer() {
        conformance::put_if_newer(&MemoryDatabase::new());
    }

    #[test]
    fn list_keys_start_after_before_prefix() {
        let db = MemoryDatabase::new();
        db.put(b"b1", b"").unwrap();
        db.put(b"b2", b"").unwrap();
        // start_after lexically before the prefix: must not skip matches.
        let keys = db.list_keys(b"b", Some(b"a"), 10).unwrap();
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn conformance_holds_for_every_shard_count() {
        for shards in [1, 2, 3, 16, MAX_SHARDS] {
            let db = MemoryDatabase::with_shards(shards);
            assert_eq!(db.shard_count(), shards);
            conformance::basic_ops(&db);
            db.clear().unwrap();
            conformance::listing(&db);
            db.clear().unwrap();
            conformance::multi_ops(&db);
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(MemoryDatabase::with_shards(0).shard_count(), 1);
        assert_eq!(MemoryDatabase::with_shards(10_000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn keys_disperse_over_shards() {
        let db = MemoryDatabase::new();
        let hit: std::collections::BTreeSet<usize> =
            (0..256u32).map(|i| db.shard_index(format!("key-{i}").as_bytes())).collect();
        // 256 keys over 16 shards: every shard should see traffic.
        assert_eq!(hit.len(), db.shard_count());
    }

    #[test]
    fn whole_table_ops_see_atomic_cut_across_shards() {
        // len() locks all shards at once; with an insert-only writer
        // running concurrently the observed count must never shrink.
        use std::sync::Arc;
        let db = Arc::new(MemoryDatabase::new());
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..500u32 {
                    db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
                }
            })
        };
        let mut last = 0;
        for _ in 0..200 {
            let now = db.len().unwrap();
            assert!(now >= last, "len went backwards: {last} -> {now}");
            last = now;
        }
        writer.join().unwrap();
        assert_eq!(db.len().unwrap(), 500);
    }
}
