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
//! operations (`put_multi`/`get_multi`/`read_with`) lock the shards their
//! keys touch — each once, in ascending order, all held until the batch is
//! done — so a batch sees (or makes) an atomic cut of those shards too.

use std::collections::BTreeMap;
use std::ops::Bound;

use mochi_util::fnv1a64;
use mochi_util::ordered_lock::{rank, OrderedReadGuard, OrderedRwLock, OrderedWriteGuard};

use super::{Database, ReadVisitor, YokanError};
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
        &self.shards[self.shard_index(key)]
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        (fnv1a64(key) % self.shards.len() as u64) as usize
    }

    /// Locks (with `lock`) the shards `keys` touch, each once and in
    /// ascending rank order.
    fn lock_touched<'s, 'k, G>(
        &'s self,
        keys: impl Iterator<Item = &'k [u8]>,
        lock: impl Fn(&'s OrderedRwLock<Shard>) -> G,
    ) -> Held<G> {
        // `MAX_SHARDS` is 64: one bit per shard.
        let touched = keys.fold(0u64, |mask, key| mask | 1 << self.shard_index(key));
        let mut guards = Vec::with_capacity(touched.count_ones() as usize);
        let mut rest = touched;
        while rest != 0 {
            guards.push(lock(&self.shards[rest.trailing_zeros() as usize]));
            rest &= rest - 1;
        }
        Held { touched, guards }
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

/// Guards of the shards a batch touches ([`MemoryDatabase::lock_touched`]).
struct Held<G> {
    touched: u64,
    /// One guard per set bit of `touched`, lowest shard first.
    guards: Vec<G>,
}

impl<G> Held<G> {
    /// Position of `shard`'s guard: the touched shards below it.
    fn at(&self, shard: usize) -> usize {
        (self.touched & ((1 << shard) - 1)).count_ones() as usize
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
        // Compare and store under the shard's write lock. The key is
        // looked up before it is allocated — a routed keyspace mostly
        // overwrites — at the price of a second descent for a new key
        // (`put`, which the ingest-shaped callers use, inserts outright).
        let mut map = self.shard_of(key).write();
        match map.get_mut(key) {
            None => {
                map.insert(key.to_vec(), record.to_vec());
                Ok((true, false))
            }
            Some(stored) => {
                let was_live = !decode_record(stored).tombstone;
                let newer = record_is_newer(record, stored);
                if newer {
                    record.clone_into(stored);
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
        let mut held = self.lock_touched(pairs.iter().map(|(key, _)| *key), OrderedRwLock::write);
        for (key, value) in pairs {
            let at = held.at(self.shard_index(key));
            held.guards[at].insert(key.to_vec(), value.to_vec());
        }
        Ok(())
    }

    fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        let mut values = Vec::new();
        self.read_with(keys, &mut |lent| {
            values = lent.iter().map(|value| value.map(<[u8]>::to_vec)).collect();
        })?;
        Ok(values)
    }

    fn read_with(&self, keys: &[&[u8]], visit: &mut ReadVisitor<'_>) -> Result<(), YokanError> {
        let held = self.lock_touched(keys.iter().copied(), OrderedRwLock::read);
        let lent: Vec<Option<&[u8]>> = keys
            .iter()
            .map(|key| held.guards[held.at(self.shard_index(key))].get(*key).map(Vec::as_slice))
            .collect();
        visit(&lent);
        Ok(())
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
