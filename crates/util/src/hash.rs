//! Non-cryptographic dispersal hashes.
//!
//! Yokan's striped backends route each key to a stripe with FNV-1a:
//! cheap, and well dispersed for the short keys KV workloads use. Both
//! the memory backend's shards and the LSM backend's stripes use this
//! same function, so a key's stripe is stable across backends of equal
//! stripe count.
//!
//! [`IdMap`] is a `HashMap` for keys this program makes itself out of a
//! few integers — RPC ids, provider ids, correlation ids, an address's
//! precomputed hash — probed several times per RPC. Its hasher folds each
//! integer in with one multiply; it does not resist crafted collisions, so
//! keys that arrive from outside the program keep the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit finalizer (MurmurHash3's fmix64): full-avalanche mix of an
/// already-computed hash. FNV-1a disperses well *modulo small stripe
/// counts* but its raw 64-bit values cluster when inputs differ in few
/// bytes — fatal for consistent-hash ring points, whose balance depends
/// on uniform placement over the whole `u64` range. Ring construction
/// therefore passes `fnv1a64` through this mix; plain stripe routing
/// (`% shards`) doesn't need it.
pub fn mix64(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// Hasher of [`IdMap`]: one rotate-xor-multiply per integer written.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn fold(&mut self, word: u64) {
        // The odd constant is 2^64 / phi: consecutive ids land far apart.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold(u64::from(byte));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits and tags by the high ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_map_keeps_sequential_and_tuple_keys_apart() {
        let mut map: IdMap<(u64, u16), u64> = IdMap::default();
        for id in 0..10_000u64 {
            map.insert((id, (id % 7) as u16), id);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000u64).all(|id| map[&(id, (id % 7) as u16)] == id));
        // Sequential ids spread over the low bits a table indexes by.
        let hash = |id: u64| {
            let mut hasher = IdHasher::default();
            hasher.write_u64(id);
            hasher.finish()
        };
        let low: std::collections::BTreeSet<u64> = (0..256).map(|id| hash(id) & 0xff).collect();
        assert!(low.len() > 128, "{} of 256 buckets", low.len());
    }

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn disperses_sequential_keys() {
        let buckets: std::collections::BTreeSet<u64> =
            (0..256u32).map(|i| fnv1a64(format!("key-{i}").as_bytes()) % 16).collect();
        assert_eq!(buckets.len(), 16);
    }

    #[test]
    fn mix64_spreads_near_collisions_over_the_full_range() {
        // Hashes of inputs differing only in a trailing counter must
        // land all over the u64 range once mixed: every one of 16
        // top-nibble buckets is hit, which raw FNV values of these
        // inputs do not achieve.
        let mixed: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|i| {
                let mut buf = b"member#".to_vec();
                buf.extend_from_slice(&i.to_le_bytes());
                mix64(fnv1a64(&buf)) >> 60
            })
            .collect();
        assert_eq!(mixed.len(), 16);
        // Deterministic (same input, same output across calls).
        assert_eq!(mix64(42), mix64(42));
    }
}
