//! Keys, values and key choosers: pure functions of the run's seed.
//!
//! The program under test only ever sees what this module generates. Every
//! value carries what is needed to check it on the way back: a checksum of
//! its key and the per-key write sequence.

use mochi_util::{fnv1a64, SeededRng};

/// `k-%014d`: 16 bytes, as the issue fixes them.
pub fn key(index: u64) -> Vec<u8> {
    format!("k-{index:014}").into_bytes()
}

/// Bytes of a value's header: key checksum then write sequence.
pub const VALUE_HEADER: usize = 16;

/// Value of `len` bytes for (`key`, `seq`): `[fnv(key) LE][seq LE]` then a
/// filler derived from both, so a value that landed under the wrong key or
/// from an older write cannot pass for the expected one.
pub fn value(key: &[u8], seq: u64, len: usize) -> Vec<u8> {
    let len = len.max(VALUE_HEADER);
    let sum = fnv1a64(key);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut word = sum ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    while out.len() < len {
        word ^= word << 13;
        word ^= word >> 7;
        word ^= word << 17;
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word.to_le_bytes()[..take]);
    }
    out
}

/// Sequence stored in `value` if it is a well-formed value for `key` of
/// `len` bytes; `None` when the checksum, length or filler is wrong.
pub fn check(key: &[u8], value_bytes: &[u8], len: usize) -> Option<u64> {
    if value_bytes.len() != len.max(VALUE_HEADER) {
        return None;
    }
    let sum = u64::from_le_bytes(value_bytes[..8].try_into().ok()?);
    if sum != fnv1a64(key) {
        return None;
    }
    let seq = u64::from_le_bytes(value_bytes[8..16].try_into().ok()?);
    (value(key, seq, len) == value_bytes).then_some(seq)
}

/// Zipfian ranks over `0..n` (Gray et al.'s generator, as YCSB uses it):
/// rank 0 is the most popular. `zeta(n)` is computed once, so a draw is
/// O(1) — `SeededRng::zipf` is O(n) per draw, too slow for 100 000 keys.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |count: u64| {
            (1..=count)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zeta_n = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut SeededRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// How a workload picks the key of its next operation.
#[derive(Debug, Clone)]
pub enum Chooser {
    Uniform {
        n: u64,
    },
    /// Zipfian popularity, with ranks scattered over the key space by a
    /// fixed permutation so that hot keys spread over the ring members and
    /// over both client threads' partitions.
    Zipfian(Zipf),
}

/// Multiplier of the rank-scattering permutation `rank * M mod n`; a prime
/// that divides no key count this benchmark uses (they are of the form
/// 2^a * 5^b), so the map is a bijection.
const SCATTER: u64 = 48_271;

impl Chooser {
    pub fn uniform(n: u64) -> Self {
        Chooser::Uniform { n }
    }

    pub fn zipfian(n: u64, theta: f64) -> Self {
        Chooser::Zipfian(Zipf::new(n, theta))
    }

    /// Index in `0..n` of the next key.
    pub fn next(&self, rng: &mut SeededRng) -> u64 {
        match self {
            Chooser::Uniform { n } => rng.range_u64(0, *n),
            Chooser::Zipfian(zipf) => zipf.sample(rng) * SCATTER % zipf.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sixteen_bytes() {
        assert_eq!(key(0), b"k-00000000000000");
        assert_eq!(key(99_999).len(), 16);
    }

    #[test]
    fn values_round_trip_and_reject_tampering() {
        for len in [16, 64, 256, 1024] {
            let k = key(42);
            let v = value(&k, 7, len);
            assert_eq!(v.len(), len);
            assert_eq!(check(&k, &v, len), Some(7));
            assert_eq!(check(&key(43), &v, len), None, "value under the wrong key");
            assert_eq!(check(&k, &v[..len - 1], len), None, "truncated value");
            if len > VALUE_HEADER {
                let mut bad = v.clone();
                bad[len - 1] ^= 1;
                assert_eq!(check(&k, &bad, len), None, "corrupt filler");
            }
        }
    }

    #[test]
    fn choosers_are_pure_functions_of_the_seed() {
        let draw = |seed: u64, chooser: &Chooser| {
            let mut rng = SeededRng::new(seed);
            (0..1_000)
                .map(|_| chooser.next(&mut rng))
                .collect::<Vec<u64>>()
        };
        for chooser in [Chooser::uniform(100_000), Chooser::zipfian(100_000, 0.99)] {
            assert_eq!(draw(1, &chooser), draw(1, &chooser));
            assert_ne!(draw(1, &chooser), draw(2, &chooser));
            assert!(draw(3, &chooser).iter().all(|&i| i < 100_000));
        }
    }

    #[test]
    fn zipfian_is_skewed_and_scattered() {
        let n = 100_000;
        let chooser = Chooser::zipfian(n, 0.99);
        let mut rng = SeededRng::new(9);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(chooser.next(&mut rng)).or_insert(0u32) += 1;
        }
        // With theta = 0.99 over 100 000 keys the hottest key draws ~8 %.
        let hottest = counts.values().copied().max().unwrap_or(0);
        assert!(hottest > 5_000, "hottest key drew {hottest} of 100000");
        // Rank 0 and rank 1 are not neighbours in the key space.
        assert_eq!(SCATTER % n, 48_271);
        // The scatter is a bijection on 0..n.
        let mut seen = vec![false; n as usize];
        for rank in 0..n {
            seen[(rank * SCATTER % n) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
