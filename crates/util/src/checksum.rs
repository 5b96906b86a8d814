//! CRC-32 (IEEE 802.3) and CRC-64 (ECMA-182) checksums.
//!
//! Mercury derives RPC identifiers by hashing the RPC name; REMI verifies
//! migrated file contents with a checksum; the LSM backend and the raft
//! log protect every table, WAL record and checkpoint with a CRC-32.
//! CRC-64 is table-driven, a byte per step. CRC-32 sits on the LSM's
//! write path — every ingested byte passes through it at least twice —
//! and has two kernels with bit-identical outputs: tables that consume
//! eight bytes per step (slicing-by-8), and, on `x86_64` processors that
//! have it, the carry-less multiply (`clmul`), which folds 64 bytes per
//! step. [`Crc32Hasher::update`] picks per call.

/// Reflected polynomial for CRC-32 (IEEE).
const CRC32_POLY: u32 = 0xEDB8_8320;
/// Reflected polynomial for CRC-64 (ECMA-182, as used by XZ).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC32_TABLES[n][b]` the CRC of byte `b` followed by `n` zero
/// bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[n - 1][i];
            tables[n][i] = (previous >> 8) ^ tables[0][(previous & 0xff) as usize];
            i += 1;
        }
        n += 1;
    }
    tables
}

fn crc64_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u64; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    })
}

/// Computes the CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32Hasher::new();
    hasher.update(data);
    hasher.finish()
}

/// Incremental CRC-32 hasher for streaming data (table files written
/// record by record): feeding the pieces gives the same checksum as
/// [`crc32`] of their concatenation.
#[derive(Debug, Clone)]
pub struct Crc32Hasher {
    state: u32,
}

impl Default for Crc32Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32Hasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self { state: !0u32 }
    }

    /// Feeds `data` into the hasher: the leading whole 16-byte blocks of
    /// an input of at least 64 bytes go through the carry-less multiply
    /// where the processor has one, everything else through the tables.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        let data = match clmul::fold(self.state, data) {
            Some((state, tail)) => {
                self.state = state;
                tail
            }
            None => data,
        };
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let low = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(low & 0xff) as usize]
                ^ t[6][((low >> 8) & 0xff) as usize]
                ^ t[5][((low >> 16) & 0xff) as usize]
                ^ t[4][(low >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum. The hasher may keep being fed,
    /// in which case later calls cover all bytes seen so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), bit-reflected as IEEE CRC-32 is. A 128-bit lane holds a
/// polynomial congruent, modulo `P`, to the message read so far; one
/// multiplication by `x^n mod P` moves it `n` bits ahead, where the next
/// block is XORed in. Four lanes advance 512 bits per step, fold into
/// one, advance 128 bits per step, and a Barrett reduction brings the
/// last 128 bits down to the 32-bit state the tables work on.
///
/// This is the repository's only `unsafe` code. What makes it sound is
/// all inside this module: [`fold`] — safe — checks the processor
/// features and the input length before it calls [`fold_blocks`], and
/// every load is an unaligned load from a `chunks_exact` slice of
/// exactly the width loaded.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Below this the tables win: the kernel starts from four lanes.
    const MIN_LEN: usize = 64;

    // Reflected constants for P = 0x1_DB71_0641 (the paper's table; the
    // same values zlib and the Linux kernel carry).
    /// `x^(512+32) mod P`, `x^(512-32) mod P`: advance a lane 512 bits.
    const FOLD_512: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// `x^(128+32) mod P`, `x^(128-32) mod P`: advance a lane 128 bits.
    const FOLD_128: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// `x^64 mod P`: 96 bits down to 64.
    const FOLD_64: i64 = 0x1_63cd_6124;
    /// `P` and `µ = ⌊x^64 / P⌋`, for the Barrett reduction.
    const POLY_MU: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    /// Advances `state` over the leading whole 16-byte blocks of `data`
    /// and returns it with the bytes left over (fewer than 16), or `None`
    /// when the input is too short or the processor lacks `pclmulqdq` or
    /// `sse4.1` — the caller's tables then take all of `data`.
    pub(super) fn fold(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < MIN_LEN
            || !std::arch::is_x86_feature_detected!("pclmulqdq")
            || !std::arch::is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: both features `fold_blocks` is compiled for were
        // detected on this processor just above, and `blocks` holds at
        // least `MIN_LEN` = 64 bytes, a multiple of 16.
        Some((unsafe { fold_blocks(state, blocks) }, tail))
    }

    /// One unaligned 128-bit load of a 16-byte block.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        assert_eq!(block.len(), 16);
        // SAFETY: `block` is 16 readable bytes (asserted), `loadu` has no
        // alignment requirement, and SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane · x^n ⊕ next`, with `k` the pair of fold constants for `n`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn advance(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, k);
        let high = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// # Safety
    ///
    /// The processor must support `pclmulqdq` and `sse4.1`. `blocks` must
    /// hold a multiple of 16 bytes and at least 64 (checked: a shorter or
    /// ragged input panics, it is never read out of bounds).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold_blocks(state: u32, blocks: &[u8]) -> u32 {
        assert!(blocks.len() >= MIN_LEN && blocks.len().is_multiple_of(16));
        let (first, rest) = blocks.split_at(MIN_LEN);
        let mut lanes = [_mm_set_epi64x(0, 0); 4];
        for (lane, block) in lanes.iter_mut().zip(first.chunks_exact(16)) {
            *lane = load(block);
        }
        // The state enters as the first 32 bits of the message.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        let mut wide = rest.chunks_exact(64);
        for step in &mut wide {
            for (lane, block) in lanes.iter_mut().zip(step.chunks_exact(16)) {
                *lane = advance(*lane, k, load(block));
            }
        }

        let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let [mut x, second, third, fourth] = lanes;
        for next in [second, third, fourth] {
            x = advance(x, k, next);
        }
        for block in wide.remainder().chunks_exact(16) {
            x = advance(x, k, load(block));
        }

        // 128 bits → 96 → 64, then Barrett: the state is bits 32..64.
        let low_words = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
        let k = _mm_set_epi64x(0, FOLD_64);
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_words), k),
        );
        let k = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_words), k);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low_words), k);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

/// Computes the CRC-64 (ECMA-182) of `data`.
pub fn crc64(data: &[u8]) -> u64 {
    let table = crc64_table();
    let mut crc = !0u64;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u64) & 0xff) as usize];
    }
    !crc
}

/// Incremental CRC-64 hasher for streaming data (chunked migrations).
#[derive(Debug, Clone)]
pub struct Crc64Hasher {
    state: u64,
}

impl Default for Crc64Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64Hasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self { state: !0u64 }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        let table = crc64_table();
        for &b in data {
            self.state = (self.state >> 8) ^ table[((self.state ^ b as u64) & 0xff) as usize];
        }
    }

    /// Finalizes and returns the checksum. The hasher may keep being fed,
    /// in which case later calls cover all bytes seen so far.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop both kernels replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::SeededRng::new(seed);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    /// Lengths 0..=300 cover the tables alone (< 64), the four-lane start
    /// with every count of 16-byte folds after it (64..128), the 64-byte
    /// loop once to three times, and every tail 0..16 after each; the
    /// start offsets move all of it across every alignment of a load. On
    /// a host with `pclmulqdq` this pins that kernel to the tables.
    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        let data = noise(320, 1);
        for start in 0..16 {
            for len in 0..=300 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), crc32_bytewise(piece), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        let big = noise(1 << 20, 2);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]));
    }

    #[test]
    fn crc32_incremental_matches_oneshot_at_every_split() {
        let data = noise(200, 3);
        let whole = crc32_bytewise(&data);
        for first in 0..=data.len() {
            for second in [first, (first + 3).min(data.len()), data.len()] {
                let mut h = Crc32Hasher::new();
                h.update(&data[..first]);
                h.update(&data[first..second]);
                h.update(&data[second..]);
                assert_eq!(h.finish(), whole, "splits {first}, {second}");
            }
        }
        // Pieces of 0..4096 bytes: both kernels take turns on one state.
        let data = noise(300_000, 4);
        let whole = crc32_bytewise(&data);
        for seed in 0..8 {
            let mut rng = crate::SeededRng::new(seed);
            let (mut h, mut rest) = (Crc32Hasher::new(), data.as_slice());
            while !rest.is_empty() {
                let (piece, after) = rest.split_at(rng.range(0, 4096).min(rest.len()));
                h.update(piece);
                rest = after;
            }
            assert_eq!(h.finish(), whole, "seed {seed}");
        }
    }

    #[test]
    fn crc64_known_vectors() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc64Hasher::new();
        for chunk in data.chunks(733) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc64(&data));
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
        assert_ne!(crc64(b"hello"), crc64(b"hellp"));
    }
}
