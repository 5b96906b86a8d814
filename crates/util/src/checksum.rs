//! CRC-32 (IEEE 802.3) and CRC-64 (ECMA-182) checksums.
//!
//! Mercury derives RPC identifiers by hashing the RPC name; REMI verifies
//! migrated file contents with a checksum; the LSM backend and the raft
//! log protect every table, WAL record and checkpoint with a CRC-32. All
//! are table-driven; CRC-32, which sits on the LSM's write path, consumes
//! eight bytes per step (slicing-by-8).

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

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
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

    /// The byte-at-a-time loop the sliced kernel replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 43) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), crc32_bytewise(piece), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 89 + 7) as u8).collect();
        for first in 0..=data.len() {
            for second in [first, (first + 3).min(data.len()), data.len()] {
                let mut h = Crc32Hasher::new();
                h.update(&data[..first]);
                h.update(&data[first..second]);
                h.update(&data[second..]);
                assert_eq!(h.finish(), crc32(&data), "splits {first}, {second}");
            }
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
