//! Versioned record codec of the routed keyspace.
//!
//! `RoutedKv` (DESIGN.md §18) stamps every write with a client-side
//! HLC-style version and stores it *inside the value*, so the backend
//! stays a dumb byte store: a stored record is
//!
//! ```text
//! [ version: u64 BE ][ flag: u8 ][ raw value bytes ... ]
//! ```
//!
//! where `flag` is `0` for a live value and `1` for a tombstone (an erase
//! that must win freshest-wins merges instead of resurrecting the key).
//! Big-endian versions make records of the same key memcmp-comparable by
//! recency, which the server-side put-if-newer compare relies on.
//!
//! The client encodes, the provider compares and stores, the client
//! decodes what a plain `get` returns: records cross the wire as they are
//! stored. Values written through the *unversioned* surfaces have no
//! prefix; they decode as version 0 (older than any stamped write), so a
//! keyspace can be opened over providers that already hold data.

use bytes::BufMut;

/// Flag byte of a live record.
pub const FLAG_VALUE: u8 = 0;
/// Flag byte of a tombstone.
pub const FLAG_TOMBSTONE: u8 = 1;

/// Bytes of prefix a versioned record adds in front of the raw value.
pub const RECORD_OVERHEAD: usize = 9;

/// One decoded record: the version stamp, whether it is a tombstone, and
/// the raw value bytes (empty for tombstones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// HLC-style version stamped by the writing client.
    pub version: u64,
    /// Whether this record marks a deletion.
    pub tombstone: bool,
    /// The caller-visible value (empty when `tombstone`).
    pub value: &'a [u8],
}

/// Appends to `out` (a `Vec<u8>`, or a frame under construction) the
/// encoding of `value` (or of a tombstone when `value` is `None`) under
/// `version`.
pub fn encode_record_into(out: &mut impl BufMut, version: u64, value: Option<&[u8]>) {
    out.put_slice(&version.to_be_bytes());
    out.put_u8(if value.is_some() { FLAG_VALUE } else { FLAG_TOMBSTONE });
    out.put_slice(value.unwrap_or(&[]));
}

/// Encodes `value` (or a tombstone when `value` is `None`) under
/// `version`.
pub fn encode_record(version: u64, value: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + value.map_or(0, <[u8]>::len));
    encode_record_into(&mut out, version, value);
    out
}

/// Whether `stored` carries a record prefix (long enough, known flag, and
/// nothing after a tombstone's).
pub fn is_record(stored: &[u8]) -> bool {
    match stored.get(RECORD_OVERHEAD - 1) {
        Some(&FLAG_VALUE) => true,
        Some(&FLAG_TOMBSTONE) => stored.len() == RECORD_OVERHEAD,
        _ => false,
    }
}

/// Decodes a stored record. Bytes that do not carry a valid prefix (too
/// short, unknown flag) are treated as a *legacy unversioned value* at
/// version 0, never an error — see the module docs.
pub fn decode_record(stored: &[u8]) -> Record<'_> {
    if !is_record(stored) {
        return Record { version: 0, tombstone: false, value: stored };
    }
    let (prefix, value) = stored.split_at(RECORD_OVERHEAD);
    let mut version = [0u8; 8];
    version.copy_from_slice(&prefix[..8]);
    Record { version: u64::from_be_bytes(version), tombstone: prefix[8] == FLAG_TOMBSTONE, value }
}

/// Whether encoded record `candidate` should replace `incumbent` under
/// freshest-wins: a strictly newer version wins; an equal version falls
/// back to a bytewise compare of the encodings — an arbitrary but
/// *deterministic* tie-break, so replicas that saw two same-version
/// writes in different orders still converge.
pub fn record_is_newer(candidate: &[u8], incumbent: &[u8]) -> bool {
    let c = decode_record(candidate);
    let i = decode_record(incumbent);
    if c.version != i.version {
        return c.version > i.version;
    }
    candidate > incumbent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values_and_tombstones() {
        let live = encode_record(42, Some(b"hello"));
        assert_eq!(
            decode_record(&live),
            Record { version: 42, tombstone: false, value: b"hello" }
        );
        let dead = encode_record(43, None);
        assert_eq!(dead.len(), RECORD_OVERHEAD);
        assert_eq!(decode_record(&dead), Record { version: 43, tombstone: true, value: b"" });
    }

    #[test]
    fn legacy_bytes_decode_at_version_zero() {
        for legacy in [&b""[..], b"short", b"exactly-9-no-flag"] {
            let record = decode_record(legacy);
            // An 8-byte-or-longer blob whose 9th byte happens to be 0/1
            // *would* parse as versioned — that is the documented upgrade
            // contract, not a bug — so only assert the short cases here.
            if legacy.len() < RECORD_OVERHEAD {
                assert_eq!(record, Record { version: 0, tombstone: false, value: legacy });
            }
        }
        let unknown_flag = [0, 0, 0, 0, 0, 0, 0, 1, 0xFF, b'x'];
        assert_eq!(
            decode_record(&unknown_flag),
            Record { version: 0, tombstone: false, value: &unknown_flag }
        );
    }

    #[test]
    fn versions_compare_bytewise() {
        // BE prefix ⇒ lexicographic record order == numeric version order.
        let a = encode_record(1, Some(b"z"));
        let b = encode_record(2, Some(b"a"));
        assert!(a[..8] < b[..8]);
        assert!(decode_record(&a).version < decode_record(&b).version);
    }

    #[test]
    fn record_is_newer_orders_by_version_then_bytes() {
        let v1 = encode_record(1, Some(b"a"));
        let v2 = encode_record(2, Some(b"a"));
        assert!(record_is_newer(&v2, &v1));
        assert!(!record_is_newer(&v1, &v2));
        // Same version, different value: one direction wins, never both.
        let t1 = encode_record(5, Some(b"x"));
        let t2 = encode_record(5, Some(b"y"));
        assert_ne!(record_is_newer(&t1, &t2), record_is_newer(&t2, &t1));
        // Identical records never replace each other.
        assert!(!record_is_newer(&t1, &t1));
        // A versioned write beats a legacy unversioned value.
        assert!(record_is_newer(&v1, b"legacy-bytes"));
    }

    #[test]
    fn a_tombstone_prefix_with_a_tail_is_not_a_record() {
        assert!(is_record(&encode_record(3, Some(b""))));
        assert!(is_record(&encode_record(3, None)));
        let mut tailed = encode_record(3, None);
        tailed.push(b'x');
        assert!(!is_record(&tailed));
        assert_eq!(decode_record(&tailed), Record { version: 0, tombstone: false, value: &tailed });
        let mut appended = b"head".to_vec();
        encode_record_into(&mut appended, 9, Some(b"v"));
        assert_eq!(&appended[4..], encode_record(9, Some(b"v")).as_slice());
    }

    #[test]
    fn empty_value_is_not_a_tombstone() {
        let live_empty = encode_record(7, Some(b""));
        let record = decode_record(&live_empty);
        assert!(!record.tombstone);
        assert_eq!(record.value, b"");
    }
}
