//! # mochi-wire
//!
//! A compact, self-describing binary codec for the mochi-rs RPC hot path.
//!
//! Mercury (Soumagne et al.) ships proc-encoded binary buffers because
//! argument serialization dominates small-RPC latency; this crate plays the
//! same role for mochi-rs. It is a hand-rolled serde `Serializer` /
//! `Deserializer` with **no external dependencies beyond serde and bytes**,
//! designed so `margo::codec` can swap it in for `serde_json` without any
//! RPC argument type changing shape.
//!
//! ## Wire layout
//!
//! Every value is a one-byte tag followed by tag-specific payload:
//!
//! | tag    | byte | payload                                            |
//! |--------|------|----------------------------------------------------|
//! | Null   | 0x00 | —                                                  |
//! | False  | 0x01 | —                                                  |
//! | True   | 0x02 | —                                                  |
//! | UInt   | 0x03 | LEB128 varint (`u64`)                              |
//! | NInt   | 0x04 | LEB128 varint of `-1 - v` (CBOR-style negatives)   |
//! | F32    | 0x05 | 4 bytes little-endian                              |
//! | F64    | 0x06 | 8 bytes little-endian                              |
//! | Str    | 0x07 | varint length + UTF-8 bytes                        |
//! | Bytes  | 0x08 | varint length + raw bytes                          |
//! | Seq    | 0x09 | varint count + that many values                    |
//! | Map    | 0x0a | varint count + that many key/value pairs           |
//!
//! Structs are maps keyed by field-name strings; enums are externally tagged
//! exactly like `serde_json`; `Option` is `Null`-or-value. A sequence whose
//! elements all serialize as `u8` (a `Vec<u8>` blob) collapses to a `Bytes`
//! run: one byte per byte instead of JSON's ~3.7.

mod de;
mod error;
mod ser;
mod varint;

pub use error::WireError;

use bytes::BufMut;
use serde::{Deserialize, Serialize};

/// One-byte type tags. Public for tooling and tests; the codec API never
/// requires touching these directly.
pub mod tag {
    pub const NULL: u8 = 0x00;
    pub const FALSE: u8 = 0x01;
    pub const TRUE: u8 = 0x02;
    pub const UINT: u8 = 0x03;
    pub const NINT: u8 = 0x04;
    pub const F32: u8 = 0x05;
    pub const F64: u8 = 0x06;
    pub const STR: u8 = 0x07;
    pub const BYTES: u8 = 0x08;
    pub const SEQ: u8 = 0x09;
    pub const MAP: u8 = 0x0a;
}

/// Serialize `value` into a fresh `Vec<u8>`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Serialize `value` directly into an existing buffer — this is the
/// zero-copy entry point `margo::frame` uses to build a frame (length
/// prefix, header, body) in a single reusable `BytesMut` scratch.
pub fn encode_into<T: Serialize + ?Sized, B: BufMut>(
    value: &T,
    out: &mut B,
) -> Result<(), WireError> {
    value.serialize(&mut ser::Serializer::new(out))
}

/// Deserialize a value from `input`, requiring the whole slice be consumed.
pub fn from_slice<'de, T: Deserialize<'de>>(input: &'de [u8]) -> Result<T, WireError> {
    let mut de = de::Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    if de.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de> + std::fmt::Debug,
    {
        let encoded = to_vec(value).expect("encode");
        from_slice(&encoded).expect("decode")
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    struct Inner {
        id: u64,
        tags: Vec<String>,
        blob: Vec<u8>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    enum Kind {
        Empty,
        Named(String),
        Pair(u32, u32),
        Full { x: i64, ok: bool },
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    struct Outer {
        name: String,
        inner: Option<Inner>,
        kind: Kind,
        table: BTreeMap<String, i64>,
        ratio: f64,
    }

    fn sample_outer() -> Outer {
        Outer {
            name: "svr-1".into(),
            inner: Some(Inner {
                id: 42,
                tags: vec!["a".into(), "bb".into()],
                blob: (0..=255u8).collect(),
            }),
            kind: Kind::Full { x: -7, ok: true },
            table: [("put".to_string(), -1i64), ("get".to_string(), 900)].into(),
            ratio: 0.125,
        }
    }

    #[test]
    fn primitives_round_trip() {
        assert!(round_trip(&true));
        assert!(!round_trip(&false));
        assert_eq!(round_trip(&0u8), 0u8);
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&-1i32), -1i32);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert_eq!(round_trip(&1.5f32), 1.5f32);
        assert_eq!(round_trip(&-2.25f64), -2.25f64);
        assert_eq!(round_trip(&'é'), 'é');
        assert_eq!(round_trip(&"hello".to_string()), "hello");
        assert_eq!(round_trip(&()), ());
        assert_eq!(round_trip(&(7u32, "x".to_string())), (7u32, "x".to_string()));
    }

    #[test]
    fn structs_and_enums_round_trip() {
        let outer = sample_outer();
        assert_eq!(round_trip(&outer), outer);
        for kind in [
            Kind::Empty,
            Kind::Named("n".into()),
            Kind::Pair(1, 2),
            Kind::Full { x: i64::MIN, ok: false },
        ] {
            assert_eq!(round_trip(&kind), kind);
        }
    }

    #[test]
    fn options_round_trip() {
        assert_eq!(round_trip(&Option::<u32>::None), None);
        assert_eq!(round_trip(&Some(5u32)), Some(5u32));
        assert_eq!(round_trip(&Some("s".to_string())), Some("s".to_string()));
    }

    #[test]
    fn byte_blobs_encode_compactly() {
        for len in [0usize, 1, 4096] {
            let blob: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let encoded = to_vec(&blob).expect("encode");
            assert!(
                encoded.len() <= blob.len() + 16,
                "blob of {} bytes encoded to {} bytes",
                blob.len(),
                encoded.len()
            );
            assert_eq!(from_slice::<Vec<u8>>(&encoded).expect("decode"), blob);
        }
    }

    #[test]
    fn empty_seq_is_not_a_byte_run() {
        // An empty Vec<u8> carries no element-type evidence, so it must
        // stay a Seq and decode as an empty list of anything.
        let encoded = to_vec(&Vec::<u8>::new()).expect("encode");
        assert_eq!(encoded[0], tag::SEQ);
        assert_eq!(from_slice::<Vec<String>>(&encoded).expect("decode"), Vec::<String>::new());
        let value: serde_json::Value = from_slice(&encoded).expect("decode as value");
        assert_eq!(value, serde_json::json!([]));
    }

    #[test]
    fn non_byte_seqs_use_general_layout() {
        let v = vec![1u32, 300, 70000];
        assert_eq!(round_trip(&v), v);
        let encoded = to_vec(&v).expect("encode");
        assert_eq!(encoded[0], tag::SEQ);
    }

    /// Serializes as a u8 for small values, a string otherwise — exercises
    /// the probe-flush path where a sequence starts byte-like and then
    /// must be replayed as a general Seq.
    enum Elem {
        Byte(u8),
        Text(&'static str),
    }

    impl Serialize for Elem {
        fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self {
                Elem::Byte(b) => s.serialize_u8(*b),
                Elem::Text(t) => s.serialize_str(t),
            }
        }
    }

    #[test]
    fn probe_flush_replays_buffered_bytes() {
        let mixed = vec![Elem::Byte(1), Elem::Byte(2), Elem::Text("three")];
        let encoded = to_vec(&mixed).expect("encode");
        assert_eq!(encoded[0], tag::SEQ);
        let value: serde_json::Value = from_slice(&encoded).expect("decode");
        assert_eq!(value, serde_json::json!([1, 2, "three"]));
    }

    #[test]
    fn json_value_round_trips_through_wire() {
        let v = serde_json::json!({
            "margo": {"progress_pool": "__primary__", "rpc_pool": null},
            "pools": [{"name": "p1", "kind": "fifo_wait"}, {"name": "p2"}],
            "counts": [0, 1, -5, 2.5],
            "enabled": true,
        });
        let encoded = to_vec(&v).expect("encode");
        let back: serde_json::Value = from_slice(&encoded).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn wire_decode_matches_json_decode() {
        // Satellite property, deterministic instance:
        // decode_wire(encode_wire(x)) == decode_json(encode_json(x)).
        let x = sample_outer();
        let via_wire: Outer = from_slice(&to_vec(&x).unwrap()).unwrap();
        let via_json: Outer =
            serde_json::from_slice(&serde_json::to_vec(&x).unwrap()).unwrap();
        assert_eq!(via_wire, via_json);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = to_vec(&7u32).expect("encode");
        encoded.push(0);
        assert_eq!(from_slice::<u32>(&encoded), Err(WireError::TrailingBytes));
    }

    #[test]
    fn truncation_rejected() {
        let encoded = to_vec(&"a longer string".to_string()).expect("encode");
        for cut in 0..encoded.len() {
            assert!(from_slice::<String>(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_slice::<u32>(b"{not json").is_err());
        assert_eq!(from_slice::<u32>(&[0x7b]), Err(WireError::InvalidTag(0x7b)));
    }

    #[test]
    fn unknown_struct_fields_are_skipped() {
        // Decoding a map with extra keys into a struct must skip the extra
        // values via deserialize_ignored_any (serde derive ignores unknown
        // fields by default).
        #[derive(Serialize)]
        struct Wide {
            id: u64,
            extra: Vec<u8>,
        }
        #[derive(Deserialize, Debug, PartialEq)]
        struct Narrow {
            id: u64,
        }
        let encoded = to_vec(&Wide { id: 9, extra: vec![1, 2, 3] }).unwrap();
        assert_eq!(from_slice::<Narrow>(&encoded).unwrap(), Narrow { id: 9 });
    }

    #[test]
    fn integer_edges() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(round_trip(&v), v);
        }
        for v in [0u64, 127, 128, u64::MAX] {
            assert_eq!(round_trip(&v), v);
        }
    }

    /// Each property runs `CASES` cases; case `seed` draws only from
    /// `SeededRng::new(seed)`, and a failure names the property and the seed.
    mod properties {
        use super::*;
        use mochi_util::SeededRng;
        use serde_json::Value;

        const CASES: u64 = 256;

        const LOWER: (u8, u8) = (b'a', b'z' + 1);

        /// Up to `max_len` chars from the byte range `lo..hi`.
        fn text(rng: &mut SeededRng, max_len: usize, (lo, hi): (u8, u8)) -> String {
            let len = rng.range(0, max_len + 1);
            (0..len).map(|_| char::from(rng.range(lo.into(), hi.into()) as u8)).collect()
        }

        fn kind(rng: &mut SeededRng) -> Kind {
            match rng.range(0, 4) {
                0 => Kind::Empty,
                1 => Kind::Named(text(rng, 6, LOWER)),
                2 => Kind::Pair(rng.next_u64() as u32, rng.next_u64() as u32),
                _ => Kind::Full { x: rng.next_u64() as i64, ok: rng.chance(0.5) },
            }
        }

        fn blob(rng: &mut SeededRng) -> Vec<u8> {
            let len = [0, 1, 4096][rng.range(0, 3)];
            (0..len).map(|_| rng.next_u64() as u8).collect()
        }

        fn outer(rng: &mut SeededRng) -> Outer {
            Outer {
                name: text(rng, 8, LOWER),
                inner: rng.chance(0.5).then(|| Inner {
                    id: rng.next_u64(),
                    tags: (0..rng.range(0, 4)).map(|_| text(rng, 5, LOWER)).collect(),
                    blob: blob(rng),
                }),
                kind: kind(rng),
                table: (0..rng.range(0, 5))
                    .map(|_| (text(rng, 5, LOWER), rng.next_u64() as i64))
                    .collect(),
                ratio: rng.next_f64() * 2.0e9 - 1.0e9,
            }
        }

        /// A JSON value at most `depth` containers deep.
        fn json(rng: &mut SeededRng, depth: u32) -> Value {
            match rng.range(0, if depth == 0 { 6 } else { 8 }) {
                0 => Value::Null,
                1 => Value::from(rng.chance(0.5)),
                2 => Value::from(rng.next_u64()),
                3 => Value::from(rng.next_u64() as i64),
                4 => Value::from(rng.next_f64() * 2.0e9 - 1.0e9),
                5 => Value::from(text(rng, 8, (b' ', b'~' + 1))),
                6 => Value::Array((0..rng.range(0, 5)).map(|_| json(rng, depth - 1)).collect()),
                _ => Value::Object(
                    (0..rng.range(0, 5))
                        .map(|_| (text(rng, 5, LOWER), json(rng, depth - 1)))
                        .collect(),
                ),
            }
        }

        #[test]
        fn outer_round_trips() {
            for seed in 0..CASES {
                let x = outer(&mut SeededRng::new(seed));
                assert_eq!(round_trip(&x), x, "outer_round_trips, seed {seed}");
            }
        }

        #[test]
        fn wire_and_json_decodes_agree() {
            for seed in 0..CASES {
                let x = outer(&mut SeededRng::new(seed));
                let via_wire: Outer = from_slice(&to_vec(&x).unwrap()).unwrap();
                let via_json: Outer =
                    serde_json::from_slice(&serde_json::to_vec(&x).unwrap()).unwrap();
                assert_eq!(via_wire, via_json, "wire_and_json_decodes_agree, seed {seed}");
            }
        }

        #[test]
        fn json_values_round_trip() {
            for seed in 0..CASES {
                let v = json(&mut SeededRng::new(seed), 3);
                let back: Value = from_slice(&to_vec(&v).unwrap()).unwrap();
                assert_eq!(back, v, "json_values_round_trip, seed {seed}");
            }
        }

        #[test]
        fn blobs_stay_compact() {
            for seed in 0..CASES {
                let at = format!("blobs_stay_compact, seed {seed}");
                let blob = blob(&mut SeededRng::new(seed));
                let encoded = to_vec(&blob).unwrap();
                assert!(encoded.len() <= blob.len() + 16, "{at}");
                assert_eq!(from_slice::<Vec<u8>>(&encoded).unwrap(), blob, "{at}");
            }
        }
    }
}
