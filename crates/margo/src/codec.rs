//! RPC argument (de)serialization.
//!
//! Mercury leaves argument encoding to per-RPC "proc" functions; Mochi
//! components describe their arguments declaratively. We use serde with the
//! [`mochi_wire`] binary encoding: a compact self-describing format whose
//! data model mirrors JSON's, so every argument type that used to travel as
//! JSON travels unchanged — just smaller and without the number-to-text
//! round trip that dominated small-RPC latency. Observable JSON artifacts
//! (Listing 1 monitoring dumps, Bedrock configs, Jx9) are *not* produced by
//! this codec and stay JSON. Components that move *data* (not arguments)
//! use bulk transfers, which bypass this codec entirely — matching the
//! original stack, where large transfers never ride the RPC serializer.

#![deny(clippy::disallowed_methods)]

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::MargoError;

/// Serializes a value into an RPC payload.
pub fn encode<T: Serialize>(value: &T) -> Result<Bytes, MargoError> {
    mochi_wire::to_vec(value).map(Bytes::from).map_err(|e| MargoError::Codec(e.to_string()))
}

/// Deserializes an RPC payload.
pub fn decode<T: DeserializeOwned>(payload: &[u8]) -> Result<T, MargoError> {
    mochi_wire::from_slice(payload).map_err(|e| MargoError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Args {
        key: String,
        sizes: Vec<u32>,
        flag: bool,
    }

    #[test]
    fn round_trip() {
        let args = Args { key: "k".into(), sizes: vec![1, 2, 3], flag: true };
        let bytes = encode(&args).unwrap();
        let back: Args = decode(&bytes).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn unit_round_trip() {
        let bytes = encode(&()).unwrap();
        decode::<()>(&bytes).unwrap();
    }

    #[test]
    fn decode_error_is_reported() {
        let err = decode::<Args>(b"{not json").unwrap_err();
        assert!(matches!(err, MargoError::Codec(_)));
    }

    #[test]
    fn binary_data_round_trips() {
        let blob: Vec<u8> = (0..=255).collect();
        let bytes = encode(&blob).unwrap();
        let back: Vec<u8> = decode(&bytes).unwrap();
        assert_eq!(back, blob);
    }

    #[test]
    fn binary_data_encodes_as_raw_byte_run() {
        // Byte blobs must ride the wire as length-prefixed raw runs, not
        // per-element lists (JSON cost ~3.7 bytes per byte; wire is 1 plus
        // a small constant header).
        for len in [1usize, 64, 4096] {
            let blob: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let encoded = encode(&blob).unwrap();
            assert!(
                encoded.len() <= blob.len() + 16,
                "{len}-byte blob encoded to {} bytes",
                encoded.len()
            );
            let back: Vec<u8> = decode(&encoded).unwrap();
            assert_eq!(back, blob);
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "`json!` builds its value with `serde_json::to_value`: the test needs a JSON value, not a JSON encoding"
    )]
    fn json_value_args_round_trip() {
        // Bedrock ships serde_json::Value arguments through this codec;
        // the self-describing wire format must carry them unchanged.
        let value = serde_json::json!({
            "pools": [{"name": "p1"}, {"name": "p2"}],
            "rates": [1, -2, 3.5],
            "enabled": true,
            "note": null,
        });
        let bytes = encode(&value).unwrap();
        let back: serde_json::Value = decode(&bytes).unwrap();
        assert_eq!(back, value);
    }
}
