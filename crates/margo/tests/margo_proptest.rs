//! Property tests for the Margo layer: the binary frame codec and the
//! JSON argument codec always round-trip; RPC ids are stable.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use bytes::Bytes;
use mochi_margo::{decode, decode_framed, encode, encode_framed, rpc_id_for_name};
use mochi_util::SeededRng;

const CASES: u64 = 256;

fn bytes(rng: &mut SeededRng, max_len: usize) -> Vec<u8> {
    (0..rng.range(0, max_len)).map(|_| rng.next_u64() as u8).collect()
}

/// Any string of up to `max_len` chars, mostly ASCII with some from the
/// rest of the Unicode range.
fn text(rng: &mut SeededRng, max_len: usize) -> String {
    (0..rng.range(0, max_len + 1))
        .map(|_| match rng.range(0, 4) {
            0 => char::from_u32(rng.range(0x80, 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(rng.range(0, 0x80) as u8),
        })
        .collect()
}

#[test]
fn frame_codec_round_trips() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("frame_codec_round_trips, seed {seed}");
        let key = bytes(&mut rng, 64);
        let body = bytes(&mut rng, 2048);
        let frame = encode_framed(&key, &body).unwrap();
        let (k2, b2): (Vec<u8>, Bytes) = decode_framed(&frame).unwrap();
        assert_eq!(k2, key, "{at}");
        assert_eq!(&b2[..], &body[..], "{at}");
    }
}

#[test]
fn frame_decoding_never_panics_on_garbage() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let garbage = Bytes::from(bytes(&mut rng, 256));
        // Must return Ok or Err, never panic or read out of bounds.
        let outcome = std::panic::catch_unwind(|| decode_framed::<Vec<u8>>(&garbage));
        assert!(outcome.is_ok(), "frame_decoding_never_panics_on_garbage, seed {seed}");
    }
}

#[test]
fn json_codec_round_trips() {
    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Args {
        text: String,
        numbers: Vec<i64>,
        flag: bool,
    }
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let text = text(&mut rng, 32);
        let numbers = (0..rng.range(0, 32)).map(|_| rng.next_u64() as i64).collect();
        let args = Args { text, numbers, flag: rng.chance(0.5) };
        let bytes = encode(&args).unwrap();
        let back: Args = decode(&bytes).unwrap();
        assert_eq!(back, args, "json_codec_round_trips, seed {seed}");
    }
}

#[test]
fn rpc_ids_are_deterministic_and_u32() {
    for seed in 0..CASES {
        let name = text(&mut SeededRng::new(seed), 64);
        let at = format!("rpc_ids_are_deterministic_and_u32, seed {seed}");
        let a = rpc_id_for_name(&name);
        let b = rpc_id_for_name(&name);
        assert_eq!(a, b, "{at}");
        assert!(a <= u32::MAX as u64, "{at}");
    }
}
