//! Binary framing for RPCs that carry raw data next to structured
//! arguments.
//!
//! The argument codec ([`crate::codec`]) handles control messages; data-plane
//! RPCs — Yokan values, Warabi blob writes, REMI chunks — frame their
//! payloads as `[u32 LE header length][wire header][raw body]`, so the
//! network model charges honest byte counts, mirroring how the real Mercury
//! serializers ship raw buffers.
//!
//! Framing is built for the hot path:
//!
//! - [`encode_framed`] serializes the header *directly into* a thread-local
//!   reusable [`BytesMut`] scratch (length prefix patched in place), then
//!   hands the frame off with `split().freeze()` — no intermediate header
//!   `Vec`, no copy-into-`Bytes`. [`encode_framed_with`] lets the caller
//!   write the body into the same buffer piece by piece, so a body made of
//!   several values is never assembled anywhere else first.
//! - [`decode_framed_borrowed`] hands out a header that borrows from the
//!   frame (keys stay slices of the request buffer) and the body as a
//!   slice; [`decode_framed`] returns an owned header and the body as a
//!   [`Bytes`] slice of the incoming frame (`Bytes::slice` is a refcount
//!   bump), for callers that hold onto bodies.

use std::cell::RefCell;

use bytes::{BufMut, Bytes, BytesMut};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::error::MargoError;

thread_local! {
    /// Per-thread frame assembly scratch. `split().freeze()` hands the
    /// filled prefix to the caller; once that `Bytes` is dropped, the next
    /// `reserve` reclaims the allocation instead of growing a fresh one.
    static SCRATCH: RefCell<BytesMut> = const { RefCell::new(BytesMut::new()) };
}

/// Encodes `header` + `body` into a framed payload.
pub fn encode_framed<H: Serialize>(header: &H, body: &[u8]) -> Result<Bytes, MargoError> {
    encode_framed_with(header, body.len(), |frame| frame.put_slice(body))
}

/// Encodes `header`, then lets `write_body` append the body straight to
/// the frame. `size_hint` is what the caller expects header and body to
/// take beyond a small header's worth; it sizes the buffer, nothing else.
pub fn encode_framed_with<H: Serialize>(
    header: &H,
    size_hint: usize,
    write_body: impl FnOnce(&mut BytesMut),
) -> Result<Bytes, MargoError> {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        // A failed encode on a previous call may have left partial bytes.
        buf.clear();
        buf.reserve(4 + 64 + size_hint);
        buf.put_u32_le(0);
        mochi_wire::encode_into(header, &mut *buf)
            .map_err(|e| MargoError::Codec(e.to_string()))?;
        let header_len = buf.len() - 4;
        buf[..4].copy_from_slice(&(header_len as u32).to_le_bytes());
        write_body(&mut buf);
        Ok(buf.split().freeze())
    })
}

/// Splits a frame into its encoded header and its body.
fn split_frame(frame: &[u8]) -> Result<(&[u8], &[u8]), MargoError> {
    let Some((prefix, rest)) = frame.split_first_chunk::<4>() else {
        return Err(MargoError::Codec("frame shorter than header length".into()));
    };
    let header_len = u32::from_le_bytes(*prefix) as usize;
    rest.split_at_checked(header_len).ok_or_else(|| {
        MargoError::Codec(format!("frame truncated: header {header_len} > {}", rest.len()))
    })
}

fn decode_header<'de, H: Deserialize<'de>>(header: &'de [u8]) -> Result<H, MargoError> {
    mochi_wire::from_slice(header).map_err(|e| MargoError::Codec(e.to_string()))
}

/// Decodes a framed payload into a header that may borrow from `frame`
/// (byte runs and strings come back as slices of it) and the body.
pub fn decode_framed_borrowed<'de, H: Deserialize<'de>>(
    frame: &'de [u8],
) -> Result<(H, &'de [u8]), MargoError> {
    let (header, body) = split_frame(frame)?;
    Ok((decode_header(header)?, body))
}

/// Decodes a framed payload into its (owned) header and body.
///
/// The body is a zero-copy [`Bytes::slice`] of `frame`.
pub fn decode_framed<H: DeserializeOwned>(frame: &Bytes) -> Result<(H, Bytes), MargoError> {
    let (header, _) = split_frame(frame)?;
    Ok((decode_header(header)?, frame.slice(4 + header.len()..)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Header {
        key: String,
        flag: bool,
    }

    #[test]
    fn round_trip() {
        let header = Header { key: "k".into(), flag: true };
        let body = vec![0u8, 1, 2, 255];
        let frame = encode_framed(&header, &body).unwrap();
        let (back, back_body): (Header, Bytes) = decode_framed(&frame).unwrap();
        assert_eq!(back, header);
        assert_eq!(&back_body[..], &body[..]);
    }

    #[test]
    fn empty_body() {
        let frame = encode_framed(&42u32, &[]).unwrap();
        let (n, body): (u32, Bytes) = decode_framed(&frame).unwrap();
        assert_eq!(n, 42);
        assert!(body.is_empty());
    }

    #[test]
    fn overhead_is_small() {
        let body = vec![7u8; 4096];
        let frame = encode_framed(&(), &body).unwrap();
        assert!(frame.len() < body.len() + 16, "frame {} bytes", frame.len());
    }

    #[test]
    fn truncation_detected() {
        let frame = encode_framed(&Header { key: "x".into(), flag: false }, b"abc").unwrap();
        assert!(decode_framed::<Header>(&frame.slice(..3)).is_err());
        assert!(decode_framed::<Header>(&frame.slice(..5)).is_err());
    }

    #[test]
    fn scratch_reuse_keeps_frames_independent() {
        // Consecutive encodes on one thread share the scratch buffer;
        // split()/freeze() must leave each produced frame intact.
        let a = encode_framed(&Header { key: "a".into(), flag: true }, b"first").unwrap();
        let b = encode_framed(&Header { key: "b".into(), flag: false }, b"second").unwrap();
        let (ha, body_a): (Header, Bytes) = decode_framed(&a).unwrap();
        let (hb, body_b): (Header, Bytes) = decode_framed(&b).unwrap();
        assert_eq!(ha.key, "a");
        assert_eq!(&body_a[..], b"first");
        assert_eq!(hb.key, "b");
        assert_eq!(&body_b[..], b"second");
    }

    #[test]
    fn body_written_in_pieces_matches_body_in_one() {
        let header = Header { key: "k".into(), flag: false };
        let whole = encode_framed(&header, b"first-second").unwrap();
        let pieces = encode_framed_with(&header, 12, |frame| {
            frame.put_slice(b"first-");
            frame.put_slice(b"second");
        })
        .unwrap();
        assert_eq!(whole, pieces);
    }

    #[test]
    fn borrowed_header_and_body_point_into_the_frame() {
        let frame = encode_framed(&"a borrowed string", b"body").unwrap();
        let (header, body): (&str, &[u8]) = decode_framed_borrowed(&frame).unwrap();
        assert_eq!((header, body), ("a borrowed string", &b"body"[..]));
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(header.as_ptr() as usize)));
        assert!(frame_range.contains(&(body.as_ptr() as usize)));
        assert!(decode_framed_borrowed::<&str>(&frame[..3]).is_err());
        assert!(decode_framed_borrowed::<&str>(&frame[..9]).is_err());
    }

    #[test]
    fn body_slice_is_zero_copy() {
        let body = vec![9u8; 64];
        let frame = encode_framed(&1u8, &body).unwrap();
        let (_, back_body): (u8, Bytes) = decode_framed(&frame).unwrap();
        // Zero-copy: the body points into the frame's buffer.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(back_body.as_ptr() as usize)));
    }
}
