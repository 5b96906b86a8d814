//! Wire protocol of REMI: RPC names, argument types, and the binary chunk
//! framing.
//!
//! Chunk payloads deliberately bypass the argument codec: a chunk is
//! `[u32 header-length][mochi-wire header][raw bytes]`, so the network
//! model charges realistic byte counts and the pipelined-chunk strategy is
//! not penalized by argument-encoding inflation (real REMI likewise ships
//! raw buffers).

#![deny(clippy::disallowed_methods)]

use serde::{Deserialize, Serialize};

use mochi_mercury::BulkHandle;

use crate::fileset::FileEntry;

/// RPCs registered by a [`crate::provider::RemiProvider`].
/// The declarations themselves live in [`crate::rpc_names`].
pub use crate::rpc_names as rpc;

/// Transfer strategy (paper §6, Observation 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Whole-file bulk transfers (mmap + RDMA in the original).
    Rdma,
    /// Files packed into `chunk_size`-byte chunks, with up to `window`
    /// chunk RPCs in flight.
    ChunkedRpc {
        /// Bytes per chunk.
        chunk_size: usize,
        /// Maximum chunk RPCs in flight.
        window: usize,
    },
}

impl Strategy {
    /// The chunked strategy with its defaults (1 MiB chunks, window 8).
    pub fn chunked_default() -> Self {
        Strategy::ChunkedRpc { chunk_size: 1 << 20, window: 8 }
    }
}

/// `remi_migration_start` arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StartArgs {
    /// Transfer token chosen by the source; correlates later RPCs.
    pub token: String,
    /// Files to be transferred (relative paths + sizes + checksums).
    pub files: Vec<FileEntry>,
    /// Optional subdirectory (under the provider root) to place files in.
    pub dest_subdir: Option<String>,
}

/// `remi_migration_pull` arguments (RDMA strategy): one bulk handle per
/// file, parallel to `StartArgs::files`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PullArgs {
    /// Transfer token.
    pub token: String,
    /// Bulk handle exposing each file at the source, in file order.
    pub bulk_handles: Vec<BulkHandle>,
}

/// Header of a chunk frame (the mochi-wire-encoded part).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkHeader {
    /// Transfer token.
    pub token: String,
    /// Chunk sequence number (diagnostics only; chunks may be applied in
    /// any order since each segment addresses an absolute file offset).
    pub seq: u64,
    /// Segments packed in this chunk, in payload order.
    pub segments: Vec<ChunkSegment>,
}

/// One file segment within a chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkSegment {
    /// Index into `StartArgs::files`.
    pub file_index: u32,
    /// Offset within the file.
    pub offset: u64,
    /// Length of this segment's bytes in the chunk body.
    pub len: u32,
}

/// `remi_migration_end` arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndArgs {
    /// Transfer token.
    pub token: String,
}

/// Result of `remi_migration_end` / `remi_migration_pull`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferSummary {
    /// Files written.
    pub files: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// Encodes a chunk frame: `[u32 LE header length][wire header][body]`.
pub fn encode_chunk(header: &ChunkHeader, body: &[u8]) -> Result<Vec<u8>, String> {
    let header_bytes = mochi_wire::to_vec(header).map_err(|e| e.to_string())?;
    let mut frame = Vec::with_capacity(4 + header_bytes.len() + body.len());
    frame.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&header_bytes);
    frame.extend_from_slice(body);
    Ok(frame)
}

/// Decodes a chunk frame into its header and body.
pub fn decode_chunk(frame: &[u8]) -> Result<(ChunkHeader, &[u8]), String> {
    if frame.len() < 4 {
        return Err("chunk frame shorter than header length".into());
    }
    let header_len =
        u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    let rest = &frame[4..];
    if rest.len() < header_len {
        return Err(format!("chunk frame truncated: header {header_len} > {}", rest.len()));
    }
    let header: ChunkHeader =
        mochi_wire::from_slice(&rest[..header_len]).map_err(|e| e.to_string())?;
    let body = &rest[header_len..];
    let declared: usize = header.segments.iter().map(|s| s.len as usize).sum();
    if declared != body.len() {
        return Err(format!("chunk body {} bytes, segments declare {declared}", body.len()));
    }
    Ok((header, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_frame_round_trip() {
        let header = ChunkHeader {
            token: "t1".into(),
            seq: 3,
            segments: vec![
                ChunkSegment { file_index: 0, offset: 0, len: 5 },
                ChunkSegment { file_index: 2, offset: 100, len: 3 },
            ],
        };
        let body = b"aaaaabbb";
        let frame = encode_chunk(&header, body).unwrap();
        let (back, back_body) = decode_chunk(&frame).unwrap();
        assert_eq!(back, header);
        assert_eq!(back_body, body);
    }

    #[test]
    fn truncated_frames_rejected() {
        assert!(decode_chunk(&[1, 2]).is_err());
        let header = ChunkHeader { token: "t".into(), seq: 0, segments: vec![] };
        let mut frame = encode_chunk(&header, b"").unwrap();
        frame.truncate(frame.len() - 1);
        assert!(decode_chunk(&frame).is_err());
    }

    #[test]
    fn mismatched_body_length_rejected() {
        let header = ChunkHeader {
            token: "t".into(),
            seq: 0,
            segments: vec![ChunkSegment { file_index: 0, offset: 0, len: 10 }],
        };
        let frame = encode_chunk(&header, b"short").unwrap();
        assert!(decode_chunk(&frame).is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a strategy is also a field of JSON migration options: this checks that form"
    )]
    fn strategy_serializes() {
        let s = Strategy::chunked_default();
        let json = serde_json::to_string(&s).unwrap();
        let back: Strategy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
