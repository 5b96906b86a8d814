//! The REMI client: source side of a migration.

use std::io::Read;
use std::time::Duration;

use bytes::Bytes;
use mochi_margo::{rpc_id_for_name, MargoError, MargoRuntime};
use mochi_mercury::{Address, BulkAccess, CallContext, PendingRequest, ResponseStatus};
use mochi_util::id::unique_token;
use mochi_util::time::Stopwatch;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::fileset::FileSet;
use crate::protocol::{
    self, rpc, ChunkHeader, ChunkSegment, EndArgs, PullArgs, StartArgs, Strategy, TransferSummary,
};

/// Options controlling a migration.
#[derive(Debug, Clone)]
pub struct MigrationOptions {
    /// Subdirectory (under the destination provider's root) to place the
    /// files in.
    pub dest_subdir: Option<String>,
    /// Delete source files after a successful transfer (migration), or
    /// keep them (copy).
    pub remove_source: bool,
    /// Per-RPC timeout.
    pub timeout: Duration,
}

impl Default for MigrationOptions {
    fn default() -> Self {
        Self { dest_subdir: None, remove_source: false, timeout: Duration::from_secs(30) }
    }
}

/// Outcome of a completed migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Files transferred.
    pub files: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Wall-clock duration in seconds.
    pub duration_s: f64,
    /// Strategy used.
    pub strategy: Strategy,
    /// Chunk RPCs issued (0 for the RDMA strategy).
    pub chunks: u64,
}

/// Source-side handle for migrating filesets to remote REMI providers.
#[derive(Clone)]
pub struct RemiClient {
    margo: MargoRuntime,
    context: CallContext,
}

impl RemiClient {
    /// Creates a client on `margo`.
    pub fn new(margo: &MargoRuntime) -> Self {
        // Restarting a session with the same token and re-pulling the same
        // exposed regions are safe; `end` and `chunk` are not (`end` tears
        // the session down, chunks are sequenced) and stay retry-free.
        margo.declare_idempotent(rpc::START);
        margo.declare_idempotent(rpc::PULL);
        Self { margo: margo.clone(), context: CallContext::TOP_LEVEL }
    }

    /// Threads a calling context (a handler passes
    /// `ctx.nested_context()`) so migration RPCs issued by this client
    /// count as nested calls and inherit the parent's remaining deadline
    /// budget instead of restarting it.
    pub fn with_context(mut self, context: CallContext) -> Self {
        self.context = context;
        self
    }

    /// Single chokepoint for typed RPCs: every forward in this client
    /// routes through here so retry, breaker, and deadline handling apply
    /// uniformly — `mochi-lint` MOCHI011 enforces this. (The windowed
    /// chunk pipeline drives the endpoint directly and is exempt.)
    fn call<I: Serialize, O: DeserializeOwned>(
        &self,
        rpc_name: &str,
        input: &I,
        dest: &Address,
        provider_id: u16,
        timeout: Duration,
    ) -> Result<O, MargoError> {
        self.margo.forward_full(dest, rpc_name, provider_id, input, self.context, timeout)
    }

    /// Migrates `fileset` to the REMI provider `(dest, provider_id)`.
    pub fn migrate(
        &self,
        dest: &Address,
        provider_id: u16,
        fileset: &FileSet,
        strategy: Strategy,
        options: &MigrationOptions,
    ) -> Result<MigrationReport, MargoError> {
        let stopwatch = Stopwatch::start();
        let token = unique_token();
        let start = StartArgs {
            token: token.clone(),
            files: fileset.files.clone(),
            dest_subdir: options.dest_subdir.clone(),
        };
        let _: bool = self.call(rpc::START, &start, dest, provider_id, options.timeout)?;

        let (summary, chunks) = match strategy {
            Strategy::Rdma => (self.run_rdma(dest, provider_id, fileset, &token, options)?, 0),
            Strategy::ChunkedRpc { chunk_size, window } => self.run_chunked(
                dest,
                provider_id,
                fileset,
                &token,
                chunk_size.max(1),
                window.max(1),
                options,
            )?,
        };

        if options.remove_source {
            fileset
                .remove_files()
                .map_err(|e| MargoError::Handler(format!("removing source files: {e}")))?;
        }

        Ok(MigrationReport {
            files: summary.files,
            bytes: summary.bytes,
            duration_s: stopwatch.elapsed_secs(),
            strategy,
            chunks,
        })
    }

    fn run_rdma(
        &self,
        dest: &Address,
        provider_id: u16,
        fileset: &FileSet,
        token: &str,
        options: &MigrationOptions,
    ) -> Result<TransferSummary, MargoError> {
        // Expose every file read-only (the mmap step), hand the handles to
        // the destination, let it pull, then revoke.
        let mut handles = Vec::with_capacity(fileset.len());
        for entry in &fileset.files {
            let handle = self
                .margo
                .expose_bulk_file(fileset.absolute(entry), entry.size as usize, BulkAccess::ReadOnly)
                .map_err(|e| MargoError::Handler(format!("exposing '{}': {e}", entry.path)))?;
            handles.push(handle);
        }
        let args = PullArgs { token: token.to_string(), bulk_handles: handles.clone() };
        let result: Result<TransferSummary, MargoError> =
            self.call(rpc::PULL, &args, dest, provider_id, options.timeout);
        for handle in &handles {
            self.margo.unexpose_bulk(handle);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_chunked(
        &self,
        dest: &Address,
        provider_id: u16,
        fileset: &FileSet,
        token: &str,
        chunk_size: usize,
        window: usize,
        options: &MigrationOptions,
    ) -> Result<(TransferSummary, u64), MargoError> {
        let chunk_rpc_id = rpc_id_for_name(rpc::CHUNK);
        let mut pending: std::collections::VecDeque<PendingRequest> =
            std::collections::VecDeque::new();
        let mut chunks_sent = 0u64;

        let wait_one = |p: PendingRequest| -> Result<(), MargoError> {
            let response = p.wait(options.timeout)?;
            match response.status {
                ResponseStatus::Ok => Ok(()),
                ResponseStatus::Error(message) => Err(MargoError::Handler(message)),
                ResponseStatus::NoHandler => Err(MargoError::NoHandler {
                    rpc: rpc::CHUNK.to_string(),
                    provider_id,
                }),
            }
        };

        // Pack segments across file boundaries into chunk_size chunks and
        // keep up to `window` chunk RPCs in flight (the pipelining the
        // paper credits for small-file efficiency).
        let mut header = ChunkHeader { token: token.to_string(), seq: 0, segments: Vec::new() };
        let mut body: Vec<u8> = Vec::with_capacity(chunk_size);
        let flush = |header: &mut ChunkHeader,
                         body: &mut Vec<u8>,
                         pending: &mut std::collections::VecDeque<PendingRequest>,
                         chunks_sent: &mut u64|
         -> Result<(), MargoError> {
            if header.segments.is_empty() {
                return Ok(());
            }
            let frame = protocol::encode_chunk(header, body).map_err(MargoError::Codec)?;
            while pending.len() >= window {
                wait_one(pending.pop_front().expect("nonempty window"))?;
            }
            let request = self.margo.endpoint().send_request(
                dest,
                chunk_rpc_id,
                provider_id,
                self.context,
                Bytes::from(frame),
            )?;
            pending.push_back(request);
            *chunks_sent += 1;
            header.seq += 1;
            header.segments.clear();
            body.clear();
            Ok(())
        };

        let mut read_buf = vec![0u8; 64 * 1024];
        for (file_index, entry) in fileset.files.iter().enumerate() {
            let path = fileset.absolute(entry);
            let mut file = std::fs::File::open(&path)
                .map_err(|e| MargoError::Handler(format!("open {}: {e}", path.display())))?;
            let mut offset = 0u64;
            loop {
                let want = (chunk_size - body.len()).min(read_buf.len());
                if want == 0 {
                    flush(&mut header, &mut body, &mut pending, &mut chunks_sent)?;
                    continue;
                }
                let n = file
                    .read(&mut read_buf[..want])
                    .map_err(|e| MargoError::Handler(format!("read {}: {e}", path.display())))?;
                if n == 0 {
                    break;
                }
                // Merge with the previous segment when contiguous.
                match header.segments.last_mut() {
                    Some(last)
                        if last.file_index == file_index as u32
                            && last.offset + last.len as u64 == offset =>
                    {
                        last.len += n as u32;
                    }
                    _ => header.segments.push(ChunkSegment {
                        file_index: file_index as u32,
                        offset,
                        len: n as u32,
                    }),
                }
                body.extend_from_slice(&read_buf[..n]);
                offset += n as u64;
                if body.len() >= chunk_size {
                    flush(&mut header, &mut body, &mut pending, &mut chunks_sent)?;
                }
            }
        }
        flush(&mut header, &mut body, &mut pending, &mut chunks_sent)?;
        while let Some(p) = pending.pop_front() {
            wait_one(p)?;
        }

        let summary: TransferSummary = self.call(
            rpc::END,
            &EndArgs { token: token.to_string() },
            dest,
            provider_id,
            options.timeout,
        )?;
        Ok((summary, chunks_sent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::RemiProvider;
    use mochi_mercury::Fabric;
    use mochi_util::{SeededRng, TempDir};
    use std::path::Path;

    fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
        MargoRuntime::init_default(fabric, Address::tcp(host, 1)).unwrap()
    }

    fn make_files(dir: &Path, spec: &[(&str, usize)], seed: u64) -> FileSet {
        let mut rng = SeededRng::new(seed);
        for (name, size) in spec {
            let path = dir.join(name);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).unwrap();
            }
            let mut data = vec![0u8; *size];
            rng.fill_bytes(&mut data);
            std::fs::write(path, data).unwrap();
        }
        FileSet::scan(dir).unwrap()
    }

    fn assert_identical(src: &FileSet, dest_root: &Path) {
        let dest = FileSet::scan(dest_root).unwrap();
        assert_eq!(dest.len(), src.len());
        for (a, b) in src.files.iter().zip(dest.files.iter()) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.size, b.size);
            assert_eq!(a.checksum, b.checksum, "checksum mismatch for {}", a.path);
        }
    }

    struct Env {
        _src_dir: TempDir,
        dest_dir: TempDir,
        source: MargoRuntime,
        dest: MargoRuntime,
        fileset: FileSet,
        client: RemiClient,
        _provider: std::sync::Arc<RemiProvider>,
    }

    fn env(spec: &[(&str, usize)]) -> Env {
        let fabric = Fabric::new();
        let source = boot(&fabric, "src");
        let dest = boot(&fabric, "dst");
        let src_dir = TempDir::new("remi-src").unwrap();
        let dest_dir = TempDir::new("remi-dst").unwrap();
        let fileset = make_files(src_dir.path(), spec, 42);
        let provider = RemiProvider::register(&dest, 1, dest_dir.path(), None).unwrap();
        let client = RemiClient::new(&source);
        Env {
            _src_dir: src_dir,
            dest_dir,
            source,
            dest,
            fileset,
            client,
            _provider: provider,
        }
    }

    #[test]
    fn rdma_migration_moves_files_intact() {
        let e = env(&[("big.bin", 200_000), ("dir/nested.bin", 5_000)]);
        let report = e
            .client
            .migrate(
                &e.dest.address(),
                1,
                &e.fileset,
                Strategy::Rdma,
                &MigrationOptions::default(),
            )
            .unwrap();
        assert_eq!(report.files, 2);
        assert_eq!(report.bytes, 205_000);
        assert_eq!(report.chunks, 0);
        assert_identical(&e.fileset, e.dest_dir.path());
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn chunked_migration_moves_files_intact() {
        let spec: Vec<(String, usize)> =
            (0..20).map(|i| (format!("small/{i:02}.dat"), 1000 + i * 37)).collect();
        let spec_refs: Vec<(&str, usize)> =
            spec.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let e = env(&spec_refs);
        let report = e
            .client
            .migrate(
                &e.dest.address(),
                1,
                &e.fileset,
                Strategy::ChunkedRpc { chunk_size: 4096, window: 4 },
                &MigrationOptions::default(),
            )
            .unwrap();
        assert_eq!(report.files, 20);
        assert!(report.chunks >= 5, "expected multiple chunks, got {}", report.chunks);
        assert_identical(&e.fileset, e.dest_dir.path());
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn chunk_smaller_than_file_splits_and_reassembles() {
        let e = env(&[("one.bin", 10_000)]);
        let report = e
            .client
            .migrate(
                &e.dest.address(),
                1,
                &e.fileset,
                Strategy::ChunkedRpc { chunk_size: 1024, window: 2 },
                &MigrationOptions::default(),
            )
            .unwrap();
        assert_eq!(report.chunks, 10);
        assert_identical(&e.fileset, e.dest_dir.path());
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn remove_source_deletes_after_success() {
        let e = env(&[("gone.bin", 500)]);
        let options = MigrationOptions { remove_source: true, ..Default::default() };
        e.client
            .migrate(&e.dest.address(), 1, &e.fileset, Strategy::Rdma, &options)
            .unwrap();
        assert!(FileSet::scan(&e.fileset.root).unwrap().is_empty());
        assert_identical(&e.fileset, e.dest_dir.path()); // checksums recorded pre-removal
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn dest_subdir_honored() {
        let e = env(&[("f.bin", 100)]);
        let options =
            MigrationOptions { dest_subdir: Some("target-7".into()), ..Default::default() };
        e.client
            .migrate(&e.dest.address(), 1, &e.fileset, Strategy::Rdma, &options)
            .unwrap();
        assert!(e.dest_dir.path().join("target-7/f.bin").is_file());
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn empty_fileset_migrates_trivially() {
        let e = env(&[]);
        for strategy in [Strategy::Rdma, Strategy::chunked_default()] {
            let report = e
                .client
                .migrate(
                    &e.dest.address(),
                    1,
                    &e.fileset,
                    strategy,
                    &MigrationOptions::default(),
                )
                .unwrap();
            assert_eq!(report.files, 0);
            assert_eq!(report.bytes, 0);
        }
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn migration_to_missing_provider_fails() {
        let e = env(&[("f.bin", 10)]);
        let err = e
            .client
            .migrate(
                &e.dest.address(),
                99, // no such provider
                &e.fileset,
                Strategy::Rdma,
                &MigrationOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, MargoError::NoHandler { .. }));
        e.source.finalize();
        e.dest.finalize();
    }

    #[test]
    fn corrupted_source_detected_by_checksum() {
        let e = env(&[("f.bin", 1000)]);
        // Corrupt the file *after* scanning so the recorded checksum no
        // longer matches what gets transferred.
        std::fs::write(e.fileset.absolute(&e.fileset.files[0]), vec![0u8; 1000]).unwrap();
        let err = e
            .client
            .migrate(
                &e.dest.address(),
                1,
                &e.fileset,
                Strategy::Rdma,
                &MigrationOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, MargoError::Handler(ref m) if m.contains("checksum")), "{err}");
        e.source.finalize();
        e.dest.finalize();
    }
}
