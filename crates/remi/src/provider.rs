//! The REMI provider: destination side of a migration.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mochi_margo::{MargoRuntime, RpcContext};
use mochi_mercury::BulkAccess;
use mochi_util::ordered_lock::{rank, OrderedMutex};

use crate::fileset::{checksum_file, FileEntry};
use crate::protocol::{self, rpc, EndArgs, PullArgs, StartArgs, TransferSummary};

struct Transfer {
    files: Vec<FileEntry>,
    dest_root: PathBuf,
    received_bytes: u64,
}

struct Inner {
    root: PathBuf,
    transfers: OrderedMutex<HashMap<String, Transfer>>,
    /// Summaries of finished transfers, so a retried `end`/`pull` (both
    /// declared idempotent by the client) replays its recorded result
    /// instead of failing on the already-consumed session.
    completed: OrderedMutex<HashMap<String, TransferSummary>>,
}

/// Destination-side migration endpoint. Registering one makes a process
/// able to receive filesets under `root`.
pub struct RemiProvider {
    margo: MargoRuntime,
    provider_id: u16,
    inner: Arc<Inner>,
}

fn ensure_parent(path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    Ok(())
}

/// Joins `rel` under `root`, refusing a path that would leave it: the rule
/// for where a migrated file may land.
fn safe_join(root: &Path, rel: &str) -> Result<PathBuf, String> {
    if rel.split('/').any(|c| c == ".." || c.is_empty() && !rel.is_empty()) || rel.starts_with('/') {
        return Err(format!("unsafe relative path '{rel}'"));
    }
    Ok(root.join(rel))
}

impl Inner {
    fn start(&self, args: StartArgs) -> Result<(), String> {
        let dest_root = match &args.dest_subdir {
            Some(sub) => safe_join(&self.root, sub)?,
            None => self.root.clone(),
        };
        std::fs::create_dir_all(&dest_root).map_err(|e| e.to_string())?;
        // Pre-create every file at its final size so chunk segments can be
        // written at absolute offsets in any order.
        for entry in &args.files {
            let path = safe_join(&dest_root, &entry.path)?;
            ensure_parent(&path)?;
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            file.set_len(entry.size).map_err(|e| e.to_string())?;
        }
        // A reused token supersedes any previous session: a retried
        // `start` (it is declared idempotent) resets the session it
        // started, and the files were just re-truncated above, so the
        // fresh record matches the on-disk state either way.
        self.completed.lock().remove(&args.token);
        self.transfers.lock().insert(
            args.token.clone(),
            Transfer { files: args.files, dest_root, received_bytes: 0 },
        );
        Ok(())
    }

    fn apply_chunk(&self, frame: &[u8]) -> Result<(), String> {
        let (header, body) = protocol::decode_chunk(frame)?;
        let mut transfers = self.transfers.lock();
        let transfer = transfers
            .get_mut(&header.token)
            .ok_or_else(|| format!("unknown transfer '{}'", header.token))?;
        let mut cursor = 0usize;
        for segment in &header.segments {
            let entry = transfer
                .files
                .get(segment.file_index as usize)
                .ok_or_else(|| format!("bad file index {}", segment.file_index))?;
            let end = segment.offset + segment.len as u64;
            if end > entry.size {
                return Err(format!("segment past EOF for '{}'", entry.path));
            }
            let path = safe_join(&transfer.dest_root, &entry.path)?;
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            file.write_all_at(&body[cursor..cursor + segment.len as usize], segment.offset)
                .map_err(|e| e.to_string())?;
            cursor += segment.len as usize;
            transfer.received_bytes += segment.len as u64;
        }
        Ok(())
    }

    fn verify_and_finish(&self, token: &str) -> Result<TransferSummary, String> {
        let transfer = match self.transfers.lock().remove(token) {
            Some(transfer) => transfer,
            // A retry of an `end`/`pull` that already finished: replay
            // the recorded summary.
            None => {
                return self
                    .completed
                    .lock()
                    .get(token)
                    .cloned()
                    .ok_or_else(|| format!("unknown transfer '{token}'"));
            }
        };
        let mut bytes = 0u64;
        for entry in &transfer.files {
            let path = safe_join(&transfer.dest_root, &entry.path)?;
            let checksum = checksum_file(&path).map_err(|e| e.to_string())?;
            if checksum != entry.checksum {
                return Err(format!(
                    "checksum mismatch for '{}': got {checksum:#x}, want {:#x}",
                    entry.path, entry.checksum
                ));
            }
            bytes += entry.size;
        }
        let summary = TransferSummary { files: transfer.files.len() as u64, bytes };
        self.completed.lock().insert(token.to_string(), summary.clone());
        Ok(summary)
    }

    fn pull(&self, ctx: &RpcContext, args: PullArgs) -> Result<TransferSummary, String> {
        let (files, dest_root) = {
            let transfers = self.transfers.lock();
            match transfers.get(&args.token) {
                Some(transfer) => (transfer.files.clone(), transfer.dest_root.clone()),
                // A retried `pull` whose predecessor completed the
                // transfer: replay the summary, skip the re-pull.
                None => {
                    return self
                        .completed
                        .lock()
                        .get(&args.token)
                        .cloned()
                        .ok_or_else(|| format!("unknown transfer '{}'", args.token));
                }
            }
        };
        if args.bulk_handles.len() != files.len() {
            return Err(format!(
                "{} bulk handles for {} files",
                args.bulk_handles.len(),
                files.len()
            ));
        }
        for (entry, remote) in files.iter().zip(&args.bulk_handles) {
            let path = safe_join(&dest_root, &entry.path)?;
            let local = ctx
                .margo()
                .expose_bulk_file(&path, entry.size as usize, BulkAccess::WriteOnly)
                .map_err(|e| e.to_string())?;
            let result = ctx.bulk_pull(remote, 0, &local, 0, entry.size as usize);
            ctx.margo().unexpose_bulk(&local);
            result.map_err(|e| format!("bulk pull of '{}': {e}", entry.path))?;
        }
        {
            let mut transfers = self.transfers.lock();
            if let Some(t) = transfers.get_mut(&args.token) {
                t.received_bytes = files.iter().map(|f| f.size).sum();
            }
        }
        self.verify_and_finish(&args.token)
    }
}

impl RemiProvider {
    /// Registers a REMI provider on `margo` with the given provider id;
    /// received filesets are written under `root`.
    pub fn register(
        margo: &MargoRuntime,
        provider_id: u16,
        root: impl Into<PathBuf>,
        pool: Option<&str>,
    ) -> Result<Arc<Self>, mochi_margo::MargoError> {
        let inner = Arc::new(Inner {
            root: root.into(),
            transfers: OrderedMutex::new(rank::REMI_TRANSFERS, "remi.transfers", HashMap::new()),
            completed: OrderedMutex::new(rank::REMI_COMPLETED, "remi.completed", HashMap::new()),
        });

        let start_inner = Arc::clone(&inner);
        margo.register_typed(rpc::START, provider_id, pool, move |args: StartArgs, _ctx| {
            start_inner.start(args).map(|()| true)
        })?;

        let chunk_inner = Arc::clone(&inner);
        margo.register(
            rpc::CHUNK,
            provider_id,
            pool,
            Arc::new(move |ctx: RpcContext| match chunk_inner.apply_chunk(ctx.payload()) {
                Ok(()) => {
                    let _ = ctx.respond(&true);
                }
                Err(message) => {
                    let _ = ctx.respond_err(message);
                }
            }),
        )?;

        let end_inner = Arc::clone(&inner);
        margo.register_typed(rpc::END, provider_id, pool, move |args: EndArgs, _ctx| {
            end_inner.verify_and_finish(&args.token)
        })?;

        let pull_inner = Arc::clone(&inner);
        margo.register_typed(rpc::PULL, provider_id, pool, move |args: PullArgs, ctx| {
            pull_inner.pull(ctx, args)
        })?;

        Ok(Arc::new(Self { margo: margo.clone(), provider_id, inner }))
    }

    /// This provider's id.
    pub fn provider_id(&self) -> u16 {
        self.provider_id
    }

    /// The root directory migrated filesets land in.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// Unregisters the provider's RPCs (used when a Bedrock process stops
    /// the provider).
    pub fn deregister(&self) -> Result<(), mochi_margo::MargoError> {
        for name in [rpc::START, rpc::CHUNK, rpc::END, rpc::PULL] {
            self.margo.deregister(name, self.provider_id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_join_rejects_escapes() {
        let root = Path::new("/tmp/x");
        assert!(safe_join(root, "ok/file").is_ok());
        assert!(safe_join(root, "../evil").is_err());
        assert!(safe_join(root, "a/../../evil").is_err());
        assert!(safe_join(root, "/abs").is_err());
    }
}
