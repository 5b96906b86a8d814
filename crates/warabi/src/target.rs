//! Blob targets: the abstract resource behind a Warabi provider.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use mochi_util::unique_u64;

/// Identifier of one blob within a target.
pub type BlobId = u64;

/// Errors raised by blob targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarabiError {
    /// Unknown blob id.
    NoSuchBlob(BlobId),
    /// Access outside the blob's bounds.
    OutOfBounds { id: BlobId, offset: u64, len: u64, size: u64 },
    /// I/O failure.
    Io(String),
    /// Configuration error.
    Config(String),
}

impl fmt::Display for WarabiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarabiError::NoSuchBlob(id) => write!(f, "no blob {id}"),
            WarabiError::OutOfBounds { id, offset, len, size } => {
                write!(f, "blob {id}: [{offset}, {}) outside size {size}", offset + len)
            }
            WarabiError::Io(m) => write!(f, "io: {m}"),
            WarabiError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for WarabiError {}

impl From<std::io::Error> for WarabiError {
    fn from(e: std::io::Error) -> Self {
        WarabiError::Io(e.to_string())
    }
}

/// The abstract target interface.
pub trait BlobTarget: Send + Sync {
    /// Backend name (`"memory"`, `"file"`).
    fn backend_name(&self) -> &'static str;

    /// Allocates a zero-filled blob of `size` bytes.
    fn create(&self, size: u64) -> Result<BlobId, WarabiError>;

    /// Stores `data` as blob `id`, replacing any blob of that id: a
    /// checkpoint restores under the ids its clients hold.
    fn restore_blob(&self, id: BlobId, data: &[u8]) -> Result<(), WarabiError>;

    /// Writes `data` at `offset`.
    fn write(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<(), WarabiError>;

    /// Reads `len` bytes at `offset`.
    fn read(&self, id: BlobId, offset: u64, len: u64) -> Result<Vec<u8>, WarabiError>;

    /// Size of a blob.
    fn size(&self, id: BlobId) -> Result<u64, WarabiError>;

    /// Forces the blob to durable storage (no-op in memory).
    fn persist(&self, id: BlobId) -> Result<(), WarabiError>;

    /// Deletes a blob; returns whether it existed.
    fn erase(&self, id: BlobId) -> Result<bool, WarabiError>;

    /// All blob ids, ascending.
    fn list(&self) -> Result<Vec<BlobId>, WarabiError>;

    /// Flush everything (migration quiesce).
    fn flush(&self) -> Result<(), WarabiError>;
}

/// The file name blob `id` has in a file target and in a checkpoint.
pub(crate) fn blob_file_name(id: BlobId) -> String {
    format!("blob-{id}.bin")
}

/// The blob id a [`blob_file_name`] names.
pub(crate) fn blob_id_of(file_name: &str) -> Option<BlobId> {
    file_name.strip_prefix("blob-")?.strip_suffix(".bin")?.parse().ok()
}

fn check_bounds(id: BlobId, offset: u64, len: u64, size: u64) -> Result<(), WarabiError> {
    if offset.checked_add(len).is_none_or(|end| end > size) {
        Err(WarabiError::OutOfBounds { id, offset, len, size })
    } else {
        Ok(())
    }
}

/// In-memory target.
#[derive(Default)]
pub struct MemoryTarget {
    // leaf: bytes are copied in or out under it; nothing is called.
    blobs: RwLock<BTreeMap<BlobId, Vec<u8>>>,
}

impl MemoryTarget {
    /// Creates an empty target.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlobTarget for MemoryTarget {
    fn backend_name(&self) -> &'static str {
        "memory"
    }

    fn create(&self, size: u64) -> Result<BlobId, WarabiError> {
        let id = unique_u64();
        self.blobs.write().insert(id, vec![0u8; size as usize]);
        Ok(id)
    }

    fn restore_blob(&self, id: BlobId, data: &[u8]) -> Result<(), WarabiError> {
        self.blobs.write().insert(id, data.to_vec());
        Ok(())
    }

    fn write(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<(), WarabiError> {
        let mut blobs = self.blobs.write();
        let blob = blobs.get_mut(&id).ok_or(WarabiError::NoSuchBlob(id))?;
        check_bounds(id, offset, data.len() as u64, blob.len() as u64)?;
        blob[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, id: BlobId, offset: u64, len: u64) -> Result<Vec<u8>, WarabiError> {
        let blobs = self.blobs.read();
        let blob = blobs.get(&id).ok_or(WarabiError::NoSuchBlob(id))?;
        check_bounds(id, offset, len, blob.len() as u64)?;
        Ok(blob[offset as usize..(offset + len) as usize].to_vec())
    }

    fn size(&self, id: BlobId) -> Result<u64, WarabiError> {
        let blobs = self.blobs.read();
        blobs.get(&id).map(|b| b.len() as u64).ok_or(WarabiError::NoSuchBlob(id))
    }

    fn persist(&self, id: BlobId) -> Result<(), WarabiError> {
        self.size(id).map(|_| ())
    }

    fn erase(&self, id: BlobId) -> Result<bool, WarabiError> {
        Ok(self.blobs.write().remove(&id).is_some())
    }

    fn list(&self) -> Result<Vec<BlobId>, WarabiError> {
        Ok(self.blobs.read().keys().copied().collect())
    }

    fn flush(&self) -> Result<(), WarabiError> {
        Ok(())
    }
}

/// File-backed target: one `blob-<id>.bin` per blob under a directory.
pub struct FileTarget {
    dir: PathBuf,
    // leaf: map operations only; file I/O runs outside it.
    sizes: RwLock<BTreeMap<BlobId, u64>>,
}

impl FileTarget {
    /// Opens (or creates) a target in `dir`, indexing existing blobs.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WarabiError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut sizes = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(id) = blob_id_of(&entry.file_name().to_string_lossy()) {
                sizes.insert(id, entry.metadata()?.len());
            }
        }
        Ok(Self { dir, sizes: RwLock::new(sizes) })
    }

    fn path(&self, id: BlobId) -> PathBuf {
        self.dir.join(blob_file_name(id))
    }

    /// The backing directory (migration support).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl BlobTarget for FileTarget {
    fn backend_name(&self) -> &'static str {
        "file"
    }

    fn create(&self, size: u64) -> Result<BlobId, WarabiError> {
        let id = unique_u64();
        let file = OpenOptions::new().create_new(true).write(true).open(self.path(id))?;
        file.set_len(size)?;
        self.sizes.write().insert(id, size);
        Ok(id)
    }

    fn restore_blob(&self, id: BlobId, data: &[u8]) -> Result<(), WarabiError> {
        std::fs::write(self.path(id), data)?;
        self.sizes.write().insert(id, data.len() as u64);
        Ok(())
    }

    fn write(&self, id: BlobId, offset: u64, data: &[u8]) -> Result<(), WarabiError> {
        let size = self.size(id)?;
        check_bounds(id, offset, data.len() as u64, size)?;
        let file = OpenOptions::new().write(true).open(self.path(id))?;
        file.write_all_at(data, offset)?;
        Ok(())
    }

    fn read(&self, id: BlobId, offset: u64, len: u64) -> Result<Vec<u8>, WarabiError> {
        let size = self.size(id)?;
        check_bounds(id, offset, len, size)?;
        let file = OpenOptions::new().read(true).open(self.path(id))?;
        let mut out = vec![0u8; len as usize];
        file.read_exact_at(&mut out, offset)?;
        Ok(out)
    }

    fn size(&self, id: BlobId) -> Result<u64, WarabiError> {
        self.sizes.read().get(&id).copied().ok_or(WarabiError::NoSuchBlob(id))
    }

    fn persist(&self, id: BlobId) -> Result<(), WarabiError> {
        let file = OpenOptions::new().read(true).open(self.path(id))?;
        file.sync_data()?;
        Ok(())
    }

    fn erase(&self, id: BlobId) -> Result<bool, WarabiError> {
        if self.sizes.write().remove(&id).is_some() {
            std::fs::remove_file(self.path(id))?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn list(&self) -> Result<Vec<BlobId>, WarabiError> {
        Ok(self.sizes.read().keys().copied().collect())
    }

    fn flush(&self) -> Result<(), WarabiError> {
        for id in self.list()? {
            self.persist(id)?;
        }
        Ok(())
    }
}

/// Target selection from the provider's `config` JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetConfig {
    /// `"memory"` or `"file"`.
    #[serde(default = "default_target")]
    pub target: String,
}

fn default_target() -> String {
    "memory".into()
}

impl Default for TargetConfig {
    fn default() -> Self {
        Self { target: default_target() }
    }
}

/// Instantiates a target in `dir` (used by file-backed targets).
pub fn create_target(
    config: &TargetConfig,
    dir: &Path,
) -> Result<Box<dyn BlobTarget>, WarabiError> {
    match config.target.as_str() {
        "memory" => Ok(Box::new(MemoryTarget::new())),
        "file" => Ok(Box::new(FileTarget::open(dir)?)),
        other => Err(WarabiError::Config(format!("unknown target '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochi_util::TempDir;

    fn exercise(target: &dyn BlobTarget) {
        let id = target.create(100).unwrap();
        assert_eq!(target.size(id).unwrap(), 100);
        target.write(id, 10, b"hello").unwrap();
        assert_eq!(target.read(id, 10, 5).unwrap(), b"hello");
        assert_eq!(target.read(id, 0, 1).unwrap(), vec![0]);
        // Bounds.
        assert!(matches!(
            target.write(id, 98, b"xxx"),
            Err(WarabiError::OutOfBounds { .. })
        ));
        assert!(matches!(target.read(id, 200, 1), Err(WarabiError::OutOfBounds { .. })));
        target.persist(id).unwrap();
        assert_eq!(target.list().unwrap(), vec![id]);
        assert!(target.erase(id).unwrap());
        assert!(!target.erase(id).unwrap());
        assert!(matches!(target.read(id, 0, 1), Err(WarabiError::NoSuchBlob(_))));
    }

    #[test]
    fn memory_target_behaves() {
        exercise(&MemoryTarget::new());
    }

    #[test]
    fn file_target_behaves() {
        let dir = TempDir::new("warabi-file").unwrap();
        exercise(&FileTarget::open(dir.path()).unwrap());
    }

    #[test]
    fn file_target_survives_reopen() {
        let dir = TempDir::new("warabi-reopen").unwrap();
        let id;
        {
            let target = FileTarget::open(dir.path()).unwrap();
            id = target.create(16).unwrap();
            target.write(id, 0, b"persistent-blob!").unwrap();
            target.flush().unwrap();
        }
        let target = FileTarget::open(dir.path()).unwrap();
        assert_eq!(target.list().unwrap(), vec![id]);
        assert_eq!(target.read(id, 0, 16).unwrap(), b"persistent-blob!");
    }

    #[test]
    fn factory_dispatches() {
        let dir = TempDir::new("warabi-factory").unwrap();
        assert_eq!(
            create_target(&TargetConfig::default(), dir.path()).unwrap().backend_name(),
            "memory"
        );
        let file = TargetConfig { target: "file".into() };
        assert_eq!(create_target(&file, dir.path()).unwrap().backend_name(), "file");
        let bad = TargetConfig { target: "tape".into() };
        assert!(create_target(&bad, dir.path()).is_err());
    }

    #[test]
    fn overflow_offsets_rejected() {
        let target = MemoryTarget::new();
        let id = target.create(10).unwrap();
        assert!(matches!(
            target.read(id, u64::MAX, 2),
            Err(WarabiError::OutOfBounds { .. })
        ));
    }
}
