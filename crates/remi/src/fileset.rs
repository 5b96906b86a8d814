//! Filesets: the unit of migration.
//!
//! A [`FileSet`] is a root directory plus the relative paths, sizes, and
//! checksums of the files beneath it. Components that want their state to
//! be migratable expose it as a fileset (Yokan's LSM backend and Warabi's
//! file targets do).

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mochi_util::checksum::Crc64Hasher;

/// One file within a fileset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    /// Path relative to the fileset root, with `/` separators.
    pub path: String,
    /// Size in bytes.
    pub size: u64,
    /// CRC-64 of the contents.
    pub checksum: u64,
}

/// A set of files rooted at a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSet {
    /// Absolute root directory.
    pub root: PathBuf,
    /// Files, sorted by path for determinism.
    pub files: Vec<FileEntry>,
}

/// Computes the CRC-64 of a file by streaming it.
pub fn checksum_file(path: &Path) -> io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Crc64Hasher::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(hasher.finish())
}

impl FileSet {
    /// Scans `root` recursively and builds the fileset.
    pub fn scan(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        let mut files = Vec::new();
        let mut stack = vec![root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let file_type = entry.file_type()?;
                if file_type.is_dir() {
                    stack.push(path);
                } else if file_type.is_file() {
                    let rel = path
                        .strip_prefix(&root)
                        .map_err(io::Error::other)?
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/");
                    let size = entry.metadata()?.len();
                    let checksum = checksum_file(&path)?;
                    files.push(FileEntry { path: rel, size, checksum });
                }
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Self { root, files })
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the fileset has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Absolute path of one entry.
    pub fn absolute(&self, entry: &FileEntry) -> PathBuf {
        self.root.join(&entry.path)
    }

    /// Deletes all files in the set (the "migration" half of
    /// migrate-vs-copy) and prunes now-empty directories best-effort.
    pub fn remove_files(&self) -> io::Result<()> {
        for entry in &self.files {
            std::fs::remove_file(self.absolute(entry))?;
        }
        // Prune empty subdirectories bottom-up, ignoring failures.
        let mut dirs: Vec<PathBuf> = self
            .files
            .iter()
            .filter_map(|f| self.absolute(f).parent().map(Path::to_path_buf))
            .collect();
        dirs.sort_by_key(|d| std::cmp::Reverse(d.components().count()));
        dirs.dedup();
        for dir in dirs {
            if dir != self.root {
                let _ = std::fs::remove_dir(dir);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochi_util::TempDir;

    fn populate(dir: &Path) {
        std::fs::create_dir_all(dir.join("sub/deep")).unwrap();
        std::fs::write(dir.join("a.dat"), b"alpha").unwrap();
        std::fs::write(dir.join("sub/b.dat"), b"beta-data").unwrap();
        std::fs::write(dir.join("sub/deep/c.dat"), vec![7u8; 1000]).unwrap();
    }

    #[test]
    fn scan_finds_all_files_sorted() {
        let tmp = TempDir::new("fileset").unwrap();
        populate(tmp.path());
        let fs = FileSet::scan(tmp.path()).unwrap();
        let paths: Vec<&str> = fs.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, vec!["a.dat", "sub/b.dat", "sub/deep/c.dat"]);
        assert_eq!(fs.total_bytes(), 5 + 9 + 1000);
        assert_eq!(fs.len(), 3);
    }

    #[test]
    fn checksums_match_contents() {
        let tmp = TempDir::new("fileset-crc").unwrap();
        populate(tmp.path());
        let fs = FileSet::scan(tmp.path()).unwrap();
        let a = fs.files.iter().find(|f| f.path == "a.dat").unwrap();
        assert_eq!(a.checksum, mochi_util::crc64(b"alpha"));
    }

    #[test]
    fn scan_empty_dir() {
        let tmp = TempDir::new("fileset-empty").unwrap();
        let fs = FileSet::scan(tmp.path()).unwrap();
        assert!(fs.is_empty());
        assert_eq!(fs.total_bytes(), 0);
    }

    #[test]
    fn remove_files_clears_contents() {
        let tmp = TempDir::new("fileset-rm").unwrap();
        populate(tmp.path());
        let fs = FileSet::scan(tmp.path()).unwrap();
        fs.remove_files().unwrap();
        let again = FileSet::scan(tmp.path()).unwrap();
        assert!(again.is_empty());
        assert!(tmp.path().exists(), "root is preserved");
    }

    #[test]
    fn entry_serializes() {
        let entry = FileEntry { path: "x/y".into(), size: 10, checksum: 42 };
        let json = serde_json::to_string(&entry).unwrap();
        let back: FileEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }
}
