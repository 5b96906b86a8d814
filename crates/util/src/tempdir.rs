//! Self-cleaning temporary directories.
//!
//! Simulated processes use a `TempDir` as their node-local storage device,
//! and the resilience tests use one as the shared "parallel file system"
//! checkpoint area. The directory is removed when the handle is dropped
//! unless [`TempDir::keep`] was called.

use std::path::{Path, PathBuf};

use crate::id::unique_token;

/// A uniquely named directory under the system temp dir (or a chosen
/// parent), deleted on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
    keep: bool,
}

impl TempDir {
    /// Creates `"<system-temp>/mochi-<label>-<token>"`.
    pub fn new(label: &str) -> std::io::Result<Self> {
        Self::new_in(std::env::temp_dir(), label)
    }

    /// Creates a unique directory under `parent`.
    pub fn new_in(parent: impl AsRef<Path>, label: &str) -> std::io::Result<Self> {
        let sanitized: String =
            label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
        let path = parent.as_ref().join(format!("mochi-{}-{}", sanitized, unique_token()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path, keep: false })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Disables deletion on drop (e.g. to inspect artifacts after a
    /// failing experiment).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.keep {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "drop cannot report, and a directory left behind costs only disk space"
            )]
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let path;
        {
            let d = TempDir::new("unit").unwrap();
            path = d.path().to_path_buf();
            assert!(path.is_dir());
            std::fs::write(path.join("f"), b"x").unwrap();
        }
        assert!(!path.exists());
    }

    #[test]
    fn keep_preserves_directory() {
        let path;
        {
            let mut d = TempDir::new("unit-keep").unwrap();
            d.keep();
            path = d.path().to_path_buf();
        }
        assert!(path.exists());
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn two_tempdirs_do_not_collide() {
        let a = TempDir::new("same").unwrap();
        let b = TempDir::new("same").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn label_is_sanitized() {
        let d = TempDir::new("we/ird na:me").unwrap();
        let name = d.path().file_name().unwrap().to_string_lossy().into_owned();
        assert!(!name.contains('/') && !name.contains(':') && !name.contains(' '));
    }
}
