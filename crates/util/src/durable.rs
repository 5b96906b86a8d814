//! Durable file writes shared by the components that persist state.

use std::io::Write;
use std::path::Path;

/// Replaces `path` with `bytes` all at once: writes them under the
/// sibling name `path.with_extension("tmp")`, syncs, then renames over
/// `path`. A crash leaves either the old file or the new one, never a
/// torn mix, and a handle opened on the old file keeps reading the old
/// bytes.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn replaces_the_file_and_leaves_no_temporary_behind() {
        let dir = TempDir::new("atomic-write").unwrap();
        let path = dir.path().join("state.bin");
        atomic_write(&path, b"old").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!path.with_extension("tmp").exists());
    }
}
