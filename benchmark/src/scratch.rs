//! Durable directories of the `live-durable` workload. They live under
//! `benchmark/target/tmp` (inside the checkout, ignored by git) and are
//! removed when the guard drops.

use std::io;
use std::path::{Path, PathBuf};

/// A directory removed, with everything in it, on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// A fresh, empty directory `benchmark/target/tmp/<label>-<pid>`.
    pub fn create(label: &str) -> io::Result<Self> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Errors cannot surface from `drop`; a leftover lives under an
        // ignored directory and the next run with this pid replaces it.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_live_under_target_tmp_and_are_removed_on_drop() {
        let dir = ScratchDir::create("scratch-test").expect("creates");
        let path = dir.path().to_path_buf();
        assert!(path.starts_with(Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tmp")));
        std::fs::write(path.join("wal-0.vxwl"), b"abc").expect("writes");
        let copy = path.join("copy");
        copy_dir(&path, &copy).expect("copies");
        assert_eq!(dir_bytes(&copy).expect("sizes"), 3);
        drop(dir);
        assert!(
            !path.exists(),
            "scratch directory must not outlive its guard"
        );
    }
}
