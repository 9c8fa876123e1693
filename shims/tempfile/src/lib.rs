//! Minimal `tempfile` stand-in for offline builds: `tempdir()` and
//! [`TempDir`] only. Uniqueness comes from the process id plus an atomic
//! counter; `create_dir` collisions retry with the next counter value.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory deleted (recursively) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Create a fresh directory under the system temp dir, deleted
/// (recursively) when its [`TempDir`] drops.
pub fn tempdir() -> io::Result<TempDir> {
    let base = std::env::temp_dir();
    let pid = std::process::id();
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("wsq-shimtmp-{pid}-{n}"));
        match fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir { path }),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_creates_and_cleans_up() {
        let kept_path;
        {
            let d = tempdir().unwrap();
            kept_path = d.path().to_path_buf();
            assert!(kept_path.is_dir());
            fs::write(kept_path.join("f.txt"), b"x").unwrap();
        }
        assert!(!kept_path.exists());
    }

    #[test]
    fn tempdirs_are_distinct() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
    }
}
