//! Shared plumbing: scratch directories inside the working directory,
//! and the timing wrapper around the `StorageBackend` seam.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vup_serve::StorageBackend;

use crate::measure::Acc;

/// Where the benchmark keeps its stores and logs, relative to the
/// directory it runs from.
const WORK_ROOT: &str = ".bench_work";

/// A scratch directory under [`WORK_ROOT`], removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// A fresh, empty directory named after `label` and this process.
    pub fn new(label: &str) -> Result<WorkDir, String> {
        let path = Path::new(WORK_ROOT).join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// A not-yet-existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the shared root in place while another run uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// What passed through a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct IoStats {
    /// Time and calls of every backend method.
    pub calls: Acc,
    /// Bytes handed to `write` and `append`.
    pub bytes_written: AtomicU64,
}

impl IoStats {
    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        self.calls.reset();
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

/// Delegates every `StorageBackend` method to `inner`, timing each call
/// and counting the bytes written.
pub struct TimedBackend {
    inner: Box<dyn StorageBackend>,
    stats: Arc<IoStats>,
}

impl TimedBackend {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn StorageBackend>, stats: Arc<IoStats>) -> TimedBackend {
        TimedBackend { inner, stats }
    }

    fn wrote(&self, bytes: &[u8]) {
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}

impl StorageBackend for TimedBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.stats.calls.time(|| self.inner.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes);
        self.stats.calls.time(|| self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes);
        self.stats.calls.time(|| self.inner.append(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.stats.calls.time(|| self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.stats.calls.time(|| self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.stats.calls.time(|| self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.stats.calls.time(|| self.inner.create_dir_all(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_serve::DiskBackend;

    #[test]
    fn timed_backend_delegates_and_counts() {
        let dir = WorkDir::new("seams-test").unwrap();
        let stats = Arc::new(IoStats::default());
        let backend = TimedBackend::new(Box::new(DiskBackend), Arc::clone(&stats));
        let root = dir.sub("d");
        backend.create_dir_all(&root).unwrap();
        let file = root.join("f");
        backend.write(&file, b"abc").unwrap();
        backend.append(&file, b"de").unwrap();
        assert_eq!(backend.read(&file).unwrap(), b"abcde");
        let moved = root.join("g");
        backend.rename(&file, &moved).unwrap();
        assert_eq!(backend.list(&root).unwrap(), vec![moved.clone()]);
        backend.remove(&moved).unwrap();
        assert_eq!(stats.calls.calls(), 7);
        assert_eq!(stats.bytes(), 5);
        stats.reset();
        assert_eq!((stats.calls.calls(), stats.bytes()), (0, 0));
    }
}
