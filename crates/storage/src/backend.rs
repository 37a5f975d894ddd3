//! Storage media behind the write-ahead log.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A byte log that can be appended to, read back whole, and truncated.
///
/// Implementations must make `append` atomic with respect to `read_all`
/// observed after a reopen: a torn tail may be incomplete, but previously
/// synced records must survive (the WAL's CRC framing detects the tear).
pub trait LogBackend {
    /// Appends raw bytes at the end of the log.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the medium rejects the write.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Reads the entire log contents.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the medium cannot be read.
    fn read_all(&self) -> std::io::Result<Vec<u8>>;

    /// Replaces the whole log with `bytes` (used by compaction).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the medium rejects the rewrite.
    fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Cuts the log back to its first `len` bytes (how the WAL drops a
    /// torn tail). The default rewrites the prefix it reads back; a medium
    /// that can cut in place should, so that no crash during the cut can
    /// take the prefix with it.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the medium cannot be read or cut.
    fn truncate_to(&mut self, len: usize) -> std::io::Result<()> {
        let mut bytes = self.read_all()?;
        bytes.truncate(len);
        self.rewrite(&bytes)
    }

    /// Current log size in bytes.
    fn len(&self) -> usize;

    /// Whether the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces buffered writes to durable storage (fsync for file-backed
    /// media). Volatile backends have nothing to do; the graceful-shutdown
    /// path calls this so a node's final checkpoint survives power loss.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the medium cannot be synced.
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// In-memory backend with shared handles.
///
/// Cloning shares the underlying buffer, which is exactly what simulated
/// crash-recovery needs: the validator's volatile state dies, the backend
/// handle survives.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// A fresh, empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Truncates the log to `len` bytes — test helper for simulating a torn
    /// (partially persisted) tail.
    pub fn truncate(&self, len: usize) {
        self.bytes.lock().truncate(len);
    }

    /// Flips one bit at `offset` — test helper for simulating corruption.
    pub fn corrupt(&self, offset: usize) {
        let mut bytes = self.bytes.lock();
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 0x01;
        }
    }
}

impl LogBackend for MemBackend {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut guard = self.bytes.lock();
        guard.clear();
        guard.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> usize {
        self.bytes.lock().len()
    }
}

/// File-system backend (append-mode writes, whole-file reads).
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    file: File,
}

impl FileBackend {
    /// Opens (or creates) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be opened or created.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).read(true).open(&path)?;
        Ok(FileBackend { path, file })
    }

    /// The file path backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogBackend for FileBackend {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.flush()
    }

    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        let mut f = File::open(&self.path)?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    /// Write-then-rename: the new contents go to `<log>.tmp`, which is
    /// synced and then renamed over the log, so a crash at any point
    /// leaves the old log or the new one whole. A `.tmp` an earlier crash
    /// left behind is overwritten, never read.
    fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).read(true).open(&self.path)?;
        // The rename itself is durable once the directory is.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }

    /// One `ftruncate`: the file has either its old length or `len`, never
    /// less.
    fn truncate_to(&mut self, len: usize) -> std::io::Result<()> {
        self.file.set_len(len as u64)
    }

    fn len(&self) -> usize {
        std::fs::metadata(&self.path).map(|m| m.len() as usize).unwrap_or(0)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_shares_bytes_across_clones() {
        let a = MemBackend::new();
        let mut b = a.clone();
        b.append(b"hello").unwrap();
        assert_eq!(a.read_all().unwrap(), b"hello");
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn mem_backend_rewrite_replaces() {
        let mut m = MemBackend::new();
        m.append(b"old").unwrap();
        m.rewrite(b"new!").unwrap();
        assert_eq!(m.read_all().unwrap(), b"new!");
    }

    #[test]
    fn file_backend_roundtrip() {
        let path = std::env::temp_dir().join(format!("hh-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut f = FileBackend::open(&path).unwrap();
            f.append(b"abc").unwrap();
            f.append(b"def").unwrap();
            assert_eq!(f.len(), 6);
        }
        {
            // Reopen, data persists, appends continue.
            let mut f = FileBackend::open(&path).unwrap();
            assert_eq!(f.read_all().unwrap(), b"abcdef");
            f.append(b"!").unwrap();
            assert_eq!(f.read_all().unwrap(), b"abcdef!");
            f.rewrite(b"xy").unwrap();
            assert_eq!(f.read_all().unwrap(), b"xy");
            f.append(b"z").unwrap();
            assert_eq!(f.read_all().unwrap(), b"xyz");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
