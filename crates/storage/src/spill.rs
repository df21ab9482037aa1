//! Checksummed spill files for operators that exceed their memory grant.
//!
//! A spill file is a sequence of frames, `len u64 LE | crc32 u32 |
//! payload`. Spilled data is recomputable from the operator's inputs, so
//! frames are buffered-written without fsync — losing them in a crash
//! costs a re-run, not an artifact — but every frame carries a CRC so a
//! failing disk corrupts loudly instead of silently reordering a sort.
//!
//! [`SpillDir`] owns a unique temporary directory and deletes it (runs
//! and all) when dropped, so an aborted query leaves nothing behind.

use crate::atomic::crc32;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("spill frame: {msg}"))
}

/// A process-unique temporary directory for one operator's spill runs.
/// Removed recursively on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh spill directory under `root` (usually the system
    /// temp dir or the query's scratch space).
    pub fn new(root: &Path, label: &str) -> io::Result<SpillDir> {
        let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!(
            "esharp_spill_{label}_{}_{n}",
            std::process::id()
        ));
        fs::create_dir_all(&path)?;
        Ok(SpillDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Start a new run file inside the directory.
    pub fn writer(&self, name: &str) -> io::Result<SpillWriter> {
        SpillWriter::create(self.path.join(name))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Sequentially appends checksummed frames to one run file.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    file: BufWriter<File>,
    frames: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Create (truncate) the run file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<SpillWriter> {
        let path = path.into();
        let file = BufWriter::new(File::create(&path)?);
        Ok(SpillWriter {
            path,
            file,
            frames: 0,
            bytes: 0,
        })
    }

    /// Append one frame.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.file.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.frames += 1;
        self.bytes += 12 + payload.len() as u64;
        Ok(())
    }

    /// Flush and close, returning a handle the reader side opens.
    pub fn finish(mut self) -> io::Result<SpillHandle> {
        self.file.flush()?;
        Ok(SpillHandle {
            path: self.path,
            frames: self.frames,
            bytes: self.bytes,
        })
    }
}

/// A finished spill run: path plus frame/byte counts for accounting.
#[derive(Debug, Clone)]
pub struct SpillHandle {
    /// Run file path (inside a [`SpillDir`]).
    pub path: PathBuf,
    /// Frames written.
    pub frames: u64,
    /// Total bytes written, headers included.
    pub bytes: u64,
}

impl SpillHandle {
    /// Open the run for sequential reading.
    pub fn reader(&self) -> io::Result<SpillReader> {
        Ok(SpillReader {
            file: BufReader::new(File::open(&self.path)?),
            remaining: self.frames,
        })
    }
}

/// Sequential frame reader over one spill run.
#[derive(Debug)]
pub struct SpillReader {
    file: BufReader<File>,
    remaining: u64,
}

impl SpillReader {
    /// The next frame's payload, or `None` after the last. Verifies the
    /// frame CRC and errors with `InvalidData` on any mismatch.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut header = [0u8; 12];
        self.file
            .read_exact(&mut header)
            .map_err(|_| invalid("truncated header"))?;
        let len = u64::from_le_bytes([
            header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7],
        ]) as usize;
        let expected = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let mut payload = vec![0u8; len];
        self.file
            .read_exact(&mut payload)
            .map_err(|_| invalid("truncated payload"))?;
        if crc32(&payload) != expected {
            return Err(invalid("checksum mismatch"));
        }
        self.remaining -= 1;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_order() {
        let dir = SpillDir::new(&std::env::temp_dir(), "rt").unwrap();
        let mut w = dir.writer("run-0").unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(b"third frame").unwrap();
        let handle = w.finish().unwrap();
        assert_eq!(handle.frames, 3);
        let mut r = handle.reader().unwrap();
        assert_eq!(r.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"third frame");
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn corrupt_frame_fails_loudly() {
        let dir = SpillDir::new(&std::env::temp_dir(), "corrupt").unwrap();
        let mut w = dir.writer("run-0").unwrap();
        w.append(b"sort run payload").unwrap();
        let handle = w.finish().unwrap();
        let mut bytes = fs::read(&handle.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&handle.path, &bytes).unwrap();
        let mut r = handle.reader().unwrap();
        let err = r.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn spill_dir_cleans_up_after_itself() {
        let path;
        {
            let dir = SpillDir::new(&std::env::temp_dir(), "cleanup").unwrap();
            let mut w = dir.writer("run-0").unwrap();
            w.append(b"x").unwrap();
            w.finish().unwrap();
            path = dir.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
