//! Checksummed spill files for operators that exceed their memory grant.
//!
//! A spill file is a sequence of sealed frames ([`crate::atomic::read_frame`]).
//! Spilled data is recomputable from the operator's inputs, so frames are
//! buffered-written without fsync — losing them in a crash costs a re-run,
//! not an artifact — but every frame carries a CRC so a failing disk
//! corrupts loudly instead of silently reordering a sort.
//!
//! [`SpillDir`] owns a unique temporary directory and deletes it (runs
//! and all) when dropped, so an aborted query leaves nothing behind.

use crate::atomic::{frame_header, read_frame, FRAME_HEADER};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

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
        self.file.write_all(&frame_header(payload))?;
        self.file.write_all(payload)?;
        self.frames += 1;
        self.bytes += (FRAME_HEADER + payload.len()) as u64;
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
    /// Open the run for sequential reading. A file whose length is not
    /// the bytes written fails with `InvalidData`.
    pub fn reader(&self) -> io::Result<SpillReader> {
        let file = File::open(&self.path)?;
        if file.metadata()?.len() != self.bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "spill run: file length differs from the bytes written",
            ));
        }
        Ok(SpillReader {
            file: BufReader::new(file),
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
        let payload = read_frame(&mut self.file)?;
        self.remaining -= 1;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::corrupt::assert_rejects_every_damage;

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
        w.append(b"").unwrap();
        let handle = w.finish().unwrap();
        let good = fs::read(&handle.path).unwrap();
        assert_rejects_every_damage("spill run", &good, |image| {
            fs::write(&handle.path, image)?;
            let mut r = handle.reader()?;
            while r.next_frame()?.is_some() {}
            Ok(())
        });
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
