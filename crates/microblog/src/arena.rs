//! Page-aligned segment buffers and the arenas that borrow from them.
//!
//! The binary corpus load used to be decode-bound: every `u32` arena
//! (tweet tokens, postings offsets, postings) was copied out of the frame
//! container into a fresh `Vec`. The sharded segment format (`segio`)
//! stores those arenas as raw little-endian `u32` runs at 4-byte-aligned
//! file offsets, so a load can instead read the whole segment into one
//! [`AlignedBuf`], validate its checksum once, and hand out `&[u32]`
//! views straight into the buffer — zero copies, and N serve workers
//! holding `Arc` clones of the same corpus share one physical copy of
//! the segment bytes.
//!
//! Ownership rules (see PERF.md §"Shard layout"):
//! * [`AlignedBuf`] owns the bytes; it is allocated on a 4096-byte
//!   (page) boundary so any in-file offset that is a multiple of 4 is
//!   also 4-aligned in memory — the precondition for reinterpreting the
//!   run as `[u32]`.
//! * [`CorpusArena`] is either an owned `Vec<u32>` (the build /
//!   decode-copy path) or an `Arc<AlignedBuf>` plus a validated range
//!   (the zero-copy path). Both deref to `&[u32]`; clones of the shared
//!   variant bump the `Arc`, not the bytes.
//! * Mutation ([`CorpusArena::make_owned`]) copies a shared arena out of
//!   its buffer first — copy-on-write, so streaming ingest can append to
//!   a zero-copy corpus at the cost of materializing only the arenas it
//!   actually touches.
//!
//! Zero-copy reinterpretation assumes the host is little-endian like the
//! file; `segio` falls back to the copy path on big-endian targets.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::io::{self, Read};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

/// Alignment of every [`AlignedBuf`]: one page. Stricter than the 4
/// bytes `[u32]` views require, but it keeps segment reads page-aligned
/// (the fast path for direct and buffered I/O alike) and leaves room for
/// wider SIMD loads over the arenas.
pub const SEGMENT_ALIGN: usize = 4096;

/// An owned, immutable, page-aligned byte buffer holding one segment
/// file. The allocation never moves, so slices handed out by
/// [`CorpusArena`] stay valid for as long as any `Arc<AlignedBuf>`
/// clone lives.
pub struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the buffer is immutable after construction and the allocation
// is uniquely owned by this struct; sharing `&AlignedBuf` across threads
// is plain shared-read access.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    fn alloc_uninit(len: usize) -> AlignedBuf {
        if len == 0 {
            return AlignedBuf {
                ptr: NonNull::<u8>::dangling(),
                len: 0,
            };
        }
        // Layout error is impossible for (len, 4096) with len already
        // bounds-checked by the callers (file sizes), but stay panic-free.
        let layout = match Layout::from_size_align(len, SEGMENT_ALIGN) {
            Ok(l) => l,
            Err(_) => Layout::new::<u8>(),
        };
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    /// Read an entire file into a fresh page-aligned buffer.
    pub fn from_file(path: impl AsRef<Path>) -> io::Result<AlignedBuf> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment larger than the address space",
            ));
        }
        let mut buf = AlignedBuf::alloc_uninit(len as usize);
        file.read_exact(buf.as_mut_slice())?;
        Ok(buf)
    }

    /// Copy `bytes` into a fresh page-aligned buffer (tests and
    /// in-memory validation paths).
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut buf = AlignedBuf::alloc_uninit(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    // Only used during construction; the buffer is immutable once built.
    fn as_mut_slice(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: ptr is valid for len bytes and uniquely borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr is valid for len bytes for the life of self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        if let Ok(layout) = Layout::from_size_align(self.len, SEGMENT_ALIGN) {
            // SAFETY: allocated in alloc_uninit with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf").field("len", &self.len).finish()
    }
}

/// A flat `u32` arena that is either owned outright or a validated view
/// into a shared segment buffer. All read paths go through
/// [`CorpusArena::as_slice`] (or `Deref`); the representation is an
/// implementation detail of how the corpus was loaded.
#[derive(Debug, Clone)]
pub enum CorpusArena {
    /// The build / decode-copy representation: a plain vector.
    Owned(Vec<u32>),
    /// A zero-copy view: `len` little-endian `u32`s starting `byte_start`
    /// bytes into the shared buffer. Constructed only through
    /// [`CorpusArena::shared`], which checks bounds and alignment.
    Shared {
        /// The segment buffer this arena borrows from.
        buf: Arc<AlignedBuf>,
        /// Byte offset of the first element (always 4-aligned).
        byte_start: usize,
        /// Element count.
        len: usize,
    },
}

impl Default for CorpusArena {
    fn default() -> CorpusArena {
        CorpusArena::Owned(Vec::new())
    }
}

impl CorpusArena {
    /// A zero-copy view of `len` `u32`s at `byte_start` in `buf`.
    /// Fails (rather than panicking later) when the range escapes the
    /// buffer or is not 4-aligned — both are file-corruption shapes, not
    /// programmer errors, on the segment load path.
    pub fn shared(buf: Arc<AlignedBuf>, byte_start: usize, len: usize) -> Result<CorpusArena, String> {
        if cfg!(target_endian = "big") {
            // The on-disk arenas are little-endian; reinterpreting them on
            // a big-endian host would read scrambled ids. Decode instead.
            let bytes = buf
                .as_slice()
                .get(byte_start..byte_start + len * 4)
                .ok_or("segment arena range out of bounds")?;
            let owned = bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            return Ok(CorpusArena::Owned(owned));
        }
        let byte_len = len
            .checked_mul(4)
            .ok_or("segment arena length overflows")?;
        let end = byte_start
            .checked_add(byte_len)
            .ok_or("segment arena range overflows")?;
        if end > buf.len() {
            return Err(format!(
                "segment arena range {byte_start}..{end} exceeds buffer of {} bytes",
                buf.len()
            ));
        }
        if !byte_start.is_multiple_of(4) {
            return Err(format!("segment arena offset {byte_start} not 4-aligned"));
        }
        Ok(CorpusArena::Shared {
            buf,
            byte_start,
            len,
        })
    }

    /// The elements, wherever they live.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            CorpusArena::Owned(v) => v,
            CorpusArena::Shared {
                buf,
                byte_start,
                len,
            } => {
                if *len == 0 {
                    return &[];
                }
                // SAFETY: `shared` validated that [byte_start, byte_start
                // + 4*len) is in bounds and 4-aligned, the buffer is
                // page-aligned and immutable, and the Arc keeps it alive
                // for at least the life of self.
                unsafe {
                    std::slice::from_raw_parts(
                        buf.as_slice().as_ptr().add(*byte_start).cast::<u32>(),
                        *len,
                    )
                }
            }
        }
    }

    /// Mutable access, materializing a shared view into an owned vector
    /// first (copy-on-write: appending to a zero-copy corpus pays for
    /// exactly the arenas it touches).
    pub fn make_owned(&mut self) -> &mut Vec<u32> {
        if let CorpusArena::Shared { .. } = self {
            *self = CorpusArena::Owned(self.as_slice().to_vec());
        }
        match self {
            CorpusArena::Owned(v) => v,
            // Unreachable: the branch above rewrote Shared to Owned.
            CorpusArena::Shared { .. } => unreachable!("make_owned left a shared arena"),
        }
    }

    /// True when this arena borrows a shared segment buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self, CorpusArena::Shared { .. })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            CorpusArena::Owned(v) => v.len(),
            CorpusArena::Shared { len, .. } => *len,
        }
    }

    /// True when the arena holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u32>> for CorpusArena {
    fn from(v: Vec<u32>) -> CorpusArena {
        CorpusArena::Owned(v)
    }
}

impl std::ops::Deref for CorpusArena {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_round_trips_and_is_page_aligned() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let buf = AlignedBuf::from_bytes(&data);
        assert_eq!(buf.as_slice(), &data[..]);
        assert_eq!(buf.as_slice().as_ptr() as usize % SEGMENT_ALIGN, 0);
        let empty = AlignedBuf::from_bytes(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn shared_arena_reads_le_u32s() {
        let values: Vec<u32> = vec![7, 0, u32::MAX, 123_456_789];
        let mut bytes = vec![0u8; 4]; // leading pad to exercise byte_start
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let arena = CorpusArena::shared(buf, 4, values.len()).unwrap();
        assert_eq!(arena.as_slice(), &values[..]);
        assert_eq!(arena.len(), 4);
        let cloned = arena.clone();
        assert_eq!(cloned.as_slice(), &values[..]);
    }

    #[test]
    fn shared_arena_rejects_bad_ranges() {
        let buf = Arc::new(AlignedBuf::from_bytes(&[0u8; 16]));
        assert!(CorpusArena::shared(buf.clone(), 0, 4).is_ok());
        assert!(CorpusArena::shared(buf.clone(), 0, 5).is_err(), "past end");
        assert!(CorpusArena::shared(buf.clone(), 2, 2).is_err(), "unaligned");
        assert!(CorpusArena::shared(buf, usize::MAX, 1).is_err(), "overflow");
    }

    #[test]
    fn make_owned_detaches_from_the_buffer() {
        let bytes: Vec<u8> = [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
        let mut arena = CorpusArena::shared(buf, 0, 3).unwrap();
        assert!(arena.is_shared() || cfg!(target_endian = "big"));
        arena.make_owned().push(4);
        assert!(!arena.is_shared());
        assert_eq!(arena.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn from_file_round_trips() {
        let dir = std::env::temp_dir().join("esharp_arena_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg");
        let data: Vec<u8> = (0..4096u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let buf = AlignedBuf::from_file(&path).unwrap();
        assert_eq!(buf.as_slice(), &data[..]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
