//! Page-aligned file buffers and the arenas that borrow from them.
//!
//! The corpus file (`segio`) stores its `u32` arenas (tweet tokens,
//! postings offsets, postings) as raw little-endian runs that start at
//! 4-aligned offsets and lie next to each other, so a load can read them
//! into one [`AlignedBuf`], validate the checksums once, and hand out
//! `&[u32]` views straight into the buffer — zero copies, and N serve
//! workers holding `Arc` clones of the same corpus share one physical
//! copy of the bytes.
//!
//! Ownership rules (see PERF.md §"Shard layout"):
//! * [`AlignedBuf`] owns the bytes; it is allocated on a 4096-byte
//!   (page) boundary so any offset into it that is a multiple of 4 is
//!   also 4-aligned in memory — the precondition for reinterpreting the
//!   run as `[u32]`.
//! * [`CorpusArena`] is either an owned `Vec<u32>` (the build / copy
//!   load path) or an `Arc<AlignedBuf>` plus a validated range (the
//!   zero-copy path). Both deref to `&[u32]`; clones of the shared
//!   variant bump the `Arc`, not the bytes.
//! * Mutation ([`CorpusArena::make_owned`]) copies a shared arena out of
//!   its buffer first — copy-on-write, so streaming ingest can append to
//!   a zero-copy corpus at the cost of materializing only the arenas it
//!   actually touches.
//!
//! Zero-copy reinterpretation assumes the host is little-endian like the
//! file; [`CorpusArena::shared`] decodes a copy on big-endian targets.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::io::{self, Read};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

/// Alignment of every [`AlignedBuf`]: one page. Stricter than the 4
/// bytes `[u32]` views require, but it keeps file reads page-aligned
/// (the fast path for direct and buffered I/O alike) and leaves room for
/// wider SIMD loads over the arenas.
pub const SEGMENT_ALIGN: usize = 4096;

/// An owned, immutable, page-aligned byte buffer. The allocation never
/// moves, so slices handed out by [`CorpusArena`] stay valid for as long
/// as any `Arc<AlignedBuf>` clone lives.
///
/// Invariant: when `len > 0`, `ptr` came from `alloc_zeroed` with
/// `Layout::from_size_align(len, SEGMENT_ALIGN)`, which succeeded — so
/// `ptr` is valid and initialized for `len` bytes, and `Drop` frees it
/// with that same layout. When `len == 0`, `ptr` is dangling and never
/// dereferenced or freed.
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
    /// A zero-filled buffer of `len` bytes, or an error when no such
    /// allocation can exist (`len` rounded up to the page overflows
    /// `isize`, e.g. a > 2 GiB file on a 32-bit target) or the allocator
    /// refuses it.
    fn zeroed(len: usize) -> io::Result<AlignedBuf> {
        if len == 0 {
            return Ok(AlignedBuf {
                ptr: NonNull::<u8>::dangling(),
                len: 0,
            });
        }
        let layout = Layout::from_size_align(len, SEGMENT_ALIGN).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a {len}-byte buffer does not fit the address space"),
            )
        })?;
        // SAFETY: `layout` has a non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!("cannot allocate a {len}-byte buffer"),
            )
        })?;
        // The struct invariant holds: `ptr` is a live, zeroed allocation
        // of exactly this layout.
        Ok(AlignedBuf { ptr, len })
    }

    /// Read exactly `len` bytes from `reader` into a fresh buffer.
    pub(crate) fn read_from(reader: &mut impl Read, len: usize) -> io::Result<AlignedBuf> {
        let mut buf = AlignedBuf::zeroed(len)?;
        reader.read_exact(buf.as_mut_slice())?;
        Ok(buf)
    }

    /// Read an entire file into a fresh buffer.
    pub fn from_file(path: impl AsRef<Path>) -> io::Result<AlignedBuf> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file larger than the address space")
        })?;
        AlignedBuf::read_from(&mut file, len)
    }

    /// Copy `bytes` into a fresh buffer.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<AlignedBuf> {
        AlignedBuf::read_from(&mut &bytes[..], bytes.len())
    }

    // Only used during construction; the buffer is immutable once built.
    fn as_mut_slice(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: by the struct invariant ptr is valid and initialized
        // for len bytes; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: by the struct invariant ptr is valid and initialized
        // for len bytes for the life of self.
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
        // By the struct invariant this layout was built once already, in
        // `zeroed`, so it cannot fail here.
        if let Ok(layout) = Layout::from_size_align(self.len, SEGMENT_ALIGN) {
            // SAFETY: ptr was allocated in `zeroed` with this exact layout.
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
/// into a shared file buffer. All read paths go through
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
        /// The file buffer this arena borrows from.
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
    /// programmer errors, on the corpus file load path.
    pub fn shared(buf: Arc<AlignedBuf>, byte_start: usize, len: usize) -> Result<CorpusArena, String> {
        if cfg!(target_endian = "big") {
            // The on-disk arenas are little-endian; reinterpreting them on
            // a big-endian host would read scrambled ids. Decode instead.
            let bytes = buf
                .as_slice()
                .get(byte_start..byte_start + len * 4)
                .ok_or("arena range out of bounds")?;
            let owned = bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            return Ok(CorpusArena::Owned(owned));
        }
        let byte_len = len
            .checked_mul(4)
            .ok_or("arena length overflows")?;
        let end = byte_start
            .checked_add(byte_len)
            .ok_or("arena range overflows")?;
        if end > buf.len() {
            return Err(format!(
                "arena range {byte_start}..{end} exceeds buffer of {} bytes",
                buf.len()
            ));
        }
        if !byte_start.is_multiple_of(4) {
            return Err(format!("arena offset {byte_start} not 4-aligned"));
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

    /// True when this arena borrows a shared file buffer.
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
        let buf = AlignedBuf::from_bytes(&data).unwrap();
        assert_eq!(buf.as_slice(), &data[..]);
        assert_eq!(buf.as_slice().as_ptr() as usize % SEGMENT_ALIGN, 0);
        let empty = AlignedBuf::from_bytes(&[]).unwrap();
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
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes).unwrap());
        let arena = CorpusArena::shared(buf, 4, values.len()).unwrap();
        assert_eq!(arena.as_slice(), &values[..]);
        assert_eq!(arena.len(), 4);
        let cloned = arena.clone();
        assert_eq!(cloned.as_slice(), &values[..]);
    }

    #[test]
    fn shared_arena_rejects_bad_ranges() {
        let buf = Arc::new(AlignedBuf::from_bytes(&[0u8; 16]).unwrap());
        assert!(CorpusArena::shared(buf.clone(), 0, 4).is_ok());
        assert!(CorpusArena::shared(buf.clone(), 0, 5).is_err(), "past end");
        assert!(CorpusArena::shared(buf.clone(), 2, 2).is_err(), "unaligned");
        assert!(CorpusArena::shared(buf, usize::MAX, 1).is_err(), "overflow");
    }

    #[test]
    fn make_owned_detaches_from_the_buffer() {
        let bytes: Vec<u8> = [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = Arc::new(AlignedBuf::from_bytes(&bytes).unwrap());
        let mut arena = CorpusArena::shared(buf, 0, 3).unwrap();
        assert!(arena.is_shared() || cfg!(target_endian = "big"));
        arena.make_owned().push(4);
        assert!(!arena.is_shared());
        assert_eq!(arena.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn lengths_no_allocation_can_hold_are_rejected() {
        let err = AlignedBuf::zeroed(isize::MAX as usize).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(AlignedBuf::read_from(&mut io::empty(), usize::MAX).is_err());
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
