//! Slotted-page heap files.
//!
//! A heap file is two artifacts:
//!
//! * `<base>.heap` — a flat array of [`PAGE_SIZE`] slotted pages, each
//!   sealed with its own CRC;
//! * `<base>.meta` — one sealed frame ([`crate::atomic::split_frame`])
//!   holding the metadata (page size, committed page count, record count,
//!   opaque user metadata), written **last** through
//!   [`crate::atomic::atomic_write`].
//!
//! The write discipline gives the same crash contract as the rest of the
//! workspace: pages are appended and fsynced first, metadata is renamed
//! into place only afterwards ([`HeapFile::sync`]). A crash mid-build
//! leaves the previous metadata pointing at the previous committed
//! prefix — never a half-table. Torn or bit-flipped pages are caught by
//! the per-page CRC at read time; a data file shorter than the committed
//! page count is rejected at open.

use crate::atomic::{atomic_write, frame_header, split_frame};
use crate::page::{Page, PAGE_SIZE};
use esharp_fault::{write_with_fault, FaultInjector};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const META_MAGIC: &[u8; 4] = b"ESHP";
const META_VERSION: u16 = 1;

/// Process-unique heap identities; the buffer pool keys frames on them.
static HEAP_IDS: AtomicU64 = AtomicU64::new(1);

fn with_suffix(base: &Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("heap file: {msg}"))
}

struct HeapState {
    file: File,
    /// Pages allocated so far (committed + not-yet-synced).
    pages: u64,
    /// Records appended so far (committed + not-yet-synced).
    records: u64,
}

/// An open heap file. All methods take `&self`; internal state is behind
/// a mutex so an `Arc<HeapFile>` can be shared with the buffer pool.
pub struct HeapFile {
    id: u64,
    data_path: PathBuf,
    meta_path: PathBuf,
    user_meta: Vec<u8>,
    state: Mutex<HeapState>,
    injector: Option<(Arc<dyn FaultInjector>, String)>,
}

impl HeapFile {
    /// Create a fresh, empty heap at `<base>.heap` / `<base>.meta`,
    /// truncating any previous one. `user_meta` is opaque to this layer
    /// (the relational layer stores the table schema there).
    pub fn create(base: impl AsRef<Path>, user_meta: &[u8]) -> io::Result<HeapFile> {
        let base = base.as_ref();
        if let Some(parent) = base.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let data_path = with_suffix(base, ".heap");
        let meta_path = with_suffix(base, ".meta");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&data_path)?;
        let heap = HeapFile {
            id: HEAP_IDS.fetch_add(1, Ordering::Relaxed),
            data_path,
            meta_path,
            user_meta: user_meta.to_vec(),
            state: Mutex::new(HeapState {
                file,
                pages: 0,
                records: 0,
            }),
            injector: None,
        };
        heap.write_meta(0, 0)?;
        Ok(heap)
    }

    /// Open an existing heap. Rejects a missing/corrupt metadata frame,
    /// bytes after it, and a data file shorter than the committed page
    /// count with `InvalidData`.
    pub fn open(base: impl AsRef<Path>) -> io::Result<HeapFile> {
        let base = base.as_ref();
        let data_path = with_suffix(base, ".heap");
        let meta_path = with_suffix(base, ".meta");
        let meta_file = std::fs::read(&meta_path)?;
        let mut rest = &meta_file[..];
        let meta = split_frame(&mut rest)?;
        if !rest.is_empty() {
            return Err(invalid("trailing bytes after the metadata frame"));
        }
        let (pages, records, user_meta) = decode_meta(meta)?;
        let file = OpenOptions::new().read(true).write(true).open(&data_path)?;
        let len = file.metadata()?.len();
        if len < pages.saturating_mul(PAGE_SIZE as u64) {
            return Err(invalid("data file shorter than committed page count"));
        }
        Ok(HeapFile {
            id: HEAP_IDS.fetch_add(1, Ordering::Relaxed),
            data_path,
            meta_path,
            user_meta,
            state: Mutex::new(HeapState {
                file,
                pages,
                records,
            }),
            injector: None,
        })
    }

    /// Attach a fault injector to the page-write path. Sites are named
    /// `<prefix>:page<no>`; the metadata write keeps going through the
    /// (separately injectable) atomic-write layer.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>, prefix: &str) -> HeapFile {
        self.injector = Some((injector, prefix.to_string()));
        self
    }

    /// Process-unique identity (buffer-pool frame key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pages allocated (committed plus pending [`HeapFile::sync`]).
    pub fn page_count(&self) -> u64 {
        self.state.lock().pages
    }

    /// Records appended (committed plus pending [`HeapFile::sync`]).
    pub fn record_count(&self) -> u64 {
        self.state.lock().records
    }

    /// The opaque metadata stored at create time.
    pub fn user_meta(&self) -> &[u8] {
        &self.user_meta
    }

    /// Path of the page data file.
    pub fn data_path(&self) -> &Path {
        &self.data_path
    }

    /// Append a fresh empty (sealed) page; returns its page number.
    pub fn allocate_page(&self) -> io::Result<u64> {
        self.append_page(&mut Page::empty())
    }

    /// Seal `page` and write it once, as a new page after the last;
    /// returns its page number. Like every page past the committed
    /// metadata, it stays invisible to a reopen until [`HeapFile::sync`].
    pub fn append_page(&self, page: &mut Page) -> io::Result<u64> {
        page.seal();
        let mut state = self.state.lock();
        let no = state.pages;
        state.file.seek(SeekFrom::Start(no * PAGE_SIZE as u64))?;
        state.file.write_all(page.as_bytes())?;
        state.pages = no + 1;
        Ok(no)
    }

    /// Bump the record counter; committed at the next [`HeapFile::sync`].
    pub fn add_records(&self, n: u64) {
        self.state.lock().records += n;
    }

    /// Read page `no` into its own buffer and verify it there.
    pub fn read_page(&self, no: u64) -> io::Result<Page> {
        let mut state = self.state.lock();
        if no >= state.pages {
            return Err(invalid("page number out of range"));
        }
        let mut image = vec![0u8; PAGE_SIZE].into_boxed_slice();
        state.file.seek(SeekFrom::Start(no * PAGE_SIZE as u64))?;
        state.file.read_exact(&mut image)?;
        drop(state);
        Page::from_image(image)
    }

    /// Seal and write page `no` in place (the buffer pool's dirty-page
    /// writeback). In-place writes are not atomic — a torn one is caught
    /// by the page CRC at the next read, and the pool keeps its good
    /// in-memory copy when this returns an error.
    pub fn write_page(&self, no: u64, page: &mut Page) -> io::Result<()> {
        page.seal();
        let mut state = self.state.lock();
        if no >= state.pages {
            return Err(invalid("page number out of range"));
        }
        let (fault, site) = match &self.injector {
            Some((inj, prefix)) => {
                let site = format!("{prefix}:page{no}");
                (inj.fault_at(&site, 0), site)
            }
            None => (None, String::new()),
        };
        state.file.seek(SeekFrom::Start(no * PAGE_SIZE as u64))?;
        write_with_fault(&mut state.file, page.as_bytes(), fault, &site)
    }

    /// Fsync the data file, then atomically publish the current page and
    /// record counts in the metadata frame. Until this returns, readers
    /// opening the heap see the previous committed prefix.
    pub fn sync(&self) -> io::Result<()> {
        let (pages, records) = {
            let state = self.state.lock();
            state.file.sync_all()?;
            (state.pages, state.records)
        };
        self.write_meta(pages, records)
    }

    fn write_meta(&self, pages: u64, records: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(30 + self.user_meta.len());
        payload.extend_from_slice(META_MAGIC);
        payload.extend_from_slice(&META_VERSION.to_le_bytes());
        payload.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        payload.extend_from_slice(&pages.to_le_bytes());
        payload.extend_from_slice(&records.to_le_bytes());
        payload.extend_from_slice(&(self.user_meta.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.user_meta);
        atomic_write(
            &self.meta_path,
            &[&frame_header(&payload)[..], &payload].concat(),
        )
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("data", &self.data_path)
            .field("pages", &self.page_count())
            .field("records", &self.record_count())
            .finish()
    }
}

fn decode_meta(payload: &[u8]) -> io::Result<(u64, u64, Vec<u8>)> {
    if payload.len() < 4 + 2 + 4 + 8 + 8 + 4 {
        return Err(invalid("truncated metadata"));
    }
    if &payload[..4] != META_MAGIC {
        return Err(invalid("bad metadata magic"));
    }
    if u16::from_le_bytes([payload[4], payload[5]]) != META_VERSION {
        return Err(invalid("unsupported metadata version"));
    }
    let page_size = u32::from_le_bytes([payload[6], payload[7], payload[8], payload[9]]) as usize;
    if page_size != PAGE_SIZE {
        return Err(invalid("page size mismatch"));
    }
    let u64_at = |off: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let pages = u64_at(10);
    let records = u64_at(18);
    let meta_len =
        u32::from_le_bytes([payload[26], payload[27], payload[28], payload[29]]) as usize;
    let rest = &payload[30..];
    if rest.len() != meta_len {
        return Err(invalid("user metadata length mismatch"));
    }
    Ok((pages, records, rest.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::{Fault, FaultPlan};

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esharp_heap_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("table")
    }

    #[test]
    fn create_fill_sync_open_round_trips() {
        let base = tmpbase("roundtrip");
        let heap = HeapFile::create(&base, b"schema-bytes").unwrap();
        for i in 0..3u64 {
            let no = heap.allocate_page().unwrap();
            assert_eq!(no, i);
            let mut page = heap.read_page(no).unwrap();
            page.insert(format!("record-{i}").as_bytes()).unwrap();
            heap.write_page(no, &mut page).unwrap();
            heap.add_records(1);
        }
        heap.sync().unwrap();

        let back = HeapFile::open(&base).unwrap();
        assert_eq!(back.page_count(), 3);
        assert_eq!(back.record_count(), 3);
        assert_eq!(back.user_meta(), b"schema-bytes");
        let p1 = back.read_page(1).unwrap();
        assert_eq!(p1.record(0).unwrap(), b"record-1");
        assert!(back.read_page(3).is_err());
    }

    #[test]
    fn unsynced_pages_stay_invisible_after_reopen() {
        let base = tmpbase("unsynced");
        let heap = HeapFile::create(&base, b"").unwrap();
        heap.allocate_page().unwrap();
        heap.add_records(5);
        heap.sync().unwrap();
        // A second page is allocated but the process "crashes" before sync.
        heap.allocate_page().unwrap();
        drop(heap);
        let back = HeapFile::open(&base).unwrap();
        assert_eq!(back.page_count(), 1, "uncommitted page leaked into metadata");
        assert_eq!(back.record_count(), 5);
    }

    #[test]
    fn appended_pages_are_written_once_and_stay_invisible_until_sync() {
        let base = tmpbase("append");
        let heap = HeapFile::create(&base, b"").unwrap();
        let mut page = Page::empty();
        page.insert(b"first").unwrap();
        assert_eq!(heap.append_page(&mut page).unwrap(), 0);
        heap.add_records(1);
        heap.sync().unwrap();
        let mut page = Page::empty();
        page.insert(b"second").unwrap();
        assert_eq!(heap.append_page(&mut page).unwrap(), 1);
        // The appended page is sealed and on disk: a read verifies it.
        assert_eq!(heap.read_page(1).unwrap().record(0).unwrap(), b"second");
        let len = std::fs::metadata(heap.data_path()).unwrap().len();
        assert_eq!(len, 2 * PAGE_SIZE as u64);
        drop(heap);
        // Not synced: a reopen sees the committed first page only.
        let back = HeapFile::open(&base).unwrap();
        assert_eq!((back.page_count(), back.record_count()), (1, 1));
        assert_eq!(back.read_page(0).unwrap().record(0).unwrap(), b"first");
        assert!(back.read_page(1).is_err());
    }

    #[test]
    fn torn_page_writeback_is_caught_by_the_page_crc() {
        let base = tmpbase("torn");
        let plan: Arc<dyn FaultInjector> = Arc::new(FaultPlan::new(0).trigger(
            "wb:page0",
            0,
            Fault::TornWrite { numerator: 1, denominator: 2 },
        ));
        let heap = HeapFile::create(&base, b"").unwrap().with_injector(plan, "wb");
        heap.allocate_page().unwrap();
        heap.sync().unwrap();
        let mut page = heap.read_page(0).unwrap();
        page.insert(b"torn victim").unwrap();
        assert!(heap.write_page(0, &mut page).is_err());
        // The on-disk page is torn; the CRC refuses it.
        let err = heap.read_page(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A clean rewrite heals it.
        let heap = HeapFile::open(&base).unwrap();
        let mut page = Page::empty();
        page.insert(b"healed").unwrap();
        heap.write_page(0, &mut page).unwrap();
        assert_eq!(heap.read_page(0).unwrap().record(0).unwrap(), b"healed");
    }
}
