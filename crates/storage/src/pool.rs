//! Fixed-capacity buffer pool with clock (second-chance) eviction.
//!
//! The pool is the only path between the relational scan and the heap
//! files: every page fetch either hits a resident frame or evicts one
//! victim (writing it back first when dirty) and reads the page in.
//! Frames are pinned by RAII [`PageGuard`]s — a pinned frame is never a
//! victim, and a pool whose every frame is pinned reports an error
//! rather than deadlocking or growing past its grant.
//!
//! Counters (hits, misses, evictions, writebacks, recycles) are cheap
//! atomics; they feed the planner's cost feedback, EXPLAIN ANALYZE and
//! the benchmark's `storage.pool_*` figures.
//!
//! ## Scan-resistant admission
//!
//! A sequential scan larger than the pool floods a plain clock: by the
//! time the scan wraps, every previously hot page has been evicted and
//! the next scan misses on every fetch (0% hit rate). Scans therefore
//! fetch through a per-scan [`ScanHint`]: hinted pages are admitted
//! with the reference bit **clear**, and once the scan has faulted in
//! its small ring of frames (~capacity/8, at most 8), further misses
//! recycle the scan's own oldest unpinned ring frame instead of
//! evicting anyone else's. The net effect is MRU-like behavior for the
//! scan tail: the prefix admitted while the pool had room stays
//! resident, so a repeat scan hits on it.

use crate::heap::HeapFile;
use crate::page::{Page, PAGE_SIZE};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One pool frame. The page payload sits behind its own lock so guards
/// can read it without holding the pool-wide mutex.
struct Frame {
    page: RwLock<Page>,
    pin: AtomicU32,
    referenced: AtomicBool,
    dirty: AtomicBool,
    /// Which heap page this frame holds; manipulated under the pool lock.
    owner: Mutex<Option<(Arc<HeapFile>, u64)>>,
}

impl Frame {
    fn new() -> Arc<Frame> {
        Arc::new(Frame {
            page: RwLock::new(Page::empty()),
            pin: AtomicU32::new(0),
            referenced: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            owner: Mutex::new(None),
        })
    }
}

struct PoolInner {
    frames: Vec<Arc<Frame>>,
    map: HashMap<(u64, u64), usize>,
    clock: usize,
}

/// Counter snapshot of a pool's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the page from disk.
    pub misses: u64,
    /// Victim frames recycled to make room.
    pub evictions: u64,
    /// Dirty pages written back (evictions + flushes).
    pub writebacks: u64,
    /// Scan-hint self-recycles: misses served by reusing the issuing
    /// scan's own ring frame instead of evicting a stranger.
    pub recycles: u64,
    /// Frame capacity, in pages.
    pub capacity: u64,
}

impl PoolStats {
    /// Hits as a fraction of all fetches (1.0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fixed-capacity page cache shared by every scan in an execution.
pub struct BufferPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    recycles: AtomicU64,
}

/// A per-scan admission hint: the ring of frame indices this scan has
/// faulted in. Create one per sequential scan with
/// [`BufferPool::scan_hint`] and pass it to every
/// [`BufferPool::fetch_hinted`] of that scan. Advisory: recycling only
/// ever touches unpinned frames, and the pool falls back to the clock
/// when the ring has nothing reusable.
pub struct ScanHint {
    /// Frame indices faulted in by this scan, oldest first.
    ring: Mutex<std::collections::VecDeque<usize>>,
    /// Ring capacity — the scan's resident footprint once the pool is
    /// full.
    cap: usize,
}

fn pool_err(msg: &str) -> io::Error {
    io::Error::other(format!("buffer pool: {msg}"))
}

impl BufferPool {
    /// A pool of `capacity_pages` frames (minimum 1).
    pub fn new(capacity_pages: usize) -> BufferPool {
        BufferPool {
            capacity: capacity_pages.max(1),
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            recycles: AtomicU64::new(0),
        }
    }

    /// A pool capped at `bytes` of page payload.
    pub fn with_capacity_bytes(bytes: usize) -> BufferPool {
        BufferPool::new(bytes / PAGE_SIZE)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            recycles: self.recycles.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
        }
    }

    /// A hint for one sequential scan: ~capacity/8 ring frames, at most
    /// 8 — a scan larger than the pool confines itself to this many
    /// frames once the pool is full.
    pub fn scan_hint(&self) -> ScanHint {
        ScanHint {
            ring: Mutex::new(std::collections::VecDeque::new()),
            cap: (self.capacity / 8).clamp(1, 8),
        }
    }

    /// Fetch (and pin) page `no` of `file`. Misses evict a victim via the
    /// clock hand — dirty victims are written back first, and a failed
    /// writeback aborts the eviction with the victim (and its good
    /// in-memory copy) left resident. Errors when every frame is pinned.
    pub fn fetch(&self, file: &Arc<HeapFile>, no: u64) -> io::Result<PageGuard> {
        self.fetch_hinted(file, no, None)
    }

    /// [`BufferPool::fetch`] under a scan hint: hinted misses are
    /// admitted unreferenced, and once `hint`'s ring is full they
    /// recycle the scan's own oldest unpinned ring frame instead of
    /// evicting a stranger through the clock.
    pub fn fetch_hinted(
        &self,
        file: &Arc<HeapFile>,
        no: u64,
        hint: Option<&ScanHint>,
    ) -> io::Result<PageGuard> {
        let key = (file.id(), no);
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.map.get(&key) {
            let frame = Arc::clone(&inner.frames[idx]);
            frame.pin.fetch_add(1, Ordering::Relaxed);
            // A re-hit earns the reference bit even for scan pages:
            // something wanted this page twice.
            frame.referenced.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PageGuard { frame });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        let idx = if inner.frames.len() < self.capacity {
            inner.frames.push(Frame::new());
            inner.frames.len() - 1
        } else if let Some(idx) = self.recycle_from_ring(&mut inner, hint)? {
            idx
        } else {
            let idx = self.evict_one(&mut inner)?;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            idx
        };

        // Read the page in while holding the pool lock: fetches are
        // serialized, which keeps the pin/map bookkeeping trivially
        // consistent. Scans overlap compute with I/O at page granularity
        // via the guard, not via concurrent faults on one pool.
        let page = file.read_page(no)?;
        let frame = Arc::clone(&inner.frames[idx]);
        *frame.page.write() = page;
        *frame.owner.lock() = Some((Arc::clone(file), no));
        frame.pin.store(1, Ordering::Relaxed);
        // Scan admissions stay unreferenced: if the clock does run, scan
        // pages are the first victims rather than the last.
        frame.referenced.store(hint.is_none(), Ordering::Relaxed);
        frame.dirty.store(false, Ordering::Relaxed);
        inner.map.insert(key, idx);
        if let Some(hint) = hint {
            let mut ring = hint.ring.lock();
            ring.push_back(idx);
            // Growth-phase overflow: the displaced frame simply stays
            // resident (unreferenced) — that prefix is what a repeat
            // scan will hit on.
            while ring.len() > hint.cap {
                ring.pop_front();
            }
        }
        Ok(PageGuard { frame })
    }

    /// Serve a miss by reclaiming the issuing scan's own oldest unpinned
    /// ring frame. `None` when there is no hint, the ring is not yet
    /// full, or every ring frame is pinned (fall back to the clock).
    fn recycle_from_ring(
        &self,
        inner: &mut PoolInner,
        hint: Option<&ScanHint>,
    ) -> io::Result<Option<usize>> {
        let Some(hint) = hint else {
            return Ok(None);
        };
        let mut ring = hint.ring.lock();
        if ring.len() < hint.cap {
            return Ok(None);
        }
        for i in 0..ring.len() {
            let idx = ring[i];
            if inner.frames[idx].pin.load(Ordering::Relaxed) > 0 {
                continue;
            }
            self.reclaim(inner, idx)?;
            ring.remove(i);
            self.recycles.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(idx));
        }
        Ok(None)
    }

    /// Pick a victim with the clock hand and return its index reclaimed
    /// and ready for reuse.
    fn evict_one(&self, inner: &mut PoolInner) -> io::Result<usize> {
        let n = inner.frames.len();
        // Two full sweeps: the first clears reference bits, the second
        // must find an unpinned frame if one exists.
        for _ in 0..2 * n {
            let idx = inner.clock;
            inner.clock = (inner.clock + 1) % n;
            let frame = Arc::clone(&inner.frames[idx]);
            if frame.pin.load(Ordering::Relaxed) > 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            self.reclaim(inner, idx)?;
            return Ok(idx);
        }
        Err(pool_err("all frames pinned"))
    }

    /// Write back (when dirty) and unmap whatever page frame `idx`
    /// holds. The frame must be unpinned. Write-back happens before
    /// unmapping, so a failure leaves the page resident and dirty
    /// (never published torn as far as readers of this pool are
    /// concerned).
    fn reclaim(&self, inner: &mut PoolInner, idx: usize) -> io::Result<()> {
        let frame = Arc::clone(&inner.frames[idx]);
        let owner = frame.owner.lock().clone();
        if let Some((file, no)) = owner {
            if frame.dirty.load(Ordering::Relaxed) {
                let mut page = frame.page.write();
                file.write_page(no, &mut page)?;
                frame.dirty.store(false, Ordering::Relaxed);
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            inner.map.remove(&(file.id(), no));
        }
        *frame.owner.lock() = None;
        Ok(())
    }

    /// Write back every dirty resident page (pages stay resident).
    pub fn flush_all(&self) -> io::Result<()> {
        let inner = self.inner.lock();
        for frame in &inner.frames {
            if !frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            let owner = frame.owner.lock().clone();
            if let Some((file, no)) = owner {
                let mut page = frame.page.write();
                file.write_page(no, &mut page)?;
                frame.dirty.store(false, Ordering::Relaxed);
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity_pages", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A pinned page. The frame cannot be evicted while any guard on it is
/// alive; dropping the guard unpins it.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// Read access to the pinned page.
    pub fn page(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.page.read()
    }

    /// Write access; marks the frame dirty so eviction writes it back.
    pub fn page_mut(&self) -> RwLockWriteGuard<'_, Page> {
        self.frame.dirty.store(true, Ordering::Relaxed);
        self.frame.page.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esharp_pool_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t")
    }

    fn heap_with_pages(name: &str, pages: u64) -> Arc<HeapFile> {
        let heap = HeapFile::create(tmpbase(name), b"").unwrap();
        for i in 0..pages {
            let no = heap.allocate_page().unwrap();
            let mut p = heap.read_page(no).unwrap();
            p.insert(format!("page-{i}").as_bytes()).unwrap();
            heap.write_page(no, &mut p).unwrap();
        }
        heap.sync().unwrap();
        Arc::new(heap)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let heap = heap_with_pages("counts", 4);
        let pool = BufferPool::new(8);
        for _ in 0..3 {
            for no in 0..4 {
                let g = pool.fetch(&heap, no).unwrap();
                assert_eq!(
                    g.page().record(0).unwrap(),
                    format!("page-{no}").as_bytes()
                );
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 8);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_cycles_through_a_small_pool() {
        let heap = heap_with_pages("evict", 6);
        let pool = BufferPool::new(2);
        for round in 0..2 {
            for no in 0..6 {
                let g = pool.fetch(&heap, no).unwrap();
                assert_eq!(
                    g.page().record(0).unwrap(),
                    format!("page-{no}").as_bytes(),
                    "round {round}"
                );
            }
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 12);
        assert!(s.evictions >= 10, "stats: {s:?}");
    }

    #[test]
    fn all_pinned_errors_instead_of_deadlocking() {
        let heap = heap_with_pages("pinned", 3);
        let pool = BufferPool::new(2);
        let _a = pool.fetch(&heap, 0).unwrap();
        let _b = pool.fetch(&heap, 1).unwrap();
        assert!(pool.fetch(&heap, 2).is_err());
        drop(_a);
        assert!(pool.fetch(&heap, 2).is_ok());
    }

    #[test]
    fn dirty_pages_are_written_back_on_eviction() {
        let heap = heap_with_pages("dirty", 3);
        let pool = BufferPool::new(1);
        {
            let g = pool.fetch(&heap, 0).unwrap();
            g.page_mut().insert(b"mutation").unwrap();
        }
        // Touching other pages forces page 0 out through writeback.
        let _ = pool.fetch(&heap, 1).unwrap();
        let _ = pool.fetch(&heap, 2).unwrap();
        assert!(pool.stats().writebacks >= 1);
        let on_disk = heap.read_page(0).unwrap();
        assert_eq!(on_disk.record(1).unwrap(), b"mutation");
    }

    #[test]
    fn unhinted_repeat_scans_thrash_but_hinted_scans_keep_a_prefix() {
        // 24 pages through an 8-frame pool, scanned three times.
        let heap = heap_with_pages("scan_thrash", 24);

        // Plain clock: sequential flooding — after the warm-up scan the
        // repeats still miss every page.
        let plain = BufferPool::new(8);
        for _ in 0..3 {
            for no in 0..24 {
                let _ = plain.fetch(&heap, no).unwrap();
            }
        }
        assert_eq!(plain.stats().hits, 0, "{:?}", plain.stats());

        // Scan hint: each scan confines its churn to the ring, so the
        // prefix admitted while the pool had room stays resident and
        // every repeat scan hits on it.
        let pool = BufferPool::new(8);
        for scan in 0..3 {
            let hint = pool.scan_hint();
            for no in 0..24 {
                let g = pool.fetch_hinted(&heap, no, Some(&hint)).unwrap();
                assert_eq!(
                    g.page().record(0).unwrap(),
                    format!("page-{no}").as_bytes(),
                    "scan {scan}"
                );
            }
        }
        let s = pool.stats();
        // Ring cap = (8/8).clamp(1,8) = 1: 7 prefix frames stay resident,
        // so scans 2 and 3 hit on 7 pages each. The only clock work is
        // replacing the previous scan's abandoned tail frame (once per
        // repeat scan); everything else recycles within the ring.
        assert_eq!(s.hits, 14, "{s:?}");
        assert!(s.recycles > s.evictions, "{s:?}");
        assert!(s.evictions <= 2, "hinted scans must not churn the clock: {s:?}");
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn pinned_ring_frames_fall_back_to_the_clock() {
        let heap = heap_with_pages("scan_pinned", 6);
        let pool = BufferPool::new(2);
        let hint = pool.scan_hint(); // ring cap 1
        let _held = pool.fetch_hinted(&heap, 0, Some(&hint)).unwrap();
        let _held2 = pool.fetch_hinted(&heap, 1, Some(&hint)).unwrap();
        // Both frames pinned: the ring has nothing reusable and the
        // clock has no victim either.
        assert!(pool.fetch_hinted(&heap, 2, Some(&hint)).is_err());
        drop(_held);
        // Page 0's frame is unpinned but no longer in the ring (cap 1
        // evicted it from tracking) — the clock reclaims it.
        let g = pool.fetch_hinted(&heap, 2, Some(&hint)).unwrap();
        assert_eq!(g.page().record(0).unwrap(), b"page-2");
        assert!(pool.stats().evictions >= 1, "{:?}", pool.stats());
    }

    #[test]
    fn hinted_recycle_writes_back_dirty_pages() {
        let heap = heap_with_pages("scan_dirty", 4);
        let pool = BufferPool::new(1);
        let hint = pool.scan_hint(); // ring cap 1: every miss recycles
        {
            let g = pool.fetch_hinted(&heap, 0, Some(&hint)).unwrap();
            g.page_mut().insert(b"scan-mutation").unwrap();
        }
        let _ = pool.fetch_hinted(&heap, 1, Some(&hint)).unwrap();
        assert!(pool.stats().recycles >= 1);
        assert!(pool.stats().writebacks >= 1);
        assert_eq!(heap.read_page(0).unwrap().record(1).unwrap(), b"scan-mutation");
    }

    #[test]
    fn flush_writes_dirty_pages_without_evicting() {
        let heap = heap_with_pages("flush", 1);
        let pool = BufferPool::new(2);
        {
            let g = pool.fetch(&heap, 0).unwrap();
            g.page_mut().insert(b"flushed").unwrap();
        }
        pool.flush_all().unwrap();
        assert_eq!(heap.read_page(0).unwrap().record(1).unwrap(), b"flushed");
        // Still resident: refetch is a hit.
        let before = pool.stats().hits;
        let _ = pool.fetch(&heap, 0).unwrap();
        assert_eq!(pool.stats().hits, before + 1);
    }
}
