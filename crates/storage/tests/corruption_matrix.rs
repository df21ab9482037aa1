//! Corruption matrix for paged heap files (`<base>.heap` / `<base>.meta`).
//!
//! The heap's contract mirrors the binary-corpus container's: a read
//! either returns exactly the committed pages or it errors with
//! `InvalidData` — never a plausible-but-wrong page, never a panic. The
//! matrix drives that mechanically: every truncation boundary of both
//! files, every single-bit flip of every page image, a strided sweep of
//! bit flips through the real open/read path, and every fault the
//! injector can land mid-writeback (kill, I/O error, torn prefixes) —
//! none of which may ever publish a torn page as valid data.

use esharp_fault::{Fault, FaultInjector, FaultPlan};
use esharp_storage::{BufferPool, HeapFile, Page, PAGE_SIZE};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "esharp_corruption_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a committed two-page heap with recognizable records and return
/// `(dir, base)`. Dropping the dir path does not clean up; tests remove it.
fn sample_heap(name: &str) -> (PathBuf, PathBuf) {
    let dir = tmpdir(name);
    let base = dir.join("table");
    let heap = HeapFile::create(&base, b"schema: matrix sample").unwrap();
    for pageno in 0..2u64 {
        let no = heap.allocate_page().unwrap();
        let mut page = heap.read_page(no).unwrap();
        for rec in 0..5 {
            page.insert(format!("page{pageno}-record{rec}").as_bytes())
                .unwrap();
            heap.add_records(1);
        }
        heap.write_page(no, &mut page).unwrap();
    }
    heap.sync().unwrap();
    (dir, base)
}

#[test]
fn every_truncation_of_the_data_file_is_rejected_at_open() {
    let (dir, base) = sample_heap("trunc_data");
    let data_path = base.with_extension("heap");
    let good = std::fs::read(&data_path).unwrap();
    assert_eq!(good.len(), 2 * PAGE_SIZE);
    for cut in 0..good.len() {
        std::fs::write(&data_path, &good[..cut]).unwrap();
        let err = HeapFile::open(&base).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::InvalidData,
            "truncation to {cut}/{} bytes was accepted",
            good.len()
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_truncation_of_the_metadata_file_is_rejected_at_open() {
    let (dir, base) = sample_heap("trunc_meta");
    let meta_path = base.with_extension("meta");
    let good = std::fs::read(&meta_path).unwrap();
    for cut in 0..good.len() {
        std::fs::write(&meta_path, &good[..cut]).unwrap();
        assert!(
            HeapFile::open(&base).is_err(),
            "metadata truncation to {cut}/{} bytes was accepted",
            good.len()
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_single_bit_flip_in_every_page_image_is_rejected() {
    // The page CRC covers bytes 4.., and a flip inside bytes 0..4 changes
    // the stored CRC itself — so all 8 × PAGE_SIZE variants of each page
    // must fail verification. Exhaustive over the in-memory image (the
    // same `Page::from_bytes` every file read goes through).
    let (dir, base) = sample_heap("flip_page");
    let good = std::fs::read(base.with_extension("heap")).unwrap();
    for pageno in 0..good.len() / PAGE_SIZE {
        let image = &good[pageno * PAGE_SIZE..(pageno + 1) * PAGE_SIZE];
        let mut corrupt = image.to_vec();
        for byte in 0..PAGE_SIZE {
            for bit in 0..8u8 {
                corrupt[byte] ^= 1 << bit;
                let res = Page::from_bytes(&corrupt);
                corrupt[byte] ^= 1 << bit; // restore for the next flip
                let err = match res {
                    Err(e) => e,
                    Ok(_) => panic!("page {pageno}: flip of byte {byte} bit {bit} was accepted"),
                };
                assert_eq!(err.kind(), ErrorKind::InvalidData);
            }
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn strided_bit_flips_through_the_file_read_path_are_rejected() {
    // The exhaustive matrix above runs on page images; this sweep rewrites
    // the actual file for a stride of bit positions and drives the full
    // open → read_page path, proving the CRC check is wired into file
    // reads (and that a flipped page errors without disturbing its
    // neighbors).
    let (dir, base) = sample_heap("flip_file");
    let data_path = base.with_extension("heap");
    let good = std::fs::read(&data_path).unwrap();
    let total_bits = good.len() * 8;
    for flip in (0..total_bits).step_by(131) {
        let (byte, bit) = (flip / 8, (flip % 8) as u8);
        let mut corrupt = good.clone();
        corrupt[byte] ^= 1 << bit;
        std::fs::write(&data_path, &corrupt).unwrap();
        let heap = HeapFile::open(&base).unwrap();
        let hit = (byte / PAGE_SIZE) as u64;
        let err = heap.read_page(hit).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::InvalidData,
            "flip of byte {byte} bit {bit} was accepted by read_page({hit})"
        );
        // The sibling page is untouched and still reads clean.
        let other = 1 - hit;
        let page = heap.read_page(other).unwrap();
        assert_eq!(page.slot_count(), 5);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_single_bit_flip_in_the_metadata_file_is_rejected() {
    let (dir, base) = sample_heap("flip_meta");
    let meta_path = base.with_extension("meta");
    let good = std::fs::read(&meta_path).unwrap();
    for byte in 0..good.len() {
        for bit in 0..8u8 {
            let mut corrupt = good.clone();
            corrupt[byte] ^= 1 << bit;
            std::fs::write(&meta_path, &corrupt).unwrap();
            assert!(
                HeapFile::open(&base).is_err(),
                "metadata flip of byte {byte} bit {bit} was accepted"
            );
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Writeback faults to land on the dirty-page flush: a clean kill, a hard
/// I/O error, and torn prefixes at several boundaries.
fn writeback_faults() -> Vec<Fault> {
    vec![
        Fault::Kill,
        Fault::IoError { transient: false },
        Fault::TornWrite { numerator: 1, denominator: 8 },
        Fault::TornWrite { numerator: 1, denominator: 2 },
        Fault::TornWrite { numerator: 7, denominator: 8 },
    ]
}

#[test]
fn kill_during_writeback_never_publishes_a_torn_page() {
    for (i, fault) in writeback_faults().into_iter().enumerate() {
        let dir = tmpdir(&format!("wb_{i}"));
        let base = dir.join("table");

        // Commit page 0 with known contents.
        let heap = HeapFile::create(&base, b"").unwrap();
        let no = heap.allocate_page().unwrap();
        let mut page = heap.read_page(no).unwrap();
        page.insert(b"committed-v1").unwrap();
        heap.write_page(no, &mut page).unwrap();
        heap.add_records(1);
        heap.sync().unwrap();
        drop(heap);

        // Reopen with the fault armed on the page-0 writeback, dirty the
        // page through the pool, and flush into the fault.
        let plan: Arc<dyn FaultInjector> =
            Arc::new(FaultPlan::new(0).trigger("wb:page0", 0, fault));
        let heap = Arc::new(HeapFile::open(&base).unwrap().with_injector(plan, "wb"));
        let pool = BufferPool::new(2);
        {
            let guard = pool.fetch(&heap, 0).unwrap();
            guard.page_mut().insert(b"uncommitted-v2").unwrap();
        }
        let flush = pool.flush_all();
        assert!(flush.is_err(), "fault {fault:?} did not surface from flush");

        // The pool's in-memory copy survives the failed writeback: readers
        // going through the pool still see both records.
        {
            let guard = pool.fetch(&heap, 0).unwrap();
            assert_eq!(guard.page().slot_count(), 2);
        }

        // Simulated crash: a fresh open reads only what the disk has.
        // The contract is that the disk never yields a torn page as valid
        // data — the read is either the committed v1 image or InvalidData.
        drop(pool);
        drop(heap);
        let back = HeapFile::open(&base).unwrap();
        assert_eq!(back.record_count(), 1);
        match back.read_page(0) {
            Ok(page) => {
                let records: Vec<&[u8]> = page.records().collect();
                assert_eq!(
                    records,
                    vec![b"committed-v1".as_slice()],
                    "fault {fault:?} published a partially-written page as valid"
                );
            }
            Err(err) => assert_eq!(
                err.kind(),
                ErrorKind::InvalidData,
                "fault {fault:?} produced a non-InvalidData read error"
            ),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
