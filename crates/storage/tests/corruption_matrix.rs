//! Corruption matrix for paged heap files (`<base>.heap` / `<base>.meta`).
//!
//! The heap's contract mirrors the binary-corpus container's: a read
//! either returns exactly the committed pages or it errors with
//! `InvalidData` — never a plausible-but-wrong page, never a panic. The
//! page images and the metadata file register with the one corruption
//! matrix (`esharp_fault::corrupt`); the data file's truncations fail at
//! open, a strided sweep of its bit flips goes through the real
//! open/read path, and every fault the injector can land mid-writeback
//! (kill, I/O error, torn prefixes) must never publish a torn page as
//! valid data.

use esharp_fault::corrupt::{
    assert_rejects_damage_where, assert_rejects_every_damage, for_each_damage, Damage,
};
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
fn every_damage_of_every_page_image_is_rejected() {
    // The page CRC covers bytes 4.., and a flip inside bytes 0..4 changes
    // the stored CRC itself, so every flip of each page fails; so does
    // every other length. The in-memory image goes through the same
    // `Page::from_bytes` every file read does.
    let (dir, base) = sample_heap("page_image");
    let good = std::fs::read(base.with_extension("heap")).unwrap();
    for image in good.chunks(PAGE_SIZE) {
        assert_rejects_every_damage("page image", image, Page::from_bytes);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The heap metadata's part of the corruption matrix that `which`
/// selects: each damaged metadata file fails `HeapFile::open`.
fn assert_metadata_rejects(name: &str, which: impl Fn(Damage) -> bool) {
    let (dir, base) = sample_heap(name);
    let meta_path = base.with_extension("meta");
    let good = std::fs::read(&meta_path).unwrap();
    assert_rejects_damage_where("heap metadata", &good, which, |image| {
        std::fs::write(&meta_path, image)?;
        HeapFile::open(&base)
    });
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_truncation_of_the_metadata_file_is_rejected_at_open() {
    // Every wrong length: each truncation and each trailing byte count.
    assert_metadata_rejects("meta_len", |damage| !matches!(damage, Damage::Flipped { .. }));
}

#[test]
fn every_single_bit_flip_in_the_metadata_file_is_rejected() {
    assert_metadata_rejects("meta_flip", |damage| matches!(damage, Damage::Flipped { .. }));
}

#[test]
fn every_truncation_of_the_data_file_is_rejected_at_open() {
    // Bytes after the committed pages are pages allocated but never
    // synced: they open, and the committed pages still read clean.
    let (dir, base) = sample_heap("trunc_data");
    let data_path = base.with_extension("heap");
    let good = std::fs::read(&data_path).unwrap();
    assert_eq!(good.len(), 2 * PAGE_SIZE);
    for_each_damage(&good, |damage, image| {
        if let Damage::Flipped { .. } = damage {
            return;
        }
        std::fs::write(&data_path, image).unwrap();
        match (damage, HeapFile::open(&base)) {
            (Damage::Truncated(_), Err(err)) => {
                assert_eq!(err.kind(), ErrorKind::InvalidData, "{damage:?}")
            }
            (Damage::Trailing(_), Ok(heap)) => {
                for no in 0..2 {
                    assert_eq!(heap.read_page(no).unwrap().slot_count(), 5, "{damage:?}");
                }
            }
            (_, res) => panic!("{damage:?}: {:?}", res.map(|heap| heap.page_count())),
        }
    });
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
    for_each_damage(&good, |damage, image| {
        let Damage::Flipped { byte, bit } = damage else {
            return;
        };
        if !(byte * 8 + bit as usize).is_multiple_of(131) {
            return;
        }
        std::fs::write(&data_path, image).unwrap();
        let heap = HeapFile::open(&base).unwrap();
        let hit = (byte / PAGE_SIZE) as u64;
        let err = heap.read_page(hit).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{damage:?} accepted by read_page({hit})");
        // The sibling page is untouched and still reads clean.
        assert_eq!(heap.read_page(1 - hit).unwrap().slot_count(), 5);
    });
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
