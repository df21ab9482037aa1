//! Fixed-size slotted pages with a per-page CRC32.
//!
//! Layout (all little-endian):
//!
//! ```text
//! 0..4   crc32 over bytes 4..PAGE_SIZE (sealed on write)
//! 4..6   slot count u16
//! 6..8   free_upper u16 — start of the record area
//! 8..    slot directory, 4 bytes per slot: record offset u16 | length u16
//! ...    free space
//! ...    records, appended downward from PAGE_SIZE
//! ```
//!
//! The same checksummed-frame discipline as the binfmt v2 table format:
//! a page read back from disk is verified before a single record is
//! decoded, so truncation, torn in-place writes and silent bit flips all
//! surface as `InvalidData`, never as a plausible-but-wrong row.

use crate::atomic::crc32;
use std::io;

/// Size of every page, on disk and in every buffer-pool frame.
pub const PAGE_SIZE: usize = 8192;
/// Bytes 0..8: crc (4) + slot count (2) + free_upper (2).
pub const PAGE_HEADER: usize = 8;
const SLOT_SIZE: usize = 4;

/// Largest record a single page can hold (one slot, nothing else).
pub const MAX_RECORD: usize = PAGE_SIZE - PAGE_HEADER - SLOT_SIZE;

/// One in-memory slotted page.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8]>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("slotted page: {msg}"))
}

impl Page {
    /// A fresh page with zero records.
    pub fn empty() -> Page {
        let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
        bytes[6..8].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { bytes }
    }

    /// Number of records stored.
    pub fn slot_count(&self) -> usize {
        u16::from_le_bytes([self.bytes[4], self.bytes[5]]) as usize
    }

    fn free_upper(&self) -> usize {
        u16::from_le_bytes([self.bytes[6], self.bytes[7]]) as usize
    }

    /// Bytes still available for one more record (slot entry included).
    pub fn free_space(&self) -> usize {
        let lower = PAGE_HEADER + self.slot_count() * SLOT_SIZE;
        self.free_upper().saturating_sub(lower)
    }

    /// True when no record has been inserted.
    pub fn is_empty(&self) -> bool {
        self.slot_count() == 0
    }

    /// Append a record; returns its slot id, or `None` when the page is
    /// full. Records longer than [`MAX_RECORD`] never fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        let needed = record.len() + SLOT_SIZE;
        if needed > self.free_space() || record.len() > MAX_RECORD {
            return None;
        }
        let slot = self.slot_count();
        let off = self.free_upper() - record.len();
        self.bytes[off..off + record.len()].copy_from_slice(record);
        let entry = PAGE_HEADER + slot * SLOT_SIZE;
        self.bytes[entry..entry + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.bytes[entry + 2..entry + 4].copy_from_slice(&(record.len() as u16).to_le_bytes());
        self.bytes[4..6].copy_from_slice(&((slot + 1) as u16).to_le_bytes());
        self.bytes[6..8].copy_from_slice(&(off as u16).to_le_bytes());
        Some(slot as u16)
    }

    /// The record in `slot`, if present.
    pub fn record(&self, slot: u16) -> Option<&[u8]> {
        let slot = slot as usize;
        if slot >= self.slot_count() {
            return None;
        }
        let entry = PAGE_HEADER + slot * SLOT_SIZE;
        let off = u16::from_le_bytes([self.bytes[entry], self.bytes[entry + 1]]) as usize;
        let len = u16::from_le_bytes([self.bytes[entry + 2], self.bytes[entry + 3]]) as usize;
        self.bytes.get(off..off + len)
    }

    /// Iterate records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.slot_count() as u16).filter_map(move |s| self.record(s))
    }

    /// Recompute the CRC so [`Page::as_bytes`] is a valid on-disk image.
    pub fn seal(&mut self) {
        let crc = crc32(&self.bytes[4..]);
        self.bytes[..4].copy_from_slice(&crc.to_le_bytes());
    }

    /// The raw `PAGE_SIZE` image. Only valid on disk after [`Page::seal`].
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Verify and adopt an on-disk page image. Rejects wrong length, CRC
    /// mismatch, and any slot directory entry pointing outside the record
    /// area with `InvalidData`.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(invalid("wrong page length"));
        }
        let stored = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if crc32(&bytes[4..]) != stored {
            return Err(invalid("checksum mismatch"));
        }
        let page = Page {
            bytes: bytes.to_vec().into_boxed_slice(),
        };
        // Structural sanity on top of the CRC: a page sealed by a buggy
        // writer must still be unable to make `record()` read out of
        // bounds.
        let slots = page.slot_count();
        let lower = PAGE_HEADER + slots * SLOT_SIZE;
        let upper = page.free_upper();
        if lower > upper || upper > PAGE_SIZE {
            return Err(invalid("slot directory overlaps record area"));
        }
        for s in 0..slots {
            let entry = PAGE_HEADER + s * SLOT_SIZE;
            let off = u16::from_le_bytes([page.bytes[entry], page.bytes[entry + 1]]) as usize;
            let len = u16::from_le_bytes([page.bytes[entry + 2], page.bytes[entry + 3]]) as usize;
            if off < upper || off + len > PAGE_SIZE {
                return Err(invalid("slot points outside the record area"));
            }
        }
        Ok(page)
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back_in_order() {
        let mut p = Page::empty();
        assert_eq!(p.insert(b"alpha"), Some(0));
        assert_eq!(p.insert(b"beta"), Some(1));
        assert_eq!(p.record(0).unwrap(), b"alpha");
        assert_eq!(p.record(1).unwrap(), b"beta");
        assert_eq!(p.records().collect::<Vec<_>>(), vec![&b"alpha"[..], b"beta"]);
        assert!(p.record(2).is_none());
    }

    #[test]
    fn fills_up_and_rejects_when_full() {
        let mut p = Page::empty();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 104 bytes per record (100 + slot entry) in 8184 usable bytes.
        assert_eq!(n, (PAGE_SIZE - PAGE_HEADER) / (100 + 4));
        assert_eq!(p.slot_count(), n);
        // Oversized records never fit, even in an empty page.
        assert!(Page::empty().insert(&[0u8; MAX_RECORD + 1]).is_none());
        assert!(Page::empty().insert(&[0u8; MAX_RECORD]).is_some());
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut p = Page::empty();
        assert_eq!(p.insert(b""), Some(0));
        assert_eq!(p.record(0).unwrap(), b"");
    }

    #[test]
    fn seal_round_trips_through_bytes() {
        let mut p = Page::empty();
        p.insert(b"payload");
        p.seal();
        let back = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(back.record(0).unwrap(), b"payload");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut p = Page::empty();
        p.insert(b"some record data");
        p.insert(b"another one");
        p.seal();
        let good = p.as_bytes().to_vec();
        // Flipping any bit of the used region must fail the CRC. (The
        // whole page is covered, including the free space — sweep a
        // sample of it rather than all 64 Kbit for test speed.)
        for byte in (0..good.len()).step_by(97).chain([0, 1, 5, 7, good.len() - 1]) {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Page::from_bytes(&bad).is_err(),
                    "bit flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut p = Page::empty();
        p.seal();
        let good = p.as_bytes();
        assert!(Page::from_bytes(&good[..PAGE_SIZE - 1]).is_err());
        let mut long = good.to_vec();
        long.push(0);
        assert!(Page::from_bytes(&long).is_err());
    }

    #[test]
    fn resealed_corrupt_directory_is_structurally_rejected() {
        // A writer bug that seals a bad slot directory passes the CRC;
        // the structural check must still refuse it.
        let mut p = Page::empty();
        p.insert(b"x");
        // Point slot 0 past the end of the page.
        let entry = PAGE_HEADER;
        p.bytes[entry..entry + 2].copy_from_slice(&((PAGE_SIZE - 1) as u16).to_le_bytes());
        p.bytes[entry + 2..entry + 4].copy_from_slice(&8u16.to_le_bytes());
        p.seal();
        assert!(Page::from_bytes(p.as_bytes()).is_err());
    }
}
