//! The one corruption matrix every persisted format registers with
//! (ROBUSTNESS.md guarantee 2).
//!
//! [`for_each_damage`] hands an opener every damaged image of a good
//! one: every truncation, every single-bit flip and the good image
//! followed by a few zero bytes. [`assert_rejects_every_damage`] checks
//! the guarantee on top of it: the good image opens and every damaged
//! one fails with `InvalidData`, never a panic and never a value. A
//! format with a weaker contract (a log with a torn-tail rule, a file
//! whose trailing bytes are uncommitted pages) walks the same images
//! with [`for_each_damage`] and asserts its own rule per [`Damage`].

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many zero bytes [`for_each_damage`] appends: one byte, an odd
/// count, one `u32`, one short of a `u64`, and a whole header's worth.
const TRAILING: [usize; 5] = [1, 3, 4, 7, 64];

/// One damaged image of a good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The first `n` bytes only (`n` < the good length).
    Truncated(usize),
    /// Bit `bit` of byte `byte` inverted.
    Flipped {
        /// Byte offset.
        byte: usize,
        /// Bit index within the byte.
        bit: u8,
    },
    /// The good image followed by `n` zero bytes.
    Trailing(usize),
}

/// Hand `visit` every damaged image of `good`: each truncation, each
/// single-bit flip (made in one buffer, flipped and restored in place)
/// and `good` followed by 1, 3, 4, 7 and 64 zero bytes.
pub fn for_each_damage(good: &[u8], mut visit: impl FnMut(Damage, &[u8])) {
    for cut in 0..good.len() {
        visit(Damage::Truncated(cut), &good[..cut]);
    }
    let mut image = good.to_vec();
    for byte in 0..good.len() {
        for bit in 0..8u8 {
            image[byte] ^= 1 << bit;
            visit(Damage::Flipped { byte, bit }, &image);
            image[byte] ^= 1 << bit;
        }
    }
    for n in TRAILING {
        image.resize(good.len() + n, 0);
        visit(Damage::Trailing(n), &image);
        image.truncate(good.len());
    }
}

/// Guarantee 2 for one format: `open(good)` succeeds and `open` of every
/// image [`for_each_damage`] makes fails with `InvalidData`. A damaged
/// image that opens, fails with another kind, or panics the opener
/// panics here with `format` and the [`Damage`] in the message.
pub fn assert_rejects_every_damage<T>(
    format: &str,
    good: &[u8],
    open: impl FnMut(&[u8]) -> io::Result<T>,
) {
    assert_rejects_damage_where(format, good, |_| true, open);
}

/// [`assert_rejects_every_damage`] for the damages `which` selects only:
/// a format whose tests split the matrix by kind of damage registers
/// each part with the same opener.
pub fn assert_rejects_damage_where<T>(
    format: &str,
    good: &[u8],
    which: impl Fn(Damage) -> bool,
    mut open: impl FnMut(&[u8]) -> io::Result<T>,
) {
    if let Err(e) = open(good) {
        panic!("{format}: the good image does not open: {e}");
    }
    for_each_damage(good, |damage, image| {
        if !which(damage) {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| open(image))) {
            Err(_) => panic!("{format}: {damage:?} panicked the opener"),
            Ok(Ok(_)) => panic!("{format}: {damage:?} was accepted"),
            Ok(Err(e)) if e.kind() != io::ErrorKind::InvalidData => {
                panic!("{format}: {damage:?} failed with {:?}, not InvalidData: {e}", e.kind())
            }
            Ok(Err(_)) => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_damage_is_visited_once_and_the_flips_are_restored() {
        let good = b"abc";
        let mut seen = Vec::new();
        for_each_damage(good, |damage, image| seen.push((damage, image.to_vec())));
        assert_eq!(seen.len(), 3 + 3 * 8 + TRAILING.len());
        assert_eq!(seen[0], (Damage::Truncated(0), vec![]));
        assert_eq!(seen[3], (Damage::Flipped { byte: 0, bit: 0 }, b"`bc".to_vec()));
        assert_eq!(seen[26], (Damage::Flipped { byte: 2, bit: 7 }, b"ab\xe3".to_vec()));
        assert_eq!(seen[27], (Damage::Trailing(1), b"abc\0".to_vec()));
        assert_eq!(seen[31].1.len(), 3 + 64);
    }

    #[test]
    fn a_lenient_opener_is_named_with_its_damage() {
        let lenient = |image: &[u8]| match image.len() {
            3 => Ok(()),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "length")),
        };
        let panic = catch_unwind(|| assert_rejects_every_damage("abc file", b"abc", lenient))
            .expect_err("a flip keeps the length");
        let message = panic.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("abc file: Flipped { byte: 0, bit: 0 } was accepted"));
    }

    #[test]
    fn only_the_selected_damages_are_opened() {
        let mut opened = Vec::new();
        let trailing = |damage| matches!(damage, Damage::Trailing(_));
        assert_rejects_damage_where("abc file", b"abc", trailing, |image| {
            opened.push(image.len());
            match image.len() {
                3 => Ok(()),
                _ => Err(io::Error::new(io::ErrorKind::InvalidData, "length")),
            }
        });
        assert_eq!(opened, [3, 4, 6, 7, 10, 67]);
    }
}
