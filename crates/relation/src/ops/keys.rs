//! Typed hash keys: the key columns of an input, hashed a column at a
//! time and compared in place, and the two chained hash tables the join,
//! aggregate and distinct operators index rows with. No per-row key is
//! ever built.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::exec::hash_rows;
use crate::table::Table;
use std::cmp::Ordering;

/// End of a chain.
const NIL: u32 = u32::MAX;

/// The key columns of one input.
pub(crate) struct Keys<'a> {
    cols: Vec<&'a Column>,
    rows: usize,
}

impl<'a> Keys<'a> {
    /// The columns `keys` of `table`.
    pub(crate) fn new(table: &'a Table, keys: &[usize]) -> Self {
        Keys {
            cols: keys.iter().map(|&k| table.column(k)).collect(),
            rows: table.num_rows(),
        }
    }

    /// Every row's key hash: `exec::hash_key` of its key values.
    pub(crate) fn hashes(&self) -> Vec<u64> {
        hash_rows(&self.cols, self.rows)
    }

    /// Row `a` of these keys equals row `b` of `other` (same key types).
    pub(crate) fn eq(&self, a: usize, other: &Keys, b: usize) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(x, y)| x.eq_at(a, y, b))
    }

    /// Row `a` against row `b` in `Value` order, first key most
    /// significant.
    pub(crate) fn cmp(&self, a: usize, b: usize) -> Ordering {
        for col in &self.cols {
            let ord = col.cmp_at(a, col, b);
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Bucket count and shift for a table of `entries` entries. Buckets come
/// from the top bits of the hash, which the multiply hash mixes best (an
/// integer key's canonical float has all-zero low bits).
fn buckets_for(entries: usize) -> RelResult<(usize, u32)> {
    if entries >= NIL as usize {
        return Err(RelError::InvalidPlan(format!(
            "{entries} rows exceed one hash table's capacity"
        )));
    }
    let buckets = entries.next_power_of_two().max(2);
    Ok((buckets, 64 - buckets.trailing_zeros()))
}

/// The rows of a join's build input, chained by key hash.
pub(crate) struct RowIndex {
    hashes: Vec<u64>,
    head: Vec<u32>,
    next: Vec<u32>,
    shift: u32,
}

impl RowIndex {
    /// Index every row of `keys`.
    pub(crate) fn build(keys: &Keys) -> RelResult<Self> {
        let hashes = keys.hashes();
        let (buckets, shift) = buckets_for(hashes.len())?;
        let mut head = vec![NIL; buckets];
        let mut next = vec![NIL; hashes.len()];
        // Back to front, so that every chain lists its rows in ascending
        // order and a probe emits matches in build-row order.
        for (row, &hash) in hashes.iter().enumerate().rev() {
            let bucket = (hash >> shift) as usize;
            next[row] = head[bucket];
            head[bucket] = row as u32;
        }
        Ok(RowIndex {
            hashes,
            head,
            next,
            shift,
        })
    }

    /// The rows whose key hash is `hash`, ascending; the caller compares
    /// the keys themselves.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut row = self.head[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            while row != NIL {
                let r = row as usize;
                row = self.next[r];
                if self.hashes[r] == hash {
                    return Some(r);
                }
            }
            None
        })
    }
}

/// The rows of an input grouped by key.
pub(crate) struct Groups {
    /// Group of each row; groups are numbered in order of first
    /// appearance.
    pub(crate) group_of: Vec<u32>,
    /// The first row of each group.
    pub(crate) firsts: Vec<usize>,
}

impl Groups {
    /// Group the rows of `keys` by equal key.
    pub(crate) fn of(keys: &Keys) -> RelResult<Groups> {
        let hashes = keys.hashes();
        let (buckets, shift) = buckets_for(hashes.len())?;
        let mut head = vec![NIL; buckets];
        let mut next: Vec<u32> = Vec::new();
        let mut firsts: Vec<usize> = Vec::new();
        let mut group_of = Vec::with_capacity(hashes.len());
        for (row, &hash) in hashes.iter().enumerate() {
            let bucket = (hash >> shift) as usize;
            let mut g = head[bucket];
            while g != NIL {
                let first = firsts[g as usize];
                if hashes[first] == hash && keys.eq(first, keys, row) {
                    break;
                }
                g = next[g as usize];
            }
            if g == NIL {
                g = firsts.len() as u32;
                firsts.push(row);
                next.push(head[bucket]);
                head[bucket] = g;
            }
            group_of.push(g);
        }
        Ok(Groups { group_of, firsts })
    }
}
