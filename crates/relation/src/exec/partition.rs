//! Deterministic hash partitioning — the "exchange" of the engine.
//!
//! Partitioning must be stable across runs and processes (tests compare
//! parallel and serial plans row-for-row), so the hash is a fixed-seed
//! FxHash-style multiply hash rather than std's randomly keyed SipHash.
//! The same per-row hashes key the hash join, aggregate and distinct
//! tables (`ops::keys`).

use crate::column::Column;
use crate::table::Table;
use crate::value::{hash_bool, hash_float, hash_int, hash_str, Value};
use std::hash::Hasher;

/// A deterministic, fast, non-cryptographic hasher (FxHash construction).
#[derive(Default)]
pub struct FixedHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0.rotate_left(5) ^ (b as u64)).wrapping_mul(SEED);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Deterministic 64-bit hash of a composite key.
pub fn hash_key(values: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut hasher = FixedHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// [`hash_key`] of every row's key, computed a column at a time: the
/// hasher state of all rows advances through one key column before the
/// next, each value fed exactly the bytes its [`Value`] would feed.
pub(crate) fn hash_rows(keys: &[&Column], rows: usize) -> Vec<u64> {
    fn mix<T>(states: &mut [u64], values: &[T], feed: impl Fn(&T, &mut FixedHasher)) {
        for (state, v) in states.iter_mut().zip(values) {
            let mut hasher = FixedHasher(*state);
            feed(v, &mut hasher);
            *state = hasher.0;
        }
    }
    let mut states = vec![FixedHasher::default().0; rows];
    for col in keys {
        match col {
            Column::Bool(v) => mix(&mut states, v, |&b, h| hash_bool(b, h)),
            Column::Int(v) => mix(&mut states, v, |&i, h| hash_int(i, h)),
            Column::Float(v) => mix(&mut states, v, |&x, h| hash_float(x, h)),
            Column::Str(v) => mix(&mut states, v, |s, h| hash_str(s, h)),
        }
    }
    states
}

/// Split `input` into `n` partitions by hashing the given key columns.
/// Every row with the same key lands in the same partition.
pub fn hash_partition(input: &Table, keys: &[usize], n: usize) -> Vec<Table> {
    assert!(n > 0, "partition count must be positive");
    if n == 1 {
        return vec![input.clone()];
    }
    let cols: Vec<&Column> = keys.iter().map(|&k| input.column(k)).collect();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (row, hash) in hash_rows(&cols, input.num_rows()).into_iter().enumerate() {
        buckets[(hash % n as u64) as usize].push(row);
    }
    buckets.into_iter().map(|idx| input.gather(&idx)).collect()
}

/// Split `input` into `n` contiguous chunks of near-equal size (for
/// broadcast joins, where the probe side needs no co-location).
pub fn chunk_partition(input: &Table, n: usize) -> Vec<Table> {
    assert!(n > 0, "partition count must be positive");
    let rows = input.num_rows();
    let per = rows.div_ceil(n.max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for _ in 0..n {
        let end = (start + per).min(rows);
        let indices: Vec<usize> = (start..end).collect();
        out.push(input.gather(&indices));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table(n: i64) -> Table {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        Table::from_rows(
            schema,
            (0..n).map(|i| vec![Value::Int(i % 10), Value::Int(i)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn hash_partition_preserves_all_rows() {
        let t = table(100);
        let parts = hash_partition(&t, &[0], 4);
        assert_eq!(parts.iter().map(Table::num_rows).sum::<usize>(), 100);
    }

    #[test]
    fn hash_partition_colocates_keys() {
        let t = table(100);
        let parts = hash_partition(&t, &[0], 4);
        // Each key value appears in exactly one partition.
        for key in 0..10_i64 {
            let holders = parts
                .iter()
                .filter(|p| p.iter_rows().any(|r| r[0] == Value::Int(key)))
                .count();
            assert_eq!(holders, 1, "key {key} split across partitions");
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let k = vec![Value::str("49ers"), Value::Int(7)];
        assert_eq!(hash_key(&k), hash_key(&k.clone()));
    }

    #[test]
    fn chunk_partition_covers_input_in_order() {
        let t = table(10);
        let parts = chunk_partition(&t, 3);
        let rebuilt = Table::concat(&parts).unwrap();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn single_partition_is_identity() {
        let t = table(5);
        let parts = hash_partition(&t, &[0], 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], t);
    }
}
