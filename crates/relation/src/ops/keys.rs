//! Typed hash keys: the key columns of an input, hashed a column at a
//! time and compared in place, and the two chained tables the join,
//! aggregate and distinct operators index rows with. No per-row key is
//! ever built.
//!
//! Both tables chain rows under a bucket function chosen from the build
//! keys alone: `key − min` for one `Int` key column whose span is no
//! larger than the hashed table would allocate, the top bits of the key
//! hash for every other key. Only the bucket differs; the chains, their
//! ascending row order and the group numbering do not, so no operator's
//! output depends on which was chosen.

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
    /// The key column when the key is exactly one `Int` column; empty
    /// otherwise.
    ints: &'a [i64],
    rows: usize,
}

impl<'a> Keys<'a> {
    /// The columns `keys` of `table`.
    pub(crate) fn new(table: &'a Table, keys: &[usize]) -> Self {
        let cols: Vec<&Column> = keys.iter().map(|&k| table.column(k)).collect();
        let ints = match cols.as_slice() {
            [col] => col.as_int().unwrap_or_default(),
            _ => &[],
        };
        Keys {
            cols,
            ints,
            rows: table.num_rows(),
        }
    }

    /// The smallest and the largest key when the key is one non-empty
    /// `Int` column.
    fn int_range(&self) -> Option<(i64, i64)> {
        let (&first, rest) = self.ints.split_first()?;
        Some(
            rest.iter()
                .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k))),
        )
    }

    /// The smallest and the largest key when the key is one `Int`
    /// column whose span `max − min + 1` is at most [`direct_limit`]:
    /// the keys an index addresses directly.
    fn dense_range(&self) -> Option<(i64, i64)> {
        let (min, max) = self.int_range()?;
        // `abs_diff` is `span − 1` and cannot overflow, even for a key
        // column spanning `i64::MIN..=i64::MAX`.
        (max.abs_diff(min) < direct_limit(self.rows) as u64).then_some((min, max))
    }

    /// Every row's key hash: `exec::hash_key` of its key values.
    fn hashes(&self) -> Vec<u64> {
        hash_rows(&self.cols, self.rows)
    }

    /// Row `a` of these keys equals row `b` of `other` (same key types).
    fn eq(&self, a: usize, other: &Keys, b: usize) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(x, y)| x.eq_at(a, y, b))
    }

    /// Row `a` against row `b` in `Value` order, first key most
    /// significant.
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        for col in &self.cols {
            let ord = col.cmp_at(a, col, b);
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// The largest key span `max − min + 1` that a direct-addressed index
/// over `rows` build rows may have: the memory a hashed index of `rows`
/// rows allocates, counted in heads. That is `buckets` heads plus one
/// `u64` hash (two heads) per row, so a direct index never takes more
/// memory than the hashed one it replaces.
fn direct_limit(rows: usize) -> usize {
    hashed_buckets(rows).saturating_add(rows.saturating_mul(2))
}

/// Bucket count of a hashed index over `rows` rows.
fn hashed_buckets(rows: usize) -> usize {
    rows.next_power_of_two().max(2)
}

/// How an index maps a key to its bucket, chosen from the build keys.
enum Bucket {
    /// `key − min`, for one `Int` key column whose span `max − min + 1`
    /// is at most [`direct_limit`]. A bucket holds exactly one key value,
    /// so nothing is hashed and no key is compared.
    Direct { min: i64, max: i64 },
    /// The top bits of every build row's key hash (`exec::hash_rows`),
    /// which the multiply hash mixes best (an integer key's canonical
    /// float has all-zero low bits). A bucket may hold several keys,
    /// told apart by hash and then by value.
    Hashed { hashes: Vec<u64>, shift: u32 },
}

impl Bucket {
    /// The bucket function for `keys` and its bucket count.
    fn choose(keys: &Keys) -> RelResult<(Bucket, usize)> {
        let rows = keys.rows;
        if rows >= NIL as usize {
            return Err(RelError::InvalidPlan(format!(
                "{rows} rows exceed one hash table's capacity"
            )));
        }
        Ok(match keys.dense_range() {
            Some((min, max)) => (Bucket::Direct { min, max }, offset(max, min) + 1),
            None => Bucket::hashed(keys),
        })
    }

    /// The hashed bucket function for `keys` and its bucket count.
    fn hashed(keys: &Keys) -> (Bucket, usize) {
        let buckets = hashed_buckets(keys.rows);
        let shift = 64 - buckets.trailing_zeros();
        let hashes = keys.hashes();
        (Bucket::Hashed { hashes, shift }, buckets)
    }

    /// The bucket of row `row` of the build keys the function was chosen
    /// from.
    fn of_row(&self, keys: &Keys, row: usize) -> usize {
        match self {
            Bucket::Direct { min, .. } => offset(keys.ints[row], *min),
            Bucket::Hashed { hashes, shift } => (hashes[row] >> shift) as usize,
        }
    }

    /// Build rows `a` and `b`, both already in one bucket, have equal
    /// keys.
    fn same_key(&self, keys: &Keys, a: usize, b: usize) -> bool {
        match self {
            Bucket::Direct { .. } => true,
            Bucket::Hashed { hashes, .. } => hashes[a] == hashes[b] && keys.eq(a, keys, b),
        }
    }
}

/// The smallest and the largest key of `keys` of `table` when they are
/// one `Int` column dense enough to address directly (the rule every
/// join and group index applies); `None` for every other key.
pub(crate) fn dense_range(table: &Table, keys: &[usize]) -> Option<(i64, i64)> {
    Keys::new(table, keys).dense_range()
}

/// `key − min` for a key in `[min, max]`: below the span, so it fits a
/// bucket index.
fn offset(key: i64, min: i64) -> usize {
    key.wrapping_sub(min) as u64 as usize
}

/// The rows of a join's build input, chained by bucket: by `key − min`
/// for one dense `Int` key column, by key hash otherwise (see
/// [`Bucket`]). Every chain lists its rows in ascending order.
pub(crate) struct RowIndex {
    bucket: Bucket,
    head: Vec<u32>,
    next: Vec<u32>,
}

impl RowIndex {
    /// Index every row of `keys`. One `Int` key column over a dense
    /// enough span is indexed by `key − min`, every other key by its
    /// hash (see [`Bucket`]); either way a chain lists its rows in
    /// ascending order.
    pub(crate) fn build(keys: &Keys) -> RelResult<Self> {
        Ok(Self::chain(keys, Bucket::choose(keys)?))
    }

    /// Chain every row of `keys` under `bucket`, a function of
    /// `buckets` buckets chosen for them.
    fn chain(keys: &Keys, (bucket, buckets): (Bucket, usize)) -> Self {
        let mut head = vec![NIL; buckets];
        let mut next = vec![NIL; keys.rows];
        // Back to front, so that every chain lists its rows in ascending
        // order and a probe emits matches in build-row order.
        for row in (0..keys.rows).rev() {
            let b = bucket.of_row(keys, row);
            next[row] = head[b];
            head[b] = row as u32;
        }
        RowIndex { bucket, head, next }
    }

    /// Every pair of a `probe` row and a `build` row (the keys this
    /// index was built from) with equal keys, as `(probe rows, build
    /// rows)`: probe rows ascending, and each probe row's build rows
    /// ascending. `probe` has the build keys' types.
    pub(crate) fn matches(&self, build: &Keys, probe: &Keys) -> (Vec<usize>, Vec<usize>) {
        let mut probe_idx = Vec::with_capacity(probe.rows);
        let mut build_idx = Vec::with_capacity(probe.rows);
        match &self.bucket {
            // Same types: the probe key is one `Int` column too.
            Bucket::Direct { min, max } => {
                for (p, &key) in probe.ints.iter().enumerate() {
                    if key < *min || key > *max {
                        continue;
                    }
                    let mut b = self.head[offset(key, *min)];
                    while b != NIL {
                        probe_idx.push(p);
                        build_idx.push(b as usize);
                        b = self.next[b as usize];
                    }
                }
            }
            Bucket::Hashed { hashes, shift } => {
                for (p, hash) in probe.hashes().into_iter().enumerate() {
                    let mut b = self.head[(hash >> shift) as usize];
                    while b != NIL {
                        let r = b as usize;
                        if hashes[r] == hash && build.eq(r, probe, p) {
                            probe_idx.push(p);
                            build_idx.push(r);
                        }
                        b = self.next[r];
                    }
                }
            }
        }
        (probe_idx, build_idx)
    }
}

/// The rows of an input grouped by key, found through a chained table
/// under [`RowIndex`]'s bucket functions. Neither the numbering nor the
/// key order depends on which function was chosen.
pub(crate) struct Groups {
    /// Group of each row; groups are numbered in order of first
    /// appearance.
    pub(crate) group_of: Vec<u32>,
    /// The first row of each group.
    pub(crate) firsts: Vec<usize>,
    /// The groups in ascending key order, when the bucket function
    /// already lists them so (`key − min`).
    ascending: Option<Vec<usize>>,
}

impl Groups {
    /// Group the rows of `keys` by equal key, through a chained table
    /// with [`RowIndex`]'s bucket functions: a group is found by `key −
    /// min` for one dense `Int` key column, by hash and then by value
    /// for every other key. The numbering does not depend on which.
    pub(crate) fn of(keys: &Keys) -> RelResult<Groups> {
        Ok(Self::number(keys, Bucket::choose(keys)?))
    }

    /// Number the groups of `keys` under `bucket`, a function of
    /// `buckets` buckets chosen for them.
    fn number(keys: &Keys, (bucket, buckets): (Bucket, usize)) -> Groups {
        let mut head = vec![NIL; buckets];
        let mut next: Vec<u32> = Vec::new();
        let mut firsts: Vec<usize> = Vec::new();
        let mut group_of = Vec::with_capacity(keys.rows);
        for row in 0..keys.rows {
            let b = bucket.of_row(keys, row);
            let mut g = head[b];
            while g != NIL && !bucket.same_key(keys, firsts[g as usize], row) {
                g = next[g as usize];
            }
            if g == NIL {
                g = firsts.len() as u32;
                firsts.push(row);
                next.push(head[b]);
                head[b] = g;
            }
            group_of.push(g);
        }
        let ascending = matches!(bucket, Bucket::Direct { .. }).then(|| {
            head.iter()
                .filter(|&&g| g != NIL)
                .map(|&g| g as usize)
                .collect()
        });
        Groups {
            group_of,
            firsts,
            ascending,
        }
    }

    /// The groups in ascending order of their keys (`keys`, the keys they
    /// were grouped by).
    pub(crate) fn in_key_order(&self, keys: &Keys) -> Vec<usize> {
        if let Some(ascending) = &self.ascending {
            return ascending.clone();
        }
        let mut order: Vec<usize> = (0..self.firsts.len()).collect();
        order.sort_unstable_by(|&a, &b| keys.cmp(self.firsts[a], self.firsts[b]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    /// A one-column `Int` table.
    fn ints(keys: &[i64]) -> Table {
        let schema = Schema::of(&[("k", DataType::Int)]);
        Table::from_rows(schema, keys.iter().map(|&k| vec![Value::Int(k)]).collect()).unwrap()
    }

    fn is_direct(keys: &Keys) -> bool {
        matches!(Bucket::choose(keys).unwrap().0, Bucket::Direct { .. })
    }

    /// `(probe row, build row)` pairs of `build ⋈ probe`.
    fn pairs(build: &Table, probe: &Table) -> Vec<(usize, usize)> {
        let (b, p) = (Keys::new(build, &[0]), Keys::new(probe, &[0]));
        let (probe_idx, build_idx) = RowIndex::build(&b).unwrap().matches(&b, &p);
        probe_idx.into_iter().zip(build_idx).collect()
    }

    /// [`pairs`] with the hashed bucket function forced.
    fn hashed_pairs(build: &Table, probe: &Table) -> Vec<(usize, usize)> {
        let (b, p) = (Keys::new(build, &[0]), Keys::new(probe, &[0]));
        let (probe_idx, build_idx) = RowIndex::chain(&b, Bucket::hashed(&b)).matches(&b, &p);
        probe_idx.into_iter().zip(build_idx).collect()
    }

    #[test]
    fn direct_up_to_the_limit_hashed_beyond() {
        for rows in [2usize, 3, 5, 8, 9, 100] {
            let limit = direct_limit(rows) as i64;
            let mut keys: Vec<i64> = (0..rows as i64 - 1).collect();
            keys.push(limit - 1); // span exactly `limit`
            let at = ints(&keys);
            assert!(
                is_direct(&Keys::new(&at, &[0])),
                "{rows} rows, span {limit}"
            );
            *keys.last_mut().unwrap() = limit; // span `limit + 1`
            let beyond = ints(&keys);
            assert!(
                !is_direct(&Keys::new(&beyond, &[0])),
                "{rows} rows, span {}",
                limit + 1
            );
            // Either way the answers are the same.
            for t in [&at, &beyond] {
                assert_eq!(pairs(t, t), hashed_pairs(t, t));
            }
        }
        assert_eq!(direct_limit(5), 8 + 10);
        assert_eq!(direct_limit(1), 2 + 2);
    }

    #[test]
    fn the_whole_i64_span_hashes_without_overflow() {
        let build = ints(&[i64::MAX, i64::MIN, 0, i64::MIN, -1]);
        assert!(!is_direct(&Keys::new(&build, &[0])));
        let probe = ints(&[i64::MIN, 1, i64::MAX, i64::MIN + 1, -1]);
        assert_eq!(pairs(&build, &probe), vec![(0, 1), (0, 3), (2, 0), (4, 4)]);
        let groups = Groups::of(&Keys::new(&build, &[0])).unwrap();
        assert_eq!(groups.group_of, vec![0, 1, 2, 1, 3]);
    }

    #[test]
    fn negative_keys_index_from_their_minimum() {
        let build = ints(&[-5, -3, -5, -1, -4]);
        let keys = Keys::new(&build, &[0]);
        assert!(matches!(
            Bucket::choose(&keys).unwrap().0,
            Bucket::Direct { min: -5, max: -1 }
        ));
        let probe = ints(&[-1, -2, -5, 0, -6]);
        assert_eq!(pairs(&build, &probe), vec![(0, 3), (2, 0), (2, 2)]);
        let groups = Groups::of(&keys).unwrap();
        assert_eq!(groups.group_of, vec![0, 1, 0, 2, 3]);
        assert_eq!(groups.firsts, vec![0, 1, 3, 4]);
        // Ascending keys: -5, -4, -3, -1.
        assert_eq!(groups.in_key_order(&keys), vec![0, 3, 1, 2]);
    }

    #[test]
    fn probe_keys_outside_the_range_match_nothing() {
        let build = ints(&[10, 12, 14, 16, 18, 20]);
        assert!(is_direct(&Keys::new(&build, &[0])));
        let probe = ints(&[9, 21, i64::MIN, i64::MAX, 15, 14, 20, 10]);
        assert_eq!(pairs(&build, &probe), vec![(5, 2), (6, 5), (7, 0)]);
    }

    #[test]
    fn duplicate_build_keys_keep_ascending_build_rows() {
        let build = ints(&[3, 1, 3, 3, 1, 2]);
        assert!(is_direct(&Keys::new(&build, &[0])));
        let probe = ints(&[3, 1, 4, 3]);
        // Probe rows ascending; each one's build rows ascending.
        let expected = vec![
            (0, 0),
            (0, 2),
            (0, 3),
            (1, 1),
            (1, 4),
            (3, 0),
            (3, 2),
            (3, 3),
        ];
        assert_eq!(pairs(&build, &probe), expected);
        assert_eq!(hashed_pairs(&build, &probe), expected);
    }

    #[test]
    fn both_bucket_functions_number_groups_alike() {
        let t = ints(&[7, 3, 7, 5, 3, 3, 9, 5]);
        let keys = Keys::new(&t, &[0]);
        let direct = Groups::of(&keys).unwrap();
        assert!(direct.ascending.is_some());
        let hashed = Groups::number(&keys, Bucket::hashed(&keys));
        assert_eq!(direct.group_of, hashed.group_of);
        assert_eq!(direct.firsts, hashed.firsts);
        assert_eq!(direct.in_key_order(&keys), hashed.in_key_order(&keys));
        assert_eq!(direct.in_key_order(&keys), vec![1, 2, 0, 3]);
    }

    #[test]
    fn other_keys_hash() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let two = Table::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]]).unwrap();
        assert!(!is_direct(&Keys::new(&two, &[0, 1])));
        let schema = Schema::of(&[("s", DataType::Str)]);
        let strs = Table::from_rows(schema, vec![vec![Value::str("a")]]).unwrap();
        assert!(!is_direct(&Keys::new(&strs, &[0])));
        assert!(!is_direct(&Keys::new(&ints(&[]), &[0])));
    }
}
