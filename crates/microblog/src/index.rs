//! Flat CSR postings index over interned tokens, sharded by token range.
//!
//! The string-keyed `HashMap<String, Vec<TweetId>>` index paid one hash +
//! one pointer chase per query token and kept every posting list as its
//! own allocation. Here postings live in contiguous `TweetId` arenas
//! addressed by per-token offsets — CSR layout, like the PR 1 follower
//! graph — so a token's list is one slice of one arena and the whole
//! index serializes as flat columns (which is also what makes the binary
//! corpus format an O(bytes) load).
//!
//! The index is **sharded**: tokens are partitioned into contiguous id
//! ranges, each with its own (offsets, arena) pair — a
//! [`PostingsShard`]. A freshly built index has one shard covering every
//! token; [`PostingsIndex::resharded`] re-cuts the ranges so each shard
//! holds roughly equal postings bytes, which is what the corpus file
//! persists and the scatter-gather match path fans out over.
//! Because a token's posting list is identical no matter which shard
//! holds it, every query result is bit-identical at any shard count.
//! A shard owns its two columns as plain `Vec<u32>`s, whether it was
//! built in memory or decoded from the corpus file.
//!
//! Intersections pick their algorithm by skew: near-equal list lengths use
//! the linear merge, while a rare term against a head term gallops
//! (exponential probe + binary search) through the long list, turning the
//! `O(|a|+|b|)` scan into `O(|a| log |b|)`.

use crate::types::{TokenId, TweetId};

/// When the longer list is at least this many times the shorter one,
/// galloping beats the linear merge (the crossover is shallow; 16 is a
/// conservative pick that also keeps the tests exercising both paths).
const GALLOP_SKEW: usize = 16;

/// One contiguous token range of the postings index: token `t` (with
/// `token_start <= t < token_end`) has its sorted, deduplicated tweet
/// ids at `arena[offsets[t - token_start] .. offsets[t - token_start + 1]]`.
/// Offsets are shard-local (they start at 0), so a shard is
/// self-contained — exactly what one section of the corpus file persists.
#[derive(Debug, Clone)]
pub struct PostingsShard {
    token_start: u32,
    token_end: u32,
    offsets: Vec<u32>,
    arena: Vec<TweetId>,
}

impl PostingsShard {
    /// Assemble a shard from its columns, validating the CSR invariants:
    /// `offsets` has one entry per token in the range plus one, and
    /// [`check_csr`] holds.
    pub fn new(
        token_start: u32,
        token_end: u32,
        offsets: Vec<u32>,
        arena: Vec<TweetId>,
    ) -> Result<PostingsShard, String> {
        if token_start > token_end {
            return Err(format!(
                "shard token range {token_start}..{token_end} is inverted"
            ));
        }
        let range = (token_end - token_start) as usize;
        if offsets.len() != range + 1 {
            return Err(format!(
                "shard offsets hold {} entries for {} tokens",
                offsets.len(),
                range
            ));
        }
        check_csr(&offsets, arena.len()).map_err(|e| format!("shard {e}"))?;
        Ok(PostingsShard {
            token_start,
            token_end,
            offsets,
            arena,
        })
    }

    /// First token id covered by this shard.
    pub fn token_start(&self) -> u32 {
        self.token_start
    }

    /// One past the last token id covered by this shard.
    pub fn token_end(&self) -> u32 {
        self.token_end
    }

    /// The sorted posting list of `token` (which must be in range).
    pub fn postings(&self, token: TokenId) -> &[TweetId] {
        let t = (token - self.token_start) as usize;
        &self.arena[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// The shard's flat columns: `(offsets, arena)`, offsets shard-local.
    pub fn parts(&self) -> (&[u32], &[TweetId]) {
        (&self.offsets, &self.arena)
    }

    /// Payload bytes of this shard (postings arena + offsets).
    pub fn byte_size(&self) -> u64 {
        (self.arena.len() as u64 + self.offsets.len() as u64) * 4
    }
}

/// Postings for every interned token, as one or more contiguous
/// token-range shards (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PostingsIndex {
    shards: Vec<PostingsShard>,
}

impl PostingsIndex {
    /// Build the index by counting sort over per-tweet token lists. The
    /// result is a single shard covering every token; reshard afterwards
    /// if a different layout is wanted.
    ///
    /// `tweet_tokens` yields each tweet's interned tokens **in tweet id
    /// order** (ids = iteration order), which keeps every posting list
    /// sorted for free. Within-tweet duplicate tokens are dropped with a
    /// `last_seen` sentinel — O(1) per token, no per-tweet set.
    pub fn build<'a, I>(num_tokens: usize, tweet_tokens: I) -> PostingsIndex
    where
        I: Iterator<Item = &'a [TokenId]> + Clone,
    {
        // Pass 1: posting-list lengths (deduplicated within each tweet).
        let mut counts = vec![0u32; num_tokens];
        let mut last_seen = vec![u32::MAX; num_tokens];
        for (tweet, tokens) in tweet_tokens.clone().enumerate() {
            let tweet = tweet as u32;
            for &t in tokens {
                if last_seen[t as usize] != tweet {
                    last_seen[t as usize] = tweet;
                    counts[t as usize] += 1;
                }
            }
        }
        // Prefix-sum into offsets; `cursor[t]` walks each token's slot.
        let mut offsets = Vec::with_capacity(num_tokens + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        // Pass 2: scatter tweet ids into the arena.
        let mut arena = vec![0 as TweetId; total as usize];
        let mut cursor: Vec<u32> = offsets[..num_tokens].to_vec();
        last_seen.fill(u32::MAX);
        for (tweet, tokens) in tweet_tokens.enumerate() {
            let tweet = tweet as u32;
            for &t in tokens {
                if last_seen[t as usize] != tweet {
                    last_seen[t as usize] = tweet;
                    arena[cursor[t as usize] as usize] = tweet;
                    cursor[t as usize] += 1;
                }
            }
        }
        PostingsIndex {
            shards: vec![PostingsShard {
                token_start: 0,
                token_end: num_tokens as u32,
                offsets,
                arena,
            }],
        }
    }

    /// Reassemble an index from pre-validated shards (the corpus file
    /// load). Shards must tile the token space: contiguous, in order,
    /// starting at 0.
    pub fn from_shards(shards: Vec<PostingsShard>) -> Result<PostingsIndex, String> {
        let mut expected = 0u32;
        for (i, s) in shards.iter().enumerate() {
            if s.token_start != expected {
                return Err(format!(
                    "shard {i} starts at token {} but the previous shard ended at {expected}",
                    s.token_start
                ));
            }
            expected = s.token_end;
        }
        Ok(PostingsIndex { shards })
    }

    /// Re-cut the index into (at most) `k` contiguous token-range shards
    /// balanced by postings bytes: boundaries are chosen so shard `i`
    /// ends once the running arena total crosses `i/k` of the whole.
    /// Hot-token skew is bounded by one token's list per shard — a single
    /// token's postings are never split.
    pub fn resharded(&self, k: usize) -> PostingsIndex {
        let num_tokens = self.num_tokens();
        let k = k.clamp(1, num_tokens.max(1));
        let total: u64 = self
            .shards
            .iter()
            .map(|s| s.arena.len() as u64)
            .sum();
        let mut shards = Vec::with_capacity(k);
        let mut offsets: Vec<u32> = vec![0];
        let mut arena: Vec<TweetId> = Vec::new();
        let mut token_start = 0u32;
        let mut consumed = 0u64; // arena entries already assigned to finished shards
        for token in 0..num_tokens as u32 {
            let list = self.postings(token);
            arena.extend_from_slice(list);
            offsets.push(arena.len() as u32);
            consumed += list.len() as u64;
            // Cut after this token if we've crossed the next boundary,
            // leaving at least one token for each remaining shard.
            let built = shards.len() as u64;
            let tokens_left = num_tokens as u32 - (token + 1);
            let shards_left = k as u64 - built - 1;
            let past_quota = consumed * k as u64 >= total * (built + 1);
            if shards_left > 0 && (past_quota || tokens_left as u64 <= shards_left) {
                shards.push(PostingsShard {
                    token_start,
                    token_end: token + 1,
                    offsets: std::mem::replace(&mut offsets, vec![0]),
                    arena: std::mem::take(&mut arena),
                });
                token_start = token + 1;
            }
        }
        shards.push(PostingsShard {
            token_start,
            token_end: num_tokens as u32,
            offsets,
            arena,
        });
        PostingsIndex { shards }
    }

    /// Number of tokens indexed.
    pub fn num_tokens(&self) -> usize {
        self.shards.last().map_or(0, |s| s.token_end as usize)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    /// The shards, in token order.
    pub fn shards(&self) -> &[PostingsShard] {
        &self.shards
    }

    /// Index of the shard holding `token` (clamped into range — callers
    /// use this to group work, and an out-of-range token belongs to the
    /// last group as well as any).
    pub fn shard_of(&self, token: TokenId) -> usize {
        if self.shards.len() <= 1 {
            return 0;
        }
        self.shards
            .partition_point(|s| s.token_end <= token)
            .min(self.shards.len() - 1)
    }

    /// The sorted posting list of `token`.
    pub fn postings(&self, token: TokenId) -> &[TweetId] {
        // Single-shard is the overwhelmingly common in-process layout;
        // skip the boundary search entirely there.
        if self.shards.len() == 1 {
            return self.shards[0].postings(token);
        }
        self.shards[self.shard_of(token)].postings(token)
    }

    /// Total postings entries across all shards.
    pub fn arena_len(&self) -> usize {
        self.shards.iter().map(|s| s.arena.len()).sum()
    }
}

/// The CSR offsets invariants: `offsets` starts at 0, is monotone, and
/// ends at `arena_len`.
pub(crate) fn check_csr(offsets: &[u32], arena_len: usize) -> Result<(), String> {
    if offsets.first() != Some(&0) {
        return Err("offsets must start at 0".to_string());
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets must be monotone".to_string());
    }
    if offsets.last().copied().unwrap_or(0) as usize != arena_len {
        return Err("offsets must end at the arena length".to_string());
    }
    Ok(())
}

/// Intersect two sorted, deduplicated lists, galloping when skewed.
pub fn intersect(a: &[TweetId], b: &[TweetId]) -> Vec<TweetId> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(short.len());
    if short.len() * GALLOP_SKEW < long.len() {
        intersect_gallop(short, long, &mut out);
    } else {
        intersect_linear(short, long, &mut out);
    }
    out
}

fn intersect_linear(a: &[TweetId], b: &[TweetId], out: &mut Vec<TweetId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// For each element of the short list, gallop through the long one:
/// double a probe distance until we overshoot, then binary-search the
/// bracketed window. The long-list cursor only moves forward, so the
/// whole intersection is `O(|short| · log |long|)`.
fn intersect_gallop(short: &[TweetId], long: &[TweetId], out: &mut Vec<TweetId>) {
    let mut lo = 0usize;
    for &x in short {
        if lo >= long.len() {
            break;
        }
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        // Invariant: long[lo - 1] < x (if lo > 0) and long[hi] >= x (if in
        // bounds), so x can only sit inside [lo, hi] — the probe position
        // itself may hold the match, hence the inclusive upper bound.
        let hi = (hi + 1).min(long.len());
        match long[lo..hi].binary_search(&x) {
            Ok(pos) => {
                out.push(x);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
    }
}

/// Union of k sorted, deduplicated lists into a sorted, deduplicated
/// result.
///
/// Sequential two-way merges, shortest list first, ping-ponging between
/// two buffers sized for the worst case up front. Posting-list lengths
/// on the expansion-union path are heavily skewed (a few hot tokens,
/// many near-empty tails), so merging smallest-first keeps the
/// accumulator tiny for most of the rounds — and the whole union costs
/// exactly two allocations, where per-round merge buffers dominated the
/// measured per-query match time.
pub fn union_sorted(lists: &[&[TweetId]]) -> Vec<TweetId> {
    let mut sorted: Vec<&[TweetId]> = lists.iter().copied().filter(|l| !l.is_empty()).collect();
    match sorted.len() {
        0 => return Vec::new(),
        1 => return sorted[0].to_vec(),
        _ => {}
    }
    sorted.sort_unstable_by_key(|l| l.len());
    let total: usize = sorted.iter().map(|l| l.len()).sum();
    let mut acc: Vec<TweetId> = Vec::with_capacity(total);
    let mut scratch: Vec<TweetId> = Vec::with_capacity(total);
    merge_union_into(sorted[0], sorted[1], &mut acc);
    for list in &sorted[2..] {
        scratch.clear();
        merge_union_into(&acc, list, &mut scratch);
        std::mem::swap(&mut acc, &mut scratch);
    }
    acc
}

/// Merge two sorted, deduplicated lists into their sorted, deduplicated
/// union, appended to `out`.
fn merge_union_into(a: &[TweetId], b: &[TweetId], out: &mut Vec<TweetId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_sorted_deduped_lists() {
        // tweet 0: [0, 1, 0]  tweet 1: [1]  tweet 2: [0, 2]
        let tweets: Vec<Vec<TokenId>> = vec![vec![0, 1, 0], vec![1], vec![0, 2]];
        let idx = PostingsIndex::build(3, tweets.iter().map(|t| t.as_slice()));
        assert_eq!(idx.postings(0), &[0, 2]);
        assert_eq!(idx.postings(1), &[0, 1]);
        assert_eq!(idx.postings(2), &[2]);
        assert_eq!(idx.num_tokens(), 3);
        assert_eq!(idx.shard_count(), 1);
    }

    #[test]
    fn csr_check_validates() {
        assert!(check_csr(&[0, 1, 2], 2).is_ok());
        assert!(check_csr(&[], 0).is_err());
        assert!(check_csr(&[1, 2], 2).is_err());
        assert!(check_csr(&[0, 2, 1], 2).is_err());
        assert!(check_csr(&[0, 1], 2).is_err());
    }

    #[test]
    fn resharding_preserves_every_posting_list() {
        let tweets: Vec<Vec<TokenId>> = vec![
            vec![0, 1, 2, 3],
            vec![1, 3],
            vec![0, 3, 4],
            vec![2, 4, 5],
            vec![5],
        ];
        let idx = PostingsIndex::build(6, tweets.iter().map(|t| t.as_slice()));
        for k in 1..=8 {
            let sharded = idx.resharded(k);
            assert!(sharded.shard_count() <= 6, "never more shards than tokens");
            assert_eq!(sharded.num_tokens(), idx.num_tokens());
            for t in 0..6 {
                assert_eq!(sharded.postings(t), idx.postings(t), "k={k} token={t}");
                let s = sharded.shard_of(t);
                assert!(sharded.shards()[s].token_start() <= t);
                assert!(t < sharded.shards()[s].token_end());
            }
            assert_eq!(sharded.arena_len(), idx.arena_len());
        }
    }

    #[test]
    fn from_shards_requires_contiguous_coverage() {
        let shard = |start: u32, end: u32| {
            PostingsShard::new(start, end, vec![0; (end - start) as usize + 1], vec![]).unwrap()
        };
        assert!(PostingsIndex::from_shards(vec![shard(0, 2), shard(2, 5)]).is_ok());
        assert!(PostingsIndex::from_shards(vec![shard(1, 2)]).is_err(), "gap at 0");
        assert!(
            PostingsIndex::from_shards(vec![shard(0, 2), shard(3, 5)]).is_err(),
            "gap in the middle"
        );
        assert!(
            PostingsIndex::from_shards(vec![shard(0, 3), shard(2, 5)]).is_err(),
            "overlap"
        );
    }

    #[test]
    fn shard_validation_rejects_bad_offsets() {
        let ok = PostingsShard::new(0, 2, vec![0, 1, 2], vec![5, 7]);
        assert!(ok.is_ok());
        let wrong_len = PostingsShard::new(0, 2, vec![0, 2], vec![5, 7]);
        assert!(wrong_len.is_err());
        let not_monotone = PostingsShard::new(0, 2, vec![0, 2, 1], vec![5, 7]);
        assert!(not_monotone.is_err());
    }

    #[test]
    fn gallop_matches_linear_on_random_lists() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let short_len = rng.gen_range(0..8);
            let long_len = rng.gen_range(0..400);
            let mut short: Vec<TweetId> =
                (0..short_len).map(|_| rng.gen_range(0..500)).collect();
            let mut long: Vec<TweetId> =
                (0..long_len).map(|_| rng.gen_range(0..500)).collect();
            short.sort_unstable();
            short.dedup();
            long.sort_unstable();
            long.dedup();
            let mut linear = Vec::new();
            intersect_linear(&short, &long, &mut linear);
            let mut gallop = Vec::new();
            intersect_gallop(&short, &long, &mut gallop);
            assert_eq!(gallop, linear);
            assert_eq!(intersect(&short, &long), linear);
            assert_eq!(intersect(&long, &short), linear);
        }
    }

    #[test]
    fn union_merges_and_dedups() {
        let a: &[TweetId] = &[1, 3, 5];
        let b: &[TweetId] = &[2, 3, 6];
        let c: &[TweetId] = &[5];
        assert_eq!(union_sorted(&[a, b, c]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[a]), vec![1, 3, 5]);
        assert_eq!(union_sorted(&[]), Vec::<TweetId>::new());
        assert_eq!(union_sorted(&[&[], &[]]), Vec::<TweetId>::new());
    }

    #[test]
    fn union_matches_sort_dedup_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let k = rng.gen_range(0..5);
            let lists: Vec<Vec<TweetId>> = (0..k)
                .map(|_| {
                    let mut l: Vec<TweetId> =
                        (0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..60)).collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let refs: Vec<&[TweetId]> = lists.iter().map(|l| l.as_slice()).collect();
            let mut reference: Vec<TweetId> = lists.concat();
            reference.sort_unstable();
            reference.dedup();
            assert_eq!(union_sorted(&refs), reference);
        }
    }
}
