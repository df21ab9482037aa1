//! Run-form CSR postings index over interned tokens, sharded by token range.
//!
//! The string-keyed `HashMap<String, Vec<TweetId>>` index paid one hash +
//! one pointer chase per query token and kept every posting list as its
//! own allocation. Here postings live in contiguous word arenas addressed
//! by per-token offsets — CSR layout, like the follower graph — so a
//! token's list is one slice of one arena and the whole index serializes
//! as flat columns (which is also what makes the binary corpus format an
//! O(bytes) load).
//!
//! Every posting list has one form: a sequence of [`Run`]s of adjacent
//! tweet ids, `[start, len]` in two words. Tweet ids are assigned in
//! topic order (DESIGN.md "Tweet-id order"), so the tweets of one topic
//! are one id range and a list is mostly long runs: matching intersects
//! and unions run by run instead of id by id. A list is **canonical**:
//! every run is non-empty, runs ascend, and two runs never overlap or
//! touch (a gap of at least one id separates them), so one id set has
//! exactly one run list and two lists are equal exactly when their sets
//! are. Run ends are computed in `u64`: a run may end at the last `u32`
//! id without its end wrapping.
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

use crate::types::{TokenId, TweetId};
use std::cell::RefCell;

/// A run of adjacent tweet ids, `[start, len]`: the ids `start ..
/// start + len`. A run in a posting list has `len >= 1`.
pub type Run = [TweetId; 2];

/// One past the last id of `run`.
fn end([start, len]: Run) -> u64 {
    u64::from(start) + u64::from(len)
}

/// A posting list in run form (see the module docs): borrowed from a
/// shard's arena, or from any canonical run list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Postings<'a> {
    runs: &'a [Run],
}

impl<'a> Postings<'a> {
    /// The list's runs, ascending.
    pub fn runs(self) -> &'a [Run] {
        self.runs
    }

    /// Number of postings (ids), not of runs.
    pub fn len(self) -> usize {
        self.runs.iter().map(|&[_, len]| len as usize).sum()
    }

    /// Whether the list holds no id.
    pub fn is_empty(self) -> bool {
        self.runs.is_empty()
    }

    /// The ids, ascending.
    pub fn to_vec(self) -> Vec<TweetId> {
        let mut ids = Vec::with_capacity(self.len());
        expand_into(self.runs, &mut ids);
        ids
    }
}

/// One contiguous token range of the postings index: token `t` (with
/// `token_start <= t < token_end`) has its run list in the words
/// `arena[offsets[t - token_start] .. offsets[t - token_start + 1]]`.
/// Offsets are shard-local (they start at 0) and count words, so a shard
/// is self-contained — exactly what one section of the corpus file
/// persists.
#[derive(Debug, Clone)]
pub struct PostingsShard {
    token_start: u32,
    token_end: u32,
    offsets: Vec<u32>,
    arena: Vec<u32>,
}

impl PostingsShard {
    /// Assemble a shard from its columns, validating the CSR invariants
    /// (`offsets` has one entry per token in the range plus one, starts
    /// at 0, is monotone and ends at the arena's length) and that every
    /// list is a canonical run list ([`check_runs`]).
    pub fn new(
        token_start: u32,
        token_end: u32,
        offsets: Vec<u32>,
        arena: Vec<u32>,
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
        for w in offsets.windows(2) {
            check_runs(&arena[w[0] as usize..w[1] as usize])?;
        }
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

    /// The posting list of `token` (which must be in range).
    pub fn postings(&self, token: TokenId) -> Postings<'_> {
        let t = (token - self.token_start) as usize;
        let words = &self.arena[self.offsets[t] as usize..self.offsets[t + 1] as usize];
        // Every list spans an even number of words (checked by `new`,
        // true by construction elsewhere), so nothing is left over.
        Postings {
            runs: words.as_chunks().0,
        }
    }

    /// One past the last id any of the shard's lists holds (0 when every
    /// list is empty).
    pub(crate) fn id_end(&self) -> u64 {
        self.offsets
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| end([self.arena[w[1] as usize - 2], self.arena[w[1] as usize - 1]]))
            .max()
            .unwrap_or(0)
    }

    /// The shard's flat columns: `(offsets, arena)`, offsets shard-local.
    pub fn parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.arena)
    }

    /// Payload bytes of this shard (run arena + offsets).
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
    /// order** (ids = iteration order), which keeps every run list
    /// ascending for free: a tweet extends its token's last run when that
    /// run ends at the tweet, and starts a new one otherwise. Within-tweet
    /// duplicate tokens are dropped with a `last_seen` sentinel — O(1)
    /// per token, no per-tweet set.
    pub fn build<'a, I>(num_tokens: usize, tweet_tokens: I) -> PostingsIndex
    where
        I: Iterator<Item = &'a [TokenId]> + Clone,
    {
        const NONE: u32 = u32::MAX;
        // Whether `tweet` extends the run that `last` (the token's
        // previous tweet) ends.
        let extends = |last: u32, tweet: u32| last != NONE && last + 1 == tweet;
        // Pass 1: words per token list (two per run).
        let mut words = vec![0u32; num_tokens];
        let mut last_seen = vec![NONE; num_tokens];
        for (tweet, tokens) in tweet_tokens.clone().enumerate() {
            let tweet = tweet as u32;
            for &t in tokens {
                let last = last_seen[t as usize];
                if last != tweet {
                    if !extends(last, tweet) {
                        words[t as usize] += 2;
                    }
                    last_seen[t as usize] = tweet;
                }
            }
        }
        // Prefix-sum into offsets; `cursor[t]` is one past the words
        // token `t`'s list holds so far.
        let mut offsets = Vec::with_capacity(num_tokens + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &w in &words {
            total += w;
            offsets.push(total);
        }
        // Pass 2: write the runs.
        let mut arena = vec![0u32; total as usize];
        let mut cursor: Vec<u32> = offsets[..num_tokens].to_vec();
        last_seen.fill(NONE);
        for (tweet, tokens) in tweet_tokens.enumerate() {
            let tweet = tweet as u32;
            for &t in tokens {
                let last = last_seen[t as usize];
                if last == tweet {
                    continue;
                }
                let at = cursor[t as usize] as usize;
                if extends(last, tweet) {
                    arena[at - 1] += 1;
                } else {
                    arena[at] = tweet;
                    arena[at + 1] = 1;
                    cursor[t as usize] += 2;
                }
                last_seen[t as usize] = tweet;
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
        let mut arena: Vec<u32> = Vec::new();
        let mut token_start = 0u32;
        let mut consumed = 0u64; // arena words already assigned to finished shards
        for token in 0..num_tokens as u32 {
            let list = self.postings(token).runs().as_flattened();
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

    /// The posting list of `token`.
    pub fn postings(&self, token: TokenId) -> Postings<'_> {
        // Single-shard is the overwhelmingly common in-process layout;
        // skip the boundary search entirely there.
        if self.shards.len() == 1 {
            return self.shards[0].postings(token);
        }
        self.shards[self.shard_of(token)].postings(token)
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

/// Check that the words of one list are a canonical run list: whole
/// `[start, len]` pairs, every run non-empty and inside the `u32` id
/// space, each starting past the end of the one before with at least one
/// id between them.
pub fn check_runs(words: &[u32]) -> Result<(), String> {
    let (runs, rest) = words.as_chunks::<2>();
    if !rest.is_empty() {
        return Err("posting run cut off at the end of its list".to_string());
    }
    let mut prev_end: Option<u64> = None;
    for &run in runs {
        let (start, run_end) = (u64::from(run[0]), end(run));
        if run[1] == 0 {
            return Err("empty posting run".to_string());
        }
        if run_end > 1 << 32 {
            return Err("posting run past the u32 id space".to_string());
        }
        match prev_end {
            Some(prev) if start < prev => {
                return Err("posting runs out of order or overlapping".to_string())
            }
            Some(prev) if start == prev => {
                return Err("touching posting runs not coalesced".to_string())
            }
            _ => {}
        }
        prev_end = Some(run_end);
    }
    Ok(())
}

/// Append `run` to the ascending run list `runs`, merging it into the
/// last run when the two overlap or touch. `run` must not start before
/// the last run does.
pub(crate) fn push_run(runs: &mut Vec<Run>, run: Run) {
    if let Some(last) = runs.last_mut() {
        let last_end = end(*last);
        if u64::from(run[0]) <= last_end {
            // Within the id space, so the merged length fits a `u32`
            // unless one run were to cover all 2^32 ids.
            last[1] = (last_end.max(end(run)) - u64::from(last[0])) as u32;
            return;
        }
    }
    runs.push(run);
}

/// `base` followed by `delta` into `out`, where every id of `delta` is
/// above every id of `base` (a base segment and the delta appended after
/// it): the two lists joined, their seam coalesced when the last base
/// run touches the first delta run.
pub fn concat_runs(base: &[Run], delta: &[Run], out: &mut Vec<Run>) {
    out.clear();
    out.extend_from_slice(base);
    if let Some((&first, rest)) = delta.split_first() {
        push_run(out, first);
        out.extend_from_slice(rest);
    }
}

/// The intersection of two canonical run lists, itself canonical: one
/// pass over both, each pair of overlapping runs contributing their
/// common part. Pieces cut from one run by the other's gaps keep those
/// gaps between them, so no two pieces touch.
pub fn intersect_runs(a: &[Run], b: &[Run]) -> Vec<Run> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        let (x_end, y_end) = (end(x), end(y));
        let lo = x[0].max(y[0]);
        let hi = x_end.min(y_end);
        if u64::from(lo) < hi {
            out.push([lo, (hi - u64::from(lo)) as u32]);
        }
        // The run that ends first cannot meet anything later in the
        // other list.
        i += usize::from(x_end <= y_end);
        j += usize::from(y_end <= x_end);
    }
    out
}

thread_local! {
    /// The union's bitmap, one bit per id of the range it covers. Kept
    /// all zero between unions (the read-back clears every word it
    /// reads), so a union neither allocates nor clears it.
    static UNION_BITS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The sorted, deduplicated ids in any of the canonical run lists
/// `lists`: the match set one query hands to ranking.
///
/// The runs are OR-ed into a bitmap over the id range the lists cover
/// (each run sets its bits a word at a time), and the ids are read back
/// in order, a full word as one range. The bitmap costs a word per 64
/// ids of that range, so when the range holds fewer than 64 ids per
/// posting (a few ids spread thin) the runs are sorted and merged
/// instead. One list is expanded as it is.
pub fn union_runs(lists: &[&[Run]]) -> Vec<TweetId> {
    let mut nonempty = lists.iter().copied().filter(|list| !list.is_empty());
    let (Some(first), second) = (nonempty.next(), nonempty.next()) else {
        return Vec::new();
    };
    let Some(second) = second else {
        return Postings { runs: first }.to_vec();
    };
    let (mut lo, mut hi, mut postings) = (u64::MAX, 0u64, 0usize);
    for list in [first, second].into_iter().chain(nonempty) {
        lo = lo.min(u64::from(list[0][0]));
        hi = hi.max(end(list[list.len() - 1]));
        postings += Postings { runs: list }.len();
    }
    let words = (hi - lo).div_ceil(64) as usize;
    if words > postings {
        let mut runs: Vec<Run> = lists.iter().flat_map(|list| list.iter().copied()).collect();
        runs.sort_unstable_by_key(|&[start, _]| start);
        let mut merged = Vec::with_capacity(runs.len());
        for run in runs {
            push_run(&mut merged, run);
        }
        return Postings { runs: &merged }.to_vec();
    }
    UNION_BITS.with(|cell| {
        let mut bits = cell.take();
        if bits.len() < words {
            bits.resize(words, 0);
        }
        let bits_used = &mut bits[..words];
        for &[start, len] in lists.iter().flat_map(|list| list.iter()) {
            set_bits(bits_used, (u64::from(start) - lo) as usize, len as usize);
        }
        let mut ids = Vec::with_capacity(postings.min((hi - lo) as usize));
        for (i, word) in bits_used.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            // Every set bit is an id of some run, so it fits a `u32`.
            let base = (lo + 64 * i as u64) as TweetId;
            if w == u64::MAX {
                ids.extend(base..=base + 63);
                continue;
            }
            while w != 0 {
                ids.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
        cell.replace(bits);
        ids
    })
}

/// Set bits `from .. from + len` of `bits`.
fn set_bits(bits: &mut [u64], from: usize, len: usize) {
    let to = from + len;
    let (first, last) = (from / 64, (to - 1) / 64);
    let head = u64::MAX << (from % 64);
    let tail = u64::MAX >> (63 - (to - 1) % 64);
    if first == last {
        bits[first] |= head & tail;
        return;
    }
    bits[first] |= head;
    bits[first + 1..last].fill(u64::MAX);
    bits[last] |= tail;
}

/// Append the ids of `runs` to `ids`, ascending.
pub(crate) fn expand_into(runs: &[Run], ids: &mut Vec<TweetId>) {
    for &[start, len] in runs {
        // `len >= 1`, so the last id is `start + len - 1` and no end
        // past the id space is ever formed.
        ids.extend(start..=start + (len - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(list: Postings<'_>) -> Vec<TweetId> {
        list.to_vec()
    }

    /// The canonical run list of sorted, deduplicated `ids`.
    fn runs_of(ids: &[TweetId]) -> Vec<Run> {
        let mut runs = Vec::new();
        for &id in ids {
            push_run(&mut runs, [id, 1]);
        }
        runs
    }

    #[test]
    fn build_produces_sorted_deduped_lists() {
        // tweet 0: [0, 1, 0]  tweet 1: [1]  tweet 2: [0, 2]
        let tweets: Vec<Vec<TokenId>> = vec![vec![0, 1, 0], vec![1], vec![0, 2]];
        let idx = PostingsIndex::build(3, tweets.iter().map(|t| t.as_slice()));
        assert_eq!(ids(idx.postings(0)), [0, 2]);
        assert_eq!(idx.postings(1).runs(), [[0, 2]], "adjacent ids are one run");
        assert_eq!(ids(idx.postings(2)), [2]);
        assert_eq!(idx.postings(0).len(), 2, "len counts postings, not runs");
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
        let ok = PostingsShard::new(0, 2, vec![0, 2, 4], vec![5, 1, 7, 3]);
        assert!(ok.is_ok());
        let wrong_len = PostingsShard::new(0, 2, vec![0, 4], vec![5, 1, 7, 3]);
        assert!(wrong_len.is_err());
        let not_monotone = PostingsShard::new(0, 2, vec![0, 4, 2], vec![5, 1, 7, 3]);
        assert!(not_monotone.is_err());
        let cut_off = PostingsShard::new(0, 2, vec![0, 1, 4], vec![5, 1, 7, 3]);
        assert!(cut_off.is_err());
    }

    #[test]
    fn run_checks_name_each_defect() {
        let cases: [(&[u32], &str); 5] = [
            (&[5, 2, 3, 1], "out of order"),
            (&[5, 2, 6, 1], "overlapping"),
            (&[5, 2, 7, 1], "not coalesced"),
            (&[5, 0], "empty"),
            (&[u32::MAX, 2], "past the u32 id space"),
        ];
        for (words, want) in cases {
            let err = check_runs(words).unwrap_err();
            assert!(err.contains(want), "{words:?}: {err}");
        }
        assert!(check_runs(&[5, 2, 8, 1, u32::MAX, 1]).is_ok());
        assert!(check_runs(&[]).is_ok());
    }

    #[test]
    fn run_intersection_matches_id_intersection() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let mut list = |n: usize| {
                let mut l: Vec<TweetId> = (0..rng.gen_range(0..n)).map(|_| rng.gen_range(0..120)).collect();
                l.sort_unstable();
                l.dedup();
                l
            };
            let (a, b) = (list(8), list(100));
            let reference: Vec<TweetId> = a.iter().copied().filter(|id| b.contains(id)).collect();
            let (ra, rb) = (runs_of(&a), runs_of(&b));
            for (x, y) in [(&ra, &rb), (&rb, &ra)] {
                let both = intersect_runs(x, y);
                assert_eq!(both, runs_of(&reference), "canonical");
            }
        }
    }

    #[test]
    fn union_merges_and_dedups() {
        let (a, b, c) = (runs_of(&[1, 3, 5]), runs_of(&[2, 3, 6]), runs_of(&[5]));
        assert_eq!(union_runs(&[&a, &b, &c]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_runs(&[&a]), vec![1, 3, 5]);
        assert_eq!(union_runs(&[]), Vec::<TweetId>::new());
        assert_eq!(union_runs(&[&[], &[]]), Vec::<TweetId>::new());
        // Far apart: the sparse path.
        let far = runs_of(&[u32::MAX - 1]);
        assert_eq!(union_runs(&[&a, &far]), vec![1, 3, 5, u32::MAX - 1]);
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
            let runs: Vec<Vec<Run>> = lists.iter().map(|l| runs_of(l)).collect();
            let refs: Vec<&[Run]> = runs.iter().map(Vec::as_slice).collect();
            let mut reference: Vec<TweetId> = lists.concat();
            reference.sort_unstable();
            reference.dedup();
            assert_eq!(union_runs(&refs), reference);
        }
    }
}
