//! Tweet-id order: the topic order a corpus build assigns ids in, and
//! its plain string-keyed reference.
//!
//! A build (`CorpusBuilder::finish`, and compaction, which rebuilds the
//! survivors) sorts the input tweets by [`topic_order`] and hands out ids
//! in that order. Answers do not depend on it — candidates are counted
//! with integers and swept in user order — but the cost of a query does:
//! its matches and the columns ranking reads for them are contiguous
//! instead of scattered over the corpus (DESIGN.md, "Tweet-id order").

use crate::tokenize::tokenize;
use crate::types::{TokenId, UserId};
use std::collections::{BTreeSet, HashMap};

/// The topic order of a tweet sequence (`authors[i]` wrote input tweet
/// `i`): input positions sorted by each
/// tweet's rarest token — least document frequency, ties by token text —
/// then by its second-rarest distinct token, then by author, then by
/// input position. A missing token sorts after every token, so a tweet
/// with one distinct token follows the others of its run, and tweets
/// without tokens go last.
///
/// Tweets that share a rare token (a topic word a query names) become
/// one run of adjacent ids, and the second token splits each run by
/// subtopic, so a query's matches, and the author / retweet / mention
/// columns rank gathers for them, are read in a few sequential sweeps
/// instead of scattered over the corpus.
pub(crate) fn topic_order(
    authors: &[UserId],
    texts: &[Box<str>],
    token_offsets: &[u32],
    token_ids: &[TokenId],
) -> Vec<u32> {
    let tokens_of = |i: usize| &token_ids[token_offsets[i] as usize..token_offsets[i + 1] as usize];
    // Document frequency, each tweet counted once per token: until the
    // tokens are ranked, `rank[t]` holds the last tweet that counted `t`.
    let mut df = vec![0u32; texts.len()];
    let mut rank = vec![u32::MAX; texts.len()];
    for i in 0..authors.len() {
        for &t in tokens_of(i) {
            if rank[t as usize] != i as u32 {
                rank[t as usize] = i as u32;
                df[t as usize] += 1;
            }
        }
    }
    // Rank tokens by (df, text): a total order the input numbering of
    // tokens does not enter.
    let mut by_rarity: Vec<TokenId> = (0..texts.len() as TokenId).collect();
    by_rarity.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        df[a].cmp(&df[b]).then_with(|| texts[a].cmp(&texts[b]))
    });
    for (r, &t) in by_rarity.iter().enumerate() {
        rank[t as usize] = r as u32;
    }
    let mut keys: Vec<u128> = authors
        .iter()
        .enumerate()
        .map(|(i, &author)| {
            // The two least ranks among the tweet's distinct tokens.
            let (mut first, mut second) = (u32::MAX, u32::MAX);
            for &t in tokens_of(i) {
                let r = rank[t as usize];
                if r < first {
                    second = first;
                    first = r;
                } else if r > first && r < second {
                    second = r;
                }
            }
            (u128::from(first) << 96)
                | (u128::from(second) << 64)
                | (u128::from(author) << 32)
                | i as u128
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u32).collect()
}

/// The topic order computed the plain way, over token strings: the
/// reference the build's integer-keyed order is property-tested against,
/// and the model by which tests that mirror a corpus renumber their
/// mirror at each compaction. `tweets` holds `(author, text)` in input
/// order; the result lists input positions in the order a corpus built
/// from them assigns ids.
pub fn topic_order_reference(tweets: &[(UserId, &str)]) -> Vec<usize> {
    let tokens: Vec<BTreeSet<String>> = tweets
        .iter()
        .map(|(_, text)| tokenize(text).into_iter().collect())
        .collect();
    let mut df: HashMap<&str, usize> = HashMap::new();
    for token in tokens.iter().flatten() {
        *df.entry(token.as_str()).or_insert(0) += 1;
    }
    // The rarest and the second-rarest token, each as (missing, df,
    // text): a missing token sorts last.
    let key = |i: usize| {
        let mut ranked: Vec<(usize, &str)> = tokens[i]
            .iter()
            .map(|t| (df.get(t.as_str()).copied().unwrap_or(0), t.as_str()))
            .collect();
        ranked.sort_unstable();
        let at = |k: usize| ranked.get(k).map_or((true, 0, ""), |&(df, t)| (false, df, t));
        (at(0), at(1))
    };
    let mut order: Vec<usize> = (0..tweets.len()).collect();
    order.sort_by_key(|&i| (key(i), tweets[i].0, i));
    order
}
