//! The rank-side columns are a second copy of what `Corpus::tweets()`
//! holds, so they must equal a fresh derivation from the tweet table and
//! the tombstones after every way a corpus can change or be rebuilt.

use esharp_microblog::segio::load_sharded;
use esharp_microblog::{Corpus, LoadMode, Tweet, User, UserTotals, NO_RETWEET};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

fn user(id: u32) -> User {
    User {
        id,
        handle: format!("u{id}"),
        display_name: String::new(),
        description: String::new(),
        followers: 0,
        verified: false,
        expert_domains: vec![],
        spam: false,
    }
}

/// Tweet text over a small vocabulary: plain, a retweet, a reply, or
/// two mentions (one of which may name nobody).
fn text(shape: u16, other: u16) -> String {
    let body = ["niners draft", "pasta tonight", "draft day", "niners"][(shape / 4 % 4) as usize];
    match shape % 4 {
        0 => body.to_string(),
        1 => format!("rt @u{other}: {body}"),
        2 => format!("@u{other} {body}"),
        _ => format!("{body} with @u{other} and @u{}", other.wrapping_mul(3) % 11),
    }
}

/// The columns, as the tweet table and the tombstones define them.
fn assert_columns_match_tweets(corpus: &Corpus, after: &str) {
    let columns = corpus.columns();
    let tweets = corpus.tweets();
    assert_eq!(columns.author().len(), tweets.len(), "{after}");
    assert_eq!(columns.retweet_of().len(), tweets.len(), "{after}");
    assert_eq!(columns.mention_offsets().len(), tweets.len() + 1, "{after}");
    assert_eq!(columns.mention_offsets()[0], 0, "{after}");
    assert_eq!(columns.totals().len(), corpus.users().len(), "{after}");

    let mut totals = vec![UserTotals::default(); corpus.users().len()];
    for (t, tweet) in tweets.iter().enumerate() {
        assert_eq!(tweet.id as usize, t, "{after}");
        assert_eq!(columns.author()[t], tweet.author, "{after}: author of {t}");
        assert_eq!(
            columns.retweet_of()[t],
            tweet.retweet_of.unwrap_or(NO_RETWEET),
            "{after}: retweet source of {t}"
        );
        assert_eq!(
            columns.mentions(tweet.id),
            &tweet.mentions[..],
            "{after}: mentions of {t}"
        );
        if corpus.is_deleted(tweet.id) {
            continue;
        }
        totals[tweet.author as usize].tweets += 1;
        for &mentioned in &tweet.mentions {
            totals[mentioned as usize].mentions += 1;
        }
        if let Some(original) = tweet.retweet_of {
            totals[original as usize].retweets += 1;
        }
    }
    assert_eq!(
        columns.mention_ids().len(),
        *columns.mention_offsets().last().unwrap() as usize,
        "{after}"
    );
    assert_eq!(columns.totals(), &totals[..], "{after}: packed totals");
    for (u, total) in totals.iter().enumerate() {
        let u = u as u32;
        assert_eq!(
            (
                corpus.tweets_by(u),
                corpus.mentions_of(u),
                corpus.retweets_of(u)
            ),
            (total.tweets, total.mentions, total.retweets),
            "{after}: totals of user {u}"
        );
    }
}

/// A directory of this test case's own (cases run on parallel threads).
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "esharp_columns_prop_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, SeqCst)
    ))
}

proptest! {
    #[test]
    fn columns_equal_the_tweet_table_under_every_mutation(
        base in prop::collection::vec((0u16..5, 0u16..64, 0u16..5), 0..12),
        ops in prop::collection::vec((0u8..12, 0u16..64, 0u16..11), 1..40),
    ) {
        let resolve = |h: &str| h.strip_prefix('u')?.parse().ok().filter(|&u: &u32| u < 5);
        let tweets: Vec<Tweet> = base
            .iter()
            .enumerate()
            .map(|(id, &(author, shape, other))| {
                Tweet::parse(id as u32, author.into(), text(shape, other), resolve)
            })
            .collect();
        let mut corpus = Corpus::new((0..5).map(user).collect(), tweets);
        assert_columns_match_tweets(&corpus, "Corpus::new");

        let dir = scratch_dir();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let what = match op {
                0 => {
                    let handle = format!("u{}", corpus.users().len());
                    corpus.add_user(&handle, "", "", 0, false).unwrap();
                    "add_user"
                }
                1..=4 => {
                    let author = format!("u{}", a as usize % corpus.users().len());
                    corpus.append_tweet(&author, &text(a, b)).unwrap();
                    "append_tweet"
                }
                5 | 6 => {
                    // Out of range or already deleted: an error, no change.
                    let _ = corpus.delete_tweet(u32::from(a) % 48);
                    "delete_tweet"
                }
                7 => {
                    corpus = corpus.compact();
                    "compact"
                }
                8 => {
                    corpus = corpus.compact();
                    let path = dir.join("corpus.bin");
                    corpus.save_binary(&path).unwrap();
                    corpus = Corpus::load(&path).unwrap();
                    "save_binary + load"
                }
                9 | 10 => {
                    corpus = corpus.compact();
                    let path = dir.join("sharded.bin");
                    corpus.save_sharded(&path, 1 + b as usize % 4).unwrap();
                    let mode = if op == 9 { LoadMode::Copy } else { LoadMode::ZeroCopy };
                    corpus = load_sharded(&path, mode).unwrap();
                    "save_sharded + load_sharded"
                }
                _ => {
                    corpus.reshard(1 + b as usize % 4);
                    "reshard"
                }
            };
            assert_columns_match_tweets(&corpus, &format!("step {step}: {what}"));
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
