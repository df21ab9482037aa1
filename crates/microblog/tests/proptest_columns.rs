//! The columns are the corpus's only tweet table, so they are checked
//! against a model that shares none of their arrays: a plain
//! `Vec<Tweet>` in id order with a deleted flag per tweet, to which every
//! add_user, append and delete is applied too. Compaction renumbers the
//! model's survivors by `topic_order_reference`. After every step, and
//! after each save/load, compaction and reshard, the materialized tweets,
//! `text(id)`, the columns and the per-user totals must equal what the
//! model says.

use esharp_microblog::{topic_order_reference, Corpus, Tweet, User, UserTotals, NO_RETWEET};
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

/// The corpus as it should be: its users, and its tweets in id order,
/// each with whether it is deleted.
struct Model {
    users: u32,
    tweets: Vec<(Tweet, bool)>,
}

impl Model {
    fn parse(&self, author: u32, text: &str) -> Tweet {
        let users = self.users;
        let resolve = |h: &str| {
            h.strip_prefix('u')?
                .parse()
                .ok()
                .filter(|&u: &u32| u < users)
        };
        Tweet::parse(self.tweets.len() as u32, author, text, resolve)
    }

    /// Drop the deleted tweets and renumber the rest in topic order, as
    /// compaction does.
    fn compact(&mut self) {
        let live: Vec<Tweet> = self
            .tweets
            .drain(..)
            .filter(|(_, deleted)| !deleted)
            .map(|(t, _)| t)
            .collect();
        let keyed: Vec<(u32, &str)> = live.iter().map(|t| (t.author, t.text.as_str())).collect();
        let order = topic_order_reference(&keyed);
        for (id, i) in order.into_iter().enumerate() {
            let mut tweet = live[i].clone();
            tweet.id = id as u32;
            self.tweets.push((tweet, false));
        }
    }

    fn totals(&self) -> Vec<UserTotals> {
        let mut totals = vec![UserTotals::default(); self.users as usize];
        for (tweet, _) in self.tweets.iter().filter(|(_, deleted)| !deleted) {
            totals[tweet.author as usize].tweets += 1;
            for &mentioned in &tweet.mentions {
                totals[mentioned as usize].mentions += 1;
            }
            if let Some(original) = tweet.retweet_of {
                totals[original as usize].retweets += 1;
            }
        }
        totals
    }
}

fn assert_corpus_matches_model(corpus: &Corpus, model: &Model, after: &str) {
    assert_eq!(corpus.users().len(), model.users as usize, "{after}");
    assert_eq!(corpus.tweet_count(), model.tweets.len(), "{after}");
    let materialized = corpus.tweets();
    assert_eq!(materialized.len(), model.tweets.len(), "{after}");
    for (t, ((want, deleted), got)) in model.tweets.iter().zip(&materialized).enumerate() {
        let id = t as u32;
        assert_eq!(corpus.is_deleted(id), *deleted, "{after}: tombstone of {t}");
        for tweet in [got, &corpus.tweet(id)] {
            assert_eq!(
                (
                    tweet.id,
                    tweet.author,
                    &tweet.text,
                    &tweet.mentions,
                    tweet.retweet_of
                ),
                (id, want.author, &want.text, &want.mentions, want.retweet_of),
                "{after}: tweet {t}"
            );
        }
        assert_eq!(corpus.text(id), want.text, "{after}: text of {t}");
        let columns = corpus.columns();
        assert_eq!(columns.text(id), want.text, "{after}: text column of {t}");
        assert_eq!(columns.author()[t], want.author, "{after}: author of {t}");
        assert_eq!(
            columns.retweet_of()[t],
            want.retweet_of.unwrap_or(NO_RETWEET),
            "{after}: retweet source of {t}"
        );
        assert_eq!(
            columns.mentions(id),
            &want.mentions[..],
            "{after}: mentions of {t}"
        );
    }

    let columns = corpus.columns();
    let texts: String = model.tweets.iter().map(|(t, _)| t.text.as_str()).collect();
    assert_eq!(columns.text_arena(), texts, "{after}: text arena");
    assert_eq!(
        columns.text_offsets().len(),
        model.tweets.len() + 1,
        "{after}"
    );
    let mentions: Vec<u32> = model
        .tweets
        .iter()
        .flat_map(|(t, _)| t.mentions.clone())
        .collect();
    assert_eq!(
        columns.mention_ids(),
        &mentions[..],
        "{after}: mention arena"
    );
    assert_eq!(
        columns.mention_offsets().len(),
        model.tweets.len() + 1,
        "{after}"
    );

    let totals = model.totals();
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
    assert_eq!(corpus.byte_size(), texts.len() as u64, "{after}: byte size");
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
        let mut model = Model { users: 5, tweets: Vec::new() };
        let mut tweets = Vec::new();
        for &(author, shape, other) in &base {
            let tweet = model.parse(author.into(), &text(shape, other));
            model.tweets.push((tweet.clone(), false));
            tweets.push(tweet);
        }
        let mut corpus = Corpus::new((0..5).map(user).collect(), tweets);
        // A build assigns ids in topic order, as compaction does.
        model.compact();
        assert_corpus_matches_model(&corpus, &model, "Corpus::new");

        let dir = scratch_dir();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let what = match op {
                0 => {
                    let handle = format!("u{}", model.users);
                    corpus.add_user(&handle, "", "", 0, false).unwrap();
                    model.users += 1;
                    "add_user"
                }
                1..=4 => {
                    let author = u32::from(a) % model.users;
                    let text = text(a, b);
                    let id = corpus.append_tweet(&format!("u{author}"), &text).unwrap();
                    let tweet = model.parse(author, &text);
                    prop_assert_eq!(id, tweet.id);
                    model.tweets.push((tweet, false));
                    "append_tweet"
                }
                5 | 6 => {
                    // Out of range or already deleted: an error, no change.
                    let id = u32::from(a) % 48;
                    let deletable = model.tweets.get(id as usize).is_some_and(|(_, d)| !d);
                    prop_assert_eq!(corpus.delete_tweet(id).is_ok(), deletable);
                    if deletable {
                        model.tweets[id as usize].1 = true;
                    }
                    "delete_tweet"
                }
                7 => {
                    corpus = corpus.compact();
                    model.compact();
                    "compact"
                }
                8 => {
                    corpus = corpus.compact();
                    model.compact();
                    let path = dir.join("corpus.bin");
                    corpus.save_binary(&path).unwrap();
                    corpus = Corpus::load(&path).unwrap();
                    "save_binary + load"
                }
                9 | 10 => {
                    corpus = corpus.compact();
                    model.compact();
                    let path = dir.join("sharded.bin");
                    corpus.save_sharded(&path, 1 + b as usize % 4).unwrap();
                    corpus = Corpus::load(&path).unwrap();
                    "save_sharded + load"
                }
                _ => {
                    corpus.reshard(1 + b as usize % 4);
                    "reshard"
                }
            };
            assert_corpus_matches_model(&corpus, &model, &format!("step {step}: {what}"));
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
