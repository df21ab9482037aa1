//! Metamorphic relations: answers that must not move, checked without a
//! model. Each relation rebuilds or re-cuts a corpus in a way the
//! paper's design says cannot change an answer (candidates are counted
//! with integers and swept in user order, and shards are token ranges),
//! then demands the same expansion, match count, top-k users and score
//! bits for every query, expanded (e#) and plain (Pal & Counts):
//!
//! * **tweet-id permutation** — rebuilding the corpus from a seeded
//!   shuffle of the same tweets;
//! * **shard count** — `reshard(k)` for k ∈ {1, 2, 3, 5};
//! * **irrelevant growth** — appending, for one query, tweets that no
//!   term of its expansion matches, written by users who are not
//!   candidates for it and naming (mentioning, retweeting) only such
//!   users, so no candidate's counts or totals can move;
//! * **duplicate domain member** — every mined domain repeating one of
//!   its members right after it, as written or in upper case, so the
//!   expansion a query gets (its terms and their order, under the cap)
//!   cannot change.
//!
//! All four run over the Tiny testbed and over corpora generated from its
//! world at proptest-chosen seeds. The queries are every term of the
//! world, so every mined domain is expanded. `scripts/tier1.sh` runs
//! this suite in release as well as in the debug test pass.

use esharp_core::{DomainCollection, Esharp, SearchOutcome};
use esharp_eval::{EvalScale, Testbed};
use esharp_microblog::{generate_corpus, Corpus, CorpusConfig, Tweet, TweetId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The shard counts the shard relation cuts every corpus into.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 5];

/// The Tiny testbed at the `repro` binary's default seed, built once.
fn testbed() -> &'static Testbed {
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(|| Testbed::build(EvalScale::Tiny, 2016))
}

/// The testbed's online system, fanning out over two workers so that a
/// sharded corpus is matched shard by shard in parallel.
fn esharp() -> &'static Esharp {
    static ES: OnceLock<Esharp> = OnceLock::new();
    ES.get_or_init(|| {
        let tb = testbed();
        let mut config = tb.config.clone();
        config.search_workers = 2;
        Esharp::new(tb.esharp.domains().clone(), config)
    })
}

/// Every term of the testbed world, in term order.
fn queries() -> Vec<&'static str> {
    let world = &testbed().world;
    (0..world.terms.len())
        .map(|t| world.term_text(t as _))
        .collect()
}

/// What a relation must keep: expansion, match count, and the ranked
/// users with their score bits.
type Answer = (Vec<String>, usize, Vec<(UserId, u64)>);

fn answer(outcome: SearchOutcome) -> Answer {
    let experts = outcome
        .experts
        .iter()
        .map(|e| (e.user, e.score.to_bits()))
        .collect();
    (outcome.expansion, outcome.matched_tweets, experts)
}

/// The e# and the plain answer of every query on `corpus`.
fn answers(corpus: &Corpus) -> Vec<(Answer, Answer)> {
    answers_of(esharp(), corpus)
}

/// [`answers`] from `esharp`.
fn answers_of(esharp: &Esharp, corpus: &Corpus) -> Vec<(Answer, Answer)> {
    queries()
        .into_iter()
        .map(|q| {
            (
                answer(esharp.search(corpus, q)),
                answer(esharp.search_baseline(corpus, q)),
            )
        })
        .collect()
}

/// The same users and tweets, rebuilt from the tweets in a seeded
/// random order (ids renumbered to the new positions).
fn shuffled(corpus: &Corpus, seed: u64) -> Corpus {
    let mut tweets = corpus.tweets().to_vec();
    tweets.shuffle(&mut StdRng::seed_from_u64(seed));
    for (id, tweet) in tweets.iter_mut().enumerate() {
        tweet.id = id as TweetId;
    }
    Corpus::new(corpus.users().to_vec(), tweets)
}

fn resharded(corpus: &Corpus, k: usize) -> Corpus {
    let mut corpus = corpus.clone();
    corpus.reshard(k);
    corpus
}

/// `corpus` grown by tweets irrelevant to a query whose e# and plain
/// expansions together are `terms`: every user that no tweet matching
/// one of `terms` names (as author, mention or retweeted author) writes
/// one tweet of words no query uses, mentioning the next such user and,
/// every other tweet, retweeting the one after. `None` when fewer than
/// three users are outside the candidates.
fn grown(corpus: &Corpus, terms: &[&String]) -> Option<Corpus> {
    let users = corpus.users();
    let mut candidate = vec![false; users.len()];
    for term in terms {
        for id in corpus.match_query(term) {
            let tweet = corpus.tweet(id);
            let named = tweet.mentions.iter().chain(&tweet.retweet_of);
            for &user in std::iter::once(&tweet.author).chain(named) {
                candidate[user as usize] = true;
            }
        }
    }
    let outsiders: Vec<&str> = users
        .iter()
        .filter(|u| !candidate[u.id as usize])
        .map(|u| u.handle.as_str())
        .collect();
    if outsiders.len() < 3 {
        return None;
    }
    let by_handle: HashMap<&str, UserId> =
        users.iter().map(|u| (u.handle.as_str(), u.id)).collect();
    let mut tweets = corpus.tweets().to_vec();
    for (i, &author) in outsiders.iter().enumerate() {
        let named = outsiders[(i + 1) % outsiders.len()];
        let retweeted = outsiders[(i + 2) % outsiders.len()];
        let text = if i % 2 == 0 {
            format!("rt @{retweeted} unrelatedgrowth{i} quux @{named}")
        } else {
            format!("unrelatedgrowth{i} quux @{named}")
        };
        let id = tweets.len() as TweetId;
        let tweet = Tweet::parse(id, by_handle[author], text, |h| by_handle.get(h).copied());
        tweets.push(tweet);
    }
    Some(Corpus::new(users.to_vec(), tweets))
}

/// The irrelevant-growth relation: each query's answers on `corpus`
/// grown for it are its answers on `corpus`.
fn assert_growth_relation(corpus: &Corpus) {
    let esharp = esharp();
    let expected = answers(corpus);
    let mut grown_queries = 0;
    for (query, want) in queries().into_iter().zip(&expected) {
        let terms: Vec<&String> = want.0 .0.iter().chain(&want.1 .0).collect();
        let Some(bigger) = grown(corpus, &terms) else {
            continue;
        };
        // The relation's premise, checked apart from the answers: no
        // term of either expansion matches a grown tweet.
        for term in &terms {
            assert_eq!(
                bigger.match_query(term).len(),
                corpus.match_query(term).len(),
                "irrelevant growth for {query:?}: a grown tweet matches {term:?}"
            );
        }
        let got = (
            answer(esharp.search(&bigger, query)),
            answer(esharp.search_baseline(&bigger, query)),
        );
        let moved = |kind| format!("irrelevant growth: {kind} answer to {query:?} moved");
        assert_eq!(want.0, got.0, "{}", moved("e#"));
        assert_eq!(want.1, got.1, "{}", moved("plain"));
        grown_queries += 1;
    }
    assert!(
        grown_queries * 2 >= expected.len(),
        "only {grown_queries} of {} queries leave users outside their candidates",
        expected.len()
    );
}

/// Assert the permutation and shard relations on `corpus`, shuffling
/// with `shuffle_seed`.
fn assert_relations(corpus: &Corpus, shuffle_seed: u64) {
    let expected = answers(corpus);
    let ranked = expected.iter().filter(|(e, _)| !e.2.is_empty()).count();
    assert!(
        ranked * 4 >= expected.len(),
        "only {ranked} of {} queries rank anyone: the relations would be vacuous",
        expected.len()
    );

    let permuted = shuffled(corpus, shuffle_seed);
    assert!(
        permuted
            .tweets()
            .iter()
            .zip(corpus.tweets())
            .any(|(a, b)| a.text != b.text),
        "the shuffle left every tweet in place"
    );
    compare(&expected, &answers(&permuted), "tweet-id permutation");

    for k in SHARD_COUNTS {
        let cut = resharded(corpus, k);
        compare(&expected, &answers(&cut), &format!("reshard({k})"));
    }
}

/// The testbed's online system over its domains with one member of
/// every domain repeated right after itself: domain `d` repeats its
/// member `d mod len`, in upper case for odd `d`.
fn esharp_with_duplicates() -> &'static Esharp {
    static ES: OnceLock<Esharp> = OnceLock::new();
    ES.get_or_init(|| {
        let base = esharp();
        let groups: Vec<Vec<String>> = base
            .domains()
            .domains()
            .iter()
            .enumerate()
            .map(|(d, members)| {
                let mut members = members.clone();
                let j = d % members.len();
                let repeat = if d % 2 == 1 {
                    members[j].to_uppercase()
                } else {
                    members[j].clone()
                };
                members.insert(j + 1, repeat);
                members
            })
            .collect();
        // The premise: every domain repeats a member, some in another case.
        let upper = |t: &String| *t != t.to_lowercase();
        assert!(groups.iter().any(|g| g.iter().any(upper)));
        Esharp::new(DomainCollection::from_groups(groups), base.config().clone())
    })
}

/// The duplicate-member relation: every query's answers on `corpus` are
/// the same with every domain repeating a member.
fn assert_duplicate_member_relation(corpus: &Corpus) {
    let with_duplicates = esharp_with_duplicates();
    let expected = answers(corpus);
    compare(&expected, &answers_of(with_duplicates, corpus), "duplicate domain member");
}

fn compare(expected: &[(Answer, Answer)], actual: &[(Answer, Answer)], relation: &str) {
    assert_eq!(expected.len(), actual.len());
    for (query, (want, got)) in queries().iter().zip(expected.iter().zip(actual)) {
        assert_eq!(want.0, got.0, "{relation}: e# answer to {query:?} moved");
        assert_eq!(want.1, got.1, "{relation}: plain answer to {query:?} moved");
    }
}

#[test]
fn tiny_testbed_answers_survive_permutation_and_resharding() {
    let tb = testbed();
    for shuffle_seed in [1, 2] {
        assert_relations(&tb.corpus, shuffle_seed);
    }
}

#[test]
fn tiny_testbed_answers_survive_irrelevant_growth() {
    assert_growth_relation(&testbed().corpus);
}

#[test]
fn tiny_testbed_answers_survive_duplicate_domain_members() {
    assert_duplicate_member_relation(&testbed().corpus);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_corpus_answers_survive_duplicate_domain_members(corpus_seed in any::<u64>()) {
        let corpus = generate_corpus(&testbed().world, &CorpusConfig::tiny(corpus_seed));
        assert_duplicate_member_relation(&corpus);
    }

    #[test]
    fn generated_corpus_answers_survive_permutation_and_resharding(
        corpus_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let corpus = generate_corpus(&testbed().world, &CorpusConfig::tiny(corpus_seed));
        assert_relations(&corpus, shuffle_seed);
    }

    #[test]
    fn generated_corpus_answers_survive_irrelevant_growth(corpus_seed in any::<u64>()) {
        let corpus = generate_corpus(&testbed().world, &CorpusConfig::tiny(corpus_seed));
        assert_growth_relation(&corpus);
    }
}
