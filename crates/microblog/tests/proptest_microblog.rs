//! Property-based tests of tokenization and query matching.

use esharp_microblog::tokenize::{matches_all, mentions, retweeted_handle, tokenize};
use esharp_microblog::{topic_order_reference, Corpus, Tweet, User};
use proptest::prelude::*;

/// The pre-interning index semantics: `String`-keyed posting lists built
/// by re-tokenizing every tweet, conjunctive match by pairwise
/// intersection, union by flatten + sort + dedup. The interned corpus
/// (token-id CSR run lists, run intersection, run-wise union) must
/// agree with this reference on every input.
fn string_keyed_postings(tweets: &[Tweet]) -> std::collections::HashMap<String, Vec<u32>> {
    let mut postings: std::collections::HashMap<String, Vec<u32>> = Default::default();
    for t in tweets {
        for token in tokenize(&t.text) {
            let list = postings.entry(token).or_default();
            if list.last() != Some(&t.id) {
                list.push(t.id);
            }
        }
    }
    postings
}

fn string_keyed_match(
    postings: &std::collections::HashMap<String, Vec<u32>>,
    term: &str,
) -> Vec<u32> {
    let tokens = tokenize(term);
    if tokens.is_empty() {
        return Vec::new();
    }
    let mut lists: Vec<&Vec<u32>> = Vec::new();
    for token in &tokens {
        match postings.get(token) {
            Some(list) => lists.push(list),
            None => return Vec::new(),
        }
    }
    lists.sort_by_key(|l| l.len());
    let mut result = lists[0].clone();
    for list in &lists[1..] {
        result.retain(|id| list.binary_search(id).is_ok());
    }
    result
}

/// Deterministic spot-check of the interned ↔ string-keyed agreement the
/// property below drives at scale (and a plain target for environments
/// where the property runner is unavailable).
#[test]
fn string_keyed_reference_agrees_on_fixed_corpus() {
    let users = vec![user(0, "u0")];
    let tweets: Vec<Tweet> = ["aa bb", "bb cc aa", "cc", "aa"]
        .iter()
        .enumerate()
        .map(|(i, t)| Tweet::parse(i as u32, 0, t.to_string(), |_| None))
        .collect();
    let corpus = Corpus::new(users, tweets);
    let postings = string_keyed_postings(corpus.tweets());
    for term in ["aa", "bb cc", "AA", "zz", "", "aa zz"] {
        assert_eq!(
            corpus.match_query(term),
            string_keyed_match(&postings, term),
            "term {term:?}"
        );
    }
    let terms: Vec<String> = ["aa bb", "cc", "Aa"].iter().map(|s| s.to_string()).collect();
    let mut union: Vec<u32> = terms
        .iter()
        .flat_map(|t| string_keyed_match(&postings, t))
        .collect();
    union.sort_unstable();
    union.dedup();
    assert_eq!(corpus.match_terms_with(&terms, 1), union);
}

/// Expansion-style term lists: `terms`, plus one variant per pick of the
/// term at `at` (modulo the list) inserted at `at`, so the postings
/// walk's subsumption sees every shape of overlap — a repeat, a
/// permutation, an upper-cased copy (the tokenizer fallback), strict
/// supersets, a sibling sharing one word, a word pair from the tweets, a
/// superset with an unknown word, an unknown word alone, and the empty
/// and punctuation-only terms that have no tokens at all. New words come
/// from `words` (the tweets' words in order), so the variants match.
fn with_variants(mut terms: Vec<String>, picks: &[(u8, usize)], words: &[String]) -> Vec<String> {
    let word = |i: usize| words[i % words.len()].as_str();
    for &(kind, at) in picks {
        let base = match terms.len() {
            0 => word(at).to_string(),
            n => terms[at % n].clone(),
        };
        let first = base.split(' ').next().unwrap_or_default().to_string();
        let variant = match kind {
            0 => base,
            1 => base.split(' ').rev().collect::<Vec<_>>().join(" "),
            2 => base.to_uppercase(),
            3 => format!("{base} {}", word(at)),
            4 => format!("{} {base}", word(at + 1)),
            5 => format!("{first} {}", word(at + 2)),
            6 => format!("{} {}", word(at), word(at + 1)),
            7 => format!("{base} zz"),
            8 => "zz".to_string(),
            9 => String::new(),
            10 => "!!".to_string(),
            _ => "#".to_string(),
        };
        terms.insert(at % (terms.len() + 1), variant);
    }
    terms
}

fn user(id: u32, handle: &str) -> User {
    User {
        id,
        handle: handle.to_string(),
        display_name: handle.to_string(),
        description: String::new(),
        followers: 0,
        verified: false,
        expert_domains: vec![],
        spam: false,
    }
}

proptest! {
    #[test]
    fn tokens_are_lowercase_and_nonempty(text in ".{0,120}") {
        for token in tokenize(&text) {
            prop_assert!(!token.is_empty());
            prop_assert_eq!(token.clone(), token.to_lowercase());
        }
    }

    #[test]
    fn tokenize_is_idempotent_on_its_own_output(text in "[a-zA-Z0-9#@ !,.]{0,80}") {
        let once = tokenize(&text);
        let again = tokenize(&once.join(" "));
        prop_assert_eq!(once, again);
    }

    #[test]
    fn every_tweet_matches_its_own_tokens(words in prop::collection::vec("[a-z0-9]{1,8}", 1..10)) {
        let text = words.join(" ");
        let tokens = tokenize(&text);
        for token in &tokens {
            prop_assert!(matches_all(&tokens, std::slice::from_ref(token)));
        }
        prop_assert!(matches_all(&tokens, &tokens));
    }

    #[test]
    fn mentions_subset_of_tokens(text in "[a-z@# ]{0,60}") {
        let tokens = tokenize(&text);
        let ms = mentions(&tokens);
        prop_assert!(ms.len() <= tokens.len());
        for m in ms {
            prop_assert!(!m.contains('@'));
        }
        // retweeted_handle only fires on rt-prefixed streams.
        if retweeted_handle(&tokens).is_some() {
            prop_assert_eq!(tokens[0].as_str(), "rt");
        }
    }

    #[test]
    fn corpus_matching_agrees_with_linear_scan(
        tweet_words in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 1..6), 1..20),
        query_words in prop::collection::vec("[a-d]{1,2}", 1..3),
    ) {
        let users = vec![user(0, "u0")];
        let tweets: Vec<Tweet> = tweet_words
            .iter()
            .enumerate()
            .map(|(i, words)| Tweet::parse(i as u32, 0, words.join(" "), |_| None))
            .collect();
        let corpus = Corpus::new(users, tweets);
        let query = query_words.join(" ");
        let via_index = corpus.match_query(&query);
        let query_tokens = tokenize(&query);
        // The scan reads the corpus's own tweet table: it assigns the ids.
        let via_scan: Vec<u32> = corpus
            .tweets()
            .iter()
            .filter(|t| matches_all(&tokenize(&t.text), &query_tokens))
            .map(|t| t.id)
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn match_terms_agrees_with_per_term_union(
        tweet_words in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 1..6), 1..20),
        terms in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 1..3), 0..4),
        picks in prop::collection::vec((0u8..12, 0usize..64), 0..8),
    ) {
        let users = vec![user(0, "u0")];
        let tweets: Vec<Tweet> = tweet_words
            .iter()
            .enumerate()
            .map(|(i, words)| Tweet::parse(i as u32, 0, words.join(" "), |_| None))
            .collect();
        let corpus = Corpus::new(users, tweets);
        let words: Vec<String> = tweet_words.concat();
        let terms = with_variants(terms.iter().map(|w| w.join(" ")).collect(), &picks, &words);
        let mut reference: Vec<u32> = terms
            .iter()
            .flat_map(|t| corpus.match_query(t))
            .collect();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(corpus.match_terms_with(&terms, 1), reference);
    }

    #[test]
    fn interned_matching_agrees_with_string_keyed_reference(
        tweet_words in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 1..6), 1..24),
        terms in prop::collection::vec(
            prop::collection::vec("[a-dA-D]{1,2}", 1..3), 0..5),
        picks in prop::collection::vec((0u8..12, 0usize..64), 0..8),
    ) {
        let users = vec![user(0, "u0")];
        let tweets: Vec<Tweet> = tweet_words
            .iter()
            .enumerate()
            .map(|(i, words)| Tweet::parse(i as u32, 0, words.join(" "), |_| None))
            .collect();
        let corpus = Corpus::new(users, tweets);
        // The reference indexes the corpus's own tweet table: it assigns
        // the ids.
        let postings = string_keyed_postings(corpus.tweets());
        let words: Vec<String> = tweet_words.concat();
        let terms = with_variants(terms.iter().map(|w| w.join(" ")).collect(), &picks, &words);

        // Per-term conjunctive matches agree (mixed-case terms exercise
        // both the normalized fast path and the tokenizer fallback) …
        for term in &terms {
            prop_assert_eq!(
                corpus.match_query(term),
                string_keyed_match(&postings, term),
                "term {:?}",
                term
            );
        }
        // … and so does the expansion union over all terms.
        let mut union: Vec<u32> = terms
            .iter()
            .flat_map(|t| string_keyed_match(&postings, t))
            .collect();
        union.sort_unstable();
        union.dedup();
        prop_assert_eq!(corpus.match_terms_with(&terms, 1), union);
    }

    #[test]
    fn build_assigns_ids_in_the_reference_topic_order(
        tweet_words in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 0..5), 1..24),
        authors in prop::collection::vec(0u32..3, 24),
    ) {
        let users = vec![user(0, "u0"), user(1, "u1"), user(2, "u2")];
        let input: Vec<(u32, String)> = tweet_words
            .iter()
            .zip(&authors)
            .map(|(words, &author)| (author, words.join(" ")))
            .collect();
        let tweets: Vec<Tweet> = input
            .iter()
            .enumerate()
            .map(|(i, (author, text))| Tweet::parse(i as u32, *author, text.clone(), |_| None))
            .collect();
        let corpus = Corpus::new(users, tweets);
        let keyed: Vec<(u32, &str)> = input.iter().map(|(a, t)| (*a, t.as_str())).collect();
        let expected: Vec<(u32, &str)> = topic_order_reference(&keyed)
            .into_iter()
            .map(|i| keyed[i])
            .collect();
        let built: Vec<(u32, &str)> = corpus
            .tweets()
            .iter()
            .map(|t| (t.author, t.text.as_str()))
            .collect();
        prop_assert_eq!(built, expected);
    }
}
