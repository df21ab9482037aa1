//! Property-based proof of the batch planner's bit-identity contract:
//! for random query batches × shard counts × worker counts,
//! [`Esharp::search_batch`] must produce, per query, exactly the
//! experts AND exactly the cache-visible rendered body that issuing the
//! queries one at a time through [`Esharp::search`] produces. The batch
//! path shares posting-list traversals across queries (a per-batch
//! term→postings memo) — sharing must never change an answer.
//!
//! The second property is the entry-point table: every public search
//! and match entry point is a wrapper over one executor per layer, so
//! for the same query they must all agree — with each other and with an
//! oracle that shares none of that code (per-term `match_query`, sort,
//! dedup, then the detector's HashMap reference ranking).

use esharp_core::{DomainCollection, Esharp, EsharpConfig, PalCountsRetriever, SearchOutcome};
use esharp_expert::Detector;
use esharp_fault::Budget;
use esharp_microblog::{generate_corpus, BoundedSearch, Corpus, CorpusConfig, TokenId, TweetId};
use esharp_querylog::{World, WorldConfig};
use esharp_serve::server::render_search_body;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const SHARD_CHOICES: [usize; 3] = [1, 2, 4];

type Fixture = Arc<(Corpus, DomainCollection, Vec<String>)>;

/// Corpus + domain collection + query pool, cached per corpus seed and
/// shard count (corpus generation dominates the cases).
fn fixture(seed: u64, shards: usize) -> Fixture {
    static CACHE: OnceLock<Mutex<HashMap<(u64, usize), Fixture>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("fixture lock");
    Arc::clone(cache.entry((seed, shards)).or_insert_with(|| {
        let world = World::generate(&WorldConfig::tiny(21));
        let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(seed));
        corpus.reshard(shards);
        // Domain groups built from real corpus tokens so expansion fans
        // out, with overlap across groups' queries: shared terms are
        // exactly what the batch memo deduplicates.
        let tokens: Vec<String> = (0..corpus.num_tokens().min(12))
            .map(|id| corpus.token_text(id as TokenId).to_string())
            .collect();
        let mid = tokens.len() / 2;
        let domains = DomainCollection::from_groups(vec![
            tokens[..mid].to_vec(),
            tokens[mid..].to_vec(),
        ]);
        // Query pool: every domain token (expansion-heavy), plus terms
        // that miss the collection (lone-term expansion) and the index.
        let mut pool = tokens;
        pool.push("zzz-not-in-the-collection".to_string());
        pool.push("UPPER case Query".to_string());
        pool.push(String::new());
        Arc::new((corpus, domains, pool))
    }))
}

/// What two entry points must agree on: the outcome minus its timings,
/// and the body bytes a client would see (epochs held fixed).
fn view(
    corpus: &Corpus,
    query: &str,
    outcome: &SearchOutcome,
) -> (String, Vec<String>, usize, Vec<u8>) {
    (
        format!("{:?}", outcome.experts),
        outcome.expansion.clone(),
        outcome.matched_tweets,
        render_search_body(corpus, query, 7, 3, outcome),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_is_bit_identical_to_sequential_singles(
        shard_choice in 0..SHARD_CHOICES.len(),
        workers in 1..=4usize,
        picks in proptest::collection::vec(0..15usize, 1..12),
    ) {
        let fixture = fixture(7, SHARD_CHOICES[shard_choice]);
        let (corpus, domains, pool) = &*fixture;
        let mut config = EsharpConfig::tiny();
        config.search_workers = workers;
        let esharp = Esharp::new(domains.clone(), config);

        let queries: Vec<&str> = picks
            .iter()
            .map(|&i| pool[i % pool.len()].as_str())
            .collect();

        let batch = esharp.search_batch(corpus, &queries);
        prop_assert_eq!(batch.len(), queries.len());
        for (i, (query, batched)) in queries.iter().zip(&batch).enumerate() {
            let single = esharp.search(corpus, query);
            prop_assert_eq!(
                &single.experts,
                &batched.experts,
                "experts diverged for query {} ({:?})",
                i,
                query
            );
            prop_assert_eq!(&single.expansion, &batched.expansion);
            prop_assert_eq!(single.matched_tweets, batched.matched_tweets);
            // The cache-visible body — what a client would actually see —
            // must be byte-identical, epochs held fixed.
            let single_body = render_search_body(corpus, query, 7, 3, &single);
            let batched_body = render_search_body(corpus, query, 7, 3, batched);
            prop_assert_eq!(
                single_body,
                batched_body,
                "rendered bodies diverged for query {} ({:?})",
                i,
                query
            );
        }
    }

    #[test]
    fn every_entry_point_agrees_with_every_other_and_with_the_oracle(
        seed in 7..10u64,
        shard_choice in 0..SHARD_CHOICES.len(),
        parallel in any::<bool>(),
        picks in proptest::collection::vec(0..15usize, 1..8),
    ) {
        let fixture = fixture(seed, SHARD_CHOICES[shard_choice]);
        let (corpus, domains, pool) = &*fixture;
        let workers = if parallel { 3 } else { 1 };
        let mut config = EsharpConfig::tiny();
        config.search_workers = workers;
        let esharp = Esharp::new(domains.clone(), config.clone());
        let retriever = PalCountsRetriever::new(config.detector.clone());
        let detector = Detector::new(corpus, config.detector.clone());
        config.expansion = false;
        let unexpanded = Esharp::new(domains.clone(), config);

        let queries: Vec<&str> = picks
            .iter()
            .map(|&i| pool[i % pool.len()].as_str())
            .collect();
        let all = esharp.search_batch(corpus, &queries);
        prop_assert_eq!(all.len(), queries.len());
        let budget = Budget::wall(std::time::Duration::from_secs(3600));
        let unexpired = BoundedSearch::new(&budget);

        for (query, batched) in queries.iter().zip(&all) {
            let expected = view(corpus, query, &esharp.search(corpus, query));
            let bounded = esharp.search_bounded(corpus, query, &unexpired);
            prop_assert!(bounded.partial.is_none());
            for (entry, outcome) in [
                ("search_with", esharp.search_with(corpus, query, &retriever)),
                ("search_batch(&[q])", esharp.search_batch(corpus, &[query]).remove(0)),
                ("search_batch(all)[i]", batched.clone()),
                ("search_bounded", bounded),
            ] {
                prop_assert_eq!(&view(corpus, query, &outcome), &expected, "{} on {:?}", entry, query);
            }
            prop_assert_eq!(
                view(corpus, query, &unexpanded.search_baseline(corpus, query)),
                view(corpus, query, &unexpanded.search(corpus, query)),
                "search_baseline on {:?}",
                query
            );

            // The match layer, against per-term matching it shares no
            // code with; then the rank layer against its reference.
            let terms = &batched.expansion;
            let mut oracle: Vec<TweetId> =
                terms.iter().flat_map(|term| corpus.match_query(term)).collect();
            oracle.sort_unstable();
            oracle.dedup();
            prop_assert_eq!(&corpus.match_terms_with(terms, workers), &oracle);
            prop_assert_eq!(
                &corpus.match_terms_batch_with(std::slice::from_ref(terms), workers)[0],
                &oracle
            );
            let outcome = corpus.match_terms_bounded(terms, workers, &unexpired);
            prop_assert!(!outcome.is_partial());
            prop_assert_eq!(&outcome.matched, &oracle);
            prop_assert_eq!(&batched.experts, &detector.rank_candidates_reference(&oracle));
        }
    }
}
