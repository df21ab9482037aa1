//! The deterministic chaos matrix (ISSUE 8 acceptance): sweep
//! stall-at-every-shard × deadline × hedging on/off over the bounded
//! search path and assert every cell lands in exactly one of two legal
//! states — **complete and bit-identical** to the unbounded search, or
//! **correctly marked partial** with the exact absent-shard set. Never
//! silently wrong, never hung.
//!
//! Everything runs on a [`VirtualClock`]: stalls are virtual-tick
//! charges, not sleeps, so the whole matrix is clock-free, seed-stable,
//! and finishes in milliseconds. A hang would show up as this test not
//! returning — the join-everything scatter-gather model makes that
//! structurally impossible (stalled tasks abandon via charged ticks and
//! release waits; nothing blocks on a wall clock).

use esharp_core::{DomainCollection, Esharp, EsharpConfig, SearchOutcome};
use esharp_fault::{BreakerConfig, Budget, Fault, FaultPlan, ShardBreakers, VirtualClock};
use esharp_microblog::{generate_corpus, BoundedSearch, Corpus, CorpusConfig, TokenId};
use esharp_querylog::{World, WorldConfig};
use std::sync::Arc;

const SHARDS: usize = 4;

/// A sharded corpus plus an e# whose expansion of `query` spans every
/// shard — so a stall on any one shard is visible in the answer.
fn chaos_testbed() -> (Corpus, Esharp, String) {
    let world = World::generate(&WorldConfig::tiny(21));
    let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    corpus.reshard(SHARDS);

    // One term per shard, from the corpus's own vocabulary.
    let mut per_shard: Vec<Option<String>> = vec![None; SHARDS];
    for id in 0..corpus.num_tokens() {
        let token = corpus.token_text(id as TokenId).to_string();
        let shard = corpus.term_home_shard(&token);
        if per_shard[shard].is_none() {
            per_shard[shard] = Some(token);
        }
    }
    let terms: Vec<String> = per_shard
        .into_iter()
        .map(|t| t.expect("synthetic corpus must populate every shard"))
        .collect();
    let query = terms[0].clone();

    let mut config = EsharpConfig::tiny();
    config.search_workers = SHARDS;
    let esharp = Esharp::new(DomainCollection::from_groups(vec![terms]), config);
    (corpus, esharp, query)
}

/// The deterministic fields of an outcome — what the serve layer
/// renders into a body (timings are deliberately excluded there too).
fn deterministic_view(outcome: &SearchOutcome) -> (Vec<String>, usize, String) {
    (
        outcome.expansion.clone(),
        outcome.matched_tweets,
        format!("{:?}", outcome.experts),
    )
}

#[test]
fn chaos_matrix_stall_by_shard_by_deadline_by_hedging() {
    let (corpus, esharp, query) = chaos_testbed();
    let baseline = esharp.search(&corpus, &query);
    assert!(
        baseline.matched_tweets > 0,
        "the matrix is vacuous if the query matches nothing"
    );
    let full = deterministic_view(&baseline);

    for stalled in 0..SHARDS {
        for deadline_us in [5_000u64, 50_000, 1_000_000] {
            for hedge in [false, true] {
                let plan =
                    FaultPlan::new(1).stall_at(&format!("search:shard:{stalled}"));
                let budget =
                    Budget::with_clock(Arc::new(VirtualClock::new()), deadline_us);
                let mut ctx = BoundedSearch::new(&budget).with_chaos(&plan);
                if hedge {
                    // Hedge well inside every deadline in the sweep.
                    ctx = ctx.hedged(1_000);
                }
                let outcome = esharp.search_bounded(&corpus, &query, &ctx);
                let cell = format!(
                    "stalled={stalled} deadline_us={deadline_us} hedge={hedge}"
                );

                match &outcome.partial {
                    None => {
                        // Legal state 1: complete — then it must be
                        // bit-identical to the unbounded answer.
                        assert_eq!(
                            deterministic_view(&outcome),
                            full,
                            "complete answer diverged from baseline [{cell}]"
                        );
                        assert!(
                            hedge,
                            "a stalled primary can only complete via a hedge [{cell}]"
                        );
                        assert!(
                            outcome.hedge_wins >= 1,
                            "completion under a stall implies a hedge win [{cell}]"
                        );
                    }
                    Some(partial) => {
                        // Legal state 2: partial — the marker must name
                        // exactly the stalled shard, and the answer must
                        // be a subset of the full one (never wrong).
                        assert_eq!(
                            partial.shards_missing,
                            vec![stalled],
                            "wrong missing set [{cell}]"
                        );
                        assert!(partial.shards_skipped.is_empty(), "[{cell}]");
                        assert!(
                            outcome.matched_tweets <= baseline.matched_tweets,
                            "partial answer matched more than the full one [{cell}]"
                        );
                        assert_eq!(outcome.expansion, baseline.expansion, "[{cell}]");
                    }
                }
            }
        }
    }
}

#[test]
fn no_chaos_is_bit_identical_at_every_deadline() {
    let (corpus, esharp, query) = chaos_testbed();
    let full = deterministic_view(&esharp.search(&corpus, &query));
    for deadline_us in [5_000u64, 1_000_000] {
        for hedge in [false, true] {
            let budget = Budget::with_clock(Arc::new(VirtualClock::new()), deadline_us);
            let mut ctx = BoundedSearch::new(&budget);
            if hedge {
                ctx = ctx.hedged(1_000);
            }
            let outcome = esharp.search_bounded(&corpus, &query, &ctx);
            assert!(outcome.partial.is_none());
            assert_eq!(outcome.hedges, 0, "no straggler, no hedge");
            assert_eq!(deterministic_view(&outcome), full);
        }
    }
}

#[test]
fn breaker_arc_is_visible_in_search_outcomes() {
    let (corpus, esharp, query) = chaos_testbed();
    let full = deterministic_view(&esharp.search(&corpus, &query));
    let clock = Arc::new(VirtualClock::new());
    let breakers = ShardBreakers::new(BreakerConfig {
        threshold: 2,
        open_us: 100_000,
    });
    // Shard 1 stalls exactly twice, then heals.
    let plan = FaultPlan::new(1).trigger_limited("search:shard:1", Fault::Stall, 2);

    // Two deadline misses trip the breaker…
    for _ in 0..2 {
        let budget = Budget::with_clock(clock.clone(), 10_000);
        let ctx = BoundedSearch::new(&budget)
            .with_chaos(&plan)
            .with_breakers(&breakers);
        let outcome = esharp.search_bounded(&corpus, &query, &ctx);
        let partial = outcome.partial.expect("stalled shard must mark partial");
        assert_eq!(partial.shards_missing, vec![1]);
    }
    assert_eq!(breakers.trips(), 1);

    // …the next search skips the sick shard outright (no budget spent)…
    let budget = Budget::with_clock(clock.clone(), 10_000);
    let ctx = BoundedSearch::new(&budget)
        .with_chaos(&plan)
        .with_breakers(&breakers);
    let outcome = esharp.search_bounded(&corpus, &query, &ctx);
    let partial = outcome.partial.expect("skipped shard must mark partial");
    assert_eq!(partial.shards_skipped, vec![1]);
    assert!(partial.shards_missing.is_empty());

    // …and after the open window the healed shard probes, the breaker
    // closes, and answers are complete and bit-identical again.
    clock.advance_us(100_000);
    let budget = Budget::with_clock(clock.clone(), 10_000);
    let ctx = BoundedSearch::new(&budget)
        .with_chaos(&plan)
        .with_breakers(&breakers);
    let outcome = esharp.search_bounded(&corpus, &query, &ctx);
    assert!(outcome.partial.is_none());
    assert_eq!(deterministic_view(&outcome), full);
    assert_eq!(breakers.recoveries(), 1);
}
