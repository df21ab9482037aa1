//! Property test for the tail-tolerance cache contract (ISSUE 8, S3):
//! random interleavings of bounded searches (some stalled by seeded
//! chaos, some hedged), ingest batches, domain reloads, and virtual
//! clock advances — run against the same `ResultCache` + `ShardBreakers`
//! wiring `handle_search` uses. Two guarantees over every interleaving:
//!
//! 1. **Every cache hit is byte-identical to a cold, unbounded search at
//!    the current epochs.** The key is `(query, domains epoch, corpus
//!    epoch, breaker health epoch)` and partial bodies are never
//!    inserted, so a hit can only exist for a complete answer computed
//!    against exactly the state being served right now — stalls,
//!    deadline misses, and hedges may change *whether* a body is cached,
//!    never *which bytes* a hit returns.
//! 2. **A hit never crosses a breaker state change.** The health epoch
//!    bumps on every breaker transition (trip, probe, recovery), so a
//!    hit implies zero transitions between insert and lookup — pinned
//!    here by recording the trip/recovery counters at insert time and
//!    asserting them unchanged at hit time.

use esharp_core::{DomainCollection, Esharp, EsharpConfig};
use esharp_fault::{Budget, BreakerConfig, FaultPlan, ShardBreakers, VirtualClock};
use esharp_ingest::{IngestOp, LiveCorpus};
use esharp_microblog::{generate_corpus, BoundedSearch, CorpusConfig, TokenId};
use esharp_querylog::{World, WorldConfig};
use esharp_serve::cache::CacheKey;
use esharp_serve::{render_search_body, search_and_render, ResultCache};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 4;

/// A live sharded corpus plus an e# whose expansion spans every shard,
/// and the per-shard query vocabulary — the chaos-matrix testbed behind
/// a `LiveCorpus` so ingest interleaves for real.
fn testbed() -> (Arc<LiveCorpus>, Esharp, Vec<String>) {
    let world = World::generate(&WorldConfig::tiny(21));
    let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    corpus.reshard(SHARDS);
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
    let mut config = EsharpConfig::tiny();
    config.search_workers = SHARDS;
    let esharp = Esharp::new(DomainCollection::from_groups(vec![terms.clone()]), config);
    (Arc::new(LiveCorpus::new(corpus)), esharp, terms)
}

fn steps() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..=99, 0u64..1 << 20), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// See the module docs: hits are byte-identical to cold unbounded
    /// searches at the current epochs, and never cross a breaker
    /// transition.
    #[test]
    fn cache_hits_are_exact_and_never_cross_breaker_transitions(
        script in steps()
    ) {
        let (live, esharp, terms) = testbed();
        let cache = ResultCache::new(64);
        let clock = Arc::new(VirtualClock::new());
        let breakers = ShardBreakers::new(BreakerConfig {
            threshold: 2,
            open_us: 50_000,
        });
        let mut domains_epoch = 0u64;
        let mut users = 0usize;
        // Breaker arc counters at each key's insert time (guarantee 2).
        let mut at_insert: HashMap<CacheKey, (u64, u64)> = HashMap::new();

        for (action, n) in script {
            match action {
                // Bounded search, exactly as handle_search does it: some
                // runs stall a shard at the primary attempt, some hedge.
                0..=59 => {
                    let q = &terms[(n as usize) % terms.len()];
                    let stalled = (action < 25).then_some((n as usize) % SHARDS);
                    let hedge = action % 2 == 0;

                    let mut plan = FaultPlan::new(n ^ 0x5eed);
                    if let Some(shard) = stalled {
                        plan = plan.stall_at(&format!("search:shard:{shard}"));
                    }
                    let budget = Budget::with_clock(
                        clock.clone() as Arc<dyn esharp_fault::TickSource>,
                        10_000,
                    );
                    let mut ctx = BoundedSearch::new(&budget)
                        .with_chaos(&plan)
                        .with_breakers(&breakers);
                    if hedge {
                        ctx = ctx.hedged(1_000);
                    }

                    let guard = live.read();
                    let key: CacheKey =
                        (q.clone(), domains_epoch, guard.epoch(), breakers.epoch());
                    if let Some(hit) = cache.get(&key) {
                        // Guarantee 1: byte-identical to a cold unbounded
                        // search against the state live right now.
                        let cold = search_and_render(
                            guard.corpus(), &esharp, q, domains_epoch, guard.epoch(),
                        );
                        prop_assert_eq!(&*hit, &cold, "hit diverged from cold search");
                        prop_assert!(
                            !String::from_utf8_lossy(&hit).contains("\"partial\":true"),
                            "a partial body was served from cache"
                        );
                        // Guarantee 2: zero breaker transitions since
                        // insert — the health epoch in the key makes any
                        // transition a structural miss.
                        prop_assert_eq!(
                            at_insert.get(&key).copied(),
                            Some((breakers.trips(), breakers.recoveries())),
                            "cache hit crossed a breaker state change"
                        );
                    } else {
                        let outcome = esharp.search_bounded(guard.corpus(), q, &ctx);
                        if outcome.partial.is_none() {
                            let body = render_search_body(
                                guard.corpus(), q, domains_epoch, guard.epoch(), &outcome,
                            );
                            at_insert.insert(
                                key.clone(),
                                (breakers.trips(), breakers.recoveries()),
                            );
                            cache.insert(key, Arc::new(body));
                        }
                    }
                }
                // Ingest (corpus epoch bump): old keys structurally miss.
                60..=74 => {
                    let handle = format!("chaos_u{users}");
                    users += 1;
                    let text = format!("{} chaos report", terms[(n as usize) % terms.len()]);
                    live.apply_batch(&[
                        IngestOp::AddUser {
                            handle: handle.clone(),
                            display_name: format!("U {handle}"),
                            description: String::new(),
                            followers: 10 + n % 100,
                            verified: n % 2 == 0,
                        },
                        IngestOp::Append { author: handle, text },
                    ]).expect("ingest batch");
                }
                // Domain reload (domains epoch bump — every attempt
                // advances it, success or not, exactly like the server).
                75..=84 => {
                    domains_epoch += 1;
                }
                // Clock advance: open breakers age toward half-open, so
                // later searches probe and (with a healthy shard) recover.
                _ => {
                    clock.advance_us(20_000 + n % 60_000);
                }
            }
        }
    }
}
