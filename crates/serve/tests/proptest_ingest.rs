//! Property test interleaving search, ingest, and compaction publishes
//! against the same `LiveCorpus` + `ResultCache` pair the server wires
//! together. Two guarantees are pinned over random interleavings:
//!
//! 1. **A cache hit is never served across an epoch bump.** The cache key
//!    carries the corpus epoch, so after every ingest batch and every
//!    compaction publish a lookup structurally misses; any hit that does
//!    occur must be byte-identical to a cold search against the corpus
//!    snapshot live *right now*.
//! 2. **Post-compaction results ≡ cold rebuild.** After each compaction,
//!    rendering every query against the served corpus equals rendering it
//!    against a `Corpus::new` built from scratch over the live content.

use esharp_core::{DomainCollection, Esharp, EsharpConfig};
use esharp_ingest::{IngestOp, LiveCorpus};
use esharp_microblog::{topic_order_reference, Corpus, Tweet, User};
use esharp_serve::cache::CacheKey;
use esharp_serve::{search_and_render, ResultCache};
use proptest::prelude::*;
use std::sync::Arc;

const QUERIES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn user(id: u32, handle: &str) -> User {
    User {
        id,
        handle: handle.to_string(),
        display_name: format!("U {handle}"),
        description: format!("about {handle}"),
        followers: 10 + u64::from(id) * 7,
        verified: id.is_multiple_of(2),
        expert_domains: vec![],
        spam: false,
    }
}

/// Mirror of the live corpus content: user handles in id order, tweet
/// slots in id order (`None` = tombstoned). Compaction densely renumbers,
/// in topic order.
struct Model {
    users: Vec<String>,
    slots: Vec<Option<(u32, String)>>,
}

impl Model {
    fn seed() -> (Model, Corpus) {
        let mut model = Model {
            users: vec!["alice".into(), "bob".into()],
            slots: vec![
                Some((0, "alpha beta news".into())),
                Some((1, "gamma delta chat".into())),
            ],
        };
        model.compact(); // the base build assigns ids in topic order too
        let base = model.rebuild();
        (model, base)
    }

    fn rebuild(&self) -> Corpus {
        let users = self
            .users
            .iter()
            .enumerate()
            .map(|(id, handle)| user(id as u32, handle))
            .collect();
        let tweets = self
            .slots
            .iter()
            .flatten()
            .enumerate()
            .map(|(id, (author, text))| Tweet::parse(id as u32, *author, text, |_| None))
            .collect();
        Corpus::new(users, tweets)
    }

    /// Drop the tombstones and renumber the survivors densely, in the
    /// topic order a build assigns ids in (the string-keyed reference).
    fn compact(&mut self) {
        let live: Vec<(u32, String)> = self.slots.drain(..).flatten().collect();
        let keyed: Vec<(u32, &str)> = live.iter().map(|(a, t)| (*a, t.as_str())).collect();
        self.slots = topic_order_reference(&keyed)
            .into_iter()
            .map(|i| Some(live[i].clone()))
            .collect();
    }
}

fn esharp() -> Esharp {
    Esharp::new(
        DomainCollection::from_groups(vec![
            vec!["alpha".into(), "beta".into()],
            vec!["gamma".into(), "delta".into()],
        ]),
        EsharpConfig::tiny(),
    )
}

fn steps() -> impl Strategy<Value = Vec<(u8, usize, String)>> {
    prop::collection::vec((0u8..=99, 0usize..1024, "[a-z ]{1,16}"), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random search/ingest/compact interleavings: every cache hit is
    /// byte-identical to a cold search at the current epochs, and every
    /// compaction leaves the served corpus rendering exactly like a
    /// from-scratch rebuild.
    #[test]
    fn cache_hits_never_cross_epoch_bumps_and_compaction_matches_rebuild(
        script in steps()
    ) {
        let (mut model, base) = Model::seed();
        let live = Arc::new(LiveCorpus::new(base));
        let cache = ResultCache::new(64);
        let esharp = esharp();
        let domains_epoch = 0u64;

        for (action, n, text) in script {
            match action {
                // Search, exactly as handle_search does it: snapshot,
                // 4-tuple key (health epoch constant here: no breakers
                // in this interleaving), hit-or-compute-and-insert.
                0..=39 => {
                    let q = QUERIES[n % QUERIES.len()];
                    let guard = live.read();
                    let key: CacheKey = (q.to_string(), domains_epoch, guard.epoch(), 0);
                    let cold = search_and_render(
                        guard.corpus(), &esharp, q, domains_epoch, guard.epoch(),
                    );
                    if let Some(hit) = cache.get(&key) {
                        // The invariant: a hit can only exist for the
                        // *current* corpus epoch, so its bytes must match
                        // a cold search against the current snapshot.
                        prop_assert_eq!(
                            &*hit, &cold,
                            "cache hit served stale bytes across an epoch bump"
                        );
                    } else {
                        cache.insert(key, Arc::new(cold));
                    }
                }
                // Ingest one op (epoch bump on success).
                40..=54 => {
                    let handle = format!("u{}", model.users.len());
                    let op = IngestOp::AddUser {
                        handle: handle.clone(),
                        display_name: format!("U {handle}"),
                        description: format!("about {handle}"),
                        followers: 10 + model.users.len() as u64 * 7,
                        verified: model.users.len() % 2 == 0,
                    };
                    live.apply_batch(&[op]).expect("add user");
                    model.users.push(handle);
                }
                55..=79 => {
                    let author = n % model.users.len();
                    let text = format!("{} {text}", QUERIES[n % QUERIES.len()]);
                    let op = IngestOp::Append {
                        author: model.users[author].clone(),
                        text: text.clone(),
                    };
                    live.apply_batch(&[op]).expect("append");
                    model.slots.push(Some((author as u32, text)));
                }
                80..=89 => {
                    let victims: Vec<usize> = model
                        .slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.is_some().then_some(i))
                        .collect();
                    if victims.is_empty() {
                        continue;
                    }
                    let victim = victims[n % victims.len()];
                    let op = IngestOp::Delete { id: victim as u32 };
                    live.apply_batch(&[op]).expect("delete");
                    model.slots[victim] = None;
                }
                // Compaction publish (epoch bump when a delta existed).
                _ => {
                    live.compact().expect("compact");
                    model.compact();
                    let rebuilt = model.rebuild();
                    let guard = live.read();
                    prop_assert!(!guard.corpus().has_delta());
                    for q in QUERIES {
                        let served = search_and_render(
                            guard.corpus(), &esharp, q, domains_epoch, guard.epoch(),
                        );
                        let cold = search_and_render(
                            &rebuilt, &esharp, q, domains_epoch, guard.epoch(),
                        );
                        prop_assert_eq!(
                            served, cold,
                            "post-compaction serving diverged from a cold rebuild on {:?}", q
                        );
                    }
                }
            }
        }

        // Terminal compaction: the whole interleaving folds down to
        // exactly the corpus a weekly full rebuild would have produced.
        live.compact().expect("final compact");
        model.compact();
        let rebuilt = model.rebuild();
        let guard = live.read();
        for q in QUERIES {
            let served = search_and_render(guard.corpus(), &esharp, q, 9, 9);
            let cold = search_and_render(&rebuilt, &esharp, q, 9, 9);
            prop_assert_eq!(served, cold);
        }
    }
}
