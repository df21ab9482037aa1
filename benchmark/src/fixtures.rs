//! Benchmark inputs. The program only ever sees what is generated here.
//!
//! The *datasets* (world, click log, corpus) are generated from the
//! fixed [`DATASET_SEED`]; `--seed` drives the *request streams* over
//! them (query order, Zipf draws). Measured on this repo: re-seeding
//! the dataset moves the similarity graph between 64k and 120k edges and
//! the in-process search median by ±9%, several times the bound any
//! end-to-end metric is gated at, so a dataset that changed with the
//! seed would make the seed, not the code, decide the result.

use esharp_core::{run_offline, DomainCollection, EsharpConfig};
use esharp_microblog::{generate_corpus_streaming, Corpus, CorpusConfig};
use esharp_querylog::dist::Zipf;
use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, RawEvent, World, WorldConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Seed of every generated dataset (see the module note).
pub const DATASET_SEED: u64 = 0xE5;

/// Queries per `POST /search/batch` body.
pub const BATCH_SIZE: usize = 16;

/// Distinct queries in the cache-friendly mix.
pub const CACHED_QUERIES: usize = 32;

/// Length of the pre-drawn Zipf request sequence (cycled).
const CACHED_SEQUENCE: usize = 1 << 16;

/// Fixture size: the measured scale, or `EvalScale::Tiny`-sized inputs
/// for the `--smoke` pass and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 1M-tweet corpus, 8M-event refresh log.
    Full,
    /// Seconds end to end; numbers mean nothing.
    Smoke,
}

/// `corpus_1m`: the serving corpus plus the domains mined for it.
pub struct OnlineFixture {
    /// Ground-truth world the log and corpus were drawn from.
    pub world: World,
    /// Domains mined by `run_offline` from the fixture's own log.
    pub domains: DomainCollection,
    /// ~105k users / ~1.02M tweets at [`Scale::Full`].
    pub corpus: Corpus,
    /// Online configuration of every serve workload: defaults with a
    /// serial match phase (`search_workers = 1`).
    pub config: EsharpConfig,
    /// Seconds spent generating (excluded from `setup_s`).
    pub generation_s: f64,
}

/// Generate `corpus_1m` (or its smoke-sized stand-in).
pub fn corpus_1m(scale: Scale) -> OnlineFixture {
    let started = Instant::now();
    let seed = DATASET_SEED;
    let (world_config, log_config, corpus_config, base) = match scale {
        Scale::Full => (
            WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            LogConfig {
                events: 2_000_000,
                seed,
                ..LogConfig::default()
            },
            CorpusConfig {
                regular_users: 100_000,
                spam_users: 5_000,
                seed,
                ..CorpusConfig::default()
            },
            EsharpConfig::default(),
        ),
        Scale::Smoke => (
            WorldConfig::tiny(seed),
            LogConfig::tiny(seed),
            CorpusConfig::tiny(seed),
            EsharpConfig::tiny(),
        ),
    };
    let world = World::generate(&world_config);
    let log = AggregatedLog::from_events(LogGenerator::new(&world, &log_config), world.terms.len());
    let domains = run_offline(&log, &world, &base)
        .expect("offline pipeline on the generated log")
        .domains;
    let corpus = generate_corpus_streaming(&world, &corpus_config);
    OnlineFixture {
        world,
        domains,
        corpus,
        config: EsharpConfig {
            search_workers: 1,
            ..base
        },
        generation_s: started.elapsed().as_secs_f64(),
    }
}

/// `queries_uncached`: every member term of every mined domain (~2.2k),
/// in one seeded fixed order. Cycled in that order, every query's reuse
/// distance is the whole list, more than twice the result cache's
/// capacity of 1024, so no shard of it ever holds a query until it comes
/// round again. (Half the list is not enough: the cache is 16 shards of
/// 64, and with 1.1k queries the emptier shards keep theirs, a third of
/// the requests hit, and a request's best repetition is a cached one.)
///
/// `Independent` shuffles the queries themselves, as independent users
/// would arrive. `Neighbours` keeps the members of a domain adjacent, so
/// a batch of 16 consecutive queries shares expansion terms: the list is
/// cut into batches in the order the dataset gives, and the seed orders
/// the batches, so every seed sends the same bodies.
pub fn queries_uncached(domains: &DomainCollection, seed: u64, order: QueryOrder) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries: Vec<String> = domains.domains().iter().flatten().cloned().collect();
    match order {
        QueryOrder::Independent => queries.shuffle(&mut rng),
        QueryOrder::Neighbours => {
            // A short last batch stays last, so the cuts stay where
            // they are.
            let whole = queries.len() - queries.len() % BATCH_SIZE;
            let mut batches: Vec<&[String]> = queries[..whole].chunks(BATCH_SIZE).collect();
            batches.shuffle(&mut rng);
            batches.push(&queries[whole..]);
            queries = batches.concat();
        }
    }
    queries
}

/// Order of `queries_uncached` (see [`queries_uncached`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOrder {
    /// Members of one domain adjacent: the batch workload's order.
    Neighbours,
    /// Individually shuffled: the single-query workloads' order.
    Independent,
}

/// `queries_cached`: the historic cache-friendly mix. Returns the 32
/// distinct queries (the head term of the first 32 world domains) and a
/// seeded Zipf(1.0) sequence of indices into them.
pub fn queries_cached(world: &World, seed: u64) -> (Vec<String>, Vec<usize>) {
    let queries: Vec<String> = world
        .domains
        .iter()
        .take(CACHED_QUERIES)
        .map(|d| world.term_text(d.terms[0]).to_string())
        .collect();
    let zipf = Zipf::new(queries.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let sequence = (0..CACHED_SEQUENCE)
        .map(|_| zipf.sample(&mut rng))
        .collect();
    (queries, sequence)
}

/// `log_8m`: the weekly refresh input, as raw events (aggregating them
/// is the refresh's set-up step).
pub struct OfflineFixture {
    /// 2,411 domains / ~20k terms at [`Scale::Full`].
    pub world: World,
    /// 8M raw click events at [`Scale::Full`].
    pub events: Vec<RawEvent>,
    /// Offline configuration before the backend is chosen.
    pub config: EsharpConfig,
    /// Seconds spent generating (excluded from `setup_s`).
    pub generation_s: f64,
}

/// Generate `log_8m` (or its smoke-sized stand-in).
pub fn log_8m(scale: Scale, workers: usize) -> OfflineFixture {
    let started = Instant::now();
    let seed = DATASET_SEED;
    let (world_config, log_config, base) = match scale {
        Scale::Full => (
            WorldConfig {
                domains_per_category: 400,
                seed,
                ..WorldConfig::default()
            },
            LogConfig {
                events: 8_000_000,
                seed,
                ..LogConfig::default()
            },
            EsharpConfig::default(),
        ),
        Scale::Smoke => (
            WorldConfig::tiny(seed),
            LogConfig::tiny(seed),
            EsharpConfig::tiny(),
        ),
    };
    let world = World::generate(&world_config);
    let events: Vec<RawEvent> = LogGenerator::new(&world, &log_config).collect();
    OfflineFixture {
        world,
        events,
        config: EsharpConfig { workers, ..base },
        generation_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_serve::ResultCache;
    use std::sync::Arc;

    #[test]
    fn same_seed_same_streams_other_seed_other_order() {
        let fixture = corpus_1m(Scale::Smoke);
        let a = queries_uncached(&fixture.domains, 7, QueryOrder::Independent);
        assert_eq!(
            a,
            queries_uncached(&fixture.domains, 7, QueryOrder::Independent)
        );
        let b = queries_uncached(&fixture.domains, 8, QueryOrder::Neighbours);
        assert_ne!(a, b);
        // Neighbours: every seed sends the same batches, in another order.
        let batches = |queries: &[String]| {
            let mut batches: Vec<Vec<String>> =
                queries.chunks(BATCH_SIZE).map(<[String]>::to_vec).collect();
            batches.sort();
            batches
        };
        let c = queries_uncached(&fixture.domains, 9, QueryOrder::Neighbours);
        assert_ne!(b, c);
        assert_eq!(batches(&b), batches(&c));
        let in_order: Vec<String> = fixture
            .domains
            .domains()
            .iter()
            .flatten()
            .cloned()
            .collect();
        assert_eq!(batches(&b), batches(&in_order));
        // Independent: every seed sends the same queries.
        let sorted = |mut queries: Vec<String>| {
            queries.sort();
            queries
        };
        let other = queries_uncached(&fixture.domains, 8, QueryOrder::Independent);
        assert_ne!(a, other);
        let sa = sorted(a.clone());
        assert_eq!(sa, sorted(other));
        assert_eq!(sa, sorted(in_order));
        let mut distinct = sa.clone();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            sa.len(),
            "mined domains partition the terms"
        );
        let (queries, sequence) = queries_cached(&fixture.world, 7);
        assert!(!queries.is_empty() && queries.len() <= CACHED_QUERIES);
        assert_eq!(sequence, queries_cached(&fixture.world, 7).1);
        assert!(sequence.iter().all(|&i| i < queries.len()));
    }

    /// The separation `search_uncached` rests on: a fixed cyclic order
    /// over more distinct keys than the LRU holds never hits.
    #[test]
    fn fixed_cyclic_order_never_hits_an_lru_of_capacity_1024() {
        let cache = ResultCache::new(1024);
        let distinct = 2200;
        let mut hits = 0;
        for i in 0..distinct * 4 {
            let key = (format!("query {}", i % distinct), 0, 0, 0);
            if cache.get(&key).is_some() {
                hits += 1;
            } else {
                cache.insert(key, Arc::new(Vec::new()));
            }
        }
        assert_eq!(hits, 0);
        // The 32-query mix, by contrast, only ever misses cold.
        let mut misses = 0;
        for i in 0..32 * 100 {
            let key = (format!("hot {}", i % 32), 0, 0, 0);
            if cache.get(&key).is_none() {
                misses += 1;
                cache.insert(key, Arc::new(Vec::new()));
            }
        }
        assert_eq!(misses, 32);
    }
}
