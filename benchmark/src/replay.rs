//! The traced run's in-process replay of the serving path.
//!
//! The benchmark repeats, on one thread, the steps `esharp-serve` takes
//! for a request, calling each layer's public function itself and
//! wrapping every call in a span. Nothing inside the program is
//! instrumented; a step the server performs that has no public function
//! (socket I/O, queue hand-off, event-loop wake-ups) is exactly what
//! `serve.unattributed_us` is left holding.

use crate::fixtures::BATCH_SIZE;
use crate::spans::Tracer;
use crate::stats::micros;
use esharp_core::{Esharp, SearchOutcome};
use esharp_expert::Detector;
use esharp_fault::{BreakerConfig, Budget, ShardBreakers};
use esharp_microblog::{BoundedSearch, Corpus};
use esharp_serve::http::{parse_request, render_response, Limits};
use esharp_serve::{render_search_body, CacheKey, ResultCache, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The snapshot a request is answered against.
#[derive(Clone, Copy)]
pub struct Online<'a> {
    /// The index.
    pub corpus: &'a Corpus,
    /// Domains + detector configuration.
    pub esharp: &'a Esharp,
    /// Domains epoch (part of every body and cache key).
    pub epoch: u64,
    /// Corpus epoch (likewise).
    pub corpus_epoch: u64,
}

fn outcome_of(
    expansion: Vec<String>,
    matched_tweets: usize,
    experts: Vec<esharp_expert::ExpertResult>,
) -> SearchOutcome {
    SearchOutcome {
        experts,
        expansion,
        matched_tweets,
        expansion_time: Duration::ZERO,
        detection_time: Duration::ZERO,
        match_time: Duration::ZERO,
        rank_time: Duration::ZERO,
        degradation: None,
        partial: None,
        hedges: 0,
        hedge_wins: 0,
        shard_panics: 0,
    }
}

/// The server's per-request steps with the server's own defaults: the
/// result cache, request caps, deadline and breaker settings of
/// `ServeConfig::default()`.
pub struct ServerSteps<'a> {
    online: Online<'a>,
    cache: ResultCache,
    limits: Limits,
    breakers: ShardBreakers,
    deadline: Duration,
}

impl<'a> ServerSteps<'a> {
    /// Fresh (cold-cache) server state over `online`.
    pub fn new(online: Online<'a>) -> ServerSteps<'a> {
        let config = ServeConfig::default();
        ServerSteps {
            online,
            cache: ResultCache::new(config.cache_capacity),
            limits: Limits {
                max_body: config.max_body_bytes,
                ..Limits::default()
            },
            breakers: ShardBreakers::new(BreakerConfig {
                threshold: config.breaker_threshold,
                open_us: config.breaker_open.as_micros() as u64,
            }),
            deadline: config.deadline,
        }
    }

    fn key(&self, normalized: String) -> CacheKey {
        (
            normalized,
            self.online.epoch,
            self.online.corpus_epoch,
            self.breakers.epoch(),
        )
    }

    fn respond(tracer: &mut Tracer, cache: &'static str, body: &[u8]) {
        let response = tracer.call("serve.render_response", || {
            // The handler copies the body into its response before the
            // connection renders head + body into the write buffer.
            let owned = body.to_vec();
            render_response(200, &[("x-esharp-cache", cache)], &owned, false)
        });
        black_box(response);
    }

    /// `GET /search` as `handle_search` runs it. Returns the body.
    pub fn single(&self, tracer: &mut Tracer, raw: &[u8]) -> Arc<Vec<u8>> {
        let Online {
            corpus,
            esharp,
            epoch,
            corpus_epoch,
        } = self.online;
        let root = tracer.enter("request");
        let (request, _) = tracer
            .call("serve.parse_request", || parse_request(raw, &self.limits))
            .expect("prepared request parses")
            .expect("prepared request is complete");
        let normalized = request
            .param("q")
            .map(|q| q.trim().to_lowercase())
            .expect("prepared request has q");
        let key = self.key(normalized);
        let cached = tracer.call("serve.cache_get", || self.cache.get(&key));
        let body = match cached {
            Some(body) => {
                Self::respond(tracer, "hit", &body);
                body
            }
            None => {
                let config = esharp.config();
                let expansion = tracer.call("core.expand", || {
                    esharp.domains().expand(&key.0, config.max_expansion_terms)
                });
                let budget = Budget::wall(self.deadline);
                let ctx = BoundedSearch::new(&budget).with_breakers(&self.breakers);
                let matched = tracer.call("microblog.match_bounded", || {
                    corpus.match_terms_bounded(&expansion, config.search_workers, &ctx)
                });
                let experts = tracer.call("expert.rank", || {
                    Detector::new(corpus, config.detector.clone()).rank_candidates(&matched.matched)
                });
                let outcome = outcome_of(expansion, matched.matched.len(), experts);
                let body = Arc::new(tracer.call("serve.render_body", || {
                    render_search_body(corpus, &key.0, epoch, corpus_epoch, &outcome)
                }));
                tracer.call("serve.cache_insert", || {
                    self.cache.insert(key, Arc::clone(&body))
                });
                Self::respond(tracer, "miss", &body);
                body
            }
        };
        tracer.exit(root);
        body
    }

    /// `POST /search/batch` as `handle_search_batch` runs it. Returns
    /// the envelope body.
    pub fn batch(&self, tracer: &mut Tracer, raw: &[u8]) -> Vec<u8> {
        let Online {
            corpus,
            esharp,
            epoch,
            corpus_epoch,
        } = self.online;
        let root = tracer.enter("request");
        let (request, _) = tracer
            .call("serve.parse_request", || parse_request(raw, &self.limits))
            .expect("prepared request parses")
            .expect("prepared request is complete");
        let queries: Vec<String> = std::str::from_utf8(&request.body)
            .expect("prepared body is UTF-8")
            .lines()
            .map(|line| line.trim().to_lowercase())
            .filter(|line| !line.is_empty())
            .collect();
        let mut bodies: Vec<Option<Arc<Vec<u8>>>> = vec![None; queries.len()];
        let mut cold: Vec<usize> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let key = self.key(query.clone());
            match tracer.call("serve.cache_get", || self.cache.get(&key)) {
                Some(body) => bodies[i] = Some(body),
                None => cold.push(i),
            }
        }
        if !cold.is_empty() {
            let config = esharp.config();
            let expansions: Vec<Vec<String>> = tracer.call("core.expand", || {
                cold.iter()
                    .map(|&i| {
                        esharp
                            .domains()
                            .expand(&queries[i], config.max_expansion_terms)
                    })
                    .collect()
            });
            let matched = tracer.call("microblog.match_batch", || {
                corpus.match_terms_batch_with(&expansions, config.search_workers)
            });
            let experts = tracer.call("expert.rank_batch", || {
                Detector::new(corpus, config.detector.clone()).rank_candidates_batch(&matched)
            });
            for (((&i, expansion), matched), experts) in
                cold.iter().zip(expansions).zip(&matched).zip(experts)
            {
                let outcome = outcome_of(expansion, matched.len(), experts);
                let body = Arc::new(tracer.call("serve.render_body", || {
                    render_search_body(corpus, &queries[i], epoch, corpus_epoch, &outcome)
                }));
                let key = self.key(queries[i].clone());
                tracer.call("serve.cache_insert", || {
                    self.cache.insert(key, Arc::clone(&body))
                });
                bodies[i] = Some(body);
            }
        }
        let parts: Vec<&[u8]> = bodies.iter().flatten().map(|b| b.as_slice()).collect();
        let envelope = batch_envelope(epoch, corpus_epoch, &parts);
        Self::respond(tracer, "miss", &envelope);
        tracer.exit(root);
        envelope
    }
}

/// The `POST /search/batch` response body for the given single bodies.
pub fn batch_envelope(epoch: u64, corpus_epoch: u64, singles: &[&[u8]]) -> Vec<u8> {
    let mut out = format!(
        "{{\"batch\":{},\"epoch\":{epoch},\"corpus_epoch\":{corpus_epoch},\"results\":[",
        singles.len()
    )
    .into_bytes();
    for (i, single) in singles.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(single);
    }
    out.extend_from_slice(b"]}");
    out
}

/// 32-bit FNV-1a, the checksum behind `core.results_checksum` and
/// `core.domains_checksum`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u32);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0x811c_9dc5)
    }
}

impl Fnv {
    /// Fold `bytes` and a separator in.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }
}

/// What one fixed pass over a query list counted. Every field repeats
/// exactly for the same inputs.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Sum over queries of the FNV of the query and the handles of its
    /// top-10 experts.
    pub results_checksum: u32,
    /// Mean expansion terms per query.
    pub expansion_terms: f64,
    /// Mean distinct matched tweets per query.
    pub matched_tweets: f64,
    /// Mean experts returned per query.
    pub experts_returned: f64,
    /// Mean Σ `postings(token).len()` over the expansion's tokens.
    pub postings_walked: f64,
    /// The body `GET /search` must return for each query.
    pub bodies: Vec<Vec<u8>>,
    /// Each query's expansion.
    pub expansions: Vec<Vec<String>>,
}

/// One unbounded `Esharp::search` per query: the oracle bodies and the
/// exact counts.
pub fn count_pass(online: Online<'_>, queries: &[String]) -> Counts {
    let Online {
        corpus,
        esharp,
        epoch,
        corpus_epoch,
    } = online;
    let mut counts = Counts::default();
    let (mut terms, mut matched, mut experts, mut walked) = (0usize, 0usize, 0usize, 0usize);
    for query in queries {
        let outcome = esharp.search(corpus, query);
        // Per-query hashes are added up, so the checksum does not depend
        // on the order `--seed` puts the queries in.
        let mut fnv = Fnv::default();
        fnv.push(query.as_bytes());
        for expert in outcome.experts.iter().take(10) {
            fnv.push(corpus.user(expert.user).handle.as_bytes());
        }
        counts.results_checksum = counts.results_checksum.wrapping_add(fnv.0);
        terms += outcome.expansion.len();
        matched += outcome.matched_tweets;
        experts += outcome.experts.len();
        walked += outcome
            .expansion
            .iter()
            .flat_map(|term| term.split_ascii_whitespace())
            .filter_map(|word| corpus.token_id(word))
            .map(|token| corpus.postings(token).len())
            .sum::<usize>();
        counts.bodies.push(render_search_body(
            corpus,
            query,
            epoch,
            corpus_epoch,
            &outcome,
        ));
        counts.expansions.push(outcome.expansion);
    }
    let n = queries.len().max(1) as f64;
    counts.expansion_terms = terms as f64 / n;
    counts.matched_tweets = matched as f64 / n;
    counts.experts_returned = experts as f64 / n;
    counts.postings_walked = walked as f64 / n;
    counts
}

/// Whole-call timings of the search entry points, one sample per query.
#[derive(Debug, Clone, Default)]
pub struct WholeCalls {
    /// `Esharp::search_bounded`, µs.
    pub search_bounded_us: Vec<f64>,
    /// The same call minus the expand, match and rank times it reports.
    pub search_self_us: Vec<f64>,
    /// `Corpus::match_terms_with`, µs.
    pub match_us: Vec<f64>,
    /// `Corpus::match_terms_bounded`, µs.
    pub match_bounded_us: Vec<f64>,
}

/// Time the whole-call entry points once per query.
pub fn whole_call_pass(
    online: Online<'_>,
    queries: &[String],
    expansions: &[Vec<String>],
) -> WholeCalls {
    let Online { corpus, esharp, .. } = online;
    let workers = esharp.config().search_workers;
    let mut out = WholeCalls::default();
    for (query, expansion) in queries.iter().zip(expansions) {
        let budget = Budget::wall(Duration::from_secs(1));
        let ctx = BoundedSearch::new(&budget);
        let started = Instant::now();
        let outcome = esharp.search_bounded(corpus, query, &ctx);
        let whole = started.elapsed();
        let inner = outcome.expansion_time + outcome.match_time + outcome.rank_time;
        black_box(outcome);
        out.search_bounded_us.push(micros(whole));
        out.search_self_us.push(micros(whole.saturating_sub(inner)));

        let started = Instant::now();
        black_box(corpus.match_terms_with(expansion, workers));
        out.match_us.push(micros(started.elapsed()));

        let budget = Budget::wall(Duration::from_secs(1));
        let ctx = BoundedSearch::new(&budget);
        let started = Instant::now();
        black_box(corpus.match_terms_bounded(expansion, workers, &ctx));
        out.match_bounded_us.push(micros(started.elapsed()));
    }
    out
}

/// `Esharp::search_batch` once per [`BATCH_SIZE`] consecutive queries,
/// µs.
pub fn search_batch_pass(online: Online<'_>, queries: &[String]) -> Vec<f64> {
    queries
        .chunks(BATCH_SIZE)
        .map(|batch| {
            let batch: Vec<&str> = batch.iter().map(String::as_str).collect();
            let started = Instant::now();
            black_box(online.esharp.search_batch(online.corpus, &batch));
            micros(started.elapsed())
        })
        .collect()
}

/// Share of a batch's expansion terms that another query of the same
/// batch already brought in, averaged over batches of [`BATCH_SIZE`]
/// consecutive expansions.
pub fn shared_term_share(expansions: &[Vec<String>]) -> f64 {
    let shares: Vec<f64> = expansions
        .chunks(BATCH_SIZE)
        .map(|batch| {
            let total: usize = batch.iter().map(Vec::len).sum();
            let distinct: std::collections::BTreeSet<&str> =
                batch.iter().flatten().map(String::as_str).collect();
            1.0 - distinct.len() as f64 / total.max(1) as f64
        })
        .collect();
    shares.iter().sum::<f64>() / shares.len().max(1) as f64
}
