//! Serving metrics: request counters, cache statistics, and per-phase
//! latency histograms — the observability half of the Table 9 budget
//! (expansion < 100 ms, detection < 1 s): the budget only means
//! something in production if the service can show its p99s.
//!
//! Everything is lock-free atomics so recording never contends with the
//! serving path; rendering (`/metrics`) reads whatever snapshot the
//! relaxed loads happen to see, which is the usual monitoring contract.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Log2 of the sub-buckets each power of two is cut into.
const SUB_BITS: u32 = 5;

/// Log-linear microsecond buckets: samples below 32 µs get one bucket
/// each, and every power of two `[2^e, 2^(e+1))` above is cut into 32
/// equal sub-buckets of width `2^(e-5)`, so a bucket is narrower than
/// 1/32 of any sample in it. 1920 buckets cover all of `u64`.
pub const BUCKETS: usize = bucket_of(u64::MAX) + 1;

/// The bucket holding a sample of `us` microseconds.
const fn bucket_of(us: u64) -> usize {
    let shift = (64 - (us >> SUB_BITS).leading_zeros()).saturating_sub(1);
    ((shift as u64) << SUB_BITS) as usize + (us >> shift) as usize
}

/// The largest sample bucket `i` holds (inverts [`bucket_of`]).
fn bucket_top(i: usize) -> u64 {
    let shift = (i >> SUB_BITS).saturating_sub(1);
    let mantissa = (i - (shift << SUB_BITS)) as u64;
    (mantissa << shift) | ((1u64 << shift) - 1)
}

/// A fixed-bucket latency histogram with exact count/sum/max.
#[derive(Debug)]
pub struct Histogram {
    /// `BUCKETS` counters, indexed by [`bucket_of`].
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(us)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.sum_us.load(Relaxed) as f64 / count as f64
    }

    /// Largest sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Relaxed)
    }

    /// Quantile `q` in `[0, 1]`, reported as the largest value the
    /// bucket holding the `⌈q·count⌉`-th sample can hold, clamped by the
    /// exact max. It is never below that sample and exceeds it by less
    /// than 1/32 of it; below 32 µs it is exact.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Relaxed);
            if seen >= target {
                return bucket_top(i).min(self.max_us());
            }
        }
        self.max_us()
    }

    fn render(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count().to_string());
        out.push_str(",\"mean_us\":");
        json::push_f64(out, (self.mean_us() * 10.0).round() / 10.0);
        out.push_str(",\"p50_us\":");
        out.push_str(&self.quantile_us(0.50).to_string());
        out.push_str(",\"p99_us\":");
        out.push_str(&self.quantile_us(0.99).to_string());
        out.push_str(",\"max_us\":");
        out.push_str(&self.max_us().to_string());
        out.push('}');
    }
}

/// All serving counters and histograms, shared by every worker.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Valid `GET /search` requests (answered inline or by a worker).
    pub search_requests: AtomicU64,
    /// `GET /healthz` requests.
    pub healthz_requests: AtomicU64,
    /// `GET /metrics` requests.
    pub metrics_requests: AtomicU64,
    /// `POST /reload` requests.
    pub reload_requests: AtomicU64,
    /// `POST /ingest` requests.
    pub ingest_requests: AtomicU64,
    /// Ops applied by accepted ingest batches.
    pub ingest_ops: AtomicU64,
    /// `POST /compact` requests.
    pub compact_requests: AtomicU64,
    /// Compaction cycles that published (HTTP or background).
    pub compact_ok: AtomicU64,
    /// Compaction cycles that failed (previous base kept serving).
    pub compact_failed: AtomicU64,
    /// Requests answered 4xx (bad path, method, or parameters).
    pub client_errors: AtomicU64,
    /// Connections answered `503` by the accept loop (queue full).
    pub shed_total: AtomicU64,
    /// Responses abandoned because the *client* stopped draining its
    /// receive window (write timeout with zero progress). Never counted
    /// as success.
    pub shed_slow_client: AtomicU64,
    /// Connections accepted by the event loop.
    pub connections: AtomicU64,
    /// Requests served on an already-used keep-alive connection (the
    /// 2nd request onward on each connection).
    pub keepalive_reuses: AtomicU64,
    /// Requests parsed while an earlier request on the same connection
    /// was still queued or executing — true pipelining.
    pub pipelined_requests: AtomicU64,
    /// `POST /search/batch` requests.
    pub batch_requests: AtomicU64,
    /// Queries carried by batch requests.
    pub batch_queries: AtomicU64,
    /// Search responses marked `partial: true` (some shard missed the
    /// deadline or was breaker-skipped).
    pub partial_responses: AtomicU64,
    /// Hedged duplicate shard probes issued for stragglers.
    pub hedges: AtomicU64,
    /// Hedged probes that answered before their straggling primary.
    pub hedge_wins: AtomicU64,
    /// Shard-task panics contained by the scatter-gather layer.
    pub shard_panics: AtomicU64,
    /// Request-handler panics contained by a worker's `catch_unwind`
    /// (each answered `500`, the worker lived on).
    pub worker_panics: AtomicU64,
    /// Worker threads that died outside the request guard and were
    /// respawned by the supervisor.
    pub workers_resurrected: AtomicU64,
    /// Search responses served from the result cache.
    pub cache_hits: AtomicU64,
    /// Search responses computed cold.
    pub cache_misses: AtomicU64,
    /// Of `cache_hits`, the `GET /search` hits the event loop answered
    /// itself, without a worker.
    pub inline_hits: AtomicU64,
    /// `GET /search` lookups the event loop left to a worker because a
    /// reload or a corpus mutation held an epoch lock.
    pub fallback_lookups: AtomicU64,
    /// Successful reloads.
    pub reload_ok: AtomicU64,
    /// Failed reloads (now serving degraded).
    pub reload_failed: AtomicU64,
    /// Query-expansion phase latency (cache misses only).
    pub expansion: Histogram,
    /// Detection (match + rank) phase latency (cache misses only).
    pub detection: Histogram,
    /// Postings match/union half of detection (cache misses only).
    pub match_phase: Histogram,
    /// Candidate ranking half of detection (cache misses only).
    pub rank_phase: Histogram,
    /// Handler time of every request: a worker's whole job, or the event
    /// loop's lookup for an inline hit.
    pub total: Histogram,
    /// Write-lock hold time of compaction publishes — the only pause
    /// serving ever observes from the streaming maintenance path.
    pub compaction_pause: Histogram,
}

/// A point-in-time snapshot of the live corpus's shard layout, taken
/// under the read guard and rendered into `/metrics` so operators can
/// see postings balance (a skewed shard caps scatter-gather speedup).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Postings bytes (arena + offsets) per shard, in shard order.
    pub postings_bytes: Vec<u64>,
}

impl ShardStats {
    /// Snapshot a corpus's shard layout.
    pub fn of(corpus: &esharp_microblog::Corpus) -> ShardStats {
        ShardStats {
            postings_bytes: corpus.shard_postings_bytes(),
        }
    }

    /// Max-over-mean postings-bytes skew: `1.0` is perfectly balanced,
    /// `k` means one shard holds the whole index. `0.0` when empty.
    pub fn skew(&self) -> f64 {
        let n = self.postings_bytes.len();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.postings_bytes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.postings_bytes.iter().copied().max().unwrap_or(0);
        max as f64 * n as f64 / total as f64
    }

    fn render(&self, out: &mut String) {
        out.push_str("{\"shards\":");
        out.push_str(&self.postings_bytes.len().to_string());
        out.push_str(",\"postings_bytes\":[");
        for (i, b) in self.postings_bytes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("],\"skew_max_over_mean\":");
        json::push_f64(out, (self.skew() * 1e4).round() / 1e4);
        out.push('}');
    }
}

/// A point-in-time snapshot of the per-shard circuit breakers, rendered
/// into `/metrics` and `/healthz` so operators can see which shards the
/// scatter-gather is currently routing around (ROBUSTNESS.md §9).
#[derive(Debug, Clone, Default)]
pub struct BreakerStats {
    /// Closed→open transitions since start.
    pub trips: u64,
    /// Half-open→closed recoveries since start.
    pub recoveries: u64,
    /// Monotonic counter bumped on every breaker transition; the 4th
    /// component of the result-cache key.
    pub health_epoch: u64,
    /// Per-shard state names (`"closed"` / `"open"` / `"half_open"`),
    /// in shard order.
    pub states: Vec<&'static str>,
}

impl BreakerStats {
    /// Snapshot a breaker set.
    pub fn of(breakers: &esharp_fault::ShardBreakers) -> BreakerStats {
        BreakerStats {
            trips: breakers.trips(),
            recoveries: breakers.recoveries(),
            health_epoch: breakers.epoch(),
            states: breakers.states().iter().map(|s| s.name()).collect(),
        }
    }

    /// Render as a JSON object (shared by `/metrics` and `/healthz`).
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"trips\":");
        out.push_str(&self.trips.to_string());
        out.push_str(",\"recoveries\":");
        out.push_str(&self.recoveries.to_string());
        out.push_str(",\"health_epoch\":");
        out.push_str(&self.health_epoch.to_string());
        out.push_str(",\"states\":[");
        for (i, s) in self.states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(s);
            out.push('"');
        }
        out.push_str("]}");
    }
}

impl Metrics {
    /// Cache hit rate in `[0, 1]` (0 when no search has been served).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Relaxed);
        let misses = self.cache_misses.load(Relaxed);
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Render the `/metrics` JSON document. The epochs and cache
    /// occupancy come from the server (they live outside the counter
    /// set): `epoch` is the domains epoch, `corpus_epoch` the live
    /// corpus's.
    pub fn render(
        &self,
        epoch: u64,
        corpus_epoch: u64,
        cache_entries: usize,
        cache_capacity: usize,
        shards: &ShardStats,
        breakers: &BreakerStats,
    ) -> String {
        let c = |a: &AtomicU64| a.load(Relaxed).to_string();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"requests\":{\"search\":");
        out.push_str(&c(&self.search_requests));
        out.push_str(",\"healthz\":");
        out.push_str(&c(&self.healthz_requests));
        out.push_str(",\"metrics\":");
        out.push_str(&c(&self.metrics_requests));
        out.push_str(",\"reload\":");
        out.push_str(&c(&self.reload_requests));
        out.push_str(",\"client_errors\":");
        out.push_str(&c(&self.client_errors));
        out.push_str("},\"shed_total\":");
        out.push_str(&c(&self.shed_total));
        out.push_str(",\"serving\":{\"connections\":");
        out.push_str(&c(&self.connections));
        out.push_str(",\"keepalive_reuses\":");
        out.push_str(&c(&self.keepalive_reuses));
        out.push_str(",\"pipelined_requests\":");
        out.push_str(&c(&self.pipelined_requests));
        out.push_str(",\"batch_requests\":");
        out.push_str(&c(&self.batch_requests));
        out.push_str(",\"batch_queries\":");
        out.push_str(&c(&self.batch_queries));
        out.push_str("},\"tail\":{\"partial_responses\":");
        out.push_str(&c(&self.partial_responses));
        out.push_str(",\"hedges\":");
        out.push_str(&c(&self.hedges));
        out.push_str(",\"hedge_wins\":");
        out.push_str(&c(&self.hedge_wins));
        out.push_str(",\"shard_panics\":");
        out.push_str(&c(&self.shard_panics));
        out.push_str(",\"worker_panics\":");
        out.push_str(&c(&self.worker_panics));
        out.push_str(",\"workers_resurrected\":");
        out.push_str(&c(&self.workers_resurrected));
        out.push_str(",\"shed_slow_client\":");
        out.push_str(&c(&self.shed_slow_client));
        out.push_str(",\"breakers\":");
        breakers.render(&mut out);
        out.push_str("},\"cache\":{\"hits\":");
        out.push_str(&c(&self.cache_hits));
        out.push_str(",\"misses\":");
        out.push_str(&c(&self.cache_misses));
        out.push_str(",\"hit_rate\":");
        json::push_f64(&mut out, (self.hit_rate() * 1e4).round() / 1e4);
        out.push_str(",\"entries\":");
        out.push_str(&cache_entries.to_string());
        out.push_str(",\"capacity\":");
        out.push_str(&cache_capacity.to_string());
        out.push_str(",\"inline_hits\":");
        out.push_str(&c(&self.inline_hits));
        out.push_str(",\"fallback_lookups\":");
        out.push_str(&c(&self.fallback_lookups));
        out.push_str("},\"reload\":{\"ok\":");
        out.push_str(&c(&self.reload_ok));
        out.push_str(",\"failed\":");
        out.push_str(&c(&self.reload_failed));
        out.push_str(",\"epoch\":");
        out.push_str(&epoch.to_string());
        out.push_str("},\"ingest\":{\"requests\":");
        out.push_str(&c(&self.ingest_requests));
        out.push_str(",\"ops\":");
        out.push_str(&c(&self.ingest_ops));
        out.push_str(",\"corpus_epoch\":");
        out.push_str(&corpus_epoch.to_string());
        out.push_str("},\"corpus\":");
        shards.render(&mut out);
        out.push_str(",\"compaction\":{\"requests\":");
        out.push_str(&c(&self.compact_requests));
        out.push_str(",\"ok\":");
        out.push_str(&c(&self.compact_ok));
        out.push_str(",\"failed\":");
        out.push_str(&c(&self.compact_failed));
        out.push_str(",\"pause_us\":");
        self.compaction_pause.render(&mut out);
        out.push_str("},\"latency_us\":{\"expansion\":");
        self.expansion.render(&mut out);
        out.push_str(",\"detection\":");
        self.detection.render(&mut out);
        out.push_str(",\"match\":");
        self.match_phase.render(&mut out);
        out.push_str(",\"rank\":");
        self.rank_phase.render(&mut out);
        out.push_str(",\"total\":");
        self.total.render(&mut out);
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0, "empty histogram");
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 100_000);
        // p50 of {1,2,3,100,1000,100000}: the 3rd sample, 3 µs, which
        // has a bucket of its own.
        assert_eq!(h.quantile_us(0.5), 3);
        // p99 → the max sample's bucket, clamped by the exact max.
        assert_eq!(h.quantile_us(0.99), 100_000);
        assert!(h.mean_us() > 0.0);
        // Sub-microsecond samples land in bucket 0 without panicking.
        h.record(Duration::from_nanos(10));
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        assert_eq!(BUCKETS, 1920);
        for i in 0..BUCKETS {
            let top = bucket_top(i);
            assert_eq!(bucket_of(top), i, "top of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_of(top + 1), i + 1, "after bucket {i}");
            }
        }
        assert_eq!(bucket_top(BUCKETS - 1), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn quantiles_are_within_a_32nd_of_the_order_statistic(
            samples in prop::collection::vec(
                (0u32..=33, any::<u64>())
                    .prop_map(|(bits, r)| r & ((1u64 << bits) - 1)),
                1..300,
            ),
            q in 0.0f64..=1.0,
        ) {
            let h = Histogram::default();
            for &us in &samples {
                h.record(Duration::from_micros(us));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let count = sorted.len() as u64;
            for q in [q, 0.5, 0.99, 1.0] {
                let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
                let exact = sorted[rank as usize - 1];
                let estimate = h.quantile_us(q);
                prop_assert!(estimate >= exact, "q={q}: {estimate} < {exact}");
                if exact < 32 {
                    prop_assert_eq!(estimate, exact, "q={q}");
                } else {
                    prop_assert!(
                        estimate - exact < exact / 32,
                        "q={q}: {estimate} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn render_is_valid_shaped_json() {
        let m = Metrics::default();
        m.search_requests.fetch_add(3, Relaxed);
        m.cache_hits.fetch_add(1, Relaxed);
        m.cache_misses.fetch_add(2, Relaxed);
        m.total.record(Duration::from_micros(250));
        m.ingest_ops.fetch_add(5, Relaxed);
        let shards = ShardStats {
            postings_bytes: vec![4096, 1024, 1024, 2048],
        };
        m.partial_responses.fetch_add(2, Relaxed);
        m.hedges.fetch_add(4, Relaxed);
        let breakers = BreakerStats {
            trips: 1,
            recoveries: 1,
            health_epoch: 3,
            states: vec!["closed", "open"],
        };
        let doc = m.render(7, 9, 2, 512, &shards, &breakers);
        for needle in [
            "\"requests\":{\"search\":3",
            "\"shed_total\":0",
            "\"serving\":{\"connections\":0,\"keepalive_reuses\":0,\"pipelined_requests\":0,\"batch_requests\":0,\"batch_queries\":0}",
            "\"tail\":{\"partial_responses\":2,\"hedges\":4,\"hedge_wins\":0",
            "\"worker_panics\":0,\"workers_resurrected\":0,\"shed_slow_client\":0",
            "\"breakers\":{\"trips\":1,\"recoveries\":1,\"health_epoch\":3,\"states\":[\"closed\",\"open\"]}",
            "\"hit_rate\":0.3333",
            "\"epoch\":7",
            "\"entries\":2,\"capacity\":512,\"inline_hits\":0,\"fallback_lookups\":0}",
            "\"ingest\":{\"requests\":0,\"ops\":5,\"corpus_epoch\":9}",
            "\"corpus\":{\"shards\":4,\"postings_bytes\":[4096,1024,1024,2048]",
            "\"skew_max_over_mean\":2}",
            "\"compaction\":{\"requests\":0,\"ok\":0,\"failed\":0,\"pause_us\":{\"count\":0",
            "\"latency_us\":{\"expansion\":{\"count\":0",
            "\"match\":{\"count\":0",
            "\"rank\":{\"count\":0",
            "\"p99_us\":",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
