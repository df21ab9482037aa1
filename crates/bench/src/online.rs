//! Online read-path benchmark (`esharp bench --online`).
//!
//! Replays a Zipf-distributed query mix through two implementations of
//! the same hot path, closed-loop (each query completes before the next
//! is issued):
//!
//! * **interned** — the live path: token-id CSR postings, galloping
//!   intersection, k-way union, flat candidate scratch.
//! * **string-keyed** — the pre-interning path reconstructed verbatim
//!   from git history as a measurement baseline: `HashMap<String,
//!   Vec<TweetId>>` postings, clone-then-intersect matching, the
//!   extend + sort + dedup union, and the `HashMap`-accumulating rank
//!   path ([`Detector::rank_candidates_reference`]).
//!
//! Both paths must return identical expert rankings for every query
//! (`results_identical` in the report) — the speedup is only meaningful
//! at equal output.
//!
//! The report also times corpus acquisition three ways: full testbed
//! build, re-index from in-memory users + tweets (the unavoidable floor
//! of any JSON load), JSON file load when available, and the `corpus.bin`
//! binary load, which rebuilds nothing. `to_json` renders
//! `BENCH_online.json` by hand like the other bench reports.

use esharp_eval::{EvalScale, Testbed};
use esharp_expert::Detector;
use esharp_microblog::{tokenize::tokenize, Corpus, TweetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// The pre-interning read path, kept as a benchmark baseline. This is a
/// faithful reconstruction of the string-keyed `Corpus` index this repo
/// shipped before token interning: per-token `String`-keyed posting
/// lists, shortest-list clone + pairwise merge intersection, and the
/// union that re-sorts every posting on every query.
pub struct StringKeyedBaseline {
    postings: HashMap<String, Vec<TweetId>>,
}

impl StringKeyedBaseline {
    /// Build the string-keyed index from a corpus (re-tokenizes every
    /// tweet, exactly like the old `Corpus::new`).
    pub fn build(corpus: &Corpus) -> StringKeyedBaseline {
        let mut postings: HashMap<String, Vec<TweetId>> = HashMap::new();
        for t in corpus.tweets() {
            for token in tokenize(&t.text) {
                match postings.get_mut(&token) {
                    Some(list) => {
                        if list.last() != Some(&t.id) {
                            list.push(t.id);
                        }
                    }
                    None => {
                        postings.insert(token, vec![t.id]);
                    }
                }
            }
        }
        StringKeyedBaseline { postings }
    }

    /// The old `Corpus::match_query`: AND across query tokens, cloning
    /// the shortest posting list and narrowing it pairwise.
    pub fn match_query(&self, query: &str) -> Vec<TweetId> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&Vec<TweetId>> = Vec::with_capacity(tokens.len());
        for token in &tokens {
            match self.postings.get(token) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        lists.sort_by_key(|list| list.len());
        let mut result: Vec<TweetId> = lists[0].clone();
        for list in &lists[1..] {
            result = intersect_sorted(&result, list);
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// The old `Esharp::search_with` union: extend with every term's
    /// matches, then sort and dedup the whole buffer.
    pub fn match_terms(&self, terms: &[String]) -> Vec<TweetId> {
        let mut matched: Vec<TweetId> = Vec::new();
        for term in terms {
            matched.extend(self.match_query(term));
        }
        matched.sort_unstable();
        matched.dedup();
        matched
    }
}

/// The old pairwise merge intersection (no galloping).
fn intersect_sorted(a: &[TweetId], b: &[TweetId]) -> Vec<TweetId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Nearest-rank quantiles of one measured phase across all queries.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Sum over all queries, seconds.
    pub total_secs: f64,
    /// Median per-query time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-query time, microseconds.
    pub p99_us: u64,
    /// Worst per-query time, microseconds.
    pub max_us: u64,
}

impl PhaseStats {
    /// Samples arrive in nanoseconds (µs truncation would bias a ~10µs
    /// phase by up to 10%); quantiles are reported rounded to µs.
    fn from_samples(mut samples_ns: Vec<u64>) -> PhaseStats {
        samples_ns.sort_unstable();
        let to_us = |ns: u64| (ns + 500) / 1_000;
        PhaseStats {
            total_secs: samples_ns.iter().sum::<u64>() as f64 / 1e9,
            p50_us: to_us(quantile(&samples_ns, 0.50)),
            p99_us: to_us(quantile(&samples_ns, 0.99)),
            max_us: to_us(samples_ns.last().copied().unwrap_or(0)),
        }
    }

    fn render(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"total_secs\": {:.6}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            self.total_secs, self.p50_us, self.p99_us, self.max_us
        ));
    }
}

/// Exact quantile over sorted samples (nearest-rank).
fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// One read path's measurements.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// `interned` / `string_keyed`.
    pub name: &'static str,
    /// Expansion phase (identical work on both paths; sanity column).
    pub expand: PhaseStats,
    /// Posting intersection + union phase.
    pub match_phase: PhaseStats,
    /// Candidate collection + feature scoring + ranking phase.
    pub rank_phase: PhaseStats,
    /// Seconds spent on the match + rank hot path across all queries.
    pub hot_secs: f64,
    /// Hot-path throughput: queries per second of match + rank time.
    pub hot_qps: f64,
}

/// One shard count in the sweep: persistence + load times for both load
/// modes, the shard balance, and scatter-gather match parity/latency on
/// the zero-copy-loaded corpus.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Shard count K.
    pub shards: usize,
    /// `save_sharded` wall time, seconds.
    pub save_secs: f64,
    /// Manifest + all segments on disk, bytes.
    pub persisted_bytes: u64,
    /// Decode-copy load (`LoadMode::Copy`), seconds.
    pub copy_load_secs: f64,
    /// Zero-copy load (`LoadMode::ZeroCopy`), seconds.
    pub zero_copy_load_secs: f64,
    /// Per-shard postings bytes (arena + offsets), shard order.
    pub postings_bytes: Vec<u64>,
    /// Max-over-mean postings balance (1.0 = perfect).
    pub skew_max_over_mean: f64,
    /// Scatter-gather match over the whole query sequence, seconds.
    pub match_total_secs: f64,
    /// Every matched set bit-identical to the K=1 serial union.
    pub match_identical: bool,
}

/// One worker count in the sweep: the scatter-gather match phase over
/// the full query sequence at a fixed shard count.
#[derive(Debug, Clone)]
pub struct WorkersPoint {
    /// Worker threads handed to `match_terms_with`.
    pub workers: usize,
    /// Match phase total over the sequence, seconds.
    pub match_total_secs: f64,
    /// Median per-query match time, microseconds.
    pub match_p50_us: u64,
    /// p99 per-query match time, microseconds.
    pub match_p99_us: u64,
    /// Matched sets bit-identical to the serial union.
    pub identical: bool,
}

/// The `--large-load` section: a ≥1M-user / ≥10M-tweet synthetic corpus
/// built streamingly, persisted sharded, and loaded both ways.
#[derive(Debug, Clone)]
pub struct LargeLoadReport {
    /// Accounts generated.
    pub users: usize,
    /// Tweets generated.
    pub tweets: usize,
    /// Distinct interned tokens.
    pub tokens: usize,
    /// Streaming generation + index build, seconds.
    pub generate_secs: f64,
    /// Shard count used for persistence.
    pub shards: usize,
    /// `save_sharded` wall time, seconds.
    pub save_secs: f64,
    /// Manifest + all segments on disk, bytes.
    pub persisted_bytes: u64,
    /// Decode-copy load, seconds.
    pub copy_load_secs: f64,
    /// Zero-copy load, seconds.
    pub zero_copy_load_secs: f64,
    /// `copy_load_secs / zero_copy_load_secs` — both loads parse the
    /// same global frames and run the same validation, so this isolates
    /// what zero-copy actually removes: materializing the arenas.
    pub zero_copy_speedup: f64,
    /// Sample queries returned identical matches on both loads.
    pub query_identical: bool,
}

impl LargeLoadReport {
    fn to_json_value(&self) -> String {
        format!(
            "{{\"users\": {}, \"tweets\": {}, \"tokens\": {}, \"generate_secs\": {:.3}, \
             \"shards\": {}, \"save_secs\": {:.3}, \"persisted_bytes\": {}, \
             \"copy_load_secs\": {:.4}, \"zero_copy_load_secs\": {:.4}, \
             \"zero_copy_speedup\": {:.2}, \"query_identical\": {}}}",
            self.users,
            self.tweets,
            self.tokens,
            self.generate_secs,
            self.shards,
            self.save_secs,
            self.persisted_bytes,
            self.copy_load_secs,
            self.zero_copy_load_secs,
            self.zero_copy_speedup,
            self.query_identical,
        )
    }
}

/// The full `esharp bench --online` report.
#[derive(Debug, Clone)]
pub struct OnlineBenchReport {
    /// Logical CPUs of the measuring host.
    pub host_cpus: usize,
    /// Testbed seed.
    pub seed: u64,
    /// Scale preset name (`tiny` / `small` / `paper`).
    pub scale: String,
    /// Queries replayed per path.
    pub queries: u64,
    /// Distinct queries in the Zipf mix.
    pub distinct_queries: usize,
    /// Corpus size: users.
    pub corpus_users: usize,
    /// Corpus size: tweets.
    pub corpus_tweets: usize,
    /// Corpus size: distinct interned tokens.
    pub corpus_tokens: usize,
    /// Full offline testbed build, seconds.
    pub build_secs: f64,
    /// Re-index from in-memory users + tweets (tokenize + intern +
    /// postings), seconds — the floor under any JSON load.
    pub rebuild_secs: f64,
    /// JSON file load (parse + re-index), seconds. `None` when the JSON
    /// round-trip is unavailable (stub serde in the offline dev image).
    pub json_load_secs: Option<f64>,
    /// `corpus.bin` binary load, seconds (no re-tokenization, no index
    /// rebuild).
    pub binary_load_secs: f64,
    /// Size of `corpus.bin` in bytes.
    pub binary_bytes: u64,
    /// Load speedup of the binary path over the JSON path, reported only
    /// when the JSON load actually ran — a binary-vs-JSON ratio computed
    /// against anything else would be dishonest, so when the JSON
    /// round-trip is unavailable this is `None`/`null` and readers should
    /// compare `rebuild_secs` (the re-index floor) against
    /// `binary_load_secs` themselves. See PERF.md for why small corpora
    /// can put this near (or below) 1×: decode cost floors.
    pub load_speedup: Option<f64>,
    /// Load + scatter-gather curves per shard count (K = 1 first).
    pub shard_sweep: Vec<ShardPoint>,
    /// Match-phase latency per worker count at a fixed shard count.
    pub workers_sweep: Vec<WorkersPoint>,
    /// The `--large-load` section, when requested.
    pub large_load: Option<LargeLoadReport>,
    /// Interned path first, string-keyed baseline second.
    pub paths: Vec<PathReport>,
    /// Hot-path speedup: baseline hot seconds / interned hot seconds.
    pub hot_path_speedup: f64,
    /// Whether both paths returned identical expert rankings for every
    /// query (they must).
    pub results_identical: bool,
}

impl OnlineBenchReport {
    /// Render `BENCH_online.json` (hand-rolled, stable key order, same
    /// contract as the offline and serve reports).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"online\",\n");
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        // Single-core hosts run every sweep point on the same core: the
        // worker/shard curves are not scaling evidence there.
        out.push_str(&format!(
            "  \"degenerate_host\": {},\n",
            self.host_cpus == 1
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!(
            "  \"distinct_queries\": {},\n",
            self.distinct_queries
        ));
        out.push_str(&format!(
            "  \"corpus\": {{\"users\": {}, \"tweets\": {}, \"tokens\": {}}},\n",
            self.corpus_users, self.corpus_tweets, self.corpus_tokens
        ));
        out.push_str(&format!("  \"build_secs\": {:.6},\n", self.build_secs));
        out.push_str(&format!("  \"rebuild_secs\": {:.6},\n", self.rebuild_secs));
        match self.json_load_secs {
            Some(s) => out.push_str(&format!("  \"json_load_secs\": {s:.6},\n")),
            None => out.push_str("  \"json_load_secs\": null,\n"),
        }
        out.push_str(&format!(
            "  \"binary_load_secs\": {:.6},\n",
            self.binary_load_secs
        ));
        out.push_str(&format!("  \"binary_bytes\": {},\n", self.binary_bytes));
        match self.load_speedup {
            Some(s) => out.push_str(&format!("  \"load_speedup\": {s:.2},\n")),
            None => out.push_str("  \"load_speedup\": null,\n"),
        }
        out.push_str("  \"shard_sweep\": [\n");
        for (i, s) in self.shard_sweep.iter().enumerate() {
            let bytes: Vec<String> = s.postings_bytes.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    {{\"shards\": {}, \"save_secs\": {:.4}, \"persisted_bytes\": {}, \
                 \"copy_load_secs\": {:.4}, \"zero_copy_load_secs\": {:.4}, \
                 \"postings_bytes\": [{}], \"skew_max_over_mean\": {:.4}, \
                 \"match_total_secs\": {:.6}, \"match_identical\": {}}}{}\n",
                s.shards,
                s.save_secs,
                s.persisted_bytes,
                s.copy_load_secs,
                s.zero_copy_load_secs,
                bytes.join(", "),
                s.skew_max_over_mean,
                s.match_total_secs,
                s.match_identical,
                if i + 1 < self.shard_sweep.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"workers_sweep\": [\n");
        for (i, w) in self.workers_sweep.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workers\": {}, \"match_total_secs\": {:.6}, \"match_p50_us\": {}, \
                 \"match_p99_us\": {}, \"identical\": {}}}{}\n",
                w.workers,
                w.match_total_secs,
                w.match_p50_us,
                w.match_p99_us,
                w.identical,
                if i + 1 < self.workers_sweep.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        match &self.large_load {
            Some(l) => out.push_str(&format!("  \"large_load\": {},\n", l.to_json_value())),
            None => out.push_str("  \"large_load\": null,\n"),
        }
        out.push_str("  \"paths\": [\n");
        for (i, p) in self.paths.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"hot_secs\": {:.6}, \"hot_qps\": {:.1}, \"expand\": ",
                p.name, p.hot_secs, p.hot_qps
            ));
            p.expand.render(&mut out);
            out.push_str(", \"match\": ");
            p.match_phase.render(&mut out);
            out.push_str(", \"rank\": ");
            p.rank_phase.render(&mut out);
            out.push_str(if i + 1 < self.paths.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"hot_path_speedup\": {:.2},\n",
            self.hot_path_speedup
        ));
        out.push_str(&format!(
            "  \"results_identical\": {}\n",
            self.results_identical
        ));
        out.push_str("}\n");
        out
    }

    /// Terminal summary, one row per path.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "online bench — {} queries ({} distinct, Zipf), scale {}, seed {}, host_cpus={}\n",
            self.queries, self.distinct_queries, self.scale, self.seed, self.host_cpus
        ));
        let vs_json = match self.load_speedup {
            Some(s) => format!("{s:.1}× vs json load"),
            None => "json load unavailable".to_string(),
        };
        out.push_str(&format!(
            "corpus: {} users, {} tweets, {} tokens; build {:.2}s, re-index {:.3}s, binary load {:.3}s ({} bytes, {})\n",
            self.corpus_users,
            self.corpus_tweets,
            self.corpus_tokens,
            self.build_secs,
            self.rebuild_secs,
            self.binary_load_secs,
            self.binary_bytes,
            vs_json,
        ));
        out.push_str("path          hot qps    match p50/p99      rank p50/p99       expand p50\n");
        for p in &self.paths {
            out.push_str(&format!(
                "{:<12} {:>8.0}  {:>7}µs/{:>7}µs  {:>7}µs/{:>7}µs  {:>7}µs\n",
                p.name,
                p.hot_qps,
                p.match_phase.p50_us,
                p.match_phase.p99_us,
                p.rank_phase.p50_us,
                p.rank_phase.p99_us,
                p.expand.p50_us
            ));
        }
        out.push_str(&format!(
            "hot-path speedup {:.2}×, results identical: {}\n",
            self.hot_path_speedup, self.results_identical
        ));
        if !self.shard_sweep.is_empty() {
            out.push_str("shards  save      copy load  zc load    skew    match secs  identical\n");
            for s in &self.shard_sweep {
                out.push_str(&format!(
                    "{:>6}  {:>7.4}s  {:>8.4}s  {:>8.4}s  {:>5.2}×  {:>9.4}s  {}\n",
                    s.shards,
                    s.save_secs,
                    s.copy_load_secs,
                    s.zero_copy_load_secs,
                    s.skew_max_over_mean,
                    s.match_total_secs,
                    s.match_identical,
                ));
            }
        }
        for w in &self.workers_sweep {
            out.push_str(&format!(
                "workers={}: match {:.4}s (p50 {}µs, p99 {}µs), identical: {}\n",
                w.workers, w.match_total_secs, w.match_p50_us, w.match_p99_us, w.identical
            ));
        }
        if let Some(l) = &self.large_load {
            out.push_str(&format!(
                "large load: {} users, {} tweets; generate {:.1}s, save {:.1}s, \
                 copy load {:.3}s vs zero-copy {:.3}s ({:.2}×), identical: {}\n",
                l.users,
                l.tweets,
                l.generate_secs,
                l.save_secs,
                l.copy_load_secs,
                l.zero_copy_load_secs,
                l.zero_copy_speedup,
                l.query_identical,
            ));
        }
        out
    }
}

/// A Zipf(s≈1.1) sampler over the testbed's domain labels (the queries
/// that actually expand), integer fixed-point cumulative weights.
struct ZipfLabels {
    labels: Vec<String>,
    cumulative: Vec<u64>,
    total: u64,
}

impl ZipfLabels {
    fn new(testbed: &Testbed) -> std::io::Result<ZipfLabels> {
        let labels: Vec<String> = testbed
            .world
            .domains
            .iter()
            .take(32)
            .map(|d| d.label.clone())
            .collect();
        if labels.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "testbed produced no domains to query",
            ));
        }
        let mut cumulative = Vec::with_capacity(labels.len());
        let mut total = 0u64;
        for rank in 0..labels.len() {
            let weight = (1e6 / ((rank + 1) as f64).powf(1.1)) as u64;
            total += weight.max(1);
            cumulative.push(total);
        }
        Ok(ZipfLabels {
            labels,
            cumulative,
            total,
        })
    }

    fn sample(&self, rng: &mut StdRng) -> &str {
        let ticket = rng.gen_range(0..self.total);
        let index = self
            .cumulative
            .partition_point(|&c| c <= ticket)
            .min(self.labels.len() - 1);
        &self.labels[index]
    }
}

fn nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Build the testbed, measure corpus load strategies, then replay the
/// query mix through both read paths and compare.
pub fn run(seed: u64, queries: u64, scale: EvalScale) -> std::io::Result<OnlineBenchReport> {
    run_with(seed, queries, scale, false)
}

/// [`run`] with the `--large-load` section toggled: additionally
/// generates the [`esharp_microblog::CorpusConfig::large`] corpus
/// (≥1M users, ≥10M tweets) streamingly and measures sharded save +
/// both load modes on it. Slow and memory-hungry by design; off unless
/// asked for.
pub fn run_with(
    seed: u64,
    queries: u64,
    scale: EvalScale,
    large: bool,
) -> std::io::Result<OnlineBenchReport> {
    let build_started = Instant::now();
    let testbed = Testbed::build(scale, seed);
    let build_secs = build_started.elapsed().as_secs_f64();
    let corpus = &testbed.corpus;
    let esharp = &testbed.esharp;

    // Corpus acquisition: re-index floor, JSON load (when the serializer
    // can round-trip), and the binary load that rebuilds nothing.
    let users = corpus.users().to_vec();
    let tweets = corpus.tweets().to_vec();
    let rebuild_started = Instant::now();
    let rebuilt = Corpus::new(users, tweets);
    let rebuild_secs = rebuild_started.elapsed().as_secs_f64();
    assert_eq!(rebuilt.num_tokens(), corpus.num_tokens());
    drop(rebuilt);

    let dir = std::env::temp_dir().join(format!("esharp_online_bench_{seed}"));
    std::fs::create_dir_all(&dir)?;
    let bin_path = dir.join("corpus.bin");
    corpus.save_binary(&bin_path)?;
    let binary_bytes = std::fs::metadata(&bin_path)?.len();
    let bin_load_started = Instant::now();
    let from_bin = Corpus::load(&bin_path)?;
    let binary_load_secs = bin_load_started.elapsed().as_secs_f64();
    assert_eq!(from_bin.tweets().len(), corpus.tweets().len());
    drop(from_bin);

    let json_path = dir.join("corpus.json");
    let json_load_secs = corpus.save(&json_path).ok().and_then(|()| {
        let started = Instant::now();
        Corpus::load(&json_path)
            .ok()
            .map(|loaded| {
                assert_eq!(loaded.tweets().len(), corpus.tweets().len());
                started.elapsed().as_secs_f64()
            })
    });
    let _ = std::fs::remove_dir_all(&dir);
    // Only a real binary-vs-JSON ratio: when the JSON path didn't run
    // there is nothing honest to divide by (the old report divided by the
    // re-index floor here and labeled it a load speedup).
    let load_speedup = json_load_secs.map(|j| j / binary_load_secs.max(1e-9));

    // Replay the same deterministic query sequence through both paths.
    let zipf = ZipfLabels::new(&testbed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let sequence: Vec<&str> = (0..queries).map(|_| zipf.sample(&mut rng)).collect();

    let baseline = StringKeyedBaseline::build(corpus);
    let detector = Detector::new(corpus, esharp.config().detector.clone());
    let max_terms = esharp.config().max_expansion_terms;

    // Expected experts per distinct query, computed before any timing.
    // Both timed loops compare every reply against this fixed table, so
    // the comparison work is identical on both sides and neither loop
    // accumulates memory as it runs.
    let expected: HashMap<&str, Vec<esharp_expert::ExpertResult>> = zipf
        .labels
        .iter()
        .map(|q| (q.as_str(), esharp.search(corpus, q).experts))
        .collect();
    let mut results_identical = true;

    // Each path is measured alone, immediately after its own warmup pass
    // over every distinct query: in production exactly one index is
    // resident, so interleaving the two paths would charge both with
    // cache evictions caused by the other.
    let mut interned_expand = Vec::with_capacity(sequence.len());
    let mut interned_match = Vec::with_capacity(sequence.len());
    let mut interned_rank = Vec::with_capacity(sequence.len());
    for q in &zipf.labels {
        results_identical &= esharp.search(corpus, q).experts == expected[q.as_str()];
    }
    for q in &sequence {
        let outcome = esharp.search(corpus, q);
        interned_expand.push(u64::try_from(outcome.expansion_time.as_nanos()).unwrap_or(u64::MAX));
        interned_match.push(u64::try_from(outcome.match_time.as_nanos()).unwrap_or(u64::MAX));
        interned_rank.push(u64::try_from(outcome.rank_time.as_nanos()).unwrap_or(u64::MAX));
        results_identical &= outcome.experts == expected[*q];
    }

    let mut base_expand = Vec::with_capacity(sequence.len());
    let mut base_match = Vec::with_capacity(sequence.len());
    let mut base_rank = Vec::with_capacity(sequence.len());
    for q in &zipf.labels {
        let expansion = esharp.domains().expand(q, max_terms);
        let matched = baseline.match_terms(&expansion);
        results_identical &=
            detector.rank_candidates_reference(&matched) == expected[q.as_str()];
    }
    for q in &sequence {
        let started = Instant::now();
        let expansion = esharp.domains().expand(q, max_terms);
        base_expand.push(nanos(started));
        let started = Instant::now();
        let matched = baseline.match_terms(&expansion);
        base_match.push(nanos(started));
        let started = Instant::now();
        let experts = detector.rank_candidates_reference(&matched);
        base_rank.push(nanos(started));
        results_identical &= experts == expected[*q];
    }

    let path_report = |name, expand: Vec<u64>, matching: Vec<u64>, rank: Vec<u64>| {
        let match_phase = PhaseStats::from_samples(matching);
        let rank_phase = PhaseStats::from_samples(rank);
        let hot_secs = (match_phase.total_secs + rank_phase.total_secs).max(1e-9);
        PathReport {
            name,
            expand: PhaseStats::from_samples(expand),
            match_phase,
            rank_phase,
            hot_secs,
            hot_qps: queries as f64 / hot_secs,
        }
    };
    let interned = path_report("interned", interned_expand, interned_match, interned_rank);
    let string_keyed = path_report("string_keyed", base_expand, base_match, base_rank);
    let hot_path_speedup = string_keyed.hot_secs / interned.hot_secs;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Shard sweep: persistence + load modes + scatter-gather vs K ---
    //
    // Expansions are precomputed per distinct label so the timed loops
    // measure only the match phase, and the serial K=1 union is the
    // single source of truth every configuration must reproduce
    // bit-identically.
    let expansions: HashMap<&str, Vec<String>> = zipf
        .labels
        .iter()
        .map(|q| (q.as_str(), esharp.domains().expand(q, max_terms)))
        .collect();
    let serial_matches: HashMap<&str, Vec<TweetId>> = zipf
        .labels
        .iter()
        .map(|q| {
            (
                q.as_str(),
                corpus.match_terms_with(&expansions[q.as_str()], 1),
            )
        })
        .collect();

    let shard_dir = std::env::temp_dir().join(format!("esharp_online_shards_{seed}"));
    let mut shard_sweep = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let kdir = shard_dir.join(format!("k{k}"));
        std::fs::create_dir_all(&kdir)?;
        let manifest = kdir.join("corpus.manifest");
        let started = Instant::now();
        corpus.save_sharded(&manifest, k)?;
        let save_secs = started.elapsed().as_secs_f64();
        let persisted_bytes: u64 = std::fs::read_dir(&kdir)?
            .flatten()
            .filter_map(|entry| entry.metadata().ok())
            .map(|meta| meta.len())
            .sum();

        let started = Instant::now();
        let copied = esharp_microblog::segio::load_sharded(
            &manifest,
            esharp_microblog::LoadMode::Copy,
        )?;
        let copy_load_secs = started.elapsed().as_secs_f64();
        let mut match_identical = true;
        for q in &zipf.labels {
            let expansion = &expansions[q.as_str()];
            match_identical &=
                copied.match_terms_with(expansion, host_cpus) == serial_matches[q.as_str()];
        }
        drop(copied);

        let started = Instant::now();
        let zc = esharp_microblog::segio::load_sharded(
            &manifest,
            esharp_microblog::LoadMode::ZeroCopy,
        )?;
        let zero_copy_load_secs = started.elapsed().as_secs_f64();
        for q in &zipf.labels {
            let expansion = &expansions[q.as_str()];
            match_identical &=
                zc.match_terms_with(expansion, host_cpus) == serial_matches[q.as_str()];
        }
        let started = Instant::now();
        for q in &sequence {
            let _ = zc.match_terms_with(&expansions[*q], host_cpus);
        }
        let match_total_secs = started.elapsed().as_secs_f64();
        let postings_bytes = zc.shard_postings_bytes();
        let total: u64 = postings_bytes.iter().sum();
        let skew_max_over_mean = if total == 0 {
            1.0
        } else {
            let max = postings_bytes.iter().copied().max().unwrap_or(0);
            max as f64 * postings_bytes.len() as f64 / total as f64
        };
        results_identical &= match_identical;
        shard_sweep.push(ShardPoint {
            shards: zc.shard_count(),
            save_secs,
            persisted_bytes,
            copy_load_secs,
            zero_copy_load_secs,
            postings_bytes,
            skew_max_over_mean,
            match_total_secs,
            match_identical,
        });
    }
    let _ = std::fs::remove_dir_all(&shard_dir);

    // --- Workers sweep at a fixed shard count (in-memory reshard) ---
    let mut resharded = corpus.clone();
    resharded.reshard(4.min(host_cpus.max(1)).max(2));
    let mut workers_sweep = Vec::new();
    for w in 1..=host_cpus {
        let mut identical = true;
        for q in &zipf.labels {
            identical &= resharded.match_terms_with(&expansions[q.as_str()], w)
                == serial_matches[q.as_str()];
        }
        let mut samples = Vec::with_capacity(sequence.len());
        for q in &sequence {
            let started = Instant::now();
            let _ = resharded.match_terms_with(&expansions[*q], w);
            samples.push(nanos(started));
        }
        let stats = PhaseStats::from_samples(samples);
        results_identical &= identical;
        workers_sweep.push(WorkersPoint {
            workers: w,
            match_total_secs: stats.total_secs,
            match_p50_us: stats.p50_us,
            match_p99_us: stats.p99_us,
            identical,
        });
    }
    drop(resharded);

    // --- Optional large-scale section (≥1M users, ≥10M tweets) ---
    let large_load = if large {
        Some(run_large_load(&testbed, seed, &zipf, &expansions, host_cpus)?)
    } else {
        None
    };

    Ok(OnlineBenchReport {
        host_cpus,
        seed,
        scale: format!("{scale:?}").to_lowercase(),
        queries,
        distinct_queries: zipf.labels.len(),
        corpus_users: corpus.users().len(),
        corpus_tweets: corpus.tweets().len(),
        corpus_tokens: corpus.num_tokens(),
        build_secs,
        rebuild_secs,
        json_load_secs,
        binary_load_secs,
        binary_bytes,
        load_speedup,
        shard_sweep,
        workers_sweep,
        large_load,
        paths: vec![interned, string_keyed],
        hot_path_speedup,
        results_identical,
    })
}

/// The `--large-load` measurement: generate the large synthetic corpus
/// streamingly, persist it sharded, and time both load modes. The two
/// loads parse the same global frames and run the same validation, so
/// the ratio isolates arena materialization — what zero-copy removes.
fn run_large_load(
    testbed: &Testbed,
    seed: u64,
    zipf: &ZipfLabels,
    expansions: &HashMap<&str, Vec<String>>,
    host_cpus: usize,
) -> std::io::Result<LargeLoadReport> {
    const LARGE_SHARDS: usize = 4;
    let config = esharp_microblog::CorpusConfig::large(seed);
    let started = Instant::now();
    let large = esharp_microblog::generate_corpus_streaming(&testbed.world, &config);
    let generate_secs = started.elapsed().as_secs_f64();

    let dir = std::env::temp_dir().join(format!("esharp_online_large_{seed}"));
    std::fs::create_dir_all(&dir)?;
    let manifest = dir.join("corpus.manifest");
    let started = Instant::now();
    large.save_sharded(&manifest, LARGE_SHARDS)?;
    let save_secs = started.elapsed().as_secs_f64();
    let persisted_bytes: u64 = std::fs::read_dir(&dir)?
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum();

    // Parity probes: the large corpus shares the domain world, so the
    // bench's own query labels are meaningful here too.
    let probes: Vec<&str> = zipf.labels.iter().take(4).map(|q| q.as_str()).collect();
    let expected: Vec<Vec<TweetId>> = probes
        .iter()
        .map(|q| large.match_terms_with(&expansions[*q], 1))
        .collect();

    let started = Instant::now();
    let copied = esharp_microblog::segio::load_sharded(
        &manifest,
        esharp_microblog::LoadMode::Copy,
    )?;
    let copy_load_secs = started.elapsed().as_secs_f64();
    let mut query_identical = true;
    for (q, want) in probes.iter().zip(&expected) {
        query_identical &= &copied.match_terms_with(&expansions[*q], host_cpus) == want;
    }
    drop(copied);

    let started = Instant::now();
    let zc = esharp_microblog::segio::load_sharded(
        &manifest,
        esharp_microblog::LoadMode::ZeroCopy,
    )?;
    let zero_copy_load_secs = started.elapsed().as_secs_f64();
    for (q, want) in probes.iter().zip(&expected) {
        query_identical &= &zc.match_terms_with(&expansions[*q], host_cpus) == want;
    }

    let report = LargeLoadReport {
        users: large.users().len(),
        tweets: large.tweets().len(),
        tokens: large.num_tokens(),
        generate_secs,
        shards: zc.shard_count(),
        save_secs,
        persisted_bytes,
        copy_load_secs,
        zero_copy_load_secs,
        zero_copy_speedup: copy_load_secs / zero_copy_load_secs.max(1e-9),
        query_identical,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_baseline_matches_interned_corpus() {
        let testbed = Testbed::build(EvalScale::Tiny, 17);
        let corpus = &testbed.corpus;
        let baseline = StringKeyedBaseline::build(corpus);
        for q in ["49ers", "diabetes", "nonexistent zz", ""] {
            assert_eq!(baseline.match_query(q), corpus.match_query(q), "query {q:?}");
        }
        let terms = vec!["49ers".to_string(), "diabetes".to_string()];
        assert_eq!(
            baseline.match_terms(&terms),
            corpus.match_terms_with(&terms, 1)
        );
    }

    #[test]
    fn a_small_run_reports_identical_results_and_shaped_json() {
        let report = run(11, 150, EvalScale::Tiny).expect("bench run");
        assert_eq!(report.queries, 150);
        assert!(report.results_identical, "paths diverged");
        assert_eq!(report.paths.len(), 2);
        assert!(report.paths.iter().all(|p| p.hot_qps > 0.0));
        assert!(report.hot_path_speedup > 0.0);
        assert!(report.binary_load_secs > 0.0 && report.binary_bytes > 0);
        assert_eq!(
            report.load_speedup.is_some(),
            report.json_load_secs.is_some(),
            "load_speedup must be reported on the binary-vs-JSON basis or not at all"
        );
        assert_eq!(report.shard_sweep.len(), 4);
        assert!(report.shard_sweep.iter().all(|p| p.match_identical));
        assert!(report
            .shard_sweep
            .iter()
            .zip([1usize, 2, 4, 8])
            .all(|(p, k)| p.shards == k && p.postings_bytes.len() == k));
        assert_eq!(report.workers_sweep.len(), report.host_cpus);
        assert!(report.workers_sweep.iter().all(|p| p.identical));
        assert!(report.large_load.is_none(), "tiny run must skip large-load");
        let json = report.to_json();
        for needle in [
            "\"bench\": \"online\"",
            "\"name\": \"interned\"",
            "\"name\": \"string_keyed\"",
            "\"hot_path_speedup\":",
            "\"binary_load_secs\":",
            "\"results_identical\": true",
            "\"shard_sweep\": [",
            "\"workers_sweep\": [",
            "\"skew_max_over_mean\":",
            "\"zero_copy_load_secs\":",
            "\"large_load\": null",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!report.render_table().is_empty());
    }

    #[test]
    fn quantiles_are_nearest_rank_exact() {
        assert_eq!(quantile(&[], 0.5), 0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
    }
}
