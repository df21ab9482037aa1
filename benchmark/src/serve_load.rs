//! The three read-only serve workloads: `search_uncached`,
//! `search_cached` and `search_batch`.

use crate::affinity::Turns;
use crate::client::{run_phase, Load, Pace, PhaseOutcome, PreparedRequest, Verdict};
use crate::fixtures::{self, OnlineFixture, QueryOrder, Scale, BATCH_SIZE};
use crate::host::nproc;
use crate::replay::{self, Online, ServerSteps};
use crate::report::Report;
use crate::rig::{self, Rig};
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::Options;
use esharp_microblog::{segio, Corpus, LoadMode};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Open-phase send rate per connection. With one connection per
/// processor this is ~46% of the closed-loop capacity measured on the
/// seed code (2,170 req/s on 2 connections); it is a constant so that a
/// faster or slower program is offered the same load.
pub const OPEN_RATE_PER_CONNECTION: f64 = 500.0;

/// Spans kept per traced run; the replay stops early once it has them
/// (the cached mix replays in microseconds and would fill memory).
const MAX_SPANS: usize = 250_000;

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /search` over `queries_uncached`: match and rank do the work.
    Uncached,
    /// `GET /search` over `queries_cached`: the serve layer does the work.
    Cached,
    /// `POST /search/batch`, 16 consecutive uncached queries per body.
    Batch,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Uncached => "search_uncached",
            Kind::Cached => "search_cached",
            Kind::Batch => "search_batch",
        }
    }
}

fn median_of(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples).unwrap_or(0.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_secs_f64()
}

/// The persistence-layer timings (`microblog.*_s`, `core.domains_*_s`),
/// each the median of three. They feed `setup_s` and `restart_s`.
fn persistence_metrics(fixture: &OnlineFixture, dir: &Path) -> Vec<(&'static str, f64)> {
    let corpus = &fixture.corpus;
    let io = |result: std::io::Result<()>| result.expect("persisting the fixture corpus");
    let binary = dir.join("layer-corpus.bin");
    let manifest = dir.join("layer-sharded").join("corpus.manifest");
    let domains_path = dir.join("layer-domains.bin");
    let shards = nproc();
    let reps = 3;
    let index_build_s = median_of(
        || {
            let (users, tweets) = (corpus.users().to_vec(), corpus.tweets().to_vec());
            timed(|| Corpus::new(users, tweets))
        },
        reps,
    );
    let save_s = median_of(|| timed(|| io(corpus.save_binary(&binary))), reps);
    let load_s = median_of(|| timed(|| Corpus::load(&binary).expect("load")), reps);
    let save_sharded_s = median_of(
        || timed(|| io(corpus.save_sharded(&manifest, shards))),
        reps,
    );
    let load_copy_s = median_of(
        || timed(|| segio::load_sharded(&manifest, LoadMode::Copy).expect("load copy")),
        reps,
    );
    let load_zero_copy_s = median_of(
        || timed(|| segio::load_sharded(&manifest, LoadMode::ZeroCopy).expect("load zero-copy")),
        reps,
    );
    let domains_save_s = median_of(|| timed(|| io(fixture.domains.save(&domains_path))), reps);
    let domains_load_s = median_of(
        || timed(|| esharp_core::DomainCollection::load(&domains_path).expect("load domains")),
        reps,
    );
    let persisted_bytes = std::fs::metadata(&binary).map_or(0, |m| m.len());
    vec![
        ("microblog.index_build_s", index_build_s),
        ("microblog.save_s", save_s),
        ("microblog.load_s", load_s),
        ("microblog.save_sharded_s", save_sharded_s),
        ("microblog.load_copy_s", load_copy_s),
        ("microblog.load_zero_copy_s", load_zero_copy_s),
        ("microblog.persisted_bytes", persisted_bytes as f64),
        ("microblog.corpus_bytes", corpus.byte_size() as f64),
        ("core.domains_save_s", domains_save_s),
        ("core.domains_load_s", domains_load_s),
    ]
}

/// Span name → per-layer metric name.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("serve.parse_request", "serve.parse_request_us"),
    ("serve.cache_get", "serve.cache_get_us"),
    ("serve.cache_insert", "serve.cache_insert_us"),
    ("serve.render_body", "serve.render_body_us"),
    ("serve.render_response", "serve.render_response_us"),
    ("core.expand", "core.expand_us"),
    ("microblog.match_batch", "microblog.match_batch_us"),
    ("expert.rank", "expert.rank_us"),
    ("expert.rank_batch", "expert.rank_batch_us"),
];

/// What a workload's clients send and what each request must be
/// answered with.
struct Traffic {
    requests: Vec<PreparedRequest>,
    /// The exact body each request must get, by request index.
    expected: Vec<Vec<u8>>,
    /// Indices into `requests`, cycled.
    sequence: Vec<usize>,
}

impl Traffic {
    /// `GET /search` per query; `bodies[i]` answers `queries[i]`.
    fn singles(queries: &[String], bodies: Vec<Vec<u8>>, sequence: Vec<usize>) -> Traffic {
        Traffic {
            requests: queries.iter().map(|q| PreparedRequest::search(q)).collect(),
            expected: bodies,
            sequence,
        }
    }

    /// `POST /search/batch` per [`BATCH_SIZE`] consecutive queries; a
    /// body must equal the envelope around its queries' single bodies.
    fn batches(queries: &[String], bodies: &[Vec<u8>], online: Online<'_>) -> Traffic {
        let requests: Vec<PreparedRequest> = queries
            .chunks(BATCH_SIZE)
            .map(|chunk| {
                PreparedRequest::post("/search/batch", &chunk.join("\n"), chunk.len() as u64)
            })
            .collect();
        let expected = bodies
            .chunks(BATCH_SIZE)
            .map(|chunk| {
                let singles: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                replay::batch_envelope(online.epoch, online.corpus_epoch, &singles)
            })
            .collect();
        Traffic {
            sequence: (0..requests.len()).collect(),
            requests,
            expected,
        }
    }
}

struct HttpResult {
    /// One connection, back to back, one processor at a time: the gated
    /// phase.
    closed: PhaseOutcome,
    /// Traced run only: one connection per processor, back to back.
    capacity: Option<PhaseOutcome>,
    /// Traced run of `search_uncached` only: paced sends.
    open: Option<PhaseOutcome>,
    hits: u64,
    hit_rate: f64,
    shed: u64,
    batch_queries: u64,
}

/// Warm up, then run the workload's load phases against the server for
/// `budget` in total.
///
/// The untraced run spends all of it on the gated phase: one connection
/// sending back to back while the process takes its processors in turns
/// (see [`crate::affinity`]). The traced run adds the two phases that
/// load every processor at once and are therefore reported, not gated:
/// one connection per processor (capacity), and for `search_uncached`
/// the paced phase.
fn http_phases(
    kind: Kind,
    opts: &Options,
    rig: &Rig,
    traffic: &Traffic,
    turns: &Turns,
    report: &mut Report,
) -> HttpResult {
    let cursor = AtomicUsize::new(0);
    let never = AtomicBool::new(false);
    let check = |index: usize, body: &[u8]| {
        if body == traffic.expected[index].as_slice() {
            Verdict::Correct
        } else {
            Verdict::Wrong
        }
    };
    let load = Load {
        addr: rig.addr(),
        requests: &traffic.requests,
        sequence: &traffic.sequence,
        cursor: &cursor,
        check: &check,
        turns: Some(turns),
    };
    let warm = run_phase(
        "warmup",
        &load,
        1,
        Pace::Closed,
        rig::warmup(opts.scale),
        &never,
    );
    report.check(
        "warmup_all_correct",
        warm.failed() == 0 && warm.ok > 0,
        format!("{} ok, {} failed", warm.ok, warm.failed()),
    );
    let metrics = rig.metrics();
    let counters = || {
        (
            metrics.cache_hits.load(Relaxed),
            metrics.cache_misses.load(Relaxed),
        )
    };
    let before = counters();
    let budget = Duration::from_secs(opts.seconds);
    let (closed_for, capacity_for, open_for) = match (opts.trace, kind) {
        (false, _) => (budget, None, None),
        (true, Kind::Uncached) => (budget / 8, Some(budget / 16), Some(budget / 16)),
        (true, Kind::Cached | Kind::Batch) => (budget / 8, Some(budget / 8), None),
    };
    let closed = run_phase("closed", &load, 1, Pace::Closed, closed_for, &never);
    turns.release();
    let capacity = capacity_for
        .map(|duration| run_phase("capacity", &load, nproc(), Pace::Closed, duration, &never));
    let open = open_for.map(|duration| {
        let pace = Pace::Open {
            per_connection: OPEN_RATE_PER_CONNECTION,
        };
        run_phase("open", &load, nproc(), pace, duration, &never)
    });
    let after = counters();
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    HttpResult {
        closed,
        capacity,
        open,
        hits,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        shed: metrics.shed_total.load(Relaxed),
        batch_queries: metrics.batch_queries.load(Relaxed),
    }
}

/// What the in-process replay of a workload's requests produced.
struct Replayed {
    tracer: Tracer,
    /// Requests replayed, traced or not.
    requests: usize,
    /// Replayed bodies that differ from the oracle's.
    wrong: usize,
    /// (traced − untraced) / untraced time of a pass over the requests.
    trace_overhead_share: f64,
}

/// Replay the workload's request sequence through [`ServerSteps`],
/// alternating untraced and traced passes until `until` (at least one of
/// each).
fn replay_passes(kind: Kind, online: Online<'_>, traffic: &Traffic, until: Instant) -> Replayed {
    // One pass is the whole sequence, except that of the Zipf stream a
    // pass takes the first 20,000: enough to see every query many times,
    // short enough to repeat.
    let pass: Vec<usize> = match kind {
        Kind::Cached => traffic.sequence.iter().take(20_000).copied().collect(),
        Kind::Uncached | Kind::Batch => traffic.sequence.clone(),
    };
    let mut tracer = Tracer::new(true);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut wrong, mut requests) = (0, 0);
    loop {
        for traced in [false, true] {
            // Cold server state per pass, so both kinds of pass do the
            // same work and the miss path is sampled on every workload.
            let steps = ServerSteps::new(online);
            let mut off = Tracer::new(false);
            let tracer = if traced { &mut tracer } else { &mut off };
            let started = Instant::now();
            for &index in &pass {
                let raw = &traffic.requests[index].raw;
                let correct = match kind {
                    Kind::Batch => steps.batch(tracer, raw) == traffic.expected[index],
                    _ => *steps.single(tracer, raw) == traffic.expected[index],
                };
                wrong += usize::from(!correct);
            }
            let elapsed = started.elapsed().as_secs_f64();
            (if traced { &mut traced_s } else { &mut plain_s }).push(elapsed);
            requests += pass.len();
        }
        if Instant::now() >= until || tracer.spans().len() >= MAX_SPANS {
            break;
        }
    }
    let plain = median(&plain_s).unwrap_or(0.0);
    Replayed {
        tracer,
        requests,
        wrong,
        trace_overhead_share: (median(&traced_s).unwrap_or(0.0) - plain)
            / plain.max(f64::MIN_POSITIVE),
    }
}

/// Run one of the three workloads.
pub fn run(kind: Kind, opts: &Options) -> Report {
    let mut report = Report::new(kind.name(), opts);
    let full = opts.scale == Scale::Full;
    let workers = nproc();
    report.server_workers = workers;
    let dir = opts.out_dir.join(kind.name());

    let fixture = fixtures::corpus_1m(opts.scale);
    report.fixture_generation_s = fixture.generation_s;
    let (queries, sequence) = match kind {
        Kind::Uncached | Kind::Batch => {
            let order = if kind == Kind::Batch {
                QueryOrder::Neighbours
            } else {
                QueryOrder::Independent
            };
            let queries = fixtures::queries_uncached(&fixture.domains, opts.seed, order);
            let sequence = (0..queries.len()).collect();
            (queries, sequence)
        }
        Kind::Cached => fixtures::queries_cached(&fixture.world, opts.seed),
    };

    // One processor at a time from here on: set-up, oracle and the gated
    // phase (see `affinity`).
    let turns = Turns::new();
    let (rig, samples) = rig::repeat_setup(rig::SETUP_REPS, &turns, || {
        rig::setup_static(
            &fixture.corpus,
            &fixture.domains,
            &fixture.config,
            &dir,
            workers,
        )
    })
    .expect("set-up: persist, load, start server");
    report.setup_samples_s = samples;
    let persistence = if opts.trace && kind == Kind::Uncached {
        persistence_metrics(&fixture, &dir)
    } else {
        Vec::new()
    };
    // From here on the server's loaded copy is the only corpus. The
    // files go now, so that writing them back does not fall into the
    // measured phase.
    drop(fixture);
    let _ = std::fs::remove_dir_all(&dir);

    let live = std::sync::Arc::clone(&rig.live);
    let guard = live.read();
    let (esharp, epoch) = rig.shared.snapshot();
    let online = Online {
        corpus: guard.corpus(),
        esharp: &esharp,
        epoch,
        corpus_epoch: guard.epoch(),
    };
    // The oracle: every query answered in-process, before any load.
    let mut counts = replay::count_pass(online, &queries);
    let traffic = match kind {
        Kind::Uncached | Kind::Cached => {
            Traffic::singles(&queries, std::mem::take(&mut counts.bodies), sequence)
        }
        Kind::Batch => Traffic::batches(&queries, &counts.bodies, online),
    };

    let http = http_phases(kind, opts, &rig, &traffic, &turns, &mut report);
    drop(rig.shutdown());
    let (closed, capacity, open) = (http.closed, http.capacity, http.open);
    for phase in [Some(&closed), capacity.as_ref(), open.as_ref()]
        .into_iter()
        .flatten()
    {
        report.phase(phase.clone());
    }

    // The workload's separation: which layer does the work.
    if full {
        let (passed, want) = match kind {
            Kind::Cached => (http.hit_rate >= 0.99, ">= 0.99"),
            // Not one: a request's best repetition must not be a cached
            // one.
            Kind::Uncached | Kind::Batch => (http.hits == 0, "0"),
        };
        report.check(
            "cache_hit_rate_separates",
            passed,
            format!("{:.5} ({} hits), want {want}", http.hit_rate, http.hits),
        );
    }
    report.check(
        "nothing_shed",
        http.shed == 0,
        format!("{} shed", http.shed),
    );

    // Under the names the defining issue gave them, as it defined them:
    // over every sample of the phase.
    report.name("search_qps", closed.queries_per_s(), "1/s");
    report.name("search_p50_us", closed.latency_us.p50, "us");
    report.name("search_p99_us", closed.latency_us.p99_or_max(), "us");
    if let Some(open) = &open {
        report.name("search_open_p50_us", open.latency_us.p50, "us");
        report.name("search_open_p95_us", open.latency_us.p95_or_max(), "us");
        report.name("bench.open_lag_p99_us", open.lag_us.p99_or_max(), "us");
    }
    report.name("serve.cache_hit_rate", http.hit_rate, "ratio");
    report.name(
        "core.results_checksum",
        f64::from(counts.results_checksum),
        "count",
    );

    if !opts.trace {
        // Gated on every distinct request at its best repetition (see
        // `stats::PerRequest`).
        report.end_to_end(closed.best_qps, closed.best_p50_us, closed.best_p95_us);
        return report;
    }

    // ---- Traced run: replay the server's steps in-process, one thread.
    turns.next();
    let replayed = replay_passes(
        kind,
        online,
        &traffic,
        Instant::now() + Duration::from_secs(opts.seconds) * 3 / 4,
    );
    report.attempted += replayed.requests as u64;
    report.failed += replayed.wrong as u64;
    report.check(
        "replay_matches_oracle",
        replayed.wrong == 0,
        format!(
            "{} of {} replayed bodies differ",
            replayed.wrong, replayed.requests
        ),
    );

    // The budget: the median replayed request split over the steps it
    // took, plus what the client saw and no step accounts for.
    let (budget, budget_sum) = spans::request_budget_us(replayed.tracer.spans());
    for &(name, value) in &budget {
        report.name(&format!("budget.{name}_us"), value, "us");
    }
    let client_p50 = closed.latency_us.p50;
    let match_rank: f64 = budget
        .iter()
        .filter(|(name, _)| name.starts_with("microblog.") || name.starts_with("expert."))
        .map(|&(_, v)| v)
        .sum();
    let share = match_rank / client_p50.max(f64::MIN_POSITIVE);
    if full {
        let (passed, want) = match kind {
            Kind::Uncached => (share >= 0.60, ">= 0.60"),
            // Every replay pass starts with a cold cache, so its 32
            // misses (~1 ms each) are ~0.9 µs of the median replayed
            // request, 5% of a client median of 16-19 µs.
            Kind::Cached => (share <= 0.10, "<= 0.10"),
            Kind::Batch => (true, "unconstrained"),
        };
        report.check(
            "match_rank_share_separates",
            passed,
            format!("{share:.3}, want {want}"),
        );
    }
    let mut measured: Vec<(&str, f64)> = SPAN_METRICS
        .iter()
        .map(|&(span, metric)| (metric, spans::row(&budget, span)))
        .collect();
    measured.extend([
        ("serve.cache_hit_rate", http.hit_rate),
        ("serve.shed_count", http.shed as f64),
        ("serve.batch_queries", http.batch_queries as f64),
        ("serve.client_p50_us", client_p50),
        ("serve.unattributed_us", client_p50 - budget_sum),
        ("bench.budget_sum_us", budget_sum),
        ("bench.matchrank_share_of_p50", share),
        ("bench.trace_overhead_share", replayed.trace_overhead_share),
        ("bench.closed_qps", closed.queries_per_s()),
        (
            "bench.capacity_qps",
            capacity.as_ref().map_or(0.0, PhaseOutcome::queries_per_s),
        ),
        ("bench.closed_p50_us", closed.latency_us.p50),
        ("bench.closed_p99_us", closed.latency_us.p99_or_max()),
        ("bench.spans", replayed.tracer.spans().len() as f64),
        ("bench.replayed_requests", replayed.requests as f64),
        ("core.results_checksum", f64::from(counts.results_checksum)),
        ("core.expansion_terms_per_query", counts.expansion_terms),
        (
            "microblog.postings_walked_per_query",
            counts.postings_walked,
        ),
        ("microblog.matched_tweets_per_query", counts.matched_tweets),
        ("expert.experts_returned_per_query", counts.experts_returned),
    ]);
    if let Some(open) = &open {
        measured.extend([
            ("bench.open_p50_us", open.latency_us.p50),
            ("bench.open_p95_us", open.latency_us.p95_or_max()),
            ("bench.open_lag_p99_us", open.lag_us.p99_or_max()),
        ]);
    }
    match kind {
        Kind::Uncached => {
            let whole = replay::whole_call_pass(online, &queries, &counts.expansions);
            let m = |v: &[f64]| median(v).unwrap_or(0.0);
            measured.extend([
                ("core.search_bounded_us", m(&whole.search_bounded_us)),
                ("core.search_self_us", m(&whole.search_self_us)),
                ("microblog.match_us", m(&whole.match_us)),
                ("microblog.match_bounded_us", m(&whole.match_bounded_us)),
            ]);
            measured.extend(persistence);
        }
        Kind::Cached => {}
        Kind::Batch => {
            let whole = replay::search_batch_pass(online, &queries);
            measured.extend([
                ("core.search_batch_us", median(&whole).unwrap_or(0.0)),
                (
                    "microblog.batch_shared_term_share",
                    replay::shared_term_share(&counts.expansions),
                ),
            ]);
        }
    }
    replayed
        .tracer
        .write(&opts.out_dir.join(format!("trace-{}.json", kind.name())))
        .expect("writing the span file");
    report.per_layer(&measured);
    report
}
