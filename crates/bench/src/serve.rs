//! Closed-loop load generator for the serving layer (`esharp bench
//! --serve`).
//!
//! Boots an in-process [`esharp_serve::Server`] on an ephemeral port and
//! replays a Zipf-distributed query mix from closed-loop client threads
//! (each client issues its next request only after reading the previous
//! response — throughput is an *achieved* number, not an offered one).
//! Phases:
//!
//! * **steady** — 4 workers, default queue, one connection per request
//!   (`Connection: close`): the pre-event-loop baseline.
//! * **steady_keepalive** — same load, but every client holds one
//!   persistent connection: measures what connection reuse buys.
//! * **steady_pipelined** — persistent connections, requests written in
//!   back-to-back bursts before reading any response: measures the
//!   incremental parser + write-coalescing path under pipelining.
//! * **overload** — 1 worker, a 2-deep queue, 4× the clients: drives the
//!   admission queue into saturation and measures the shed rate plus the
//!   latency of the requests that *were* admitted (shedding must protect
//!   them, not just the server).
//! * **batch_sequential / batch_16** — cache off (every query pays for a
//!   real detection), same query stream: singles over keep-alive vs
//!   `POST /search/batch` at 16 queries per request. The batch planner
//!   shares posting-list traversals across a batch's distinct terms, so
//!   batch throughput (measured in queries/s, same unit as sequential)
//!   must win uncached.
//! * **chaos** — a resharded corpus with one shard's primary attempt
//!   delayed by injected chaos, cache off, every request aimed at that
//!   shard (via `term_home_shard`): measures the 1-slow-shard p99
//!   regression against a sharded baseline, then re-runs with hedging
//!   on. The acceptance gate is that hedging recovers at least half of
//!   the regression.
//!
//! Every phase records its client discipline (`keep_alive`,
//! `pipeline_depth`, `batch_size`) in the JSON so a report can never
//! pass off pipelined numbers as one-shot numbers.
//!
//! `to_json` renders `BENCH_serve.json` by hand, like the offline report.

use esharp_core::{Esharp, SharedEsharp};
use esharp_eval::{EvalScale, Testbed};
use esharp_fault::{ChaosFault, ChaosPlan, NoFaults};
use esharp_ingest::LiveCorpus;
use esharp_serve::http::percent_encode;
use esharp_serve::{ServeConfig, ServeHooks, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a phase's closed-loop clients speak HTTP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One connection per request, `Connection: close`.
    OneShot,
    /// One persistent connection per client, strictly serial requests.
    KeepAlive,
    /// One persistent connection per client; requests written in bursts
    /// of up to `depth` before reading any response.
    Pipelined(usize),
}

impl LoadMode {
    fn keep_alive(self) -> bool {
        !matches!(self, LoadMode::OneShot)
    }

    fn pipeline_depth(self) -> usize {
        match self {
            LoadMode::Pipelined(depth) => depth.max(1),
            _ => 1,
        }
    }
}

/// Measured results of one load phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`steady` / `overload` / …).
    pub name: &'static str,
    /// Server worker threads.
    pub workers: usize,
    /// Admission queue depth.
    pub queue_depth: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Whether clients reused connections (false = one per request).
    pub keep_alive: bool,
    /// Requests written back-to-back before reading (1 = serial).
    pub pipeline_depth: usize,
    /// Queries per request (1 = `GET /search`, >1 = `POST /search/batch`).
    pub batch_size: usize,
    /// Queries completed with `200` (for batch phases each accepted
    /// request counts `batch_size` queries, so `throughput_rps` is
    /// queries/s in every phase and the phases are comparable).
    pub ok: u64,
    /// Requests answered `503` (shed).
    pub shed: u64,
    /// Transport or unexpected-status failures.
    pub errors: u64,
    /// Wall time of the phase in seconds.
    pub elapsed_secs: f64,
    /// Completed (`200`) requests per second.
    pub throughput_rps: f64,
    /// Median latency of `200` responses, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency of `200` responses, microseconds.
    pub p99_us: u64,
    /// Worst `200` latency, microseconds.
    pub max_us: u64,
}

/// The tail-tolerance section of the report: what one slow shard costs
/// at p99 and how much of that regression hedging buys back.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Shards the chaos corpus was split into.
    pub shards: usize,
    /// The shard whose primary attempt is delayed (the home shard of
    /// the benchmarked query, so every request touches it).
    pub slow_shard: usize,
    /// Injected per-request delay on the slow shard's primary, µs.
    pub injected_delay_us: u64,
    /// p99 of the sharded, cache-off baseline (no chaos), µs.
    pub baseline_p99_us: u64,
    /// p99 with the slow shard and hedging off, µs.
    pub slow_p99_us: u64,
    /// p99 with the slow shard and hedging on, µs.
    pub hedged_p99_us: u64,
    /// Fraction of the p99 regression hedging recovered:
    /// `(slow - hedged) / (slow - baseline)`. Acceptance: ≥ 0.5.
    pub hedge_recovery: f64,
    /// Hedged duplicate attempts launched during the hedged phase.
    pub hedges: u64,
    /// Hedged attempts that answered first for their shard.
    pub hedge_wins: u64,
    /// Partial (degraded) responses across the chaos phases.
    pub partial_responses: u64,
    /// Circuit-breaker trips across the chaos phases.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries across the chaos phases.
    pub breaker_recoveries: u64,
}

/// The full `esharp bench --serve` report.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Logical CPUs of the measuring host.
    pub host_cpus: usize,
    /// Testbed seed (corpus, domains, and query mix all derive from it).
    pub seed: u64,
    /// Distinct queries in the Zipf mix.
    pub distinct_queries: usize,
    /// Cache hit rate scraped from `/metrics` after the steady phase.
    pub steady_hit_rate: f64,
    /// One entry per phase, steady first.
    pub phases: Vec<PhaseReport>,
    /// The 1-slow-shard tail-tolerance measurement.
    pub chaos: ChaosReport,
}

impl ServeBenchReport {
    /// Render the report as a stable, human-diffable JSON document
    /// (hand-rolled, same contract as `BENCH_offline.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"serve\",\n");
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        // Concurrency comparisons (keep-alive vs one-shot, hedging) are
        // still meaningful on one CPU, but absolute throughput is not.
        out.push_str(&format!(
            "  \"degenerate_host\": {},\n",
            self.host_cpus < 2
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"distinct_queries\": {},\n",
            self.distinct_queries
        ));
        out.push_str(&format!(
            "  \"steady_hit_rate\": {:.4},\n",
            self.steady_hit_rate
        ));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"workers\": {}, \"queue_depth\": {}, \"clients\": {}, \
                 \"keep_alive\": {}, \"pipeline_depth\": {}, \"batch_size\": {}, \
                 \"ok\": {}, \"shed\": {}, \"errors\": {}, \"elapsed_secs\": {:.3}, \
                 \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{}\n",
                p.name,
                p.workers,
                p.queue_depth,
                p.clients,
                p.keep_alive,
                p.pipeline_depth,
                p.batch_size,
                p.ok,
                p.shed,
                p.errors,
                p.elapsed_secs,
                p.throughput_rps,
                p.p50_us,
                p.p99_us,
                p.max_us,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let c = &self.chaos;
        out.push_str(&format!(
            "  \"chaos\": {{\"shards\": {}, \"slow_shard\": {}, \"injected_delay_us\": {}, \
             \"baseline_p99_us\": {}, \"slow_p99_us\": {}, \"hedged_p99_us\": {}, \
             \"hedge_recovery\": {:.3}, \"hedges\": {}, \"hedge_wins\": {}, \
             \"partial_responses\": {}, \"breaker_trips\": {}, \"breaker_recoveries\": {}}}\n",
            c.shards,
            c.slow_shard,
            c.injected_delay_us,
            c.baseline_p99_us,
            c.slow_p99_us,
            c.hedged_p99_us,
            c.hedge_recovery,
            c.hedges,
            c.hedge_wins,
            c.partial_responses,
            c.breaker_trips,
            c.breaker_recoveries,
        ));
        out.push_str("}\n");
        out
    }

    /// One row per phase, formatted for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve bench — {} distinct queries (Zipf), seed {}, host_cpus={}, steady hit rate {:.1}%\n",
            self.distinct_queries,
            self.seed,
            self.host_cpus,
            self.steady_hit_rate * 100.0
        ));
        out.push_str(
            "phase                   mode     wrk  queue  clients  ok      shed    req/s      p50        p99\n",
        );
        for p in &self.phases {
            let mode = if p.batch_size > 1 {
                format!("batch{}", p.batch_size)
            } else if p.pipeline_depth > 1 {
                format!("pipe{}", p.pipeline_depth)
            } else if p.keep_alive {
                "ka".to_string()
            } else {
                "1shot".to_string()
            };
            out.push_str(&format!(
                "{:<23} {:<8} {:>3}  {:>5}  {:>7}  {:>6}  {:>6}  {:>8.0}  {:>7}µs  {:>7}µs\n",
                p.name, mode, p.workers, p.queue_depth, p.clients, p.ok, p.shed,
                p.throughput_rps, p.p50_us, p.p99_us
            ));
        }
        let c = &self.chaos;
        out.push_str(&format!(
            "chaos: shard {}/{} delayed {}µs → p99 {}µs vs {}µs baseline; hedged p99 {}µs \
             ({:.0}% of the regression recovered, {} hedges / {} wins)\n",
            c.slow_shard,
            c.shards,
            c.injected_delay_us,
            c.slow_p99_us,
            c.baseline_p99_us,
            c.hedged_p99_us,
            c.hedge_recovery * 100.0,
            c.hedges,
            c.hedge_wins,
        ));
        out
    }
}

/// A Zipf(s≈1.1) sampler over the testbed's canonical domain terms,
/// implemented with integer cumulative weights so it only needs the
/// integer `gen_range` the rest of the bench crate already uses.
struct ZipfQueries {
    /// Percent-encoded queries, most popular first.
    encoded: Vec<String>,
    /// The same queries unencoded (batch bodies are raw, newline-joined).
    raw: Vec<String>,
    cumulative: Vec<u64>,
    total: u64,
}

impl ZipfQueries {
    fn new(testbed: &Testbed) -> ZipfQueries {
        let raw: Vec<String> = testbed
            .world
            .domains
            .iter()
            .take(32)
            .map(|d| testbed.world.terms[d.terms[0] as usize].text.clone())
            .collect();
        let encoded: Vec<String> = raw.iter().map(|q| percent_encode(q)).collect();
        let mut cumulative = Vec::with_capacity(encoded.len());
        let mut total = 0u64;
        for rank in 0..encoded.len() {
            // 1e6 / rank^1.1, precomputed in fixed point.
            let weight = (1e6 / ((rank + 1) as f64).powf(1.1)) as u64;
            total += weight.max(1);
            cumulative.push(total);
        }
        ZipfQueries {
            encoded,
            raw,
            cumulative,
            total,
        }
    }

    fn sample_index(&self, rng: &mut StdRng) -> usize {
        let ticket = rng.gen_range(0..self.total);
        self.cumulative
            .partition_point(|&c| c <= ticket)
            .min(self.encoded.len() - 1)
    }

    fn sample(&self, rng: &mut StdRng) -> &str {
        &self.encoded[self.sample_index(rng)]
    }
}

struct PhaseOutcome {
    ok: u64,
    shed: u64,
    errors: u64,
    elapsed: Duration,
    /// Sorted latencies of `200` responses, microseconds.
    latencies_us: Vec<u64>,
}

/// Read exactly one HTTP/1.1 response (head + `content-length` body)
/// from `stream`, starting from whatever over-read bytes sit in `carry`.
/// Consumed bytes are drained from `carry`; bytes belonging to the next
/// pipelined response are left there. Returns the status code.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> std::io::Result<u16> {
    fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = find(carry, b"\r\n\r\n") {
            break at + 4;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        carry.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    let content_length: usize = head
        .to_ascii_lowercase()
        .split_once("content-length:")
        .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    let total = head_end + content_length;
    while carry.len() < total {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        carry.extend_from_slice(&buf[..n]);
    }
    carry.drain(..total);
    Ok(status)
}

/// A client's persistent connection plus its pipelining carry buffer.
struct ClientConn {
    stream: TcpStream,
    carry: Vec<u8>,
}

fn connect(addr: SocketAddr) -> std::io::Result<ClientConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    Ok(ClientConn {
        stream,
        carry: Vec::with_capacity(4096),
    })
}

fn tally(outcome: &mut (u64, u64, u64, Vec<u64>), status: u16, started: Instant) {
    match status {
        200 => {
            outcome.0 += 1;
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            outcome.3.push(us);
        }
        503 => outcome.1 += 1,
        _ => outcome.2 += 1,
    }
}

/// Run one closed-loop phase: `clients` threads draw `requests` total
/// from a shared budget, each completing its request(s) before drawing
/// more. `mode` picks the connection discipline; pipelined latencies are
/// measured from the burst's first byte to that response's last byte
/// (what a pipelining client actually waits).
fn run_phase(
    addr: SocketAddr,
    queries: &Arc<ZipfQueries>,
    seed: u64,
    clients: usize,
    requests: u64,
    mode: LoadMode,
) -> PhaseOutcome {
    let budget = Arc::new(AtomicU64::new(requests));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let budget = Arc::clone(&budget);
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37));
                let mut out = (0u64, 0u64, 0u64, Vec::new());
                let mut conn: Option<ClientConn> = None;
                let depth = mode.pipeline_depth() as u64;
                loop {
                    // Draw up to `depth` tickets (1 unless pipelining).
                    let mut burst = 0u64;
                    while burst < depth
                        && budget
                            .fetch_update(SeqCst, SeqCst, |b| b.checked_sub(1))
                            .is_ok()
                    {
                        burst += 1;
                    }
                    if burst == 0 {
                        break;
                    }
                    let mut payload = String::new();
                    for _ in 0..burst {
                        let query = queries.sample(&mut rng);
                        payload.push_str(&format!(
                            "GET /search?q={query} HTTP/1.1\r\nHost: bench\r\n{}\r\n",
                            if mode.keep_alive() {
                                ""
                            } else {
                                "Connection: close\r\n"
                            }
                        ));
                    }
                    let burst_started = Instant::now();
                    let result = (|| -> std::io::Result<()> {
                        if conn.is_none() {
                            conn = Some(connect(addr)?);
                        }
                        let Some(client) = conn.as_mut() else {
                            unreachable!("just connected");
                        };
                        client.stream.write_all(payload.as_bytes())?;
                        for _ in 0..burst {
                            let status = read_response(&mut client.stream, &mut client.carry)?;
                            tally(&mut out, status, burst_started);
                        }
                        Ok(())
                    })();
                    if result.is_err() {
                        out.2 += 1;
                        conn = None;
                    } else if !mode.keep_alive() {
                        conn = None;
                    }
                }
                out
            })
        })
        .collect();
    collect_outcome(handles, started)
}

/// Run one closed-loop batch phase: clients draw `batch_size` queries at
/// a time and submit them as one `POST /search/batch` over a persistent
/// connection. `ok`/`shed` count *queries* (each accepted request counts
/// `batch_size`), so throughput is queries/s — directly comparable to a
/// singles phase over the same query stream.
fn run_batch_phase(
    addr: SocketAddr,
    queries: &Arc<ZipfQueries>,
    seed: u64,
    clients: usize,
    total_queries: u64,
    batch_size: usize,
) -> PhaseOutcome {
    let budget = Arc::new(AtomicU64::new(total_queries));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let budget = Arc::clone(&budget);
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37));
                let mut out = (0u64, 0u64, 0u64, Vec::new());
                let mut conn: Option<ClientConn> = None;
                loop {
                    let mut drawn = 0u64;
                    while drawn < batch_size as u64
                        && budget
                            .fetch_update(SeqCst, SeqCst, |b| b.checked_sub(1))
                            .is_ok()
                    {
                        drawn += 1;
                    }
                    if drawn == 0 {
                        break;
                    }
                    let body = (0..drawn)
                        .map(|_| queries.raw[queries.sample_index(&mut rng)].as_str())
                        .collect::<Vec<_>>()
                        .join("\n");
                    let payload = format!(
                        "POST /search/batch HTTP/1.1\r\nHost: bench\r\ncontent-length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let request_started = Instant::now();
                    let result = (|| -> std::io::Result<u16> {
                        if conn.is_none() {
                            conn = Some(connect(addr)?);
                        }
                        let Some(client) = conn.as_mut() else {
                            unreachable!("just connected");
                        };
                        client.stream.write_all(payload.as_bytes())?;
                        read_response(&mut client.stream, &mut client.carry)
                    })();
                    match result {
                        Ok(200) => {
                            out.0 += drawn;
                            let us = u64::try_from(request_started.elapsed().as_micros())
                                .unwrap_or(u64::MAX);
                            out.3.push(us);
                        }
                        Ok(503) => out.1 += drawn,
                        Ok(_) => out.2 += drawn,
                        Err(_) => {
                            out.2 += drawn;
                            conn = None;
                        }
                    }
                }
                out
            })
        })
        .collect();
    collect_outcome(handles, started)
}

#[allow(clippy::type_complexity)]
fn collect_outcome(
    handles: Vec<std::thread::JoinHandle<(u64, u64, u64, Vec<u64>)>>,
    started: Instant,
) -> PhaseOutcome {
    let mut ok = 0;
    let mut shed = 0;
    let mut errors = 0;
    let mut latencies_us = Vec::new();
    for handle in handles {
        if let Ok((o, s, e, l)) = handle.join() {
            ok += o;
            shed += s;
            errors += e;
            latencies_us.extend(l);
        } else {
            errors += 1;
        }
    }
    latencies_us.sort_unstable();
    PhaseOutcome {
        ok,
        shed,
        errors,
        elapsed: started.elapsed(),
        latencies_us,
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

fn phase_report(
    name: &'static str,
    config: &ServeConfig,
    clients: usize,
    mode: LoadMode,
    batch_size: usize,
    outcome: &PhaseOutcome,
) -> PhaseReport {
    let elapsed_secs = outcome.elapsed.as_secs_f64().max(1e-9);
    PhaseReport {
        name,
        workers: config.workers,
        queue_depth: config.queue_depth,
        clients,
        keep_alive: mode.keep_alive(),
        pipeline_depth: mode.pipeline_depth(),
        batch_size: batch_size.max(1),
        ok: outcome.ok,
        shed: outcome.shed,
        errors: outcome.errors,
        elapsed_secs,
        throughput_rps: outcome.ok as f64 / elapsed_secs,
        p50_us: quantile(&outcome.latencies_us, 0.50),
        p99_us: quantile(&outcome.latencies_us, 0.99),
        max_us: outcome.latencies_us.last().copied().unwrap_or(0),
    }
}

/// Fetch the raw `/metrics` body.
fn fetch_metrics(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

/// Scrape `"hit_rate":X` out of a `/metrics` body without a JSON parser.
fn scrape_hit_rate(addr: SocketAddr) -> f64 {
    fetch_metrics(addr)
        .ok()
        .and_then(|text| {
            let (_, rest) = text.split_once("\"hit_rate\":")?;
            rest.split(|c: char| c != '.' && !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Scrape the first `"name":N` integer counter out of a `/metrics` body.
fn scrape_counter(body: &str, name: &str) -> u64 {
    body.split_once(&format!("\"{name}\":"))
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Run both phases against a tiny-corpus server and collect the report.
/// `requests` is the steady-phase budget; overload runs half of it.
pub fn run(seed: u64, requests: u64) -> std::io::Result<ServeBenchReport> {
    let testbed = Testbed::build(EvalScale::Tiny, seed);
    let corpus = Arc::new(testbed.corpus.clone());
    let queries = Arc::new(ZipfQueries::new(&testbed));
    let mut phases = Vec::new();

    // Steady trio: the same load at the acceptance configuration
    // (4 workers), once per connection discipline. Each gets a fresh
    // server so every phase warms its own cache from cold — otherwise
    // the later phases would inherit the first one's warm cache and the
    // comparison would flatter them.
    let steady_config = ServeConfig {
        workers: 4,
        queue_depth: 64,
        cache_capacity: 1024,
        ..ServeConfig::default()
    };
    let mut steady_hit_rate = 0.0;
    for (name, mode) in [
        ("steady", LoadMode::OneShot),
        ("steady_keepalive", LoadMode::KeepAlive),
        ("steady_pipelined", LoadMode::Pipelined(8)),
    ] {
        let server = Server::start(
            "127.0.0.1:0",
            steady_config.clone(),
            Arc::clone(&corpus),
            Arc::new(SharedEsharp::new(testbed.esharp.clone())),
        )?;
        let outcome = run_phase(server.local_addr(), &queries, seed, 8, requests, mode);
        if name == "steady" {
            steady_hit_rate = scrape_hit_rate(server.local_addr());
        }
        phases.push(phase_report(name, &steady_config, 8, mode, 1, &outcome));
        server.shutdown();
    }

    // Overload phase: strangle the server (1 worker, 2-deep queue) and
    // offer 4× the concurrency — saturation must shed, not collapse.
    let overload_config = ServeConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: 1024,
        ..ServeConfig::default()
    };
    let server = Server::start(
        "127.0.0.1:0",
        overload_config.clone(),
        Arc::clone(&corpus),
        Arc::new(SharedEsharp::new(testbed.esharp.clone())),
    )?;
    let outcome = run_phase(
        server.local_addr(),
        &queries,
        seed,
        32,
        requests / 2,
        LoadMode::OneShot,
    );
    phases.push(phase_report(
        "overload",
        &overload_config,
        32,
        LoadMode::OneShot,
        1,
        &outcome,
    ));
    server.shutdown();

    // Batch pair: cache off, so every query pays for a real expansion +
    // detection, and the only lever is the batch planner's shared
    // posting-list traversal. Both phases run the same Zipf stream at
    // the same budget; `ok` counts queries in both, so throughput_rps is
    // apples-to-apples.
    const BATCH_SIZE: usize = 16;
    let batch_config = ServeConfig {
        workers: 4,
        queue_depth: 64,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let batch_budget = (requests / 2).max(BATCH_SIZE as u64);
    let server = Server::start(
        "127.0.0.1:0",
        batch_config.clone(),
        Arc::clone(&corpus),
        Arc::new(SharedEsharp::new(testbed.esharp.clone())),
    )?;
    let outcome = run_phase(
        server.local_addr(),
        &queries,
        seed,
        4,
        batch_budget,
        LoadMode::KeepAlive,
    );
    phases.push(phase_report(
        "batch_sequential",
        &batch_config,
        4,
        LoadMode::KeepAlive,
        1,
        &outcome,
    ));
    server.shutdown();

    let server = Server::start(
        "127.0.0.1:0",
        batch_config.clone(),
        Arc::clone(&corpus),
        Arc::new(SharedEsharp::new(testbed.esharp.clone())),
    )?;
    let outcome = run_batch_phase(
        server.local_addr(),
        &queries,
        seed,
        4,
        batch_budget,
        BATCH_SIZE,
    );
    phases.push(phase_report(
        "batch_16",
        &batch_config,
        4,
        LoadMode::KeepAlive,
        BATCH_SIZE,
        &outcome,
    ));
    server.shutdown();

    // Chaos phases: a 4-shard corpus, the cache off (every request pays
    // for a real scatter-gather), and every request aimed at one query
    // whose home shard is the one chaos slows down — so the slow shard
    // is on every request's critical path and p99 measures it directly.
    const SHARDS: usize = 4;
    const DELAY_US: u64 = 25_000;
    let mut sharded = testbed.corpus.clone();
    sharded.reshard(SHARDS);
    let top_term = testbed.world.terms[testbed.world.domains[0].terms[0] as usize]
        .text
        .clone();
    let slow_shard = sharded.term_home_shard(&top_term);
    let aimed = Arc::new(ZipfQueries {
        encoded: vec![percent_encode(&top_term)],
        raw: vec![top_term.clone()],
        cumulative: vec![1],
        total: 1,
    });
    let mut chaos_esharp_config = testbed.config.clone();
    chaos_esharp_config.search_workers = SHARDS;
    let chaos_config = ServeConfig {
        workers: 4,
        queue_depth: 64,
        cache_capacity: 0,
        hedge_delay: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let boot = |hedge: bool, plan: ChaosPlan| -> std::io::Result<Server> {
        Server::start_live_with_hooks(
            "127.0.0.1:0",
            ServeConfig {
                hedge,
                ..chaos_config.clone()
            },
            Arc::new(LiveCorpus::new(sharded.clone())),
            Arc::new(SharedEsharp::new(Esharp::new(
                testbed.esharp.domains().clone(),
                chaos_esharp_config.clone(),
            ))),
            Arc::new(NoFaults),
            ServeHooks {
                chaos: Arc::new(plan),
                ..ServeHooks::default()
            },
        )
    };
    let slow_plan = || {
        ChaosPlan::new(seed).trigger(
            &format!("search:shard:{slow_shard}"),
            0,
            ChaosFault::Delay { us: DELAY_US },
        )
    };
    // The slow-shard phase pays ~DELAY_US per request by construction;
    // cap the sample so the regression measurement stays seconds, not
    // minutes, at large steady budgets.
    let chaos_requests = (requests / 4).clamp(64, 1024);

    // Sharded baseline, no chaos.
    let server = boot(false, ChaosPlan::new(seed))?;
    let outcome = run_phase(
        server.local_addr(),
        &aimed,
        seed,
        8,
        chaos_requests,
        LoadMode::OneShot,
    );
    let baseline_p99_us = quantile(&outcome.latencies_us, 0.99);
    phases.push(phase_report(
        "tail_baseline",
        &chaos_config,
        8,
        LoadMode::OneShot,
        1,
        &outcome,
    ));
    server.shutdown();

    // One slow shard, hedging off: the full regression.
    let server = boot(false, slow_plan())?;
    let outcome = run_phase(
        server.local_addr(),
        &aimed,
        seed,
        8,
        chaos_requests,
        LoadMode::OneShot,
    );
    let slow_p99_us = quantile(&outcome.latencies_us, 0.99);
    let slow_metrics = fetch_metrics(server.local_addr()).unwrap_or_default();
    phases.push(phase_report(
        "tail_slow_shard",
        &chaos_config,
        8,
        LoadMode::OneShot,
        1,
        &outcome,
    ));
    server.shutdown();

    // Same slow shard, hedging on: the recovery.
    let server = boot(true, slow_plan())?;
    let outcome = run_phase(
        server.local_addr(),
        &aimed,
        seed,
        8,
        chaos_requests,
        LoadMode::OneShot,
    );
    let hedged_p99_us = quantile(&outcome.latencies_us, 0.99);
    let hedged_metrics = fetch_metrics(server.local_addr()).unwrap_or_default();
    phases.push(phase_report(
        "tail_slow_shard_hedged",
        &chaos_config,
        8,
        LoadMode::OneShot,
        1,
        &outcome,
    ));
    server.shutdown();

    let regression = slow_p99_us.saturating_sub(baseline_p99_us);
    let recovered = slow_p99_us.saturating_sub(hedged_p99_us);
    let chaos = ChaosReport {
        shards: SHARDS,
        slow_shard,
        injected_delay_us: DELAY_US,
        baseline_p99_us,
        slow_p99_us,
        hedged_p99_us,
        hedge_recovery: if regression == 0 {
            1.0
        } else {
            recovered as f64 / regression as f64
        },
        hedges: scrape_counter(&hedged_metrics, "hedges"),
        hedge_wins: scrape_counter(&hedged_metrics, "hedge_wins"),
        partial_responses: scrape_counter(&slow_metrics, "partial_responses")
            + scrape_counter(&hedged_metrics, "partial_responses"),
        breaker_trips: scrape_counter(&slow_metrics, "trips")
            + scrape_counter(&hedged_metrics, "trips"),
        breaker_recoveries: scrape_counter(&slow_metrics, "recoveries")
            + scrape_counter(&hedged_metrics, "recoveries"),
    };

    Ok(ServeBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed,
        distinct_queries: queries.encoded.len(),
        steady_hit_rate,
        phases,
        chaos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mix_is_skewed_and_deterministic() {
        let testbed = Testbed::build(EvalScale::Tiny, 5);
        let queries = ZipfQueries::new(&testbed);
        assert!(queries.encoded.len() > 1);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let draws: Vec<&str> = (0..200).map(|_| queries.sample(&mut a)).collect();
        let replay: Vec<&str> = (0..200).map(|_| queries.sample(&mut b)).collect();
        assert_eq!(draws, replay, "sampling must be seed-deterministic");
        let head_hits = draws.iter().filter(|q| **q == queries.encoded[0]).count();
        let tail = queries.encoded.last().expect("nonempty");
        let tail_hits = draws.iter().filter(|q| *q == tail).count();
        assert!(head_hits > tail_hits, "rank 1 must dominate the tail");
    }

    #[test]
    fn quantiles_are_nearest_rank_exact() {
        assert_eq!(quantile(&[], 0.99), 0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&[7], 0.5), 7);
    }

    #[test]
    fn a_small_run_completes_with_sane_numbers() {
        let report = run(13, 200).expect("bench run");
        assert_eq!(report.phases.len(), 9);
        let steady = &report.phases[0];
        assert!(!steady.keep_alive && steady.pipeline_depth == 1 && steady.batch_size == 1);
        assert_eq!(steady.ok + steady.shed + steady.errors, 200);
        assert_eq!(steady.errors, 0, "steady phase must not error");
        assert!(steady.throughput_rps > 0.0);
        assert!(steady.p50_us <= steady.p99_us && steady.p99_us <= steady.max_us);

        // No throughput orderings here: 200 requests on a shared 2-vCPU
        // host cannot resolve them (the benchmark measures throughput).
        let keepalive = &report.phases[1];
        assert!(keepalive.keep_alive && keepalive.pipeline_depth == 1);
        assert_eq!(keepalive.errors, 0, "keep-alive phase must not error");
        let pipelined = &report.phases[2];
        assert!(pipelined.keep_alive && pipelined.pipeline_depth == 8);
        assert_eq!(pipelined.errors, 0, "pipelined phase must not error");
        let sequential = &report.phases[4];
        let batch = &report.phases[5];
        assert_eq!(sequential.name, "batch_sequential");
        assert_eq!(batch.name, "batch_16");
        assert_eq!(batch.batch_size, 16);
        assert_eq!(sequential.errors, 0, "sequential-singles phase must not error");
        assert_eq!(batch.errors, 0, "batch phase must not error");

        let json = report.to_json();
        for needle in [
            "\"bench\": \"serve\"",
            "\"degenerate_host\": ",
            "\"name\": \"steady\"",
            "\"name\": \"steady_keepalive\"",
            "\"name\": \"steady_pipelined\"",
            "\"name\": \"overload\"",
            "\"name\": \"batch_sequential\"",
            "\"name\": \"batch_16\"",
            "\"name\": \"tail_slow_shard_hedged\"",
            "\"keep_alive\": true",
            "\"pipeline_depth\": 8",
            "\"batch_size\": 16",
            "\"chaos\": {",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(!report.render_table().is_empty());

        // The tail-tolerance acceptance gate: the injected slow shard
        // must show up at p99, and hedging must buy back at least half
        // of the regression.
        let chaos = &report.chaos;
        assert!(
            chaos.slow_p99_us >= chaos.baseline_p99_us + chaos.injected_delay_us / 2,
            "the slow shard never reached p99: slow {} vs baseline {}",
            chaos.slow_p99_us,
            chaos.baseline_p99_us
        );
        assert!(
            chaos.hedge_recovery >= 0.5,
            "hedging recovered only {:.0}% of the p99 regression (slow {}µs, hedged {}µs, \
             baseline {}µs)",
            chaos.hedge_recovery * 100.0,
            chaos.slow_p99_us,
            chaos.hedged_p99_us,
            chaos.baseline_p99_us
        );
        assert!(chaos.hedges >= 1, "the hedged phase never hedged");
        assert!(chaos.hedge_wins >= 1, "no hedge ever answered first");
    }
}
