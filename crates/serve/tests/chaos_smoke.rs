//! Serve-layer chaos smoke: boot real servers with seeded fault plans
//! at the `search:shard:*`, `serve:worker`, `serve:conn` and
//! `reload:domains` seams and assert the tail-tolerance contract over
//! actual sockets — partial answers are marked and never cached,
//! hedging recovers stragglers, a stalled worker waits no longer than
//! its request's deadline, request caps answer `413`/`431` before
//! reading the offending bytes, a handler panic answers `500` without
//! killing the worker, a worker death outside the guard is healed by
//! the supervisor, and one plan drives the reload and shard seams in
//! the same run.
//! `scripts/tier1.sh` runs this as its chaos gate.

use esharp_core::{DomainCollection, Esharp, EsharpConfig, SharedEsharp};
use esharp_fault::{Fault, FaultPlan, TickSource, VirtualClock, WallClock};
use esharp_ingest::LiveCorpus;
use esharp_microblog::{generate_corpus, Corpus, CorpusConfig, TokenId};
use esharp_querylog::{World, WorldConfig};
use esharp_serve::{ServeConfig, ServeHooks, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

/// Silence chaos-injected panic backtraces (they are the *point* of
/// these tests, not noise worth printing), leave real panics loud.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let chaos = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("chaos:"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("chaos:"));
            if !chaos {
                default(info);
            }
        }));
    });
}

/// A sharded corpus plus an e# whose expansion of the returned query
/// touches every shard — mirrors the core chaos-matrix testbed.
fn testbed() -> (Corpus, Esharp, String) {
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
        .map(|t| t.expect("every shard populated"))
        .collect();
    let query = esharp_serve::http::percent_encode(&terms[0]);
    let mut config = EsharpConfig::tiny();
    config.search_workers = SHARDS;
    let esharp = Esharp::new(DomainCollection::from_groups(vec![terms]), config);
    (corpus, esharp, query)
}

/// Boot on the wall clock: for the tests that measure real time.
fn boot(config: ServeConfig, plan: impl Into<Arc<FaultPlan>>) -> (Server, String) {
    boot_on(WallClock::shared(), config, plan)
}

/// Boot on a virtual clock: injected waits charge the request's budget
/// without sleeping and the hedger waits for every primary, so which
/// shards answer, miss or get hedged follows from the plan alone — not
/// from how fast the host runs the other shards.
fn boot_virtual(config: ServeConfig, plan: impl Into<Arc<FaultPlan>>) -> (Server, String) {
    boot_on(Arc::new(VirtualClock::new()), config, plan)
}

fn boot_on(
    clock: Arc<dyn TickSource>,
    config: ServeConfig,
    plan: impl Into<Arc<FaultPlan>>,
) -> (Server, String) {
    quiet_chaos_panics();
    let (corpus, esharp, query) = testbed();
    let server = Server::start_live_with_hooks(
        "127.0.0.1:0",
        config,
        Arc::new(LiveCorpus::new(corpus)),
        Arc::new(SharedEsharp::new(esharp)),
        plan.into(),
        ServeHooks { clock },
    )
    .expect("bind");
    (server, query)
}

/// One-shot raw HTTP exchange; `None` if the server closed without a
/// response (a dead-worker connection). Callers embed
/// `Connection: close` in the payload so the read-to-EOF terminates
/// under the keep-alive front end.
fn raw(addr: std::net::SocketAddr, payload: &str) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(payload.as_bytes()).expect("send");
    let mut out = String::new();
    if stream.read_to_string(&mut out).is_err() || out.is_empty() {
        return None;
    }
    let (head, body) = out.split_once("\r\n\r\n")?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, head.to_string(), body.to_string()))
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
    .expect("response")
}

#[test]
fn stalled_shard_marks_partial_and_never_caches() {
    let (server, query) = boot_virtual(
        ServeConfig {
            deadline: Duration::from_millis(15),
            hedge: false,
            ..ServeConfig::default()
        },
        FaultPlan::new(1).stall_at("search:shard:1"),
    );
    let addr = server.local_addr();

    let (status, head, body) = get(addr, &format!("/search?q={query}"));
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-esharp-cache: miss"), "{head}");
    assert!(
        body.contains("\"degradation\":{\"partial\":true,\"shards_missing\":[1],\"shards_skipped\":[]}"),
        "{body}"
    );

    // A partial body must not have been cached: the same query misses
    // again (and stalls again — the plan pins the primary attempt).
    let (_, head, body2) = get(addr, &format!("/search?q={query}"));
    assert!(head.contains("x-esharp-cache: miss"), "partial was cached: {head}");
    assert_eq!(body, body2, "same seed, same partial bytes");

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("\"partial_responses\":2"), "{metrics}");
    server.shutdown();
}

#[test]
fn hedging_recovers_a_straggler_end_to_end() {
    let (server, query) = boot_virtual(
        ServeConfig {
            deadline: Duration::from_millis(500),
            hedge: true,
            hedge_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        FaultPlan::new(1).stall_at("search:shard:2"),
    );
    let addr = server.local_addr();

    let (status, _, body) = get(addr, &format!("/search?q={query}"));
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"degradation\":null"),
        "hedge should deliver a complete answer: {body}"
    );
    // Complete answers are cacheable, stall or not.
    let (_, head, _) = get(addr, &format!("/search?q={query}"));
    assert!(head.contains("x-esharp-cache: hit"), "{head}");

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("\"hedges\":1"), "{metrics}");
    assert!(metrics.contains("\"hedge_wins\":1"), "{metrics}");
    assert!(metrics.contains("\"partial_responses\":0"), "{metrics}");
    server.shutdown();
}

#[test]
fn deadline_header_is_honored_and_clamped() {
    let (server, query) = boot(
        ServeConfig {
            // Generous default; the header tightens it per request.
            deadline: Duration::from_secs(5),
            deadline_max: Duration::from_millis(50),
            hedge: false,
            ..ServeConfig::default()
        },
        FaultPlan::new(1).stall_at("search:shard:0"),
    );
    let addr = server.local_addr();

    // A huge header value is clamped to deadline_max: the stalled shard
    // would otherwise pin this request for ~17 minutes.
    let started = std::time::Instant::now();
    let (status, _, body) = raw(
        addr,
        &format!(
            "GET /search?q={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Esharp-Deadline-Ms: 999999\r\n\r\n"
        ),
    )
    .expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"partial\":true"), "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "clamp failed: took {:?}",
        started.elapsed()
    );

    // Unparsable and zero values are client errors.
    for bad in ["abc", "0", "-5"] {
        let (status, _, body) = raw(
            addr,
            &format!(
                "GET /search?q={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Esharp-Deadline-Ms: {bad}\r\n\r\n"
            ),
        )
        .expect("response");
        assert_eq!(status, 400, "{bad}: {body}");
    }
    server.shutdown();
}

#[test]
fn oversized_bodies_and_heads_are_rejected_before_reading() {
    let (server, _) = boot(
        ServeConfig {
            max_body_bytes: 256,
            ..ServeConfig::default()
        },
        FaultPlan::new(1),
    );
    let addr = server.local_addr();

    // Declared oversized body: 413 from the declaration alone (the body
    // bytes are never sent, so an unbounded read would hang here).
    let (status, _, body) = raw(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 100000\r\n\r\n",
    )
    .expect("response");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"cap\":256"), "{body}");

    // Unbounded header section: 431.
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(32 * 1024)
    );
    let (status, _, body) = raw(addr, &huge).expect("response");
    assert_eq!(status, 431, "{body}");

    // In-cap requests still work.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn handler_panic_answers_500_and_the_worker_survives() {
    let (server, query) = boot(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        FaultPlan::new(1).trigger_limited("serve:worker", Fault::Panic, 1),
    );
    let addr = server.local_addr();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"contained\":true"), "{body}");

    // The pool survived: every endpoint keeps answering.
    for _ in 0..4 {
        let (status, _, _) = get(addr, &format!("/search?q={query}"));
        assert_eq!(status, 200);
    }
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("\"worker_panics\":1"), "{metrics}");
    assert!(metrics.contains("\"workers_resurrected\":0"), "{metrics}");
    server.shutdown();
}

#[test]
fn dead_worker_is_resurrected_by_the_supervisor() {
    let (server, query) = boot(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        // Outside the request guard: this panic kills the thread.
        FaultPlan::new(1).trigger_limited("serve:conn", Fault::Panic, 1),
    );
    let addr = server.local_addr();

    // The poisoned connection dies without a response.
    let answer = raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(answer.is_none(), "a dead worker cannot answer: {answer:?}");

    // The supervisor notices within its poll interval and respawns; the
    // pool returns to full width and keeps serving.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, metrics) = get(addr, "/metrics");
        if metrics.contains("\"workers_resurrected\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never resurrected the worker: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for _ in 0..4 {
        let (status, _, _) = get(addr, &format!("/search?q={query}"));
        assert_eq!(status, 200);
    }
    server.shutdown();
}

#[test]
fn worker_stall_is_bounded_by_the_request_deadline() {
    let (server, query) = boot(
        ServeConfig {
            // The header, not this default, bounds the stall.
            deadline: Duration::from_secs(3),
            hedge: false,
            ..ServeConfig::default()
        },
        FaultPlan::new(1).stall_at("serve:worker"),
    );
    let addr = server.local_addr();

    let started = Instant::now();
    let (status, _, body) = raw(
        addr,
        &format!(
            "GET /search?q={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Esharp-Deadline-Ms: 20\r\n\r\n"
        ),
    )
    .expect("response");
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_millis(1_500),
        "the stall waited for the config deadline: took {:?}",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn one_plan_drives_the_reload_and_shard_seams() {
    let dir = std::env::temp_dir().join(format!("esharp_chaos_one_plan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let domains_path = dir.join("domains.bin");
    DomainCollection::from_groups(vec![vec!["49ers".into()]])
        .save(&domains_path)
        .expect("save domains");
    let plan = Arc::new(
        FaultPlan::new(1)
            .trigger("reload:domains", 0, Fault::IoError { transient: false })
            .stall_at("search:shard:1"),
    );
    let (server, query) = boot_virtual(
        ServeConfig {
            deadline: Duration::from_millis(15),
            hedge: false,
            domains_path: Some(domains_path),
            ..ServeConfig::default()
        },
        Arc::clone(&plan),
    );
    let addr = server.local_addr();

    let (status, _, body) = get(addr, &format!("/search?q={query}"));
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"partial\":true,\"shards_missing\":[1],"),
        "{body}"
    );
    let (status, _, body) = raw(
        addr,
        "POST /reload HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    )
    .expect("response");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"ok\":false"), "{body}");
    assert!(body.contains("injected i/o error at reload:domains"), "{body}");
    assert!(body.contains("\"kind\":\"stale_domains\""), "{body}");

    let fired: Vec<(String, u32)> = plan
        .consulted()
        .into_iter()
        .filter(|&(_, _, fired)| fired)
        .map(|(site, attempt, _)| (site, attempt))
        .collect();
    assert_eq!(
        fired,
        vec![("search:shard:1".into(), 0), ("reload:domains".into(), 0)]
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
