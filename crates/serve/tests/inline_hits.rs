//! Cache hits answered on the event-loop thread, over real sockets: a
//! hit needs no worker and no queue slot, so it is served while the pool
//! is parked and the queue is full (only misses are shed); pipelined
//! hits and misses still answer in request order with the same bytes as
//! when sent alone; hits and misses are each counted once; and a hit
//! consumes no `attempt`, so pinned-attempt chaos plans address queued
//! jobs only.

use esharp_core::{DomainCollection, Esharp, EsharpConfig, SharedEsharp};
use esharp_fault::{Fault, FaultPlan};
use esharp_ingest::LiveCorpus;
use esharp_microblog::{generate_corpus, CorpusConfig, TokenId};
use esharp_querylog::{World, WorldConfig};
use esharp_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A server over a tiny synthetic corpus, and five distinct queries.
fn boot(config: ServeConfig, plan: Arc<FaultPlan>) -> (Server, Vec<String>) {
    let world = World::generate(&WorldConfig::tiny(21));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    let terms: Vec<String> = (0..5)
        .map(|id| corpus.token_text(id as TokenId).to_string())
        .collect();
    let esharp = Esharp::new(
        DomainCollection::from_groups(vec![terms[..2].to_vec()]),
        EsharpConfig::tiny(),
    );
    let server = Server::start_live(
        "127.0.0.1:0",
        config,
        Arc::new(LiveCorpus::new(corpus)),
        Arc::new(SharedEsharp::new(esharp)),
        plan,
    )
    .expect("bind");
    let queries = terms
        .iter()
        .map(|t| esharp_serve::http::percent_encode(t))
        .collect();
    (server, queries)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
}

fn search_line(query: &str) -> String {
    format!("GET /search?q={query} HTTP/1.1\r\nHost: t\r\n\r\n")
}

/// One response: status, the `x-esharp-cache` value (if any), body.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reply {
    status: u16,
    cache: Option<String>,
    body: Vec<u8>,
}

/// Read exactly one response off a keep-alive connection; `carry` holds
/// over-read bytes of later (pipelined) responses between calls.
fn read_reply(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Reply {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-response");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
    };
    let length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    let body_end = head_end + 4 + length;
    while carry.len() < body_end {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let reply = Reply {
        status: head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status"),
        cache: header("x-esharp-cache"),
        body: carry[head_end + 4..body_end].to_vec(),
    };
    carry.drain(..body_end);
    reply
}

/// One request on a fresh keep-alive connection.
fn exchange(addr: SocketAddr, request: &str) -> Reply {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send");
    read_reply(&mut stream, &mut Vec::new())
}

fn metrics(addr: SocketAddr) -> String {
    let reply = exchange(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    String::from_utf8(reply.body).expect("utf-8 metrics")
}

/// The `serve:*` chaos consultations so far, as (site, attempt).
fn serve_seams(plan: &FaultPlan) -> Vec<(String, u32)> {
    plan.consulted()
        .into_iter()
        .filter(|(site, _, _)| site.starts_with("serve:"))
        .map(|(site, attempt, _)| (site, attempt))
        .collect()
}

#[test]
fn hits_are_served_while_the_pool_is_parked_and_the_queue_full() {
    const PARK: Duration = Duration::from_secs(3);
    // Attempt 0 is the warm-up miss; attempt 1, the first miss after it,
    // parks the only worker.
    let plan = Arc::new(FaultPlan::new(3).trigger(
        "serve:worker",
        1,
        Fault::Delay {
            us: PARK.as_micros() as u64,
        },
    ));
    let (server, q) = boot(
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&plan),
    );
    let addr = server.local_addr();
    let warm = exchange(addr, &search_line(&q[0]));
    assert_eq!((warm.status, warm.cache.as_deref()), (200, Some("miss")));

    let parked_at = Instant::now();
    let mut parked = connect(addr);
    parked.write_all(search_line(&q[1]).as_bytes()).expect("send");
    while !serve_seams(&plan).contains(&("serve:worker".to_string(), 1)) {
        std::thread::sleep(Duration::from_millis(2));
    }
    // The worker is parked. Of two more misses, one fills the one-deep
    // queue and the other is shed — whichever the loop reads second.
    let (tx, rx) = mpsc::channel();
    let readers: Vec<_> = [&q[2], &q[3]]
        .into_iter()
        .map(|query| {
            let (tx, request) = (tx.clone(), search_line(query));
            std::thread::spawn(move || {
                let _ = tx.send(exchange(addr, &request));
            })
        })
        .collect();
    let first = rx.recv().expect("a reply");
    assert_eq!(first.status, 503, "{:?}", String::from_utf8_lossy(&first.body));

    // Queue full, worker parked: the hit is still answered.
    let hit = exchange(addr, &search_line(&q[0]));
    assert!(parked_at.elapsed() < PARK, "the worker woke before the hit was checked");
    assert_eq!((hit.status, hit.cache.as_deref()), (200, Some("hit")));
    assert_eq!(hit.body, warm.body, "a hit is the cached body, byte for byte");

    let queued = rx.recv().expect("a reply");
    assert_eq!((queued.status, queued.cache.as_deref()), (200, Some("miss")));
    let parked = read_reply(&mut parked, &mut Vec::new());
    assert_eq!((parked.status, parked.cache.as_deref()), (200, Some("miss")));
    for reader in readers {
        reader.join().expect("reader");
    }
    let m = metrics(addr);
    for needle in ["\"shed_total\":1", "\"inline_hits\":1", "\"hits\":1", "\"misses\":3"] {
        assert!(m.contains(needle), "missing {needle} in {m}");
    }
    server.shutdown();
}

#[test]
fn pipelined_hits_and_misses_answer_in_request_order() {
    let (server, q) = boot(ServeConfig::default(), Arc::new(FaultPlan::new(5)));
    let addr = server.local_addr();
    let hit_alone = exchange(addr, &search_line(&q[0]));

    // hit, miss, hit, miss, hit — on one connection, in one write.
    let order = [&q[0], &q[1], &q[0], &q[2], &q[0]];
    let payload: String = order.iter().map(|query| search_line(query)).collect();
    let mut stream = connect(addr);
    stream.write_all(payload.as_bytes()).expect("send");
    let mut carry = Vec::new();
    let replies: Vec<Reply> = order.iter().map(|_| read_reply(&mut stream, &mut carry)).collect();
    assert!(carry.is_empty(), "unexpected trailing bytes");
    let caches: Vec<Option<&str>> = replies.iter().map(|r| r.cache.as_deref()).collect();
    assert_eq!(
        caches,
        [Some("hit"), Some("miss"), Some("hit"), Some("miss"), Some("hit")]
    );

    // Each reply is the same query's answer when sent alone.
    for (query, reply) in order.iter().zip(&replies) {
        let alone = exchange(addr, &search_line(query));
        assert_eq!(alone.cache.as_deref(), Some("hit"));
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, alone.body, "out-of-order or altered body for {query}");
    }
    assert_eq!(replies[0].body, hit_alone.body);
    assert_ne!(replies[0].body, replies[1].body);
    server.shutdown();
}

#[test]
fn hits_and_misses_are_counted_once() {
    let (server, q) = boot(ServeConfig::default(), Arc::new(FaultPlan::new(7)));
    let addr = server.local_addr();
    let miss = exchange(addr, &search_line(&q[0]));
    let hit = exchange(addr, &search_line(&q[0]));
    assert_eq!(miss.cache.as_deref(), Some("miss"));
    assert_eq!(hit.cache.as_deref(), Some("hit"));
    let m = metrics(addr);
    for needle in [
        "\"search\":2",
        "\"hits\":1",
        "\"misses\":1",
        "\"inline_hits\":1",
        "\"fallback_lookups\":0",
        // The miss and the inline hit; `/metrics` records itself after
        // rendering.
        "\"total\":{\"count\":2",
    ] {
        assert!(m.contains(needle), "missing {needle} in {m}");
    }
    server.shutdown();
}

#[test]
fn hits_cross_no_serve_seam_and_take_no_chaos_attempt() {
    // Attempt 0 is the first miss; a hit takes no attempt, so the panic
    // pinned at attempt 1 lands on the next *queued* request.
    let plan = Arc::new(FaultPlan::new(9).trigger("serve:worker", 1, Fault::Panic));
    let (server, q) = boot(ServeConfig::default(), Arc::clone(&plan));
    let addr = server.local_addr();
    assert_eq!(exchange(addr, &search_line(&q[0])).status, 200);
    for _ in 0..3 {
        let hit = exchange(addr, &search_line(&q[0]));
        assert_eq!((hit.status, hit.cache.as_deref()), (200, Some("hit")));
    }
    let panicked = exchange(addr, &search_line(&q[1]));
    assert_eq!(panicked.status, 500, "{:?}", String::from_utf8_lossy(&panicked.body));
    assert_eq!(exchange(addr, &search_line(&q[1])).status, 200);
    let seams: Vec<(String, u32)> = ["conn", "worker"]
        .iter()
        .flat_map(|seam| (0..3).map(move |attempt| (format!("serve:{seam}"), attempt)))
        .collect();
    let mut consulted = serve_seams(&plan);
    consulted.sort();
    assert_eq!(consulted, seams, "only the three queued misses crossed the seams");
    server.shutdown();
}
