//! End-to-end smoke test over real sockets: boot a server on an
//! ephemeral port, exercise every endpoint, and shut down cleanly.
//! Includes the keep-alive / pipelined / batch smoke the event-driven
//! front end added. `scripts/tier1.sh` runs exactly this test as its
//! serve gate.

use esharp_core::SharedEsharp;
use esharp_eval::{EvalScale, Testbed};
use esharp_fault::{Fault, FaultPlan};
use esharp_ingest::LiveCorpus;
use esharp_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A one-shot HTTP client: sends `Connection: close` so the read-to-EOF
/// below terminates even though the server now speaks keep-alive.
fn request(addr: std::net::SocketAddr, line: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("{line} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, &format!("GET {path}"))
}

/// Read exactly one HTTP response off a keep-alive connection: head up
/// to the blank line, then `Content-Length` body bytes. `carry` holds
/// over-read bytes between calls — pipelined responses arrive
/// coalesced, so one read can span response boundaries.
fn read_one_response_from(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-response: {:?}", String::from_utf8_lossy(carry));
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("content-length header");
    let body_end = head_end + 4 + content_length;
    while carry.len() < body_end {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[head_end + 4..body_end]).into_owned();
    carry.drain(..body_end);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, body)
}

/// [`read_one_response_from`] without carry, for strict one-at-a-time
/// request/response exchanges.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut carry = Vec::new();
    let out = read_one_response_from(stream, &mut carry);
    assert!(carry.is_empty(), "unexpected trailing bytes: {:?}", String::from_utf8_lossy(&carry));
    out
}

struct Fixture {
    server: Server,
    addr: std::net::SocketAddr,
    domains_path: PathBuf,
    dir: PathBuf,
    query: String,
}

fn boot(name: &str, config: ServeConfig) -> Fixture {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let domains_path = dir.join("domains.bin");

    let testbed = Testbed::build(EvalScale::Tiny, 77);
    testbed
        .esharp
        .domains()
        .save(&domains_path)
        .expect("persist domains");
    // A canonical domain term: guaranteed to be in the collection, so the
    // search exercises expansion.
    let domain = &testbed.world.domains[0];
    let query =
        esharp_serve::http::percent_encode(&testbed.world.terms[domain.terms[0] as usize].text);

    let config = ServeConfig {
        domains_path: Some(domains_path.clone()),
        ..config
    };
    let server = Server::start(
        "127.0.0.1:0",
        config,
        Arc::new(testbed.corpus),
        Arc::new(SharedEsharp::new(testbed.esharp)),
    )
    .expect("bind");
    let addr = server.local_addr();
    Fixture {
        server,
        addr,
        domains_path,
        dir,
        query,
    }
}

impl Fixture {
    fn finish(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

#[test]
fn endpoints_roundtrip_and_shutdown_cleanly() {
    let f = boot("esharp_serve_smoke", ServeConfig::default());

    // Cold search: well-formed JSON shape, cache miss.
    let (status, head, body) = get(f.addr, &format!("/search?q={}", f.query));
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-esharp-cache: miss"), "{head}");
    assert!(body.starts_with("{\"query\":"), "{body}");
    for needle in ["\"epoch\":0", "\"expansion\":[", "\"experts\":[", "\"degradation\":null"] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    // Warm search: byte-identical body, cache hit.
    let (status, head, warm) = get(f.addr, &format!("/search?q={}", f.query));
    assert_eq!(status, 200);
    assert!(head.contains("x-esharp-cache: hit"), "{head}");
    assert_eq!(warm, body, "cached body must be byte-identical");

    // Health: ok, epoch 0.
    let (status, _, health) = get(f.addr, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Metrics: counters reflect the traffic above.
    let (status, _, metrics) = get(f.addr, "/metrics");
    assert_eq!(status, 200);
    for needle in ["\"search\":2", "\"hits\":1", "\"misses\":1", "\"shed_total\":0"] {
        assert!(metrics.contains(needle), "missing {needle} in {metrics}");
    }

    // Reload from the known-good file: epoch bumps, next search re-misses
    // exactly once, then re-hits.
    let (status, _, reload) = request(f.addr, "POST /reload");
    assert_eq!(status, 200, "{reload}");
    assert!(reload.contains("\"ok\":true"), "{reload}");
    assert!(reload.contains("\"epoch\":1"), "{reload}");
    let (_, head, post_reload) = get(f.addr, &format!("/search?q={}", f.query));
    assert!(head.contains("x-esharp-cache: miss"), "{head}");
    assert!(post_reload.contains("\"epoch\":1"), "{post_reload}");
    let (_, head, _) = get(f.addr, &format!("/search?q={}", f.query));
    assert!(head.contains("x-esharp-cache: hit"), "{head}");

    // Client errors.
    let (status, _, _) = get(f.addr, "/search");
    assert_eq!(status, 400, "missing q");
    let (status, _, _) = get(f.addr, "/nope");
    assert_eq!(status, 404);
    let (status, _, _) = request(f.addr, "POST /search?q=x");
    assert_eq!(status, 405);
    let (status, _, _) = get(f.addr, "/reload");
    assert_eq!(status, 405, "reload is POST-only");

    f.finish();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let f = boot("esharp_serve_smoke_keepalive", ServeConfig::default());

    // Reference bodies over one-shot connections.
    let (_, _, search_ref) = get(f.addr, &format!("/search?q={}", f.query));
    let (_, _, health_ref) = get(f.addr, "/healthz");

    let mut stream = TcpStream::connect(f.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Sequential requests over one connection: identical bodies, no
    // reconnect. The search is now warm, so the cache header flips.
    for round in 0..3 {
        stream
            .write_all(
                format!("GET /search?q={} HTTP/1.1\r\nHost: t\r\n\r\n", f.query).as_bytes(),
            )
            .expect("send");
        let (status, head, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "round {round}: {body}");
        assert!(head.contains("x-esharp-cache: hit"), "round {round}: {head}");
        assert_eq!(body, search_ref, "round {round}: keep-alive body drifted");
    }
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let (status, _, health) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(health, health_ref);

    // Pipelined burst: all requests written before any response is read;
    // responses come back in order, byte-identical to the singles.
    let mut burst = Vec::new();
    for _ in 0..4 {
        burst.extend_from_slice(
            format!("GET /search?q={} HTTP/1.1\r\nHost: t\r\n\r\n", f.query).as_bytes(),
        );
    }
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(&burst).expect("send burst");
    let mut carry = Vec::new();
    for i in 0..4 {
        let (status, _, body) = read_one_response_from(&mut stream, &mut carry);
        assert_eq!(status, 200, "pipelined {i}");
        assert_eq!(body, search_ref, "pipelined {i}: body drifted");
    }
    let (status, head, _) = read_one_response_from(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(
        head.to_lowercase().contains("connection: close"),
        "final response must acknowledge the close: {head}"
    );
    // The server honors Connection: close — EOF follows.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("eof");
    assert!(carry.is_empty() && rest.is_empty(), "bytes after the final response");

    // The metrics saw keep-alive reuse and pipelining.
    let (_, _, metrics) = get(f.addr, "/metrics");
    assert!(!metrics.contains("\"keepalive_reuses\":0"), "{metrics}");
    assert!(!metrics.contains("\"pipelined_requests\":0"), "{metrics}");

    f.finish();
}

#[test]
fn batch_search_matches_sequential_singles() {
    let f = boot("esharp_serve_smoke_batch", ServeConfig::default());

    // Three distinct queries: the canonical domain term twice (dedup on
    // the wire is the client's problem — the batch answers per line) and
    // a miss-y free-text term.
    let raw_query = {
        // percent_encode round-trips the plain term; the batch body is
        // raw text, not percent-encoded.
        esharp_serve::http::percent_decode(&f.query).expect("decode")
    };
    let queries = [raw_query.as_str(), "zzzunknownterm", raw_query.as_str()];

    // Reference: sequential one-shot singles, cold cache.
    let mut singles = Vec::new();
    for q in &queries {
        let (status, _, body) = get(
            f.addr,
            &format!("/search?q={}", esharp_serve::http::percent_encode(q)),
        );
        assert_eq!(status, 200, "{body}");
        singles.push(body);
    }

    let body_text = queries.join("\n");
    let (status, _, batch) = request_with_body(f.addr, "POST /search/batch", &body_text);
    assert_eq!(status, 200, "{batch}");
    assert!(batch.starts_with("{\"batch\":3,"), "{batch}");
    // The results array is exactly the three single bodies, in order.
    let expected = format!(
        "{{\"batch\":3,\"epoch\":0,\"corpus_epoch\":0,\"results\":[{},{},{}]}}",
        singles[0], singles[1], singles[2]
    );
    assert_eq!(batch, expected, "batch must be bit-identical to singles");

    // Degenerate batches are client errors.
    let (status, _, _) = request_with_body(f.addr, "POST /search/batch", "\n\n  \n");
    assert_eq!(status, 400, "empty batch");
    let too_many = vec!["q"; 10_000].join("\n");
    let (status, _, over) = request_with_body(f.addr, "POST /search/batch", &too_many);
    assert_eq!(status, 400, "{over}");
    assert!(over.contains("\"batch too large\""), "{over}");

    let (_, _, metrics) = get(f.addr, "/metrics");
    // All three POSTs count as batch requests (the degenerate ones were
    // rejected before contributing queries).
    assert!(metrics.contains("\"batch_requests\":3"), "{metrics}");
    assert!(metrics.contains("\"batch_queries\":3"), "{metrics}");

    f.finish();
}

/// One-shot POST with a body.
fn request_with_body(addr: std::net::SocketAddr, line: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(
            format!(
                "{line} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

#[test]
fn corrupt_reload_keeps_serving_degraded() {
    let f = boot("esharp_serve_smoke_corrupt", ServeConfig::default());

    // Clobber the domains file with garbage; the checksummed loader must
    // reject it and the server must keep the last known-good collection.
    std::fs::write(&f.domains_path, b"ESRT not a real collection").expect("corrupt");
    let (status, _, reload) = request(f.addr, "POST /reload");
    assert_eq!(status, 500, "{reload}");
    assert!(reload.contains("\"ok\":false"), "{reload}");
    assert!(
        reload.contains("\"degradation\":{\"kind\":\"stale_domains\""),
        "{reload}"
    );

    // Health flips to degraded; searches still answer, carrying the
    // degradation and the bumped epoch.
    let (status, _, health) = get(f.addr, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"epoch\":1"), "{health}");
    let (status, _, body) = get(f.addr, &format!("/search?q={}", f.query));
    assert_eq!(status, 200);
    assert!(body.contains("\"degradation\":{\"kind\":\"stale_domains\""), "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");

    f.finish();
}

#[test]
fn full_queue_sheds_with_503_and_the_connection_survives() {
    // One worker, a one-deep queue, and chaos delays parking the worker
    // on its first few jobs: arrivals past worker+queue are shed at
    // dispatch. Under keep-alive the shed `503` must NOT kill the
    // connection — the same socket gets a `Retry-After`, waits, retries,
    // and is served.
    let testbed = Testbed::build(EvalScale::Tiny, 77);
    let server = Server::start_live(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
        Arc::new(LiveCorpus::new(testbed.corpus)),
        Arc::new(SharedEsharp::new(testbed.esharp)),
        Arc::new(FaultPlan::new(3).trigger_limited(
            "serve:conn",
            Fault::Delay { us: 400_000 },
            4,
        )),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Flood: while the worker is parked (400ms per job) and the queue
    // holds one, the rest of these concurrent arrivals must be shed.
    let mut conns: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            c.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
            c
        })
        .collect();

    let mut shed_conn = None;
    let mut shed_seen = 0;
    for mut c in conns.drain(..) {
        let (status, head, body) = read_one_response(&mut c);
        match status {
            200 => {}
            503 => {
                assert!(body.contains("\"shed\":true"), "{body}");
                assert!(
                    head.to_lowercase().contains("retry-after: 1"),
                    "shed without Retry-After: {head}"
                );
                assert!(
                    !head.to_lowercase().contains("connection: close"),
                    "shed must keep the connection: {head}"
                );
                shed_seen += 1;
                if shed_conn.is_none() {
                    shed_conn = Some(c);
                }
            }
            other => panic!("unexpected status {other}: {head}\n{body}"),
        }
    }
    assert!(shed_seen >= 1, "queue never saturated");
    let mut c = shed_conn.expect("at least one shed connection kept");

    // The shed connection retries on the SAME socket until admitted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        c.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("resend");
        let (status, _, body) = read_one_response(&mut c);
        if status == 200 {
            assert!(body.contains("\"status\":"), "{body}");
            break;
        }
        assert_eq!(status, 503, "{body}");
        assert!(
            std::time::Instant::now() < deadline,
            "shed connection was never admitted: {body}"
        );
    }

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(!metrics.contains("\"shed_total\":0"), "{metrics}");

    server.shutdown();
}
