//! Pipelining torture test: a three-request pipeline is split at
//! **every byte boundary** across two writes — the incremental parser
//! must produce the exact same response stream no matter where the
//! kernel happens to chop the bytes — with chaos stalls injected at the
//! `serve:conn` seam to shake scheduling. Malformed bytes arriving
//! behind a valid pipelined request must still answer the valid request,
//! then `400`, then close cleanly.

use esharp_core::{DomainCollection, Esharp, EsharpConfig, SharedEsharp};
use esharp_fault::{Fault, FaultPlan};
use esharp_ingest::LiveCorpus;
use esharp_microblog::{generate_corpus, CorpusConfig, TokenId};
use esharp_querylog::{World, WorldConfig};
use esharp_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn boot(plan: FaultPlan) -> (Server, String) {
    let world = World::generate(&WorldConfig::tiny(21));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    let term = corpus.token_text(0 as TokenId).to_string();
    let query = esharp_serve::http::percent_encode(&term);
    let esharp = Esharp::new(
        DomainCollection::from_groups(vec![vec![term]]),
        EsharpConfig::tiny(),
    );
    let server = Server::start_live(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(LiveCorpus::new(corpus)),
        Arc::new(SharedEsharp::new(esharp)),
        Arc::new(plan),
    )
    .expect("bind");
    (server, query)
}

/// Write the whole payload (optionally split at `split`), read to EOF.
fn exchange(addr: std::net::SocketAddr, payload: &[u8], split: Option<usize>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    match split {
        Some(at) => {
            stream.write_all(&payload[..at]).expect("send first half");
            // Give the event loop a chance to observe the torn prefix.
            std::thread::sleep(Duration::from_millis(1));
            stream.write_all(&payload[at..]).expect("send second half");
        }
        None => stream.write_all(payload).expect("send"),
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read to EOF");
    out
}

#[test]
fn pipeline_split_at_every_byte_boundary_is_invariant() {
    // Stall the first few jobs at the conn seam: the split sweep below
    // must be insensitive to worker-side scheduling jitter too.
    let (server, query) = boot(FaultPlan::new(5).trigger_limited(
        "serve:conn",
        Fault::Stall,
        5,
    ));
    let addr = server.local_addr();

    let payload = format!(
        "GET /search?q={query} HTTP/1.1\r\nHost: t\r\n\r\n\
         GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         GET /search?q={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .into_bytes();

    // Warm the cache so every later search hits (deterministic header),
    // then take the unsplit exchange as the reference byte stream.
    let _ = exchange(addr, &payload, None);
    let reference = exchange(addr, &payload, None);
    assert_eq!(
        reference
            .windows(4)
            .filter(|w| w == b"HTTP")
            .count(),
        3,
        "reference must contain exactly three responses: {:?}",
        String::from_utf8_lossy(&reference)
    );
    assert!(
        String::from_utf8_lossy(&reference).contains("x-esharp-cache: hit"),
        "searches must be warm before the sweep"
    );

    for at in 1..payload.len() {
        let got = exchange(addr, &payload, Some(at));
        assert_eq!(
            got,
            reference,
            "split at byte {at} changed the response stream"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_bytes_behind_a_pipelined_request_answer_400_then_close() {
    let (server, _) = boot(FaultPlan::new(5));
    let addr = server.local_addr();

    // A valid request with garbage pipelined behind it: the valid one is
    // answered, the garbage gets a 400, then the connection closes (EOF
    // here ends the read).
    let out = exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nTOTAL GARBAGE\r\n\r\n",
        None,
    );
    let text = String::from_utf8_lossy(&out);
    let statuses: Vec<&str> = text
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|rest| rest.split(' ').next().unwrap_or(""))
        .collect();
    assert_eq!(statuses, ["200", "400"], "{text}");
    assert!(text.contains("\"error\":\"malformed request\""), "{text}");
    // The poisoned response itself declares the close.
    assert!(
        text.to_lowercase().rfind("connection: close").is_some(),
        "{text}"
    );

    // Garbage alone: immediate 400 and close.
    let out = exchange(addr, b"NONSENSE\r\n\r\n", None);
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");

    // The server is still healthy afterwards.
    let out = exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        None,
    );
    assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
    server.shutdown();
}
