//! End-to-end streaming-ingestion smoke test over real sockets: boot a
//! server on a persisted `LiveCorpus`, ingest through `POST /ingest`,
//! search before and after `POST /compact`, and verify bodies are
//! byte-identical per `(query, epoch, corpus_epoch)` and durable across
//! a restart. `scripts/tier1.sh` runs this test as its ingest gate.

use esharp_core::SharedEsharp;
use esharp_eval::{EvalScale, Testbed};
use esharp_fault::NoFaults;
use esharp_ingest::LiveCorpus;
use esharp_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

fn raw_request(addr: std::net::SocketAddr, head: &str, body: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut message = format!(
        "{head} HTTP/1.1\r\nHost: t\r\nConnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message).expect("send");
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
    raw_request(addr, &format!("GET {path}"), b"")
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    raw_request(addr, &format!("POST {path}"), body.as_bytes())
}

#[test]
fn ingest_compact_search_roundtrip_with_durability() {
    let dir = std::env::temp_dir().join("esharp_serve_ingest_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let corpus_path = dir.join("corpus.bin");
    let oplog_path = dir.join("oplog");

    let testbed = Testbed::build(EvalScale::Tiny, 77);
    let author = testbed.corpus.users()[0].handle.clone();
    let base_tweets = testbed.corpus.tweets().len();
    let live = Arc::new(
        LiveCorpus::create(testbed.corpus, &corpus_path, &oplog_path).expect("persist base"),
    );
    let shared = Arc::new(SharedEsharp::new(testbed.esharp));
    let server = Server::start_live(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::clone(&live),
        Arc::clone(&shared),
        Arc::new(NoFaults),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The planted topic is unknown pre-ingest.
    let (status, _, before) = get(addr, "/search?q=zebrafish");
    assert_eq!(status, 200, "{before}");
    assert!(before.contains("\"matched_tweets\":0"), "{before}");
    assert!(before.contains("\"corpus_epoch\":0"), "{before}");

    // Ingest a new user plus two tweets on the fresh topic; one of the
    // batch's appends is deleted in the same batch (delta + tombstone).
    let batch = format!(
        "user\tzoologist\tZoo\tstudies zebrafish\t120\t1\n\
         tweet\tzoologist\tzebrafish genetics update\n\
         tweet\t{author}\tzebrafish spotted downtown\n\
         tweet\tzoologist\tnoise to be deleted\n\
         delete\t{}\n",
        base_tweets + 2
    );
    let (status, _, ingested) = post(addr, "/ingest", &batch);
    assert_eq!(status, 200, "{ingested}");
    assert!(ingested.contains("\"ok\":true,\"applied\":5"), "{ingested}");
    assert!(ingested.contains("\"corpus_epoch\":1"), "{ingested}");

    // Visible to the very next query, served from base + delta.
    let (status, head, after) = get(addr, "/search?q=zebrafish");
    assert_eq!(status, 200);
    assert!(head.contains("x-esharp-cache: miss"), "epoch bump must re-miss");
    assert!(after.contains("\"matched_tweets\":2"), "{after}");
    assert!(after.contains("\"corpus_epoch\":1"), "{after}");
    // Byte-identical on the repeat, now from cache.
    let (_, head2, again) = get(addr, "/search?q=zebrafish");
    assert!(head2.contains("x-esharp-cache: hit"), "{head2}");
    assert_eq!(again, after, "cached body must be byte-identical");

    // Malformed and invalid batches: rejected whole, nothing applied.
    let (status, _, bad) = post(addr, "/ingest", "frobnicate\tx\n");
    assert_eq!(status, 400, "{bad}");
    let (status, _, bad) = post(addr, "/ingest", "tweet\tnobody-here\thello\n");
    assert_eq!(status, 400, "{bad}");
    let (status, _, bad) = post(addr, "/ingest", "");
    assert_eq!(status, 400, "{bad}");
    let (_, _, health) = get(addr, "/healthz");
    assert!(health.contains("\"corpus_epoch\":1"), "rejected batches must not bump: {health}");

    // Synchronous compaction: tombstone reclaimed, epoch bumps, search
    // results identical modulo the epoch fields.
    let (status, _, compacted) = post(addr, "/compact", "");
    assert_eq!(status, 200, "{compacted}");
    assert!(compacted.contains("\"ok\":true,\"compacted\":true"), "{compacted}");
    assert!(compacted.contains("\"corpus_epoch\":2"), "{compacted}");
    assert!(compacted.contains("\"tombstones_reclaimed\":1"), "{compacted}");
    let (_, head3, post_compact) = get(addr, "/search?q=zebrafish");
    assert!(head3.contains("x-esharp-cache: miss"), "{head3}");
    assert!(post_compact.contains("\"matched_tweets\":2"), "{post_compact}");
    assert_eq!(
        post_compact.replace("\"corpus_epoch\":2", "\"corpus_epoch\":1"),
        after,
        "compaction must not change result bytes beyond the epoch"
    );
    // Idempotent: nothing left to compact.
    let (status, _, noop) = post(addr, "/compact", "");
    assert_eq!(status, 200);
    assert!(noop.contains("\"compacted\":false"), "{noop}");

    // Metrics carry the ingest/compaction counters.
    let (_, _, metrics) = get(addr, "/metrics");
    for needle in [
        "\"ingest\":{\"requests\":4,\"ops\":5",
        "\"compaction\":{\"requests\":2,\"ok\":1,\"failed\":0",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in {metrics}");
    }

    // Restart durability: everything above survives reopen-from-disk.
    server.shutdown();
    drop(live);
    let reopened = Arc::new(LiveCorpus::open(&corpus_path, &oplog_path).expect("reopen"));
    assert_eq!(reopened.pending_ops(), 0, "compaction reset the oplog");
    let server = Server::start_live(
        "127.0.0.1:0",
        ServeConfig::default(),
        reopened,
        shared,
        Arc::new(NoFaults),
    )
    .expect("rebind");
    let (status, _, revived) = get(server.local_addr(), "/search?q=zebrafish");
    assert_eq!(status, 200);
    assert!(revived.contains("\"matched_tweets\":2"), "{revived}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn background_compactor_folds_the_delta_without_downtime() {
    let testbed = Testbed::build(EvalScale::Tiny, 79);
    let author = testbed.corpus.users()[0].handle.clone();
    let live = Arc::new(LiveCorpus::new(testbed.corpus));
    let server = Server::start_live(
        "127.0.0.1:0",
        ServeConfig {
            compact_threshold: 4,
            compact_interval: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        Arc::clone(&live),
        Arc::new(SharedEsharp::new(testbed.esharp)),
        Arc::new(NoFaults),
    )
    .expect("bind");
    let addr = server.local_addr();

    for i in 0..6 {
        let (status, _, body) = post(
            addr,
            "/ingest",
            &format!("tweet\t{author}\tstreaming tweet number {i}\n"),
        );
        assert_eq!(status, 200, "{body}");
        // Serving keeps answering while the compactor runs.
        let (status, _, _) = get(addr, "/search?q=streaming");
        assert_eq!(status, 200);
    }
    // The compactor fires on its own once the backlog reaches the
    // threshold — after the 4th ingest or the 6th — and leaves fewer
    // than `compact_threshold` ops pending; wait for it, still serving.
    let compacted = || {
        server.metrics().compact_ok.load(SeqCst) >= 1 && live.pending_ops() < 4
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !compacted() && std::time::Instant::now() < deadline {
        let (status, _, _) = get(addr, "/search?q=streaming");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(compacted(), "compactor never fired");
    let (status, _, body) = get(addr, "/search?q=streaming");
    assert_eq!(status, 200);
    assert!(body.contains("\"matched_tweets\":6"), "{body}");
    server.shutdown();
}
