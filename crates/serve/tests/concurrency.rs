//! Satellite stress test: concurrent readers hammering `search` while a
//! writer keeps swapping the domains file between a good copy and a
//! corrupt one (single-bit corruption injected through `esharp-fault`).
//!
//! The invariants under test:
//!
//! * **No torn collection** — every search runs against a consistent
//!   snapshot; for any `(query, epoch)` pair, every rendered body is
//!   byte-identical, no matter which side of a reload it raced.
//! * **No stale-epoch service** — a snapshot's epoch always identifies
//!   the exact state searched, including its degradation, so a body
//!   carrying `"epoch":n` never mixes epochs.
//! * **No panics** — readers, writer, and HTTP workers all join cleanly.

use esharp_core::{SharedEsharp, RELOAD_SITE};
use esharp_eval::{EvalScale, Testbed};
use esharp_fault::{Fault, FaultPlan, NoFaults, RetryPolicy};
use esharp_serve::server::search_and_render;
use esharp_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const READERS: usize = 6;
const SEARCHES_PER_READER: usize = 120;
const RELOADS: u32 = 40;

/// Rendered bodies keyed by `(query, epoch)`.
type Bodies = HashMap<(String, u64), Vec<u8>>;

fn save_good(testbed: &Testbed, path: &Path) {
    testbed.esharp.domains().save(path).expect("save domains");
}

/// Write a corrupt copy: the save *succeeds* but one bit of the payload
/// is flipped in flight, so only the checksum layer can catch it.
fn save_corrupt(testbed: &Testbed, path: &Path, seed: u64) {
    let plan = FaultPlan::new(seed).trigger(
        "write:domains",
        0,
        Fault::BitFlip {
            offset: 97 + seed,
            bit: (seed % 8) as u8,
        },
    );
    testbed
        .esharp
        .domains()
        .save_with(path, &plan, "write:domains", &RetryPolicy::none())
        .expect("bit-flipped save still completes");
}

#[test]
fn readers_never_observe_torn_or_mixed_epoch_state() {
    let dir = std::env::temp_dir().join("esharp_serve_concurrency_lib");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("domains.bin");

    let testbed = Arc::new(Testbed::build(EvalScale::Tiny, 91));
    save_good(&testbed, &path);
    let shared = Arc::new(SharedEsharp::new(testbed.esharp.clone()));
    let queries: Vec<String> = testbed
        .world
        .domains
        .iter()
        .take(8)
        .map(|d| testbed.world.terms[d.terms[0] as usize].text.clone())
        .collect();

    // Every body ever rendered, keyed by (query, epoch). Concurrent
    // renders of the same key must agree byte for byte.
    let observed: Arc<Mutex<Bodies>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let shared = Arc::clone(&shared);
            let testbed = Arc::clone(&testbed);
            let queries = queries.clone();
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                for i in 0..SEARCHES_PER_READER {
                    let query = &queries[(r + i) % queries.len()];
                    let (esharp, epoch) = shared.snapshot();
                    let body = search_and_render(&testbed.corpus, &esharp, query, epoch, 0);
                    let mut seen = observed.lock().unwrap();
                    if let Some(prior) = seen.get(&(query.clone(), epoch)) {
                        assert_eq!(
                            prior, &body,
                            "torn state: two renders of ({query}, epoch {epoch}) differ"
                        );
                    } else {
                        seen.insert((query.clone(), epoch), body);
                    }
                }
            })
        })
        .collect();

    let writer = {
        let shared = Arc::clone(&shared);
        let testbed = Arc::clone(&testbed);
        let path = path.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut failures = 0u32;
            for attempt in 0..RELOADS {
                if stop.load(SeqCst) {
                    break;
                }
                // Every third cycle serves a corrupt file; every fifth, a
                // fault injected at the reload site itself.
                if attempt % 3 == 2 {
                    save_corrupt(&testbed, &path, u64::from(attempt));
                } else {
                    save_good(&testbed, &path);
                }
                let plan = FaultPlan::new(17).trigger(
                    RELOAD_SITE,
                    attempt,
                    Fault::IoError { transient: false },
                );
                let injector: &dyn esharp_fault::FaultInjector =
                    if attempt % 5 == 0 { &plan } else { &NoFaults };
                if shared.reload_with(&path, injector, attempt).is_err() {
                    failures += 1;
                }
            }
            failures
        })
    };

    for reader in readers {
        reader.join().expect("reader must not panic");
    }
    stop.store(true, SeqCst);
    let failures = writer.join().expect("writer must not panic");
    assert!(failures > 0, "the schedule must exercise failed reloads");

    // The final epoch reflects every completed reload attempt, success
    // and failure alike.
    let (final_state, final_epoch) = shared.snapshot();
    assert!(final_epoch > 0);
    assert!(
        !final_state.domains().domains().is_empty(),
        "last known-good collection must survive corrupt reloads"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn http_searches_race_reloads_without_panics_or_mixed_bodies() {
    let dir = std::env::temp_dir().join("esharp_serve_concurrency_http");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("domains.bin");

    let testbed = Testbed::build(EvalScale::Tiny, 92);
    save_good(&testbed, &path);
    let query_raw = testbed.world.terms[testbed.world.domains[0].terms[0] as usize]
        .text
        .clone();
    let query = esharp_serve::http::percent_encode(&query_raw);

    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            queue_depth: 256,
            domains_path: Some(path.clone()),
            ..ServeConfig::default()
        },
        Arc::new(testbed.corpus.clone()),
        Arc::new(SharedEsharp::new(testbed.esharp.clone())),
    )
    .expect("bind");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let query = query.clone();
            std::thread::spawn(move || {
                let mut bodies: HashMap<u64, Vec<u8>> = HashMap::new();
                for _ in 0..60 {
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                    s.write_all(
                        format!("GET /search?q={query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
                    )
                    .expect("send");
                    let mut raw = Vec::new();
                    s.read_to_end(&mut raw).expect("read");
                    let text = String::from_utf8(raw).expect("utf8 response");
                    let (head, body) = text.split_once("\r\n\r\n").expect("head");
                    assert!(head.starts_with("HTTP/1.1 200"), "client {c}: {head}");
                    // Parse the epoch this body claims, and require every
                    // body claiming it to be byte-identical.
                    let epoch: u64 = body
                        .split_once("\"epoch\":")
                        .and_then(|(_, rest)| {
                            rest.split(|ch: char| !ch.is_ascii_digit()).next()?.parse().ok()
                        })
                        .expect("epoch field");
                    let bytes = body.as_bytes().to_vec();
                    if let Some(prior) = bodies.get(&epoch) {
                        assert_eq!(prior, &bytes, "mixed-epoch body at epoch {epoch}");
                    } else {
                        bodies.insert(epoch, bytes);
                    }
                }
            })
        })
        .collect();

    let reloader = {
        let path = path.clone();
        let testbed_domains = testbed.esharp.domains().clone();
        std::thread::spawn(move || {
            for i in 0..20u64 {
                if i % 3 == 2 {
                    let plan = FaultPlan::new(i).trigger(
                        "write:domains",
                        0,
                        Fault::BitFlip { offset: 41 + i, bit: (i % 8) as u8 },
                    );
                    testbed_domains
                        .save_with(&path, &plan, "write:domains", &RetryPolicy::none())
                        .expect("corrupt save completes");
                } else {
                    testbed_domains.save(&path).expect("good save");
                }
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                s.write_all(b"POST /reload HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
                let mut raw = Vec::new();
                s.read_to_end(&mut raw).expect("read");
                let text = String::from_utf8_lossy(&raw);
                assert!(
                    text.starts_with("HTTP/1.1 200") || text.starts_with("HTTP/1.1 500"),
                    "{text}"
                );
            }
        })
    };

    for client in clients {
        client.join().expect("client must not panic");
    }
    reloader.join().expect("reloader must not panic");

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
