//! The server shape every serve workload runs against, and the set-up
//! step that `setup_s` times.
//!
//! In-process `Server::start_live` on `127.0.0.1:0`, `workers = nproc`,
//! every other `ServeConfig` knob at its default; the online system
//! runs with `search_workers = 1`. The gated load is one client thread
//! with one keep-alive connection; the phases that are only reported use
//! one per processor, never more.

use crate::affinity::Turns;
use crate::fixtures::Scale;
use esharp_core::{DomainCollection, Esharp, EsharpConfig, SharedEsharp};
use esharp_fault::NoFaults;
use esharp_ingest::LiveCorpus;
use esharp_microblog::Corpus;
use esharp_serve::{ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a run repeats its set-up step; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Closed-loop warm-up before any measured phase: caches fill, threads
/// and connections exist.
pub fn warmup(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_secs(1),
        Scale::Smoke => Duration::from_millis(100),
    }
}

/// A started server and handles on what it serves.
pub struct Rig {
    server: Server,
    /// The corpus the server searches (also the in-process oracle's).
    pub live: Arc<LiveCorpus>,
    /// The online system the server searches with.
    pub shared: Arc<SharedEsharp>,
}

impl Rig {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The server's counters.
    pub fn metrics(&self) -> Arc<esharp_serve::Metrics> {
        self.server.metrics()
    }

    /// Stop the server and join its threads; hands back the corpus.
    pub fn shutdown(self) -> Arc<LiveCorpus> {
        self.server.shutdown();
        self.live
    }
}

fn start(live: LiveCorpus, esharp: Esharp, workers: usize) -> io::Result<Rig> {
    let live = Arc::new(live);
    let shared = Arc::new(SharedEsharp::new(esharp));
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::start_live(
        "127.0.0.1:0",
        config,
        Arc::clone(&live),
        Arc::clone(&shared),
        Arc::new(NoFaults),
    )?;
    Ok(Rig {
        server,
        live,
        shared,
    })
}

fn domains_round_trip(
    domains: &DomainCollection,
    dir: &Path,
    config: &EsharpConfig,
) -> io::Result<Esharp> {
    let path = dir.join("domains.bin");
    domains.save(&path)?;
    Esharp::from_domains_file(&path, config.clone()).map_err(io::Error::other)
}

/// One set-up of a read-only serve workload, as `esharp build` followed
/// by `esharp serve --corpus --domains` does it: persist corpus and
/// domains, load both back, start the server. Returns the rig and the
/// seconds it took.
pub fn setup_static(
    corpus: &Corpus,
    domains: &DomainCollection,
    config: &EsharpConfig,
    dir: &Path,
    workers: usize,
) -> io::Result<(Rig, f64)> {
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let path = dir.join("corpus.bin");
    corpus.save_binary(&path)?;
    let loaded = Corpus::load(&path)?;
    let esharp = domains_round_trip(domains, dir, config)?;
    let rig = start(LiveCorpus::new(loaded), esharp, workers)?;
    Ok((rig, started.elapsed().as_secs_f64()))
}

/// One set-up of the ingest workload: `LiveCorpus::create` (persisted
/// base + fresh WAL) over `base`, domains round trip, server start.
pub fn setup_live(
    base: Corpus,
    domains: &DomainCollection,
    config: &EsharpConfig,
    dir: &Path,
    workers: usize,
) -> io::Result<(Rig, f64)> {
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let live = LiveCorpus::create(base, dir.join("corpus.bin"), dir.join("oplog"))?;
    let esharp = domains_round_trip(domains, dir, config)?;
    let rig = start(live, esharp, workers)?;
    Ok((rig, started.elapsed().as_secs_f64()))
}

/// Repeat a set-up step `reps` times (at least once), each on the next
/// processor of `turns`, keeping the last rig and every duration.
pub fn repeat_setup(
    reps: usize,
    turns: &Turns,
    mut setup: impl FnMut() -> io::Result<(Rig, f64)>,
) -> io::Result<(Rig, Vec<f64>)> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // The previous server and corpus go before the next load, so the
        // peak holds one loaded corpus, as a serving process would.
        if let Some(rig) = last.take() {
            drop(Rig::shutdown(rig));
        }
        turns.next();
        let (rig, seconds) = setup()?;
        samples.push(seconds);
        last = Some(rig);
    }
    Ok((last.expect("at least one repetition ran"), samples))
}
