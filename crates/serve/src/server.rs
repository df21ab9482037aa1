//! The serving core: event loop → (cache hit answered inline, or)
//! bounded admission queue → worker pool → pure endpoint handlers.
//!
//! The front end is a nonblocking readiness event loop
//! ([`crate::event_loop`]): one acceptor/dispatcher thread owns every
//! socket and drives per-connection state machines with HTTP/1.1
//! keep-alive and pipelining.
//!
//! A search is answered in two halves ([`answer_queries`]): the
//! *lookup* (epochs, cache keys, one cache get per query) and the
//! *cold* half (execute, phase metrics, render, cache insert). For
//! `GET /search` the loop runs the lookup itself ([`answer_inline`]),
//! taking the epochs without waiting: a hit is written to the socket
//! from the loop thread — no queue, no worker wake-up, and the cached
//! body is never copied. A miss is queued carrying its lookup, so the
//! worker runs only the cold half. When a reload or a corpus mutation
//! holds an epoch lock, the loop does not wait: the request is queued
//! without a lookup and the worker does both halves.
//!
//! Everything else goes to a worker. Workers never touch sockets — they
//! pop parsed requests ([`Job`]s) from the bounded queue, run the
//! handler, and hand the [`Response`] back through a completion vector
//! plus a self-pipe wakeup. The queue's bound is the *admission
//! control*: when it is full the loop answers `503 Retry-After` inline
//! — on a keep-alive connection the shed costs one request, not the
//! connection. Hits take no queue slot, so under overload hits are
//! still served and only misses are shed.
//!
//! The tail-tolerance contract: per-request deadline budgets,
//! partial-result degradation, hedged shard re-issue, per-shard breakers
//! keyed into the cache, supervised workers, and the two chaos seams —
//! `serve:worker` (guarded: a panic answers `500` `contained:true`) and
//! `serve:conn` (unguarded: a panic kills the worker thread; the
//! supervisor aborts the orphaned connection without a response and
//! respawns the thread). Both seams sit on the worker, so they cover
//! every queued request but not inline hits, and a hit consumes no
//! `attempt`: pinned-attempt chaos plans address queued jobs only.

use crate::cache::{CacheKey, ResultCache};
use crate::http::{self, Limits, Request};
use crate::json;
use crate::metrics::{BreakerStats, Metrics};
use crate::poller::Wakeup;
use esharp_core::{Degradation, Esharp, SearchOutcome, SharedEsharp};
use esharp_fault::{
    BreakerConfig, Budget, ChaosFault, ChaosInjector, FaultInjector, NoChaos, NoFaults,
    ShardBreakers, TickSource, WallClock,
};
use esharp_ingest::{Compactor, CompactorConfig, IngestOp, LiveCorpus};
use esharp_microblog::{BoundedSearch, Corpus};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs (`esharp serve` flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling admitted requests.
    pub workers: usize,
    /// Total result-cache bodies (0 disables caching).
    pub cache_capacity: usize,
    /// Admission-queue bound; requests beyond it are shed with `503`.
    pub queue_depth: usize,
    /// The domains file `POST /reload` re-reads (the weekly refresh
    /// hand-off); `None` makes reload a `400`.
    pub domains_path: Option<PathBuf>,
    /// Background-compaction trigger: compact once this many ingested
    /// ops are pending. `0` disables the background thread (`POST
    /// /compact` still works).
    pub compact_threshold: usize,
    /// Background-compaction poll interval.
    pub compact_interval: Duration,
    /// Default per-search deadline; shard work past it is abandoned and
    /// the answer marked partial (the paper's <1 s detection budget,
    /// enforced rather than hoped for). Overridable per request with the
    /// `X-Esharp-Deadline-Ms` header.
    pub deadline: Duration,
    /// Upper clamp on the per-request deadline header.
    pub deadline_max: Duration,
    /// Re-issue straggling shards as hedged duplicates once
    /// `hedge_delay` of a search's budget has elapsed.
    pub hedge: bool,
    /// How long to wait before hedging stragglers (ideally the steady
    /// per-shard p99).
    pub hedge_delay: Duration,
    /// Max accepted `Content-Length` on `POST` bodies; larger uploads
    /// are refused with `413` before the body is read.
    pub max_body_bytes: usize,
    /// Consecutive shard failures (deadline misses / panics) that trip
    /// that shard's circuit breaker. `0` disables breakers.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before probing.
    pub breaker_open: Duration,
    /// Reap keep-alive connections idle longer than this (also the
    /// patience extended to clients that stop draining responses).
    pub keep_alive_timeout: Duration,
    /// Max requests parsed ahead on one connection; beyond it the
    /// connection stops being read and TCP backpressure takes over.
    pub max_pipeline_depth: usize,
    /// Max queries accepted in one `POST /search/batch` body.
    pub batch_max_queries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Clamped to the host so small containers don't oversubscribe
            // (explicit settings are honored as given).
            workers: 4.min(esharp_par::detected_workers()),
            cache_capacity: 1024,
            queue_depth: 64,
            domains_path: None,
            compact_threshold: 0,
            compact_interval: Duration::from_millis(250),
            deadline: Duration::from_secs(1),
            deadline_max: Duration::from_secs(10),
            hedge: false,
            hedge_delay: Duration::from_millis(20),
            max_body_bytes: http::DEFAULT_MAX_BODY,
            breaker_threshold: 3,
            breaker_open: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(5),
            max_pipeline_depth: 32,
            batch_max_queries: 256,
        }
    }
}

/// Test seams for the serving stack: the tick source budgets and waits
/// run on, and the chaos injector consulted at the `serve:worker` /
/// `serve:conn` seams. Production servers use the defaults (wall clock,
/// no chaos); the chaos harness swaps both.
#[derive(Clone)]
pub struct ServeHooks {
    /// Clock behind request budgets and injected waits.
    pub clock: Arc<dyn TickSource>,
    /// Chaos injector for the serve-layer seams.
    pub chaos: Arc<dyn ChaosInjector>,
}

impl Default for ServeHooks {
    fn default() -> Self {
        ServeHooks {
            clock: WallClock::shared(),
            chaos: Arc::new(NoChaos),
        }
    }
}

/// One admitted request, on its way from the event loop to a worker.
#[derive(Debug)]
pub(crate) struct Job {
    /// The connection the response routes back to.
    pub(crate) token: u64,
    pub(crate) request: Request,
    /// Monotonic job counter — the `attempt` axis of the serve-layer
    /// chaos sites.
    pub(crate) attempt: u32,
    /// The loop's cache lookup for a `GET /search` it could not answer
    /// (`None`: the worker looks up itself).
    pub(crate) lookup: Option<Lookup>,
}

/// A handler's answer, rendered to wire bytes by the event loop (which
/// alone decides the final `connection:` header).
#[derive(Debug)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) headers: &'static [(&'static str, &'static str)],
    /// Shared with the result cache for search answers.
    pub(crate) body: Arc<Vec<u8>>,
    /// Force-close the connection after this response regardless of
    /// what the request asked for (contained panics).
    pub(crate) close: bool,
}

const CACHE_HIT: &[(&str, &str)] = &[("x-esharp-cache", "hit")];
const CACHE_MISS: &[(&str, &str)] = &[("x-esharp-cache", "miss")];

impl Response {
    fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, &[], Arc::new(body.into()))
    }

    fn new(
        status: u16,
        headers: &'static [(&'static str, &'static str)],
        body: Arc<Vec<u8>>,
    ) -> Response {
        Response {
            status,
            headers,
            body,
            close: false,
        }
    }
}

/// A worker's result for one [`Job`]. `response: None` aborts the
/// connection without an answer — the supervisor files these for jobs
/// orphaned by a worker death at the unguarded seam.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Option<Response>,
}

/// The admission queue: a bounded, condvar-signalled channel of parsed
/// requests.
#[derive(Debug)]
pub(crate) struct Queue {
    inner: Mutex<VecDeque<Job>>,
    ready: Condvar,
    depth: usize,
    shutdown: AtomicBool,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        Queue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Admit the job. Returns `false` — dropping the job — when the
    /// queue is full; the caller sheds the request it was built from.
    pub(crate) fn try_push(&self, job: Job) -> bool {
        let mut queue = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.depth {
            return false;
        }
        queue.push_back(job);
        drop(queue);
        self.ready.notify_one();
        true
    }

    /// Next admitted job; `None` once shut down and drained.
    fn pop(&self) -> Option<Job> {
        let mut queue = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(SeqCst) {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.shutdown.store(true, SeqCst);
        self.ready.notify_all();
    }
}

/// Shared handler state (one per server, `Arc`ed to every thread).
pub(crate) struct State {
    live: Arc<LiveCorpus>,
    shared: Arc<SharedEsharp>,
    cache: ResultCache,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) config: ServeConfig,
    injector: Arc<dyn FaultInjector>,
    /// Monotonic reload-attempt counter, the `attempt` axis of the
    /// `reload:domains` fault site.
    reload_attempts: AtomicU32,
    /// Clock behind request budgets and chaos waits.
    clock: Arc<dyn TickSource>,
    /// Chaos injector for `serve:worker` / `serve:conn`.
    chaos: Arc<dyn ChaosInjector>,
    /// Per-shard circuit breakers for the search scatter-gather.
    breakers: ShardBreakers,
    /// Request size caps (from `config.max_body_bytes`).
    pub(crate) limits: Limits,
    /// Monotonic job counter, the `attempt` axis of the serve-layer
    /// chaos sites (one per queued request).
    pub(crate) job_attempts: AtomicU32,
}

impl State {
    fn new(
        config: ServeConfig,
        live: Arc<LiveCorpus>,
        shared: Arc<SharedEsharp>,
        injector: Arc<dyn FaultInjector>,
        hooks: ServeHooks,
    ) -> State {
        let breakers = ShardBreakers::new(BreakerConfig {
            threshold: config.breaker_threshold,
            open_us: config.breaker_open.as_micros().min(u64::MAX as u128) as u64,
        });
        let limits = Limits {
            max_head: http::DEFAULT_MAX_HEAD,
            max_body: config.max_body_bytes,
        };
        State {
            live,
            shared,
            cache: ResultCache::new(config.cache_capacity),
            metrics: Arc::new(Metrics::default()),
            config,
            injector,
            reload_attempts: AtomicU32::new(0),
            clock: hooks.clock,
            chaos: hooks.chaos,
            breakers,
            limits,
            job_attempts: AtomicU32::new(0),
        }
    }
}

/// A running e# server. Dropping without [`Server::shutdown`] leaves the
/// threads detached; call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    queue: Arc<Queue>,
    stop: Arc<AtomicBool>,
    wakeup: Arc<Wakeup>,
    loop_handle: Option<JoinHandle<()>>,
    /// Worker slots, shared with the supervisor so it can swap in
    /// replacements for dead threads.
    workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    supervisor_stop: Arc<AtomicBool>,
    supervisor_handle: Option<JoinHandle<()>>,
    compactor: Option<Compactor>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the event loop plus `config.workers` worker threads.
    pub fn start(
        addr: &str,
        config: ServeConfig,
        corpus: Arc<Corpus>,
        shared: Arc<SharedEsharp>,
    ) -> io::Result<Server> {
        Server::start_with_injector(addr, config, corpus, shared, Arc::new(NoFaults))
    }

    /// [`Server::start`] with a fault injector on the reload path
    /// (consulted at site `reload:domains`; production servers pass
    /// [`NoFaults`] via `start`).
    pub fn start_with_injector(
        addr: &str,
        config: ServeConfig,
        corpus: Arc<Corpus>,
        shared: Arc<SharedEsharp>,
        injector: Arc<dyn FaultInjector>,
    ) -> io::Result<Server> {
        // A plain snapshot corpus serves through an in-memory LiveCorpus
        // (ingest works, nothing is persisted). Unwrap the Arc when this
        // caller holds the only reference — the common case — and clone
        // otherwise.
        let corpus =
            Arc::try_unwrap(corpus).unwrap_or_else(|shared_corpus| (*shared_corpus).clone());
        Server::start_live(
            addr,
            config,
            Arc::new(LiveCorpus::new(corpus)),
            shared,
            injector,
        )
    }

    /// Start serving a [`LiveCorpus`] — the full streaming setup: `POST
    /// /ingest` absorbs ops (durably, when the live corpus has
    /// persistence), and a background [`Compactor`] folds the delta when
    /// `config.compact_threshold > 0`.
    pub fn start_live(
        addr: &str,
        config: ServeConfig,
        live: Arc<LiveCorpus>,
        shared: Arc<SharedEsharp>,
        injector: Arc<dyn FaultInjector>,
    ) -> io::Result<Server> {
        Server::start_live_with_hooks(addr, config, live, shared, injector, ServeHooks::default())
    }

    /// [`Server::start_live`] with explicit [`ServeHooks`] — the chaos
    /// harness's entry point (virtual clock + seeded chaos plan).
    pub fn start_live_with_hooks(
        addr: &str,
        config: ServeConfig,
        live: Arc<LiveCorpus>,
        shared: Arc<SharedEsharp>,
        injector: Arc<dyn FaultInjector>,
        hooks: ServeHooks,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let queue = Arc::new(Queue::new(config.queue_depth));
        let workers = config.workers.max(1);
        let compactor = (config.compact_threshold > 0).then(|| {
            Compactor::start(
                Arc::clone(&live),
                CompactorConfig {
                    threshold_ops: config.compact_threshold,
                    interval: config.compact_interval,
                },
            )
        });
        let state = Arc::new(State::new(config, live, shared, injector, hooks));
        let stop = Arc::new(AtomicBool::new(false));
        let wakeup = Arc::new(Wakeup::new()?);
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        // Per-worker in-flight token slots (`token + 1`; 0 = none): the
        // supervisor reads a dead worker's slot to abort the connection
        // whose job died with the thread.
        let inflight: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());

        let worker_slots = (0..workers)
            .map(|i| spawn_worker(i, &queue, &state, &completions, &wakeup, &inflight).map(Some))
            .collect::<io::Result<Vec<_>>>()?;
        let workers_shared = Arc::new(Mutex::new(worker_slots));

        // The supervisor resurrects workers that die *outside* the
        // request guard (a panic past `catch_unwind`, e.g. at the
        // `serve:conn` seam): the pool keeps its full width no matter
        // what a request does to a thread — and the connection whose job
        // died gets aborted (closed without a response) instead of
        // waiting forever on a completion that will never come.
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let supervisor_handle = {
            let workers_shared = Arc::clone(&workers_shared);
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let completions = Arc::clone(&completions);
            let wakeup = Arc::clone(&wakeup);
            let inflight = Arc::clone(&inflight);
            let supervisor_stop = Arc::clone(&supervisor_stop);
            std::thread::Builder::new()
                .name("esharp-serve-supervisor".to_string())
                .spawn(move || {
                    while !supervisor_stop.load(SeqCst) {
                        std::thread::sleep(Duration::from_millis(20));
                        let mut slots = workers_shared.lock().unwrap_or_else(|e| e.into_inner());
                        for (i, slot) in slots.iter_mut().enumerate() {
                            let dead = slot.as_ref().is_some_and(|h| h.is_finished());
                            if !dead || supervisor_stop.load(SeqCst) {
                                continue;
                            }
                            if let Some(handle) = slot.take() {
                                let _ = handle.join();
                            }
                            let orphan = inflight[i].swap(0, SeqCst);
                            if orphan != 0 {
                                completions
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(Completion {
                                        token: orphan - 1,
                                        response: None,
                                    });
                                wakeup.notify();
                            }
                            if let Ok(fresh) =
                                spawn_worker(i, &queue, &state, &completions, &wakeup, &inflight)
                            {
                                state.metrics.workers_resurrected.fetch_add(1, SeqCst);
                                *slot = Some(fresh);
                            }
                        }
                    }
                })?
        };

        let loop_handle = {
            let ctx = crate::event_loop::LoopContext {
                listener,
                state: Arc::clone(&state),
                queue: Arc::clone(&queue),
                completions,
                wakeup: Arc::clone(&wakeup),
                stop: Arc::clone(&stop),
            };
            std::thread::Builder::new()
                .name("esharp-serve-loop".to_string())
                .spawn(move || crate::event_loop::run(ctx))?
        };

        Ok(Server {
            addr: local,
            state,
            queue,
            stop,
            wakeup,
            loop_handle: Some(loop_handle),
            workers: workers_shared,
            supervisor_stop,
            supervisor_handle: Some(supervisor_handle),
            compactor,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics (shared with the `/metrics` endpoint).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.state.metrics)
    }

    /// A snapshot of the per-shard circuit breakers (also on `/metrics`
    /// and `/healthz`).
    pub fn breaker_stats(&self) -> BreakerStats {
        BreakerStats::of(&self.state.breakers)
    }

    /// Stop accepting, drain admitted requests, join every thread.
    pub fn shutdown(mut self) {
        if let Some(mut compactor) = self.compactor.take() {
            compactor.stop();
        }
        // Stop the supervisor first: workers exiting their loop at
        // queue-close must read as clean shutdown, not as deaths to
        // resurrect.
        self.supervisor_stop.store(true, SeqCst);
        if let Some(handle) = self.supervisor_handle.take() {
            let _ = handle.join();
        }
        self.stop.store(true, SeqCst);
        self.wakeup.notify();
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
        self.queue.close();
        let mut slots = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for slot in slots.iter_mut() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Spawn one worker thread. The body has two layers of containment: the
/// chaos seam `serve:conn` sits *outside* the request guard (a panic
/// there kills the thread — the supervisor's job), while the handler
/// runs under `catch_unwind` so a panic inside it answers `500`, bumps
/// `worker_panics`, and the worker takes the next job (ROBUSTNESS.md
/// §10).
fn spawn_worker(
    index: usize,
    queue: &Arc<Queue>,
    state: &Arc<State>,
    completions: &Arc<Mutex<Vec<Completion>>>,
    wakeup: &Arc<Wakeup>,
    inflight: &Arc<Vec<AtomicU64>>,
) -> io::Result<JoinHandle<()>> {
    let queue = Arc::clone(queue);
    let state = Arc::clone(state);
    let completions = Arc::clone(completions);
    let wakeup = Arc::clone(wakeup);
    let inflight = Arc::clone(inflight);
    std::thread::Builder::new()
        .name(format!("esharp-serve-{index}"))
        .spawn(move || {
            while let Some(job) = queue.pop() {
                let Job {
                    token,
                    request,
                    attempt,
                    lookup,
                } = job;
                inflight[index].store(token + 1, SeqCst);
                // Unguarded seam: a Panic here escapes the thread.
                if let Some(fault) = state.chaos.chaos_at("serve:conn", attempt) {
                    match fault {
                        ChaosFault::Delay { us } => {
                            state.clock.wait_us(us, &|| false);
                        }
                        // A conn-level stall is bounded by the loop's
                        // keep-alive story, not a budget; model it as a
                        // fixed coarse delay.
                        ChaosFault::Stall => {
                            state.clock.wait_us(10_000, &|| false);
                        }
                        ChaosFault::Panic => panic!("chaos: serve:conn panic"),
                    }
                }
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle_job(&state, &request, lookup, attempt)
                }));
                let response = match outcome {
                    Ok(response) => response,
                    Err(_) => {
                        state.metrics.worker_panics.fetch_add(1, SeqCst);
                        Response {
                            close: true,
                            ..Response::json(
                                500,
                                &b"{\"error\":\"internal panic\",\"contained\":true}"[..],
                            )
                        }
                    }
                };
                state.metrics.total.record(started.elapsed());
                inflight[index].store(0, SeqCst);
                completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Completion {
                        token,
                        response: Some(response),
                    });
                wakeup.notify();
            }
        })
}

/// Execute one request: the guarded `serve:worker` chaos seam, then the
/// route table. Runs under the worker's `catch_unwind`.
fn handle_job(state: &State, request: &Request, lookup: Option<Lookup>, attempt: u32) -> Response {
    if let Some(fault) = state.chaos.chaos_at("serve:worker", attempt) {
        match fault {
            ChaosFault::Delay { us } => {
                state.clock.wait_us(us, &|| false);
            }
            ChaosFault::Stall => {
                // Bounded by the request deadline, then the handler
                // proceeds (late, likely partial — never hung).
                let us = state.config.deadline.as_micros().min(u64::MAX as u128) as u64;
                state.clock.wait_us(us, &|| false);
            }
            ChaosFault::Panic => panic!("chaos: serve:worker panic"),
        }
    }
    route(state, request, lookup)
}

fn route(state: &State, request: &Request, lookup: Option<Lookup>) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/search") => handle_search(state, request, lookup),
        ("POST", "/search/batch") => handle_search_batch(state, request),
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => handle_metrics(state),
        ("POST", "/reload") => handle_reload(state),
        ("POST", "/ingest") => handle_ingest(state, request),
        ("POST", "/compact") => handle_compact(state),
        (
            _,
            "/search" | "/search/batch" | "/healthz" | "/metrics" | "/reload" | "/ingest"
            | "/compact",
        ) => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            Response::json(405, &b"{\"error\":\"method not allowed\"}"[..])
        }
        _ => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            Response::json(404, &b"{\"error\":\"not found\"}"[..])
        }
    }
}

/// The per-request deadline: the `X-Esharp-Deadline-Ms` header when
/// present (clamped to `[1 ms, deadline_max]`), the configured default
/// otherwise. `Err` on an unparsable header.
fn request_deadline(state: &State, request: &Request) -> Result<Duration, ()> {
    match request.header("x-esharp-deadline-ms") {
        None => Ok(state.config.deadline),
        Some(raw) => {
            let ms: u64 = raw.trim().parse().map_err(|_| ())?;
            if ms == 0 {
                return Err(());
            }
            Ok(Duration::from_millis(ms).min(state.config.deadline_max))
        }
    }
}

/// The normalized query and deadline of a `GET /search`, or the body of
/// its `400`.
fn search_params(state: &State, request: &Request) -> Result<(String, Duration), &'static [u8]> {
    let query = match request.param("q").map(|q| q.trim().to_lowercase()) {
        Some(q) if !q.is_empty() => q,
        _ => return Err(b"{\"error\":\"missing query parameter q\"}"),
    };
    let deadline = request_deadline(state, request)
        .map_err(|()| &b"{\"error\":\"invalid x-esharp-deadline-ms header\"}"[..])?;
    Ok((query, deadline))
}

/// The event loop's half of `GET /search`: the lookup, at epochs taken
/// without waiting. `Ok` is a cache hit, answered on the loop thread.
/// `Err` sends the request to a worker, carrying the lookup of a miss;
/// it carries `None` for any other request, an invalid search (the
/// worker answers the `400`), or when a reload or a corpus mutation
/// holds an epoch lock (counted in `fallback_lookups`).
pub(crate) fn answer_inline(state: &State, request: &Request) -> Result<Response, Option<Lookup>> {
    if request.method != "GET" || request.path != "/search" {
        return Err(None);
    }
    let started = Instant::now();
    let Ok((query, _)) = search_params(state, request) else {
        return Err(None);
    };
    let Some(epochs) = Epochs::try_now(state) else {
        state.metrics.fallback_lookups.fetch_add(1, SeqCst);
        return Err(None);
    };
    let lookup = Lookup::new(state, [query], epochs);
    let Some(Some(body)) = lookup.bodies.first().cloned() else {
        return Err(Some(lookup));
    };
    state.metrics.search_requests.fetch_add(1, SeqCst);
    state.metrics.cache_hits.fetch_add(1, SeqCst);
    state.metrics.inline_hits.fetch_add(1, SeqCst);
    state.metrics.total.record(started.elapsed());
    Ok(Response::new(200, CACHE_HIT, body))
}

/// `GET /search`: [`answer_queries`] for one query — starting from the
/// loop's lookup when it carries one — its cold execution under the
/// request's deadline with the server's chaos seams, breakers and
/// hedging.
fn handle_search(state: &State, request: &Request, prior: Option<Lookup>) -> Response {
    let (query, deadline) = match search_params(state, request) {
        Ok(params) => params,
        Err(error) => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            return Response::json(400, error);
        }
    };
    state.metrics.search_requests.fetch_add(1, SeqCst);
    let lookup = |epochs| match prior {
        Some(prior) => prior.at(state, epochs),
        None => Lookup::new(state, [query], epochs),
    };
    let answered = answer_queries(state, lookup, |esharp, corpus, cold| {
        let limit_us = deadline.as_micros().min(u64::MAX as u128) as u64;
        let budget = Budget::with_clock(Arc::clone(&state.clock), limit_us);
        let mut ctx = BoundedSearch::new(&budget)
            .with_chaos(state.chaos.as_ref())
            .with_breakers(&state.breakers);
        if state.config.hedge {
            let delay_us = state.config.hedge_delay.as_micros().min(u64::MAX as u128) as u64;
            ctx = ctx.hedged(delay_us);
        }
        cold.iter()
            .map(|query| esharp.search_bounded(corpus, query, &ctx))
            .collect()
    });
    let headers = if answered.cold == 0 { CACHE_HIT } else { CACHE_MISS };
    let body = answered.bodies.into_iter().flatten().next();
    Response::new(200, headers, body.unwrap_or_default())
}

/// The epochs a cache key is taken at: domains, corpus, and breaker
/// health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epochs {
    domains: u64,
    corpus: u64,
    health: u64,
}

impl Epochs {
    /// The current epochs, or `None` when taking one would wait for a
    /// writer.
    fn try_now(state: &State) -> Option<Epochs> {
        Some(Epochs {
            domains: state.shared.try_epoch()?,
            corpus: state.live.try_epoch()?,
            health: state.breakers.epoch(),
        })
    }
}

/// The lookup half of [`answer_queries`]: one cache key per query at one
/// set of epochs, and the cached body of each key the cache holds.
#[derive(Debug)]
pub(crate) struct Lookup {
    epochs: Epochs,
    keys: Vec<CacheKey>,
    bodies: Vec<Option<Arc<Vec<u8>>>>,
}

impl Lookup {
    fn new(state: &State, queries: impl IntoIterator<Item = String>, epochs: Epochs) -> Lookup {
        let keys: Vec<CacheKey> = queries
            .into_iter()
            .map(|query| (query, epochs.domains, epochs.corpus, epochs.health))
            .collect();
        let bodies = keys.iter().map(|key| state.cache.get(key)).collect();
        Lookup {
            epochs,
            keys,
            bodies,
        }
    }

    /// This lookup if it was taken at `epochs`; otherwise its queries
    /// looked up again at `epochs` (a reload, ingest, compaction or
    /// breaker transition landed after the loop looked).
    fn at(self, state: &State, epochs: Epochs) -> Lookup {
        if self.epochs == epochs {
            return self;
        }
        Lookup::new(state, self.keys.into_iter().map(|key| key.0), epochs)
    }
}

/// What [`answer_queries`] produced: one rendered body per query, in
/// order, and the snapshot they were rendered against.
struct Answered {
    /// `Some` for every query `execute` returned an outcome for.
    bodies: Vec<Option<Arc<Vec<u8>>>>,
    epoch: u64,
    corpus_epoch: u64,
    /// How many of the queries missed the cache and were executed.
    cold: usize,
}

/// Answer normalized queries against one pinned snapshot, in two halves.
/// The *lookup* — cache keys at the snapshot's epochs and a cache get
/// per query — is whatever `lookup` returns for those epochs (a fresh
/// [`Lookup::new`], or the event loop's, re-taken by [`Lookup::at`] if
/// the epochs moved). The *cold* half executes the misses together with
/// `execute` (one outcome per cold query, in order), records phase
/// metrics, renders, and inserts every complete answer. Hits and misses
/// are counted here, once. Both search endpoints are this function; they
/// differ only in their lookup and `execute`.
///
/// The snapshots pin (collection, domains epoch) and (corpus, corpus
/// epoch) as consistent pairs for the whole request; a reload, ingest,
/// or compaction landing now affects the *next* request. The corpus read
/// guard is held across the search — reads are concurrent with each
/// other, and an ingest waits microseconds, a compaction publish waits
/// one search. The breakers' health epoch is the 4th key component: a
/// trip or recovery landing now changes the key, so a cached body can
/// never cross a breaker state change.
fn answer_queries(
    state: &State,
    lookup: impl FnOnce(Epochs) -> Lookup,
    execute: impl FnOnce(&Esharp, &Corpus, &[&str]) -> Vec<SearchOutcome>,
) -> Answered {
    let (esharp, epoch) = state.shared.snapshot();
    let guard = state.live.read();
    let corpus_epoch = guard.epoch();
    let Lookup {
        mut keys,
        mut bodies,
        ..
    } = lookup(Epochs {
        domains: epoch,
        corpus: corpus_epoch,
        health: state.breakers.epoch(),
    });
    let cold: Vec<usize> = (0..keys.len()).filter(|&i| bodies[i].is_none()).collect();
    let hits = (keys.len() - cold.len()) as u64;
    state.metrics.cache_hits.fetch_add(hits, SeqCst);
    state
        .metrics
        .cache_misses
        .fetch_add(cold.len() as u64, SeqCst);
    if !cold.is_empty() {
        let cold_queries: Vec<&str> = cold.iter().map(|&i| keys[i].0.as_str()).collect();
        let outcomes = execute(&esharp, guard.corpus(), &cold_queries);
        // The shard accounting is per fan-out, not per outcome.
        if let Some(fanout) = outcomes.first() {
            state.metrics.hedges.fetch_add(fanout.hedges as u64, SeqCst);
            state
                .metrics
                .hedge_wins
                .fetch_add(fanout.hedge_wins as u64, SeqCst);
            state
                .metrics
                .shard_panics
                .fetch_add(fanout.shard_panics as u64, SeqCst);
        }
        for (&i, outcome) in cold.iter().zip(&outcomes) {
            state.metrics.expansion.record(outcome.expansion_time);
            state.metrics.detection.record(outcome.detection_time);
            state.metrics.match_phase.record(outcome.match_time);
            state.metrics.rank_phase.record(outcome.rank_time);
            let body = Arc::new(render_search_body(
                guard.corpus(),
                &keys[i].0,
                epoch,
                corpus_epoch,
                outcome,
            ));
            // Only complete answers are cacheable: a partial body
            // reflects this request's luck with the deadline, not the
            // corpus, and must not be replayed to the next caller.
            if outcome.partial.is_none() {
                let key = std::mem::take(&mut keys[i]);
                state.cache.insert(key, Arc::clone(&body));
            } else {
                state.metrics.partial_responses.fetch_add(1, SeqCst);
            }
            bodies[i] = Some(body);
        }
    }
    Answered {
        bodies,
        epoch,
        corpus_epoch,
        cold: cold.len(),
    }
}

/// `POST /search/batch`: the body is newline-separated queries; the
/// response is `{"batch":N,"epoch":E,"corpus_epoch":C,"results":[…]}`
/// where each element of `results` is byte-identical to the
/// `GET /search` body for that query against the same snapshot.
///
/// [`answer_queries`] with the uncached queries executed together by
/// [`Esharp::search_batch`](esharp_core::Esharp::search_batch), which
/// walks each distinct posting list once for the whole batch. Batch
/// execution is *unbounded* (no deadline, hedging, or breaker routing):
/// a batch is a throughput endpoint, its answers are complete by
/// construction, and complete answers are exactly what the cache may
/// hold — so batch-computed bodies are cached under the same epoch-keyed
/// contract as singles.
fn handle_search_batch(state: &State, request: &Request) -> Response {
    state.metrics.batch_requests.fetch_add(1, SeqCst);
    let Ok(text) = std::str::from_utf8(&request.body) else {
        state.metrics.client_errors.fetch_add(1, SeqCst);
        return Response::json(400, &b"{\"error\":\"body is not UTF-8\"}"[..]);
    };
    let queries: Vec<String> = text
        .lines()
        .map(|line| line.trim().to_lowercase())
        .filter(|line| !line.is_empty())
        .collect();
    if queries.is_empty() {
        state.metrics.client_errors.fetch_add(1, SeqCst);
        return Response::json(400, &b"{\"error\":\"empty batch\"}"[..]);
    }
    if queries.len() > state.config.batch_max_queries {
        state.metrics.client_errors.fetch_add(1, SeqCst);
        let body = format!(
            "{{\"error\":\"batch too large\",\"queries\":{},\"max\":{}}}",
            queries.len(),
            state.config.batch_max_queries
        );
        return Response::json(400, body.into_bytes());
    }
    let batch = queries.len();
    state.metrics.batch_queries.fetch_add(batch as u64, SeqCst);
    let answered = answer_queries(
        state,
        |epochs| Lookup::new(state, queries, epochs),
        |esharp, corpus, cold| esharp.search_batch(corpus, cold),
    );
    let payload: usize = answered.bodies.iter().flatten().map(|b| b.len() + 1).sum();
    let mut out = Vec::with_capacity(64 + payload);
    out.extend_from_slice(b"{\"batch\":");
    out.extend_from_slice(batch.to_string().as_bytes());
    out.extend_from_slice(b",\"epoch\":");
    out.extend_from_slice(answered.epoch.to_string().as_bytes());
    out.extend_from_slice(b",\"corpus_epoch\":");
    out.extend_from_slice(answered.corpus_epoch.to_string().as_bytes());
    out.extend_from_slice(b",\"results\":[");
    for (i, body) in answered.bodies.iter().flatten().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(body);
    }
    out.extend_from_slice(b"]}");
    Response::json(200, out)
}

/// `POST /ingest`: the body is a batch of op lines (see
/// [`IngestOp::parse_batch`]). All-or-nothing: parse or validation
/// failures are `400` with nothing applied; a WAL failure is `500`,
/// also with nothing applied.
fn handle_ingest(state: &State, request: &Request) -> Response {
    state.metrics.ingest_requests.fetch_add(1, SeqCst);
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            return Response::json(400, &b"{\"ok\":false,\"error\":\"body is not UTF-8\"}"[..]);
        }
    };
    let ops = match IngestOp::parse_batch(text) {
        Ok(ops) if !ops.is_empty() => ops,
        Ok(_) => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            return Response::json(400, &b"{\"ok\":false,\"error\":\"empty batch\"}"[..]);
        }
        Err(error) => {
            state.metrics.client_errors.fetch_add(1, SeqCst);
            let mut body = String::with_capacity(96);
            body.push_str("{\"ok\":false,\"error\":");
            json::push_str(&mut body, &error);
            body.push('}');
            return Response::json(400, body.into_bytes());
        }
    };
    match state.live.apply_batch(&ops) {
        Ok(applied) => {
            state
                .metrics
                .ingest_ops
                .fetch_add(applied.len() as u64, SeqCst);
            let body = format!(
                "{{\"ok\":true,\"applied\":{},\"corpus_epoch\":{},\"pending_ops\":{}}}",
                applied.len(),
                state.live.epoch(),
                state.live.pending_ops(),
            );
            Response::json(200, body.into_bytes())
        }
        Err(error) => {
            let status = if error.kind() == io::ErrorKind::InvalidInput {
                state.metrics.client_errors.fetch_add(1, SeqCst);
                400
            } else {
                500
            };
            let mut body = String::with_capacity(96);
            body.push_str("{\"ok\":false,\"error\":");
            json::push_str(&mut body, &error.to_string());
            body.push('}');
            Response::json(status, body.into_bytes())
        }
    }
}

/// `POST /compact`: fold the delta segment synchronously (the manual
/// counterpart of the background compactor). Failure keeps the previous
/// base serving and answers `500`.
fn handle_compact(state: &State) -> Response {
    state.metrics.compact_requests.fetch_add(1, SeqCst);
    match state.live.compact() {
        Ok(Some(report)) => {
            state.metrics.compact_ok.fetch_add(1, SeqCst);
            state.metrics.compaction_pause.record(report.pause);
            let body = format!(
                "{{\"ok\":true,\"compacted\":true,\"corpus_epoch\":{},\"before_tweets\":{},\"tombstones_reclaimed\":{},\"after_tweets\":{},\"tail_ops_replayed\":{},\"bytes_written\":{},\"pause_us\":{},\"total_us\":{}}}",
                report.epoch,
                report.before_tweets,
                report.before_tombstones,
                report.after_tweets,
                report.tail_ops_replayed,
                report.bytes_written,
                report.pause.as_micros(),
                report.total.as_micros(),
            );
            Response::json(200, body.into_bytes())
        }
        Ok(None) => {
            let body = format!(
                "{{\"ok\":true,\"compacted\":false,\"corpus_epoch\":{}}}",
                state.live.epoch()
            );
            Response::json(200, body.into_bytes())
        }
        Err(error) => {
            state.metrics.compact_failed.fetch_add(1, SeqCst);
            let mut body = String::with_capacity(96);
            body.push_str("{\"ok\":false,\"error\":");
            json::push_str(&mut body, &error.to_string());
            body.push('}');
            Response::json(500, body.into_bytes())
        }
    }
}

fn handle_healthz(state: &State) -> Response {
    state.metrics.healthz_requests.fetch_add(1, SeqCst);
    let (esharp, epoch) = state.shared.snapshot();
    let corpus_epoch = state.live.epoch();
    let mut body = String::with_capacity(128);
    match esharp.degradation() {
        None => {
            body.push_str("{\"status\":\"ok\",\"epoch\":");
            body.push_str(&epoch.to_string());
        }
        Some(degradation) => {
            body.push_str("{\"status\":\"degraded\",\"epoch\":");
            body.push_str(&epoch.to_string());
            body.push_str(",\"degradation\":");
            render_degradation(&mut body, degradation);
        }
    }
    body.push_str(",\"corpus_epoch\":");
    body.push_str(&corpus_epoch.to_string());
    body.push_str(",\"breakers\":");
    BreakerStats::of(&state.breakers).render(&mut body);
    body.push('}');
    Response::json(200, body.into_bytes())
}

fn handle_metrics(state: &State) -> Response {
    state.metrics.metrics_requests.fetch_add(1, SeqCst);
    // Snapshot the shard layout under the read guard, then render
    // without it — rendering shouldn't extend the lock hold.
    let shards = {
        let guard = state.live.read();
        crate::metrics::ShardStats::of(guard.corpus())
    };
    let body = state.metrics.render(
        state.shared.epoch(),
        state.live.epoch(),
        state.cache.len(),
        state.cache.capacity(),
        &shards,
        &BreakerStats::of(&state.breakers),
    );
    Response::json(200, body.into_bytes())
}

fn handle_reload(state: &State) -> Response {
    state.metrics.reload_requests.fetch_add(1, SeqCst);
    let Some(path) = &state.config.domains_path else {
        state.metrics.client_errors.fetch_add(1, SeqCst);
        return Response::json(
            400,
            &b"{\"ok\":false,\"error\":\"no domains path configured\"}"[..],
        );
    };
    let attempt = state.reload_attempts.fetch_add(1, SeqCst);
    match state
        .shared
        .reload_with(path, state.injector.as_ref(), attempt)
    {
        Ok(epoch) => {
            state.metrics.reload_ok.fetch_add(1, SeqCst);
            let body = format!("{{\"ok\":true,\"epoch\":{epoch}}}");
            Response::json(200, body.into_bytes())
        }
        Err(error) => {
            state.metrics.reload_failed.fetch_add(1, SeqCst);
            let (esharp, epoch) = state.shared.snapshot();
            let mut body = String::with_capacity(256);
            body.push_str("{\"ok\":false,\"epoch\":");
            body.push_str(&epoch.to_string());
            body.push_str(",\"error\":");
            json::push_str(&mut body, &error.to_string());
            body.push_str(",\"degradation\":");
            match esharp.degradation() {
                Some(d) => render_degradation(&mut body, d),
                None => body.push_str("null"),
            }
            body.push('}');
            Response::json(500, body.into_bytes())
        }
    }
}

/// Render the deterministic `/search` response body: a pure function of
/// `(corpus, query, epochs, outcome-sans-timings)`, which is the
/// property the result cache's byte-identical-hit guarantee rests on.
/// Timings are deliberately excluded (they differ run to run); they feed
/// the `/metrics` histograms instead. Cache hit/miss travels in the
/// `x-esharp-cache` header, also off-body for the same reason.
pub fn render_search_body(
    corpus: &Corpus,
    query: &str,
    epoch: u64,
    corpus_epoch: u64,
    outcome: &SearchOutcome,
) -> Vec<u8> {
    let mut out = String::with_capacity(256 + outcome.experts.len() * 96);
    out.push_str("{\"query\":");
    json::push_str(&mut out, query);
    out.push_str(",\"epoch\":");
    out.push_str(&epoch.to_string());
    out.push_str(",\"corpus_epoch\":");
    out.push_str(&corpus_epoch.to_string());
    out.push_str(",\"expansion\":");
    json::push_str_array(&mut out, &outcome.expansion);
    out.push_str(",\"matched_tweets\":");
    out.push_str(&outcome.matched_tweets.to_string());
    out.push_str(",\"experts\":[");
    for (i, expert) in outcome.experts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"user\":");
        out.push_str(&expert.user.to_string());
        out.push_str(",\"handle\":");
        json::push_str(&mut out, &corpus.user(expert.user).handle);
        out.push_str(",\"score\":");
        json::push_f64(&mut out, expert.score);
        out.push_str(",\"features\":{\"ts\":");
        json::push_f64(&mut out, expert.features.ts);
        out.push_str(",\"mi\":");
        json::push_f64(&mut out, expert.features.mi);
        out.push_str(",\"ri\":");
        json::push_f64(&mut out, expert.features.ri);
        out.push_str("}}");
    }
    out.push_str("],\"degradation\":");
    match (&outcome.degradation, &outcome.partial) {
        (None, None) => out.push_str("null"),
        (Some(d), None) => render_degradation(&mut out, d),
        // A partial answer is a degradation too: the object carries
        // `partial: true` plus the exact absent-shard sets, merged with
        // the domain-degradation fields when both apply.
        (domains, Some(partial)) => {
            out.push('{');
            if let Some(d) = domains {
                let (kind, error) = degradation_fields(d);
                out.push_str("\"kind\":\"");
                out.push_str(kind);
                out.push_str("\",\"error\":");
                json::push_str(&mut out, error);
                out.push(',');
            }
            out.push_str("\"partial\":true,\"shards_missing\":[");
            push_usize_array(&mut out, &partial.shards_missing);
            out.push_str("],\"shards_skipped\":[");
            push_usize_array(&mut out, &partial.shards_skipped);
            out.push_str("]}");
        }
    }
    out.push('}');
    out.into_bytes()
}

fn push_usize_array(out: &mut String, values: &[usize]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

fn degradation_fields(degradation: &Degradation) -> (&'static str, &String) {
    match degradation {
        Degradation::StaleDomains { error } => ("stale_domains", error),
        Degradation::NoDomains { error } => ("no_domains", error),
    }
}

fn render_degradation(out: &mut String, degradation: &Degradation) {
    let (kind, error) = degradation_fields(degradation);
    out.push_str("{\"kind\":\"");
    out.push_str(kind);
    out.push_str("\",\"error\":");
    json::push_str(out, error);
    out.push('}');
}

/// Run an unbounded search against a pinned snapshot and render its body
/// — the bytes a complete `GET /search` answer must equal. The server
/// itself goes through `answer_queries`; this is the in-process reference
/// that the cache/chaos/ingest property suites and the benchmark's
/// `ingest_mixed` workload compare served bodies with.
pub fn search_and_render(
    corpus: &Corpus,
    esharp: &Esharp,
    normalized_query: &str,
    epoch: u64,
    corpus_epoch: u64,
) -> Vec<u8> {
    let outcome = esharp.search(corpus, normalized_query);
    render_search_body(corpus, normalized_query, epoch, corpus_epoch, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_core::{DomainCollection, EsharpConfig};
    use esharp_fault::{Fault, RetryPolicy};
    use std::sync::mpsc;

    fn tiny_corpus() -> Corpus {
        use esharp_microblog::{Tweet, User};
        let user = |id, handle: &str| User {
            id,
            handle: handle.to_string(),
            display_name: handle.to_uppercase(),
            description: String::new(),
            followers: 10,
            verified: false,
            expert_domains: vec![],
            spam: false,
        };
        let users = vec![user(0, "alice"), user(1, "bob\"q\"")];
        let tweets = vec![
            Tweet::parse(0, 0, "49ers game tonight", |_| None),
            Tweet::parse(1, 1, "49ers niners draft talk", |_| None),
            Tweet::parse(2, 1, "niners forever", |_| None),
        ];
        Corpus::new(users, tweets)
    }

    #[test]
    fn search_body_is_deterministic_and_shaped() {
        let corpus = tiny_corpus();
        let esharp = Esharp::new(
            DomainCollection::from_groups(vec![vec!["49ers".into(), "niners".into()]]),
            EsharpConfig::tiny(),
        );
        let a = search_and_render(&corpus, &esharp, "49ers", 3, 5);
        let b = search_and_render(&corpus, &esharp, "49ers", 3, 5);
        assert_eq!(a, b, "same snapshot, same bytes");
        let c = search_and_render(&corpus, &esharp, "49ers", 3, 6);
        assert_ne!(a, c, "corpus epoch is part of the body");
        let text = String::from_utf8(a).unwrap();
        assert!(
            text.starts_with("{\"query\":\"49ers\",\"epoch\":3,\"corpus_epoch\":5,"),
            "{text}"
        );
        assert!(text.contains("\"expansion\":[\"49ers\",\"niners\"]"), "{text}");
        assert!(text.contains("\"degradation\":null"), "{text}");
        // Handles with quotes stay valid JSON.
        assert!(!text.contains("bob\"q\""), "unescaped quote in {text}");
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn degradation_is_rendered_in_bodies() {
        let corpus = tiny_corpus();
        let mut esharp = Esharp::new(
            DomainCollection::from_groups(vec![vec!["49ers".into()]]),
            EsharpConfig::tiny(),
        );
        assert!(esharp.reload_domains("/nonexistent/domains.bin").is_err());
        let body = search_and_render(&corpus, &esharp, "49ers", 1, 0);
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.contains("\"degradation\":{\"kind\":\"stale_domains\",\"error\":"),
            "{text}"
        );
    }

    /// An injector that parks every `fault_at` caller until released,
    /// injecting nothing: it holds a WAL append (under the corpus write
    /// lock) or a reload mid-build for as long as a test needs.
    #[derive(Default)]
    struct Gate {
        /// (callers parked so far, released)
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn wait_parked(&self) {
            let mut state = self.state.lock().unwrap();
            while state.0 == 0 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl FaultInjector for Gate {
        fn fault_at(&self, _site: &str, _attempt: u32) -> Option<Fault> {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
            None
        }
    }

    /// `answer_inline` on another thread, failing the test instead of
    /// hanging it if the loop-side lookup waits.
    fn answer_inline_within(state: &Arc<State>, request: &Request) -> Result<Response, Option<Lookup>> {
        let (tx, rx) = mpsc::channel();
        let (state, request) = (Arc::clone(state), request.clone());
        std::thread::spawn(move || {
            let _ = tx.send(answer_inline(&state, &request));
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the loop-side lookup waited on a lock")
    }

    #[test]
    fn loop_lookup_falls_back_to_the_queue_instead_of_waiting_for_a_writer() {
        let dir = std::env::temp_dir().join("esharp_serve_inline_fallback");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let domains_path = dir.join("domains.bin");
        let domains = DomainCollection::from_groups(vec![vec!["49ers".into(), "niners".into()]]);
        domains.save(&domains_path).unwrap();
        let wal_gate = Arc::new(Gate::default());
        let live = LiveCorpus::create(tiny_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap()
            .with_injector(wal_gate.clone(), RetryPolicy::default());
        let state = Arc::new(State::new(
            ServeConfig::default(),
            Arc::new(live),
            Arc::new(SharedEsharp::new(Esharp::new(domains, EsharpConfig::tiny()))),
            Arc::new(NoFaults),
            ServeHooks::default(),
        ));
        let (request, _) = http::parse_request(b"GET /search?q=49ers HTTP/1.1\r\n\r\n", &state.limits)
            .unwrap()
            .unwrap();

        // Cold: the loop's lookup misses and travels with the job; the
        // worker's cold half answers it and fills the cache.
        let lookup = answer_inline(&state, &request).expect_err("cold cache");
        assert!(lookup.is_some(), "a miss carries its lookup");
        let cold = handle_search(&state, &request, lookup);
        assert_eq!((cold.status, cold.headers), (200, CACHE_MISS));
        let warm = answer_inline(&state, &request).expect("warm cache answers inline");
        assert_eq!(warm.headers, CACHE_HIT);
        assert_eq!(warm.body, cold.body, "the hit is the cached body");

        // An ingest parked in its WAL append holds the corpus write
        // lock: the lookup must not wait for it.
        let ingest = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                state.live.apply(&IngestOp::Append {
                    author: "alice".into(),
                    text: "49ers again".into(),
                })
            })
        };
        wal_gate.wait_parked();
        assert!(
            matches!(answer_inline_within(&state, &request), Err(None)),
            "a held write lock must send the request to a worker without a lookup"
        );
        assert_eq!(state.metrics.fallback_lookups.load(SeqCst), 1);
        wal_gate.release();
        ingest.join().unwrap().unwrap();

        // A reload parked mid-build holds no lock readers take: the loop
        // keeps answering from the cache at the current epochs.
        let warm = answer_inline(&state, &request).expect_err("the ingest moved the corpus epoch");
        handle_search(&state, &request, warm);
        let reload_gate = Arc::new(Gate::default());
        let reload = {
            let (state, gate) = (Arc::clone(&state), Arc::clone(&reload_gate));
            std::thread::spawn(move || state.shared.reload_with(&domains_path, gate.as_ref(), 0))
        };
        reload_gate.wait_parked();
        assert!(answer_inline_within(&state, &request).is_ok(), "a parked reload stalled the loop");
        reload_gate.release();
        assert_eq!(reload.join().unwrap().unwrap(), 1);
        assert_eq!(state.metrics.fallback_lookups.load(SeqCst), 1);
        assert_eq!(state.metrics.inline_hits.load(SeqCst), 2);
        assert_eq!(state.metrics.cache_hits.load(SeqCst), 2);
        assert_eq!(state.metrics.cache_misses.load(SeqCst), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_stale_lookup_is_taken_again_at_the_workers_epochs() {
        let domains = DomainCollection::from_groups(vec![vec!["49ers".into()]]);
        let state = State::new(
            ServeConfig::default(),
            Arc::new(LiveCorpus::new(tiny_corpus())),
            Arc::new(SharedEsharp::new(Esharp::new(domains, EsharpConfig::tiny()))),
            Arc::new(NoFaults),
            ServeHooks::default(),
        );
        let (request, _) = http::parse_request(b"GET /search?q=49ers HTTP/1.1\r\n\r\n", &state.limits)
            .unwrap()
            .unwrap();
        let stale = answer_inline(&state, &request).expect_err("cold cache");
        // The corpus moves between the loop's lookup and the worker.
        state
            .live
            .apply(&IngestOp::Append {
                author: "bob\"q\"".into(),
                text: "49ers".into(),
            })
            .unwrap();
        let response = handle_search(&state, &request, stale);
        let body = String::from_utf8(response.body.to_vec()).unwrap();
        assert!(body.contains("\"corpus_epoch\":1"), "{body}");
        let hit = answer_inline(&state, &request).expect("inserted under the worker's epochs");
        assert_eq!(hit.body, response.body);
        assert_eq!(state.metrics.cache_misses.load(SeqCst), 1, "the miss is counted once");
    }
}
