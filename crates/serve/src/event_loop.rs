//! The acceptor/dispatcher: one thread, one [`Poller`], every socket.
//!
//! The loop owns all socket I/O. It accepts nonblocking connections,
//! reads and incrementally parses requests into each connection's
//! bounded pipeline, and answers them one per connection at a time, in
//! request order. A `GET /search` the result cache can answer is
//! answered right here ([`crate::server::answer_inline`]): the loop
//! writes the response head and the shared cached body into the
//! connection's output buffer without touching the queue or a worker.
//! Every other request — a search miss carrying its cache lookup,
//! everything else as parsed — goes to the worker pool through the
//! bounded admission [`Queue`]. Workers never touch a socket: they
//! return [`Completion`]s through a shared vector and wake the loop via
//! the self-pipe ([`crate::poller::Wakeup`]).
//!
//! Admission control sits at the dispatch point: a queue-full
//! rejection sheds the *request* (inline `503` + `Retry-After`), not
//! the connection — a persistent client keeps its connection and
//! retries on it, which is the whole point of `Retry-After`
//! (ROBUSTNESS.md §6). Inline hits take no queue slot, so under
//! overload only requests that need a worker are shed.
//!
//! Close semantics:
//! * `Connection: close` (or HTTP/1.0) closes after that request's
//!   response — later pipelined requests are dropped, per RFC.
//! * Protocol errors poison the connection: prior pipelined responses
//!   flush first, then the error response (`400`/`413`/`431`), then a
//!   half-close + drain so the response survives the client's unsent
//!   bytes, then close.
//! * A worker that dies at the unguarded `serve:conn` seam aborts the
//!   connection without a response (the supervisor reports the orphaned
//!   job; the client sees a clean EOF — exactly the PR 8 contract).
//! * Idle keep-alive connections are reaped after
//!   `keep_alive_timeout`; so are clients that stop draining responses
//!   (counted `shed_slow_client`).

use crate::conn::Conn;
use crate::http::{self, RequestError};
use crate::poller::{PollEvent, Poller, Wakeup};
use crate::server::{answer_inline, Completion, Job, Queue, State};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKEUP_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll tick: the upper bound on shutdown/sweep latency.
const TICK_MS: i32 = 100;
/// How long a poisoned connection waits for the client's EOF before
/// closing anyway.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Everything the loop thread needs, bundled for the spawn call.
pub(crate) struct LoopContext {
    pub(crate) listener: TcpListener,
    pub(crate) state: Arc<State>,
    pub(crate) queue: Arc<Queue>,
    pub(crate) completions: Arc<Mutex<Vec<Completion>>>,
    pub(crate) wakeup: Arc<Wakeup>,
    pub(crate) stop: Arc<AtomicBool>,
}

/// Run the loop until `stop` is set (the error arm only fires when the
/// poller itself fails, which means the process is out of descriptors —
/// there is nothing useful left to serve).
pub(crate) fn run(ctx: LoopContext) {
    let _ = run_inner(ctx);
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    state: Arc<State>,
    queue: Arc<Queue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wakeup: Arc<Wakeup>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_depth: usize,
}

fn run_inner(ctx: LoopContext) -> io::Result<()> {
    let LoopContext {
        listener,
        state,
        queue,
        completions,
        wakeup,
        stop,
    } = ctx;
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(
        listener.as_raw_fd(),
        LISTENER_TOKEN,
        crate::poller::Interest::Read,
    )?;
    poller.register(wakeup.fd(), WAKEUP_TOKEN, crate::poller::Interest::Read)?;
    let max_depth = state.config.max_pipeline_depth.max(1);
    let mut el = EventLoop {
        poller,
        listener,
        state,
        queue,
        completions,
        wakeup,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        max_depth,
    };
    let mut events: Vec<PollEvent> = Vec::new();
    while !stop.load(SeqCst) {
        el.poller.wait(&mut events, TICK_MS)?;
        if stop.load(SeqCst) {
            return Ok(());
        }
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => el.accept_ready(),
                WAKEUP_TOKEN => {
                    el.wakeup.drain();
                    el.drain_completions();
                }
                token => {
                    if ev.error && !ev.readable {
                        el.destroy(token);
                        continue;
                    }
                    el.pump(token);
                }
            }
        }
        // Completions can land while we're handling socket events; a
        // notify written after our drain is caught by the next wait, but
        // sweeping here keeps the common case one tick shorter.
        el.drain_completions();
        el.sweep(Instant::now());
    }
    Ok(())
}

impl EventLoop {
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept errors (EMFILE, aborted handshakes):
                // stop for this event, the next readiness retries.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Pipelined responses are small and latency-sensitive; never
            // let Nagle sit on them.
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            self.state.metrics.connections.fetch_add(1, SeqCst);
            let conn = Conn::new(stream, Instant::now());
            self.conns.insert(token, conn);
            // The client's first request may already be buffered; pump
            // now instead of waiting a tick.
            self.pump(token);
        }
    }

    /// Drive one connection as far as its socket and the worker pool
    /// allow: flush, read+parse, dispatch, flush again, then settle
    /// close/interest bookkeeping.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining {
            match conn.discard() {
                Ok(true) => self.destroy(token),
                Ok(false) => {}
                Err(_) => self.destroy(token),
            }
            return;
        }
        if conn.has_output() && conn.flush().is_err() {
            self.destroy(token);
            return;
        }
        if conn.wants_read(self.max_depth) {
            match conn.fill_and_parse(&self.state.limits, self.max_depth) {
                Ok(stats) => {
                    if stats.pipelined > 0 {
                        self.state
                            .metrics
                            .pipelined_requests
                            .fetch_add(stats.pipelined as u64, SeqCst);
                    }
                }
                Err(RequestError::Io(_)) => {
                    self.destroy(token);
                    return;
                }
                Err(err) => {
                    self.state.metrics.client_errors.fetch_add(1, SeqCst);
                    conn.poison = Some(poison_response(&err));
                }
            }
        }
        self.advance(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.has_output() && conn.flush().is_err() {
            self.destroy(token);
            return;
        }
        self.settle(token);
    }

    /// Answer or dispatch the connection's pending requests in order:
    /// cache hits inline, anything else to the worker pool (at most one
    /// in flight per connection, and nothing after it until it
    /// completes, so responses stay in request order), shedding inline
    /// when the admission queue is full, and queueing the poison
    /// response once the pipeline is empty.
    fn advance(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.executing.is_some() || conn.close_after_flush {
                return;
            }
            if let Some(request) = conn.pending.pop_front() {
                conn.served += 1;
                if conn.served > 1 {
                    self.state.metrics.keepalive_reuses.fetch_add(1, SeqCst);
                }
                let close = request.close;
                let lookup = match answer_inline(&self.state, &request) {
                    Ok(hit) => {
                        // Closes exactly as the completion would have.
                        let close = close || conn.eof;
                        conn.queue_response(hit.status, hit.headers, &hit.body, close);
                        continue;
                    }
                    Err(lookup) => lookup,
                };
                let attempt = self.state.job_attempts.fetch_add(1, SeqCst);
                let admitted = self.queue.try_push(Job {
                    token,
                    request,
                    attempt,
                    lookup,
                });
                if admitted {
                    conn.executing = Some(close);
                    return;
                }
                // Queue full: shed the request, keep the connection
                // (unless the client asked to close).
                self.state.metrics.shed_total.fetch_add(1, SeqCst);
                conn.queue_response(
                    503,
                    &[("retry-after", "1")],
                    b"{\"error\":\"overloaded\",\"shed\":true}",
                    close,
                );
                // Loop: later pipelined requests get their own
                // answer/dispatch/shed decision.
            } else if let Some(poison) = conn.poison.take() {
                conn.queue_bytes(&poison);
                conn.close_after_flush = true;
                // The client may still be mid-send of the bytes we
                // refused to parse; drain before closing so the error
                // response isn't torn down by an RST.
                conn.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                return;
            } else {
                return;
            }
        }
    }

    /// Post-I/O bookkeeping: close/drain transitions and poller
    /// interest reconciliation.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush && !conn.has_output() {
            if conn.drain_deadline.is_some() && !conn.eof {
                // Error path: half-close, then read the client out.
                conn.draining = true;
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            } else {
                self.destroy(token);
                return;
            }
        }
        if conn.eof && conn.idle() {
            self.destroy(token);
            return;
        }
        let desired = conn.desired_interest(self.max_depth);
        let fd = conn.stream.as_raw_fd();
        match (conn.registered, desired) {
            (None, None) => {}
            (None, Some(interest)) => {
                if self.poller.register(fd, token, interest).is_ok() {
                    conn.registered = Some(interest);
                } else {
                    self.destroy(token);
                }
            }
            (Some(_), None) => {
                let _ = self.poller.deregister(fd);
                conn.registered = None;
            }
            (Some(current), Some(interest)) => {
                if current != interest {
                    if self.poller.reregister(fd, token, interest).is_ok() {
                        conn.registered = Some(interest);
                    } else {
                        self.destroy(token);
                    }
                }
            }
        }
    }

    /// Apply worker completions: write each response (or
    /// abort the connection when the worker died mid-job), then let the
    /// connection pump forward — a freed pipeline slot may parse and
    /// dispatch the next request immediately.
    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut pending = self
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *pending)
        };
        for completion in batch {
            let token = completion.token;
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match completion.response {
                None => {
                    // The worker died at an unguarded seam: the PR 8
                    // contract is a closed connection with no response.
                    self.destroy(token);
                    continue;
                }
                Some(response) => {
                    let requested_close = conn.executing.take().unwrap_or(false);
                    let close = response.close || requested_close || conn.eof;
                    conn.queue_response(
                        response.status,
                        response.headers,
                        &response.body,
                        close,
                    );
                    conn.last_activity = Instant::now();
                }
            }
            self.pump(token);
        }
    }

    /// Reap idle keep-alive connections, stalled writers, and draining
    /// connections past their grace period. Connections with a job on
    /// the worker pool are exempt — they're waiting on us, not us on
    /// them.
    fn sweep(&mut self, now: Instant) {
        let timeout = self.state.config.keep_alive_timeout;
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        for (token, conn) in &self.conns {
            if conn.draining {
                if conn
                    .drain_deadline
                    .is_some_and(|deadline| now >= deadline)
                {
                    doomed.push((*token, false));
                }
                continue;
            }
            if conn.executing.is_some() {
                continue;
            }
            if now.duration_since(conn.last_activity) > timeout {
                doomed.push((*token, conn.has_output()));
            }
        }
        for (token, stalled_writer) in doomed {
            if stalled_writer {
                self.state.metrics.shed_slow_client.fetch_add(1, SeqCst);
            }
            self.destroy(token);
        }
    }

    fn destroy(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.registered.is_some() {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
        }
    }
}

/// Render the close-and-drain error response for a protocol error, with
/// the same bodies the blocking server answered (chaos_smoke pins them).
fn poison_response(err: &RequestError) -> Vec<u8> {
    let body = match err {
        RequestError::BodyTooLarge { declared, cap } => format!(
            "{{\"error\":\"request body too large\",\"declared\":{declared},\"cap\":{cap}}}"
        ),
        RequestError::HeadTooLarge { cap } => {
            format!("{{\"error\":\"request head too large\",\"cap\":{cap}}}")
        }
        _ => "{\"error\":\"malformed request\"}".to_string(),
    };
    http::render_response(err.status(), &[], body.as_bytes(), true)
}
