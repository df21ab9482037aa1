//! HTTP/1.1 keep-alive client and the two load disciplines.
//!
//! * **Closed loop** — a client sends its next request when the previous
//!   answer has arrived, so a slower server is offered less load. This
//!   measures capacity.
//! * **Open loop** — a client sends on a fixed schedule and times every
//!   request from the instant it was *due*, so a stall is charged to all
//!   the requests it delays, as independent users would feel it. How late
//!   the generator itself ran is reported as lag.
//!
//! Every client thread owns one connection. Request order comes from a
//! cursor shared by all clients of a workload, so the stream the server
//! sees is the workload's fixed sequence whatever the client count.

use crate::affinity::{Turns, TURN};
use crate::stats::{micros, windowed_percentile, PerRequest, Summary};
use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a read timeout (a hung server
    /// becomes an error, never a hung benchmark).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            carry: Vec::with_capacity(64 * 1024),
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        let n = self.stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.carry.extend_from_slice(&buf[..n]);
        Ok(())
    }

    /// Send one request and read its response. Returns the status; the
    /// response body replaces the contents of `body`.
    pub fn roundtrip(&mut self, raw: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(raw)?;
        let head_end = loop {
            if let Some(at) = find(&self.carry, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("response has no status"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("response has no content-length"))?;
        while self.carry.len() < head_end + length {
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.carry[head_end..head_end + length]);
        self.carry.drain(..head_end + length);
        Ok(status)
    }
}

/// A request rendered once, before the measured phase.
pub struct PreparedRequest {
    /// The full request bytes.
    pub raw: Vec<u8>,
    /// Queries it carries (1 for `GET /search`, 16 for a batch body).
    pub queries: u64,
}

impl PreparedRequest {
    /// `GET /search?q=<query>` on a keep-alive connection.
    pub fn search(query: &str) -> PreparedRequest {
        let encoded = esharp_serve::http::percent_encode(query);
        PreparedRequest {
            raw: format!("GET /search?q={encoded} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
            queries: 1,
        }
    }

    /// `POST <path>` carrying `body`, counted as `queries` queries.
    pub fn post(path: &str, body: &str, queries: u64) -> PreparedRequest {
        PreparedRequest {
            raw: format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
            queries,
        }
    }
}

/// How a phase's clients time their sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Back-to-back.
    Closed,
    /// A fixed number of requests per second on each connection.
    Open {
        /// Requests per second per connection.
        per_connection: f64,
    },
}

/// Verdict on one `200` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-for-byte what the in-process search renders.
    Correct,
    /// Differs from it.
    Wrong,
    /// Not compared (sampled out, or the corpus moved on before the
    /// comparison could be made at the response's epoch).
    Unchecked,
}

/// Judges a response body given the index of the request that got it.
pub type Check<'a> = dyn Fn(usize, &[u8]) -> Verdict + Sync + 'a;

/// What a phase's clients send, in which order, and how answers are
/// judged.
pub struct Load<'a> {
    /// The server.
    pub addr: SocketAddr,
    /// Prepared requests.
    pub requests: &'a [PreparedRequest],
    /// Indices into `requests`; the workload's fixed order, cycled.
    pub sequence: &'a [usize],
    /// Position in `sequence`, shared by every client and phase of the
    /// workload.
    pub cursor: &'a AtomicUsize,
    /// Output check.
    pub check: &'a Check<'a>,
    /// Processors a single closed-loop client takes in turns (see
    /// [`crate::affinity`]); `None` leaves the threads where the
    /// scheduler puts them.
    pub turns: Option<&'a Turns>,
}

/// Counts and samples of one load phase.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseOutcome {
    /// Phase name.
    pub name: String,
    /// Client threads, one connection each.
    pub clients: usize,
    /// Requests sent.
    pub attempted: u64,
    /// `200` and not judged wrong.
    pub ok: u64,
    /// `503` (shed by admission control).
    pub shed: u64,
    /// Transport failures and any other status.
    pub errors: u64,
    /// `200` whose body failed the byte-for-byte check.
    pub wrong: u64,
    /// Bodies that were compared.
    pub checked: u64,
    /// Queries carried by `ok` requests.
    pub queries_ok: u64,
    /// Wall time from the first send to the last answer.
    pub elapsed_s: f64,
    /// Latency of `ok` requests in µs: from send (closed) or from due
    /// time (open).
    pub latency_us: Summary,
    /// Open loop only: how late each send ran behind its due time, µs.
    pub lag_us: Summary,
    /// Median over one-second windows of each window's median latency
    /// (see [`windowed_percentile`]): for phases whose requests do not
    /// repeat often enough to be taken one by one.
    pub window_p50_us: f64,
    /// Median over one-second windows of each window's p95 latency.
    pub window_p95_us: f64,
    /// Correct queries per second of best latency (see [`PerRequest`]).
    pub best_qps: f64,
    /// Median over the distinct requests of each request's best latency.
    pub best_p50_us: f64,
    /// The same, p95: what the most expensive request in twenty costs.
    pub best_p95_us: f64,
    #[serde(skip)]
    latencies: Vec<f64>,
}

impl PhaseOutcome {
    /// Requests that did not produce a correct answer.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong
    }

    /// Correct queries per second.
    pub fn queries_per_s(&self) -> f64 {
        self.queries_ok as f64 / self.elapsed_s
    }

    /// Raw latency samples of `ok` requests, µs.
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies
    }
}

/// One `ok` request.
struct Sample {
    /// Index into the phase's requests.
    index: usize,
    /// Queries it carried.
    queries: u64,
    /// Seconds into the phase at which it was sent (closed) or due (open).
    from_s: f64,
    /// Latency in µs.
    us: f64,
}

#[derive(Default)]
struct ClientTally {
    attempted: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    wrong: u64,
    checked: u64,
    queries_ok: u64,
    latencies: Vec<Sample>,
    lags: Vec<f64>,
}

fn client_loop(
    load: &Load<'_>,
    pace: Pace,
    phase_started: Instant,
    deadline: Instant,
    stop: &AtomicBool,
    turns: Option<&Turns>,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut conn = Conn::connect(load.addr).ok();
    let mut body = Vec::with_capacity(64 * 1024);
    let interval = match pace {
        Pace::Closed => None,
        Pace::Open { per_connection } => Some(Duration::from_secs_f64(1.0 / per_connection)),
    };
    let started = Instant::now();
    let mut next_turn = started;
    for i in 0u32.. {
        // Between two requests nothing is in flight, so the process can
        // change processor without a request paying for the move.
        if let Some(turns) = turns.filter(|_| Instant::now() >= next_turn) {
            turns.next();
            next_turn = Instant::now() + TURN;
        }
        let due = match interval {
            None => Instant::now(),
            Some(interval) => started + interval * i,
        };
        if due >= deadline || stop.load(Relaxed) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let index = load.sequence[load.cursor.fetch_add(1, Relaxed) % load.sequence.len()];
        let request = &load.requests[index];
        let sent = Instant::now();
        tally.attempted += 1;
        let status = match conn.as_mut() {
            Some(conn) => conn.roundtrip(&request.raw, &mut body),
            None => Err(io::Error::other("not connected")),
        };
        let done = Instant::now();
        match status {
            Ok(200) => match (load.check)(index, &body) {
                Verdict::Wrong => {
                    tally.wrong += 1;
                    tally.checked += 1;
                }
                verdict => {
                    tally.checked += u64::from(verdict == Verdict::Correct);
                    tally.ok += 1;
                    tally.queries_ok += request.queries;
                    let from = if interval.is_some() { due } else { sent };
                    tally.latencies.push(Sample {
                        index,
                        queries: request.queries,
                        from_s: (from - phase_started).as_secs_f64(),
                        us: micros(done - from),
                    });
                }
            },
            Ok(503) => tally.shed += 1,
            Ok(_) => tally.errors += 1,
            Err(_) => {
                tally.errors += 1;
                // A broken connection is replaced; a server that is gone
                // must not turn the loop into a spin.
                conn = Conn::connect(load.addr).ok();
                if conn.is_none() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if interval.is_some() {
            tally.lags.push(micros(sent.saturating_duration_since(due)));
        }
    }
    tally
}

/// Run one phase: `clients` threads, one connection each, until
/// `duration` has passed or `stop` is raised.
pub fn run_phase(
    name: &str,
    load: &Load<'_>,
    clients: usize,
    pace: Pace,
    duration: Duration,
    stop: &AtomicBool,
) -> PhaseOutcome {
    let started = Instant::now();
    let deadline = started + duration;
    // Only a lone back-to-back client has exactly one thread of the
    // process running at a time.
    let turns = load.turns.filter(|_| clients == 1 && pace == Pace::Closed);
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_loop(load, pace, started, deadline, stop, turns)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut outcome = PhaseOutcome {
        name: name.to_string(),
        clients,
        elapsed_s,
        ..PhaseOutcome::default()
    };
    let mut lags = Vec::new();
    let mut timed = Vec::new();
    for tally in tallies {
        outcome.attempted += tally.attempted;
        outcome.ok += tally.ok;
        outcome.shed += tally.shed;
        outcome.errors += tally.errors;
        outcome.wrong += tally.wrong;
        outcome.checked += tally.checked;
        outcome.queries_ok += tally.queries_ok;
        timed.extend(tally.latencies);
        lags.extend(tally.lags);
    }
    outcome.latencies = timed.iter().map(|s| s.us).collect();
    let by_time: Vec<(f64, f64)> = timed.iter().map(|s| (s.from_s, s.us)).collect();
    outcome.window_p50_us = windowed_percentile(&by_time, 50.0).unwrap_or(0.0);
    outcome.window_p95_us = windowed_percentile(&by_time, 95.0).unwrap_or(0.0);
    let by_request: Vec<(usize, u64, f64)> =
        timed.iter().map(|s| (s.index, s.queries, s.us)).collect();
    let per_request = PerRequest::of(&by_request);
    outcome.best_p50_us = per_request.percentile(50.0);
    outcome.best_p95_us = per_request.percentile(95.0);
    outcome.best_qps = per_request.rate_per_s;
    outcome.latency_us = Summary::of(&outcome.latencies);
    outcome.lag_us = Summary::of(&lags);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers every request with `200 {}` and stalls once,
    /// for `stall`, before answering request number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut pending = Vec::new();
            let mut buf = [0u8; 4096];
            let mut served = 0;
            loop {
                while let Some(at) = find(&pending, b"\r\n\r\n") {
                    pending.drain(..at + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let response = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
                    if stream.write_all(response).is_err() {
                        return;
                    }
                }
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => pending.extend_from_slice(&buf[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        let stall = Duration::from_millis(200);
        let (addr, server) = fake_server(5, stall);
        let requests = [PreparedRequest::search("x")];
        let cursor = AtomicUsize::new(0);
        let load = Load {
            addr,
            requests: &requests,
            sequence: &[0],
            cursor: &cursor,
            turns: None,
            check: &|_, body| {
                if body == b"{}" {
                    Verdict::Correct
                } else {
                    Verdict::Wrong
                }
            },
        };
        // 100 requests/s for 0.6 s: one request every 10 ms, so ~20 sends
        // fall due while the server is stalled.
        let open = run_phase(
            "open",
            &load,
            1,
            Pace::Open {
                per_connection: 100.0,
            },
            Duration::from_millis(600),
            &AtomicBool::new(false),
        );
        assert_eq!(open.failed(), 0);
        assert_eq!(open.checked, open.ok);
        assert!(
            open.attempted >= 55,
            "the schedule is kept after the stall: {open:?}"
        );
        // Only one request was slow to *serve*, but every request due
        // during the stall waited for it: about half the stall's sends see
        // more than half the stall.
        let inflated = open
            .latencies_us()
            .iter()
            .filter(|&&us| us > 100_000.0)
            .count();
        assert!(inflated >= 5, "only {inflated} requests charged: {open:?}");
        assert!(open.lag_us.max > 150_000.0, "lag hidden: {open:?}");
        assert!(
            open.lag_us.p50 < 5_000.0,
            "generator kept up outside the stall"
        );

        // The same stall under a closed loop is charged once.
        let (addr, server2) = fake_server(5, stall);
        let cursor = AtomicUsize::new(0);
        let load = Load {
            addr,
            requests: &requests,
            sequence: &[0],
            cursor: &cursor,
            turns: None,
            check: &|_, _| Verdict::Unchecked,
        };
        let closed = run_phase(
            "closed",
            &load,
            1,
            Pace::Closed,
            Duration::from_millis(300),
            &AtomicBool::new(false),
        );
        let slow = closed
            .latencies_us()
            .iter()
            .filter(|&&us| us > 100_000.0)
            .count();
        assert_eq!(slow, 1, "{closed:?}");
        assert_eq!(closed.checked, 0);
        server.join().unwrap();
        server2.join().unwrap();
    }

    #[test]
    fn a_dead_server_counts_errors_and_does_not_hang() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let requests = [PreparedRequest::search("x")];
        let cursor = AtomicUsize::new(0);
        let load = Load {
            addr,
            requests: &requests,
            sequence: &[0],
            cursor: &cursor,
            turns: None,
            check: &|_, _| Verdict::Unchecked,
        };
        let outcome = run_phase(
            "dead",
            &load,
            1,
            Pace::Closed,
            Duration::from_millis(100),
            &AtomicBool::new(false),
        );
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.errors, outcome.attempted);
        assert_eq!(outcome.ok, 0);
    }
}
