//! Per-connection state for the event loop.
//!
//! A [`Conn`] owns one nonblocking socket and the four buffers/queues
//! that carry a keep-alive connection through its lifecycle: an input
//! buffer fed by readiness events and drained by the incremental parser
//! ([`crate::http::parse_request`]), a bounded pipeline of parsed
//! requests waiting to be answered, an output buffer of rendered
//! responses written as the socket allows, and the close/drain
//! bookkeeping (`Connection: close`, protocol-error poisoning, EOF)
//! that decides when the connection ends.
//!
//! The state machine is deliberately passive: the event loop calls
//! these methods and makes every decision. Nothing here blocks — every
//! socket operation stops at `WouldBlock`.

use crate::http::{Limits, Request, RequestError};
use crate::poller::Interest;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Read granularity per syscall.
const CHUNK: usize = 4096;
/// Max bytes consumed from one readiness event before yielding back to
/// the loop (level-triggered polling re-reports the rest), so one
/// firehosing connection cannot starve the others.
const READ_BURST: usize = 64 * 1024;

/// What one read+parse pass produced.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ParseStats {
    /// Requests parsed into the pipeline this pass.
    pub(crate) parsed: usize,
    /// Of those, requests parsed while earlier ones were still queued
    /// or executing — true pipelining.
    pub(crate) pipelined: usize,
}

/// One live connection in the event loop.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Parsed requests waiting to be answered, oldest first. Bounded
    /// by `max_pipeline_depth`: when full, the connection stops reading
    /// and TCP backpressure does the rest.
    pub(crate) pending: VecDeque<Request>,
    /// `Some(request.close)` while this connection has a job on the
    /// worker pool (at most one — responses stay in request order).
    pub(crate) executing: Option<bool>,
    /// Pre-rendered protocol-error response (`400`/`413`/`431`), sent
    /// once all prior pipelined responses have gone out; the connection
    /// then closes. Parsing stops the moment this is set.
    pub(crate) poison: Option<Vec<u8>>,
    /// Close once the output buffer drains.
    pub(crate) close_after_flush: bool,
    /// Half-close and read out the client's in-flight bytes before the
    /// final close, so an error response isn't destroyed by an RST
    /// racing ahead of it (set on the poison path, where the client is
    /// mid-send by definition).
    pub(crate) draining: bool,
    /// When a draining connection gives up waiting for the client's EOF.
    pub(crate) drain_deadline: Option<Instant>,
    pub(crate) eof: bool,
    pub(crate) last_activity: Instant,
    /// Requests answered on this connection; >1 means keep-alive reuse.
    pub(crate) served: u64,
    /// Interest currently registered with the poller (`None` =
    /// deregistered).
    pub(crate) registered: Option<Interest>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            pending: VecDeque::new(),
            executing: None,
            poison: None,
            close_after_flush: false,
            draining: false,
            drain_deadline: None,
            eof: false,
            last_activity: now,
            served: 0,
            registered: None,
        }
    }

    /// Whether this connection should be reading more request bytes.
    pub(crate) fn wants_read(&self, max_depth: usize) -> bool {
        !self.eof
            && self.poison.is_none()
            && !self.close_after_flush
            && !self.draining
            && self.pending.len() < max_depth.max(1)
    }

    /// Read whatever the socket has (up to the fairness burst) and parse
    /// as many complete requests as the pipeline bound allows. Stops at
    /// `WouldBlock`, EOF, a full pipeline, or a protocol error.
    ///
    /// `Err` is either a protocol error (the caller poisons the
    /// connection and still flushes prior responses) or
    /// [`RequestError::Io`] (the socket died; the caller destroys the
    /// connection silently).
    pub(crate) fn fill_and_parse(
        &mut self,
        limits: &Limits,
        max_depth: usize,
    ) -> Result<ParseStats, RequestError> {
        let max_depth = max_depth.max(1);
        let mut stats = ParseStats::default();
        let mut read_total = 0usize;
        loop {
            // Parse everything already buffered first: a single read can
            // carry many pipelined requests.
            while self.pending.len() < max_depth {
                match crate::http::parse_request(&self.inbuf, limits)? {
                    Some((request, consumed)) => {
                        self.inbuf.drain(..consumed);
                        if self.executing.is_some() || !self.pending.is_empty() {
                            stats.pipelined += 1;
                        }
                        stats.parsed += 1;
                        self.pending.push_back(request);
                    }
                    None => break,
                }
            }
            if !self.wants_read(max_depth) || read_total >= READ_BURST {
                return Ok(stats);
            }
            let mut chunk = [0u8; CHUNK];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(stats);
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    read_total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(stats),
                Err(e) => return Err(RequestError::Io(e)),
            }
        }
    }

    /// Append pre-rendered response bytes to the output buffer.
    pub(crate) fn queue_bytes(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    /// Render a response straight into the output buffer: the head, then
    /// `body` (often a cached body shared with the result cache) with no
    /// intermediate copy. A `close` response is this connection's last:
    /// later pipelined requests are dropped and it closes once flushed.
    pub(crate) fn queue_response(
        &mut self,
        status: u16,
        headers: &[(&str, &str)],
        body: &[u8],
        close: bool,
    ) {
        crate::http::write_head(&mut self.outbuf, status, headers, body.len(), close);
        self.outbuf.extend_from_slice(body);
        if close {
            self.close_after_flush = true;
            self.pending.clear();
            self.poison = None;
        }
    }

    pub(crate) fn has_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Write as much buffered output as the socket accepts. `Ok` means
    /// "made whatever progress was possible" (check [`Conn::has_output`]
    /// for leftovers); `Err` means the socket is dead.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "client closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.outpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        Ok(())
    }

    /// Read and throw away client bytes (the drain-before-close dance).
    /// Returns `true` when the connection can finally be destroyed (EOF
    /// or a dead socket).
    pub(crate) fn discard(&mut self) -> io::Result<bool> {
        let mut sink = [0u8; 1024];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(true);
                }
                Ok(_) => {
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(_) => return Ok(true),
            }
        }
    }

    /// Nothing queued, nothing executing, nothing to write.
    pub(crate) fn idle(&self) -> bool {
        self.executing.is_none()
            && self.pending.is_empty()
            && !self.has_output()
            && self.poison.is_none()
    }

    /// The poller interest this connection's state calls for, if any.
    pub(crate) fn desired_interest(&self, max_depth: usize) -> Option<Interest> {
        let read = self.wants_read(max_depth) || self.draining;
        let write = self.has_output();
        match (read, write) {
            (true, true) => Some(Interest::Both),
            (true, false) => Some(Interest::Read),
            (false, true) => Some(Interest::Write),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn pipelined_requests_parse_up_to_the_depth_bound() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        for _ in 0..4 {
            client
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
        }
        // Give the kernel a beat to deliver.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = conn.fill_and_parse(&Limits::default(), 2).unwrap();
        assert_eq!(stats.parsed, 2, "depth bound holds");
        assert_eq!(stats.pipelined, 1, "second request counts as pipelined");
        assert!(!conn.wants_read(2), "full pipeline stops reading");
        conn.pending.pop_front();
        let stats = conn.fill_and_parse(&Limits::default(), 2).unwrap();
        assert_eq!(stats.parsed, 1, "freed slot resumes parsing");
    }

    #[test]
    fn flush_tracks_progress_and_completion() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        conn.queue_bytes(b"hello ");
        conn.queue_bytes(b"world");
        assert!(conn.has_output());
        conn.flush().unwrap();
        assert!(!conn.has_output(), "small writes complete in one pass");
        let mut buf = [0u8; 16];
        use std::io::Read as _;
        client.set_read_timeout(Some(std::time::Duration::from_secs(2))).unwrap();
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world");
    }

    #[test]
    fn queued_responses_match_render_response_and_close_ends_the_pipeline() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        conn.pending.push_back(
            crate::http::parse_request(b"GET /healthz HTTP/1.1\r\n\r\n", &Limits::default())
                .unwrap()
                .unwrap()
                .0,
        );
        conn.queue_response(200, &[("x-esharp-cache", "hit")], b"{}", false);
        assert!(!conn.close_after_flush && conn.pending.len() == 1);
        conn.queue_response(503, &[], b"{\"shed\":true}", true);
        let mut expected =
            crate::http::render_response(200, &[("x-esharp-cache", "hit")], b"{}", false);
        expected.extend(crate::http::render_response(503, &[], b"{\"shed\":true}", true));
        assert_eq!(conn.outbuf, expected);
        assert!(conn.close_after_flush, "a close response is the last");
        assert!(conn.pending.is_empty(), "later pipelined requests are dropped");
    }

    #[test]
    fn protocol_errors_surface_and_eof_is_latched() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        client.write_all(b"garbage\r\n\r\n").unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let err = conn.fill_and_parse(&Limits::default(), 8).unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)), "{err:?}");
        assert!(conn.idle());
    }
}
