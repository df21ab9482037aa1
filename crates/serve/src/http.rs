//! A deliberately small HTTP/1.1 subset on std sockets.
//!
//! Enough protocol for the serving endpoints and their load generator:
//! request-line + headers parsing with hard size caps, query string
//! decoding, and response rendering. Parsing is **incremental**
//! ([`parse_request`]): the event loop feeds whatever bytes have arrived
//! and gets back either a complete request plus how many bytes it
//! consumed, "need more", or a typed protocol error — which is what
//! makes keep-alive and pipelined connections parse correctly no matter
//! how the client fragments its writes.

use std::io::{self, Write};

/// Default max bytes of request head (request line + headers).
pub const DEFAULT_MAX_HEAD: usize = 16 * 1024;
/// Default max request body bytes.
pub const DEFAULT_MAX_BODY: usize = 64 * 1024;

/// Request size caps, rejected **before** the offending bytes are read:
/// an oversized `Content-Length` is refused from its declaration alone
/// (`413`), and a head that keeps growing past `max_head` is cut off
/// (`431`) — either way a hostile or confused client cannot pin a
/// worker on an unbounded read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Max bytes of request head (request line + headers).
    pub max_head: usize,
    /// Max declared/readable body bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: DEFAULT_MAX_HEAD,
            max_body: DEFAULT_MAX_BODY,
        }
    }
}

/// Why a request could not be parsed, mapped 1:1 onto a response status
/// so handlers answer the precise protocol error instead of a blanket
/// `400`.
#[derive(Debug)]
pub enum RequestError {
    /// `400` — syntactically invalid request.
    Malformed(io::Error),
    /// `413` — declared `Content-Length` above the cap; the body was
    /// **not** read.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// `431` — request head grew past the cap.
    HeadTooLarge {
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// Socket-level failure (timeout, reset) — no response is owed.
    Io(io::Error),
}

impl RequestError {
    /// The response status this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::BodyTooLarge { .. } => 413,
            RequestError::HeadTooLarge { .. } => 431,
            RequestError::Io(_) => 400,
        }
    }
}

/// A parsed request: method, decoded path, decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (upper-case as sent).
    pub method: String,
    /// The path component, percent-decoded (`/search`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers in order of appearance, names lower-cased, values
    /// trimmed. (`X-Esharp-Deadline-Ms` rides here.)
    pub headers: Vec<(String, String)>,
    /// The request body (`content-length` bytes; empty for bodiless
    /// requests). `POST /ingest` reads op lines from here.
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to be closed after
    /// this response (`Connection: close`, or an HTTP/1.0 request —
    /// this subset does not honor 1.0 keep-alive).
    pub close: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Incrementally parse one request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller
///   drains `consumed` bytes and may call again on the remainder (a
///   pipelined connection carries the next request right there).
/// * `Ok(None)` — the bytes so far are a valid prefix; read more.
/// * `Err(_)` — the prefix can never become a valid in-cap request:
///   malformed syntax (`400`), declared body above cap (`413`, from the
///   declaration alone — the body bytes need never arrive), or a head
///   still headerless past `max_head` (`431`).
pub fn parse_request(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(Request, usize)>, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > limits.max_head {
            return Err(RequestError::HeadTooLarge {
                cap: limits.max_head,
            });
        }
        return Ok(None);
    };
    let (mut request, content_length) = parse_head(&buf[..head_end])?;
    // The cap is enforced on the *declared* length, before a single body
    // byte is waited for — an oversized upload is refused at the cost of
    // its headers.
    if content_length > limits.max_body {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            cap: limits.max_body,
        });
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    request.body = buf[body_start..body_start + content_length].to_vec();
    Ok(Some((request, body_start + content_length)))
}

/// Parse a complete request head (everything before `\r\n\r\n`) into a
/// bodiless [`Request`] plus its declared content length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), RequestError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed(bad("non-UTF-8 request head")))?;
    let malformed = |msg: &str| RequestError::Malformed(bad(msg));
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or_else(|| malformed("missing method"))?;
    let target = parts.next().ok_or_else(|| malformed("missing target"))?;
    let version = parts.next().ok_or_else(|| malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed("unsupported HTTP version"));
    }
    if method.is_empty() || target.is_empty() {
        return Err(malformed("empty method or target"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| malformed("invalid content-length"))?;
            }
            headers.push((name, value));
        }
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path =
        percent_decode(path_raw).ok_or_else(|| malformed("malformed path encoding"))?;
    let mut query = Vec::new();
    if let Some(q) = query_raw {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or_else(|| malformed("malformed query encoding"))?;
            let v = percent_decode(v).ok_or_else(|| malformed("malformed query encoding"))?;
            query.push((k, v));
        }
    }
    // HTTP/1.1 defaults to keep-alive; everything else (and an explicit
    // `Connection: close`) closes after the response.
    let close = version != "HTTP/1.1"
        || headers.iter().any(|(k, v)| {
            k == "connection" && v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
        });
    Ok((
        Request {
            method: method.to_string(),
            path,
            query,
            headers,
            body: Vec::new(),
            close,
        },
        content_length,
    ))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Decode `%XX` escapes and `+`-as-space. `None` on malformed escapes or
/// non-UTF-8 results.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex(*bytes.get(i + 1)?)?;
                let lo = hex(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Encode a query-parameter value: everything but unreserved characters
/// becomes `%XX` (the load generator's counterpart to [`percent_decode`]).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b => {
                out.push('%');
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{b:02X}"));
            }
        }
    }
    out
}

fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Render a complete response into bytes. `close` selects the
/// `connection:` header — the body length is always declared, so a
/// keep-alive client knows exactly where the response ends.
pub fn render_response(
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write_head(&mut out, status, extra_headers, body.len(), close);
    out.extend_from_slice(body);
    out
}

/// Append a response head (status line, headers, blank line) for a body
/// of `body_len` bytes to `out` — [`render_response`] without the body,
/// so the event loop can write a shared body straight after it.
pub fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    extra_headers: &[(&str, &str)],
    body_len: usize,
    close: bool,
) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if close { "close" } else { "keep-alive" };
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {body_len}\r\nconnection: {connection}\r\n"
    );
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        for s in ["49ers", "golden gate", "a+b", "tête-à-tête", "%&?=/"] {
            assert_eq!(percent_decode(&percent_encode(s)).as_deref(), Some(s));
        }
        assert_eq!(percent_decode("a+b").as_deref(), Some("a b"));
        assert_eq!(percent_decode("%2"), None);
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%ff"), None, "lone 0xff is not UTF-8");
    }

    /// Parse one complete request from `wire`, checking it consumes every
    /// byte.
    fn parse_all(wire: &[u8], limits: &Limits) -> Request {
        let (req, consumed) = parse_request(wire, limits).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        req
    }

    #[test]
    fn get_requests_parse_path_and_query() {
        let wire = b"GET /search?q=golden%20gate&top=3 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_all(wire, &Limits::default());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.param("q"), Some("golden gate"));
        assert_eq!(req.param("top"), Some("3"));
        assert_eq!(req.param("missing"), None);
        let reply = render_response(200, &[("x-test", "1")], b"{}", true);
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("x-test: 1"));
        assert!(reply.ends_with("{}"));
    }

    #[test]
    fn post_bodies_are_drained() {
        let wire = b"POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_all(wire, &Limits::default());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/reload");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        let limits = Limits::default();
        for payload in [
            "garbage\r\n\r\n",
            "GET /x%zz HTTP/1.1\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ] {
            let err = parse_request(payload.as_bytes(), &limits).unwrap_err();
            assert!(matches!(err, RequestError::Malformed(_)), "{payload:?}: {err:?}");
            assert_eq!(err.status(), 400);
        }
        // No bytes yet is not an error: the parser asks for more.
        assert!(matches!(parse_request(b"", &limits), Ok(None)));
    }

    #[test]
    fn headers_are_parsed_case_insensitively() {
        let wire = b"GET /search?q=a HTTP/1.1\r\nX-Esharp-Deadline-Ms: 75\r\nHost: x\r\n\r\n";
        let req = parse_all(wire, &Limits::default());
        assert_eq!(req.header("x-esharp-deadline-ms"), Some("75"));
        assert_eq!(req.header("X-ESHARP-DEADLINE-MS"), Some("75"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        // A huge body is declared but none of it has arrived: the
        // declaration alone is refused, so the server never waits on body
        // bytes.
        let limits = Limits {
            max_head: 1024,
            max_body: 64,
        };
        let wire = b"POST /ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let err = parse_request(wire, &limits).unwrap_err();
        assert!(
            matches!(
                err,
                RequestError::BodyTooLarge {
                    declared: 999999,
                    cap: 64
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.status(), 413);
        let reply = render_response(err.status(), &[], b"{}", true);
        assert!(reply.starts_with(b"HTTP/1.1 413 Payload Too Large\r\n"));
    }

    #[test]
    fn incremental_parse_handles_every_split_point() {
        let limits = Limits::default();
        let wire = b"POST /ingest HTTP/1.1\r\nHost: x\r\ncontent-length: 5\r\n\r\nhello";
        for cut in 0..wire.len() {
            let prefix = &wire[..cut];
            assert!(
                matches!(parse_request(prefix, &limits), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let (req, consumed) = parse_request(wire, &limits).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let limits = Limits::default();
        let mut wire = Vec::new();
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        wire.extend_from_slice(b"POST /ingest HTTP/1.1\r\ncontent-length: 2\r\n\r\nok");
        wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut offset = 0;
        let mut parsed = Vec::new();
        while let Some((req, consumed)) = parse_request(&wire[offset..], &limits).unwrap() {
            offset += consumed;
            parsed.push(req);
        }
        assert_eq!(offset, wire.len());
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].path, "/healthz");
        assert_eq!(parsed[1].body, b"ok");
        assert!(!parsed[1].close);
        assert_eq!(parsed[2].path, "/metrics");
        assert!(parsed[2].close, "Connection: close must be honored");
    }

    #[test]
    fn close_is_inferred_from_version_and_header() {
        let limits = Limits::default();
        let (req, _) = parse_request(b"GET / HTTP/1.0\r\n\r\n", &limits).unwrap().unwrap();
        assert!(req.close, "HTTP/1.0 closes");
        let (req, _) =
            parse_request(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", &limits)
                .unwrap()
                .unwrap();
        assert!(req.close, "header is case-insensitive");
    }

    #[test]
    fn render_response_declares_connection_state() {
        let keep = render_response(200, &[("x-a", "1")], b"{}", false);
        let text = String::from_utf8(keep).unwrap();
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(text.contains("content-length: 2"), "{text}");
        assert!(text.contains("x-a: 1"), "{text}");
        let close = render_response(503, &[], b"", true);
        assert!(String::from_utf8(close).unwrap().contains("connection: close"));
    }

    #[test]
    fn render_response_bytes_are_pinned() {
        assert_eq!(
            render_response(200, &[("x-esharp-cache", "hit")], b"{}", false),
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\nx-esharp-cache: hit\r\n\r\n{}"
        );
        let mut head = b"earlier".to_vec();
        write_head(&mut head, 503, &[], 0, true);
        assert_eq!(
            head,
            b"earlierHTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
        );
    }

    #[test]
    fn oversized_head_is_rejected() {
        let limits = Limits {
            max_head: 512,
            max_body: 64,
        };
        // A head still growing past the cap, its blank line not yet sent.
        let head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n", "a".repeat(4096));
        assert!(matches!(parse_request(&head.as_bytes()[..512], &limits), Ok(None)));
        let err = parse_request(head.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, RequestError::HeadTooLarge { cap: 512 }), "{err:?}");
        assert_eq!(err.status(), 431);
        let reply = render_response(err.status(), &[], b"{}", true);
        assert!(reply.starts_with(b"HTTP/1.1 431 Request Header Fields Too Large\r\n"));
    }
}
