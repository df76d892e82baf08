//! A dependency-free HTTP/1.1 subset: enough protocol to serve and query
//! JSON endpoints, and nothing more.
//!
//! Implemented: request line + headers + `Content-Length` bodies,
//! keep-alive (the HTTP/1.1 default) and `Connection: close`, status lines,
//! and hard limits on header and body size so a misbehaving client cannot
//! balloon memory. Not implemented (requests using them are rejected, never
//! mis-parsed): chunked transfer encoding, continuation lines, trailers,
//! upgrades, HTTP/2.
//!
//! Parsers work over any `BufRead`, so the malformed-input fuzz tests drive
//! them with in-memory byte soup; none of the error paths panic.

use std::io::{self, BufRead, Write};

/// Largest accepted request line + header block, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; the message is safe to echo to the client.
    Bad(String),
    /// The underlying socket failed.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, HttpError> {
    Err(HttpError::Bad(msg.into()))
}

/// Classify a failed body `read_exact`: EOF means the peer closed inside
/// the promised body (a framing truncation — protocol-level), while any
/// other error (a read timeout, a reset) is a transport condition and must
/// keep its [`io::ErrorKind`] so callers can tell a stall from a close.
fn body_read_error(e: io::Error) -> HttpError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        HttpError::Bad("connection closed inside body".into())
    } else {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method verb, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string split off into [`Request::query`]).
    pub path: String,
    /// Raw query string after `?`, if any (`None` when absent; `Some("")`
    /// for a bare trailing `?`).
    pub query: Option<String>,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to keep the connection open? HTTP/1.1 defaults
    /// to yes unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Read one line terminated by `\n` (tolerating `\r\n`), bounded by
/// `remaining` header budget. Returns `None` on clean EOF before any byte.
fn read_line(r: &mut impl BufRead, remaining: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return bad("truncated header line");
            }
            Ok(_) => {}
            Err(e) => return Err(e.into()),
        }
        if *remaining == 0 {
            return bad(format!("headers exceed {MAX_HEADER_BYTES} bytes"));
        }
        *remaining -= 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Bad("header line is not UTF-8".into()));
        }
        line.push(byte[0]);
    }
}

/// Parse `METHOD TARGET VERSION` and split the query string off the
/// target. Shared by the one-shot and incremental parsers so both reject
/// (and word) malformed request lines identically.
fn parse_request_line(request_line: &str) -> Result<(String, String, Option<String>), HttpError> {
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p, v),
        _ => return bad(format!("malformed request line {request_line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return bad(format!("unsupported protocol {version:?}"));
    }
    // Routing matches on the path alone: split any query string off so
    // `/metrics?format=prom` reaches the `/metrics` endpoint (which then
    // reads the format knob from the query).
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };
    Ok((method, path, query))
}

/// Parse one `name: value` header line. Shared by both parsers.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::Bad(format!("malformed header {line:?}")))?;
    if name.is_empty() || name.contains(' ') {
        return bad(format!("malformed header name {name:?}"));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

/// Validate framing headers and return the declared body length. Shared by
/// both parsers; check order matters for identical error wording.
fn body_length(req: &Request) -> Result<usize, HttpError> {
    if req.header("transfer-encoding").is_some() {
        return bad("transfer-encoding is not supported");
    }
    // RFC 7230 §3.3.2: conflicting Content-Length values are a framing
    // attack (request smuggling); reject duplicates outright rather than
    // silently trusting the first.
    if req
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return bad("multiple content-length headers");
    }
    let len = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Bad(format!("bad content-length {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return bad(format!("body of {len} bytes exceeds {MAX_BODY_BYTES}"));
    }
    Ok(len)
}

/// Read one request, blocking until it is complete. `Ok(None)` means the
/// peer closed cleanly between requests (normal keep-alive teardown).
///
/// This is the *reference* parser: simplest possible control flow, one
/// blocking pass. The server's reactor uses the incremental
/// [`RequestParser`] instead; `tests/parser_props.rs` pins the two
/// byte-for-byte against each other across every corpus split.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let request_line = match read_line(r, &mut budget)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let (method, path, query) = parse_request_line(&request_line)?;

    let mut headers = Vec::new();
    loop {
        let line = match read_line(r, &mut budget)? {
            None => return bad("connection closed inside headers"),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        headers.push(parse_header_line(&line)?);
    }

    let req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    let len = body_length(&req)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(body_read_error)?;
    Ok(Some(Request { body, ..req }))
}

/// Incremental (resumable, non-blocking) request parser: the reactor's
/// per-connection read state machine.
///
/// Bytes arrive whenever the socket is readable ([`RequestParser::push`]);
/// [`RequestParser::poll`] advances the state machine as far as the
/// buffered bytes allow and yields a complete [`Request`] when one is
/// framed, `Ok(None)` when more bytes are needed, or the same
/// [`HttpError::Bad`] the one-shot [`read_request`] would produce on the
/// equivalent stream. Consecutive keep-alive requests flow through one
/// parser: leftover bytes after a complete request (a pipelined follow-up)
/// stay buffered and are consumed by the next `poll`.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Start of the not-yet-consumed region of `buf`.
    consumed: usize,
    /// Header-byte budget remaining for the in-progress request.
    budget: usize,
    state: ParseState,
}

#[derive(Debug)]
enum ParseState {
    RequestLine,
    Headers(Request),
    Body(Request, usize),
    /// A framing error was reported; the stream is unreliable from here.
    Failed,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// Fresh parser at a request boundary.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            consumed: 0,
            budget: MAX_HEADER_BYTES,
            state: ParseState::RequestLine,
        }
    }

    /// Buffer freshly read socket bytes.
    ///
    /// Consumed bytes are dropped here, lazily: all of them once the buffer
    /// is fully consumed, else the consumed prefix once it is at least half
    /// the buffer. A pipelined backlog is thus moved O(1) times per byte,
    /// instead of once for every request ahead of it.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request — the
    /// reactor's flow-control input (stop reading when a hostile peer
    /// pumps data faster than responses drain).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Is the parser mid-request? (EOF now would truncate a request; at a
    /// boundary it is a clean keep-alive close.)
    pub fn mid_request(&self) -> bool {
        !matches!(self.state, ParseState::RequestLine) || self.buffered() > 0
    }

    /// Extract the next complete line (terminated by `\n`, tolerating
    /// `\r\n`), enforcing the same header-byte budget as the one-shot
    /// parser: a line that cannot complete within the remaining budget is
    /// an error *now* (the blocking parser would hit the same wall on the
    /// byte after the budget).
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        let avail = &self.buf[self.consumed..];
        match avail.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let with_terminator = nl + 1;
                if with_terminator > self.budget {
                    return bad(format!("headers exceed {MAX_HEADER_BYTES} bytes"));
                }
                self.budget -= with_terminator;
                let mut line = &avail[..nl];
                if line.last() == Some(&b'\r') {
                    line = &line[..nl - 1];
                }
                let line = std::str::from_utf8(line)
                    .map_err(|_| HttpError::Bad("header line is not UTF-8".into()))?
                    .to_string();
                self.consumed += with_terminator;
                Ok(Some(line))
            }
            None if avail.len() >= self.budget => {
                // Even if a newline arrived next, consuming it would
                // overrun the budget — fail exactly like the one-shot
                // parser reading its (budget+1)-th header byte.
                bad(format!("headers exceed {MAX_HEADER_BYTES} bytes"))
            }
            None => Ok(None),
        }
    }

    /// Advance as far as the buffered bytes allow. `Ok(Some(_))` yields one
    /// complete request and resets to the next request boundary;
    /// `Ok(None)` means more bytes are needed. After an `Err` the
    /// connection must be torn down — HTTP framing is unreliable past a
    /// parse failure, so the parser latches into a failed state.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        match self.poll_inner() {
            Err(e) => {
                self.state = ParseState::Failed;
                Err(e)
            }
            ok => ok,
        }
    }

    fn poll_inner(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match std::mem::replace(&mut self.state, ParseState::RequestLine) {
                ParseState::RequestLine => match self.take_line()? {
                    None => return Ok(None),
                    Some(line) => {
                        let (method, path, query) = parse_request_line(&line)?;
                        self.state = ParseState::Headers(Request {
                            method,
                            path,
                            query,
                            headers: Vec::new(),
                            body: Vec::new(),
                        });
                    }
                },
                ParseState::Headers(mut req) => match self.take_line()? {
                    None => {
                        self.state = ParseState::Headers(req);
                        return Ok(None);
                    }
                    Some(line) if line.is_empty() => {
                        let len = body_length(&req)?;
                        self.state = ParseState::Body(req, len);
                    }
                    Some(line) => {
                        req.headers.push(parse_header_line(&line)?);
                        self.state = ParseState::Headers(req);
                    }
                },
                ParseState::Body(mut req, len) => {
                    if self.buffered() < len {
                        self.state = ParseState::Body(req, len);
                        return Ok(None);
                    }
                    req.body = self.buf[self.consumed..self.consumed + len].to_vec();
                    self.consumed += len;
                    // Request boundary: leftover bytes are a pipelined
                    // follow-up (`push` compacts); reset the budget.
                    self.budget = MAX_HEADER_BYTES;
                    return Ok(Some(req));
                }
                ParseState::Failed => {
                    self.state = ParseState::Failed;
                    return bad("request stream already failed");
                }
            }
        }
    }
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Write one response with the given `content-type` (the JSON endpoints
/// send `application/json`; the Prometheus exposition is `text/plain`).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// One parsed response (client side).
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// May the connection carry another request? `connection: close`
    /// clears it; HTTP/1.1 defaults to keep-alive. A pooled client must
    /// check this out before reusing the connection — replaying onto a
    /// half-closed socket is the stale keep-alive race.
    pub keep_alive: bool,
}

/// Read one response (client side).
pub fn read_response(r: &mut impl BufRead) -> Result<Response, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = match read_line(r, &mut budget)? {
        None => return bad("connection closed before status line"),
        Some(l) => l,
    };
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::Bad(format!("bad status code in {status_line:?}")))?,
        _ => return bad(format!("malformed status line {status_line:?}")),
    };
    let mut content_length = None;
    let mut keep_alive = true;
    loop {
        let line = match read_line(r, &mut budget)? {
            None => return bad("connection closed inside headers"),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| HttpError::Bad(format!("bad content-length {value:?}")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let len =
        content_length.ok_or_else(|| HttpError::Bad("response without content-length".into()))?;
    if len > MAX_BODY_BYTES {
        return bad(format!(
            "response body of {len} bytes exceeds {MAX_BODY_BYTES}"
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(body_read_error)?;
    Ok(Response {
        status,
        body,
        keep_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn query_strings_are_split_from_the_path() {
        let req = parse(b"GET /metrics?pretty=1&x=2 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("pretty=1&x=2"));
        // A bare '?' leaves an empty query, same path.
        let req = parse(b"GET /v1/predict? HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.query.as_deref(), Some(""));
        // No '?': no query at all.
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query, None);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let smuggle = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello";
        assert!(matches!(parse(smuggle), Err(HttpError::Bad(_))));
        // Even duplicates that agree are refused: framing must be
        // unambiguous.
        let dup = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse(dup), Err(HttpError::Bad(_))));
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_error_without_panic() {
        for bytes in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\ntrunc",
            b"\xff\xfe GET / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bytes), Err(HttpError::Bad(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn oversized_bodies_and_headers_rejected() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(huge.as_bytes()).is_err());
        let mut long_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            long_headers.push_str(&format!("x-filler-{i}: {}\r\n", "y".repeat(32)));
        }
        long_headers.push_str("\r\n");
        assert!(parse(long_headers.as_bytes()).is_err());
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", "{\"ok\":true}", true).unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"ok\":true}");
        assert!(
            resp.keep_alive,
            "keep-alive response must check out reusable"
        );
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn response_connection_close_checks_out_not_reusable() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", "{}", false).unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert!(!resp.keep_alive, "connection: close must fail the checkout");
        // Case-insensitive, whitespace-tolerant; absence defaults to reuse.
        let close = b"HTTP/1.1 200 OK\r\nConnection:  CLOSE \r\ncontent-length: 0\r\n\r\n";
        assert!(
            !read_response(&mut BufReader::new(&close[..]))
                .unwrap()
                .keep_alive
        );
        let bare = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        assert!(
            read_response(&mut BufReader::new(&bare[..]))
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn malformed_responses_error_without_panic() {
        for bytes in [
            &b""[..],
            b"HTTP/1.1\r\n\r\n",
            b"NOTHTTP 200 OK\r\n\r\n",
            b"HTTP/1.1 xyz OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n", // no content-length
            b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab",
        ] {
            assert!(
                read_response(&mut BufReader::new(bytes)).is_err(),
                "{:?} must be rejected",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 422, 500, 501] {
            assert_ne!(reason(code), "Unknown");
        }
        assert_eq!(reason(599), "Unknown");
    }
}
