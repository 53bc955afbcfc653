//! Minimal HTTP/1.1 framing: blocking streams and incremental buffers.
//!
//! Supports exactly what the service needs: request line + headers +
//! `Content-Length` bodies, keep-alive, pipelining, and plain responses.
//! Chunked transfer encoding is rejected; bodies and header sections are
//! size-limited so a misbehaving client cannot balloon memory.
//!
//! Two entry points share one grammar: [`read_request`] parses off a
//! blocking `BufRead` (tests, the retrying client's server stub), and
//! [`parse_request`] parses incrementally out of a byte buffer — the
//! event loop's per-connection state machine feeds it whatever bytes
//! have arrived and gets back either a complete request plus how many
//! bytes it consumed, or "need more". Size limits are enforced *while*
//! bytes accumulate, so an attacker streaming an endless header line is
//! rejected long before the connection buffer grows.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::ops::Deref;
use std::sync::Arc;

/// Longest accepted request line / header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;
/// Largest accepted request body, in bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent ("GET", "POST", …).
    pub method: String,
    /// Request path, without query string.
    pub path: String,
    /// Raw query string (bytes after `?`, without the `?`; empty when
    /// the target had none).
    pub query: String,
    /// Header map; names lower-cased.
    pub headers: HashMap<String, String>,
    /// Request body (empty when no Content-Length).
    pub body: Vec<u8>,
}

impl Request {
    /// Build an in-memory request (used by tests and the bench harness —
    /// the router's `handle` doesn't need a socket). A `?` in `path`
    /// splits it into path + query like the wire parser would.
    pub fn new(method: &str, path: &str, body: &[u8]) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        Request {
            method: method.to_string(),
            path,
            query,
            headers: HashMap::new(),
            body: body.to_vec(),
        }
    }

    /// Does the client ask to keep the connection open? HTTP/1.1
    /// defaults to yes unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Value of one `key=value` query parameter, unescaped only for
    /// the characters the debug endpoints need (none — values are
    /// numbers and route labels).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Response body bytes: owned, or shared out of the advise cache so a
/// warm cache hit replays the rendered answer without copying it.
#[derive(Debug, Clone)]
pub enum Body {
    /// Exclusively owned bytes (the common case: freshly rendered JSON).
    Bytes(Vec<u8>),
    /// A reference-counted string slab shared with the response cache; a
    /// hit is a refcount bump, not a copy.
    Shared(Arc<str>),
}

impl Body {
    /// The body bytes, whichever variant holds them.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Bytes(b) => b,
            Body::Shared(s) => s.as_bytes(),
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Is the body empty?
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Extract owned bytes, copying only for the shared variant.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Body::Bytes(b) => b,
            Body::Shared(s) => s.as_bytes().to_vec(),
        }
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Body {}

impl From<Vec<u8>> for Body {
    fn from(b: Vec<u8>) -> Body {
        Body::Bytes(b)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Bytes(s.into_bytes())
    }
}

impl From<Arc<str>> for Body {
    fn from(s: Arc<str>) -> Body {
        Body::Shared(s)
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Bytes(s.as_bytes().to_vec())
    }
}

/// An HTTP response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, …).
    pub status: u16,
    /// Value for the Content-Type header.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `X-Request-Id`), written verbatim
    /// after the standard ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes (owned or cache-shared).
    pub body: Body,
}

impl Response {
    /// JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Was this an error response (status >= 400)?
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error (including read timeouts).
    Io(std::io::Error),
    /// The bytes on the wire were not a well-formed request. The message
    /// is safe to echo back in a 400.
    Malformed(String),
    /// Well-formed but unsupported (chunked encoding, oversized body…).
    /// `.0` is the status to answer with, `.1` the message.
    Unsupported(u16, String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::Unsupported(code, m) => write!(f, "unsupported ({code}): {m}"),
        }
    }
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(HttpError::Malformed("unexpected EOF mid-line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(HttpError::Unsupported(431, "header line too long".into()));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Parse an HTTP/1.x request line into `(method, path, query)`. The
/// query string is split off the target (the debug endpoints filter by
/// it); a non-1.x version is a 505.
fn parse_request_line(line: &str) -> Result<(String, String, String), HttpError> {
    let mut parts = line.split_whitespace();
    let method =
        parts.next().ok_or_else(|| HttpError::Malformed("empty request line".into()))?.to_string();
    let target =
        parts.next().ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version =
        parts.next().ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Unsupported(505, format!("unsupported version {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok((method, path, query))
}

/// Fold one header line into the map. Repeated header names fold into
/// one comma-joined value (RFC 9110 §5.2) instead of last-wins — so a
/// request smuggling two `X-Deadline-Ms` values yields "a, b", which
/// fails numeric parsing downstream rather than silently picking one.
fn insert_header(headers: &mut HashMap<String, String>, line: &str) -> Result<(), HttpError> {
    if headers.len() >= MAX_HEADERS {
        return Err(HttpError::Unsupported(431, "too many headers".into()));
    }
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
    match headers.entry(name.trim().to_ascii_lowercase()) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let joined: &mut String = e.get_mut();
            joined.push_str(", ");
            joined.push_str(value.trim());
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(value.trim().to_string());
        }
    }
    Ok(())
}

/// Validate framing headers and return the declared body length.
fn body_length(headers: &HashMap<String, String>) -> Result<usize, HttpError> {
    if headers.get("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::Unsupported(501, "chunked transfer encoding not supported".into()));
    }
    match headers.get("content-length") {
        None => Ok(0),
        Some(len) => {
            let n: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {len:?}")))?;
            if n > MAX_BODY {
                return Err(HttpError::Unsupported(413, "request body too large".into()));
            }
            Ok(n)
        }
    }
}

/// Read one request off the stream. `Ok(None)` means the client closed
/// the connection cleanly before sending another request.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let (method, path, query) = parse_request_line(&request_line)?;

    let mut headers = HashMap::new();
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| HttpError::Malformed("EOF inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        insert_header(&mut headers, &line)?;
    }

    let len = body_length(&headers)?;
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Malformed("EOF inside body".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    Ok(Some(Request { method, path, query, headers, body }))
}

/// Try to parse one complete request out of the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` holds a complete
/// request in its first `consumed` bytes, `Ok(None)` when more bytes are
/// needed, and `Err` when the bytes already received can never become a
/// well-formed request. Limits are enforced incrementally: a header line
/// beyond 8 KiB (`MAX_LINE`), more than 100 headers (`MAX_HEADERS`), or
/// a declared body beyond [`MAX_BODY`] are rejected as soon as the
/// offending bytes arrive, even mid-request. This is the parser behind
/// the event loop's per-connection state machine; the grammar is shared
/// with [`read_request`].
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let mut line_start = 0usize;
    let mut request_line: Option<(String, String, String)> = None;
    let mut headers = HashMap::new();
    let mut head_len: Option<usize> = None;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            // `+ 1` mirrors read_line, which counts the not-yet-stripped
            // `\r` against the limit as well.
            if i - line_start + 1 > MAX_LINE {
                return Err(HttpError::Unsupported(431, "header line too long".into()));
            }
            continue;
        }
        let mut line = &buf[line_start..i];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?;
        line_start = i + 1;
        if request_line.is_none() {
            request_line = Some(parse_request_line(line)?);
        } else if line.is_empty() {
            head_len = Some(i + 1);
            break;
        } else {
            insert_header(&mut headers, line)?;
        }
    }
    let Some(head_len) = head_len else {
        // Head incomplete. The per-line length check above already ran
        // for the partial trailing line; header count is bounded by
        // insert_header. Just wait for more bytes.
        return Ok(None);
    };
    let (method, path, query) = request_line.expect("head complete implies request line parsed");
    let len = body_length(&headers)?;
    if buf.len() < head_len + len {
        return Ok(None);
    }
    let body = buf[head_len..head_len + len].to_vec();
    Ok(Some((Request { method, path, query, headers, body }, head_len + len)))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Serialize a response to wire bytes. `keep_alive` controls the
/// `Connection` header: the event loop forces `close` during graceful
/// drain regardless of what the client asked for.
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(192 + response.body.len());
    encode_response_into(response, keep_alive, &mut out);
    out
}

/// Append the wire encoding of `response` to `out` without any
/// intermediate buffer — the event loop serializes straight into each
/// connection's (reused) write buffer, so a warm response costs no
/// per-response allocation here.
pub fn encode_response_into(response: &Response, keep_alive: bool, out: &mut Vec<u8>) {
    let mut head = ByteWriter(out);
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
}

/// `fmt::Write` adapter over a byte buffer (header text is always ASCII
/// here, and UTF-8 regardless, so pushing the formatted bytes is safe).
struct ByteWriter<'a>(&'a mut Vec<u8>);

impl fmt::Write for ByteWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Serialize a response onto the stream (does not flush-close).
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    writer.write_all(&encode_response(response, keep_alive))?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(r.keep_alive());
    }

    #[test]
    fn parses_post_with_content_length() {
        let r = parse("POST /v1/predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(r.body, b"{\"a\":1}");
        assert_eq!(r.headers.get("content-length").map(String::as_str), Some("7"));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!r.keep_alive());
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn truncated_body_is_malformed() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(e, HttpError::Malformed(_)), "{e}");
    }

    #[test]
    fn chunked_encoding_rejected() {
        let e = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(501, _)), "{e}");
    }

    #[test]
    fn duplicate_headers_fold_comma_joined() {
        let r = parse("GET / HTTP/1.1\r\nX-Deadline-Ms: 500\r\nX-Deadline-Ms: 9000\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.headers.get("x-deadline-ms").map(String::as_str), Some("500, 9000"));
    }

    #[test]
    fn gateway_timeout_has_a_reason_phrase() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(504, "{}"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"), "{text}");
    }

    #[test]
    fn query_string_is_split_off_the_path() {
        let r = parse("GET /v1/models?verbose=1 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.path, "/v1/models");
        assert_eq!(r.query, "verbose=1");
        assert_eq!(r.query_param("verbose"), Some("1"));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn query_params_parse_multiple_pairs() {
        let r = Request::new("GET", "/debug/requests?since_us=123&route=advise", b"");
        assert_eq!(r.path, "/debug/requests");
        assert_eq!(r.query_param("since_us"), Some("123"));
        assert_eq!(r.query_param("route"), Some("advise"));
        assert_eq!(r.query_param("flag"), None);
        let plain = Request::new("GET", "/healthz", b"");
        assert_eq!(plain.query, "");
        assert_eq!(plain.query_param("anything"), None);
    }

    #[test]
    fn oversized_declared_body_rejected() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let e = parse(&raw).unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(413, _)), "{e}");
    }

    #[test]
    fn response_serialization_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn incremental_parse_matches_streaming_parse() {
        let raw =
            "POST /v1/predict HTTP/1.1\r\nX-Request-Id: r1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let (inc, consumed) = parse_request(raw.as_bytes()).unwrap().unwrap();
        let streamed = parse(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(inc.method, streamed.method);
        assert_eq!(inc.path, streamed.path);
        assert_eq!(inc.headers, streamed.headers);
        assert_eq!(inc.body, streamed.body);
    }

    #[test]
    fn incremental_parse_needs_more_on_any_prefix() {
        let raw = "POST /v1/advise HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"o\":120}";
        for cut in 0..raw.len() {
            let r = parse_request(&raw.as_bytes()[..cut]).unwrap();
            assert!(r.is_none(), "prefix of {cut} bytes parsed early");
        }
        let (req, consumed) = parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.body, b"{\"o\":120}");
    }

    #[test]
    fn incremental_parse_consumes_only_the_first_pipelined_request() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let (second, consumed2) = parse_request(&raw.as_bytes()[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incremental_parse_rejects_oversized_line_before_completion() {
        // No newline yet — a streaming attacker. Rejected as soon as the
        // line crosses MAX_LINE, not when (never) it completes.
        let raw = format!("GET /{} ", "a".repeat(MAX_LINE + 10));
        let e = parse_request(raw.as_bytes()).unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(431, _)), "{e}");
    }

    #[test]
    fn incremental_parse_folds_duplicate_headers_like_streaming() {
        let raw = "GET / HTTP/1.1\r\nX-Deadline-Ms: 500\r\nX-Deadline-Ms: 9000\r\n\r\n";
        let (req, _) = parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(req.headers.get("x-deadline-ms").map(String::as_str), Some("500, 9000"));
    }

    #[test]
    fn encode_response_matches_write_response() {
        let mut resp = Response::json(200, "{}");
        resp.headers.push(("X-Request-Id", "abc".into()));
        let mut streamed = Vec::new();
        write_response(&mut streamed, &resp, true).unwrap();
        assert_eq!(encode_response(&resp, true), streamed);
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut resp = Response::json(200, "{}");
        resp.headers.push(("X-Request-Id", "abc123".into()));
        let mut out = Vec::new();
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: abc123\r\n"), "{text}");
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("X-Request-Id"));
        assert_eq!(body, "{}");
    }
}
