//! Minimal HTTP/1.x message framing.
//!
//! The build environment is offline, so the service speaks HTTP through a
//! small vendored-shim-style implementation instead of a framework: request
//! parsing (request line, headers, `Content-Length` body), response writing,
//! and persistent connections.  Only what the service and its clients need
//! is implemented — chunked transfer encoding exists on the **response**
//! side only (the streaming `/v1/design` endpoint, via
//! [`Response::write_chunked_head`] + [`chunk_frame`]); chunked
//! *requests* are still rejected, and there are no trailers and no
//! `Expect: 100-continue`.
//!
//! [`parse_request`] is the **incremental** parser the event loop feeds
//! from a per-connection read buffer.  It is stateless: each call rescans
//! the buffer and either returns a complete request plus the byte count it
//! consumed, or [`ParseStatus::Partial`] meaning "read more".  The serve
//! tests hold it to a blocking line-by-line reader as its oracle.
//!
//! Close semantics follow RFC 7230 §6.3: HTTP/1.1 defaults to keep-alive
//! unless a `Connection` header lists `close`; HTTP/1.0 defaults to close
//! unless one lists `keep-alive` — and `close` always wins, even in a
//! combined `keep-alive, close` token list.  Conflicting duplicate
//! `Content-Length` headers are rejected outright (the classic
//! request-smuggling desync shape); identical duplicates are tolerated.

use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// Upper bound on the request head (request line + headers) in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// The HTTP/1.x protocol version of a request — it decides the keep-alive
/// default (1.1: keep open; 1.0: close).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: connections close after the response unless the client
    /// sent `Connection: keep-alive`.
    Http10,
    /// `HTTP/1.1` (and any other `HTTP/1.x`): connections persist unless
    /// either side sends `Connection: close`.
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Query string after `?`, if any (not URL-decoded).
    pub query: Option<String>,
    /// Protocol version from the request line.
    pub version: Version,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// First value of a header, by lowercase name — shared by the server parser
/// and [`crate::client`] so framing rules cannot drift between them.
pub fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Splits one header line (already stripped of CR/LF) into its lowercased
/// name and trimmed value — shared by the server parser and
/// [`crate::client`].
pub fn parse_header(trimmed: &str) -> Option<(String, String)> {
    let (name, value) = trimmed.split_once(':')?;
    Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// The body length declared by `Content-Length`, across *all* such headers.
/// Mismatched duplicates are a request-smuggling/desync shape and are
/// rejected; identical duplicates (including comma-joined repeats of one
/// value) are tolerated per RFC 7230 §3.3.2.
///
/// # Errors
///
/// [`HttpError::BadRequest`] on an unparsable value or conflicting
/// duplicates.
pub fn content_length_of(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut declared: Option<usize> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        for token in value.split(',') {
            let token = token.trim();
            let n = token
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{token}`")))?;
            match declared {
                Some(prev) if prev != n => {
                    return Err(HttpError::BadRequest(format!(
                        "conflicting content-length headers ({prev} vs {n})"
                    )));
                }
                _ => declared = Some(n),
            }
        }
    }
    Ok(declared.unwrap_or(0))
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// True when the connection must close after this request.  `Connection`
    /// headers are parsed as comma-separated token lists and `close` wins
    /// over `keep-alive`; absent a decisive token, HTTP/1.1 keeps the
    /// connection open and HTTP/1.0 closes it.
    pub fn wants_close(&self) -> bool {
        let mut keep_alive = false;
        for (name, value) in &self.headers {
            if name != "connection" {
                continue;
            }
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return true;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
        match self.version {
            Version::Http11 => false,
            Version::Http10 => !keep_alive,
        }
    }
}

/// Errors produced while parsing a request.
#[derive(Debug)]
pub enum HttpError {
    /// The request was malformed; the message is safe to echo to the peer.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    PayloadTooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::PayloadTooLarge => write!(f, "request body too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Parses `METHOD target HTTP/1.x` into its parts.
fn parse_request_line(line: &str) -> Result<(String, String, Version), HttpError> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".to_string()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version `{version}`"
        )));
    }
    let version = if version == "HTTP/1.0" {
        Version::Http10
    } else {
        Version::Http11
    };
    Ok((method, target, version))
}

/// Assembles the final [`Request`] once framing is settled.
fn build_request(
    method: String,
    target: String,
    version: Version,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Request {
        method,
        path,
        query,
        version,
        headers,
        body,
    }
}

/// Validates headers that affect body framing and returns the declared
/// body length.
fn framed_body_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    // Only Content-Length framing is supported; a chunked body we cannot
    // frame would desync the keep-alive stream into phantom requests, so it
    // must be rejected (the 400 path closes the connection).
    if find_header(headers, "transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send a content-length body".to_string(),
        ));
    }
    let content_length = content_length_of(headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge);
    }
    Ok(content_length)
}

/// What [`parse_request`] found in the buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// A complete request; the first `consumed` buffer bytes belong to it
    /// (drain them before re-parsing — pipelined requests may follow).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied (head + body).
        consumed: usize,
    },
    /// The buffer holds only a prefix of a request; read more bytes.
    Partial,
}

/// Incremental, stateless request parser over a connection's read buffer.
/// Rescans `buf` from the start on every call: returns
/// [`ParseStatus::Partial`] until a full head (terminated by a blank line)
/// and its declared body have arrived, then the parsed request plus the
/// byte count to drain.
///
/// # Errors
///
/// [`HttpError::BadRequest`] on malformed input or a head exceeding
/// [`MAX_HEAD_BYTES`]; [`HttpError::PayloadTooLarge`] on an oversized
/// declared body.
pub fn parse_request(buf: &[u8]) -> Result<ParseStatus, HttpError> {
    // Locate the end of the head: the first empty line.  Lines end at `\n`
    // with an optional `\r` before it.
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut cursor = 0;
    let mut head_end = None;
    while let Some(nl) = buf[cursor..].iter().position(|&b| b == b'\n') {
        let mut line = &buf[cursor..cursor + nl];
        if let [head @ .., b'\r'] = line {
            line = head;
        }
        cursor += nl + 1;
        if line.is_empty() {
            head_end = Some(cursor);
            break;
        }
        lines.push(line);
        if cursor > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large".to_string()));
        }
    }
    let Some(head_end) = head_end else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large".to_string()));
        }
        return Ok(ParseStatus::Partial);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest("request head too large".to_string()));
    }

    let mut lines = lines.into_iter().map(|line| {
        std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".to_string()))
    });
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".to_string()))??;
    let (method, target, version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        let line = line?;
        let Some(header) = parse_header(line) else {
            return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
        };
        headers.push(header);
    }

    let content_length = framed_body_length(&headers)?;
    if buf.len() - head_end < content_length {
        return Ok(ParseStatus::Partial);
    }
    let body = buf[head_end..head_end + content_length].to_vec();
    Ok(ParseStatus::Complete {
        request: build_request(method, target, version, headers, body),
        consumed: head_end + content_length,
    })
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers.
    pub headers: Vec<(String, String)>,
    /// Response body.  Shared, so a cached report reaches the wire straight
    /// from the cache's copy.
    pub body: Arc<String>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Arc<String>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<Arc<String>>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::String(message.to_string()),
        )]))
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
        Self::json(status, body)
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the status codes the service emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Appends the full wire form (status line, headers, body) to `out` —
    /// how the event loop queues a response on a connection's write buffer.
    /// `close` controls the `Connection` header.
    pub fn write_to(&self, close: bool, out: &mut Vec<u8>) {
        out.reserve(HEAD_RESERVE + self.body.len());
        self.write_head(
            format_args!("content-length: {}", self.body.len()),
            close,
            out,
        );
        // One buffer for head + body: a split write interacts with Nagle's
        // algorithm + delayed ACK to add ~40 ms per response.
        out.extend_from_slice(self.body.as_bytes());
    }

    /// Appends the wire form of a `Transfer-Encoding: chunked` response
    /// **head** (status line + headers, no body) to `out` — what a
    /// streaming endpoint writes before its first [`chunk_frame`].
    /// `self.body` is ignored; the stream must be finished with
    /// [`LAST_CHUNK`].
    pub fn write_chunked_head(&self, close: bool, out: &mut Vec<u8>) {
        self.write_head(format_args!("transfer-encoding: chunked"), close, out);
    }

    /// Status line, fixed headers with `framing` third, extra headers and
    /// the blank line.
    fn write_head(&self, framing: fmt::Arguments<'_>, close: bool, out: &mut Vec<u8>) {
        write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{framing}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            if close { "close" } else { "keep-alive" },
        )
        .expect("writing to a Vec cannot fail");
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }
}

/// Head bytes reserved ahead of a response body: the status line, the
/// fixed headers and the service's `x-bitwave-*` headers fit.
const HEAD_RESERVE: usize = 256;

/// The terminating frame of a chunked response body.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// One chunked-encoding frame: hex length line, payload, CRLF.  Empty
/// payloads are skipped (an empty chunk would terminate the stream).
pub fn chunk_frame(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut frame = format!("{:x}\r\n", payload.len()).into_bytes();
    frame.extend_from_slice(payload);
    frame.extend_from_slice(b"\r\n");
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &str) -> Result<Request, HttpError> {
        parse_complete(raw).map(|(request, _)| request)
    }

    fn parse_complete(raw: &str) -> Result<(Request, usize), HttpError> {
        match parse_request(raw.as_bytes())? {
            ParseStatus::Complete { request, consumed } => Ok((request, consumed)),
            ParseStatus::Partial => panic!("expected a complete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = "POST /v1/evaluate?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let req = roundtrip(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/evaluate");
        assert_eq!(req.query.as_deref(), Some("verbose=1"));
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{}");
        assert!(!req.wants_close());
        assert_eq!(parse_complete(raw).unwrap().1, raw.len());
    }

    #[test]
    fn connection_close_is_detected() {
        let req = roundtrip("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        assert_eq!(req.query, None);
    }

    #[test]
    fn connection_token_lists_let_close_win() {
        // `keep-alive, close` must read as close — the old substring
        // comparison misread the whole list as keep-alive.
        let req = roundtrip("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(req.wants_close(), "close wins in a token list");
        let req = roundtrip("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
    }

    #[test]
    fn http_1_0_defaults_to_close_unless_keep_alive() {
        // An HTTP/1.0 client without `Connection: keep-alive` expects the
        // response to be terminated by EOF; keeping the socket open hangs
        // it until the idle timeout.
        let req = roundtrip("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.version, Version::Http10);
        assert!(req.wants_close(), "HTTP/1.0 defaults to close");
        let req = roundtrip("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close(), "explicit keep-alive persists 1.0");
        let req =
            roundtrip("GET /healthz HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(req.wants_close(), "close still wins on 1.0");
    }

    #[test]
    fn conflicting_content_length_headers_are_rejected() {
        // Two mismatched Content-Length headers are the classic
        // request-smuggling desync; the old parser silently took the first.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}123";
        assert!(matches!(roundtrip(raw), Err(HttpError::BadRequest(_))));
        // A comma-joined conflicting pair is equally rejected.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2, 5\r\n\r\n{}123";
        assert!(matches!(roundtrip(raw), Err(HttpError::BadRequest(_))));
        // Identical duplicates are tolerated (RFC 7230 §3.3.2).
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(roundtrip(raw).unwrap().body, b"{}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            roundtrip("NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            roundtrip("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            roundtrip("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Chunked framing is unsupported and must be rejected outright —
        // reading it as an empty body would desync the keep-alive stream.
        assert!(matches!(
            roundtrip("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_an_endless_head_line_without_buffering_it() {
        // A request line with no newline must fail as soon as it exceeds the
        // head budget — not buffer until the peer stops sending.
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(roundtrip(&raw), Err(HttpError::BadRequest(_))));
        // Same for a single endless header line.
        let raw = format!(
            "GET / HTTP/1.1\r\nx-junk: {}\r\n\r\n",
            "b".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(roundtrip(&raw), Err(HttpError::BadRequest(_))));
        // And an unterminated head must error once past the budget even
        // with no newline at all in the buffer.
        let endless = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request(&endless),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(roundtrip(&raw), Err(HttpError::PayloadTooLarge)));
    }

    #[test]
    fn incremental_parser_reports_partial_until_complete() {
        let raw = b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            assert!(
                matches!(parse_request(&raw[..cut]), Ok(ParseStatus::Partial)),
                "prefix of {cut} bytes must be partial"
            );
        }
        let (req, consumed) = parse_complete(std::str::from_utf8(raw).unwrap()).unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn incremental_parser_consumes_only_the_first_pipelined_request() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseStatus::Complete { request, consumed } = parse_request(raw).unwrap() else {
            panic!("first request is complete");
        };
        assert_eq!(request.path, "/a");
        let ParseStatus::Complete {
            request,
            consumed: rest,
        } = parse_request(&raw[consumed..]).unwrap()
        else {
            panic!("second request is complete");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn response_formats_status_line_and_headers() {
        let r = Response::json(200, "{}".to_string()).with_header("x-test", "1");
        assert_eq!(r.reason(), "OK");
        assert_eq!(Response::error(404, "nope").reason(), "Not Found");
        assert_eq!(r.headers.len(), 1);
        let err = Response::error(400, "bad \"quote\"");
        let body = err.body.as_str();
        assert!(
            body.contains("\\\"quote\\\""),
            "quotes must be escaped: {body}"
        );
    }

    #[test]
    fn reason_covers_admission_control_statuses() {
        assert_eq!(
            Response::error(429, "slow down").reason(),
            "Too Many Requests"
        );
        assert_eq!(Response::error(408, "too slow").reason(), "Request Timeout");
        assert_eq!(Response::error(503, "full").reason(), "Service Unavailable");
    }

    #[test]
    fn serialize_frames_status_headers_and_body() {
        let r =
            Response::json(200, "{\"ok\":true}".to_string()).with_header("x-bitwave-batch", "3");
        // Appended after what the buffer already holds, head then body.
        let mut wire = b"earlier response".to_vec();
        r.write_to(false, &mut wire);
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "earlier responseHTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             content-length: 11\r\nconnection: keep-alive\r\nx-bitwave-batch: 3\r\n\r\n\
             {\"ok\":true}"
        );
        let mut closed = Vec::new();
        r.write_to(true, &mut closed);
        let closed = String::from_utf8(closed).unwrap();
        assert!(closed.contains("connection: close\r\n"));
    }

    #[test]
    fn chunked_head_replaces_content_length_framing() {
        let r = Response::json(200, "ignored".to_string()).with_header("x-bitwave-sweep", "abc");
        let mut head = Vec::new();
        r.write_chunked_head(true, &mut head);
        let head = String::from_utf8(head).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("transfer-encoding: chunked\r\n"));
        assert!(head.contains("connection: close\r\n"));
        assert!(head.contains("x-bitwave-sweep: abc\r\n"));
        assert!(!head.contains("content-length"), "chunked framing only");
        assert!(head.ends_with("\r\n\r\n"), "head carries no body bytes");
    }

    #[test]
    fn chunk_frames_carry_hex_lengths_and_crlf_delimiters() {
        assert_eq!(chunk_frame(b"hello\n"), b"6\r\nhello\n\r\n");
        let long = vec![b'x'; 0x1a];
        let frame = chunk_frame(&long);
        assert!(frame.starts_with(b"1a\r\n"));
        assert!(frame.ends_with(b"\r\n"));
        assert_eq!(frame.len(), 4 + 0x1a + 2);
        assert!(chunk_frame(b"").is_empty(), "empty chunk would end stream");
        assert_eq!(LAST_CHUNK, b"0\r\n\r\n");
    }
}
