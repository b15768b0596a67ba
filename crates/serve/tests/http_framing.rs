//! Wire-level HTTP framing regression tests: pipelining, split writes,
//! header variants, HTTP/1.0 close semantics, duplicate Content-Length
//! rejection, and a property check that the incremental parser agrees with
//! a blocking line-by-line reader (the oracle below) on every well-formed
//! request.

mod common;

use bitwave_serve::http::{
    content_length_of, find_header, parse_header, parse_request, HttpError, ParseStatus, Request,
    Version, MAX_BODY_BYTES,
};
use bitwave_serve::server::{start, ServeConfig};
use common::read_response;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The oracle of [`parse_request`]: reads one request line by line from a
/// buffered stream (`read_line` + trim), then exactly `Content-Length`
/// body bytes.
fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let bad = |msg: &str| HttpError::BadRequest(msg.to_string());
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|_| bad("read"))?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("request line"));
    };
    let version = match version {
        "HTTP/1.0" => Version::Http10,
        v if v.starts_with("HTTP/1.") => Version::Http11,
        _ => return Err(bad("version")),
    };
    let mut headers = Vec::new();
    loop {
        let mut header_line = String::new();
        reader
            .read_line(&mut header_line)
            .map_err(|_| bad("read"))?;
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        headers.push(parse_header(trimmed).ok_or_else(|| bad("header"))?);
    }
    if find_header(&headers, "transfer-encoding").is_some() {
        return Err(bad("transfer-encoding"));
    }
    let content_length = content_length_of(&headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| bad("body"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        version,
        headers,
        body,
    })
}

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn pipelined_requests_in_one_segment_are_answered_in_order() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Three requests, one write, one TCP segment's worth of bytes.
    let burst = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                 GET /v1/models HTTP/1.1\r\nhost: t\r\n\r\n\
                 GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_response(&mut reader).expect("first response");
    let second = read_response(&mut reader).expect("second response");
    let third = read_response(&mut reader).expect("third response");
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(third.status, 200);
    assert_eq!(first.body, b"{\"status\":\"ok\"}");
    assert!(
        String::from_utf8_lossy(&second.body).contains("resnet18"),
        "responses must come back in request order"
    );
    assert_eq!(third.body, first.body);
    handle.shutdown();
}

#[test]
fn a_body_split_across_arbitrary_write_boundaries_still_parses() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let body = r#"{"model":"resnet18","sample_cap":400}"#;
    let message = format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    // Dribble the request out in 7-byte slices with real scheduling gaps so
    // the server sees many partial reads (head and body both fragmented).
    for chunk in message.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert!(String::from_utf8_lossy(&response.body).contains("\"report\""));
    handle.shutdown();
}

#[test]
fn header_case_and_whitespace_variants_are_accepted() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let body = r#"{"model":"resnet18","sample_cap":400}"#;
    // Mixed-case names, extra whitespace around values, tab padding.
    let message = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHOST: t\r\nContent-Type:   application/json  \r\n\
         CoNtEnT-LeNgTh:\t {} \r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    handle.shutdown();
}

#[test]
fn http_1_0_defaults_to_close_on_the_wire() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: t\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("connection"),
        Some("close"),
        "an HTTP/1.0 request without keep-alive must be answered with close"
    );
    assert!(
        read_response(&mut reader).is_none(),
        "the server must close an HTTP/1.0 connection after the response"
    );
    handle.shutdown();
}

#[test]
fn http_1_0_keep_alive_token_keeps_the_connection_open() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: t\r\nConnection: Keep-Alive\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_response(&mut reader).expect("first response");
    assert_eq!(first.status, 200);
    assert_ne!(first.header("connection"), Some("close"));
    // The connection must survive for a second request.
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: t\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let second = read_response(&mut reader).expect("second response on the same connection");
    assert_eq!(second.status, 200);
    handle.shutdown();
}

#[test]
fn connection_header_token_lists_let_close_win() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nConnection: keep-alive, Close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(read_response(&mut reader).is_none(), "close token must win");
    handle.shutdown();
}

#[test]
fn mismatched_duplicate_content_length_is_rejected_with_400() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .write_all(
            b"POST /v1/evaluate HTTP/1.1\r\nhost: t\r\n\
              content-length: 5\r\ncontent-length: 7\r\n\r\nhellos!",
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(
        response.status, 400,
        "conflicting Content-Length headers are a request-smuggling vector"
    );
    handle.shutdown();
}

#[test]
fn identical_duplicate_content_length_is_tolerated() {
    let handle = start(test_config()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let body = r#"{"model":"resnet18","sample_cap":400}"#;
    let message = format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: {n}\r\n\
         content-length: {n}\r\n\r\n{body}",
        n = body.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200, "identical duplicates are unambiguous");
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental event-loop parser and the blocking `BufRead` parser
    /// must agree on every well-formed request, whatever the method, path,
    /// header padding or body contents.
    #[test]
    fn incremental_parser_matches_blocking_reader(
        method in prop_oneof![Just("GET"), Just("POST"), Just("PUT"), Just("DELETE")],
        path_tail in proptest::collection::vec(0u8..26, 0..12),
        pad_left in 0usize..4,
        pad_right in 0usize..4,
        upper in any::<bool>(),
        body in proptest::collection::vec(0u8..=255, 0..200),
        trailing in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let path: String = path_tail.iter().map(|c| (b'a' + c) as char).collect();
        let name = if upper { "CONTENT-LENGTH" } else { "Content-Length" };
        let mut raw = format!(
            "{method} /{path} HTTP/1.1\r\nHost: prop\r\n{name}:{}{}{}\r\n\r\n",
            " ".repeat(pad_left),
            body.len(),
            " ".repeat(pad_right),
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let consumed_expected = raw.len();
        raw.extend_from_slice(&trailing); // next pipelined request's bytes

        let incremental = match parse_request(&raw) {
            Ok(ParseStatus::Complete { request, consumed }) => {
                prop_assert_eq!(consumed, consumed_expected,
                    "must consume exactly one request");
                request
            }
            other => panic!("incremental parse failed: {other:?}"),
        };
        let blocking =
            read_request(&mut BufReader::new(Cursor::new(raw[..consumed_expected].to_vec())))
                .expect("blocking parse");
        prop_assert_eq!(&incremental.method, &blocking.method);
        prop_assert_eq!(&incremental.path, &blocking.path);
        prop_assert_eq!(incremental.version, blocking.version);
        prop_assert_eq!(&incremental.headers, &blocking.headers);
        prop_assert_eq!(&incremental.body, &blocking.body);
        prop_assert_eq!(&incremental.body, &body);
    }

    /// Every strict prefix of a well-formed request must report `Partial`,
    /// never an error and never a bogus completion.
    #[test]
    fn prefixes_of_valid_requests_stay_partial(cut in 0usize..64) {
        let body = r#"{"model":"resnet18"}"#;
        let raw = format!(
            "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let cut = cut.min(raw.len() - 1);
        match parse_request(&raw.as_bytes()[..cut]) {
            Ok(ParseStatus::Partial) => {}
            other => panic!("prefix of {cut} bytes must be Partial, got {other:?}"),
        }
    }
}
