//! Wire-level tests of the streaming `POST /v1/design` endpoint: chunked
//! NDJSON framing, ≥ 2 partial fronts before the final report, and
//! byte-identical replay of a completed sweep from the store.

mod common;

use bitwave_serve::server::{start, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn temp_store_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("bitwave-serve-design-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn design_server(root: &std::path::Path) -> ServerHandle {
    start(ServeConfig {
        workers: 1,
        store_root: Some(root.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("design server starts")
}

/// A de-chunked design response: status, headers, NDJSON lines.
struct DesignStream {
    status: u16,
    headers: Vec<(String, String)>,
    lines: Vec<String>,
}

impl DesignStream {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// POSTs `body` to `/v1/design` and reads the chunked response to the
/// terminating zero chunk, de-chunking into NDJSON lines.
fn post_design(addr: std::net::SocketAddr, body: &str) -> DesignStream {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write!(
        writer,
        "POST /v1/design HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("request written");
    writer.flush().expect("flushed");

    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_lowercase(), value.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v == "chunked");
    let mut payload = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            if size == 0 {
                let mut trailer = String::new();
                let _ = reader.read_line(&mut trailer); // final CRLF
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk).expect("chunk payload");
            payload.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf).expect("chunk CRLF");
            assert_eq!(&crlf, b"\r\n", "chunk delimiter");
        }
    } else {
        // Error responses are plain content-length JSON.
        let len = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        payload = vec![0u8; len];
        reader.read_exact(&mut payload).expect("error body");
    }
    let text = String::from_utf8(payload).expect("UTF-8 stream");
    let lines = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    DesignStream {
        status,
        headers,
        lines,
    }
}

#[test]
fn design_streams_partial_fronts_then_replays_byte_identically() {
    let root = temp_store_root("stream");
    let handle = design_server(&root);
    let addr = handle.local_addr();
    let body = r#"{"space":"tiny","sample_cap":400}"#;

    // Cold: live sweep streamed as chunked NDJSON.
    let cold = post_design(addr, body);
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("transfer-encoding"), Some("chunked"));
    assert_eq!(cold.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(cold.header("connection"), Some("close"));
    let sweep = cold.header("x-bitwave-sweep").expect("sweep digest").len();
    assert_eq!(sweep, 32, "sweep digest is 32 hex chars");
    assert!(
        cold.lines.len() >= 3,
        "expected >= 2 partial fronts before the final report, got {} lines",
        cold.lines.len()
    );
    let (final_line, partials) = cold.lines.split_last().expect("final line");
    assert!(
        final_line.contains("\"schema\""),
        "final line is the FrontReport: {final_line}"
    );
    for partial in partials {
        assert!(
            partial.contains("\"completed\"") && !partial.contains("\"schema\""),
            "partial frames are PartialFront snapshots: {partial}"
        );
    }

    // Warm: the completed sweep replays from the store — only the final
    // report, byte-identical to the streamed one.
    let warm = post_design(addr, body);
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.lines.len(),
        1,
        "a completed sweep replays without re-streaming partials"
    );
    assert_eq!(&warm.lines[0], final_line, "replay is byte-identical");

    handle.shutdown();

    // Across a restart the final report still replays from the disk tier.
    let handle = design_server(&root);
    let persisted = post_design(handle.local_addr(), body);
    assert_eq!(persisted.status, 200);
    assert_eq!(persisted.lines.len(), 1);
    assert_eq!(&persisted.lines[0], final_line, "replay survives restart");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn design_rejects_bad_bodies_and_methods() {
    let root = temp_store_root("errors");
    let handle = design_server(&root);
    let addr = handle.local_addr();

    let bad = post_design(addr, r#"{"space":"galactic"}"#);
    assert_eq!(bad.status, 400);
    assert!(
        bad.lines[0].contains("unknown sweep space"),
        "{:?}",
        bad.lines
    );

    // The sampling cap is bounded like `/v1/evaluate`'s, whether it comes
    // as an override or inside a full `config`.
    let zero = post_design(addr, r#"{"space":"tiny","sample_cap":0}"#);
    assert_eq!(zero.status, 400);
    assert!(
        zero.lines[0].contains("sample_cap must be in 1..=1000000, got 0"),
        "{:?}",
        zero.lines
    );
    let mut config = bitwave_sweep::SweepConfig::tiny();
    config.sample_cap = 1_000_001;
    let body = format!(
        r#"{{"config":{}}}"#,
        serde_json::to_string(&config).expect("config serializes")
    );
    let huge = post_design(addr, &body);
    assert_eq!(huge.status, 400);
    assert!(
        huge.lines[0].contains("sample_cap must be in 1..=1000000, got 1000001"),
        "{:?}",
        huge.lines
    );

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"GET /v1/design HTTP/1.1\r\nhost: test\r\n\r\n")
        .expect("request written");
    let response = common::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 405, "GET on the design endpoint is a 405");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
