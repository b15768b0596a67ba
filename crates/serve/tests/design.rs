//! Wire-level tests of the streaming `POST /v1/design` endpoint: chunked
//! NDJSON framing, ≥ 2 partial fronts before the final report,
//! byte-identical replay of a completed sweep from the store, and the
//! admission path design shares with evaluate and search (riders, the rate
//! limiter, `max_inflight` shedding).

mod common;

use bitwave::digest::Digest;
use bitwave_serve::design::parse_design;
use bitwave_serve::server::{start, ServeConfig, ServerHandle};
use bitwave_serve::CacheOp;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

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

/// A design request whose response head has been read.
struct DesignHead {
    reader: BufReader<TcpStream>,
    status: u16,
    headers: Vec<(String, String)>,
}

/// POSTs `body` to `/v1/design` and reads the response head.  The server
/// writes a stream's head once the request is placed, so a `200` head
/// means the request replayed, dispatched a sweep or rides one.
fn start_design(addr: std::net::SocketAddr, body: &str) -> DesignHead {
    let stream = TcpStream::connect(addr).expect("connect");
    // A response that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
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
    DesignHead {
        reader,
        status,
        headers,
    }
}

/// Reads the rest of a design response to the terminating zero chunk,
/// de-chunking into NDJSON lines.
fn finish_design(head: DesignHead) -> DesignStream {
    let DesignHead {
        mut reader,
        status,
        headers,
    } = head;
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

/// POSTs `body` to `/v1/design` and reads the whole response.
fn post_design(addr: std::net::SocketAddr, body: &str) -> DesignStream {
    finish_design(start_design(addr, body))
}

/// The report-cache address of a design body's final report.
fn design_key(body: &str) -> Digest {
    let sweep = parse_design(body.as_bytes()).expect("valid body").digest();
    Digest::of_bytes(format!("design:{}", sweep.to_hex()).as_bytes())
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

#[test]
fn concurrent_identical_designs_share_one_sweep() {
    let root = temp_store_root("concurrent");
    let handle = design_server(&root);
    let addr = handle.local_addr();
    let body = r#"{"space":"tiny","sample_cap":400,"seed":5}"#;
    let streams: Vec<DesignStream> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| scope.spawn(move || post_design(addr, body)))
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for stream in &streams {
        assert_eq!(stream.status, 200);
        assert!(stream.lines.last().unwrap().contains("\"schema\""));
    }
    assert_eq!(streams[0].lines.last(), streams[1].lines.last());
    let state = handle.state();
    // Either the second request rode the first one's sweep or, arriving
    // after it finished, replayed its report: one sweep either way.
    assert_eq!(state.cache.stats(CacheOp::Design).misses(), 1);
    assert_eq!(state.metrics.batch_dispatches.load(Ordering::Relaxed), 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn design_requests_spend_rate_limit_tokens() {
    let root = temp_store_root("rate");
    let handle = start(ServeConfig {
        workers: 1,
        rate_limit: Some(1),
        store_root: Some(root.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("design server starts");
    let addr = handle.local_addr();
    let body = r#"{"space":"tiny","sample_cap":400}"#;
    let first = start_design(addr, body);
    assert_eq!(first.status, 200);
    let limited = post_design(addr, body);
    assert_eq!(limited.status, 429);
    assert!(limited.header("retry-after").is_some());
    assert_eq!(limited.header("transfer-encoding"), None, "no chunked head");
    assert_eq!(
        handle.state().metrics.rate_limited.load(Ordering::Relaxed),
        1
    );
    let first = finish_design(first);
    assert!(first.lines.last().unwrap().contains("\"schema\""));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn design_rides_and_sheds_at_max_inflight() {
    let root = temp_store_root("shed");
    let handle = start(ServeConfig {
        workers: 1,
        max_inflight: 1,
        store_root: Some(root.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("design server starts");
    let addr = handle.local_addr();
    let body = r#"{"space":"tiny","sample_cap":400}"#;
    const LINE: &str = r#"{"planted":true}"#;
    // Hold the sweep's cache entry pending from this side, so the sweep job
    // stays in flight (its worker waits on this computation) until released.
    let state = Arc::clone(handle.state());
    let key = design_key(body);
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        state.cache.get_or_compute(CacheOp::Design, key, || {
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            Ok(LINE.to_string())
        })
    });
    held_rx.recv().unwrap();

    let trigger = start_design(addr, body);
    assert_eq!(trigger.status, 200);
    let rider = start_design(addr, body);
    assert_eq!(rider.status, 200, "a rider is admitted at the cap");
    let shed = post_design(addr, r#"{"space":"tiny","sample_cap":400,"seed":9}"#);
    assert_eq!(shed.status, 503);
    assert!(shed.header("retry-after").is_some());
    assert_eq!(shed.header("transfer-encoding"), None);

    release_tx.send(()).unwrap();
    holder.join().unwrap().unwrap();
    for stream in [finish_design(trigger), finish_design(rider)] {
        assert_eq!(stream.lines, [LINE]);
    }
    let metrics = &handle.state().metrics;
    assert_eq!(metrics.batch_dispatches.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.batch_coalesced.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.batch_requests.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.sheds.load(Ordering::Relaxed), 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
