//! Event-loop behaviour tests: admission control under overload, fast
//! shutdown, per-client rate limiting, and in-flight dispatch fan-out.

mod common;

use bitwave_serve::client::Client;
use bitwave_serve::server::{start, ServeConfig};
use common::read_response;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Connections over the cap get a best-effort `503` + `Retry-After` and the
/// loop stays responsive — even when the rejected (and the parked) clients
/// never read a byte.  The old acceptor blocked inside its inline `503`
/// write; this pins the fix with a latency bound.
#[test]
fn overload_rejects_with_503_and_accepts_stay_fast() {
    let handle = start(ServeConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    // Fill the connection table with idle clients that never read or write.
    let parked: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(100));

    // A burst over the cap: every extra connection must be answered 503
    // promptly, without wedging the loop on any one client's socket.
    let burst_started = Instant::now();
    let mut rejected = Vec::new();
    for _ in 0..12 {
        rejected.push(TcpStream::connect(addr).unwrap());
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut saw_503 = 0;
    for stream in rejected {
        let mut reader = BufReader::new(stream);
        if let Some(response) = read_response(&mut reader) {
            assert_eq!(response.status, 503);
            assert_eq!(response.header("retry-after"), Some("1"));
            assert_eq!(response.header("connection"), Some("close"));
            saw_503 += 1;
        }
    }
    assert!(
        saw_503 >= 8,
        "overflow connections must be told to back off"
    );
    assert!(
        burst_started.elapsed() < Duration::from_secs(3),
        "rejecting a burst must not stall the loop"
    );
    let state = Arc::clone(handle.state());
    assert!(state.metrics.queue_rejections.load(Ordering::Relaxed) >= 8);
    assert_eq!(
        state.metrics.http_errors.load(Ordering::Relaxed),
        0,
        "overflow 503s never reset an admitted connection"
    );

    // Freeing capacity restores service promptly.
    drop(parked);
    std::thread::sleep(Duration::from_millis(100));
    let recovery = Instant::now();
    let mut client = Client::new(addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        recovery.elapsed() < Duration::from_secs(1),
        "accept latency after overload must be bounded, got {:?}",
        recovery.elapsed()
    );
    handle.shutdown();
}

/// Shutdown must complete quickly even with idle keep-alive connections
/// parked on the server — the old implementation relied on a wake-up
/// connection racing a 5 s accept timeout.
#[test]
fn shutdown_with_idle_connections_completes_quickly() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut client = Client::new(addr);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    // Park two more idle keep-alive connections.
    let _idle_a = TcpStream::connect(addr).unwrap();
    let _idle_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_millis(500),
        "shutdown must join in well under 500ms, took {:?}",
        begun.elapsed()
    );
}

/// The per-client token bucket answers `429 Too Many Requests` with a
/// `Retry-After` hint once the one-second burst budget is spent, and
/// refills over time.
#[test]
fn rate_limited_clients_get_429_with_retry_after() {
    let handle = start(ServeConfig {
        workers: 2,
        rate_limit: Some(2),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::new(handle.local_addr());
    let body = r#"{"model":"resnet18","sample_cap":400}"#;
    let first = client.post_json("/v1/evaluate", body).unwrap();
    assert_eq!(first.status, 200);
    let second = client.post_json("/v1/evaluate", body).unwrap();
    assert_eq!(second.status, 200, "the burst budget covers two requests");
    let third = client.post_json("/v1/evaluate", body).unwrap();
    assert_eq!(
        third.status, 429,
        "the third request in a burst is over budget"
    );
    let retry_after = third
        .header("retry-after")
        .and_then(|v| v.parse::<u64>().ok())
        .expect("429 must carry Retry-After");
    assert!(retry_after >= 1);
    assert!(String::from_utf8_lossy(&third.body).contains("rate limit"));
    let state = Arc::clone(handle.state());
    assert!(state.metrics.rate_limited.load(Ordering::Relaxed) >= 1);

    // Waiting refills the bucket.
    std::thread::sleep(Duration::from_millis(700));
    let refilled = client.post_json("/v1/evaluate", body).unwrap();
    assert_eq!(refilled.status, 200);
    // Cheap endpoints never spend compute tokens.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

/// Concurrent identical cache-missing requests coalesce onto one dispatch:
/// one evaluation runs, every waiter gets byte-identical bytes, riders
/// report `coalesced`, and the `X-Bitwave-Batch` header carries the
/// fan-out size.
#[test]
fn identical_concurrent_requests_share_one_dispatch() {
    const RIDERS_PLUS_TRIGGER: usize = 6;
    let handle = start(ServeConfig {
        workers: 1, // a single worker serialises jobs behind the plug
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let state = Arc::clone(handle.state());

    // Occupy the only worker with an expensive unrelated evaluation so the
    // identical burst piles up behind it deterministically.
    let plug = std::thread::spawn(move || {
        let mut client = Client::new(addr);
        client
            .post_json(
                "/v1/evaluate",
                r#"{"model":"resnet18","seed":99,"sample_cap":60000}"#,
            )
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(60));

    let barrier = Arc::new(Barrier::new(RIDERS_PLUS_TRIGGER));
    let burst: Vec<_> = (0..RIDERS_PLUS_TRIGGER)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                barrier.wait();
                client
                    .post_json(
                        "/v1/evaluate",
                        r#"{"model":"resnet18","seed":7,"sample_cap":800}"#,
                    )
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = burst.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(plug.join().unwrap().status, 200);

    let bodies: Vec<&[u8]> = responses.iter().map(|r| r.body.as_slice()).collect();
    assert!(responses.iter().all(|r| r.status == 200));
    assert!(
        bodies.iter().all(|b| *b == bodies[0]),
        "every waiter must receive byte-identical bytes"
    );
    let misses = responses
        .iter()
        .filter(|r| r.header("x-bitwave-cache") == Some("miss"))
        .count();
    let coalesced = responses
        .iter()
        .filter(|r| r.header("x-bitwave-cache") == Some("coalesced"))
        .count();
    assert_eq!(misses, 1, "exactly one trigger pays the computation");
    assert_eq!(
        coalesced,
        RIDERS_PLUS_TRIGGER - 1,
        "everyone else rides the in-flight dispatch"
    );
    for response in &responses {
        assert_eq!(
            response.header("x-bitwave-batch"),
            Some(RIDERS_PLUS_TRIGGER.to_string().as_str()),
            "the batch header carries the dispatch's total fan-out"
        );
    }
    assert_eq!(
        state.metrics.evaluations.load(Ordering::Relaxed),
        2,
        "the plug plus exactly one evaluation for the whole burst"
    );
    assert_eq!(
        state.metrics.batch_coalesced.load(Ordering::Relaxed) as usize,
        RIDERS_PLUS_TRIGGER - 1
    );
    assert!(state.metrics.batch_dispatches.load(Ordering::Relaxed) >= 2);
    handle.shutdown();
}

/// An idle keep-alive connection is closed at the configured idle deadline
/// and counted in `bitwave_serve_idle_closed_total` — while an active
/// client on the same server keeps its connection.
#[test]
fn idle_keep_alive_connections_close_and_are_counted() {
    let handle = start(ServeConfig {
        workers: 2,
        keep_alive_idle: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let state = Arc::clone(handle.state());

    // Park a connection that never sends a request.
    let idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        state.metrics.idle_closed.load(Ordering::Relaxed),
        1,
        "the parked connection must be closed as idle"
    );
    // The server closed its end: reading yields EOF, not a hang.
    let mut reader = BufReader::new(idle);
    assert!(
        read_response(&mut reader).is_none(),
        "an idle-closed connection carries no response"
    );

    // An active client is not an idle victim, and a request completing
    // normally does not bump the counter.
    let mut client = Client::new(addr);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(state.metrics.idle_closed.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

/// A connection that starts a request but never finishes it is answered
/// `408 Request Timeout` at the configured read deadline and counted in
/// `bitwave_serve_request_timeout_408_total`.
#[test]
fn partial_requests_get_408_at_the_read_deadline_and_are_counted() {
    let handle = start(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_millis(200),
        keep_alive_idle: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let state = Arc::clone(handle.state());

    // Send an incomplete request head and stall.
    let mut slow = TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut slow, b"GET /healthz HTTP/1.1\r\nhost: x").unwrap();
    let mut reader = BufReader::new(slow);
    let response = read_response(&mut reader).expect("the server must answer before closing");
    assert_eq!(response.status, 408);
    assert_eq!(response.header("connection"), Some("close"));
    assert_eq!(
        state.metrics.request_timeout_408.load(Ordering::Relaxed),
        1,
        "the stalled request must be counted"
    );
    handle.shutdown();
}

/// A peer that stops draining its response is dropped at the configured
/// write deadline and counted in
/// `bitwave_serve_stalled_writer_dropped_total`.
#[test]
fn stalled_writers_are_dropped_at_the_write_deadline_and_counted() {
    let handle = start(ServeConfig {
        workers: 2,
        write_timeout: Duration::from_millis(250),
        keep_alive_idle: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let state = Arc::clone(handle.state());

    // Pipeline many /metrics requests without ever reading a byte: the
    // responses overrun the socket's send buffer, the write stalls, and the
    // deadline must fire.
    let mut greedy = TcpStream::connect(addr).unwrap();
    let request = b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n";
    for _ in 0..2000 {
        if std::io::Write::write_all(&mut greedy, request).is_err() {
            break; // server already dropped us — also fine
        }
    }
    let waited = Instant::now();
    while state.metrics.stalled_writer_dropped.load(Ordering::Relaxed) == 0
        && waited.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        state.metrics.stalled_writer_dropped.load(Ordering::Relaxed),
        1,
        "the never-reading client must be dropped and counted"
    );
    // The loop stayed healthy for everyone else.
    let mut client = Client::new(addr);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

/// Distinct requests sharing one `(model, seed, sample_cap)` weight set
/// each dispatch their own job, even with a single worker busy on the
/// first: each answers `miss`, and the weight store's single flight
/// generates the shared weights once.
#[test]
fn same_weight_set_requests_each_dispatch_and_share_one_generation() {
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let state = Arc::clone(handle.state());

    let requests: Vec<_> = ["bitwave", "stripes", "bitlet"]
        .into_iter()
        .map(|accelerator| {
            let body = format!(
                r#"{{"model":"resnet18","seed":3,"sample_cap":60000,"accelerator":"{accelerator}"}}"#
            );
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                client.post_json("/v1/evaluate", &body).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = requests.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(responses.iter().all(|r| r.status == 200));
    for response in &responses {
        assert_eq!(
            response.header("x-bitwave-cache"),
            Some("miss"),
            "distinct digests each compute"
        );
        assert_eq!(
            response.header("x-bitwave-batch"),
            Some("1"),
            "each digest is its own dispatch"
        );
    }
    assert_eq!(state.metrics.evaluations.load(Ordering::Relaxed), 3);
    assert_eq!(state.metrics.batch_dispatches.load(Ordering::Relaxed), 3);
    assert_eq!(
        state.store.generations(),
        1,
        "one weight set serves every accelerator"
    );
    handle.shutdown();
}
