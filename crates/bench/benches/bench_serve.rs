//! Load harness for the `bitwave-serve` evaluation service: N client
//! threads hammer an in-process server over real sockets.
//!
//! Four invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_serve` doubles as the CI gate:
//!
//! 1. serving K concurrent evaluations of one model performs **zero**
//!    weight-tensor deep copies beyond the cold run (the shared
//!    `Arc<NetworkWeights>` store + `WeightHandle` planning path);
//! 2. cache-hit request throughput is ≥ 10× cold-path request throughput —
//!    replaying stored bytes must be an order of magnitude cheaper than
//!    running the pipeline;
//! 3. the poll-driven loop holds ≥ 10× more open connections than the
//!    compute-worker pool at a bounded request p99 (the old
//!    thread-per-connection pool capped connections at the worker count);
//! 4. a burst of compatible evaluations (6 digests over one weight set,
//!    16 copies each, `max_inflight` 8) is answered 200 in full with no
//!    shedding, performs exactly 6 evaluations from 1 weight generation,
//!    and answers the other 90 requests as riders or cache hits.

use bitwave_bench::{print_header, write_bench_json, HostFacts};
use bitwave_serve::client::Client;
use bitwave_serve::server::{start, ServeConfig, ServerHandle};
use bitwave_tensor::copy_metrics::CopyCounter;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The machine-readable record `bench_serve` writes to the workspace root:
/// the cold-path `/v1/evaluate` numbers and the cache-hit ratio the 10×
/// gate just asserted.
#[derive(Debug, Serialize)]
struct ServeBenchReport {
    /// The host the numbers were measured on.
    host: HostFacts,
    /// Wall time of the very first (cold) `/v1/evaluate`, milliseconds.
    cold_evaluate_ms: f64,
    /// Cold-path throughput (8 never-seen digests), requests/second.
    cold_rps: f64,
    /// Cache-hit throughput (same digests replayed), requests/second.
    hit_rps: f64,
    /// `hit_rps / cold_rps`.
    hit_over_cold: f64,
    /// The gate the ratio passed.
    hit_over_cold_gate: f64,
    /// Client threads used for the throughput runs.
    client_threads: usize,
    /// Per-request sample cap of the evaluated model.
    sample_cap: usize,
    /// Open connections held during the p99 gate (parked + active).
    open_connections: usize,
    /// `/healthz` p99 with only the active clients connected, milliseconds.
    p99_baseline_ms: f64,
    /// `/healthz` p99 with [`Self::open_connections`] open, milliseconds.
    p99_loaded_ms: f64,
    /// Goodput of the compatible burst (gate 4), requests/second.
    batched_rps: f64,
}

const SAMPLE_CAP: usize = 1_500;
const CLIENT_THREADS: usize = 4;
const BENCH_WORKERS: usize = 4;

fn bench_server() -> ServerHandle {
    start(ServeConfig {
        workers: BENCH_WORKERS,
        ..ServeConfig::default()
    })
    .expect("bench server starts")
}

fn evaluate_body(seed: u64) -> String {
    format!(
        r#"{{"model":"resnet18","accelerator":"bitwave","sample_cap":{SAMPLE_CAP},"seed":{seed}}}"#
    )
}

/// Gate 1: K concurrent evaluations of one model — distinct accelerators,
/// one shared weight set — must deep-copy **zero** tensors beyond the cold
/// run that populated the store.
fn assert_zero_copy_concurrent_serving(handle: &ServerHandle) -> f64 {
    print_header(
        "serve_zero_copy",
        "K concurrent evaluations of one model share weights (copy-count gate)",
    );
    let addr = handle.local_addr();
    // Cold run generates the weight set for (resnet18, seed 1, cap); its
    // wall time is the cold-evaluate latency recorded in BENCH_serve.json.
    let mut client = Client::new(addr);
    let t0 = Instant::now();
    let cold = client
        .post_json("/v1/evaluate", &evaluate_body(1))
        .expect("cold evaluate");
    let cold_evaluate_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.status, 200, "cold run: {:?}", cold.text());
    println!("cold /v1/evaluate: {cold_evaluate_ms:.1} ms");

    let counter = CopyCounter::snapshot();
    let accelerators = ["dense", "scnn", "stripes", "pragmatic", "bitlet", "huaa"];
    let threads: Vec<_> = accelerators
        .into_iter()
        .map(|accelerator| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let body = format!(
                    r#"{{"model":"resnet18","accelerator":"{accelerator}","sample_cap":{SAMPLE_CAP},"seed":1}}"#
                );
                let response = client.post_json("/v1/evaluate", &body).expect("evaluate");
                assert_eq!(response.status, 200, "{accelerator}: {:?}", response.text());
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let copies = counter.delta();
    println!(
        "concurrent evaluations: {}   weight generations: {}   tensor deep copies: {copies}",
        accelerators.len(),
        handle.state().store.generations(),
    );
    assert_eq!(
        handle.state().store.generations(),
        1,
        "all accelerator evaluations must share the one generated weight set"
    );
    assert_eq!(
        copies, 0,
        "serving concurrent evaluations must not deep-copy weight tensors"
    );
    cold_evaluate_ms
}

/// Requests-per-second of `n_requests` POSTs spread over [`CLIENT_THREADS`]
/// keep-alive clients, each thread issuing its share sequentially.
fn measure_rps(addr: std::net::SocketAddr, bodies: &[String]) -> f64 {
    let bodies = Arc::new(bodies.to_vec());
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for body in bodies.iter().skip(t).step_by(CLIENT_THREADS) {
                    let response = client.post_json("/v1/evaluate", body).expect("evaluate");
                    assert_eq!(response.status, 200, "{body}: {:?}", response.text());
                    black_box(response.body.len());
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("load thread");
    }
    bodies.len() as f64 / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Gate 2: cache-hit throughput ≥ 10× cold-path throughput.  Returns
/// `(cold_rps, hit_rps, gate)` for the bench report.
fn assert_hit_throughput_gate(handle: &ServerHandle) -> (f64, f64, f64) {
    const TARGET: f64 = 10.0;
    print_header(
        "serve_throughput",
        "cache-hit vs cold-path request throughput (>=10x gate)",
    );
    let addr = handle.local_addr();

    // Cold path: 8 never-seen digests (distinct seeds → fresh weights +
    // fresh pipeline runs), hammered by the client pool.
    let cold_bodies: Vec<String> = (100..108).map(evaluate_body).collect();
    let cold_rps = measure_rps(addr, &cold_bodies);

    // Hit path: the same 8 digests again, many times over — every request
    // replays stored bytes.
    let hit_bodies: Vec<String> = (0..400)
        .map(|i| evaluate_body(100 + (i % 8) as u64))
        .collect();
    let hit_rps = measure_rps(addr, &hit_bodies);

    let ratio = hit_rps / cold_rps.max(f64::MIN_POSITIVE);
    let stats = handle.state().cache.stats(bitwave_serve::CacheOp::Evaluate);
    println!(
        "cold: {cold_rps:.1} req/s   hits: {hit_rps:.1} req/s   ratio: {ratio:.1}x   \
         (target: >={TARGET}x; cache hits {} misses {})",
        stats.hits(),
        stats.misses(),
    );
    assert!(
        stats.hits() >= 400,
        "hit phase must actually hit the cache (hits: {})",
        stats.hits()
    );
    assert!(
        ratio >= TARGET,
        "cache-hit throughput {hit_rps:.1} req/s is below {TARGET}x the cold path ({cold_rps:.1} req/s)"
    );
    (cold_rps, hit_rps, TARGET)
}

/// Idle keep-alive connections parked on the loop during the p99 gate.
const PARKED_CONNS: usize = 92;
/// `/healthz` samples per active client when measuring p99.
const HEALTH_SAMPLES: usize = 100;

fn percentile_ms(mut samples: Vec<f64>, pct: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let rank = ((samples.len() as f64) * pct).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// p99 of `/healthz` round-trips over [`CLIENT_THREADS`] keep-alive clients.
fn measure_healthz_p99(addr: std::net::SocketAddr) -> f64 {
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                (0..HEALTH_SAMPLES)
                    .map(|_| {
                        let t0 = Instant::now();
                        let response = client.get("/healthz").expect("healthz");
                        assert_eq!(response.status, 200);
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let samples: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("latency client"))
        .collect();
    percentile_ms(samples, 0.99)
}

/// Gate 3: with 10× more connections open than the compute-worker pool,
/// request p99 must stay bounded.  The pre-event-loop server dedicated a
/// pool thread to each connection, so its concurrency ceiling *was* the
/// worker count.
fn assert_connection_scaling_gate(handle: &ServerHandle) -> (usize, f64, f64) {
    print_header(
        "serve_connections",
        "10x worker-count open connections at bounded /healthz p99",
    );
    let addr = handle.local_addr();
    let p99_baseline = measure_healthz_p99(addr);

    let parked: Vec<TcpStream> = (0..PARKED_CONNS)
        .map(|_| TcpStream::connect(addr).expect("parked connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let open = handle
        .state()
        .metrics
        .connections_open
        .load(Ordering::Relaxed) as usize;
    let p99_loaded = measure_healthz_p99(addr);
    let total = PARKED_CONNS + CLIENT_THREADS;
    println!(
        "open connections: {open} (gate: >={PARKED_CONNS})   p99 base: {p99_baseline:.3} ms   \
         p99 @{total} conns: {p99_loaded:.3} ms"
    );
    assert!(
        open >= PARKED_CONNS,
        "the loop must hold all parked connections open concurrently (open: {open})"
    );
    assert!(
        total >= 10 * BENCH_WORKERS,
        "gate misconfigured: {total} connections is not 10x the {BENCH_WORKERS}-worker pool"
    );
    let bound = (3.0 * p99_baseline).max(5.0);
    assert!(
        p99_loaded <= bound,
        "p99 with {total} open connections ({p99_loaded:.3} ms) exceeds {bound:.3} ms"
    );
    drop(parked);
    (total, p99_baseline, p99_loaded)
}

/// Accelerators × duplicates making up the compatible burst: six distinct
/// digests, all sharing one `(model, seed, sample_cap)` weight set.
const BATCH_ACCELERATORS: [&str; 6] = ["dense", "scnn", "stripes", "pragmatic", "bitlet", "huaa"];
const BATCH_DUPLICATES: usize = 16;
/// Heavy enough that most duplicates ride their digest's in-flight job.
const BATCH_SAMPLE_CAP: usize = 30_000;
const BATCH_MAX_INFLIGHT: usize = 8;

/// Gate 4: a burst of compatible evaluations — six distinct digests over
/// one weight set, each sent [`BATCH_DUPLICATES`] times at once — under a
/// `max_inflight` budget above the distinct-digest count.  Every request
/// must be answered without shedding, each digest evaluated once from one
/// weight generation, and every duplicate answered by a rider or a cache
/// hit.  Returns the burst's goodput in requests/second.
fn assert_burst_dispatch_gate() -> f64 {
    print_header(
        "serve_burst",
        "compatible burst: no shedding, one evaluation per digest, one weight generation",
    );
    let handle = start(ServeConfig {
        workers: BENCH_WORKERS,
        max_inflight: BATCH_MAX_INFLIGHT,
        ..ServeConfig::default()
    })
    .expect("burst server starts");
    let addr = handle.local_addr();
    let total = BATCH_ACCELERATORS.len() * BATCH_DUPLICATES;
    let barrier = Arc::new(Barrier::new(total + 1));
    let threads: Vec<_> = (0..total)
        .map(|i| {
            let accelerator = BATCH_ACCELERATORS[i / BATCH_DUPLICATES];
            let body = format!(
                r#"{{"model":"resnet18","accelerator":"{accelerator}","sample_cap":{BATCH_SAMPLE_CAP},"seed":9}}"#
            );
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                barrier.wait();
                let response = client.post_json("/v1/evaluate", &body).expect("evaluate");
                let cache = response.header("x-bitwave-cache").map(str::to_string);
                (response.status, cache)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let responses: Vec<(u16, Option<String>)> = threads
        .into_iter()
        .map(|t| t.join().expect("burst client"))
        .collect();
    let elapsed = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let state = Arc::clone(handle.state());
    handle.shutdown();

    let served = responses
        .iter()
        .filter(|(status, _)| *status == 200)
        .count();
    let shed = responses
        .iter()
        .filter(|(status, _)| *status == 503)
        .count();
    let answered_without_compute = responses
        .iter()
        .filter(|(_, cache)| matches!(cache.as_deref(), Some("hit" | "coalesced")))
        .count();
    let evaluations = state.metrics.evaluations.load(Ordering::Relaxed) as usize;
    let generations = state.store.generations();
    let goodput = served as f64 / elapsed;
    println!(
        "burst: {served}/{total} served, {shed} shed, {goodput:.1} ok/s   evaluations: \
         {evaluations}   weight generations: {generations}   hit + coalesced: \
         {answered_without_compute}"
    );
    assert_eq!(
        served, total,
        "the whole compatible burst must be answered 200"
    );
    assert_eq!(shed, 0, "no compatible request may be shed");
    assert_eq!(
        evaluations,
        BATCH_ACCELERATORS.len(),
        "each distinct digest must be evaluated exactly once"
    );
    assert_eq!(
        generations, 1,
        "every evaluation of the burst must share one generated weight set"
    );
    assert_eq!(
        answered_without_compute,
        total - BATCH_ACCELERATORS.len(),
        "every duplicate must ride the in-flight job or hit the cache"
    );
    goodput
}

fn bench(c: &mut Criterion) {
    let handle = bench_server();
    let cold_evaluate_ms = assert_zero_copy_concurrent_serving(&handle);
    let (cold_rps, hit_rps, gate) = assert_hit_throughput_gate(&handle);
    let (open_connections, p99_baseline_ms, p99_loaded_ms) =
        assert_connection_scaling_gate(&handle);
    let batched_rps = assert_burst_dispatch_gate();
    write_bench_json(
        "BENCH_serve.json",
        &ServeBenchReport {
            host: HostFacts::of_this_host(),
            cold_evaluate_ms,
            cold_rps,
            hit_rps,
            hit_over_cold: hit_rps / cold_rps.max(f64::MIN_POSITIVE),
            hit_over_cold_gate: gate,
            client_threads: CLIENT_THREADS,
            sample_cap: SAMPLE_CAP,
            open_connections,
            p99_baseline_ms,
            p99_loaded_ms,
            batched_rps,
        },
    );

    // Steady-state criterion loops over the warm server.
    let addr = handle.local_addr();
    let mut client = Client::new(addr);
    let warm_body = evaluate_body(100);
    c.bench_function("serve/evaluate_cache_hit", |b| {
        b.iter(|| {
            let response = client
                .post_json("/v1/evaluate", black_box(&warm_body))
                .expect("hit");
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    let digest = client
        .post_json("/v1/evaluate", &warm_body)
        .expect("warm")
        .header("x-bitwave-digest")
        .expect("digest header")
        .to_string();
    let report_path = format!("/v1/reports/{digest}");
    c.bench_function("serve/report_replay", |b| {
        b.iter(|| {
            let response = client.get(black_box(&report_path)).expect("replay");
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    c.bench_function("serve/healthz", |b| {
        b.iter(|| {
            let response = client.get(black_box("/healthz")).expect("healthz");
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });

    drop(client);
    handle.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
