//! Gates for the tiered persistent store (`bitwave-store`): a warm restart
//! must amortize the pipeline, and the memory tier must amortize the disk.
//!
//! Three invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_store` doubles as the CI gate:
//!
//! 1. restarting the evaluation service against the same `--store-root` and
//!    re-issuing an evaluation is ≥ 10× faster than the cold run — the
//!    response replays from the disk tier (`X-Bitwave-Cache: disk`) with
//!    byte-identical JSON and zero weight regenerations (medians of five
//!    restart/re-evaluate rounds);
//! 2. a memory-tier hit is ≥ 10× faster than a disk-tier hit on a
//!    report-sized entry — promoting an entry into memory must matter;
//! 3. the disk tier's word-parallel payload checksum is ≥ 4× faster than
//!    byte-serial FNV-1a/128 on the same 256 KiB payload (a ratio of two
//!    timings on one host, so it holds across machines).

use bitwave::digest::{fnv1a128, Digest};
use bitwave_bench::{print_header, write_bench_json};
use bitwave_serve::client::Client;
use bitwave_serve::server::{start, ServeConfig, ServerHandle};
use bitwave_store::disk::payload_checksum;
use bitwave_store::{StoreConfig, StoreOutcome, StringCodec, TieredStore};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `BENCH_store.json` trajectory record, matching the
/// `BENCH_dse.json`/`BENCH_dram.json` convention.
#[derive(Serialize)]
struct StoreBenchReport {
    warm_restart_cold_ms: f64,
    warm_restart_warm_ms: f64,
    warm_restart_speedup: f64,
    warm_restart_gate: f64,
    disk_hit_us: f64,
    memory_hit_us: f64,
    tier_speedup: f64,
    tier_speedup_gate: f64,
    checksum_256k_us: f64,
    fnv1a128_256k_us: f64,
    checksum_speedup: f64,
    checksum_speedup_gate: f64,
    available_cores: usize,
}

/// Restart/re-evaluate rounds behind gate 1's medians.
const WARM_RESTART_ROUNDS: usize = 5;

const EVALUATE_BODY: &str = r#"{"model":"resnet18","accelerator":"bitwave","sample_cap":8000}"#;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("bitwave-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn persistent_server(root: &std::path::Path) -> ServerHandle {
    start(ServeConfig {
        workers: 2,
        store_root: Some(root.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("persistent server starts")
}

/// One cold evaluate on a fresh root, then one evaluate after a restart over
/// the same root, served from the disk tier byte-identically.  Returns the
/// two latencies.
fn warm_restart_round(root: &std::path::Path) -> (Duration, Duration) {
    let first = persistent_server(root);
    let mut client = Client::new(first.local_addr());
    let t0 = Instant::now();
    let cold = client
        .post_json("/v1/evaluate", EVALUATE_BODY)
        .expect("cold evaluate");
    let cold_elapsed = t0.elapsed();
    assert_eq!(cold.status, 200, "cold: {:?}", cold.text());
    assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
    let cold_body = cold.body.clone();
    drop(client);
    first.shutdown();

    // A fresh process over the same root: nothing in memory, everything on
    // disk.
    let second = persistent_server(root);
    let mut client = Client::new(second.local_addr());
    let t1 = Instant::now();
    let warm = client
        .post_json("/v1/evaluate", EVALUATE_BODY)
        .expect("warm evaluate");
    let warm_elapsed = t1.elapsed();
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.header("x-bitwave-cache"),
        Some("disk"),
        "the restarted service must serve the evaluation from its disk tier"
    );
    assert_eq!(warm.body, cold_body, "disk replay must be byte-identical");
    assert_eq!(
        second.state().store.generations(),
        0,
        "a disk replay must not regenerate weights"
    );
    drop(client);
    second.shutdown();
    (cold_elapsed, warm_elapsed)
}

/// Gate 1: warm-restart evaluate ≥ 10× faster than cold, byte-identical,
/// served from the disk tier.  The cold evaluate takes only a few
/// milliseconds, so one slow request would decide a single-round ratio; the
/// gate compares the medians of [`WARM_RESTART_ROUNDS`] rounds instead.
fn assert_warm_restart_gate() -> (f64, f64, f64) {
    const TARGET: f64 = 10.0;
    print_header(
        "store_warm_restart",
        "evaluate after a service restart replays from disk (>=10x gate)",
    );

    let (mut colds, mut warms): (Vec<f64>, Vec<f64>) = (0..WARM_RESTART_ROUNDS)
        .map(|round| {
            let root = temp_root(&format!("restart-{round}"));
            let (cold, warm) = warm_restart_round(&root);
            let _ = std::fs::remove_dir_all(&root);
            println!("round {round}: cold evaluate {cold:?}   warm-restart evaluate {warm:?}");
            (cold.as_secs_f64() * 1e3, warm.as_secs_f64() * 1e3)
        })
        .unzip();
    let (cold_ms, warm_ms) = (median(&mut colds), median(&mut warms));
    let ratio = cold_ms / warm_ms.max(f64::MIN_POSITIVE);
    println!(
        "median of {WARM_RESTART_ROUNDS} rounds: cold {cold_ms:.3} ms   warm-restart \
         {warm_ms:.3} ms   ratio: {ratio:.1}x   (target: >={TARGET}x)"
    );
    assert!(
        ratio >= TARGET,
        "median warm-restart evaluate ({warm_ms:.3} ms) must be >={TARGET}x faster than \
         the median cold one ({cold_ms:.3} ms)"
    );
    (cold_ms, warm_ms, ratio)
}

/// The median of `samples` (the upper one of the middle pair for an even
/// count).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Gate 2: memory-tier hit ≥ 10× faster than disk-tier hit on a
/// report-sized entry.
#[allow(clippy::type_complexity)]
fn assert_memory_vs_disk_gate(
    root: &std::path::Path,
) -> (TieredStore<StringCodec>, Digest, (f64, f64, f64)) {
    const TARGET: f64 = 10.0;
    const ROUNDS: u32 = 200;
    print_header(
        "store_tier_latency",
        "memory-tier hit vs disk-tier hit on a ~256 KiB entry (>=10x gate)",
    );
    let config = StoreConfig::default().with_root(root).with_mem_entries(16);
    let store = TieredStore::<StringCodec>::new("bench", &config).expect("store opens");
    let key = Digest::of_bytes(b"tier-latency-entry");
    // A report-sized payload (~256 KiB of JSON-looking text).
    let payload: String = "{\"layer\":\"conv1\",\"edp\":1234.5678}".repeat(8192);
    store
        .get_or_compute(key, || Ok::<_, String>(payload.clone()), |e| e)
        .expect("seed entry");

    // Disk path: drop the memory tier before every read.
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        store.clear_memory();
        let (body, outcome) = store
            .get_or_compute(key, || panic!("on disk"), |e: String| e)
            .expect("disk hit");
        assert_eq!(outcome, StoreOutcome::Disk);
        black_box(body.len());
    }
    let disk_per_hit = t0.elapsed() / ROUNDS;

    // Memory path: the entry stays promoted.
    let t1 = Instant::now();
    for _ in 0..ROUNDS {
        let (body, outcome) = store
            .get_or_compute(key, || panic!("in memory"), |e: String| e)
            .expect("memory hit");
        assert_eq!(outcome, StoreOutcome::Hit);
        black_box(body.len());
    }
    let mem_per_hit = t1.elapsed() / ROUNDS;

    let ratio = disk_per_hit.as_secs_f64() / mem_per_hit.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "disk hit: {disk_per_hit:?}   memory hit: {mem_per_hit:?}   ratio: {ratio:.1}x   \
         (target: >={TARGET}x; disk hits {} mem hits {})",
        store.stats().disk_hits(),
        store.stats().hits(),
    );
    assert!(
        ratio >= TARGET,
        "memory hits ({mem_per_hit:?}) must be >={TARGET}x faster than disk hits ({disk_per_hit:?})"
    );
    (
        store,
        key,
        (
            disk_per_hit.as_secs_f64() * 1e6,
            mem_per_hit.as_secs_f64() * 1e6,
            ratio,
        ),
    )
}

/// Gate 3: the payload checksum ≥ 4× faster than FNV-1a/128 on one
/// 256 KiB payload.  Returns (checksum µs, FNV-1a/128 µs, ratio), each the
/// mean of `ROUNDS` calls.
fn assert_checksum_gate() -> (f64, f64, f64) {
    const TARGET: f64 = 4.0;
    const ROUNDS: u32 = 50;
    print_header(
        "store_checksum",
        "disk-entry payload checksum vs FNV-1a/128 on 256 KiB (>=4x gate)",
    );
    let payload: Vec<u8> = "{\"layer\":\"conv1\",\"edp\":1234.5678}"
        .bytes()
        .cycle()
        .take(256 * 1024)
        .collect();
    let mean_us = |hash: &dyn Fn(&[u8]) -> u128| {
        black_box(hash(black_box(&payload)));
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            black_box(hash(black_box(&payload)));
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
    };
    let checksum_us = mean_us(&payload_checksum);
    let fnv_us = mean_us(&fnv1a128);
    let ratio = fnv_us / checksum_us.max(f64::MIN_POSITIVE);
    println!(
        "payload checksum: {checksum_us:.1} us   FNV-1a/128: {fnv_us:.1} us   \
         ratio: {ratio:.1}x   (target: >={TARGET}x)"
    );
    assert!(
        ratio >= TARGET,
        "the payload checksum ({checksum_us:.1} us) must be >={TARGET}x faster than \
         FNV-1a/128 ({fnv_us:.1} us) on 256 KiB"
    );
    (checksum_us, fnv_us, ratio)
}

fn bench(c: &mut Criterion) {
    let (warm_restart_cold_ms, warm_restart_warm_ms, warm_restart_speedup) =
        assert_warm_restart_gate();

    let tier_root = temp_root("tiers");
    let (store, key, (disk_hit_us, memory_hit_us, tier_speedup)) =
        assert_memory_vs_disk_gate(&tier_root);
    let (checksum_256k_us, fnv1a128_256k_us, checksum_speedup) = assert_checksum_gate();
    write_bench_json(
        "BENCH_store.json",
        &StoreBenchReport {
            warm_restart_cold_ms,
            warm_restart_warm_ms,
            warm_restart_speedup,
            warm_restart_gate: 10.0,
            disk_hit_us,
            memory_hit_us,
            tier_speedup,
            tier_speedup_gate: 10.0,
            checksum_256k_us,
            fnv1a128_256k_us,
            checksum_speedup,
            checksum_speedup_gate: 4.0,
            available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    );

    c.bench_function("store/memory_hit", |b| {
        b.iter(|| {
            let (body, _) = store
                .get_or_compute(black_box(key), || panic!("hit"), |e: String| e)
                .expect("hit");
            black_box(body.len())
        })
    });
    c.bench_function("store/disk_hit", |b| {
        b.iter(|| {
            store.clear_memory();
            let (body, _) = store
                .get_or_compute(black_box(key), || panic!("disk"), |e: String| e)
                .expect("disk");
            black_box(body.len())
        })
    });

    drop(store);
    let _ = std::fs::remove_dir_all(&tier_root);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
