//! Harness for the `bitwave-dse` dataflow design-space exploration engine.
//!
//! Two invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_dse` doubles as the CI gate:
//!
//! 1. the searched mapping policy beats (or at worst ties) the Fig. 9
//!    heuristic on end-to-end EDP for the ResNet-style model on the BitWave
//!    accelerator — measured on full pipeline reports, not the search's own
//!    cost estimates;
//! 2. a memoized re-search of an already-seen network is ≥ 10× faster than
//!    the cold search that populated the cache, and returns exactly the
//!    same result.
//!
//! The criterion loops also time the per-layer Pareto selection on its own
//! (`dse/pareto_front_indices_1000x4`), so a regression of that kernel shows
//! up here before it shows up end to end.

use bitwave::context::ExperimentContext;
use bitwave::dataflow::mapping::MappingPolicy;
use bitwave::dse::DseEngine;
use bitwave::pipeline::{ModelReport, Pipeline};
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::LayerSparsityProfile;
use bitwave_bench::{print_header, write_bench_json};
use bitwave_core::pareto::{pareto_front_indices, Direction};
use bitwave_dnn::models::resnet18;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_CAP: usize = 4_000;

/// The `BENCH_dse.json` trajectory record, matching the
/// `BENCH_serve.json`/`BENCH_sparsity.json` convention.
#[derive(Serialize)]
struct DseBenchReport {
    sample_cap: usize,
    heuristic_edp: f64,
    searched_edp: f64,
    searched_over_heuristic_gain: f64,
    memo_cold_ms: f64,
    memo_warm_ms: f64,
    memo_speedup: f64,
    memo_speedup_gate: f64,
    /// Process-wide mapping-space enumerations answered by the shared
    /// space cache during this harness run.
    space_reuse_total: u64,
}

/// The DSE's pruning objectives: `[cycles, energy, edp, utilisation]`.
const OBJECTIVES: [Direction; 4] = [
    Direction::Minimize,
    Direction::Minimize,
    Direction::Minimize,
    Direction::Maximize,
];

/// A fixed-seed, DSE-shaped selection input: `rows` candidates with cycles
/// and energy on a coarse grid (ties and duplicates are common, the front
/// stays small), EDP their product, and utilisation falling with cycles.
fn dse_objective_rows(rows: usize) -> Vec<[f64; 4]> {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..rows)
        .map(|_| {
            let cycles = 1.0e5 * (1.0 + (next() % 64) as f64);
            let energy = 2.0e3 * (1.0 + (next() % 64) as f64);
            let utilisation = (1.0e5 / cycles * 16.0).round() / 16.0;
            [cycles, energy, cycles * energy, utilisation]
        })
        .collect()
}

fn ctx() -> ExperimentContext {
    ExperimentContext::default().with_sample_cap(SAMPLE_CAP)
}

fn edp(report: &ModelReport) -> f64 {
    report.total_cycles * report.energy.total_pj()
}

/// Gate 1: `MappingPolicy::Searched` must not lose to the heuristic on EDP
/// for ResNet18 on the fully optimised BitWave configuration.  Returns
/// `(heuristic_edp, searched_edp)` for the trajectory record.
fn assert_searched_beats_heuristic_edp() -> (f64, f64) {
    print_header(
        "dse_edp",
        "searched vs heuristic mapping EDP on ResNet18/BitWave (gate: searched <= heuristic)",
    );
    let net = resnet18();
    let heuristic = Pipeline::new(ctx()).run_model(&net).expect("heuristic run");
    let searched = Pipeline::new(ctx().with_mapping_policy(MappingPolicy::Searched))
        .run_model(&net)
        .expect("searched run");
    let (h, s) = (edp(&heuristic), edp(&searched));
    println!(
        "heuristic EDP: {h:.4e}   searched EDP: {s:.4e}   gain: {:.3}x   \
         (cycles {:.4e} -> {:.4e}, energy {:.4e} -> {:.4e} pJ)",
        h / s,
        heuristic.total_cycles,
        searched.total_cycles,
        heuristic.energy.total_pj(),
        searched.energy.total_pj(),
    );
    assert!(
        s <= h,
        "searched EDP {s:.4e} must not exceed heuristic EDP {h:.4e}"
    );
    (h, s)
}

/// Gate 2: re-searching an already-seen network must be ≥ 10× faster than
/// the cold search, with bit-identical results.  Returns
/// `(cold_ms, warm_ms, target)` for the trajectory record.
fn assert_memoized_research_speedup() -> (f64, f64, f64) {
    const TARGET: f64 = 10.0;
    print_header(
        "dse_memo",
        "cold vs memoized network search (gate: warm >= 10x faster, identical results)",
    );
    let context = ctx();
    let net = resnet18();
    let weights = context.weights(&net);
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let pipeline = Pipeline::new(context.clone());
    let prepared = pipeline
        .prepare_with_weights(&net, &weights)
        .expect("prepared layers");
    let profiles: Vec<LayerSparsityProfile> = prepared
        .iter()
        .map(|layer| *layer.analysis.profile_for(&accel))
        .collect();

    // A private cache so the cold path is genuinely cold.
    let engine = DseEngine::new(context.memory, context.energy);
    let t0 = Instant::now();
    let cold = engine
        .search_network(&accel, &net, &profiles)
        .expect("cold search");
    let cold_time = t0.elapsed();
    let t1 = Instant::now();
    let warm = engine
        .search_network(&accel, &net, &profiles)
        .expect("warm search");
    let warm_time = t1.elapsed();
    assert_eq!(cold, warm, "memoized results must equal cold results");

    let ratio = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(f64::MIN_POSITIVE);
    let stats = engine.cache().stats();
    println!(
        "cold: {:.1} ms   warm: {:.3} ms   speedup: {ratio:.1}x   \
         (target: >={TARGET}x; memo hits {} misses {})",
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        stats.hits(),
        stats.misses(),
    );
    assert!(
        stats.hits() >= net.layers.len() as u64,
        "the warm sweep must hit the memo for every layer (hits: {})",
        stats.hits()
    );
    assert!(
        ratio >= TARGET,
        "memoized re-search speedup {ratio:.1}x is below the {TARGET}x gate"
    );
    (
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        TARGET,
    )
}

fn bench(c: &mut Criterion) {
    let (heuristic_edp, searched_edp) = assert_searched_beats_heuristic_edp();
    let (memo_cold_ms, memo_warm_ms, memo_speedup_gate) = assert_memoized_research_speedup();
    write_bench_json(
        "BENCH_dse.json",
        &DseBenchReport {
            sample_cap: SAMPLE_CAP,
            heuristic_edp,
            searched_edp,
            searched_over_heuristic_gain: heuristic_edp / searched_edp.max(f64::MIN_POSITIVE),
            memo_cold_ms,
            memo_warm_ms,
            memo_speedup: memo_cold_ms / memo_warm_ms.max(f64::MIN_POSITIVE),
            memo_speedup_gate,
            space_reuse_total: bitwave::dse::space_reuse_total(),
        },
    );

    // Steady-state criterion loops.
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let weights = context.weights(&net);
    let pipeline = Pipeline::new(context.clone());
    let prepared = pipeline
        .prepare_with_weights(&net, &weights)
        .expect("prepare");
    let profiles: Vec<LayerSparsityProfile> = prepared
        .iter()
        .map(|layer| *layer.analysis.profile_for(&accel))
        .collect();

    let cold_engine_layer = net.layers[10].clone();
    c.bench_function("dse/search_one_layer_cold", |b| {
        b.iter(|| {
            // A fresh private cache per iteration keeps this the cold path.
            let engine = DseEngine::new(context.memory, context.energy);
            black_box(
                engine
                    .search_layer(
                        black_box(&accel),
                        black_box(&cold_engine_layer),
                        black_box(&profiles[10]),
                    )
                    .expect("search"),
            )
        })
    });

    let objectives = dse_objective_rows(1_000);
    c.bench_function("dse/pareto_front_indices_1000x4", |b| {
        b.iter(|| black_box(pareto_front_indices(black_box(&objectives), &OBJECTIVES)))
    });

    let warm_engine = DseEngine::new(context.memory, context.energy);
    warm_engine
        .search_network(&accel, &net, &profiles)
        .expect("warm-up");
    c.bench_function("dse/search_resnet18_memoized", |b| {
        b.iter(|| {
            black_box(
                warm_engine
                    .search_network(black_box(&accel), black_box(&net), black_box(&profiles))
                    .expect("memoized search"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
