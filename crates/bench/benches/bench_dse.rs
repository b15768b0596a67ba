//! Harness for the `bitwave-dse` dataflow design-space exploration engine.
//!
//! One invariant is **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_dse` doubles as the CI gate: the
//! searched mapping policy beats (or at worst ties) the Fig. 9 heuristic on
//! end-to-end EDP for the ResNet-style model on the BitWave accelerator —
//! measured on full pipeline reports, not the search's own cost estimates.
//!
//! It also records the cold ResNet18 network search (median of
//! [`COLD_SEARCH_REPS`] runs) in `BENCH_dse.json`, next to the same
//! measurement before the layer-search memo was removed.  The criterion
//! loops time one layer's search, the whole network's, and the per-layer
//! Pareto selection on its own (`dse/pareto_front_indices_1000x4`), so a
//! regression of that kernel shows up here before it shows up end to end.

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
/// Timed repetitions of the cold network search (after one warm-up).
const COLD_SEARCH_REPS: usize = 15;
/// Cold ResNet18 network search at the last commit with the layer-search
/// memo: median of 15, 2-vCPU host.
const MEMO_ERA_COLD_SEARCH_MS: f64 = 7.87;
/// A memo hit of the same search at that commit, same host (median of 15).
const MEMO_ERA_HIT_MS: f64 = 0.53;

/// The `BENCH_dse.json` trajectory record, matching the
/// `BENCH_serve.json`/`BENCH_sparsity.json` convention.
#[derive(Serialize)]
struct DseBenchReport {
    sample_cap: usize,
    heuristic_edp: f64,
    searched_edp: f64,
    searched_over_heuristic_gain: f64,
    /// Cold ResNet18 network search, median of `cold_search_reps`.
    cold_search_ms: f64,
    cold_search_reps: usize,
    /// The same search with the layer-search memo (see
    /// `MEMO_ERA_COLD_SEARCH_MS`), cold and as a memo hit.
    memo_era_cold_search_ms: f64,
    memo_era_hit_ms: f64,
    available_cores: usize,
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
    let weights = ctx().weights(&net);
    let heuristic = Pipeline::new(ctx())
        .run(&net, &weights)
        .expect("heuristic run");
    let searched = Pipeline::new(ctx().with_mapping_policy(MappingPolicy::Searched))
        .run(&net, &weights)
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

/// The per-layer sparsity profiles of ResNet18 on `accel`.
fn resnet18_profiles(accel: &AcceleratorSpec) -> Vec<LayerSparsityProfile> {
    let context = ctx();
    let net = resnet18();
    let weights = context.weights(&net);
    Pipeline::new(context)
        .prepare_with_weights(&net, &weights)
        .expect("prepared layers")
        .iter()
        .map(|layer| *layer.analysis.profile_for(accel))
        .collect()
}

/// The cold ResNet18 network search: median milliseconds over
/// [`COLD_SEARCH_REPS`] runs, each on a fresh engine, after one warm-up.
/// Every run must return the same result.
fn measure_cold_network_search() -> f64 {
    print_header(
        "dse_cold_search",
        "cold ResNet18 network search on BitWave (recorded, not gated)",
    );
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let profiles = resnet18_profiles(&accel);
    let search = || {
        DseEngine::new(context.memory, context.energy)
            .search_network(&accel, &net, &profiles)
            .expect("cold search")
    };
    let reference = search();
    let mut samples: Vec<f64> = (0..COLD_SEARCH_REPS)
        .map(|_| {
            let t = Instant::now();
            let result = search();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(result, reference, "cold searches must agree");
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!(
        "cold: {median:.2} ms (median of {COLD_SEARCH_REPS})   with the memo: cold \
         {MEMO_ERA_COLD_SEARCH_MS} ms, hit {MEMO_ERA_HIT_MS} ms"
    );
    median
}

fn bench(c: &mut Criterion) {
    let (heuristic_edp, searched_edp) = assert_searched_beats_heuristic_edp();
    let cold_search_ms = measure_cold_network_search();
    write_bench_json(
        "BENCH_dse.json",
        &DseBenchReport {
            sample_cap: SAMPLE_CAP,
            heuristic_edp,
            searched_edp,
            searched_over_heuristic_gain: heuristic_edp / searched_edp.max(f64::MIN_POSITIVE),
            cold_search_ms,
            cold_search_reps: COLD_SEARCH_REPS,
            memo_era_cold_search_ms: MEMO_ERA_COLD_SEARCH_MS,
            memo_era_hit_ms: MEMO_ERA_HIT_MS,
            available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            space_reuse_total: bitwave::dse::space_reuse_total(),
        },
    );

    // Steady-state criterion loops.
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let profiles = resnet18_profiles(&accel);
    let engine = DseEngine::new(context.memory, context.energy);

    let cold_engine_layer = net.layers[10].clone();
    c.bench_function("dse/search_one_layer_cold", |b| {
        b.iter(|| {
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

    c.bench_function("dse/search_resnet18_cold", |b| {
        b.iter(|| {
            black_box(
                engine
                    .search_network(black_box(&accel), black_box(&net), black_box(&profiles))
                    .expect("cold search"),
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
