//! Harness for the DRAM-aware memory tier.
//!
//! Two invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_dram` doubles as the CI gate:
//!
//! 1. a memory-aware hardware DSE (ranking candidates on the roofline
//!    `max(compute, dram)` totals) beats a compute-only search on a
//!    bandwidth-throttled accelerator — the compute-only objective cannot
//!    see SRAM capacity at all, so it keeps the cheapest (smallest) SRAM
//!    and pays the refetch bill at deployment;
//! 2. the analytical DRAM-cycle model stays within the paper's 6 % bound
//!    of the cycle-level BCE engine's streamed traffic (compressed weight
//!    stream + broadcast activations + write-back) on a memory-bound layer.

use bitwave::context::ExperimentContext;
use bitwave::pipeline::{FlippedLayer, Pipeline};
use bitwave_accel::model::evaluate_layer_with_mapping;
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_bench::{print_header, write_bench_json};
use bitwave_core::group::GroupSize;
use bitwave_dataflow::mapping::select_spatial_unrolling;
use bitwave_dataflow::{DramFetches, DramSpec, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::resnet18;
use bitwave_sim::engine::{BitwaveEngine, EngineConfig};
use bitwave_tensor::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;

const SAMPLE_CAP: usize = 4_000;
/// The throttled deployment interface of gate 1, in bits per compute cycle.
const THROTTLED_BANDWIDTH_BITS: usize = 32;
/// The SRAM capacity axis of gate 1 (applied to both operand SRAMs), in KiB.
const SRAM_AXIS_KB: [usize; 5] = [32, 64, 128, 256, 512];

/// The `BENCH_dram.json` trajectory record, matching the
/// `BENCH_dse.json`/`BENCH_sweep.json` convention.
#[derive(Serialize)]
struct DramBenchReport {
    sample_cap: usize,
    throttled_bandwidth_bits: usize,
    blind_sram_kb: usize,
    aware_sram_kb: usize,
    blind_total_cycles: f64,
    aware_total_cycles: f64,
    aware_over_blind_gain: f64,
    aware_memory_bound_layers: usize,
    model_dram_cycles: f64,
    engine_dram_cycles: f64,
    dram_deviation: f64,
    deviation_gate: f64,
}

fn ctx() -> ExperimentContext {
    ExperimentContext::default().with_sample_cap(SAMPLE_CAP)
}

fn memory(sram_kb: usize) -> MemoryHierarchy {
    MemoryHierarchy {
        weight_sram_bytes: sram_kb * 1024,
        activation_sram_bytes: sram_kb * 1024,
        dram_word_bits: 64,
        sram_word_bits: 64,
    }
}

/// ResNet18 through the compress + Bit-Flip prefix: the sparsity analysis
/// every SRAM point and accelerator of the gates re-prices.
fn resnet_prepared(context: &ExperimentContext) -> Vec<FlippedLayer> {
    let net = resnet18();
    let weights = context.weights(&net);
    Pipeline::new(context.clone())
        .prepare_with_weights(&net, &weights)
        .expect("prepared layers")
}

/// Gate 1: on a bandwidth-throttled deployment, ranking the SRAM axis by the
/// DRAM-aware roofline totals must strictly beat a compute-only ranking
/// (which sees identical compute cycles for every capacity and keeps the
/// cheapest).  Returns `(blind_kb, aware_kb, blind_total, aware_total,
/// aware_memory_bound_layers)`.
fn assert_memory_aware_dse_beats_compute_only(
    context: &ExperimentContext,
    prepared: &[FlippedLayer],
) -> (usize, usize, f64, f64, usize) {
    print_header(
        "dram_dse",
        "memory-aware vs compute-only SRAM sizing on a throttled interface \
         (gate: aware total < blind total)",
    );
    let net = resnet18();
    let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    spec.dram = DramSpec::constrained(THROTTLED_BANDWIDTH_BITS);

    let mut blind: Option<(usize, f64, f64)> = None; // (kb, compute metric, deployed total)
    let mut aware: Option<(usize, f64, usize)> = None; // (kb, total, memory-bound layers)
    for sram_kb in SRAM_AXIS_KB {
        let sized = ExperimentContext {
            memory: memory(sram_kb),
            ..context.clone()
        };
        let result = Pipeline::new(sized)
            .with_accelerator(spec.clone())
            .simulate_prepared(&net, prepared)
            .expect("throttled evaluation");
        let compute_metric: f64 = result
            .layers
            .iter()
            .map(|l| l.simulation.compute_cycles)
            .sum();
        let bound = result.memory_bound_layers;
        println!(
            "sram {sram_kb:>4} KiB: compute {compute_metric:.4e}  total {:.4e}  \
             memory-bound layers {bound}/{}",
            result.total_cycles,
            result.layers.len(),
        );
        // The compute-only objective: strictly better or keep the first
        // (cheapest) candidate — capacity is invisible to it.
        if blind.is_none_or(|(_, best, _)| compute_metric < best) {
            blind = Some((sram_kb, compute_metric, result.total_cycles));
        }
        if aware.is_none_or(|(_, best, _)| result.total_cycles < best) {
            aware = Some((sram_kb, result.total_cycles, bound));
        }
    }
    let (blind_kb, _, blind_total) = blind.expect("non-empty axis");
    let (aware_kb, aware_total, aware_bound) = aware.expect("non-empty axis");
    println!(
        "compute-only pick: {blind_kb} KiB (deployed total {blind_total:.4e})   \
         memory-aware pick: {aware_kb} KiB (total {aware_total:.4e})   gain: {:.3}x",
        blind_total / aware_total,
    );
    assert!(
        aware_total < blind_total,
        "memory-aware DSE total {aware_total:.4e} must beat the compute-only \
         pick's deployed total {blind_total:.4e}"
    );
    (blind_kb, aware_kb, blind_total, aware_total, aware_bound)
}

/// Gate 2: the analytical DRAM side of the roofline must stay within the
/// paper's 6 % validation bound of the cycle-level engine's streamed traffic
/// on a memory-bound lowered linear layer.  Returns
/// `(model_cycles, engine_cycles, deviation)`.
fn assert_model_matches_engine_dram() -> (f64, f64, f64) {
    const GATE: f64 = 0.06;
    print_header(
        "dram_bce",
        "analytical vs cycle-level-engine DRAM cycles on a memory-bound layer \
         (gate: deviation < 6%)",
    );
    // A lowered linear layer small enough that every operand fits its SRAM
    // (fetch counts of exactly 1 on both sides of the comparison).
    let (m, k, c) = (32usize, 256usize, 1024usize);
    let layer = LayerSpec::linear("fc", c, k, m, 0.5);
    let weights = quantize_per_tensor(
        &WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.05 }, 11)
            .generate(Shape::d2(k, c)),
        8,
    )
    .expect("weights quantize");
    let input = quantize_per_tensor(
        &WeightGenerator::new(WeightDistribution::Laplacian { scale: 1.0 }, 12)
            .generate(Shape::d2(m, c)),
        8,
    )
    .expect("input quantizes");

    // Analytical side: the engine groups 8 lanes, so the profile (and its
    // BCS compression ratio) is computed at the same group size.
    let profile =
        LayerSparsityProfile::from_weights(&weights, 0.5, GroupSize::from_len(8)).expect("profile");
    let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    spec.dram = DramSpec::constrained(8);
    let decision = select_spatial_unrolling(&layer, &spec.su_set).expect("layer maps");
    let result = evaluate_layer_with_mapping(
        &spec,
        &layer,
        &decision,
        &profile,
        &MemoryHierarchy::bitwave_default(),
        &EnergyModel::finfet_16nm(),
    );
    let boundedness = result
        .boundedness
        .expect("constrained tier reports boundedness");
    assert!(
        boundedness.memory_bound,
        "the validation layer must be memory bound at 8 bits/cycle"
    );
    assert_eq!(boundedness.weight_fetches, 1);
    assert_eq!(boundedness.act_fetches, 1);

    // Engine side: the BCE array streams the BCS-compressed weight tensor
    // once (payload + index bits), broadcasts the input activations and
    // writes every output back.
    let (_, stats) = BitwaveEngine::new(EngineConfig::su1())
        .run_matmul(&input, &weights)
        .expect("engine run");
    let engine_bytes = (stats.weight_payload_bits + stats.weight_index_bits) as f64 / 8.0
        + (m * c) as f64
        + stats.outputs_written as f64;
    let engine_cycles = spec.dram.cycles_for_bytes(engine_bytes);
    let model_cycles = boundedness.dram_cycles;
    let deviation = (model_cycles - engine_cycles).abs() / engine_cycles;
    println!(
        "model: {model_cycles:.1} cycles ({:.0} bytes)   engine: {engine_cycles:.1} cycles \
         ({engine_bytes:.0} bytes)   deviation: {:.2}% (gate: <{:.0}%)",
        boundedness.dram_bytes,
        deviation * 100.0,
        GATE * 100.0,
    );
    assert!(
        deviation < GATE,
        "modeled DRAM cycles deviate {:.2}% from the cycle-level engine (gate: <6%)",
        deviation * 100.0
    );
    (model_cycles, engine_cycles, deviation)
}

fn bench(c: &mut Criterion) {
    let context = ctx();
    let prepared = resnet_prepared(&context);

    let (blind_kb, aware_kb, blind_total, aware_total, aware_bound) =
        assert_memory_aware_dse_beats_compute_only(&context, &prepared);
    let (model_dram_cycles, engine_dram_cycles, dram_deviation) =
        assert_model_matches_engine_dram();
    write_bench_json(
        "BENCH_dram.json",
        &DramBenchReport {
            sample_cap: SAMPLE_CAP,
            throttled_bandwidth_bits: THROTTLED_BANDWIDTH_BITS,
            blind_sram_kb: blind_kb,
            aware_sram_kb: aware_kb,
            blind_total_cycles: blind_total,
            aware_total_cycles: aware_total,
            aware_over_blind_gain: blind_total / aware_total.max(f64::MIN_POSITIVE),
            aware_memory_bound_layers: aware_bound,
            model_dram_cycles,
            engine_dram_cycles,
            dram_deviation,
            deviation_gate: 0.06,
        },
    );

    // Steady-state criterion loops.
    let net = resnet18();
    let mut throttled = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    throttled.dram = DramSpec::constrained(THROTTLED_BANDWIDTH_BITS);
    let pipeline = Pipeline::new(context).with_accelerator(throttled);
    c.bench_function("dram/evaluate_resnet18_throttled", |b| {
        b.iter(|| {
            black_box(
                pipeline
                    .simulate_prepared(black_box(&net), black_box(&prepared))
                    .expect("evaluation"),
            )
        })
    });

    let footprints: Vec<(u64, u64, u64)> = net
        .layers
        .iter()
        .map(|l| {
            let d = &l.dims;
            (d.weight_count(), d.input_count(), d.output_count())
        })
        .collect();
    let tight = memory(64);
    c.bench_function("dram/traffic_analyze_cheapest_resnet18", |b| {
        b.iter(|| {
            footprints
                .iter()
                .map(|&(w, i, o)| {
                    let f = DramFetches::of(black_box(w), i, o, &tight, None);
                    w * f.weight + i * f.act + o
                })
                .sum::<u64>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
