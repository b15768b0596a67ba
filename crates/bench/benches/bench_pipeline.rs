//! Benchmarks the unified layer pipeline: sequential vs rayon-parallel
//! full-model runs on ResNet18 (small sample cap), plus the per-stage cost
//! of one layer job.
//!
//! Three invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_pipeline` doubles as the CI gate:
//!
//! 1. the parallel run is bit-identical to the sequential run;
//! 2. **zero weight-tensor deep copies** happen during job planning and
//!    parallel dispatch (the `Arc`-backed `WeightHandle` path);
//! 3. a `fig06_tradeoff`-style 7-round sweep through the single-analysis
//!    pipeline is ≥ 1.5× faster than an emulation of the pre-refactor
//!    per-layer cost (deep-copied jobs, per-stage re-analysis, eager
//!    ZRE/CSR codec passes);
//!
//! plus the existing >1.5x sequential-vs-parallel scaling target on 4+ core
//! machines.

use bitwave::context::ExperimentContext;
use bitwave::pipeline::{ModelReport, Pipeline};
use bitwave_accel::model::evaluate_layer_with_mapping;
use bitwave_accel::LayerSparsityProfile;
use bitwave_bench::{print_header, write_bench_json};
use bitwave_core::compress::BcsCodec;
use bitwave_core::group::extract_groups;
use bitwave_core::stats::LayerSparsityStats;
use bitwave_dataflow::mapping::select_spatial_unrolling;
use bitwave_dnn::models::{resnet18, NetworkSpec};
use bitwave_dnn::weights::NetworkWeights;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::copy_metrics::CopyCounter;
use bitwave_tensor::QuantTensor;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The `BENCH_pipeline.json` trajectory record, matching the
/// `BENCH_dse.json`/`BENCH_dram.json` convention.
#[derive(Serialize)]
struct PipelineBenchReport {
    cores: usize,
    sequential_ms: f64,
    parallel_ms: f64,
    parallel_speedup: f64,
    parallel_speedup_gate: f64,
    weight_copies: u64,
    shared_analysis_ms: f64,
    legacy_emulation_ms: f64,
    shared_analysis_speedup: f64,
    shared_analysis_gate: f64,
}

fn pipeline_context() -> ExperimentContext {
    // Small cap: the bench compares orchestration overhead and scaling, not
    // the full-size analysis cost.
    ExperimentContext::default().with_sample_cap(8_000)
}

/// The sequential side of the comparisons: every job through
/// [`Pipeline::run_job`] in layer order, aggregated like [`Pipeline::run`].
fn run_sequential(pipeline: &Pipeline, net: &NetworkSpec, weights: &NetworkWeights) -> ModelReport {
    let layers = pipeline
        .jobs_with_weights(net, weights)
        .expect("plan")
        .into_iter()
        .map(|job| pipeline.run_job(job).expect("job runs"))
        .collect();
    ModelReport::from_layers(
        net.name.clone(),
        pipeline.accelerator().label.clone(),
        layers,
    )
}

/// One sequential whole-model run, weight generation included.
fn generate_and_run_sequential(pipeline: &Pipeline, net: &NetworkSpec) -> ModelReport {
    run_sequential(pipeline, net, &pipeline.context().weights(net))
}

/// One layer-parallel whole-model run, weight generation included.
fn generate_and_run(pipeline: &Pipeline, net: &NetworkSpec) -> ModelReport {
    pipeline
        .run(net, &pipeline.context().weights(net))
        .expect("parallel run")
}

fn print_scaling_summary(pipeline: &Pipeline) -> (usize, f64, f64, f64) {
    let net = resnet18();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print_header(
        "pipeline_scaling",
        "sequential vs rayon-parallel full-model pipeline (ResNet18)",
    );

    let sequential = generate_and_run_sequential(pipeline, &net);
    let parallel = generate_and_run(pipeline, &net);
    assert_eq!(sequential, parallel, "parallel run must be bit-identical");

    // Best of three rounds per mode (after the warm-up above), so one noisy
    // scheduling interval on a shared CI runner cannot fail the gate.
    let best_of = |runs: &mut dyn FnMut() -> std::time::Duration| {
        (0..3).map(|_| runs()).min().expect("three rounds")
    };
    let t_seq = best_of(&mut || {
        let t0 = Instant::now();
        black_box(generate_and_run_sequential(pipeline, &net));
        t0.elapsed()
    });
    let t_par = best_of(&mut || {
        let t0 = Instant::now();
        black_box(generate_and_run(pipeline, &net));
        t0.elapsed()
    });

    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "cores: {cores}   sequential: {:.1} ms   parallel: {:.1} ms   speedup: {speedup:.2}x",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
    );
    println!(
        "layers: {}   (target: >1.5x speedup at 4+ cores)",
        parallel.layers.len()
    );
    if cores >= 4 {
        assert!(
            speedup > 1.5,
            "parallel pipeline speedup {speedup:.2}x below the 1.5x target on {cores} cores"
        );
    }
    (
        cores,
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
        speedup,
    )
}

/// Gate 2: the zero-copy invariant.  Planning jobs from a weight set and
/// dispatching the whole model across all cores must perform **zero**
/// `QuantTensor` deep copies — weights travel by `Arc` handle only.
fn assert_zero_copy_dispatch(pipeline: &Pipeline) -> u64 {
    let net = resnet18();
    let weights = pipeline.context().weights(&net);
    print_header(
        "pipeline_zero_copy",
        "zero-copy job planning + parallel dispatch (copy-count gate)",
    );
    let counter = CopyCounter::snapshot();
    let jobs = pipeline.jobs_with_weights(&net, &weights).expect("plan");
    let report = pipeline.run(&net, &weights).expect("parallel run");
    let copies = counter.delta();
    println!(
        "jobs planned: {}   layers simulated: {}   weight-tensor deep copies: {copies}",
        jobs.len(),
        report.layers.len(),
    );
    assert_eq!(
        copies, 0,
        "job planning/parallel dispatch must not deep-copy weight tensors"
    );
    copies
}

/// Emulates the pre-refactor per-layer pipeline cost for one full-model
/// pass: deep-copy the weights at planning time (the old owned `LayerJob`),
/// analyse statistics and BCS in the compress stage, then rebuild the whole
/// sparsity profile — statistics, groups and BCS again, plus the eager
/// ZRE/CSR codec passes — in the bit-flip stage, and finally map + simulate.
///
/// The network spec and weight set come from the caller, exactly like the
/// new-path timing: only the per-layer pipeline work is measured, never
/// weight generation.
fn legacy_model_pass(pipeline: &Pipeline, net: &NetworkSpec, weights: &NetworkWeights) -> f64 {
    let ctx = pipeline.context();
    let memory = ctx.memory;
    let energy = ctx.energy;
    let mut checksum = 0.0f64;
    for layer in &net.layers {
        let tensor: QuantTensor = weights.layer(&layer.name).expect("layer weights").clone();
        // Old compress stage: stats + BCS, each extracting its own groups.
        let stats = LayerSparsityStats::analyze(&tensor, ctx.group_size).expect("stats");
        let groups = extract_groups(&tensor, ctx.group_size).expect("groups");
        let compressed = BcsCodec::new(ctx.group_size, Encoding::SignMagnitude)
            .compress_groups(groups.iter(), tensor.data().len());
        black_box((&stats, compressed.compression_ratio_with_index()));
        // Old bit-flip stage: rebuild the full profile from scratch (stats,
        // groups and BCS a second time, ZRE/CSR eagerly).
        let profile = LayerSparsityProfile::from_weights(
            &tensor,
            layer.expected_activation_sparsity(),
            ctx.group_size,
        )
        .expect("profile");
        let accelerator = pipeline.accelerator();
        let decision = select_spatial_unrolling(layer, &accelerator.su_set).expect("mapping");
        let result =
            evaluate_layer_with_mapping(accelerator, layer, &decision, &profile, &memory, &energy);
        checksum += result.total_cycles;
    }
    checksum
}

/// Gate 3: the single-analysis pipeline must beat the pre-refactor cost
/// emulation by ≥ 1.5× on a `fig06_tradeoff`-style sweep (7 whole-model
/// passes over one generated weight set).
fn assert_shared_analysis_speedup(pipeline: &Pipeline) -> (f64, f64, f64) {
    const ROUNDS: usize = 7;
    const TARGET: f64 = 1.5;
    let net = resnet18();
    let weights = pipeline.context().weights(&net);
    print_header(
        "pipeline_shared_analysis",
        "single-pass analysis vs pre-refactor per-stage re-analysis (>=1.5x gate)",
    );

    // Warm-up + numerical agreement: both paths model the same machine.
    let new_total = run_sequential(pipeline, &net, &weights).total_cycles;
    let legacy_total = legacy_model_pass(pipeline, &net, &weights);
    assert!(
        (new_total - legacy_total).abs() <= 1e-6 * legacy_total,
        "shared-analysis pipeline diverged from the legacy emulation: {new_total} vs {legacy_total}"
    );

    // Best of three sweeps per path, so one noisy scheduling interval on a
    // shared CI runner cannot fail the gate.
    let best_of = |runs: &mut dyn FnMut()| -> std::time::Duration {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                runs();
                t0.elapsed()
            })
            .min()
            .expect("three rounds")
    };
    let t_new = best_of(&mut || {
        for _ in 0..ROUNDS {
            black_box(run_sequential(pipeline, &net, &weights));
        }
    });
    let t_legacy = best_of(&mut || {
        for _ in 0..ROUNDS {
            black_box(legacy_model_pass(pipeline, &net, &weights));
        }
    });
    let speedup = t_legacy.as_secs_f64() / t_new.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "{ROUNDS}-round sweep   shared-analysis: {:.1} ms   legacy emulation: {:.1} ms   speedup: {speedup:.2}x   (target: >={TARGET}x)",
        t_new.as_secs_f64() * 1e3,
        t_legacy.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= TARGET,
        "shared-analysis speedup {speedup:.2}x below the {TARGET}x gate"
    );
    (
        t_new.as_secs_f64() * 1e3,
        t_legacy.as_secs_f64() * 1e3,
        speedup,
    )
}

fn bench(c: &mut Criterion) {
    let pipeline = Pipeline::new(pipeline_context()).with_default_bitflip(&resnet18());
    let (cores, sequential_ms, parallel_ms, parallel_speedup) = print_scaling_summary(&pipeline);
    // The copy gate runs on the Bit-Flip pipeline: the flip path constructs
    // fresh tensors but must never *copy* one.
    let weight_copies = assert_zero_copy_dispatch(&pipeline);
    let lossless = Pipeline::new(pipeline_context());
    let (shared_analysis_ms, legacy_emulation_ms, shared_analysis_speedup) =
        assert_shared_analysis_speedup(&lossless);
    write_bench_json(
        "BENCH_pipeline.json",
        &PipelineBenchReport {
            cores,
            sequential_ms,
            parallel_ms,
            parallel_speedup,
            parallel_speedup_gate: 1.5,
            weight_copies,
            shared_analysis_ms,
            legacy_emulation_ms,
            shared_analysis_speedup,
            shared_analysis_gate: 1.5,
        },
    );

    let net = resnet18();
    c.bench_function("pipeline/run_model_sequential_resnet18", |b| {
        b.iter(|| black_box(generate_and_run_sequential(&pipeline, black_box(&net))))
    });
    c.bench_function("pipeline/run_model_parallel_resnet18", |b| {
        b.iter(|| black_box(generate_and_run(&pipeline, black_box(&net))))
    });

    // Single-job cost: the unit of work the parallel scheduler distributes.
    let job = pipeline
        .jobs_with_weights(&net, &pipeline.context().weights(&net))
        .expect("jobs planned")
        .into_iter()
        .last()
        .expect("at least one job");
    c.bench_function("pipeline/run_single_layer_job", |b| {
        b.iter(|| black_box(pipeline.run_job(black_box(job.clone())).expect("job runs")))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
