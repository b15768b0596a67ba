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
//!
//! It also records, one thread, where a cold Bit-Flip `/v1/evaluate` op's
//! time goes: weight generation, compress, Bit-Flip (with the accelerator
//! profile part on its own), map + simulate, and report serialization.

use bitwave::context::ExperimentContext;
use bitwave::pipeline::{
    BitFlipStage, CompressStage, MapStage, ModelReport, Pipeline, PipelineStage, SimulateStage,
};
use bitwave_accel::model::evaluate_layer_with_mapping;
use bitwave_accel::{LayerAnalysis, LayerSparsityProfile};
use bitwave_bench::{print_header, write_bench_json, HostFacts};
use bitwave_core::compress::BcsCodec;
use bitwave_core::group::extract_groups;
use bitwave_core::stats::LayerSparsityStats;
use bitwave_dataflow::mapping::select_spatial_unrolling;
use bitwave_dnn::models::{resnet18, NetworkSpec};
use bitwave_dnn::weights::NetworkWeights;
use bitwave_serve::EvaluateRequest;
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
    host: HostFacts,
    evaluate_bitflip_split: StageSplit,
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

/// Mean one-thread milliseconds per cold Bit-Flip evaluate op, by stage.
/// `bitflip_ms` includes `bitflip_profile_ms`; the other stages sum to
/// `total_ms`.
#[derive(Serialize)]
struct StageSplit {
    request: &'static str,
    ops: usize,
    generate_ms: f64,
    compress_ms: f64,
    bitflip_ms: f64,
    /// Building one accelerator profile from already packed parts and
    /// reading it for the request's accelerator, for every layer: the part
    /// of the Bit-Flip stage that is not the flip itself.  Timed on the
    /// compress stage's outputs, apart from the op.
    bitflip_profile_ms: f64,
    map_simulate_ms: f64,
    report_ms: f64,
    total_ms: f64,
}

/// Times `f`, adding its milliseconds to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *total += t0.elapsed().as_secs_f64() * 1e3;
    out
}

/// The stage split of e2ebench's `evaluate_bitflip` op (ResNet18, Bit-Flip,
/// cap 15 000, a new seed per op), run through the stage-by-stage path on
/// one thread (`RAYON_NUM_THREADS=1` while it runs).
fn measure_stage_split() -> StageSplit {
    const OPS: usize = 40;
    const WARMUP: usize = 3;
    print_header(
        "pipeline_stage_split",
        "one-thread per-stage time of a cold Bit-Flip evaluate op (ResNet18, cap 15000)",
    );
    let previous_threads = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut t = [0.0f64; 6];
    for op in 0..WARMUP + OPS {
        if op == WARMUP {
            t = [0.0; 6];
        }
        let body = format!(
            r#"{{"model":"resnet18","bitflip":true,"sample_cap":15000,"seed":{}}}"#,
            1000 + op
        );
        let normalized = EvaluateRequest::from_json(body.as_bytes())
            .and_then(|r| r.normalize())
            .expect("request normalizes");
        let digest = normalized.key.digest().expect("key digests");
        let knobs = &normalized.key.knobs;
        let weights = timed(&mut t[0], || {
            NetworkWeights::generate_sampled(&normalized.spec, knobs.seed, knobs.sample_cap)
        });
        let pipeline = Pipeline::new(knobs.to_context())
            .with_accelerator(normalized.accelerator.clone())
            .with_default_bitflip(&normalized.spec);
        let ctx = pipeline.context();
        let accelerator = pipeline.accelerator();
        let compress = CompressStage::new(Encoding::SignMagnitude);
        let flip = BitFlipStage::new(Encoding::SignMagnitude);
        let map = MapStage::new(accelerator.clone())
            .with_policy(ctx.mapping_policy)
            .with_cost_tables(ctx.memory, ctx.energy);
        let simulate = SimulateStage::new(accelerator.clone(), ctx.memory, ctx.energy);
        let mut layers = Vec::new();
        for job in pipeline
            .jobs_with_weights(&normalized.spec, &weights)
            .expect("plan")
        {
            let compressed = timed(&mut t[1], || compress.run(job)).expect("compress");
            timed(&mut t[3], || {
                let analysis = LayerAnalysis::from_shared_parts(
                    compressed.job.weights.clone(),
                    compressed.job.layer.expected_activation_sparsity(),
                    &compressed.sparsity,
                    &compressed.planes,
                );
                black_box(analysis.profile_for(accelerator))
            });
            let flipped = timed(&mut t[2], || flip.run(compressed)).expect("bit-flip");
            layers.push(
                timed(&mut t[4], || map.run(flipped).and_then(|m| simulate.run(m)))
                    .expect("map + simulate"),
            );
        }
        timed(&mut t[5], || {
            let report = ModelReport::from_layers(
                normalized.spec.name.clone(),
                accelerator.label.clone(),
                layers,
            );
            black_box(normalized.envelope(&digest, &report).expect("envelope"))
        });
    }
    match previous_threads {
        Some(threads) => std::env::set_var("RAYON_NUM_THREADS", threads),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let per_op = t.map(|ms| ms / OPS as f64);
    let split = StageSplit {
        request: r#"{"model":"resnet18","bitflip":true,"sample_cap":15000,"seed":<new>}"#,
        ops: OPS,
        generate_ms: per_op[0],
        compress_ms: per_op[1],
        bitflip_ms: per_op[2],
        bitflip_profile_ms: per_op[3],
        map_simulate_ms: per_op[4],
        report_ms: per_op[5],
        total_ms: per_op[0] + per_op[1] + per_op[2] + per_op[4] + per_op[5],
    };
    println!(
        "{OPS} ops, ms/op: generate {:.2}  compress {:.2}  bit-flip {:.2} (profile part {:.2})  map+simulate {:.2}  report {:.2}  total {:.2}",
        split.generate_ms,
        split.compress_ms,
        split.bitflip_ms,
        split.bitflip_profile_ms,
        split.map_simulate_ms,
        split.report_ms,
        split.total_ms
    );
    split
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
    let evaluate_bitflip_split = measure_stage_split();
    write_bench_json(
        "BENCH_pipeline.json",
        &PipelineBenchReport {
            host: HostFacts::of_this_host(),
            evaluate_bitflip_split,
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
