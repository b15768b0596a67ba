//! Cross-crate integration tests: the full compress → bit-flip → map →
//! simulate chain on real layer shapes, exercised through the unified
//! `bitwave::pipeline` subsystem.

mod support;

use bitwave::context::ExperimentContext;
use bitwave::core::group::GroupSize;
use bitwave::core::prelude::zero_column_count;
use bitwave::core::prelude::Encoding;
use bitwave::dnn::models::{cnn_lstm, resnet18};
use bitwave::dnn::weights::generate_layer_sample;
use bitwave::pipeline::{BitFlipStage, CompressStage, Pipeline, PipelineStage};
use bitwave::sim::engine::{BitwaveEngine, EngineConfig};
use bitwave::tensor::prelude::*;
use support::run_sequentially;

/// Compress a real ResNet18 layer through the pipeline's compress stage,
/// check losslessness of the underlying codec, run the bit-flip stage, and
/// check that the flipped tensor both satisfies the zero-column constraint
/// and compresses strictly better.
#[test]
fn compress_flip_compress_pipeline() {
    let ctx = ExperimentContext::default().with_sample_cap(20_000);
    let net = resnet18();
    let pipeline = Pipeline::new(ctx.clone());
    let weights = ctx.weights(&net);
    let mut jobs = pipeline.jobs_with_weights(&net, &weights).unwrap();
    jobs.retain(|j| j.layer.name == "layer4.0.conv2");
    let mut job = jobs.into_iter().next().expect("layer planned");
    job.zero_column_target = 5;

    // The stage's accounting must agree with the raw codec, which is lossless.
    let codec = bitwave::core::compress::BcsCodec::new(GroupSize::G16, Encoding::SignMagnitude);
    let raw = {
        use bitwave::core::compress::WeightCodec;
        codec.compress(job.weights.data())
    };
    assert_eq!(raw.decompress(), job.weights.data());

    let compressed = CompressStage::new(Encoding::SignMagnitude)
        .run(job)
        .unwrap();
    let baseline_cr = compressed.compression.cr_with_index;
    assert!(
        baseline_cr > 1.0,
        "lossless BCS should already compress: {baseline_cr}"
    );

    let flipped = BitFlipStage::new(Encoding::SignMagnitude)
        .run(compressed)
        .unwrap();
    let flip = flipped.bitflip.expect("target 5 must flip");
    assert!(flip.mean_zero_columns >= 5.0);
    assert!(
        flip.compression_after.cr_with_index > baseline_cr,
        "Bit-Flip must improve the compression ratio"
    );

    // Every group of the flipped tensor honours the constraint.
    let groups =
        bitwave::core::group::extract_groups(&flipped.job.weights, GroupSize::G16).unwrap();
    for g in groups.iter() {
        assert!(zero_column_count(g, Encoding::SignMagnitude) >= 5);
    }
}

/// The layer-parallel whole-model run is bit-identical to the sequential
/// stage-by-stage fold, with and without Bit-Flip (the determinism contract
/// of `Pipeline::run`).
#[test]
fn parallel_pipeline_is_bit_identical_to_sequential() {
    let ctx = ExperimentContext::default().with_sample_cap(4_000);
    let net = resnet18();
    let weights = ctx.weights(&net);
    for with_flip in [false, true] {
        let mut pipeline = Pipeline::new(ctx.clone());
        if with_flip {
            pipeline = pipeline.with_default_bitflip(&net);
        }
        let sequential = run_sequentially(&pipeline, &net, &weights);
        let parallel = pipeline.run(&net, &weights).unwrap();
        assert_eq!(
            sequential, parallel,
            "parallel run diverged (bitflip: {with_flip})"
        );
        // And the reports serialise/deserialise losslessly.
        let json = serde_json::to_string_pretty(&parallel).unwrap();
        let back: bitwave::pipeline::ModelReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, parallel);
    }
}

/// The cycle-level simulator agrees with the Int8 reference on a real
/// (sampled) CNN-LSTM projection layer and skips a meaningful number of
/// columns.
#[test]
fn simulator_runs_real_layer_weights() {
    let net = cnn_lstm();
    let layer = net.layer("fc.mask").unwrap();
    let weights = generate_layer_sample(layer, 9, 16_384);
    let k = weights.shape().dim(0);
    let c = weights.shape().dim(1);
    assert_eq!(c, 2048);

    let acts = ActivationGenerator::new(
        bitwave::tensor::synth::ActivationKind::Gaussianlike { std: 1.0 },
        17,
    )
    .generate(Shape::d2(4, c));
    let acts = quantize_per_tensor(&acts, 8).unwrap();

    let engine = BitwaveEngine::new(EngineConfig::su1());
    let (outputs, stats) = engine.run_linear_verified(&acts, &weights).unwrap();
    assert_eq!(outputs.len(), 4 * k);
    assert!(stats.column_skip_speedup() > 1.0);
    assert!(stats.weight_compression_ratio() > 1.0);
}

/// The analytical model and the simulator agree (paper: < 6 % deviation), and
/// the experiment driver exposes that check.
#[test]
fn model_matches_simulator_for_validation_workload() {
    let ctx = ExperimentContext::default().with_sample_cap(8_000);
    let report = bitwave::experiments::evaluation::validation_model_vs_simulator(&ctx).unwrap();
    assert!(
        report.within_paper_bound(),
        "model/simulator deviation {:.3} exceeds the paper's 6% bound",
        report.deviation
    );
    assert!(report.simulated_compression_ratio > 1.0);
}
