//! Property tests (vendored `proptest`) for the pipeline's behavioural
//! contracts:
//!
//! * sequential and rayon-parallel model runs are **bit-identical** for
//!   arbitrary synthetic layer sets, group sizes and Bit-Flip targets;
//! * `flip_tensor` with a zero-column target of 0 is the identity (and the
//!   pipeline's bit-flip stage keeps sharing the unmodified allocation);
//! * BCS compress → decompress round-trips losslessly for random weights and
//!   random group sizes under both encodings.
//!
//! Inputs are drawn from the deterministic per-test RNG of the vendored
//! proptest shim, so every failure is reproducible.

mod support;

use bitwave::context::ExperimentContext;
use bitwave::core::bitflip::flip_tensor;
use bitwave::core::compress::{BcsCodec, WeightCodec};
use bitwave::core::group::GroupSize;
use bitwave::core::prelude::FlipStrategy;
use bitwave::dnn::layer::LayerSpec;
use bitwave::dnn::models::{NetworkSpec, TaskKind};
use bitwave::pipeline::Pipeline;
use bitwave::tensor::bits::Encoding;
use bitwave::tensor::prelude::*;
use proptest::prelude::*;
use support::run_sequentially;

/// Builds one synthetic layer from drawn parameters; `kind` selects among
/// the weight-tensor ranks the grouping supports.
fn synth_layer(
    index: usize,
    kind: u8,
    ch_in: usize,
    ch_out: usize,
    sensitivity_pct: u8,
) -> LayerSpec {
    let name = format!("prop.layer{index}");
    let sensitivity = f64::from(sensitivity_pct) / 100.0;
    match kind % 3 {
        0 => LayerSpec::conv2d(name, ch_in, ch_out, 3, 1, 1, 8, sensitivity),
        1 => LayerSpec::pointwise(name, ch_in, ch_out, 4, sensitivity),
        _ => LayerSpec::linear(name, ch_in * 8, ch_out, 1, sensitivity),
    }
}

fn synth_network(layer_params: &[(u8, usize, usize, u8)]) -> NetworkSpec {
    NetworkSpec {
        name: "PropNet".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 70.0,
        layers: layer_params
            .iter()
            .enumerate()
            .map(|(i, &(kind, ch_in, ch_out, sens))| synth_layer(i, kind, ch_in, ch_out, sens))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Sequential vs parallel runs are bit-identical for arbitrary
    /// synthetic layer sets, seeds, group sizes and per-layer flip targets.
    #[test]
    fn sequential_and_parallel_runs_are_bit_identical(
        kinds in proptest::collection::vec(0u8..3, 1..=4),
        ch_in in 1usize..12,
        ch_out in 1usize..16,
        sens in proptest::collection::vec(0u8..=100, 4),
        seed in 0u64..1_000,
        group in prop_oneof![Just(GroupSize::G8), Just(GroupSize::G16), Just(GroupSize::G32)],
        targets in proptest::collection::vec(0u32..=6, 4),
    ) {
        let params: Vec<(u8, usize, usize, u8)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, ch_in + i, ch_out + i, sens[i % sens.len()]))
            .collect();
        let net = synth_network(&params);
        let ctx = ExperimentContext::default()
            .with_sample_cap(2_000)
            .with_seed(seed)
            .with_group_size(group);
        let mut strategy = FlipStrategy::new();
        for (layer, target) in net.layers.iter().zip(&targets) {
            if *target > 0 {
                strategy.set(&layer.name, group, *target);
            }
        }
        let weights = ctx.weights(&net);
        let pipeline = Pipeline::new(ctx).with_strategy(strategy);
        let sequential = run_sequentially(&pipeline, &net, &weights);
        let parallel = pipeline.run(&net, &weights).unwrap();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.layers.len(), net.layers.len());
    }

    /// (b) A zero-column target of 0 never modifies the tensor.
    #[test]
    fn flip_with_zero_target_is_the_identity(
        data in proptest::collection::vec(-127i8..=127, 1..256),
        g in prop_oneof![Just(8usize), Just(16), Just(32), 1usize..64],
        sm in proptest::strategy::any::<bool>(),
    ) {
        let len = data.len();
        let tensor = QuantTensor::new(Shape::d1(len), data, QuantParams::unit()).unwrap();
        let encoding = if sm { Encoding::SignMagnitude } else { Encoding::TwosComplement };
        let (flipped, stats) = flip_tensor(&tensor, GroupSize::from_len(g), 0, encoding).unwrap();
        prop_assert_eq!(flipped.data(), tensor.data());
        prop_assert_eq!(stats.groups_modified, 0);
        prop_assert_eq!(stats.rms_perturbation, 0.0);
    }

    /// (c) BCS compression is lossless for random weights and group sizes
    /// under both encodings.
    #[test]
    fn bcs_compress_decompress_roundtrips(
        weights in proptest::collection::vec(-127i8..=127, 1..512),
        g in prop_oneof![Just(8usize), Just(16), Just(32), 1usize..64],
    ) {
        for encoding in [Encoding::SignMagnitude, Encoding::TwosComplement] {
            let codec = BcsCodec::new(GroupSize::from_len(g), encoding);
            let compressed = codec.compress(&weights);
            prop_assert_eq!(compressed.decompress(), weights.clone());
            prop_assert!(compressed.total_bits() >= compressed.payload_bits);
        }
    }
}

/// The pipeline-level face of property (b): a lossless (target 0) trip
/// through the bit-flip stage keeps sharing the *same weight allocation*,
/// copy-free end to end.
#[test]
fn lossless_pipeline_shares_weight_allocations_end_to_end() {
    use bitwave::dnn::models::resnet18;
    use bitwave::tensor::copy_metrics::CopyCounter;

    let ctx = ExperimentContext::default().with_sample_cap(2_000);
    let net = resnet18();
    let weights = ctx.weights(&net);
    let pipeline = Pipeline::new(ctx);

    let _guard = bitwave::tensor::copy_metrics::exclusive();
    let counter = CopyCounter::snapshot();
    let prepared = pipeline.prepare_with_weights(&net, &weights).unwrap();
    assert_eq!(
        counter.delta(),
        0,
        "lossless prepare must not deep-copy any weight tensor"
    );
    for layer in &prepared {
        let source = weights.layer_handle(&layer.job.layer.name).unwrap();
        assert!(
            layer.job.weights.shares_allocation_with(source),
            "{}: unflipped weights must share the planned allocation",
            layer.job.layer.name
        );
        assert!(
            layer.analysis.weights().shares_allocation_with(source),
            "{}: the analysis must share the same allocation",
            layer.job.layer.name
        );
    }
}
