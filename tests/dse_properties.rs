//! Property tests (vendored `proptest`) for the dataflow design-space
//! exploration engine's behavioural contracts:
//!
//! * the parallel network search is **bit-identical** to the naive
//!   sequential oracle (`crates/dse/tests/oracle/`) on arbitrary synthetic
//!   networks (serialized JSON compared byte for byte);
//! * the searched winner never loses to the Fig. 9 heuristic on EDP (the
//!   space seeds the accelerator's own SU set);
//! * a `MappingPolicy::Searched` pipeline run stays bit-identical to the
//!   sequential stage-by-stage fold.

#[path = "../crates/dse/tests/oracle/mod.rs"]
mod oracle;
mod support;

use bitwave::accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave::accel::LayerSparsityProfile;
use bitwave::context::ExperimentContext;
use bitwave::core::group::GroupSize;
use bitwave::dataflow::mapping::MappingPolicy;
use bitwave::dnn::layer::LayerSpec;
use bitwave::dnn::models::{NetworkSpec, TaskKind};
use bitwave::dse::{DseEngine, SearchSpace};
use bitwave::pipeline::Pipeline;
use proptest::prelude::*;
use support::run_sequentially;

/// Builds one synthetic layer from drawn parameters (mirrors
/// `tests/pipeline_properties.rs`).
fn synth_layer(index: usize, kind: u8, ch_in: usize, ch_out: usize) -> LayerSpec {
    let name = format!("dse.layer{index}");
    match kind % 3 {
        0 => LayerSpec::conv2d(name, ch_in, ch_out, 3, 1, 1, 8, 0.4),
        1 => LayerSpec::pointwise(name, ch_in, ch_out, 4, 0.4),
        _ => LayerSpec::linear(name, ch_in * 8, ch_out, 1, 0.4),
    }
}

fn synth_network(layer_params: &[(u8, usize, usize)]) -> NetworkSpec {
    NetworkSpec {
        name: "DsePropNet".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 70.0,
        layers: layer_params
            .iter()
            .enumerate()
            .map(|(i, &(kind, ch_in, ch_out))| synth_layer(i, kind, ch_in, ch_out))
            .collect(),
    }
}

fn profiles_for(ctx: &ExperimentContext, net: &NetworkSpec) -> Vec<LayerSparsityProfile> {
    let weights = ctx.weights(net);
    net.layers
        .iter()
        .map(|l| {
            LayerSparsityProfile::from_weights(
                weights.layer(&l.name).unwrap(),
                l.expected_activation_sparsity(),
                ctx.group_size,
            )
            .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) The parallel search ≡ the sequential oracle, byte for byte, on
    /// arbitrary synthetic networks.
    #[test]
    fn parallel_and_sequential_searches_agree(
        kinds in proptest::collection::vec(0u8..3, 1..=4),
        ch_in in 1usize..12,
        ch_out in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let params: Vec<(u8, usize, usize)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, ch_in + i, ch_out + i))
            .collect();
        let net = synth_network(&params);
        let ctx = ExperimentContext::default()
            .with_sample_cap(2_000)
            .with_seed(seed);
        let profiles = profiles_for(&ctx, &net);
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let engine = DseEngine::new(ctx.memory, ctx.energy);

        let parallel = engine.search_network(&accel, &net, &profiles).unwrap();
        let sequential = oracle::search_network(
            &accel,
            &net,
            &profiles,
            &ctx.memory,
            &ctx.energy,
            &SearchSpace::default(),
        )
        .unwrap();
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap()
        );

        // The searched winner never loses to the heuristic per layer, and
        // therefore neither does the per-layer EDP sum.  (The network-level
        // product (Σcycles)×(Σenergy) is *not* mathematically guaranteed on
        // arbitrary networks — a per-layer cycles↔energy trade can inflate
        // it — so it is gated only on the fixed benchmark models.)
        let mut sum_searched = 0.0;
        let mut sum_heuristic = 0.0;
        for layer in &parallel.layers {
            prop_assert!(
                layer.search.winner.cost.edp <= layer.heuristic.cost.edp,
                "{}: searched {} vs heuristic {}",
                &layer.layer,
                layer.search.winner.cost.edp,
                layer.heuristic.cost.edp
            );
            sum_searched += layer.search.winner.cost.edp;
            sum_heuristic += layer.heuristic.cost.edp;
        }
        prop_assert!(sum_searched <= sum_heuristic);
    }

    /// (b) A searched-policy pipeline run keeps the bit-identity contract
    /// with the sequential fold on arbitrary synthetic networks.
    #[test]
    fn searched_pipeline_runs_are_bit_identical(
        kinds in proptest::collection::vec(0u8..3, 1..=3),
        ch_in in 1usize..10,
        ch_out in 1usize..12,
        seed in 0u64..1_000,
        group in prop_oneof![Just(GroupSize::G8), Just(GroupSize::G16), Just(GroupSize::G32)],
    ) {
        let params: Vec<(u8, usize, usize)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, ch_in + i, ch_out + i))
            .collect();
        let net = synth_network(&params);
        let ctx = ExperimentContext::default()
            .with_sample_cap(2_000)
            .with_seed(seed)
            .with_group_size(group)
            .with_mapping_policy(MappingPolicy::Searched);
        let weights = ctx.weights(&net);
        let pipeline = Pipeline::new(ctx);
        let sequential = run_sequentially(&pipeline, &net, &weights);
        let parallel = pipeline.run(&net, &weights).unwrap();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.layers.len(), net.layers.len());
    }
}
