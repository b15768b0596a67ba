//! The factored engine search against the naive oracle: on generated layer
//! shapes (depthwise included), arbitrary mapping spaces, both SRAM-fit
//! regimes and both DRAM tiers, `DseEngine::search_layer` reproduces the
//! oracle's full per-candidate search byte for byte, errors included.

mod oracle;

use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_core::group::GroupSize;
use bitwave_dataflow::activity::TilingOrder;
use bitwave_dataflow::{DramSpec, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::{mobilenet_v2, resnet18};
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_dse::{DseEngine, DseError, SearchSpace};
use proptest::prelude::*;

fn profile_for(layer: &LayerSpec, seed: u64) -> LayerSparsityProfile {
    let weights = generate_layer_sample(layer, seed, 1_000);
    LayerSparsityProfile::from_weights(
        &weights,
        layer.expected_activation_sparsity(),
        GroupSize::G16,
    )
    .expect("generated weights profile")
}

/// One generated layer: a convolution, a depthwise convolution, a
/// pointwise convolution, a linear layer or an LSTM gate bundle.
fn layer_of(kind: u8, ch_in: usize, ch_out: usize, hw: usize, stride: usize) -> LayerSpec {
    match kind {
        0 => LayerSpec::conv2d("conv", ch_in, ch_out, 3, stride, 1, hw, 0.4),
        1 => LayerSpec::depthwise("dw", ch_out, 3, stride, 1, hw, 0.4),
        2 => LayerSpec::pointwise("pw", ch_in, ch_out, hw, 0.4),
        3 => LayerSpec::linear("fc", ch_in * 8, ch_out, 1, 0.4),
        _ => LayerSpec::lstm_gates("lstm", ch_in, ch_out, 4, 0.4),
    }
}

/// The smaller SRAMs push most layers through DRAM refetches; the default
/// ones keep small layers on chip.
fn memory_of(small_sram: bool) -> MemoryHierarchy {
    if small_sram {
        MemoryHierarchy {
            weight_sram_bytes: 2 * 1024,
            activation_sram_bytes: 2 * 1024,
            ..MemoryHierarchy::bitwave_default()
        }
    } else {
        MemoryHierarchy::bitwave_default()
    }
}

fn accel_of(dram_bits: Option<usize>) -> AcceleratorSpec {
    let mut accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    if let Some(bits) = dram_bits {
        accel.dram = DramSpec::constrained(bits);
    }
    accel
}

/// Asserts the engine reproduces the oracle's result (or error) for one
/// layer, comparing serialized bytes.
fn assert_engine_matches_oracle(
    accel: &AcceleratorSpec,
    layer: &LayerSpec,
    profile: &LayerSparsityProfile,
    memory: MemoryHierarchy,
    space: &SearchSpace,
) {
    let energy = EnergyModel::finfet_16nm();
    let engine = DseEngine::new(memory, energy).with_space(space.clone());
    let expected = oracle::search_layer(accel, layer, profile, &memory, &energy, space);
    match (engine.search_layer(accel, layer, profile), expected) {
        (Ok(got), Ok(expected)) => assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{}: engine search diverged from the oracle",
            layer.name
        ),
        (got, expected) => assert_eq!(got.err(), expected.err(), "{}", layer.name),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_search_equals_the_oracle(
        kind in 0u8..5,
        ch_in in 1usize..48,
        ch_out in 1usize..48,
        hw_pick in 0usize..4,
        stride in 1usize..=2,
        tile_mask in 0u8..8,        // subset of {1, 2, 4}; empty = natural tiling
        fill_pick in 0usize..3,
        front_pick in 0usize..3,
        su_set_pick in 0u8..2,
        sram_pick in 0u8..2,
        dram_pick in 0usize..3,     // unconstrained, 32 or 256 bits/cycle
        seed in 0u64..1_000,
    ) {
        let layer = layer_of(kind, ch_in, ch_out, [4, 7, 14, 28][hw_pick], stride);
        let space = SearchSpace {
            min_fill: [0.125, 0.25, 0.5][fill_pick],
            tile_factors: [1usize, 2, 4]
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| tile_mask & (1 << bit) != 0)
                .map(|(_, factor)| factor)
                .collect(),
            include_su_set: su_set_pick == 1,
            max_front: [1usize, 4, 16][front_pick],
            max_parallelism: None,
        };
        let accel = accel_of([None, Some(32), Some(256)][dram_pick]);
        let profile = profile_for(&layer, seed);
        assert_engine_matches_oracle(&accel, &layer, &profile, memory_of(sram_pick == 1), &space);
    }
}

/// A large fully-connected layer keeps its activations on chip while its
/// weights need many SRAM tiles, so activation-outer tilings win: the
/// materialised winner and front must take their costs from the right
/// tiling, not the first of their SU block.
#[test]
fn non_first_tiling_winners_equal_the_oracle() {
    let layer = LayerSpec::linear("fc", 2048, 2048, 1, 0.4);
    let profile = profile_for(&layer, 5);
    let space = SearchSpace::default();
    for dram_bits in [None, Some(64)] {
        let accel = accel_of(dram_bits);
        for small_sram in [false, true] {
            let memory = memory_of(small_sram);
            let winner = DseEngine::new(memory, EnergyModel::finfet_16nm())
                .search_layer(&accel, &layer, &profile)
                .unwrap()
                .winner;
            assert_eq!(
                winner.temporal.map(|t| t.order),
                Some(TilingOrder::ActivationOuter)
            );
            assert_engine_matches_oracle(&accel, &layer, &profile, memory, &space);
        }
    }
}

/// An empty mapping space is the same typed error on both paths.
#[test]
fn empty_space_is_the_same_error() {
    let layer = layer_of(0, 16, 32, 14, 1);
    let profile = profile_for(&layer, 3);
    let space = SearchSpace {
        include_su_set: false,
        max_parallelism: Some(0),
        ..SearchSpace::default()
    };
    let accel = accel_of(None);
    assert_engine_matches_oracle(&accel, &layer, &profile, memory_of(false), &space);
    let err = DseEngine::new(memory_of(false), EnergyModel::finfet_16nm())
        .with_space(space)
        .search_layer(&accel, &layer, &profile)
        .unwrap_err();
    assert!(matches!(err, DseError::EmptySpace { .. }), "{err}");
}

/// Whole-network searches (heuristic baseline, aggregation and roofline
/// verdicts included) match the oracle on real model prefixes, depthwise
/// layers included, under both DRAM tiers.
#[test]
fn network_searches_equal_the_oracle() {
    let energy = EnergyModel::finfet_16nm();
    let memory = MemoryHierarchy::bitwave_default();
    let space = SearchSpace::default();
    for mut net in [resnet18(), mobilenet_v2()] {
        net.layers.truncate(5);
        let profiles: Vec<LayerSparsityProfile> =
            net.layers.iter().map(|l| profile_for(l, 11)).collect();
        for accel in [accel_of(None), accel_of(Some(64))] {
            let engine = DseEngine::new(memory, energy);
            let got = engine.search_network(&accel, &net, &profiles).unwrap();
            let expected =
                oracle::search_network(&accel, &net, &profiles, &memory, &energy, &space).unwrap();
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "{}",
                net.name
            );
        }
    }
}
