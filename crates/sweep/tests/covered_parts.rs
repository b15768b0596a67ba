//! The sweep's factored search prices only the SU parts that no earlier
//! part covers (`bitwave_dse::factor_network`), after a profile-free shape
//! stage cached per layer shape has dropped the parts an earlier part's
//! `SuShape` covers.  This holds, layer by layer, over every layer shape of
//! ResNet18, MobileNetV2 (depthwise), CNN-LSTM and BERT-Base, on sweep
//! specs of both menu families at 1024–8192 lanes, under the unconstrained
//! and a constrained DRAM tier and each tile factor on its own (so every
//! tiling is the only one of its order in some space):
//!
//! * the kept parts are, bit for bit, those of a per-part reference: every
//!   part through `SuCost::of`, then the covering loop;
//! * a cold and a warm shape cache keep the same parts;
//! * a profile whose bits statistic is NaN takes the full-list fallback
//!   and still keeps the reference's parts;
//! * the pruned winner is the full scan's winner, bit for bit, in both
//!   SRAM-fit regimes.

use bitwave_accel::{AcceleratorSpec, EnergyModel, LayerSparsityProfile, SuCost};
use bitwave_core::group::GroupSize;
use bitwave_dataflow::{DramSpec, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::{bert_base, cnn_lstm, mobilenet_v2, resnet18, NetworkSpec};
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_dse::{
    clear_shape_cache, factor_network, DseEngine, FactoredNetworkSearch, SearchSpace,
};
use bitwave_sweep::{CandidatePoint, MenuKind};

/// The distinct layer shapes of `net`, each as a one-layer network with
/// its sparsity profile.
fn distinct_layers(net: &NetworkSpec) -> Vec<(NetworkSpec, Vec<LayerSparsityProfile>)> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for layer in &net.layers {
        let shape = format!("{:?}/{:?}", layer.dims, layer.kind);
        if seen.contains(&shape) {
            continue;
        }
        seen.push(shape);
        out.push((
            NetworkSpec {
                layers: vec![layer.clone()],
                ..net.clone()
            },
            vec![profile_for(layer)],
        ));
    }
    out
}

fn profile_for(layer: &LayerSpec) -> LayerSparsityProfile {
    let weights = generate_layer_sample(layer, 5, 1_000);
    LayerSparsityProfile::from_weights(
        &weights,
        layer.expected_activation_sparsity(),
        GroupSize::G16,
    )
    .expect("generated weights profile")
}

/// `profile` with NaN in both bit-column statistics a BitWave spec reads.
fn nan_bits(profile: &LayerSparsityProfile) -> LayerSparsityProfile {
    LayerSparsityProfile {
        mean_nonzero_columns: f64::NAN,
        max_nonzero_columns_synced: f64::NAN,
        ..*profile
    }
}

/// The per-part reference: every SU part of `layer`'s mapping space through
/// `SuCost::of`, in enumeration order, less every part an earlier kept part
/// covers.  SU parts read neither the DRAM tier nor the tilings, so one
/// reference serves every spec and space of a sweep point.
fn reference_parts(
    spec: &AcceleratorSpec,
    layer: &LayerSpec,
    profile: &LayerSparsityProfile,
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Vec<(SuCost, f64)> {
    let mut kept: Vec<(SuCost, f64)> = Vec::new();
    for block in space
        .enumerate_shared(spec, layer)
        .chunks(space.tilings().len())
    {
        let su = &block[0].su;
        let utilization = su.utilization_for(layer);
        let lanes = su.parallelism() as f64 * utilization;
        let part = SuCost::of(spec, layer, su, lanes, profile, energy);
        if !kept
            .iter()
            .any(|(by, by_utilization)| by.covers(*by_utilization, &part, utilization))
        {
            kept.push((part, utilization));
        }
    }
    kept
}

/// Asserts that the one-layer `factored` keeps exactly `reference`, bit for
/// bit.
fn assert_keeps(factored: &FactoredNetworkSearch, reference: &[(SuCost, f64)], what: &str) {
    let kept: Vec<&(SuCost, f64)> = factored.kept_parts().flatten().collect();
    assert_eq!(kept.len(), reference.len(), "{what}");
    for ((part, utilization), (want, want_utilization)) in kept.into_iter().zip(reference) {
        assert_eq!(part.to_bits(), want.to_bits(), "{what}");
        assert_eq!(utilization.to_bits(), want_utilization.to_bits(), "{what}");
    }
}

#[test]
fn pruned_winners_equal_the_full_scan_bit_for_bit() {
    let energy = EnergyModel::finfet_16nm();
    let memories = [
        MemoryHierarchy {
            weight_sram_bytes: 16 * 1024,
            activation_sram_bytes: 16 * 1024,
            ..MemoryHierarchy::bitwave_default()
        },
        MemoryHierarchy::bitwave_default(),
    ];
    let (mut enumerated, mut kept) = (0, 0);
    for net in [resnet18(), mobilenet_v2(), cnn_lstm(), bert_base()] {
        let layers = distinct_layers(&net);
        for (lanes, sync_lanes) in [(1024, 8), (2048, 1), (4096, 8), (8192, 1)] {
            for menu in [MenuKind::TableI, MenuKind::BitSim] {
                let point = CandidatePoint {
                    index: 0,
                    lanes,
                    sync_lanes,
                    weight_sram_kb: 16,
                    activation_sram_kb: 16,
                    dram_bandwidth_bits: 32,
                    sram_bandwidth_bits: 1024,
                    menu,
                };
                let constrained = point.spec();
                let unconstrained = bitwave_accel::AcceleratorSpec {
                    dram: DramSpec::unconstrained(),
                    ..constrained.clone()
                };
                let references: Vec<_> = layers
                    .iter()
                    .map(|(one_layer, profiles)| {
                        let layer = &one_layer.layers[0];
                        let space = SearchSpace::default();
                        let nan = nan_bits(&profiles[0]);
                        [&profiles[0], &nan]
                            .map(|p| reference_parts(&constrained, layer, p, &energy, &space))
                    })
                    .collect();
                for spec in [&unconstrained, &constrained] {
                    for tile_factor in [1, 2, 4] {
                        let space = SearchSpace {
                            tile_factors: vec![tile_factor],
                            ..SearchSpace::default()
                        };
                        clear_shape_cache();
                        for ((one_layer, profiles), [reference, nan_reference]) in
                            layers.iter().zip(&references)
                        {
                            let what = format!(
                                "{} / {} / {} / tile {tile_factor}",
                                one_layer.layers[0].name,
                                spec.label,
                                spec.dram.is_constrained()
                            );
                            let factored =
                                factor_network(spec, one_layer, profiles, &energy, &space)
                                    .expect("every layer maps");
                            assert_keeps(&factored, reference, &format!("cold {what}"));
                            let warm = factor_network(spec, one_layer, profiles, &energy, &space)
                                .expect("every layer maps");
                            assert_keeps(&warm, reference, &format!("warm {what}"));
                            enumerated += factored.su_parts_enumerated();
                            kept += factored.su_parts_kept();
                            if spec.dram.is_constrained() && tile_factor == 1 {
                                let nan = factor_network(
                                    spec,
                                    one_layer,
                                    &[nan_bits(&profiles[0])],
                                    &energy,
                                    &space,
                                )
                                .expect("every layer maps");
                                assert_eq!(nan.su_parts_kept(), nan.su_parts_enumerated());
                                assert_keeps(&nan, nan_reference, &format!("NaN {what}"));
                            }
                            for memory in memories {
                                let engine =
                                    DseEngine::new(memory, energy).with_space(space.clone());
                                let full = engine
                                    .search_layer(spec, &one_layer.layers[0], &profiles[0])
                                    .expect("every layer searches")
                                    .winner
                                    .cost;
                                let pruned = factored.price(spec, &memory, &energy);
                                assert_eq!(
                                    pruned.cycles.to_bits(),
                                    full.total_cycles.to_bits(),
                                    "{what}"
                                );
                                assert_eq!(
                                    pruned.energy_pj.to_bits(),
                                    full.energy_pj.to_bits(),
                                    "{what}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(kept > 0 && kept < enumerated, "{kept} of {enumerated} kept");
}
