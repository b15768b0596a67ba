//! The sweep's factored search prices only the SU parts that no earlier
//! part covers (`bitwave_dse::factor_network`).  This holds the pruned
//! winner to the full scan's winner, bit for bit, layer by layer: every
//! layer shape of ResNet18, MobileNetV2 (depthwise), CNN-LSTM and
//! BERT-Base, on sweep specs of both menu families at 1024–8192 lanes,
//! under the unconstrained and a constrained DRAM tier, both SRAM-fit
//! regimes and each tile factor on its own (so every tiling is the only
//! one of its order in some space).

use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_core::group::GroupSize;
use bitwave_dataflow::{DramSpec, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::{bert_base, cnn_lstm, mobilenet_v2, resnet18, NetworkSpec};
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_dse::{factor_network, DseEngine, SearchSpace};
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
                for spec in [&unconstrained, &constrained] {
                    for tile_factor in [1, 2, 4] {
                        let space = SearchSpace {
                            tile_factors: vec![tile_factor],
                            ..SearchSpace::default()
                        };
                        for (one_layer, profiles) in &layers {
                            let factored =
                                factor_network(spec, one_layer, profiles, &energy, &space)
                                    .expect("every layer maps");
                            enumerated += factored.su_parts_enumerated();
                            kept += factored.su_parts_kept();
                            for memory in memories {
                                let engine =
                                    DseEngine::new(memory, energy).with_space(space.clone());
                                let full = engine
                                    .search_layer(spec, &one_layer.layers[0], &profiles[0])
                                    .expect("every layer searches")
                                    .winner
                                    .cost;
                                let pruned = factored.price(spec, &memory, &energy);
                                let what = format!(
                                    "{} / {} / {} / tile {tile_factor}",
                                    one_layer.layers[0].name,
                                    spec.label,
                                    spec.dram.is_constrained()
                                );
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
