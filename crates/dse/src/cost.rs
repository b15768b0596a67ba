//! Mapping costs on the existing analytical cost stack.
//!
//! Every mapping is costed with the same models the pipeline's simulate
//! stage uses: `bitwave-dataflow` utilisation and activity counts
//! (honouring an explicit temporal mapping), and the `bitwave-accel`
//! Eq. 1–5 performance/energy model with the layer's sparsity profile,
//! composed from its SU part and its priced traffic part
//! ([`bitwave_accel::SuCost::reprice`]).  Because the search and the
//! pipeline share one cost function, a searched winner's predicted cost is
//! exactly what a `MappingPolicy::Searched` pipeline run will report.

use bitwave_accel::model::{evaluate_layer_with_mapping, RepricedLayerCost};
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_dataflow::activity::TemporalMapping;
use bitwave_dataflow::mapping::MappingDecision;
use bitwave_dataflow::su::SpatialUnrolling;
use bitwave_dataflow::MemoryHierarchy;
use serde::Serialize;

/// The multi-objective cost of one candidate mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MappingCost {
    /// Compute cycles (Eq. 2).
    pub compute_cycles: f64,
    /// Non-hideable DRAM cycles.
    pub dram_cycles: f64,
    /// Total latency in cycles (Eq. 5).
    pub total_cycles: f64,
    /// Total energy in picojoules (Eq. 4).
    pub energy_pj: f64,
    /// Energy-delay product (`total_cycles × energy_pj`) — the primary
    /// selection objective.
    pub edp: f64,
}

/// A candidate mapping together with its evaluated cost.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvaluatedMapping {
    /// Human-readable shape descriptor.
    pub label: String,
    /// The spatial unrolling.
    pub su: SpatialUnrolling,
    /// The explicit temporal mapping; `None` means the activity model's
    /// automatic cheapest-order choice (heuristic decisions).
    pub temporal: Option<TemporalMapping>,
    /// PE-array utilisation (layer-kind aware).
    pub utilization: f64,
    /// Effective MAC lanes per cycle.
    pub effective_macs_per_cycle: f64,
    /// The evaluated cost.
    pub cost: MappingCost,
}

impl MappingCost {
    /// The cost of one composed Eq. 1–5 outcome.
    pub(crate) fn of(cost: &RepricedLayerCost) -> Self {
        let energy_pj = cost.energy.total_pj();
        Self {
            compute_cycles: cost.compute_cycles,
            dram_cycles: cost.dram_cycles,
            total_cycles: cost.total_cycles,
            energy_pj,
            edp: cost.total_cycles * energy_pj,
        }
    }
}

impl EvaluatedMapping {
    /// Materialises the pipeline-facing [`MappingDecision`] for a layer.
    pub fn to_decision(&self, layer: &str) -> MappingDecision {
        MappingDecision {
            layer: layer.to_string(),
            su: self.su,
            label: self.label.clone(),
            temporal: self.temporal,
            utilization: self.utilization,
            effective_macs_per_cycle: self.effective_macs_per_cycle,
        }
    }

    /// The four pruning objectives in [`crate::search`] order:
    /// `[total_cycles, energy_pj, edp, utilization]`.
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.cost.total_cycles,
            self.cost.energy_pj,
            self.cost.edp,
            self.utilization,
        ]
    }
}

/// Evaluates one mapping decision for `layer` on `accel` and wraps the
/// result — the heuristic baseline's cost.
pub fn evaluate_decision(
    accel: &AcceleratorSpec,
    layer: &bitwave_dnn::layer::LayerSpec,
    profile: &LayerSparsityProfile,
    memory: &MemoryHierarchy,
    energy: &EnergyModel,
    decision: &MappingDecision,
) -> EvaluatedMapping {
    let result = evaluate_layer_with_mapping(accel, layer, decision, profile, memory, energy);
    let energy_pj = result.energy.total_pj();
    EvaluatedMapping {
        label: decision.label.clone(),
        su: decision.su,
        temporal: decision.temporal,
        utilization: decision.utilization,
        effective_macs_per_cycle: decision.effective_macs_per_cycle,
        cost: MappingCost {
            compute_cycles: result.compute_cycles,
            dram_cycles: result.dram_cycles,
            total_cycles: result.total_cycles,
            energy_pj,
            edp: result.total_cycles * energy_pj,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_accel::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dataflow::activity::TilingOrder;
    use bitwave_dataflow::mapping::select_spatial_unrolling;
    use bitwave_dnn::models::resnet18;
    use bitwave_dnn::weights::generate_layer_sample;

    /// The decision of `su` under an explicit `temporal` mapping, with the
    /// utilisation and lanes an enumerated candidate gets.
    fn explicit_decision(
        layer: &bitwave_dnn::layer::LayerSpec,
        su: SpatialUnrolling,
        label: &str,
        temporal: TemporalMapping,
    ) -> MappingDecision {
        let utilization = su.utilization_for(layer);
        MappingDecision {
            layer: String::new(),
            su,
            label: label.to_string(),
            temporal: Some(temporal),
            utilization,
            effective_macs_per_cycle: su.parallelism() as f64 * utilization,
        }
    }

    fn profile_for(layer: &bitwave_dnn::layer::LayerSpec) -> LayerSparsityProfile {
        let w = generate_layer_sample(layer, 7, 8_000);
        LayerSparsityProfile::from_weights(&w, layer.expected_activation_sparsity(), GroupSize::G16)
            .unwrap()
    }

    #[test]
    fn explicit_natural_tiling_matches_the_auto_choice() {
        // Evaluating the heuristic SU with both explicit natural tilings
        // must bracket the automatic choice: the better of the two explicit
        // orders equals the auto-tiled cost.
        let net = resnet18();
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let memory = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        for layer in net.layers.iter().take(6) {
            let profile = profile_for(layer);
            let auto = {
                let d = select_spatial_unrolling(layer, &accel.su_set).unwrap();
                evaluate_decision(&accel, layer, &profile, &memory, &energy, &d)
            };
            let explicit: Vec<EvaluatedMapping> =
                [TilingOrder::WeightOuter, TilingOrder::ActivationOuter]
                    .into_iter()
                    .map(|order| {
                        let temporal = TemporalMapping {
                            order,
                            tile_factor: 1,
                        };
                        let decision = explicit_decision(layer, auto.su, &auto.label, temporal);
                        evaluate_decision(&accel, layer, &profile, &memory, &energy, &decision)
                    })
                    .collect();
            let best = explicit
                .iter()
                .map(|e| e.cost.total_cycles)
                .fold(f64::INFINITY, f64::min);
            assert!(
                (best - auto.cost.total_cycles).abs() <= 1e-9 * auto.cost.total_cycles,
                "{}: explicit best {best} vs auto {}",
                layer.name,
                auto.cost.total_cycles
            );
        }
    }

    #[test]
    fn decision_roundtrip_keeps_shape_and_temporal() {
        let net = resnet18();
        let layer = &net.layers[0];
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let profile = profile_for(layer);
        let temporal = TemporalMapping {
            order: TilingOrder::ActivationOuter,
            tile_factor: 2,
        };
        let su = bitwave_dataflow::su::bitwave_su::SU2;
        let evaluated = evaluate_decision(
            &accel,
            layer,
            &profile,
            &MemoryHierarchy::bitwave_default(),
            &EnergyModel::finfet_16nm(),
            &explicit_decision(layer, su, "SU2", temporal),
        );
        assert!(evaluated.cost.edp > 0.0);
        assert_eq!(
            evaluated.cost.edp,
            evaluated.cost.total_cycles * evaluated.cost.energy_pj
        );
        let decision = evaluated.to_decision("layer0");
        assert_eq!(decision.layer, "layer0");
        assert_eq!(decision.su, su);
        assert_eq!(decision.temporal, Some(temporal));
        assert_eq!(decision.label, "SU2");
        assert_eq!(evaluated.objectives()[2], evaluated.cost.edp);
    }
}
