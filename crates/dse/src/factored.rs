//! The factored per-layer search unit, shared by the engine and the sweep.
//!
//! A candidate's cost splits into an SU part ([`SuCost`]: Eqs. 1, 2, the
//! compute side of Eq. 5 and the memory-invariant Eq. 4 terms), which
//! depends only on the layer and the spatial unrolling, and a traffic part
//! ([`LayerTraffic`]), which depends only on the layer, its tiling and the
//! memory/DRAM point.  A [`FactoredLayer`] holds one layer's traffic part
//! and one [`SuCost`] per spatial unrolling of its mapping space (every SU
//! repeats for each of the space's [tilings](SearchSpace::tilings)).
//! Pricing it at one memory/DRAM point prices the traffic once per tiling
//! and composes every candidate from the two parts, in enumeration order.
//!
//! Two callers share it:
//!
//! * [`crate::DseEngine::search_layer`] prices one layer, picks the min-EDP
//!   winner and the Pareto front, and materialises only those mappings;
//! * [`factor_network`] factors a whole network once per `(lanes, SU menu,
//!   bandwidth, bit-class)` sweep group, and [`FactoredNetworkSearch::price`]
//!   prices it per `(SRAM sizes, DRAM axes)` point into the searched winner
//!   totals only.  The winners are summed in layer order, as
//!   [`crate::NetworkSearch`] aggregates them, so the totals are
//!   **bit-identical** to the `searched_*` totals of
//!   [`crate::DseEngine::search_network_sequential`] over the same inputs.

use crate::cost::{EvaluatedMapping, MappingCost};
use crate::error::{DseError, Result};
use crate::search::min_edp;
use crate::space::{Candidate, SearchSpace};
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{EnergyModel, LayerSparsityProfile, LayerTraffic, PricedTraffic, SuCost};
use bitwave_dataflow::activity::TemporalMapping;
use bitwave_dataflow::mapping::select_spatial_unrolling;
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::NetworkSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static REPRICED: AtomicU64 = AtomicU64::new(0);

/// Number of layers the sweep priced from an already factored network
/// (the `bitwave_sweep_factored_repriced_total` metric).
pub fn factored_repriced_total() -> u64 {
    REPRICED.load(Ordering::Relaxed)
}

/// The searched totals of one network at one sweep point: what
/// [`crate::NetworkSearch`] reports as `searched_total_cycles`,
/// `searched_energy_pj` and `searched_edp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchedTotals {
    /// Σ total cycles under the searched winners.
    pub cycles: f64,
    /// Σ energy (pJ) under the searched winners.
    pub energy_pj: f64,
    /// Network EDP under the searched winners (`cycles × energy_pj`).
    pub edp: f64,
}

/// One layer: its traffic part and one SU part (with that SU's
/// utilisation) per spatial unrolling of its mapping space, in enumeration
/// order.
#[derive(Debug)]
pub(crate) struct FactoredLayer {
    traffic: LayerTraffic,
    sus: Vec<(SuCost, f64)>,
}

impl FactoredLayer {
    /// Factors `layer` over its non-empty mapping space `candidates`, a
    /// sequence of blocks of `tilings` candidates sharing one spatial
    /// unrolling.
    pub(crate) fn of(
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
        energy: &EnergyModel,
        candidates: &[Candidate],
        tilings: usize,
    ) -> Self {
        let sus = candidates
            .chunks(tilings)
            .map(|block| {
                let su = &block[0].su;
                let utilization = su.utilization_for(layer);
                let lanes = su.parallelism() as f64 * utilization;
                let cost = SuCost::of(accel, layer, su, lanes, profile, energy);
                (cost, utilization)
            })
            .collect();
        Self {
            traffic: LayerTraffic::of(accel, layer, profile),
            sus,
        }
    }

    /// Prices the traffic part once per tiling at one memory/DRAM point.
    pub(crate) fn price(
        &self,
        accel: &AcceleratorSpec,
        tilings: &[TemporalMapping],
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
    ) -> Vec<PricedTraffic> {
        tilings
            .iter()
            .map(|&temporal| self.traffic.price(accel, Some(temporal), memory, energy))
            .collect()
    }

    /// Every candidate's `[total cycles, energy, EDP, utilisation]` row in
    /// enumeration order (each SU crossed with every priced tiling).
    pub(crate) fn objectives<'a>(
        &'a self,
        priced: &'a [PricedTraffic],
    ) -> impl Iterator<Item = [f64; 4]> + 'a {
        self.sus.iter().flat_map(move |(su, utilization)| {
            priced.iter().map(move |traffic| {
                let cycles = su.total_cycles(traffic);
                let energy_pj = su.energy(traffic).total_pj();
                [cycles, energy_pj, cycles * energy_pj, *utilization]
            })
        })
    }

    /// Materialises enumerated candidate `index`, composing its cost with
    /// [`SuCost::reprice`].
    pub(crate) fn mapping(
        &self,
        index: usize,
        candidate: &Candidate,
        priced: &[PricedTraffic],
    ) -> EvaluatedMapping {
        let (su, utilization) = &self.sus[index / priced.len()];
        EvaluatedMapping {
            label: candidate.label.clone(),
            su: candidate.su,
            temporal: Some(candidate.temporal),
            utilization: *utilization,
            effective_macs_per_cycle: candidate.su.parallelism() as f64 * utilization,
            cost: MappingCost::of(&su.reprice(&priced[index % priced.len()])),
        }
    }
}

/// A whole network's search space, factored layer by layer.
#[derive(Debug)]
pub struct FactoredNetworkSearch {
    /// The layers in execution order.
    layers: Vec<FactoredLayer>,
    tilings: Vec<TemporalMapping>,
}

impl FactoredNetworkSearch {
    /// Prices every layer against `(memory, DRAM axes of accel)` and sums
    /// the winners in layer order — bit-identical to the `searched_*`
    /// totals of [`crate::DseEngine::search_network_sequential`] over the
    /// same accelerator, space, memory and energy tables.
    pub fn price(
        &self,
        accel: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
    ) -> SearchedTotals {
        REPRICED.fetch_add(self.layers.len() as u64, Ordering::Relaxed);
        let mut cycles = 0.0;
        let mut energy_pj = 0.0;
        for layer in &self.layers {
            let priced = layer.price(accel, &self.tilings, memory, energy);
            let (_, best) = min_edp(layer.objectives(&priced))
                .expect("factored layers hold at least one candidate");
            cycles += best[0];
            energy_pj += best[1];
        }
        SearchedTotals {
            cycles,
            energy_pj,
            edp: cycles * energy_pj,
        }
    }
}

/// Factors a whole network for `accel`: per layer, one [`SuCost`] per
/// spatial unrolling of the mapping space.  The expensive half of a sweep
/// point's evaluation — reusable across every point that shares this
/// accelerator's compute-side configuration.
///
/// # Errors
///
/// [`DseError::MisalignedProfiles`] unless `profiles` aligns with
/// `network.layers`; otherwise the first per-layer error, in the same order
/// the engine reports them ([`DseError::Mapping`] from the
/// heuristic pick, [`DseError::EmptySpace`] from an empty enumeration).
pub fn factor_network(
    accel: &AcceleratorSpec,
    network: &NetworkSpec,
    profiles: &[LayerSparsityProfile],
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Result<FactoredNetworkSearch> {
    if network.layers.len() != profiles.len() {
        return Err(DseError::MisalignedProfiles {
            layers: network.layers.len(),
            profiles: profiles.len(),
        });
    }
    let tilings = space.tilings();
    // The mapping space depends on the layer only through its
    // depthwise-ness: one lookup each for plain and depthwise layers.
    let mut spaces: [Option<Arc<Vec<Candidate>>>; 2] = [None, None];
    let mut layers = Vec::with_capacity(network.layers.len());
    for (layer, profile) in network.layers.iter().zip(profiles) {
        // Same error order as the engine: the heuristic SU pick
        // (which validates the layer dims) comes first.
        select_spatial_unrolling(layer, &accel.su_set)?;
        let candidates = spaces[usize::from(layer.kind.is_depthwise())]
            .get_or_insert_with(|| space.enumerate_shared(accel, layer));
        if candidates.is_empty() {
            return Err(DseError::EmptySpace {
                layer: layer.name.clone(),
            });
        }
        layers.push(FactoredLayer::of(
            accel,
            layer,
            profile,
            energy,
            candidates,
            tilings.len(),
        ));
    }
    Ok(FactoredNetworkSearch { layers, tilings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DseEngine;
    use bitwave_accel::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dnn::models::{mobilenet_v2, resnet18};
    use bitwave_dnn::weights::generate_layer_sample;

    fn profiles_for(net: &NetworkSpec) -> Vec<LayerSparsityProfile> {
        net.layers
            .iter()
            .map(|l| {
                let w = generate_layer_sample(l, 11, 4_000);
                LayerSparsityProfile::from_weights(
                    &w,
                    l.expected_activation_sparsity(),
                    GroupSize::G16,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn priced_totals_equal_the_searched_totals_bit_for_bit() {
        let mut resnet = resnet18();
        resnet.layers.truncate(6);
        let mut mobilenet = mobilenet_v2();
        mobilenet.layers.truncate(6);
        let energy = EnergyModel::finfet_16nm();
        let mut throttled = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        throttled.dram = bitwave_dataflow::DramSpec::constrained(32);
        let space = SearchSpace {
            tile_factors: vec![1, 4],
            ..SearchSpace::default()
        };
        for accel in [
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            throttled,
        ] {
            for net in [&resnet, &mobilenet] {
                let profiles = profiles_for(net);
                let factored = factor_network(&accel, net, &profiles, &energy, &space).unwrap();
                // Both SRAM-fit regimes share one factoring.
                for memory in [
                    MemoryHierarchy::bitwave_default(),
                    MemoryHierarchy {
                        weight_sram_bytes: 16 * 1024,
                        activation_sram_bytes: 16 * 1024,
                        ..MemoryHierarchy::bitwave_default()
                    },
                ] {
                    let engine = DseEngine::new(memory, energy).with_space(space.clone());
                    let full = engine
                        .search_network_sequential(&accel, net, &profiles)
                        .unwrap();
                    let priced = factored.price(&accel, &memory, &energy);
                    assert_eq!(
                        priced.cycles.to_bits(),
                        full.searched_total_cycles.to_bits(),
                        "{}",
                        net.name
                    );
                    assert_eq!(
                        priced.energy_pj.to_bits(),
                        full.searched_energy_pj.to_bits()
                    );
                    assert_eq!(priced.edp.to_bits(), full.searched_edp.to_bits());
                }
            }
        }
        assert!(factored_repriced_total() >= 2);
    }

    #[test]
    fn misaligned_profiles_are_the_same_typed_error() {
        let net = resnet18();
        let err = factor_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &[],
            &EnergyModel::finfet_16nm(),
            &SearchSpace::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DseError::MisalignedProfiles { .. }));
    }
}
