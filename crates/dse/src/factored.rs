//! The factored per-layer search unit, shared by the engine and the sweep.
//!
//! A candidate's cost splits into an SU part ([`SuCost`]: Eqs. 1, 2, the
//! compute side of Eq. 5 and the memory-invariant Eq. 4 terms), which
//! depends only on the layer and the spatial unrolling, and a traffic part
//! ([`LayerTraffic`]), which depends only on the layer, its tiling and the
//! memory/DRAM point.  A `FactoredLayer` holds one layer's traffic part
//! and one [`SuCost`] per spatial unrolling of its mapping space (every SU
//! repeats for each of the space's [tilings](SearchSpace::tilings)).
//! Pricing it at one memory/DRAM point prices the traffic once per tiling
//! and composes candidates from the two parts, in enumeration order.
//!
//! Two callers share it:
//!
//! * [`crate::DseEngine::search_layer`] prices one layer, composes every
//!   candidate, picks the min-EDP winner and the Pareto front, and
//!   materialises only those mappings;
//! * [`factor_network`] factors a whole network once per `(lanes, SU menu,
//!   bandwidth, bit-class)` sweep group, and [`FactoredNetworkSearch::price`]
//!   prices it per `(SRAM sizes, DRAM axes)` point into the searched winner
//!   totals only.  Factoring drops every SU part that an earlier part of its
//!   layer [covers](SuCost::covers) — no worse on compute-side cycles,
//!   compute, SRAM-read and register energy, and utilisation — because
//!   total cycles, energy and EDP are monotone in those fields under IEEE
//!   rounding, so a covered part can never hold the first min-EDP row
//!   under any memory/DRAM point.  The winners are summed in layer order,
//!   as [`crate::NetworkSearch`] aggregates them, so the totals are
//!   **bit-identical** to the `searched_*` totals of
//!   [`crate::DseEngine::search_network`] over the same inputs.
//!
//! The covering prune runs in two stages:
//!
//! 1. a **shape stage** that reads no profile drops every SU whose
//!    [`SuShape`] (utilisation, parallelism, input and weight reuse) an
//!    earlier surviving SU's covers.  Its survivors depend only on the
//!    mapping space, depthwise-ness and the layer's loop dimensions, so
//!    they are cached in a process-wide, single-flight
//!    `bitwave_store::MemoryTier` LRU and every later seed, network and
//!    compute group with that layer shape reuses them;
//! 2. the **part stage** prices the survivors with [`SuCost::of`] and drops
//!    those an earlier survivor covers.
//!
//! A part the shape stage drops is covered by a finite survivor, so the
//! kept list is exactly what the part stage alone keeps over every part; a
//! layer whose survivors price a non-finite field falls back to its full
//! list.  Of the 40 824 SU parts the 6 compute groups of a `small` sweep
//! enumerate, 8 489 pass the shape stage and 2 625 (about 6 %) are kept.

use crate::cost::{EvaluatedMapping, MappingCost};
use crate::error::{DseError, Result};
use crate::search::min_edp;
use crate::space::{Candidate, SearchSpace, SpaceDigest};
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{
    EnergyModel, LayerSparsityProfile, LayerTraffic, PricedTraffic, SuCost, SuShape,
};
use bitwave_dataflow::activity::TemporalMapping;
use bitwave_dataflow::mapping::select_spatial_unrolling;
use bitwave_dataflow::{MemoryHierarchy, SpatialUnrolling};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::NetworkSpec;
use bitwave_store::{FillOrigin, MemoryTier, MemoryTierConfig, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

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
        let sus = candidates.chunks(tilings).map(|block| {
            let su = &block[0].su;
            (su, su.utilization_for(layer))
        });
        Self::of_sus(accel, layer, profile, energy, sus)
    }

    /// Factors `layer` over the given spatial unrollings, each at its
    /// utilisation on the layer.
    fn of_sus<'a>(
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
        energy: &EnergyModel,
        sus: impl Iterator<Item = (&'a SpatialUnrolling, f64)>,
    ) -> Self {
        let sus = sus
            .map(|(su, utilization)| {
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

    /// Drops every SU part that an earlier kept part
    /// [covers](SuCost::covers), keeping the rest in enumeration order.
    /// Covering is transitive, so checking the kept parts only is enough.
    /// Afterwards the min-EDP row of [`Self::objectives`] is unchanged under
    /// every priced traffic, but enumeration indices no longer hold, so
    /// [`Self::mapping`] must not be used.
    fn drop_covered(&mut self) {
        let mut kept = 0;
        for i in 0..self.sus.len() {
            let (su, utilization) = self.sus[i];
            let covered = self.sus[..kept]
                .iter()
                .any(|(by, by_utilization)| by.covers(*by_utilization, &su, utilization));
            if !covered {
                self.sus[kept] = (su, utilization);
                kept += 1;
            }
        }
        self.sus.truncate(kept);
    }

    /// Prices the traffic part once per tiling at one memory/DRAM point
    /// into `priced` (cleared first).
    pub(crate) fn price_into(
        &self,
        accel: &AcceleratorSpec,
        tilings: &[TemporalMapping],
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
        priced: &mut Vec<PricedTraffic>,
    ) {
        priced.clear();
        priced.extend(
            tilings
                .iter()
                .map(|&temporal| self.traffic.price(accel, Some(temporal), memory, energy)),
        );
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

/// A whole network's search space, factored layer by layer, with every
/// covered SU part dropped.
#[derive(Debug)]
pub struct FactoredNetworkSearch {
    /// The layers in execution order.
    layers: Vec<FactoredLayer>,
    tilings: Vec<TemporalMapping>,
    /// SU parts enumerated over all layers, before covered ones were dropped.
    su_parts_enumerated: usize,
    /// SU parts priced with [`SuCost::of`] over all layers.
    su_parts_shape_kept: usize,
}

impl FactoredNetworkSearch {
    /// Prices every layer against `(memory, DRAM axes of accel)` and sums
    /// the winners in layer order — bit-identical to the `searched_*`
    /// totals of [`crate::DseEngine::search_network`] over the same
    /// accelerator, space, memory and energy tables.
    ///
    /// Only the SU parts that no earlier part [covers](SuCost::covers) are
    /// composed with the priced tilings: a covered part is no better on
    /// compute-side cycles and every memory-invariant energy term and no
    /// better utilised, and the total cycles, energy and EDP are monotone
    /// in those fields under IEEE rounding, so its rows can never be the
    /// first min-EDP row the full scan picks.  The winners, and so the
    /// totals, are the full scan's bit for bit.
    pub fn price(
        &self,
        accel: &AcceleratorSpec,
        memory: &MemoryHierarchy,
        energy: &EnergyModel,
    ) -> SearchedTotals {
        REPRICED.fetch_add(self.layers.len() as u64, Ordering::Relaxed);
        let mut cycles = 0.0;
        let mut energy_pj = 0.0;
        let mut priced = Vec::with_capacity(self.tilings.len());
        for layer in &self.layers {
            layer.price_into(accel, &self.tilings, memory, energy, &mut priced);
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

    /// SU parts the mapping space enumerated, summed over the layers.
    pub fn su_parts_enumerated(&self) -> usize {
        self.su_parts_enumerated
    }

    /// SU parts the shape stage kept, summed over the layers: those priced
    /// with [`SuCost::of`] (every part of a layer that fell back to its
    /// full list).
    pub fn su_parts_shape_kept(&self) -> usize {
        self.su_parts_shape_kept
    }

    /// SU parts [`Self::price`] composes, summed over the layers: those no
    /// earlier part of their layer covers.
    pub fn su_parts_kept(&self) -> usize {
        self.layers.iter().map(|layer| layer.sus.len()).sum()
    }

    /// The kept SU parts of each layer, in layer order, each with its
    /// utilisation, in enumeration order.
    pub fn kept_parts(&self) -> impl Iterator<Item = &[(SuCost, f64)]> {
        self.layers.iter().map(|layer| layer.sus.as_slice())
    }
}

/// Process-wide LRU of shape-stage survivors, keyed by the space digest,
/// depthwise-ness and the layer's loop dimensions: every `(block index,
/// utilisation)` of the layer's mapping space that no earlier survivor's
/// [`SuShape`] covers.
static SHAPES: LazyLock<MemoryTier<Vec<(usize, f64)>>> =
    LazyLock::new(|| MemoryTier::new(MemoryTierConfig::entries(1024)));

/// The shape-survivor cache's counters (for tests and benches).
pub fn shape_cache_stats() -> &'static StoreStats {
    SHAPES.stats()
}

/// Drops every cached shape-survivor list — benches use this to measure
/// cold factoring without a fresh process.
pub fn clear_shape_cache() {
    SHAPES.clear();
}

/// Stage 1 of the covering prune: the `(block index, utilisation)` of every
/// spatial unrolling of `candidates` (blocks of `tilings`) whose
/// [`SuShape`] on `layer` no earlier survivor's covers.  It reads no
/// profile, so it is cached per `(space, depthwise, loop dims)` for every
/// later network, seed and compute group with that layer shape.
fn shape_survivors(
    space: Option<SpaceDigest>,
    candidates: &[Candidate],
    tilings: usize,
    layer: &LayerSpec,
) -> Arc<Vec<(usize, f64)>> {
    let walk = || {
        let mut kept: Vec<(usize, f64, SuShape)> = Vec::new();
        for (index, block) in candidates.chunks(tilings).enumerate() {
            let utilization = block[0].su.utilization_for(layer);
            let shape = SuShape::of(&block[0].su, utilization);
            if !kept.iter().any(|(_, _, by)| by.covers(&shape)) {
                kept.push((index, utilization, shape));
            }
        }
        kept.into_iter()
            .map(|(index, utilization, _)| (index, utilization))
            .collect()
    };
    let Some(space) = space else {
        return Arc::new(walk());
    };
    let d = &layer.dims;
    let dims = [d.b, d.k, d.c, d.oy, d.ox, d.fy, d.fx].map(|v| v as u64);
    SHAPES
        .get_or_fill(
            space.with(layer.kind.is_depthwise(), &dims),
            || Ok::<_, String>((walk(), 0, FillOrigin::Computed)),
            |e| e,
        )
        .map_or_else(|_| Arc::new(walk()), |(survivors, _)| survivors)
}

/// Factors a whole network for `accel`: per layer, one [`SuCost`] per
/// spatial unrolling of the mapping space, less those an earlier part of
/// the layer [covers](SuCost::covers).  Only the SUs that pass the cached
/// shape stage are priced (see the module docs).  The expensive half of a
/// sweep point's evaluation — reusable across every point that shares this
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
    // depthwise-ness: one lookup each for plain and depthwise layers, under
    // one digest of the space key.
    let digest = space.digest(accel);
    let mut spaces: [Option<Arc<Vec<Candidate>>>; 2] = [None, None];
    let mut layers = Vec::with_capacity(network.layers.len());
    let (mut su_parts_enumerated, mut su_parts_shape_kept) = (0, 0);
    for (layer, profile) in network.layers.iter().zip(profiles) {
        // Same error order as the engine: the heuristic SU pick
        // (which validates the layer dims) comes first.
        select_spatial_unrolling(layer, &accel.su_set)?;
        let candidates = spaces[usize::from(layer.kind.is_depthwise())]
            .get_or_insert_with(|| space.enumerate_keyed(digest, accel, layer));
        if candidates.is_empty() {
            return Err(DseError::EmptySpace {
                layer: layer.name.clone(),
            });
        }
        su_parts_enumerated += candidates.len() / tilings.len();
        let survivors = shape_survivors(digest, candidates, tilings.len(), layer);
        let sus = survivors
            .iter()
            .map(|&(index, utilization)| (&candidates[index * tilings.len()].su, utilization));
        let mut factored = FactoredLayer::of_sus(accel, layer, profile, energy, sus);
        // A dropped part is covered by the survivor whose shape covers it
        // only if that survivor's fields are finite; otherwise price all.
        if !factored.sus.iter().all(|(su, _)| su.can_cover()) {
            factored = FactoredLayer::of(accel, layer, profile, energy, candidates, tilings.len());
        }
        su_parts_shape_kept += factored.sus.len();
        factored.drop_covered();
        layers.push(factored);
    }
    Ok(FactoredNetworkSearch {
        layers,
        tilings,
        su_parts_enumerated,
        su_parts_shape_kept,
    })
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
                    let full = engine.search_network(&accel, net, &profiles).unwrap();
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
    fn dropping_covered_parts_keeps_a_better_utilised_tie_and_its_win() {
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let energy = EnergyModel::finfet_16nm();
        let net = resnet18();
        let layer = &net.layers[1];
        let profile = &profiles_for(&net)[1];
        let su = &accel.su_set.options[0];
        let part = SuCost::of(&accel, layer, su, su.parallelism() as f64, profile, &energy);
        let mut factored = FactoredLayer {
            traffic: LayerTraffic::of(&accel, layer, profile),
            // The third part is covered by both earlier ones; the second
            // ties the first on every cost field at higher utilisation.
            sus: vec![(part, 0.5), (part, 1.0), (part, 0.5)],
        };
        let tilings = SearchSpace::default().tilings();
        let mut priced = Vec::new();
        factored.price_into(
            &accel,
            &tilings,
            &MemoryHierarchy::bitwave_default(),
            &energy,
            &mut priced,
        );
        let (full_index, full_row) = min_edp(factored.objectives(&priced)).unwrap();
        assert_eq!(
            full_index / tilings.len(),
            1,
            "the better-utilised tie wins"
        );
        factored.drop_covered();
        assert_eq!(factored.sus, vec![(part, 0.5), (part, 1.0)]);
        let (_, pruned_row) = min_edp(factored.objectives(&priced)).unwrap();
        assert_eq!(pruned_row.map(f64::to_bits), full_row.map(f64::to_bits));
        assert_eq!(pruned_row[3], 1.0);
    }

    #[test]
    fn factoring_counts_the_enumerated_and_the_kept_parts() {
        let net = resnet18();
        let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let space = SearchSpace::default();
        let factored = factor_network(
            &accel,
            &net,
            &profiles_for(&net),
            &EnergyModel::finfet_16nm(),
            &space,
        )
        .unwrap();
        let enumerated: usize = net
            .layers
            .iter()
            .map(|layer| space.enumerate(&accel, layer).len() / space.tilings().len())
            .sum();
        assert_eq!(factored.su_parts_enumerated(), enumerated);
        assert!(factored.su_parts_kept() >= net.layers.len());
        assert!(factored.su_parts_kept() <= factored.su_parts_shape_kept());
        assert!(factored.su_parts_shape_kept() < enumerated);
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
