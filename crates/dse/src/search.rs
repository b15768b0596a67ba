//! The per-layer search: enumerate → factor → price → Pareto-prune.

use crate::cost::{evaluate_decision, EvaluatedMapping};
use crate::error::{DseError, Result};
use crate::factored::FactoredLayer;
use crate::space::SearchSpace;
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_core::digest::Digest;
use bitwave_core::pareto::{pareto_front_indices, Direction};
use bitwave_dataflow::mapping::{select_spatial_unrolling, validate_layer_dims};
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::layer::{LayerKind, LayerSpec, LoopDims};
use bitwave_dnn::models::NetworkSpec;
use rayon::prelude::*;
use serde::Serialize;

/// Version stamp mixed into every search key.  Bump when the meaning of a
/// key field or the search semantics change, so results of different
/// searches never share a key.
pub const DSE_SCHEMA_VERSION: u32 = 1;

/// The four pruning objectives: minimise cycles, energy and EDP, maximise
/// utilisation.
const OBJECTIVES: [Direction; 4] = [
    Direction::Minimize,
    Direction::Minimize,
    Direction::Minimize,
    Direction::Maximize,
];

/// The min-EDP winner order over `[cycles, energy, edp, utilization]` rows:
/// `row` replaces the current `best` on strictly lower EDP, or on equal EDP
/// at higher utilisation, so a full tie keeps the earlier candidate (SU-set
/// seeds precede generated shapes).
fn improves_on(row: &[f64; 4], best: &[f64; 4]) -> bool {
    row[2] < best[2] || (row[2] == best[2] && row[3] > best[3])
}

/// The min-EDP winner of `rows` under [`improves_on`], with its index;
/// `None` when there are no rows.  Shared by the engine's search and the
/// factored sweep's scan, so both pick the same winner.
pub(crate) fn min_edp(rows: impl Iterator<Item = [f64; 4]>) -> Option<(usize, [f64; 4])> {
    rows.enumerate().reduce(|best, candidate| {
        if improves_on(&candidate.1, &best.1) {
            candidate
        } else {
            best
        }
    })
}

/// Everything a layer's search outcome depends on — and nothing it does not
/// (notably not the layer's *name*, so identically shaped layers of any
/// model get one key).  Owned fields because the vendored serde derive does
/// not handle lifetime-generic types.
#[derive(Serialize)]
struct SearchKey {
    schema: u32,
    accelerator: AcceleratorSpec,
    dims: LoopDims,
    kind: LayerKind,
    /// Digest of the layer's sparsity profile (the profile itself is large).
    profile: String,
    memory: MemoryHierarchy,
    energy: EnergyModel,
    space: SearchSpace,
}

/// Builds the content digest of one layer's search inputs.
fn layer_search_key(
    accel: &AcceleratorSpec,
    dims: LoopDims,
    kind: LayerKind,
    profile_hex: String,
    memory: &MemoryHierarchy,
    energy: &EnergyModel,
    space: &SearchSpace,
) -> Result<Digest> {
    Ok(Digest::of_value(&SearchKey {
        schema: DSE_SCHEMA_VERSION,
        accelerator: accel.clone(),
        dims,
        kind,
        profile: profile_hex,
        memory: *memory,
        energy: *energy,
        space: space.clone(),
    })?)
}

/// Outcome of one layer's design-space search.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerSearchResult {
    /// Hex content digest of the search inputs (accelerator, layer shape,
    /// sparsity-profile digest, cost tables and search space).  Equal inputs
    /// give equal keys across layer names and models; the key addresses no
    /// cache.
    pub key: String,
    /// Number of candidate mappings evaluated.
    pub candidates: usize,
    /// The minimum-EDP mapping (ties broken towards higher utilisation,
    /// then enumeration order — SU-set seeds first, so a tie keeps the
    /// hardware's own named SU).
    pub winner: EvaluatedMapping,
    /// The multi-objective Pareto front (cycles/energy/EDP/utilisation),
    /// sorted by ascending EDP, deduplicated on exact objective ties and
    /// capped at the space's `max_front`.
    pub front: Vec<EvaluatedMapping>,
    /// Full front size before deduplication and capping.
    pub front_total: usize,
}

/// One layer of a network-level search.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SearchedLayer {
    /// Layer name.
    pub layer: String,
    /// The Fig. 9 heuristic baseline, evaluated on the same cost stack.
    pub heuristic: EvaluatedMapping,
    /// The search outcome.
    pub search: LayerSearchResult,
}

/// Aggregated outcome of searching every layer of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSearch {
    /// Accelerator label.
    pub accelerator: String,
    /// Per-layer outcomes in execution order.
    pub layers: Vec<SearchedLayer>,
    /// Σ total cycles under the heuristic mappings.
    pub heuristic_total_cycles: f64,
    /// Σ energy (pJ) under the heuristic mappings.
    pub heuristic_energy_pj: f64,
    /// Network EDP under the heuristic mappings.
    pub heuristic_edp: f64,
    /// Σ total cycles under the searched winners.
    pub searched_total_cycles: f64,
    /// Σ energy (pJ) under the searched winners.
    pub searched_energy_pj: f64,
    /// Network EDP under the searched winners.
    pub searched_edp: f64,
    /// How many searched winners are pinned at the DRAM side of the
    /// roofline (`dram_cycles == total_cycles`).  Always 0 under an
    /// unconstrained DRAM tier, where the additive Eq. 5 keeps
    /// `dram < total` strictly.
    pub memory_bound_layers: usize,
}

/// Hand-written so `memory_bound_layers` is omitted while 0 — every search
/// response produced under the unconstrained default keeps its exact bytes
/// (the serve tier caches and replays them byte-identically).
impl Serialize for NetworkSearch {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("accelerator".to_string(), self.accelerator.to_value()),
            ("layers".to_string(), self.layers.to_value()),
            (
                "heuristic_total_cycles".to_string(),
                self.heuristic_total_cycles.to_value(),
            ),
            (
                "heuristic_energy_pj".to_string(),
                self.heuristic_energy_pj.to_value(),
            ),
            ("heuristic_edp".to_string(), self.heuristic_edp.to_value()),
            (
                "searched_total_cycles".to_string(),
                self.searched_total_cycles.to_value(),
            ),
            (
                "searched_energy_pj".to_string(),
                self.searched_energy_pj.to_value(),
            ),
            ("searched_edp".to_string(), self.searched_edp.to_value()),
        ];
        if self.memory_bound_layers > 0 {
            fields.push((
                "memory_bound_layers".to_string(),
                self.memory_bound_layers.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl NetworkSearch {
    /// Heuristic EDP over searched EDP (≥ 1 when the search wins).
    ///
    /// Network EDP is the product `(Σ cycles) × (Σ energy)`.  Per-layer
    /// winner selection guarantees every *layer's* EDP is ≤ its heuristic
    /// counterpart, which bounds the per-layer EDP *sum* but not this
    /// product in full generality (a cycles↔energy trade on one layer can
    /// inflate it).  On the benchmark models the gain is comfortably > 1
    /// and `bench_dse` gates it; treat it as an empirical metric, not an
    /// invariant, on arbitrary networks.
    pub fn edp_gain(&self) -> f64 {
        if self.searched_edp > 0.0 {
            self.heuristic_edp / self.searched_edp
        } else {
            1.0
        }
    }

    pub(crate) fn aggregate(accelerator: String, layers: Vec<SearchedLayer>) -> Self {
        let mut h_cycles = 0.0;
        let mut h_energy = 0.0;
        let mut s_cycles = 0.0;
        let mut s_energy = 0.0;
        let mut memory_bound = 0usize;
        for layer in &layers {
            h_cycles += layer.heuristic.cost.total_cycles;
            h_energy += layer.heuristic.cost.energy_pj;
            let winner = &layer.search.winner.cost;
            s_cycles += winner.total_cycles;
            s_energy += winner.energy_pj;
            // Only a constrained roofline can pin the total at the DRAM
            // side; the unconstrained additive model keeps dram < total.
            if winner.total_cycles > 0.0
                && winner.dram_cycles >= winner.total_cycles
                && winner.dram_cycles > winner.compute_cycles
            {
                memory_bound += 1;
            }
        }
        Self {
            accelerator,
            layers,
            heuristic_total_cycles: h_cycles,
            heuristic_energy_pj: h_energy,
            heuristic_edp: h_cycles * h_energy,
            searched_total_cycles: s_cycles,
            searched_energy_pj: s_energy,
            searched_edp: s_cycles * s_energy,
            memory_bound_layers: memory_bound,
        }
    }
}

/// The design-space exploration engine: a search space and the cost
/// tables.
#[derive(Debug, Clone)]
pub struct DseEngine {
    space: SearchSpace,
    memory: MemoryHierarchy,
    energy: EnergyModel,
}

impl DseEngine {
    /// Creates an engine with the default search space.
    pub fn new(memory: MemoryHierarchy, energy: EnergyModel) -> Self {
        Self {
            space: SearchSpace::default(),
            memory,
            energy,
        }
    }

    /// Overrides the search space (builder style).
    pub fn with_space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self
    }

    /// The engine's search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Evaluates the Fig. 9 heuristic choice for `layer` on the same cost
    /// stack the search uses (the baseline the ROADMAP gates compare
    /// against).
    ///
    /// # Errors
    ///
    /// Propagates [`DseError::Mapping`] for an empty SU set or degenerate
    /// layer.
    pub fn heuristic_mapping(
        &self,
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
    ) -> Result<EvaluatedMapping> {
        let decision = select_spatial_unrolling(layer, &accel.su_set)?;
        Ok(evaluate_decision(
            accel,
            layer,
            profile,
            &self.memory,
            &self.energy,
            &decision,
        ))
    }

    /// Searches one layer's mapping space: factors the layer (one traffic
    /// part, one SU part per spatial unrolling), prices the traffic once
    /// per tiling, composes every candidate, picks the minimum-EDP winner
    /// and extracts the Pareto front.  Only the winner and the front are
    /// materialised as [`EvaluatedMapping`]s.  Candidates are priced
    /// sequentially — layer-level parallelism comes from
    /// [`DseEngine::search_network`] (and the pipeline's per-layer rayon
    /// fan-out), which keeps the two levels from oversubscribing.
    ///
    /// # Errors
    ///
    /// [`DseError::Mapping`] for degenerate layers, [`DseError::Core`] when
    /// the search key fails to digest, [`DseError::EmptySpace`] when nothing
    /// can be enumerated.
    pub fn search_layer(
        &self,
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
    ) -> Result<LayerSearchResult> {
        validate_layer_dims(layer)?;
        let key = layer_search_key(
            accel,
            layer.dims,
            layer.kind,
            Digest::of_value(profile)?.to_hex(),
            &self.memory,
            &self.energy,
            &self.space,
        )?;
        let candidates = self.space.enumerate_shared(accel, layer);
        if candidates.is_empty() {
            return Err(DseError::EmptySpace {
                layer: layer.name.clone(),
            });
        }
        let tilings = self.space.tilings();
        let factored = FactoredLayer::of(
            accel,
            layer,
            profile,
            &self.energy,
            &candidates,
            tilings.len(),
        );
        let priced = factored.price(accel, &tilings, &self.memory, &self.energy);
        let objectives: Vec<[f64; 4]> = factored.objectives(&priced).collect();
        let (winner, _) =
            min_edp(objectives.iter().copied()).expect("the mapping space is non-empty");

        // Multi-objective Pareto front, EDP-sorted, deduplicated, capped.
        let mut front_idx = pareto_front_indices(&objectives, &OBJECTIVES);
        let front_total = front_idx.len();
        front_idx.sort_by(|&a, &b| {
            objectives[a][2]
                .partial_cmp(&objectives[b][2])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        front_idx.dedup_by_key(|i| objectives[*i]);
        front_idx.truncate(self.space.max_front.max(1));
        let mapping = |i: usize| factored.mapping(i, &candidates[i], &priced);

        Ok(LayerSearchResult {
            key: key.to_hex(),
            candidates: candidates.len(),
            winner: mapping(winner),
            front: front_idx.into_iter().map(mapping).collect(),
            front_total,
        })
    }

    /// Searches every layer of a network with one rayon task per layer.
    /// Deterministic: the vendored rayon preserves index order and each
    /// layer's search is order-independent, so the result is bit-identical
    /// to searching the layers one after another (the naive oracle in
    /// `crates/dse/tests/oracle/` is that sequential reference).
    ///
    /// # Errors
    ///
    /// [`DseError::MisalignedProfiles`] unless `profiles` aligns with
    /// `spec.layers`; otherwise the first per-layer error.
    pub fn search_network(
        &self,
        accel: &AcceleratorSpec,
        spec: &NetworkSpec,
        profiles: &[LayerSparsityProfile],
    ) -> Result<NetworkSearch> {
        self.check_alignment(spec, profiles)?;
        let items: Vec<(&LayerSpec, &LayerSparsityProfile)> =
            spec.layers.iter().zip(profiles).collect();
        let layers: Vec<SearchedLayer> = items
            .par_iter()
            .map(|&(layer, profile)| self.search_one(accel, layer, profile))
            .collect::<Result<_>>()?;
        Ok(NetworkSearch::aggregate(accel.label.clone(), layers))
    }

    fn search_one(
        &self,
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
    ) -> Result<SearchedLayer> {
        let heuristic = self.heuristic_mapping(accel, layer, profile)?;
        let search = self.search_layer(accel, layer, profile)?;
        Ok(SearchedLayer {
            layer: layer.name.clone(),
            heuristic,
            search,
        })
    }

    fn check_alignment(&self, spec: &NetworkSpec, profiles: &[LayerSparsityProfile]) -> Result<()> {
        if spec.layers.len() != profiles.len() {
            return Err(DseError::MisalignedProfiles {
                layers: spec.layers.len(),
                profiles: profiles.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_accel::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dnn::models::{mobilenet_v2, resnet18};
    use bitwave_dnn::weights::generate_layer_sample;

    fn bitwave() -> AcceleratorSpec {
        AcceleratorSpec::bitwave(BitwaveOptimizations::all())
    }

    fn engine() -> DseEngine {
        DseEngine::new(
            MemoryHierarchy::bitwave_default(),
            EnergyModel::finfet_16nm(),
        )
    }

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
    fn searched_winner_never_loses_to_the_heuristic() {
        let net = resnet18();
        let profiles = profiles_for(&net);
        let engine = engine();
        let accel = bitwave();
        for (layer, profile) in net.layers.iter().zip(&profiles) {
            let heuristic = engine.heuristic_mapping(&accel, layer, profile).unwrap();
            let searched = engine.search_layer(&accel, layer, profile).unwrap();
            assert!(
                searched.winner.cost.edp <= heuristic.cost.edp * (1.0 + 1e-12),
                "{}: searched {} vs heuristic {}",
                layer.name,
                searched.winner.cost.edp,
                heuristic.cost.edp
            );
        }
    }

    #[test]
    fn front_is_mutually_non_dominating_and_contains_the_winner_cost() {
        use bitwave_core::pareto::ParetoPointN;
        let net = mobilenet_v2();
        let profiles = profiles_for(&net);
        let engine = engine();
        let accel = bitwave();
        let dw = net
            .layers
            .iter()
            .position(|l| l.kind.is_depthwise())
            .unwrap();
        let result = engine
            .search_layer(&accel, &net.layers[dw], &profiles[dw])
            .unwrap();
        assert!(!result.front.is_empty());
        assert!(result.front_total >= result.front.len());
        assert!(result.candidates > result.front.len());
        let points: Vec<ParetoPointN<4>> = result
            .front
            .iter()
            .map(|m| ParetoPointN::new(m.objectives(), m.label.clone()))
            .collect();
        for a in &points {
            for b in &points {
                assert!(!a.dominates(b, &OBJECTIVES));
            }
        }
        // The winner's EDP is the front's best EDP.
        assert_eq!(result.front[0].cost.edp, result.winner.cost.edp);
        // The front is EDP-sorted.
        assert!(result
            .front
            .windows(2)
            .all(|w| w[0].cost.edp <= w[1].cost.edp));
    }

    #[test]
    fn parallel_and_sequential_network_searches_are_identical() {
        let net = resnet18();
        let profiles = profiles_for(&net);
        let engine = engine();
        let accel = bitwave();
        let parallel = engine.search_network(&accel, &net, &profiles).unwrap();
        // The sequential reference: one layer after another, in order.
        let layers = net
            .layers
            .iter()
            .zip(&profiles)
            .map(|(layer, profile)| engine.search_one(&accel, layer, profile).unwrap())
            .collect();
        let sequential = NetworkSearch::aggregate(accel.label.clone(), layers);
        assert_eq!(parallel, sequential);
        let a = serde_json::to_string(&parallel).unwrap();
        let b = serde_json::to_string(&sequential).unwrap();
        assert_eq!(a, b, "serialized forms must be byte-identical");
        assert!(parallel.edp_gain() >= 1.0);
    }

    #[test]
    fn misaligned_profiles_are_a_typed_error() {
        let net = resnet18();
        let engine = engine();
        let err = engine.search_network(&bitwave(), &net, &[]).unwrap_err();
        assert!(matches!(err, DseError::MisalignedProfiles { .. }));
    }

    #[test]
    fn degenerate_layers_surface_the_mapping_error() {
        let net = resnet18();
        let profiles = profiles_for(&net);
        let mut layer = net.layers[0].clone();
        layer.dims.k = 0;
        let err = engine()
            .search_layer(&bitwave(), &layer, &profiles[0])
            .unwrap_err();
        assert!(matches!(err, DseError::Mapping(_)));
    }
}
