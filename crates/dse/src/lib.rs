//! # bitwave-dse
//!
//! Layer-adaptive dataflow **design-space exploration** for the BitWave
//! (HPCA 2024) reproduction.
//!
//! BitWave's reported gains rest on more than Bit-Column-Serial compression:
//! the paper selects a spatial unrolling *per layer* with an offline
//! ZigZag-style search (Section IV-C).  The repository's map stage
//! historically approximated that search with the one-shot Fig. 9 heuristic
//! over the fixed Table I menu; this crate implements the search itself:
//!
//! * [`space`] — deterministic enumeration of candidate mappings: power-of-
//!   two `Cu × OXu × Ku` factorizations within the PE-array lane budget
//!   (plus `Gu × OXu` shapes for depthwise layers), crossed with tiling loop
//!   orders and tile-size factors, seeded with the accelerator's own SU set
//!   so the search can never lose to the heuristic.
//! * [`cost`] — mapping costs on the **existing** cost stack:
//!   `bitwave-dataflow` utilisation + activity counts and the
//!   `bitwave-accel` Eq. 1–5 performance/energy model driven by the layer's
//!   sparsity profile.  Searched winners therefore predict exactly what a
//!   `MappingPolicy::Searched` pipeline run reports.
//! * [`factored`] — the one per-layer search unit: a layer's traffic part
//!   and one SU part per spatial unrolling, priced once per tiling and
//!   composed per candidate.  The engine prices one layer at a time; the
//!   hardware sweep factors whole networks once per accelerator compute
//!   configuration ([`factor_network`], which drops the SU parts an
//!   earlier part covers, in a profile-free stage cached per layer shape
//!   and a priced stage) and prices them per `(SRAM sizes, DRAM axes)`
//!   point into the searched winner totals only.
//! * [`search`] — the engine: minimum-EDP winner selection, a generalised
//!   cycles/energy/EDP/utilisation Pareto front (`bitwave_core::pareto`),
//!   and deterministic rayon fan-out (parallel ≡ sequential, bit-identical).
//!   Each result carries a content digest of its search inputs.
//!
//! The Eq. 1–5 model every candidate is priced with is held to the
//! cycle-level BCE engine of `bitwave-sim` by this crate's
//! `tests/engine_agreement.rs`: `Cu × OXu × Ku` mappings lowered onto the
//! engine, linear and convolutional layers, within the paper's 6 % bound
//! (Section V-B) wherever the model's 8-group synchronisation describes the
//! engine; the test documents and bounds the known deviations.
//!
//! # Example
//!
//! ```
//! use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
//! use bitwave_accel::{EnergyModel, LayerSparsityProfile};
//! use bitwave_core::group::GroupSize;
//! use bitwave_dataflow::MemoryHierarchy;
//! use bitwave_dse::DseEngine;
//!
//! let net = bitwave_dnn::models::resnet18();
//! let layer = net.layer("conv1").unwrap();
//! let weights = bitwave_dnn::weights::generate_layer_sample(layer, 42, 4_000);
//! let profile = LayerSparsityProfile::from_weights(
//!     &weights,
//!     layer.expected_activation_sparsity(),
//!     GroupSize::G16,
//! )
//! .unwrap();
//!
//! let engine = DseEngine::new(MemoryHierarchy::bitwave_default(), EnergyModel::finfet_16nm());
//! let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
//! let heuristic = engine.heuristic_mapping(&accel, layer, &profile).unwrap();
//! let searched = engine.search_layer(&accel, layer, &profile).unwrap();
//! // The enumerated space includes the heuristic's choice, so the searched
//! // winner can only match or beat it on EDP.
//! assert!(searched.winner.cost.edp <= heuristic.cost.edp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod factored;
pub mod search;
pub mod space;

pub use cost::{EvaluatedMapping, MappingCost};
pub use error::{DseError, Result};
pub use factored::{
    clear_shape_cache, factor_network, factored_repriced_total, shape_cache_stats,
    FactoredNetworkSearch, SearchedTotals,
};
pub use search::{DseEngine, LayerSearchResult, NetworkSearch, SearchedLayer, DSE_SCHEMA_VERSION};
pub use space::{space_cache_stats, Candidate, SearchSpace};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cost::{EvaluatedMapping, MappingCost};
    pub use crate::error::DseError;
    pub use crate::search::{DseEngine, LayerSearchResult, NetworkSearch, SearchedLayer};
    pub use crate::space::SearchSpace;
}
