//! # bitwave-accel
//!
//! Sparsity-aware performance and energy models for BitWave and the
//! state-of-the-art accelerators it is compared against (Section V-B of the
//! paper): Dense, HUAA, Stripes, Pragmatic, SCNN and Bitlet.
//!
//! The modelling flow mirrors the paper's four steps:
//!
//! 1. **STEP 1** — dense activity counts per accelerator and layer come from
//!    the ZigZag-style model in `bitwave-dataflow`: the on-chip counts
//!    ([`bitwave_dataflow::ActivityCounts`]) and the per-operand DRAM fetch
//!    counts ([`bitwave_dataflow::DramFetches`]).
//! 2. **STEP 2** — per-layer sparsity statistics and compression ratios are
//!    captured in [`sparsity::LayerSparsityProfile`], including the load
//!    imbalance adjustment for runtime-scheduled bit-serial machines.
//! 3. **STEP 3** — [`model::evaluate_layer_with_mapping`] combines both,
//!    under one layer's mapping decision, into effective operation and
//!    memory-access counts (Eqs. 1–3).  It is the composition of the
//!    spatial-unrolling part [`model::SuCost`] and the traffic part
//!    [`model::LayerTraffic`], which the design-space search prices
//!    separately.
//! 4. **STEP 4** — the energy model ([`energy::EnergyModel`], Eq. 4) and the
//!    latency model (Eq. 5) turn the counts into energy and cycles.  The
//!    network-level results behind Figs. 13–17 are `bitwave`'s pipeline
//!    reports, which sum these per-layer outcomes.
//!
//! [`area`] holds the area/power breakdowns and technology constants behind
//! Fig. 18 and Tables III–IV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;
pub mod model;
pub mod sparsity;
pub mod spec;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use model::{
    bits_per_mac_class, evaluate_layer_with_mapping, LayerTraffic, PricedTraffic,
    RepricedLayerCost, SuCost, SuShape,
};
pub use sparsity::{LayerAnalysis, LayerSparsityProfile};
pub use spec::{AcceleratorKind, AcceleratorSpec, BitwaveOptimizations};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::area::{
        bitwave_area_power_breakdown, pe_type_comparison, sota_comparison_table, AreaPowerRow,
        PeTypeRow, SotaRow,
    };
    pub use crate::energy::{EnergyBreakdown, EnergyModel};
    pub use crate::model::evaluate_layer_with_mapping;
    pub use crate::sparsity::{LayerAnalysis, LayerSparsityProfile};
    pub use crate::spec::{AcceleratorKind, AcceleratorSpec, BitwaveOptimizations};
}
