//! # bitwave-dataflow
//!
//! The dataflow / mapping substrate of the BitWave (HPCA 2024) reproduction:
//! a ZigZag-style analytical model of how a layer's loop nest maps onto a
//! spatially-unrolled PE array with a register / SRAM / DRAM memory
//! hierarchy.
//!
//! * [`su`] — spatial-unrolling configurations, including BitWave's seven
//!   dynamic dataflows of Table I, the dense baseline `[Ku=64, Cu=64]`, and
//!   the fixed mappings used by the SotA comparison accelerators.
//! * [`utilization`] — spatial (PE-array) utilisation of a layer under an
//!   SU (Fig. 9) and the resulting effective MACs/cycle.
//! * [`memory`] — the SRAM/DRAM hierarchy parameters shared by all modelled
//!   accelerators (Section V-B "a common SRAM-DRAM memory hierarchy").
//! * [`activity`] — the on-chip Table II activity counts (`N_SRAM`,
//!   `N_reg`, `N_mac`) derived analytically per layer and SU, and the
//!   temporal mapping (tiling order + tile factor) types.
//! * [`dram`] — the DRAM tier: burst-quantised timing and the one
//!   per-operand fetch-count decision ([`DramFetches::of`], the BitSim
//!   `_check_layer_mem_size` / `_calc_num_mem_refetch` logic) behind the
//!   `N_DRAM` counts and the per-layer roofline
//!   `max(cycle_compute, cycle_dram)`.
//! * [`mapping`] — per-layer SU selection for dynamic-dataflow accelerators
//!   (BitWave, HUAA), mirroring the offline ZigZag search the paper uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod dram;
pub mod mapping;
pub mod memory;
pub mod su;
pub mod utilization;

pub use activity::{ActivityCounts, TemporalMapping, TilingOrder};
pub use dram::{DramFetches, DramSpec, MemoryBoundedness};
pub use mapping::{
    map_network, select_spatial_unrolling, MappingDecision, MappingError, MappingPolicy,
};
pub use memory::MemoryHierarchy;
pub use su::{SpatialUnrolling, SuSet};
pub use utilization::{effective_macs_per_cycle, spatial_utilization};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::activity::{ActivityCounts, TemporalMapping, TilingOrder};
    pub use crate::dram::{DramFetches, DramSpec, MemoryBoundedness};
    pub use crate::mapping::{
        map_network, select_spatial_unrolling, MappingDecision, MappingError, MappingPolicy,
    };
    pub use crate::memory::MemoryHierarchy;
    pub use crate::su::{SpatialUnrolling, SuSet};
    pub use crate::utilization::{effective_macs_per_cycle, spatial_utilization};
}
