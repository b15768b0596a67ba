//! Table II activity counts.
//!
//! For every accelerator–layer pair, STEP 1 of the paper's modelling flow
//! extracts dense operational activity counts from ZigZag: the number of MAC
//! operations and the read/write counts at every memory level.  This module
//! computes the on-chip counts analytically for an output-stationary
//! dataflow: a weight SRAM read is spatially reused across the unrolled
//! output positions (`OXu·OYu`), an activation SRAM read across the unrolled
//! output channels (`Ku`), and outputs are accumulated in PE-local registers
//! and written to SRAM once.
//!
//! The off-chip counts (`N_DRAM`, and the SRAM fills that mirror them)
//! depend on the memory hierarchy and the temporal mapping, not on the
//! spatial unrolling; [`crate::dram::DramFetches::of`] decides them.

use crate::su::SpatialUnrolling;
use bitwave_dnn::layer::LayerSpec;
use serde::{Deserialize, Serialize};

/// Which operand stays resident in its SRAM tile by tile while the other is
/// re-streamed from DRAM — the temporal loop order of the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TilingOrder {
    /// Weights are resident tile by tile; activations are re-read once per
    /// weight tile.
    WeightOuter,
    /// Activations are resident tile by tile; weights are re-read once per
    /// activation tile.
    ActivationOuter,
}

/// An explicit temporal mapping: the tiling (loop) order plus a tile-count
/// multiplier on top of the minimum the SRAM capacity forces.  A design-space
/// search enumerates these alongside spatial unrollings; `tile_factor = 1`
/// with the cheaper order reproduces what [`crate::dram::DramFetches::of`]
/// picks when given no mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TemporalMapping {
    /// The tiling order.
    pub order: TilingOrder,
    /// Multiplier on the capacity-forced tile count of the resident operand
    /// (1 = the natural tiling; larger factors cut tiles finer and re-stream
    /// the other operand more often).
    pub tile_factor: usize,
}

impl TemporalMapping {
    /// The natural tiling under the given order (capacity-forced tile count,
    /// no extra subdivision).
    pub fn natural(order: TilingOrder) -> Self {
        Self {
            order,
            tile_factor: 1,
        }
    }
}

/// Dense (sparsity-unaware) on-chip activity counts of one layer under one
/// spatial unrolling — the memory-hierarchy-independent part of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityCounts {
    /// Total MAC operations (`N_mac`).
    pub macs: u64,
    /// On-chip input-activation SRAM reads (`N_SRAM read-input`).
    pub sram_read_input: u64,
    /// On-chip weight SRAM reads (`N_SRAM read-weight`).
    pub sram_read_weight: u64,
    /// On-chip output SRAM writes (`N_SRAM write-output`).
    pub sram_write_output: u64,
    /// PE register-file reads (`N_reg read`).
    pub reg_read: u64,
    /// PE register-file writes (`N_reg write`).
    pub reg_write: u64,
}

impl ActivityCounts {
    /// The counts of `layer` under spatial unrolling `su`.
    pub fn of(layer: &LayerSpec, su: &SpatialUnrolling) -> Self {
        let dims = &layer.dims;
        let macs = dims.macs();
        Self {
            macs,
            sram_read_input: macs / su.input_reuse(),
            sram_read_weight: macs / su.weight_reuse(),
            sram_write_output: dims.output_count(),
            // Output-stationary accumulation: one register read + write per
            // MAC.
            reg_read: macs,
            reg_write: macs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramFetches;
    use crate::memory::MemoryHierarchy;
    use crate::su::{baseline_su, bitwave_su};
    use crate::utilization::effective_macs_per_cycle;
    use bitwave_dnn::models::{bert_base, resnet18};

    /// `layer`'s DRAM fetch counts under `temporal` on `memory`.
    fn fetches(
        layer: &LayerSpec,
        memory: &MemoryHierarchy,
        temporal: Option<TemporalMapping>,
    ) -> DramFetches {
        let d = &layer.dims;
        DramFetches::of(
            d.weight_count(),
            d.input_count(),
            d.output_count(),
            memory,
            temporal,
        )
    }

    /// DRAM read elements (refetches included) under `fetches`.
    fn reads(layer: &LayerSpec, fetches: DramFetches) -> u64 {
        layer.dims.weight_count() * fetches.weight + layer.dims.input_count() * fetches.act
    }

    #[test]
    fn small_layer_reads_each_operand_once() {
        let net = resnet18();
        let layer = net.layer("layer1.0.conv1").unwrap(); // 36,864 weights, fits SRAM
        let f = fetches(layer, &MemoryHierarchy::bitwave_default(), None);
        assert_eq!(f, DramFetches { weight: 1, act: 1 });
        let counts = ActivityCounts::of(layer, &bitwave_su::SU1);
        assert_eq!(counts.sram_write_output, layer.dims.output_count());
        assert_eq!(counts.macs, layer.macs());
    }

    #[test]
    fn oversized_weights_force_extra_traffic_on_one_operand() {
        let net = bert_base();
        let layer = net.layer("bert.encoder.layer.0.intermediate").unwrap(); // 2.36 MB of weights
        let mem = MemoryHierarchy::bitwave_default();
        // Weight-outer cuts the weights into tiles and re-streams the
        // activations once per tile.
        let wo = fetches(
            layer,
            &mem,
            Some(TemporalMapping::natural(TilingOrder::WeightOuter)),
        );
        assert_eq!(wo.weight, 1);
        assert!(wo.act > 1);
        // With only 4 tokens the activations are tiny, so the model should
        // keep weights streaming once and never re-read them.
        let f = fetches(layer, &mem, None);
        assert_eq!(f.weight, 1);
        assert!(f.act >= 1);
        assert!(reads(layer, f) < reads(layer, wo));
    }

    #[test]
    fn sram_reads_account_for_spatial_reuse() {
        let net = resnet18();
        let layer = net.layer("layer2.0.conv2").unwrap();
        let su = bitwave_su::SU1; // OXu=16, Ku=32
        let counts = ActivityCounts::of(layer, &su);
        assert_eq!(counts.sram_read_weight, layer.macs() / 16);
        assert_eq!(counts.sram_read_input, layer.macs() / 32);
        assert_eq!(counts.sram_write_output, layer.dims.output_count());
    }

    #[test]
    fn dense_cycles_scale_inversely_with_utilization() {
        let net = resnet18();
        let layer = net.layer("conv1").unwrap(); // only 3 input channels
        let dense_cycles = |su: &SpatialUnrolling| {
            ActivityCounts::of(layer, su).macs as f64 / effective_macs_per_cycle(&layer.dims, su)
        };
        // SU3's Cu=32 is badly used by 3 input channels.
        assert!(dense_cycles(&bitwave_su::SU3) > dense_cycles(&baseline_su::XY_4096));
    }

    #[test]
    fn analyze_picks_the_cheaper_explicit_order() {
        let net = bert_base();
        let mem = MemoryHierarchy::bitwave_default();
        for layer in &net.layers {
            let wo = fetches(
                layer,
                &mem,
                Some(TemporalMapping::natural(TilingOrder::WeightOuter)),
            );
            let ao = fetches(
                layer,
                &mem,
                Some(TemporalMapping::natural(TilingOrder::ActivationOuter)),
            );
            let cheaper = if reads(layer, wo) <= reads(layer, ao) {
                wo
            } else {
                ao
            };
            assert_eq!(fetches(layer, &mem, None), cheaper, "{}", layer.name);
        }
        // A tie goes to weight-outer: 200 weights and 200 inputs, each
        // needing two 100-byte tiles, read 600 elements under either order.
        let tight = MemoryHierarchy {
            weight_sram_bytes: 100,
            activation_sram_bytes: 100,
            ..mem
        };
        let tie = DramFetches::of(200, 200, 0, &tight, None);
        assert_eq!(tie, DramFetches { weight: 1, act: 2 });
        assert_eq!(
            DramFetches::of(
                200,
                200,
                0,
                &tight,
                Some(TemporalMapping::natural(TilingOrder::ActivationOuter))
            ),
            DramFetches { weight: 2, act: 1 }
        );
    }

    #[test]
    fn extra_tile_factors_only_add_dram_traffic() {
        let net = bert_base();
        let layer = net.layer("bert.encoder.layer.0.intermediate").unwrap();
        let mem = MemoryHierarchy::bitwave_default();
        for order in [TilingOrder::WeightOuter, TilingOrder::ActivationOuter] {
            let natural = fetches(layer, &mem, Some(TemporalMapping::natural(order)));
            let finer = fetches(
                layer,
                &mem,
                Some(TemporalMapping {
                    order,
                    tile_factor: 4,
                }),
            );
            assert!(reads(layer, finer) > reads(layer, natural));
        }
    }

    #[test]
    fn register_activity_tracks_macs() {
        let net = resnet18();
        let layer = net.layer("fc").unwrap();
        let counts = ActivityCounts::of(layer, &bitwave_su::SU6);
        assert_eq!(counts.reg_read, layer.macs());
        assert_eq!(counts.reg_write, layer.macs());
    }
}
