//! The DRAM tier: timing model and the per-operand fetch counts.
//!
//! The Eq. 1–5 cost stack models the PE array and the on-chip SRAMs; this
//! module adds the off-chip tier the BitSim exemplar models with
//! `_check_layer_mem_size` / `_calc_num_mem_refetch`: a [`DramSpec`] turns
//! byte traffic into burst-quantised DRAM cycles, and [`DramFetches::of`]
//! is the one place that decides how often each operand is streamed from
//! DRAM — once when the layer's working sets fit their SRAMs, more often
//! when the resident operand has to be cut into tiles.
//!
//! A layer's total latency under a constrained DRAM tier is the roofline
//! `max(cycle_compute, cycle_dram)` (compute and DRAM transfers overlap
//! through double buffering, exactly as BitSim sums
//! `max(cycle_layer_compute, cycle_layer_dram)` per layer); the default
//! [`DramSpec::unconstrained`] tier adds `bytes × 8 /`
//! [`MemoryHierarchy::dram_word_bits`] DRAM cycles on top of the compute
//! side instead (the additive Eq. 5).

use crate::activity::{TemporalMapping, TilingOrder};
use crate::memory::MemoryHierarchy;
use serde::{Deserialize, Serialize};

/// Default DRAM burst length in bytes (a 64-byte burst: 8 beats of the
/// 64-bit interface of [`MemoryHierarchy::bitwave_default`]).
pub const DEFAULT_BURST_BYTES: usize = 64;

/// The DRAM interface of one accelerator configuration.
///
/// `bandwidth_bits: None` is the **unconstrained** default: DRAM traffic
/// costs `bytes × 8 /` [`MemoryHierarchy::dram_word_bits`] cycles (one word
/// per cycle, 64 bits by default), *added* to the compute side of Eq. 5, and
/// no boundedness is reported.  A constrained tier
/// ([`DramSpec::constrained`]) switches the layer total to the roofline
/// `max(compute, dram)` with burst-quantised DRAM cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramSpec {
    /// Sustained DRAM bandwidth in bits per compute cycle; `None` is the
    /// unconstrained tier (additive DRAM cycles at the memory hierarchy's
    /// word width, no roofline).
    pub bandwidth_bits: Option<usize>,
    /// Burst length in bytes: every transfer is rounded up to whole bursts.
    pub burst_bytes: usize,
}

impl DramSpec {
    /// The unconstrained default tier (additive Eq. 5 DRAM term).
    pub fn unconstrained() -> Self {
        Self {
            bandwidth_bits: None,
            burst_bytes: DEFAULT_BURST_BYTES,
        }
    }

    /// A constrained tier sustaining `bandwidth_bits` bits per cycle with
    /// the default burst length.
    pub fn constrained(bandwidth_bits: usize) -> Self {
        Self {
            bandwidth_bits: Some(bandwidth_bits.max(1)),
            burst_bytes: DEFAULT_BURST_BYTES,
        }
    }

    /// Replaces the burst length.
    pub fn with_burst(mut self, burst_bytes: usize) -> Self {
        self.burst_bytes = burst_bytes.max(1);
        self
    }

    /// Whether the tier actually limits bandwidth.
    pub fn is_constrained(&self) -> bool {
        self.bandwidth_bits.is_some()
    }

    /// Rounds a transfer of `bytes` up to whole bursts.
    pub fn burst_quantize(&self, bytes: f64) -> f64 {
        let burst = self.burst_bytes.max(1) as f64;
        (bytes / burst).ceil().max(0.0) * burst
    }

    /// The roofline's DRAM side: cycles needed to move `bytes`
    /// (burst-quantised).  0 for the unconstrained tier, which has no
    /// roofline; its additive term is priced at the word width instead.
    pub fn cycles_for_bytes(&self, bytes: f64) -> f64 {
        match self.bandwidth_bits {
            None => 0.0,
            Some(bw) => self.burst_quantize(bytes) * 8.0 / bw.max(1) as f64,
        }
    }
}

impl Default for DramSpec {
    fn default() -> Self {
        Self::unconstrained()
    }
}

/// How often each operand is streamed from DRAM under one temporal mapping —
/// the BitSim `_calc_num_mem_refetch` accounting.  A count of 1 means the
/// operand enters the chip exactly once; higher counts are refetches forced
/// by the resident operand's tile count.  A layer's DRAM reads are
/// `count × fetches` per operand; its outputs are written back once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramFetches {
    /// Times the weight tensor is streamed from DRAM.
    pub weight: u64,
    /// Times the input activations are streamed from DRAM.
    pub act: u64,
}

impl DramFetches {
    /// The fetch counts of a layer with the given operand element counts
    /// (Int8: one byte each) under `temporal`.  The resident operand is cut
    /// into capacity-forced tiles (times the mapping's `tile_factor`) and
    /// streamed once; the other operand is re-streamed once per resident
    /// tile.  `None` picks the cheaper natural order by DRAM read volume,
    /// ties going to weight-outer — the decision ZigZag's temporal-mapping
    /// search would make.
    pub fn of(
        weight_count: u64,
        input_count: u64,
        output_count: u64,
        memory: &MemoryHierarchy,
        temporal: Option<TemporalMapping>,
    ) -> Self {
        let under = |temporal: TemporalMapping| {
            let factor = temporal.tile_factor.max(1) as u64;
            match temporal.order {
                TilingOrder::WeightOuter => Self {
                    weight: 1,
                    act: memory.weight_tiles(weight_count as usize) as u64 * factor,
                },
                TilingOrder::ActivationOuter => Self {
                    weight: memory.activation_tiles((input_count + output_count) as usize) as u64
                        * factor,
                    act: 1,
                },
            }
        };
        if let Some(temporal) = temporal {
            return under(temporal);
        }
        let wo = under(TemporalMapping::natural(TilingOrder::WeightOuter));
        let ao = under(TemporalMapping::natural(TilingOrder::ActivationOuter));
        let reads = |f: Self| weight_count * f.weight + input_count * f.act;
        if reads(wo) <= reads(ao) {
            wo
        } else {
            ao
        }
    }
}

/// The compute-vs-memory verdict of one layer under a constrained DRAM
/// tier: both sides of the roofline `total = max(compute, dram)`, the stall
/// the slower side causes, and the refetch counts behind the DRAM side.
/// Only layers evaluated under a [constrained](DramSpec::constrained) tier
/// carry one; reports omit the field entirely at the unconstrained default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBoundedness {
    /// True when the DRAM side of the roofline dominates the layer.
    pub memory_bound: bool,
    /// Cycles of the compute (on-chip) side of the roofline: Eq. 5's
    /// overlapped compute/SRAM/register term plus the output write-back.
    pub compute_side_cycles: f64,
    /// Cycles of the DRAM side: burst-quantised traffic over bandwidth.
    pub dram_cycles: f64,
    /// Cycles the PE array stalls waiting on DRAM
    /// (`max(0, dram - compute_side)`).
    pub dram_stall_cycles: f64,
    /// Stall cycles as a fraction of the layer total.
    pub dram_stall_fraction: f64,
    /// DRAM traffic in bytes (compression-adjusted, refetches included).
    pub dram_bytes: f64,
    /// Times the weight tensor is streamed from DRAM.
    pub weight_fetches: u64,
    /// Times the input activations are streamed from DRAM.
    pub act_fetches: u64,
}

impl MemoryBoundedness {
    /// Builds the verdict from the two roofline sides.
    pub fn from_roofline(
        compute_side_cycles: f64,
        dram_cycles: f64,
        dram_bytes: f64,
        weight_fetches: u64,
        act_fetches: u64,
    ) -> Self {
        let total = compute_side_cycles.max(dram_cycles);
        let stall = (dram_cycles - compute_side_cycles).max(0.0);
        Self {
            memory_bound: dram_cycles > compute_side_cycles,
            compute_side_cycles,
            dram_cycles,
            dram_stall_cycles: stall,
            dram_stall_fraction: if total > 0.0 { stall / total } else { 0.0 },
            dram_bytes,
            weight_fetches,
            act_fetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::layer::LayerSpec;

    fn memory(weight_sram: usize, act_sram: usize) -> MemoryHierarchy {
        MemoryHierarchy {
            weight_sram_bytes: weight_sram,
            activation_sram_bytes: act_sram,
            dram_word_bits: 64,
            sram_word_bits: 64,
        }
    }

    fn natural(order: TilingOrder) -> Option<TemporalMapping> {
        Some(TemporalMapping::natural(order))
    }

    #[test]
    fn unconstrained_tier_costs_nothing() {
        let dram = DramSpec::default();
        assert!(!dram.is_constrained());
        assert_eq!(dram.cycles_for_bytes(1e9), 0.0);
        assert_eq!(dram, DramSpec::unconstrained());
    }

    #[test]
    fn constrained_cycles_are_burst_quantised() {
        let dram = DramSpec::constrained(64);
        assert!(dram.is_constrained());
        // 64-byte burst at 64 bits/cycle: one burst = 8 cycles.
        assert_eq!(dram.cycles_for_bytes(1.0), 8.0);
        assert_eq!(dram.cycles_for_bytes(64.0), 8.0);
        assert_eq!(dram.cycles_for_bytes(65.0), 16.0);
        assert_eq!(dram.cycles_for_bytes(0.0), 0.0);
        // A wider interface moves the same bursts in fewer cycles.
        assert_eq!(DramSpec::constrained(128).cycles_for_bytes(65.0), 8.0);
        // A finer burst wastes less on the tail.
        assert_eq!(
            DramSpec::constrained(64)
                .with_burst(1)
                .cycles_for_bytes(65.0),
            65.0 * 8.0 / 64.0
        );
    }

    #[test]
    fn fit_check_matches_the_hierarchy() {
        // The BitSim `_check_layer_mem_size` view: an operand that fits its
        // SRAM (at capacity still fits) is one tile, so the other operand
        // streams exactly once; below capacity it is refetched.
        let (weights, inputs, outputs) = (1000, 300, 200);
        let wo = natural(TilingOrder::WeightOuter);
        let ao = natural(TilingOrder::ActivationOuter);
        for (mem, fits) in [
            (memory(1024, 512), true),
            (memory(1000, 500), true),
            (memory(999, 499), false),
        ] {
            let expected = if fits { 1 } else { 2 };
            assert_eq!(
                DramFetches::of(weights, inputs, outputs, &mem, wo).act,
                expected
            );
            assert_eq!(
                DramFetches::of(weights, inputs, outputs, &mem, ao).weight,
                expected
            );
        }
    }

    #[test]
    fn zero_size_layers_produce_no_traffic_and_one_tile() {
        let mem = memory(1024, 1024);
        for temporal in [
            natural(TilingOrder::WeightOuter),
            natural(TilingOrder::ActivationOuter),
            None,
        ] {
            let fetches = DramFetches::of(0, 0, 0, &mem, temporal);
            // An empty working set is still one (empty) tile, so neither
            // operand is refetched and the read bytes `0 × fetches` are 0.
            assert_eq!(fetches, DramFetches { weight: 1, act: 1 });
        }
    }

    #[test]
    fn tiles_exactly_at_capacity_need_no_refetch() {
        let (weights, inputs, outputs) = (4096, 2048, 2048);
        let wo = natural(TilingOrder::WeightOuter);
        let at_capacity = DramFetches::of(weights, inputs, outputs, &memory(4096, 4096), wo);
        assert_eq!(at_capacity, DramFetches { weight: 1, act: 1 });
        // One byte over the edge doubles the resident tile count, so the
        // activations stream twice while the resident weights stream once.
        let over = DramFetches::of(weights, inputs, outputs, &memory(4095, 4096), wo);
        assert_eq!(over.act, 2);
        assert_eq!(over.weight, 1, "resident operand still streams once");
        // The same edge on the activation side under activation-outer.
        let ao = natural(TilingOrder::ActivationOuter);
        assert_eq!(
            DramFetches::of(weights, inputs, outputs, &memory(4096, 4096), ao).weight,
            1
        );
        let over = DramFetches::of(weights, inputs, outputs, &memory(4096, 4095), ao);
        assert_eq!(over, DramFetches { weight: 2, act: 1 });
    }

    #[test]
    fn resident_operand_streams_once_and_the_other_once_per_tile() {
        // Conv, depthwise (Gu×OXu shape) and linear layers, both orders and
        // several tile factors: the resident operand enters the chip once,
        // the other once per resident tile (`ceil(bytes / SRAM) × factor`).
        let conv = LayerSpec::conv2d("c", 64, 128, 3, 1, 1, 56, 0.5);
        let depthwise = LayerSpec::depthwise("dw", 384, 3, 1, 1, 14, 0.5);
        let linear = LayerSpec::linear("fc", 4096, 1000, 1, 0.5);
        let (weight_sram, act_sram) = (16 * 1024u64, 8 * 1024u64);
        let mem = memory(weight_sram as usize, act_sram as usize);
        for layer in [&conv, &depthwise, &linear] {
            let d = &layer.dims;
            let (w, i, o) = (d.weight_count(), d.input_count(), d.output_count());
            for tile_factor in [1, 2, 5] {
                let factor = tile_factor as u64;
                let wo = DramFetches::of(
                    w,
                    i,
                    o,
                    &mem,
                    Some(TemporalMapping {
                        order: TilingOrder::WeightOuter,
                        tile_factor,
                    }),
                );
                let weight_tiles = w.div_ceil(weight_sram).max(1);
                assert_eq!(wo.weight, 1, "{}", layer.name);
                assert_eq!(wo.act, weight_tiles * factor, "{}", layer.name);
                let ao = DramFetches::of(
                    w,
                    i,
                    o,
                    &mem,
                    Some(TemporalMapping {
                        order: TilingOrder::ActivationOuter,
                        tile_factor,
                    }),
                );
                let act_tiles = (i + o).div_ceil(act_sram).max(1);
                assert_eq!(ao.weight, act_tiles * factor, "{}", layer.name);
                assert_eq!(ao.act, 1, "{}", layer.name);
            }
        }
    }

    #[test]
    fn depthwise_footprint_counts_per_channel_kernels() {
        // Depthwise Gu×OXu shape: K channels of FX×FY kernels, C = 1.
        let layer = LayerSpec::depthwise("dw", 384, 3, 1, 1, 14, 0.5);
        let d = &layer.dims;
        assert_eq!(d.weight_count(), 384 * 3 * 3);
        assert!(d.input_count() > 0 && d.output_count() > 0);
        // Small enough to fit the paper-default SRAM: exactly one fetch each.
        let fetches = DramFetches::of(
            d.weight_count(),
            d.input_count(),
            d.output_count(),
            &MemoryHierarchy::bitwave_default(),
            None,
        );
        assert_eq!(fetches, DramFetches { weight: 1, act: 1 });
    }

    #[test]
    fn shrinking_sram_never_decreases_refetches() {
        let (weights, inputs, outputs) = (100_000, 40_000, 20_000);
        let mut previous = 0u64;
        for shift in 0..8 {
            let mem = memory((128 * 1024) >> shift, (64 * 1024) >> shift);
            let fetches = DramFetches::of(
                weights,
                inputs,
                outputs,
                &mem,
                natural(TilingOrder::WeightOuter),
            );
            assert!(
                fetches.act >= previous,
                "halving SRAM must not reduce refetches"
            );
            previous = fetches.act;
        }
    }

    #[test]
    fn boundedness_verdict_splits_the_roofline() {
        let b = MemoryBoundedness::from_roofline(100.0, 250.0, 2000.0, 1, 3);
        assert!(b.memory_bound);
        assert_eq!(b.dram_stall_cycles, 150.0);
        assert!((b.dram_stall_fraction - 0.6).abs() < 1e-12);
        let c = MemoryBoundedness::from_roofline(100.0, 40.0, 320.0, 1, 1);
        assert!(!c.memory_bound);
        assert_eq!(c.dram_stall_cycles, 0.0);
        assert_eq!(c.dram_stall_fraction, 0.0);
        let z = MemoryBoundedness::from_roofline(0.0, 0.0, 0.0, 0, 0);
        assert_eq!(z.dram_stall_fraction, 0.0);
    }

    #[test]
    fn dram_spec_serialization_roundtrips() {
        for dram in [
            DramSpec::unconstrained(),
            DramSpec::constrained(64),
            DramSpec::constrained(8).with_burst(32),
        ] {
            let json = serde_json::to_string(&dram).unwrap();
            let back: DramSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, dram);
        }
        // A missing bandwidth field deserializes to the unconstrained tier.
        let back: DramSpec = serde_json::from_str(r#"{"burst_bytes":64}"#).unwrap();
        assert_eq!(back, DramSpec::unconstrained());
    }
}
