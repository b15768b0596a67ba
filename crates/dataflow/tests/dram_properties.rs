//! Property tests pinning the monotonicity of the DRAM refetch accounting:
//! shrinking either on-chip SRAM can never *decrease* the number of DRAM
//! refetches or the total DRAM traffic of a layer, for any layer shape and
//! either tiling order.  This is the invariant the memory-bound DSE relies
//! on — a smaller chip can only pay more at the DRAM interface.

use bitwave_dataflow::activity::{TemporalMapping, TilingOrder};
use bitwave_dataflow::{DramFetches, DramSpec, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use proptest::prelude::*;

fn memory(weight_sram: usize, act_sram: usize) -> MemoryHierarchy {
    MemoryHierarchy {
        weight_sram_bytes: weight_sram,
        activation_sram_bytes: act_sram,
        dram_word_bits: 64,
        sram_word_bits: 64,
    }
}

/// One of the three layer families the cost model distinguishes, with
/// proptest-driven shape parameters (depthwise exercises the Gu×OXu shape).
fn synth_layer(kind: u8, channels: usize, hw: usize) -> LayerSpec {
    match kind {
        0 => LayerSpec::conv2d("c", channels, channels * 2, 3, 1, 1, hw, 0.5),
        1 => LayerSpec::depthwise("dw", channels * 8, 3, 1, 1, hw, 0.5),
        _ => LayerSpec::linear("fc", channels * 64, channels * 16, 1, 0.5),
    }
}

/// `layer`'s fetch counts and total DRAM bytes (reads with refetches plus
/// the one write-back) under `temporal` on `memory`.
fn traffic(
    layer: &LayerSpec,
    memory: &MemoryHierarchy,
    temporal: Option<TemporalMapping>,
) -> (DramFetches, u64) {
    let d = &layer.dims;
    let (w, i, o) = (d.weight_count(), d.input_count(), d.output_count());
    let fetches = DramFetches::of(w, i, o, memory, temporal);
    (fetches, w * fetches.weight + i * fetches.act + o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shrinking either SRAM never decreases refetch counts or total DRAM
    /// bytes, under both tiling orders and the cheapest-order choice.
    #[test]
    fn shrinking_sram_is_monotone(
        kind in 0u8..3,
        channels in 1usize..96,
        hw in 1usize..40,
        weight_sram in 64usize..64 * 1024,
        act_sram in 64usize..64 * 1024,
        tile_factor in 1usize..4,
    ) {
        let layer = synth_layer(kind, channels, hw);
        let large = memory(weight_sram * 2, act_sram * 2);
        let small = memory(weight_sram, act_sram);
        for order in [TilingOrder::WeightOuter, TilingOrder::ActivationOuter] {
            let temporal = Some(TemporalMapping { order, tile_factor });
            let (before, before_bytes) = traffic(&layer, &large, temporal);
            let (after, after_bytes) = traffic(&layer, &small, temporal);
            prop_assert!(after.weight >= before.weight);
            prop_assert!(after.act >= before.act);
            prop_assert!(after_bytes >= before_bytes);
        }
        let (_, before_bytes) = traffic(&layer, &large, None);
        let (_, after_bytes) = traffic(&layer, &small, None);
        prop_assert!(after_bytes >= before_bytes);
    }

    /// Every operand is streamed at least once (no layer with a non-empty
    /// footprint gets free DRAM traffic): no SRAM sizing moves less than an
    /// SRAM that holds everything, which reads each operand once and writes
    /// the outputs back once.
    #[test]
    fn traffic_lower_bounds_hold(
        kind in 0u8..3,
        channels in 1usize..96,
        hw in 1usize..40,
        weight_sram in 64usize..64 * 1024,
        act_sram in 64usize..64 * 1024,
    ) {
        let layer = synth_layer(kind, channels, hw);
        let mem = memory(weight_sram, act_sram);
        let roomy = memory(usize::MAX / 4, usize::MAX / 4);
        let d = &layer.dims;
        for temporal in [
            Some(TemporalMapping::natural(TilingOrder::WeightOuter)),
            Some(TemporalMapping::natural(TilingOrder::ActivationOuter)),
            None,
        ] {
            let (fetches, bytes) = traffic(&layer, &mem, temporal);
            prop_assert!(fetches.weight >= 1);
            prop_assert!(fetches.act >= 1);
            let (_, roomy_bytes) = traffic(&layer, &roomy, temporal);
            prop_assert_eq!(
                roomy_bytes,
                d.weight_count() + d.input_count() + d.output_count()
            );
            prop_assert!(bytes >= roomy_bytes);
        }
    }

    /// DRAM cycles are monotone in traffic and anti-monotone in bandwidth,
    /// and burst quantisation only ever rounds up.
    #[test]
    fn dram_cycles_are_monotone_in_bytes_and_bandwidth(
        bytes in 0u32..1_000_000,
        extra in 0u32..1_000_000,
        bandwidth in 1usize..2048,
        burst in 1usize..512,
    ) {
        let spec = DramSpec::constrained(bandwidth).with_burst(burst);
        let base = spec.cycles_for_bytes(f64::from(bytes));
        prop_assert!(spec.cycles_for_bytes(f64::from(bytes + extra)) >= base);
        let wider = DramSpec::constrained(bandwidth * 2).with_burst(burst);
        prop_assert!(wider.cycles_for_bytes(f64::from(bytes)) <= base);
        prop_assert!(spec.burst_quantize(f64::from(bytes)) >= f64::from(bytes));
        prop_assert_eq!(DramSpec::unconstrained().cycles_for_bytes(f64::from(bytes)), 0.0);
    }
}
