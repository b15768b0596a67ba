//! `SuShape::covers` is the profile-free stage of the design-space sweep's
//! covering prune: a spatial unrolling whose shape covers another's on a
//! layer must price an `SuCost` that covers the other's, for every
//! accelerator of the registry at every sync granularity and every profile
//! a layer's weights can produce (fractions in `[0, 1]`, bit and column
//! counts in `[0, 8]`, positive compression ratios).

use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::{EnergyModel, LayerSparsityProfile, SuCost, SuShape};
use bitwave_dataflow::SpatialUnrolling;
use bitwave_dnn::layer::LayerSpec;
use proptest::prelude::*;

/// A conv, depthwise or linear layer.  An aligned layer's extents are
/// multiples of 64, so every unrolling below fills it and utilisation ties
/// are common.
fn layer(kind: u8, channels: usize, hw: usize, aligned: bool) -> LayerSpec {
    let (channels, hw) = if aligned {
        (64 * channels, 64 * hw)
    } else {
        (channels, hw)
    };
    match kind {
        0 => LayerSpec::conv2d("conv", channels, channels + 3, 3, 1, 1, hw, 0.5),
        1 => LayerSpec::depthwise("dw", channels, 3, 1, 1, hw, 0.5),
        _ => LayerSpec::linear("fc", channels, channels * 2, hw, 0.5),
    }
}

fn spec(which: u8, sync_lanes: usize) -> AcceleratorSpec {
    let mut spec = match which {
        0 => AcceleratorSpec::dense(),
        1 => AcceleratorSpec::huaa(),
        2 => AcceleratorSpec::stripes(),
        3 => AcceleratorSpec::pragmatic(),
        4 => AcceleratorSpec::scnn(),
        5 => AcceleratorSpec::bitlet(),
        _ => AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
    };
    spec.sync_lanes = sync_lanes;
    spec
}

/// A fraction in `[0, 1]` from a draw.
fn fraction(draw: u64) -> f64 {
    (draw % 1001) as f64 / 1000.0
}

fn profile(draws: &[u64]) -> LayerSparsityProfile {
    let f = |i: usize| fraction(draws[i]);
    LayerSparsityProfile {
        weight_value_sparsity: f(0),
        activation_value_sparsity: f(1),
        weight_bit_sparsity_tc: f(2),
        weight_bit_sparsity_sm: f(3),
        group_size: 16,
        mean_nonzero_columns: 8.0 * f(4),
        max_nonzero_columns_synced: 8.0 * f(5),
        mean_nonzero_bits_tc: 8.0 * f(6),
        max_nonzero_bits_sync16: 8.0 * f(7),
        max_nonzero_bits_sync64: 8.0 * f(8),
        bcs_compression_ratio: 0.25 + 4.0 * f(9),
        zre_compression_ratio: 0.25 + 4.0 * f(10),
        csr_compression_ratio: 0.25 + 4.0 * f(11),
    }
}

/// An unrolling with the power-of-two factors `[Cu, Ku, OXu, OYu, Gu]` of
/// the given exponents.
fn su(exponents: [u64; 5]) -> SpatialUnrolling {
    let [c, k, ox, oy, g] = exponents.map(|e| 1usize << e);
    SpatialUnrolling {
        name: "P",
        c,
        k,
        ox,
        oy,
        fx: 1,
        fy: 1,
        g,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whenever `a`'s shape covers `b`'s, `a`'s SU part covers `b`'s.  Half
    /// of the cases draw `b` no wider than `a` in any factor, so the
    /// predicate holds on many of them.
    #[test]
    fn shape_covering_implies_su_part_covering(
        kind in 0u8..3,
        channels in 1usize..80,
        hw in 1usize..20,
        aligned in any::<bool>(),
        which in 0u8..7,
        sync_lanes in prop_oneof![Just(1usize), Just(8), Just(16), Just(64)],
        stats in proptest::collection::vec(any::<u64>(), 12),
        a_exponents in proptest::collection::vec(0u64..6, 5),
        b_draws in proptest::collection::vec(any::<u64>(), 5),
        nested in any::<bool>(),
    ) {
        let layer = layer(kind, channels, hw, aligned);
        let spec = spec(which, sync_lanes);
        let profile = profile(&stats);
        let energy = EnergyModel::finfet_16nm();
        let a_exponents: [u64; 5] = a_exponents.try_into().unwrap();
        let b_exponents: [u64; 5] = std::array::from_fn(|i| {
            let cap = if nested { a_exponents[i] } else { 5 };
            b_draws[i] % (cap + 1)
        });
        let (a, b) = (su(a_exponents), su(b_exponents));
        let (ua, ub) = (a.utilization_for(&layer), b.utilization_for(&layer));
        if SuShape::of(&a, ua).covers(&SuShape::of(&b, ub)) {
            let part = |su: &SpatialUnrolling, utilization: f64| {
                let lanes = su.parallelism() as f64 * utilization;
                SuCost::of(&spec, &layer, su, lanes, &profile, &energy)
            };
            let (pa, pb) = (part(&a, ua), part(&b, ub));
            prop_assert!(pa.can_cover(), "{a:?} on {}", layer.name);
            prop_assert!(
                pa.covers(ua, &pb, ub),
                "{a:?} at {ua} vs {b:?} at {ub} on {} / {}: {pa:?} vs {pb:?}",
                layer.name,
                spec.label
            );
        }
    }
}

#[test]
fn a_wider_unrolling_covers_a_narrower_one_it_fills_as_well() {
    let layer = layer(2, 2, 2, true);
    let (wide, narrow) = (su([2, 3, 2, 0, 0]), su([2, 2, 1, 0, 0]));
    let (uw, un) = (wide.utilization_for(&layer), narrow.utilization_for(&layer));
    assert_eq!((uw, un), (1.0, 1.0));
    assert!(SuShape::of(&wide, uw).covers(&SuShape::of(&narrow, un)));
    assert!(!SuShape::of(&narrow, un).covers(&SuShape::of(&wide, uw)));
    // A wider unrolling that idles more lanes covers nothing.
    assert!(!SuShape::of(&wide, 0.5).covers(&SuShape::of(&narrow, un)));
}
