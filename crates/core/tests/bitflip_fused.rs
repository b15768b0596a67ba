//! The one-pass Bit-Flip of the pipeline against the composition it
//! replaced.  The pipeline extracts a layer's groups once, flips them in
//! place (`flip_groups`), packs the flipped groups straight into planes
//! (`PackedAnalysis::from_groups`) and reassembles the tensor.  The oracle
//! flips group by group into fresh vectors with the exhaustive search,
//! reassembles, measures the RMS with a separate distance pass and then
//! analyses the flipped tensor from scratch.  Every
//! flipped weight, plane, statistic, BCS size and `FlipStats` field must
//! agree bit for bit, padded groups included.

#[path = "oracle/flip_tensor.rs"]
mod flip_tensor_oracle;
mod oracle;

use bitwave_core::bitflip::{flip_groups, flip_tensor, FlipStats};
use bitwave_core::group::{extract_groups, reassemble_tensor, GroupSize};
use bitwave_core::stats::{LayerSparsityStats, PackedAnalysis};
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::quant::QuantParams;
use bitwave_tensor::{QuantTensor, Shape};
use proptest::prelude::*;

const ENCODINGS: [Encoding; 2] = [Encoding::TwosComplement, Encoding::SignMagnitude];

/// Deterministic pseudo-random weights (splitmix64 bytes), arithmetically
/// shifted right by `shift` so small shifts give dense columns and large
/// ones give the small magnitudes of trained layers.
fn weights(shape: Shape, seed: u64, shift: u32) -> QuantTensor {
    let mut state = seed;
    let data = (0..shape.num_elements())
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) as i8) >> shift
        })
        .collect();
    QuantTensor::new(shape, data, QuantParams::unit()).unwrap()
}

fn stats_bits(s: &FlipStats) -> (usize, usize, u64, u64) {
    (
        s.groups,
        s.groups_modified,
        s.rms_perturbation.to_bits(),
        s.mean_zero_columns.to_bits(),
    )
}

fn sparsity_bits(s: &LayerSparsityStats) -> [u64; 7] {
    [
        s.num_weights as u64,
        s.value_sparsity.to_bits(),
        s.bit_sparsity_twos_complement.to_bits(),
        s.bit_sparsity_sign_magnitude.to_bits(),
        s.column_sparsity_twos_complement.to_bits(),
        s.column_sparsity_sign_magnitude.to_bits(),
        s.group_size as u64,
    ]
}

/// Checks every target and encoding on one tensor at group size `g`.
fn check(tensor: &QuantTensor, g: usize) {
    let group_size = GroupSize::from_len(g);
    for encoding in ENCODINGS {
        for target in 0..=8u32 {
            let case = format!(
                "{:?} G={g} target {target} {encoding:?}",
                tensor.shape().dims()
            );
            let (expected, expected_stats) =
                flip_tensor_oracle::flip_tensor(tensor, group_size, target, encoding);
            let oracle = flip_tensor_oracle::analyse(&expected, group_size, encoding);

            let mut groups = extract_groups(tensor, group_size).unwrap();
            let stats = flip_groups(&mut groups, target, encoding).unwrap();
            let packed = PackedAnalysis::from_groups(&groups, encoding);
            let flipped = reassemble_tensor(tensor, &groups).unwrap();

            assert_eq!(flipped, expected, "flipped tensor, {case}");
            assert_eq!(stats_bits(&stats), stats_bits(&expected_stats), "{case}");
            assert_eq!(packed.planes, oracle.planes, "planes, {case}");
            assert_eq!(
                sparsity_bits(&packed.stats),
                sparsity_bits(&oracle.stats),
                "stats, {case}"
            );
            assert_eq!(packed.bcs, oracle.bcs, "BCS sizes, {case}");
            assert_eq!(
                PackedAnalysis::of(&expected, group_size, encoding).unwrap(),
                packed,
                "PackedAnalysis::of, {case}"
            );

            // `flip_tensor` is the same pass plus reassembly.
            let (via_tensor, tensor_stats) =
                flip_tensor(tensor, group_size, target, encoding).unwrap();
            assert_eq!(via_tensor, expected, "flip_tensor, {case}");
            assert_eq!(
                stats_bits(&tensor_stats),
                stats_bits(&expected_stats),
                "{case}"
            );
        }
    }
}

/// A group size: one of the hardware sizes or any custom size up to 64.
fn group_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(32), 1usize..=64]
}

/// Grouped-axis length off a multiple of `g` (when `g > 1`), so the tail
/// group of every row is padded, or an exact multiple.
fn axis_len(g: usize, raw: usize, multiple: bool) -> usize {
    if multiple {
        g * (1 + raw % 2)
    } else if g > 1 && raw % g == 0 {
        raw + 1
    } else {
        raw
    }
}

#[test]
fn paper_group_sizes_on_fixed_shapes() {
    for g in [8, 16, 32] {
        check(&weights(Shape::conv_weight(2, 40, 3, 3), 1, 4), g);
        check(&weights(Shape::conv_weight(3, 20, 1, 1), 2, 2), g);
        check(&weights(Shape::d2(3, 50), 3, 5), g);
        check(&weights(Shape::d1(77), 4, 0), g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_flip_and_pack_match_the_oracle(
        g in group_size(),
        k in 1usize..=2,
        raw_c in 1usize..=48,
        multiple in any::<bool>(),
        fy in 1usize..=3,
        fx in 1usize..=3,
        seed in any::<u64>(),
        shift in 0u32..=6,
    ) {
        let shape = Shape::conv_weight(k, axis_len(g, raw_c, multiple), fy, fx);
        check(&weights(shape, seed, shift), g);
    }

    #[test]
    fn linear_flip_and_pack_match_the_oracle(
        g in group_size(),
        rows in 1usize..=4,
        raw_c in 1usize..=100,
        multiple in any::<bool>(),
        seed in any::<u64>(),
        shift in 0u32..=6,
    ) {
        check(&weights(Shape::d2(rows, axis_len(g, raw_c, multiple)), seed, shift), g);
    }

    #[test]
    fn vector_flip_and_pack_match_the_oracle(
        g in group_size(),
        raw_c in 1usize..=200,
        multiple in any::<bool>(),
        seed in any::<u64>(),
        shift in 0u32..=6,
    ) {
        check(&weights(Shape::d1(axis_len(g, raw_c, multiple)), seed, shift), g);
    }
}
