//! Scalar ≡ bitplane equivalence suite.
//!
//! Every word-parallel kernel introduced by the bitplane refactor is checked
//! against a scalar executable specification (`compress_groups_scalar`,
//! `from_tensor_and_groups_scalar`, and the test-only naive Bit-Flip search
//! `oracle::flip_group_scalar`); the counts reduced while packing are also
//! held to per-group `group_mask` popcounts at every group size 1–64.  This suite drives both sides with arbitrary i8
//! slices — both encodings, all three hardware group sizes, lengths on
//! either side of the 64-element word boundary — and demands *exact*
//! equality, including bitwise f64 equality for every derived ratio, since
//! the golden reports are byte-compared.

mod oracle;

use bitwave_core::bitflip::flip_group;
use bitwave_core::compress::BcsCodec;
use bitwave_core::group::{extract_groups, group_slice, GroupSize};
use bitwave_core::stats::LayerSparsityStats;
use bitwave_tensor::bitplane::BitplaneTensor;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::prelude::*;
use bitwave_tensor::quant::QuantParams;
use proptest::prelude::*;

const ENCODINGS: [Encoding; 2] = [Encoding::TwosComplement, Encoding::SignMagnitude];
const HW_GROUPS: [GroupSize; 3] = [GroupSize::G8, GroupSize::G16, GroupSize::G32];

fn tensor_from(values: &[i8]) -> QuantTensor {
    QuantTensor::new(
        Shape::d1(values.len()),
        values.to_vec(),
        QuantParams::unit(),
    )
    .unwrap()
}

/// Asserts both analysis paths agree exactly on one tensor × group size.
fn assert_stats_equal(values: &[i8], group_size: GroupSize) {
    let tensor = tensor_from(values);
    let groups = extract_groups(&tensor, group_size).unwrap();
    let scalar = LayerSparsityStats::from_tensor_and_groups_scalar(&tensor, &groups);
    let packed = LayerSparsityStats::from_planes(tensor.data().len(), &groups.to_bitplanes());
    // `LayerSparsityStats` derives PartialEq over all its (f64-bearing)
    // fields, so this is bitwise-exact ratio equality.
    assert_eq!(scalar, packed, "stats diverge at g={}", group_size.len());
}

/// Asserts the packed compressor reproduces the scalar compressor bit for
/// bit (payload, index, sizes and ratios) on one slice × group size.
fn assert_bcs_equal(values: &[i8], group_size: GroupSize) {
    let grouped = group_slice(values, group_size);
    let planes = grouped.to_bitplanes();
    for encoding in ENCODINGS {
        let codec = BcsCodec::new(group_size, encoding);
        let scalar = codec.compress_groups_scalar(grouped.iter(), values.len());
        let packed = codec.compress_groups(grouped.iter(), values.len());
        assert_eq!(scalar, packed, "compressed tensors diverge");
        let sizes = codec.measure_packed(&planes, values.len());
        assert_eq!(sizes.payload_bits, scalar.payload_bits);
        assert_eq!(sizes.index_bits, scalar.index_bits);
        assert_eq!(sizes.original_bits(), scalar.original_bits());
        assert!(
            sizes.compression_ratio_ideal() == scalar.compression_ratio_ideal()
                && sizes.compression_ratio_with_index() == scalar.compression_ratio_with_index(),
            "size-only ratios diverge from scalar compressor"
        );
    }
}

/// Asserts the word-parallel bit-flip matches the scalar reference on one
/// group for a spread of zero-column targets.
fn assert_flip_equal(group: &[i8]) {
    for encoding in ENCODINGS {
        for target in 0..=8u32 {
            let scalar = oracle::flip_group_scalar(group, target, encoding);
            let packed = flip_group(group, target, encoding).unwrap();
            assert_eq!(scalar.flipped, packed.flipped);
            assert_eq!(scalar.achieved_zero_columns, packed.achieved_zero_columns);
            assert!(
                scalar.distance == packed.distance,
                "flip distances diverge: {} vs {}",
                scalar.distance,
                packed.distance
            );
        }
    }
}

#[test]
fn all_zero_tensors_agree() {
    for len in [1usize, 8, 63, 64, 65, 128, 129, 200] {
        let values = vec![0i8; len];
        for g in HW_GROUPS {
            assert_stats_equal(&values, g);
            assert_bcs_equal(&values, g);
        }
    }
    assert_flip_equal(&[0i8; 16]);
}

#[test]
fn all_negative_tensors_agree() {
    // Includes i8::MIN, which sign-magnitude saturates to 0xFF.
    for len in [7usize, 64, 65, 100] {
        let values: Vec<i8> = (0..len).map(|i| [-1i8, -64, -127, -128][i % 4]).collect();
        for g in HW_GROUPS {
            assert_stats_equal(&values, g);
            assert_bcs_equal(&values, g);
        }
    }
    assert_flip_equal(&[-1i8, -64, -127, -128, -2, -128, -3, -100]);
}

#[test]
fn lengths_around_the_word_boundary_agree() {
    // One word exactly, one bit short, one element over — the tail-masking
    // cases a packed kernel is most likely to get wrong.
    for len in [63usize, 64, 65, 127, 128, 129] {
        let values: Vec<i8> = (0..len).map(|i| (i as i8).wrapping_mul(37)).collect();
        for g in HW_GROUPS {
            assert_stats_equal(&values, g);
            assert_bcs_equal(&values, g);
        }
    }
}

/// Holds the counts reduced while packing (and everything read off them) to
/// the scalar oracles on one weight tensor × group size.
fn assert_fused_reduction_equal(tensor: &QuantTensor, g: usize) {
    let group_size = GroupSize::from_len(g);
    let groups = extract_groups(tensor, group_size).unwrap();
    let planes = groups.to_bitplanes();
    let counts = planes.counts();
    let data = tensor.data();
    let n = data.len();

    let scalar = LayerSparsityStats::from_tensor_and_groups_scalar(tensor, &groups);
    assert_eq!(LayerSparsityStats::from_planes(n, &planes), scalar, "g={g}");
    let nonzero = data.iter().filter(|&&v| v != 0).count() as u64;
    assert_eq!(counts.nonzero_elements, nonzero, "g={g}");

    let mut group_columns = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        let mask = group
            .iter()
            .fold(0u8, |m, &v| m | Encoding::SignMagnitude.encode(v));
        assert_eq!(planes.group_mask(Encoding::SignMagnitude, i), mask, "g={g}");
        group_columns.push(mask.count_ones());
    }
    assert_eq!(counts.group_columns, group_columns, "g={g}");

    for encoding in ENCODINGS {
        let ones: u64 = data
            .iter()
            .map(|&v| u64::from(encoding.encode(v).count_ones()))
            .sum();
        assert_eq!(counts.ones(encoding), ones, "g={g} {encoding:?}");
        let codec = BcsCodec::new(group_size, encoding);
        let oracle = codec.compress_groups_scalar(groups.iter(), n);
        let sizes = codec.measure_packed(&planes, n);
        assert_eq!(
            sizes.payload_bits, oracle.payload_bits,
            "g={g} {encoding:?}"
        );
        assert_eq!(sizes.index_bits, oracle.index_bits, "g={g} {encoding:?}");
        let columns: u64 = (0..groups.num_groups())
            .map(|i| u64::from(planes.group_mask(encoding, i).count_ones()))
            .sum();
        assert_eq!(
            counts.nonzero_columns(encoding),
            columns,
            "g={g} {encoding:?}"
        );
    }
}

#[test]
fn fused_reduction_agrees_at_every_group_size() {
    // Conv C = 20 (ragged for most G) with -128 lanes and kernel 1 all
    // zero (whole zero groups).
    let values: Vec<i8> = (0..4 * 20 * 3 * 3)
        .map(|i| match (i / 180, i % 11) {
            (1, _) | (_, 1 | 2) => 0,
            (_, 0) => -128,
            _ => (i as i8).wrapping_mul(29),
        })
        .collect();
    let conv =
        QuantTensor::new(Shape::conv_weight(4, 20, 3, 3), values, QuantParams::unit()).unwrap();
    for g in 1..=64 {
        assert_fused_reduction_equal(&conv, g);
    }
}

proptest! {
    #[test]
    fn fused_reduction_agrees_on_linear_and_conv_shapes(
        conv in any::<bool>(),
        k in 1usize..=5,
        c in 1usize..=70,
        g in prop_oneof![1usize..=64, Just(3), Just(24), Just(48)],
        pool in proptest::collection::vec(
            prop_oneof![4 => -128i8..=127, 2 => Just(0i8), 1 => Just(i8::MIN)],
            1..=64,
        ),
        zero_kernels in any::<u64>(),
    ) {
        let shape = if conv {
            Shape::conv_weight(k, c, 3, 3)
        } else {
            Shape::d2(k, c)
        };
        let per_kernel = shape.num_elements() / k;
        // Every kernel whose bit is set is all zero: whole zero groups.
        let values: Vec<i8> = (0..shape.num_elements())
            .map(|i| {
                if (zero_kernels >> ((i / per_kernel) % 64)) & 1 == 1 {
                    0
                } else {
                    pool[i % pool.len()]
                }
            })
            .collect();
        let tensor = QuantTensor::new(shape, values, QuantParams::unit()).unwrap();
        assert_fused_reduction_equal(&tensor, g);
    }

    #[test]
    fn stats_and_bcs_agree_on_arbitrary_slices(
        values in proptest::collection::vec(-128i8..=127, 1..200),
        g in prop_oneof![Just(GroupSize::G8), Just(GroupSize::G16), Just(GroupSize::G32)],
    ) {
        assert_stats_equal(&values, g);
        assert_bcs_equal(&values, g);
    }

    #[test]
    fn flips_agree_on_arbitrary_groups(
        group in proptest::collection::vec(-128i8..=127, 1..=32),
    ) {
        assert_flip_equal(&group);
    }

    #[test]
    fn packed_masks_agree_with_naive_extraction(
        values in proptest::collection::vec(-128i8..=127, 1..200),
        g in prop_oneof![Just(8usize), Just(16), Just(32)],
    ) {
        let planes = BitplaneTensor::from_slice(&values, g);
        for encoding in ENCODINGS {
            for (gi, group) in values.chunks(g).enumerate() {
                let mut naive = 0u8;
                for &v in group {
                    naive |= encoding.encode(v);
                }
                prop_assert_eq!(planes.group_mask(encoding, gi), naive);
            }
        }
    }
}
