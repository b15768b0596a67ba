//! The table-driven Bit-Flip search against the naive oracle: every entry
//! of the separable cost table, and whole-group flips on arbitrary groups.

mod oracle;

use bitwave_core::bitflip::{flip_group, FlipTable};
use bitwave_tensor::bits::Encoding;
use proptest::prelude::*;

const ENCODINGS: [Encoding; 2] = [Encoding::TwosComplement, Encoding::SignMagnitude];

#[test]
fn table_matches_naive_nearest_for_every_mask_and_value() {
    for encoding in ENCODINGS {
        let table = FlipTable::get(encoding);
        for mask in 0..=u8::MAX {
            let candidates = oracle::representable(mask, encoding);
            for value in i8::MIN..=i8::MAX {
                let expected = oracle::nearest(value, &candidates, encoding);
                let d = i32::from(value) - i32::from(expected);
                assert_eq!(
                    table.nearest(mask, value),
                    expected,
                    "{encoding:?} mask {mask:#010b} value {value}"
                );
                assert_eq!(
                    table.cost(mask, value),
                    (d * d) as u32,
                    "{encoding:?} mask {mask:#010b} value {value}"
                );
            }
        }
    }
}

#[test]
fn table_ties_go_to_the_lower_candidate() {
    // Columns 1 and 2 allow {0, 2, 4, 6}: 3 is equally far from 2 and 4.
    let tc = FlipTable::get(Encoding::TwosComplement);
    assert_eq!(tc.nearest(0b0000_0110, 3), 2);
    assert_eq!(tc.cost(0b0000_0110, 3), 1);
    // Sign-magnitude breaks the tie on magnitude: -3 goes to -2, not -4.
    let sm = FlipTable::get(Encoding::SignMagnitude);
    assert_eq!(sm.nearest(0b1000_0110, -3), -2);
    assert_eq!(sm.nearest(0b0000_0110, 3), 2);
}

#[test]
fn table_projects_a_disallowed_sign_to_the_smallest_magnitude() {
    let sm = FlipTable::get(Encoding::SignMagnitude);
    for value in [-1i8, -5, -64, -127, -128] {
        assert_eq!(sm.nearest(0b0111_1111, value), 0);
        assert_eq!(
            sm.cost(0b0111_1111, value),
            (i32::from(value)).pow(2) as u32
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitplane_flip_equals_scalar(
        group in proptest::collection::vec(-127i8..=127, 1..=32),
        target in 0u32..=8,
    ) {
        // The table-driven search must reproduce the exhaustive scalar
        // search bit for bit: same flipped values, same (exact) distance.
        for encoding in ENCODINGS {
            let fast = flip_group(&group, target, encoding).unwrap();
            let scalar = oracle::flip_group_scalar(&group, target, encoding);
            prop_assert_eq!(&fast.flipped, &scalar.flipped);
            prop_assert_eq!(fast.distance, scalar.distance);
            prop_assert_eq!(fast.achieved_zero_columns, scalar.achieved_zero_columns);
        }
    }
}
