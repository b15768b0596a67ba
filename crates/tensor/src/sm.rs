//! Sign-magnitude representation.
//!
//! Section III-B of the paper observes that DNN weight distributions are
//! dominated by values of small magnitude (positive *and* negative).  In
//! two's complement a small negative value such as `-3 = 0b1111_1101` has
//! many leading ones, which destroys bit-column sparsity; the same value in
//! sign-magnitude, `0b1000_0011`, has a single sign bit and only two
//! magnitude bits set.  Switching the representation alone raises ResNet18
//! conv2's bit-column sparsity from 17 % to 59 % (Fig. 4).
//!
//! The codec here maps `i8` values to an 8-bit sign-magnitude byte:
//! bit 7 is the sign (1 = negative), bits 6..0 are the magnitude.
//! The value `-128` cannot be represented in 8-bit sign-magnitude (its
//! magnitude 128 needs 8 bits); following the paper's symmetric quantisation
//! (which only produces values in `-127..=127`) it saturates to `-127`.

/// Bit mask of the sign bit in the sign-magnitude byte.
pub const SIGN_BIT: u8 = 0x80;

/// Bit mask of the magnitude field.
pub const MAGNITUDE_MASK: u8 = 0x7F;

/// Converts a two's-complement `i8` to its sign-magnitude byte.
///
/// `-128` saturates to the sign-magnitude encoding of `-127` (see module
/// docs).
///
/// # Example
///
/// ```
/// use bitwave_tensor::sm;
/// assert_eq!(sm::to_sign_magnitude(-3), 0b1000_0011);
/// assert_eq!(sm::to_sign_magnitude(3), 0b0000_0011);
/// assert_eq!(sm::to_sign_magnitude(0), 0);
/// ```
pub fn to_sign_magnitude(value: i8) -> u8 {
    if value >= 0 {
        value as u8
    } else {
        let magnitude = if value == i8::MIN {
            127u8
        } else {
            (-(value as i16)) as u8
        };
        SIGN_BIT | magnitude
    }
}

/// Converts a sign-magnitude byte back to a two's-complement `i8`.
///
/// The encoding `0b1000_0000` ("negative zero") decodes to `0`.
///
/// # Example
///
/// ```
/// use bitwave_tensor::sm;
/// assert_eq!(sm::from_sign_magnitude(0b1000_0011), -3);
/// assert_eq!(sm::from_sign_magnitude(0b1000_0000), 0);
/// ```
pub fn from_sign_magnitude(encoded: u8) -> i8 {
    let magnitude = (encoded & MAGNITUDE_MASK) as i16;
    if encoded & SIGN_BIT != 0 {
        (-magnitude) as i8
    } else {
        magnitude as i8
    }
}

/// Encodes a slice of `i8` values into sign-magnitude bytes.
pub fn encode_slice(values: &[i8]) -> Vec<u8> {
    values.iter().map(|&v| to_sign_magnitude(v)).collect()
}

/// Number of `1` bits in the two's-complement representation of `value`.
pub fn ones_twos_complement(value: i8) -> u32 {
    (value as u8).count_ones()
}

/// Number of `1` bits in the sign-magnitude representation of `value`.
pub fn ones_sign_magnitude(value: i8) -> u32 {
    to_sign_magnitude(value).count_ones()
}

/// Bit-level density (fraction of `1` bits out of 8) of a slice under
/// two's-complement encoding.
pub fn bit_density_twos_complement(values: &[i8]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let ones: u64 = values
        .iter()
        .map(|&v| u64::from(ones_twos_complement(v)))
        .sum();
    ones as f64 / (values.len() as f64 * 8.0)
}

/// Bit-level density (fraction of `1` bits out of 8) of a slice under
/// sign-magnitude encoding.
pub fn bit_density_sign_magnitude(values: &[i8]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let ones: u64 = values
        .iter()
        .map(|&v| u64::from(ones_sign_magnitude(v)))
        .sum();
    ones as f64 / (values.len() as f64 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        assert_eq!(to_sign_magnitude(0), 0b0000_0000);
        assert_eq!(to_sign_magnitude(1), 0b0000_0001);
        assert_eq!(to_sign_magnitude(-1), 0b1000_0001);
        assert_eq!(to_sign_magnitude(127), 0b0111_1111);
        assert_eq!(to_sign_magnitude(-127), 0b1111_1111);
        assert_eq!(to_sign_magnitude(-3), 0b1000_0011);
    }

    #[test]
    fn int8_min_saturates() {
        assert_eq!(to_sign_magnitude(i8::MIN), 0b1111_1111);
        assert_eq!(from_sign_magnitude(to_sign_magnitude(i8::MIN)), -127);
    }

    #[test]
    fn negative_zero_decodes_to_zero() {
        assert_eq!(from_sign_magnitude(SIGN_BIT), 0);
    }

    #[test]
    fn small_negative_values_have_fewer_ones_in_sm() {
        // -3 in two's complement: 0b1111_1101 (7 ones); in SM: 0b1000_0011 (3 ones).
        assert_eq!(ones_twos_complement(-3), 7);
        assert_eq!(ones_sign_magnitude(-3), 3);
    }

    #[test]
    fn slice_roundtrip() {
        let values: Vec<i8> = vec![0, 1, -1, 64, -64, 127, -127, 3, -3];
        let decoded: Vec<i8> = encode_slice(&values)
            .into_iter()
            .map(from_sign_magnitude)
            .collect();
        assert_eq!(decoded, values);
    }

    #[test]
    fn bit_density_gaussian_like_weights_drop_under_sm() {
        // A typical small-magnitude, zero-centred weight distribution has much
        // lower bit density in sign-magnitude (mirrors Fig. 1 of the paper).
        let values: Vec<i8> = (-20..=20).collect();
        let tc = bit_density_twos_complement(&values);
        let smd = bit_density_sign_magnitude(&values);
        assert!(smd < tc, "SM density {smd} should be below TC density {tc}");
    }

    #[test]
    fn empty_slice_density_is_zero() {
        assert_eq!(bit_density_twos_complement(&[]), 0.0);
        assert_eq!(bit_density_sign_magnitude(&[]), 0.0);
    }

    proptest! {
        #[test]
        fn roundtrip_all_values_except_min(v in -127i8..=127) {
            prop_assert_eq!(from_sign_magnitude(to_sign_magnitude(v)), v);
        }

        #[test]
        fn sign_matches_value_sign(v in -127i8..=127) {
            let encoded = to_sign_magnitude(v);
            prop_assert_eq!(encoded & SIGN_BIT != 0, v < 0);
            prop_assert_eq!((encoded & MAGNITUDE_MASK) as i16, (v as i16).abs());
        }

        #[test]
        fn sm_never_has_more_magnitude_ones(v in -127i8..=127) {
            // For non-negative values the encodings coincide; for negative values
            // sign-magnitude has exactly one sign bit plus the magnitude bits.
            let sm_ones = ones_sign_magnitude(v);
            prop_assert_eq!(sm_ones, (v.unsigned_abs()).count_ones() + u32::from(v < 0));
        }
    }
}
