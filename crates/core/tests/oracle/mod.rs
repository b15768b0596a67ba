//! Naive reference implementations that the optimised kernels are checked
//! against.  Nothing here is tuned: every function is the most direct
//! statement of its specification.

use bitwave_core::bitflip::FlipOutcome;
use bitwave_tensor::bits::{zero_column_count, Encoding, WORD_BITS};

/// Every value whose encoding uses only the columns in `mask` (and decodes
/// back to itself, which rules out sign-magnitude's saturated −128),
/// ascending.
pub fn representable(mask: u8, encoding: Encoding) -> Vec<i8> {
    (i8::MIN..=i8::MAX)
        .filter(|&v| {
            let byte = encoding.encode(v);
            byte & !mask == 0 && encoding.decode(byte) == v
        })
        .collect()
}

/// The representable value nearest to `value`.  Ties go to the lower value
/// in two's complement and to the lower magnitude in sign-magnitude; a
/// negative value under a mask without the sign column therefore lands on
/// 0, the smallest representable magnitude.
pub fn nearest(value: i8, candidates: &[i8], encoding: Encoding) -> i8 {
    let tie_rank = |v: i8| match encoding {
        Encoding::TwosComplement => i16::from(v),
        Encoding::SignMagnitude => i16::from(v).abs(),
    };
    *candidates
        .iter()
        .min_by_key(|&&v| ((i16::from(v) - i16::from(value)).abs(), tie_rank(v)))
        .expect("0 is always representable")
}

/// Projects every weight of `group` onto the nearest value whose encoding
/// uses only the columns allowed by `mask`.
pub fn project_group(group: &[i8], mask: u8, encoding: Encoding) -> Vec<i8> {
    let candidates = representable(mask, encoding);
    group
        .iter()
        .map(|&w| nearest(w, &candidates, encoding))
        .collect()
}

/// Squared Euclidean distance between two equally long groups.
pub fn squared_distance(a: &[i8], b: &[i8]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Exhaustive Bit-Flip search: project the group onto every mask with
/// `8 - target` allowed columns, in ascending mask order, and keep the first
/// projection of minimal squared distance.
pub fn flip_group_scalar(
    group: &[i8],
    target_zero_columns: u32,
    encoding: Encoding,
) -> FlipOutcome {
    let target = target_zero_columns.min(WORD_BITS as u32);
    let current = zero_column_count(group, encoding);
    if current >= target {
        return FlipOutcome {
            flipped: group.to_vec(),
            distance: 0.0,
            achieved_zero_columns: current,
        };
    }
    let allowed_nonzero = WORD_BITS as u32 - target;
    let mut best: Option<(Vec<i8>, f64)> = None;
    for mask in (0..=u8::MAX).filter(|m| m.count_ones() == allowed_nonzero) {
        let candidate = project_group(group, mask, encoding);
        let cost = squared_distance(group, &candidate);
        if best.as_ref().is_none_or(|(_, best_cost)| cost < *best_cost) {
            best = Some((candidate, cost));
        }
    }
    let (flipped, cost) = best.expect("at least one mask with the requested popcount exists");
    FlipOutcome {
        distance: cost.sqrt(),
        achieved_zero_columns: zero_column_count(&flipped, encoding),
        flipped,
    }
}
