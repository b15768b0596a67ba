//! The Bit-Flip weight perturbation (Section III-D, Fig. 4c).
//!
//! Bit-Flip is a *one-shot, training-free* optimisation: it rewrites each
//! weight group so that at least a target number of bit columns become zero,
//! choosing per group the replacement vector **closest in Euclidean distance
//! to the original** (the paper's example: `-3 → -4` at distance 1 frees a
//! bit column).  Because the constraint is "at most `8 - target` non-zero
//! columns", the search space per group is the set of 8-bit column masks of
//! bounded population count; for every candidate mask the best replacement of
//! each weight is the nearest value whose sign-magnitude encoding uses only
//! allowed columns.

use crate::error::CoreError;
use crate::group::{extract_groups, reassemble_tensor, GroupSize, Groups};
use bitwave_tensor::bits::{Encoding, WORD_BITS};
use bitwave_tensor::QuantTensor;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Result of flipping one weight group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlipOutcome {
    /// The flipped weight group.
    pub flipped: Vec<i8>,
    /// Euclidean distance between the original and the flipped group.
    pub distance: f64,
    /// Zero-column count of the flipped group (always ≥ the requested
    /// target).
    pub achieved_zero_columns: u32,
}

/// Aggregate statistics of flipping a whole weight slice or tensor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlipStats {
    /// Number of groups processed.
    pub groups: usize,
    /// Number of groups that had to be modified.
    pub groups_modified: usize,
    /// Root-mean-square perturbation over all weights.
    pub rms_perturbation: f64,
    /// Mean number of zero columns per group after flipping.
    pub mean_zero_columns: f64,
}

/// Flips a single group so that it has at least `target_zero_columns` zero
/// bit-columns under `encoding`, minimising the Euclidean distance to the
/// original group.
///
/// `target_zero_columns` is clamped to `0..=8`.  A target of 8 forces the
/// whole group to zero.
///
/// Only column masks with exactly `8 - target` allowed columns are
/// searched (larger allowed sets dominate smaller ones).  Projecting onto a
/// mask moves every weight independently to its nearest representable
/// value, so a mask's squared distance is a sum of per-value costs: one
/// pass over the group adds up, from the [`FlipTable`], the totals of all
/// candidate masks at once.  The winner is the first mask in ascending
/// order with the minimal total — the mask an exhaustive per-mask
/// projection search keeps when it replaces its incumbent only on strictly
/// smaller cost, since the costs are exact integers.  Only the winning
/// mask's projection is materialised.  This is the kernel of
/// [`flip_groups`] run on one group.
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] if `group` is empty or longer
/// than 64 elements (the hardware group sizes are 8/16/32).
pub fn flip_group(
    group: &[i8],
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<FlipOutcome, CoreError> {
    check_group_len(group.len())?;
    let mut flipped = group.to_vec();
    let tally = FlipTable::get(encoding)
        .flip_all(std::iter::once(flipped.as_mut_slice()), target_zero_columns);
    Ok(FlipOutcome {
        flipped,
        distance: (tally.squared_distance as f64).sqrt(),
        achieved_zero_columns: tally.zero_columns as u32,
    })
}

/// Rejects group lengths the Bit-Flip search cannot handle.
fn check_group_len(len: usize) -> Result<(), CoreError> {
    if (1..=64).contains(&len) {
        Ok(())
    } else {
        Err(CoreError::InvalidGroupLength(len))
    }
}

/// Running totals of a flip over many groups.  Every squared cost is an
/// exact integer, so the total needs no floating-point accumulation.
#[derive(Debug, Default)]
struct FlipTally {
    groups: usize,
    groups_modified: usize,
    squared_distance: u64,
    zero_columns: u64,
}

impl FlipTally {
    /// The aggregate statistics over `num_weights` unpadded weights.
    /// Padding costs nothing (0 is representable under every mask), so the
    /// RMS over the padded groups is the RMS over the weights.
    fn stats(&self, num_weights: usize) -> FlipStats {
        FlipStats {
            groups: self.groups,
            groups_modified: self.groups_modified,
            rms_perturbation: (self.squared_distance as f64).sqrt()
                / (num_weights.max(1) as f64).sqrt(),
            mean_zero_columns: if self.groups > 0 {
                self.zero_columns as f64 / self.groups as f64
            } else {
                0.0
            },
        }
    }
}

/// The separable Bit-Flip cost table of one encoding: for every column mask
/// and every value, the nearest value whose encoding uses only the mask's
/// columns, and the squared distance to it.
///
/// Ties break as the per-mask projection always has: the lower candidate
/// wins (the lower value in two's complement, the lower magnitude in
/// sign-magnitude), and a negative value under a mask without the sign
/// column projects to the smallest representable magnitude, 0.  Every value
/// differs from its projection by at most 128 (0 is always representable),
/// so a 64-element group total fits in a `u32`.  Costs are stored as `u32`
/// too: the search adds whole cost rows to its totals, and same-width rows
/// add without a widening step.
pub struct FlipTable {
    /// `encoded[value as u8]`: the byte `value` encodes to.
    encoded: [u8; 256],
    /// `nearest[mask][value as u8]`.
    nearest: Box<[[i8; 256]; 256]>,
    /// `masks_by_popcount[k]`: the masks with popcount `k`, ascending.
    masks_by_popcount: [Vec<u8>; WORD_BITS + 1],
    /// `costs_by_popcount[k][value as u8 * n + j]`: the cost of projecting
    /// `value` onto `masks_by_popcount[k][j]`, where `n` is the number of
    /// masks of popcount `k` — one value's costs for all those masks are
    /// contiguous.
    costs_by_popcount: [Vec<u32>; WORD_BITS + 1],
}

impl FlipTable {
    /// The table of `encoding`, built on first use and shared afterwards.
    pub fn get(encoding: Encoding) -> &'static FlipTable {
        static TWOS_COMPLEMENT: OnceLock<FlipTable> = OnceLock::new();
        static SIGN_MAGNITUDE: OnceLock<FlipTable> = OnceLock::new();
        let cell = match encoding {
            Encoding::TwosComplement => &TWOS_COMPLEMENT,
            Encoding::SignMagnitude => &SIGN_MAGNITUDE,
        };
        cell.get_or_init(|| FlipTable::build(encoding))
    }

    fn build(encoding: Encoding) -> Self {
        let mut nearest = Box::new([[0i8; 256]; 256]);
        for (mask, row) in (0..=u8::MAX).zip(nearest.iter_mut()) {
            let projection = ColumnProjection::new(mask, encoding);
            for (byte, slot) in (0..=u8::MAX).zip(row.iter_mut()) {
                *slot = projection.nearest(byte as i8);
            }
        }
        let masks_by_popcount: [Vec<u8>; WORD_BITS + 1] = std::array::from_fn(|k| {
            (0..=u8::MAX)
                .filter(|m| m.count_ones() as usize == k)
                .collect()
        });
        let costs_by_popcount = std::array::from_fn(|k| {
            let masks = &masks_by_popcount[k];
            let mut costs = Vec::with_capacity(256 * masks.len());
            for byte in 0..=u8::MAX {
                for &mask in masks {
                    let d = i32::from(byte as i8)
                        - i32::from(nearest[usize::from(mask)][usize::from(byte)]);
                    costs.push(d.unsigned_abs().pow(2));
                }
            }
            costs
        });
        Self {
            encoded: std::array::from_fn(|byte| encoding.encode(byte as u8 as i8)),
            nearest,
            masks_by_popcount,
            costs_by_popcount,
        }
    }

    /// Flips every group of `groups` in place to at least
    /// `target_zero_columns` zero columns (clamped to `0..=8`) under this
    /// table's encoding.  Groups must hold `1..=64` weights.
    fn flip_all<'a>(
        &self,
        groups: impl Iterator<Item = &'a mut [i8]>,
        target_zero_columns: u32,
    ) -> FlipTally {
        let target = target_zero_columns.min(WORD_BITS as u32);
        // The number of candidate masks, C(8, popcount), fixes the width of
        // the per-group totals array.
        match WORD_BITS - target as usize {
            0 | 8 => self.flip_all_n::<1>(groups, target),
            1 | 7 => self.flip_all_n::<8>(groups, target),
            2 | 6 => self.flip_all_n::<28>(groups, target),
            3 | 5 => self.flip_all_n::<56>(groups, target),
            _ => self.flip_all_n::<70>(groups, target),
        }
    }

    /// [`FlipTable::flip_all`] with the `N` candidate masks of popcount
    /// `8 - target`: a group short of the target sums the `N` mask totals
    /// from its cost rows in one pass, keeps the first minimal total (ties
    /// go to the lower mask) and is overwritten with that mask's
    /// projection.
    fn flip_all_n<'a, const N: usize>(
        &self,
        groups: impl Iterator<Item = &'a mut [i8]>,
        target: u32,
    ) -> FlipTally {
        let popcount = WORD_BITS - target as usize;
        let masks: &[u8; N] = self.masks_by_popcount[popcount]
            .as_slice()
            .try_into()
            .expect("C(8, popcount) masks");
        // Sliced to its known length so the row lookups need no bounds
        // checks.
        let costs = &self.costs_by_popcount[popcount][..256 * N];
        let mut tally = FlipTally::default();
        for group in groups {
            tally.groups += 1;
            let current = (!self.used_columns(group)).count_ones();
            if current >= target {
                tally.zero_columns += u64::from(current);
                continue;
            }
            let mut totals = [0u32; N];
            for &w in group.iter() {
                let row: &[u32; N] = costs[usize::from(w as u8) * N..][..N]
                    .try_into()
                    .expect("one cost row of N masks per byte value");
                for (total, &c) in totals.iter_mut().zip(row) {
                    *total += c;
                }
            }
            let (mut best, mut best_total) = (0, totals[0]);
            for (j, &total) in totals.iter().enumerate().skip(1) {
                if total < best_total {
                    best = j;
                    best_total = total;
                }
            }
            let nearest = &self.nearest[usize::from(masks[best])];
            for w in group.iter_mut() {
                *w = nearest[usize::from(*w as u8)];
            }
            let used = self.used_columns(group);
            debug_assert!((!used).count_ones() >= target);
            tally.groups_modified += usize::from(best_total > 0);
            tally.squared_distance += u64::from(best_total);
            tally.zero_columns += u64::from((!used).count_ones());
        }
        tally
    }

    /// The columns any element of `group` uses (the OR of the encoded
    /// bytes).
    fn used_columns(&self, group: &[i8]) -> u8 {
        group
            .iter()
            .fold(0, |used, &w| used | self.encoded[usize::from(w as u8)])
    }

    /// The nearest value to `value` that uses only the columns in `mask`.
    pub fn nearest(&self, mask: u8, value: i8) -> i8 {
        self.nearest[usize::from(mask)][usize::from(value as u8)]
    }

    /// The squared distance from `value` to [`FlipTable::nearest`], as the
    /// search reads it.
    pub fn cost(&self, mask: u8, value: i8) -> u32 {
        let k = mask.count_ones() as usize;
        let masks = &self.masks_by_popcount[k];
        let j = masks
            .binary_search(&mask)
            .expect("every mask sits in its popcount bucket");
        self.costs_by_popcount[k][usize::from(value as u8) * masks.len() + j]
    }
}

/// Per-mask projection: the values reachable using only the allowed
/// columns.  Builds the [`FlipTable`] rows.
enum ColumnProjection {
    /// Sign-magnitude: sorted representable magnitudes plus whether the sign
    /// column is allowed.
    SignMagnitude {
        magnitudes: Vec<u8>,
        sign_allowed: bool,
    },
    /// Two's complement: sorted representable values.
    TwosComplement { values: Vec<i8> },
}

impl ColumnProjection {
    fn new(mask: u8, encoding: Encoding) -> Self {
        match encoding {
            Encoding::SignMagnitude => ColumnProjection::SignMagnitude {
                magnitudes: representable_magnitudes(mask & 0x7F),
                sign_allowed: mask & 0x80 != 0,
            },
            Encoding::TwosComplement => ColumnProjection::TwosComplement {
                values: representable_twos_complement(mask),
            },
        }
    }

    /// Nearest representable value; ties go to the first (lowest) entry of
    /// the sorted candidate list.
    fn nearest(&self, value: i8) -> i8 {
        match self {
            ColumnProjection::SignMagnitude {
                magnitudes,
                sign_allowed,
            } => nearest_sign_magnitude(value, magnitudes, *sign_allowed),
            ColumnProjection::TwosComplement { values } => nearest_value(value, values),
        }
    }
}

/// All magnitudes expressible using only the allowed magnitude bits, sorted
/// ascending.
fn representable_magnitudes(allowed: u8) -> Vec<u8> {
    let mut out = Vec::new();
    // Iterate over all submasks of `allowed` (including 0).
    let mut sub = allowed;
    loop {
        out.push(sub);
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & allowed;
    }
    out.sort_unstable();
    out
}

/// All two's-complement byte values whose set bits are within `allowed`,
/// decoded to `i8` and sorted.
fn representable_twos_complement(allowed: u8) -> Vec<i8> {
    let mut out = Vec::new();
    let mut sub = allowed;
    loop {
        out.push(sub as i8);
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & allowed;
    }
    out.sort_unstable();
    out
}

fn nearest_sign_magnitude(value: i8, magnitudes: &[u8], sign_allowed: bool) -> i8 {
    let target_magnitude = i16::from(value).unsigned_abs() as u8;
    let nearest_mag = nearest_in_sorted_u8(target_magnitude, magnitudes);
    if value >= 0 {
        nearest_mag as i8
    } else if sign_allowed {
        -(i16::from(nearest_mag)) as i8
    } else {
        // Sign column must stay zero: the best non-negative replacement of a
        // negative value is the smallest representable magnitude (including 0).
        magnitudes[0] as i8
    }
}

fn nearest_in_sorted_u8(target: u8, sorted: &[u8]) -> u8 {
    debug_assert!(!sorted.is_empty());
    let mut best = sorted[0];
    let mut best_dist = i16::from(best).abs_diff(i16::from(target));
    for &m in sorted {
        let d = i16::from(m).abs_diff(i16::from(target));
        if d < best_dist {
            best = m;
            best_dist = d;
        }
    }
    best
}

fn nearest_value(value: i8, sorted: &[i8]) -> i8 {
    debug_assert!(!sorted.is_empty());
    let mut best = sorted[0];
    let mut best_dist = (i16::from(best) - i16::from(value)).unsigned_abs();
    for &v in sorted {
        let d = (i16::from(v) - i16::from(value)).unsigned_abs();
        if d < best_dist {
            best = v;
            best_dist = d;
        }
    }
    best
}

/// Flips every group of a flat weight slice (the trailing group may be
/// short).  Returns the flipped weights and aggregate statistics.
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] for group sizes outside `1..=64`.
pub fn flip_slice(
    weights: &[i8],
    group_size: GroupSize,
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<(Vec<i8>, FlipStats), CoreError> {
    let g = group_size.len();
    check_group_len(g)?;
    let mut out = weights.to_vec();
    let tally = FlipTable::get(encoding).flip_all(out.chunks_mut(g), target_zero_columns);
    Ok((out, tally.stats(weights.len())))
}

/// Flips extracted weight groups in place — the Bit-Flip pass of the
/// pipeline, which packs the flipped groups straight into bitplanes
/// ([`crate::stats::PackedAnalysis::from_groups`]) and reassembles the
/// tensor only for the weights it hands on.  Zero padding stays zero and
/// costs nothing, so the statistics are those of the unpadded weights.
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] for group sizes outside `1..=64`.
pub fn flip_groups(
    groups: &mut Groups,
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<FlipStats, CoreError> {
    check_group_len(groups.group_size())?;
    let tally = FlipTable::get(encoding).flip_all(groups.iter_mut(), target_zero_columns);
    Ok(tally.stats(groups.num_weights()))
}

/// Flips a whole weight tensor, grouping along the input-channel axis exactly
/// as [`extract_groups`] does, and returns the flipped tensor plus stats.
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedRank`] for ungroupable tensors and
/// [`CoreError::InvalidGroupLength`] for group sizes outside `1..=64`.
pub fn flip_tensor(
    tensor: &QuantTensor,
    group_size: GroupSize,
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<(QuantTensor, FlipStats), CoreError> {
    let mut groups = extract_groups(tensor, group_size)?;
    let stats = flip_groups(&mut groups, target_zero_columns, encoding)?;
    Ok((reassemble_tensor(tensor, &groups)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::bits::zero_column_count;
    use bitwave_tensor::prelude::*;
    use bitwave_tensor::quant::QuantParams;
    use proptest::prelude::*;

    #[test]
    fn already_sparse_group_is_untouched() {
        let group = [0i8, 1, 0, 1];
        let out = flip_group(&group, 4, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, group);
        assert_eq!(out.distance, 0.0);
    }

    #[test]
    fn paper_example_minus_three_flips_to_minus_four() {
        // Fig. 4(c): targeting five zero columns tunes -3 to -4 at distance 1.
        // Build a group whose other elements already only use bit 2 and the sign.
        let group = [-3i8, 4, -4, 4];
        let out = flip_group(&group, 6, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, vec![-4, 4, -4, 4]);
        assert_eq!(out.distance, 1.0);
        assert!(out.achieved_zero_columns >= 6);
    }

    #[test]
    fn target_eight_zero_columns_forces_all_zero() {
        let group = [13i8, -77, 3, 120];
        let out = flip_group(&group, 8, Encoding::SignMagnitude).unwrap();
        assert!(out.flipped.iter().all(|&v| v == 0));
        assert_eq!(out.achieved_zero_columns, 8);
    }

    #[test]
    fn target_zero_never_changes_anything() {
        let group = [13i8, -77, 3, 120];
        let out = flip_group(&group, 0, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, group);
    }

    #[test]
    fn twos_complement_flipping_also_satisfies_constraint() {
        let group = [-3i8, 5, -7, 2, 9, -1, 0, 4];
        for target in 1..=6u32 {
            let out = flip_group(&group, target, Encoding::TwosComplement).unwrap();
            assert!(
                out.achieved_zero_columns >= target,
                "target {target} not met: {:?}",
                out.flipped
            );
        }
    }

    #[test]
    fn distance_grows_monotonically_with_target() {
        let group = [33i8, -75, 14, -2, 91, -60, 7, 8];
        let mut last = 0.0;
        for target in 0..=8u32 {
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            assert!(
                out.distance >= last - 1e-9,
                "distance should not decrease with a stricter target"
            );
            last = out.distance;
        }
    }

    #[test]
    fn flip_slice_statistics() {
        let weights: Vec<i8> = (0..64).map(|i| ((i * 7) % 23 - 11) as i8).collect();
        let (flipped, stats) =
            flip_slice(&weights, GroupSize::G8, 5, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.len(), weights.len());
        assert_eq!(stats.groups, 8);
        assert!(stats.mean_zero_columns >= 5.0);
        assert!(stats.rms_perturbation > 0.0);
        assert!(stats.groups_modified > 0);
    }

    #[test]
    fn flip_tensor_respects_grouping_axis() {
        let gen = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.05 }, 9);
        let w = gen.generate(Shape::conv_weight(4, 16, 3, 3));
        let q = quantize_per_tensor(&w, 8).unwrap();
        let (flipped, stats) = flip_tensor(&q, GroupSize::G16, 4, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.shape(), q.shape());
        assert!(stats.mean_zero_columns >= 4.0);
        // The flipped tensor must reach the column-sparsity target for every group.
        let groups = extract_groups(&flipped, GroupSize::G16).unwrap();
        for g in groups.iter() {
            assert!(zero_column_count(g, Encoding::SignMagnitude) >= 4);
        }
    }

    #[test]
    fn flipping_preserves_quant_params_and_shape() {
        let q = QuantTensor::new(
            Shape::d2(2, 8),
            (0..16).map(|i| (i as i8) - 8).collect(),
            QuantParams::symmetric(0.02, 8),
        )
        .unwrap();
        let (flipped, _) = flip_tensor(&q, GroupSize::G8, 3, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.params(), q.params());
        assert_eq!(flipped.shape(), q.shape());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn constraint_always_satisfied(
            group in proptest::collection::vec(-127i8..=127, 1..=32),
            target in 0u32..=8,
        ) {
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            prop_assert!(out.achieved_zero_columns >= target.min(8));
            prop_assert_eq!(out.flipped.len(), group.len());
        }

        #[test]
        fn flip_is_idempotent(
            group in proptest::collection::vec(-127i8..=127, 1..=16),
            target in 0u32..=7,
        ) {
            let once = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            let twice = flip_group(&once.flipped, target, Encoding::SignMagnitude).unwrap();
            prop_assert_eq!(&twice.flipped, &once.flipped);
            prop_assert_eq!(twice.distance, 0.0);
        }

        #[test]
        fn distance_bounded_by_zeroing_everything(
            group in proptest::collection::vec(-127i8..=127, 1..=16),
            target in 0u32..=8,
        ) {
            // Zeroing the whole group always satisfies any target, so the optimal
            // distance can never exceed the norm of the group.
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            let norm = group.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>().sqrt();
            prop_assert!(out.distance <= norm + 1e-9);
        }
    }
}
