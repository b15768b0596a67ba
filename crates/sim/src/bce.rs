//! The BitWave Compute Engine (BCE) and its sign-magnitude multipliers
//! (Fig. 8).
//!
//! One BCE multiplies a single 1-bit weight column (8 weights wide) with
//! eight full-precision two's-complement activations per cycle, following
//! the five steps of Fig. 8:
//!
//! 1. **Input loading** — 8 activations, an 8×1b weight column, the weight
//!    sign bits;
//! 2. **SMM** — eight AND gates form the partial products, the XOR of weight
//!    and activation signs decides each product's sign;
//! 3. **Partial-sum accumulation** — the eight signed partial products are
//!    added;
//! 4. **Single shift** — one shared shifter aligns the column sum to its bit
//!    significance ("add-then-shift", the source of the Table IV energy
//!    advantage over per-lane shifting);
//! 5. **Output generation** — the shifted sum accumulates into the output
//!    register.

use crate::zcip::ParsedIndex;
use bitwave_core::compress::BcsGroup;
use serde::{Deserialize, Serialize};

/// Number of sign-magnitude multiplier lanes per BCE (the `Cu = 8` weights of
/// one group slice).
pub const BCE_LANES: usize = 8;

/// Statistics of one group execution on a BCE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BceStats {
    /// Compute cycles spent (one per non-zero magnitude column).
    pub cycles: u64,
    /// 1b×8b multiplications performed (lanes × cycles).
    pub bit_multiplications: u64,
    /// Columns skipped thanks to bit-column sparsity.
    pub skipped_columns: u64,
}

/// One BitWave Compute Engine.
#[derive(Debug, Clone, Default)]
pub struct BitColumnEngine {
    accumulator: i64,
    stats: BceStats,
}

impl BitColumnEngine {
    /// A fresh engine with a cleared accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the output register (between output pixels / channels).
    pub fn reset_accumulator(&mut self) {
        self.accumulator = 0;
    }

    /// The accumulated output value.
    pub fn accumulator(&self) -> i64 {
        self.accumulator
    }

    /// Execution statistics since construction.
    pub fn stats(&self) -> BceStats {
        self.stats
    }

    /// Executes one compressed weight group against `activations`
    /// (one activation per lane), following the ZCIP schedule.
    ///
    /// `group` must come from a sign-magnitude [`bitwave_core::compress::BcsCodec`];
    /// `schedule` must be the parse of `group.index`.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len()` exceeds [`BCE_LANES`] or the schedule is
    /// inconsistent with the group's stored columns.
    pub fn process_group(
        &mut self,
        group: &BcsGroup,
        schedule: &ParsedIndex,
        activations: &[i8],
    ) -> i64 {
        assert!(
            activations.len() <= BCE_LANES,
            "a BCE processes at most {BCE_LANES} activations"
        );

        // Step 1: input loading — locate the sign column (bit 7) if present.
        let mut stored_columns = group.columns.iter();
        let mut magnitude_columns = Vec::with_capacity(schedule.ops.len());
        for bit in 0..7u8 {
            if (group.index >> bit) & 1 == 1 {
                magnitude_columns.push((
                    bit,
                    *stored_columns.next().expect("column present for index bit"),
                ));
            }
        }
        let sign_column: u64 = if schedule.sign_request {
            *stored_columns
                .next()
                .expect("sign column present when Sign Rqst is raised")
        } else {
            0
        };

        debug_assert_eq!(magnitude_columns.len(), schedule.ops.len());

        let mut group_sum = 0i64;
        for (op, (bit, column)) in schedule.ops.iter().zip(&magnitude_columns) {
            debug_assert_eq!(op.shift, *bit);
            // Steps 2-3: sign-magnitude multiply and partial-sum accumulation.
            let mut partial = 0i64;
            for (lane, &activation) in activations.iter().enumerate() {
                if (column >> lane) & 1 == 1 {
                    let negative = (sign_column >> lane) & 1 == 1;
                    let product = i64::from(activation);
                    partial += if negative { -product } else { product };
                }
            }
            // Step 4: single shift shared by the whole column.
            group_sum += partial << op.shift;
            self.stats.cycles += 1;
            self.stats.bit_multiplications += activations.len() as u64;
        }
        self.stats.skipped_columns += 7 - schedule.ops.len() as u64;

        // Step 5: output generation.
        self.accumulator += group_sum;
        group_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zcip::ZeroColumnIndexParser;
    use bitwave_core::compress::BcsCodec;
    use bitwave_core::group::GroupSize;
    use bitwave_core::prelude::WeightCodec;
    use bitwave_dnn::infer::dot_int8;
    use bitwave_tensor::bits::Encoding;
    use proptest::prelude::*;

    /// Runs one group of up to 8 weights through a BCE and returns its output.
    fn bce_dot(weights: &[i8], activations: &[i8]) -> i64 {
        let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
        let compressed = codec.compress(weights);
        let decompressed = compressed.decompress();
        assert_eq!(&decompressed[..weights.len()], weights);
        // Reconstruct the groups the codec built (a single group here).
        let group = single_group(weights);
        let parser = ZeroColumnIndexParser::new();
        let schedule = parser.parse(group.index);
        let mut bce = BitColumnEngine::new();
        bce.process_group(&group, &schedule, activations)
    }

    fn single_group(weights: &[i8]) -> BcsGroup {
        let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
        let compressed = codec.compress(weights);
        // Serialize through the public decompression contract to get the
        // group back out: re-compress a padded copy and steal its group.
        let _ = compressed;
        // The codec groups 8 weights per group; rebuild explicitly.
        let mut padded = weights.to_vec();
        padded.resize(8, 0);
        let groups = bitwave_core::group::group_slice(&padded, GroupSize::G8);
        let c = codec.compress_groups(groups.iter(), padded.len());
        let d = c.decompress();
        assert_eq!(&d[..weights.len()], weights);
        // Extract via a tiny re-parse: compress_groups stores exactly one group.
        extract_first_group(&padded)
    }

    fn extract_first_group(padded: &[i8]) -> BcsGroup {
        use bitwave_tensor::bits::{nonzero_column_mask, pack_column};
        let index = nonzero_column_mask(padded, Encoding::SignMagnitude);
        let columns = (0..8)
            .filter(|&b| (index >> b) & 1 == 1)
            .map(|b| pack_column(padded, b, Encoding::SignMagnitude))
            .collect();
        BcsGroup { index, columns }
    }

    #[test]
    fn bce_matches_reference_dot_product_on_known_values() {
        let weights = [3i8, -3, 0, 127, -127, 5, -64, 1];
        let activations = [10i8, -20, 30, -1, 2, -3, 4, 100];
        let expected = dot_int8(&weights, &activations) as i64;
        assert_eq!(bce_dot(&weights, &activations), expected);
    }

    #[test]
    fn all_zero_weights_take_zero_cycles() {
        let weights = [0i8; 8];
        let activations = [11i8; 8];
        let group = extract_first_group(&weights);
        let schedule = ZeroColumnIndexParser::new().parse(group.index);
        let mut bce = BitColumnEngine::new();
        let out = bce.process_group(&group, &schedule, &activations);
        assert_eq!(out, 0);
        assert_eq!(bce.stats().cycles, 0);
        assert_eq!(bce.stats().skipped_columns, 7);
    }

    #[test]
    fn accumulator_adds_across_groups() {
        let activations = [1i8, 2, 3, 4, 5, 6, 7, 8];
        let w1 = [1i8, 1, 1, 1, 1, 1, 1, 1];
        let w2 = [-1i8, -1, -1, -1, -1, -1, -1, -1];
        let g1 = extract_first_group(&w1);
        let g2 = extract_first_group(&w2);
        let parser = ZeroColumnIndexParser::new();
        let mut bce = BitColumnEngine::new();
        bce.process_group(&g1, &parser.parse(g1.index), &activations);
        bce.process_group(&g2, &parser.parse(g2.index), &activations);
        assert_eq!(bce.accumulator(), 0);
        bce.reset_accumulator();
        assert_eq!(bce.accumulator(), 0);
        assert!(bce.stats().cycles >= 2);
    }

    #[test]
    fn stats_track_skipped_columns() {
        // Weights using only magnitude bit 1: six magnitude columns skipped.
        let weights = [2i8, -2, 2, 2, -2, 2, 2, 2];
        let activations = [1i8; 8];
        let group = extract_first_group(&weights);
        let schedule = ZeroColumnIndexParser::new().parse(group.index);
        let mut bce = BitColumnEngine::new();
        let out = bce.process_group(&group, &schedule, &activations);
        assert_eq!(out, dot_int8(&weights, &activations) as i64);
        assert_eq!(bce.stats().cycles, 1);
        assert_eq!(bce.stats().skipped_columns, 6);
        assert_eq!(bce.stats().bit_multiplications, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bce_equals_reference_dot_product(
            weights in proptest::collection::vec(-127i8..=127, 1..=8),
            activations in proptest::collection::vec(-127i8..=127, 1..=8),
        ) {
            let n = weights.len().min(activations.len());
            let w = &weights[..n];
            let a = &activations[..n];
            let mut padded_w = w.to_vec();
            padded_w.resize(8, 0);
            let group = extract_first_group(&padded_w);
            let schedule = ZeroColumnIndexParser::new().parse(group.index);
            let mut bce = BitColumnEngine::new();
            let mut padded_a = a.to_vec();
            padded_a.resize(8, 0);
            let out = bce.process_group(&group, &schedule, &padded_a);
            prop_assert_eq!(out, dot_int8(w, a) as i64);
        }

        #[test]
        fn cycle_count_equals_nonzero_magnitude_columns(
            weights in proptest::collection::vec(-127i8..=127, 8),
        ) {
            let group = extract_first_group(&weights);
            let schedule = ZeroColumnIndexParser::new().parse(group.index);
            let mut bce = BitColumnEngine::new();
            bce.process_group(&group, &schedule, &[1i8; 8]);
            prop_assert_eq!(bce.stats().cycles as u32, (group.index & 0x7F).count_ones());
        }
    }
}
