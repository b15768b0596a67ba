//! Sparsity statistics (Figs. 1 and 4 of the paper).
//!
//! Three granularities matter to BitWave and its baselines:
//!
//! * **value sparsity** `Sw` — fraction of weights equal to zero (what SCNN
//!   exploits);
//! * **bit sparsity** `Sw,b` — fraction of zero *bits* over all weight bits,
//!   in two's complement (Stripes/Pragmatic/Bitlet) or sign-magnitude;
//! * **bit-column sparsity (BCS)** — fraction of zero *bit columns* over all
//!   columns when the weights are grouped `G` at a time (BitWave).
//!
//! Fig. 1 reports the ratio `SR = bit sparsity / value sparsity` as the
//! potential computational speedup of bit-level over value-level skipping.

use crate::compress::{BcsCodec, BcsSizes};
use crate::error::CoreError;
use crate::group::{extract_groups, GroupSize, Groups};
use bitwave_tensor::bitplane::{BitplaneTensor, WORD_LEN};
use bitwave_tensor::bits::{nonzero_column_count, Encoding, WORD_BITS};
use bitwave_tensor::sm;
use bitwave_tensor::QuantTensor;
use serde::{Deserialize, Serialize};

/// Sparsity statistics of one weight tensor (one layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSparsityStats {
    /// Number of weights analysed.
    pub num_weights: usize,
    /// Fraction of zero-valued weights (`Sw`).
    pub value_sparsity: f64,
    /// Fraction of zero bits in two's-complement encoding.
    pub bit_sparsity_twos_complement: f64,
    /// Fraction of zero bits in sign-magnitude encoding.
    pub bit_sparsity_sign_magnitude: f64,
    /// Fraction of zero bit-columns at the analysed group size,
    /// two's-complement encoding.
    pub column_sparsity_twos_complement: f64,
    /// Fraction of zero bit-columns at the analysed group size,
    /// sign-magnitude encoding.
    pub column_sparsity_sign_magnitude: f64,
    /// The group size used for the column statistics.
    pub group_size: usize,
}

impl LayerSparsityStats {
    /// Analyses a weight tensor at the given group size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedRank`] for tensors that cannot be
    /// grouped along an input-channel axis.
    pub fn analyze(tensor: &QuantTensor, group_size: GroupSize) -> Result<Self, CoreError> {
        let groups = extract_groups(tensor, group_size)?;
        Ok(Self::from_tensor_and_groups(tensor, &groups))
    }

    /// Analyses a weight tensor whose groups were **already extracted** —
    /// the single-pass path used by the pipeline, where one
    /// [`extract_groups`] call feeds statistics, BCS compression and the
    /// accelerator sparsity profile alike.  `groups` must come from
    /// [`extract_groups`] on the same tensor; the result is identical to
    /// [`LayerSparsityStats::analyze`].
    ///
    /// Group sizes fitting a 64-bit plane word run on the bitplane kernels;
    /// larger custom sweep sizes fall back to
    /// [`LayerSparsityStats::from_tensor_and_groups_scalar`].
    pub fn from_tensor_and_groups(tensor: &QuantTensor, groups: &Groups) -> Self {
        if groups.group_size() <= WORD_LEN {
            Self::from_planes(tensor.data().len(), &groups.to_bitplanes())
        } else {
            Self::from_tensor_and_groups_scalar(tensor, groups)
        }
    }

    /// Analyses `num_weights` weights from their **bitplane-packed**
    /// representation: every statistic is read off the [`PlaneCounts`]
    /// reduced while packing, with no further walk over the planes.  `planes`
    /// must be packed from the extracted groups of those weights
    /// ([`crate::group::Groups::to_bitplanes`]); the padding a group
    /// extraction appends is all-zero and therefore invisible to every count.
    ///
    /// The result is bit-identical to the scalar analysis: all counts are
    /// exact integers, and the final divisions are performed in the same
    /// order on the same values.
    ///
    /// [`PlaneCounts`]: bitwave_tensor::bitplane::PlaneCounts
    pub fn from_planes(num_weights: usize, planes: &BitplaneTensor) -> Self {
        let counts = planes.counts();
        let zeros = num_weights - counts.nonzero_elements as usize;
        let value_sparsity = if num_weights == 0 {
            0.0
        } else {
            zeros as f64 / num_weights as f64
        };
        // Mirrors `1.0 - sm::bit_density_*` and `column_sparsity_of_groups`:
        // identical integer counts, identical operation order.
        let bit_sparsity = |encoding: Encoding| {
            if num_weights == 0 {
                1.0
            } else {
                1.0 - counts.ones(encoding) as f64 / (num_weights as f64 * 8.0)
            }
        };
        let column_sparsity = |encoding: Encoding| {
            let total_columns = planes.num_groups() * WORD_BITS;
            if total_columns == 0 {
                0.0
            } else {
                let nonzero = counts.nonzero_columns(encoding) as usize;
                1.0 - nonzero as f64 / total_columns as f64
            }
        };

        Self {
            num_weights,
            value_sparsity,
            bit_sparsity_twos_complement: bit_sparsity(Encoding::TwosComplement),
            bit_sparsity_sign_magnitude: bit_sparsity(Encoding::SignMagnitude),
            column_sparsity_twos_complement: column_sparsity(Encoding::TwosComplement),
            column_sparsity_sign_magnitude: column_sparsity(Encoding::SignMagnitude),
            group_size: planes.group_size(),
        }
    }

    /// The pre-bitplane scalar analysis, kept as the reference
    /// implementation for the equivalence tests, the `bench_sparsity`
    /// speedup gate, and group sizes beyond a plane word.
    pub fn from_tensor_and_groups_scalar(tensor: &QuantTensor, groups: &Groups) -> Self {
        let data = tensor.data();
        let num_weights = data.len();
        let zeros = data.iter().filter(|&&v| v == 0).count();
        let value_sparsity = if num_weights == 0 {
            0.0
        } else {
            zeros as f64 / num_weights as f64
        };
        let bit_sparsity_twos_complement = 1.0 - sm::bit_density_twos_complement(data);
        let bit_sparsity_sign_magnitude = 1.0 - sm::bit_density_sign_magnitude(data);

        let column_sparsity_twos_complement =
            column_sparsity_of_groups(groups.iter(), Encoding::TwosComplement);
        let column_sparsity_sign_magnitude =
            column_sparsity_of_groups(groups.iter(), Encoding::SignMagnitude);

        Self {
            num_weights,
            value_sparsity,
            bit_sparsity_twos_complement,
            bit_sparsity_sign_magnitude,
            column_sparsity_twos_complement,
            column_sparsity_sign_magnitude,
            group_size: groups.group_size(),
        }
    }

    /// Sparsity ratio `SR = bit sparsity / value sparsity` (two's complement),
    /// Fig. 1's measure of the advantage of bit-level over value-level
    /// skipping.  Returns `f64::INFINITY` when the tensor has no zero values
    /// but does have zero bits.
    pub fn speedup_ratio_twos_complement(&self) -> f64 {
        ratio(self.bit_sparsity_twos_complement, self.value_sparsity)
    }

    /// Sparsity ratio for the sign-magnitude encoding.
    pub fn speedup_ratio_sign_magnitude(&self) -> f64 {
        ratio(self.bit_sparsity_sign_magnitude, self.value_sparsity)
    }

    /// Column sparsity under the chosen encoding.
    pub fn column_sparsity(&self, encoding: Encoding) -> f64 {
        match encoding {
            Encoding::TwosComplement => self.column_sparsity_twos_complement,
            Encoding::SignMagnitude => self.column_sparsity_sign_magnitude,
        }
    }
}

/// One tensor's packed analysis: its weight groups packed into bitplanes,
/// the sparsity statistics and the BCS size accounting read off those
/// planes.  Every per-layer analysis (the pipeline's compress and Bit-Flip
/// stages, the accelerator sparsity profile) starts from this one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedAnalysis {
    /// The bitplane-packed (zero-padded) weight groups.
    pub planes: BitplaneTensor,
    /// Sparsity statistics of the tensor.
    pub stats: LayerSparsityStats,
    /// BCS sizes under the requested encoding, with compression ratios
    /// measured against the unpadded weight count.
    pub bcs: BcsSizes,
}

impl PackedAnalysis {
    /// Groups `weights` at `group_size` and runs
    /// [`PackedAnalysis::from_groups`] on the groups.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedRank`] for ungroupable tensors.
    ///
    /// # Panics
    ///
    /// Panics if the group size exceeds a 64-bit plane word (see
    /// [`crate::group::Groups::to_bitplanes`]).
    pub fn of(
        weights: &QuantTensor,
        group_size: GroupSize,
        encoding: Encoding,
    ) -> Result<Self, CoreError> {
        Ok(Self::from_groups(
            &extract_groups(weights, group_size)?,
            encoding,
        ))
    }

    /// Packs already extracted `groups` once and derives the statistics and
    /// the `encoding` BCS sizes from the planes.  The Bit-Flip stage packs
    /// its flipped groups here without reassembling and re-grouping the
    /// tensor first.
    ///
    /// # Panics
    ///
    /// Panics if the group size exceeds a 64-bit plane word (see
    /// [`crate::group::Groups::to_bitplanes`]).
    pub fn from_groups(groups: &Groups, encoding: Encoding) -> Self {
        let planes = groups.to_bitplanes();
        let num_weights = groups.num_weights();
        let stats = LayerSparsityStats::from_planes(num_weights, &planes);
        let bcs = BcsCodec::new(GroupSize::from_len(groups.group_size()), encoding)
            .measure_packed(&planes, num_weights);
        Self { planes, stats, bcs }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        if numerator == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        numerator / denominator
    }
}

/// Fraction of zero bit-columns across an iterator of groups.
pub fn column_sparsity_of_groups<'a, I>(groups: I, encoding: Encoding) -> f64
where
    I: Iterator<Item = &'a [i8]>,
{
    let mut total_columns = 0usize;
    let mut nonzero_columns = 0usize;
    for group in groups {
        total_columns += WORD_BITS;
        nonzero_columns += nonzero_column_count(group, encoding) as usize;
    }
    if total_columns == 0 {
        0.0
    } else {
        1.0 - nonzero_columns as f64 / total_columns as f64
    }
}

/// Aggregated sparsity statistics over a whole network (weighted by element
/// count), the per-network bars of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SparsitySummary {
    /// Total number of weights across the aggregated layers.
    pub num_weights: usize,
    /// Element-weighted mean value sparsity.
    pub value_sparsity: f64,
    /// Element-weighted mean two's-complement bit sparsity.
    pub bit_sparsity_twos_complement: f64,
    /// Element-weighted mean sign-magnitude bit sparsity.
    pub bit_sparsity_sign_magnitude: f64,
    /// Element-weighted mean two's-complement column sparsity.
    pub column_sparsity_twos_complement: f64,
    /// Element-weighted mean sign-magnitude column sparsity.
    pub column_sparsity_sign_magnitude: f64,
}

impl SparsitySummary {
    /// Aggregates per-layer statistics, weighting each layer by its number of
    /// weights.
    pub fn aggregate<'a, I>(layers: I) -> Self
    where
        I: IntoIterator<Item = &'a LayerSparsityStats>,
    {
        let mut out = SparsitySummary::default();
        let mut weight_total = 0usize;
        for layer in layers {
            let w = layer.num_weights;
            weight_total += w;
            let wf = w as f64;
            out.value_sparsity += layer.value_sparsity * wf;
            out.bit_sparsity_twos_complement += layer.bit_sparsity_twos_complement * wf;
            out.bit_sparsity_sign_magnitude += layer.bit_sparsity_sign_magnitude * wf;
            out.column_sparsity_twos_complement += layer.column_sparsity_twos_complement * wf;
            out.column_sparsity_sign_magnitude += layer.column_sparsity_sign_magnitude * wf;
        }
        if weight_total > 0 {
            let n = weight_total as f64;
            out.value_sparsity /= n;
            out.bit_sparsity_twos_complement /= n;
            out.bit_sparsity_sign_magnitude /= n;
            out.column_sparsity_twos_complement /= n;
            out.column_sparsity_sign_magnitude /= n;
        }
        out.num_weights = weight_total;
        out
    }

    /// Fig. 1's `SR` ratio (two's-complement bit sparsity over value
    /// sparsity).
    pub fn speedup_ratio_twos_complement(&self) -> f64 {
        ratio(self.bit_sparsity_twos_complement, self.value_sparsity)
    }

    /// Fig. 1's `SR` ratio for sign-magnitude.
    pub fn speedup_ratio_sign_magnitude(&self) -> f64 {
        ratio(self.bit_sparsity_sign_magnitude, self.value_sparsity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::prelude::*;
    use bitwave_tensor::quant::QuantParams;

    fn tensor_from(values: Vec<i8>) -> QuantTensor {
        let len = values.len();
        QuantTensor::new(Shape::d1(len), values, QuantParams::unit()).unwrap()
    }

    #[test]
    fn all_zero_tensor_is_fully_sparse() {
        let t = tensor_from(vec![0i8; 32]);
        let s = LayerSparsityStats::analyze(&t, GroupSize::G8).unwrap();
        assert_eq!(s.value_sparsity, 1.0);
        assert_eq!(s.bit_sparsity_twos_complement, 1.0);
        assert_eq!(s.column_sparsity_sign_magnitude, 1.0);
    }

    #[test]
    fn dense_tensor_has_low_bit_sparsity_in_twos_complement() {
        // -1 in two's complement is all ones.
        let t = tensor_from(vec![-1i8; 32]);
        let s = LayerSparsityStats::analyze(&t, GroupSize::G8).unwrap();
        assert_eq!(s.value_sparsity, 0.0);
        assert_eq!(s.bit_sparsity_twos_complement, 0.0);
        // In sign-magnitude, -1 is 0b1000_0001: 6 of 8 bits are zero.
        assert!((s.bit_sparsity_sign_magnitude - 0.75).abs() < 1e-12);
        assert!(s.column_sparsity_sign_magnitude > s.column_sparsity_twos_complement);
    }

    #[test]
    fn speedup_ratio_matches_figure1_order_of_magnitude() {
        // Small-magnitude Gaussian weights: value sparsity is low but bit
        // sparsity is high, so SR should be large (Fig. 1 reports 5.67x-32.5x).
        let gen = WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.02 }, 1);
        let w = gen.generate(Shape::conv_weight(32, 32, 3, 3));
        let q = quantize_per_tensor(&w, 8).unwrap();
        let s = LayerSparsityStats::analyze(&q, GroupSize::G8).unwrap();
        let sr_tc = s.speedup_ratio_twos_complement();
        let sr_sm = s.speedup_ratio_sign_magnitude();
        assert!(sr_tc > 2.0, "SR (2's complement) too low: {sr_tc}");
        assert!(
            sr_sm > sr_tc,
            "sign-magnitude SR ({sr_sm}) should exceed two's complement ({sr_tc})"
        );
    }

    #[test]
    fn sign_magnitude_raises_column_sparsity_like_figure4() {
        // Mimic Fig. 4: weights dominated by small negative values.
        let gen = WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.015 }, 7);
        let w = gen.generate(Shape::conv_weight(64, 64, 3, 3));
        let q = quantize_per_tensor(&w, 8).unwrap();
        let s = LayerSparsityStats::analyze(&q, GroupSize::Custom(4)).unwrap();
        assert!(
            s.column_sparsity_sign_magnitude > 2.0 * s.column_sparsity_twos_complement,
            "expected SM column sparsity ({}) to be well above TC ({})",
            s.column_sparsity_sign_magnitude,
            s.column_sparsity_twos_complement
        );
    }

    #[test]
    fn column_sparsity_decreases_with_group_size() {
        let gen = WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.02 }, 3);
        let w = gen.generate(Shape::conv_weight(16, 64, 3, 3));
        let q = quantize_per_tensor(&w, 8).unwrap();
        let mut last = f64::INFINITY;
        for g in [1usize, 2, 4, 8, 16, 32, 64] {
            let s = LayerSparsityStats::analyze(&q, GroupSize::from_len(g)).unwrap();
            assert!(
                s.column_sparsity_sign_magnitude <= last + 1e-9,
                "column sparsity should not increase with G (G={g})"
            );
            last = s.column_sparsity_sign_magnitude;
        }
    }

    #[test]
    fn aggregation_weights_by_layer_size() {
        let small = LayerSparsityStats::analyze(&tensor_from(vec![0i8; 8]), GroupSize::G8).unwrap();
        let large =
            LayerSparsityStats::analyze(&tensor_from(vec![-1i8; 24]), GroupSize::G8).unwrap();
        let agg = SparsitySummary::aggregate([&small, &large]);
        assert_eq!(agg.num_weights, 32);
        assert!((agg.value_sparsity - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_conventions() {
        let stats = LayerSparsityStats {
            num_weights: 10,
            value_sparsity: 0.0,
            bit_sparsity_twos_complement: 0.5,
            bit_sparsity_sign_magnitude: 0.6,
            column_sparsity_twos_complement: 0.1,
            column_sparsity_sign_magnitude: 0.2,
            group_size: 8,
        };
        assert_eq!(stats.speedup_ratio_twos_complement(), f64::INFINITY);
        assert_eq!(stats.column_sparsity(Encoding::SignMagnitude), 0.2);
    }

    #[test]
    fn empty_group_iterator_yields_zero() {
        let empty: Vec<&[i8]> = vec![];
        assert_eq!(
            column_sparsity_of_groups(empty.into_iter(), Encoding::SignMagnitude),
            0.0
        );
    }
}
