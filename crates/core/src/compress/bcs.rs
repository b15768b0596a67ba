//! Bit-Column-Sparsity (BCS) compression — the paper's lossless weight
//! compression format (Section III-C, Fig. 4b).
//!
//! Per group of `G` weights the format stores:
//!
//! * one 8-bit **zero-column index**: bit `b` set ⇔ bit column `b` is
//!   non-zero and therefore present in the payload;
//! * for every non-zero column, `G` payload bits (one bit per weight at that
//!   significance), stored column-major so the hardware can stream one
//!   column per cycle straight into the BCE array without decompression.

use crate::compress::{safe_ratio, CompressedTensor, WeightCodec, BITS_PER_WEIGHT};
use crate::group::{group_slice, GroupSize};
use bitwave_tensor::bitplane::{BitplaneTensor, WORD_LEN};
use bitwave_tensor::bits::{pack_column, Encoding, WORD_BITS};
use serde::{Deserialize, Serialize};

/// One compressed weight group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BcsGroup {
    /// Non-zero-column index: bit `b` set means column `b` is stored.
    pub index: u8,
    /// The stored columns, LSB-significance first, each packed into a `u64`
    /// (bit *i* of a word is weight *i* of the group).
    pub columns: Vec<u64>,
}

impl BcsGroup {
    /// Number of stored (non-zero) columns.
    pub fn nonzero_columns(&self) -> usize {
        self.index.count_ones() as usize
    }

    /// Number of skipped (zero) columns.
    pub fn zero_columns(&self) -> usize {
        WORD_BITS - self.nonzero_columns()
    }
}

/// The BCS codec, parameterised by group size and binary encoding.
///
/// The paper always pairs BCS with the sign-magnitude encoding
/// ([`Encoding::SignMagnitude`]); the two's-complement variant exists to
/// reproduce the Fig. 4(a) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcsCodec {
    group_size: GroupSize,
    encoding: Encoding,
}

impl BcsCodec {
    /// Creates a codec for the given group size and encoding.
    pub fn new(group_size: GroupSize, encoding: Encoding) -> Self {
        Self {
            group_size,
            encoding,
        }
    }

    /// The configured group size.
    pub fn group_size(&self) -> GroupSize {
        self.group_size
    }

    /// The configured binary encoding.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Compresses an explicit list of groups (used when the caller has
    /// already grouped along the input-channel axis of a 4-D weight).
    ///
    /// Groups shorter than the configured size are zero-padded, exactly as
    /// [`crate::group::extract_groups`] pads trailing groups; the padding
    /// never adds payload columns.  Internally the groups are bitplane-packed
    /// and routed through [`BcsCodec::compress_packed`] whenever the group
    /// size fits a plane word.
    pub fn compress_groups<'a, I>(&self, groups: I, original_len: usize) -> CompressedTensor
    where
        I: Iterator<Item = &'a [i8]>,
    {
        let g = self.group_size.len();
        if g > WORD_LEN {
            return self.compress_groups_scalar(groups, original_len);
        }
        let mut padded = Vec::new();
        for group in groups {
            assert!(group.len() <= g, "group longer than configured group size");
            padded.extend_from_slice(group);
            padded.resize(padded.len() + (g - group.len()), 0);
        }
        let planes = BitplaneTensor::from_slice(&padded, g);
        self.compress_packed(&planes, original_len)
    }

    /// Compresses an **already bitplane-packed** tensor — the zero-copy
    /// pipeline path, where one packing feeds statistics, compression and the
    /// accelerator profile alike.
    ///
    /// Per group, the zero-column index is eight window tests and each stored
    /// column is one window extraction; a fixed scratch buffer keeps the only
    /// per-group allocation the `columns` vector the output format requires
    /// (all-zero groups allocate nothing).
    ///
    /// # Panics
    ///
    /// Panics if `planes` was packed at a different group size.
    pub fn compress_packed(
        &self,
        planes: &BitplaneTensor,
        original_len: usize,
    ) -> CompressedTensor {
        let g = self.group_size.len();
        assert_eq!(
            planes.group_size(),
            g,
            "bitplanes were packed at a different group size"
        );
        let num_groups = planes.num_groups();
        let mut out_groups = Vec::with_capacity(num_groups);
        let mut payload_bits = 0usize;
        let mut scratch = [0u64; WORD_BITS];
        for gi in 0..num_groups {
            let group = planes.group_planes(self.encoding, gi);
            let index = group.nonzero_column_mask();
            let mut stored = 0usize;
            for b in 0..WORD_BITS {
                if (index >> b) & 1 == 1 {
                    scratch[stored] = group.plane(b);
                    stored += 1;
                }
            }
            payload_bits += stored * g;
            out_groups.push(BcsGroup {
                index,
                columns: scratch[..stored].to_vec(),
            });
        }
        let index_bits = num_groups * WORD_BITS;
        CompressedTensor::from_bcs(
            original_len,
            g,
            self.encoding == Encoding::SignMagnitude,
            out_groups,
            payload_bits,
            index_bits,
        )
    }

    /// Size accounting of the BCS compression, straight from the column
    /// counts reduced while packing: no [`BcsGroup`] payload is ever
    /// materialised.  This is what the
    /// pipeline's compression summaries use — they only need bit counts and
    /// ratios, not the compressed stream itself.
    ///
    /// The counts are identical to `compress_packed(planes, original_len)`
    /// followed by reading `payload_bits`/`index_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `planes` was packed at a different group size.
    pub fn measure_packed(&self, planes: &BitplaneTensor, original_len: usize) -> BcsSizes {
        let g = self.group_size.len();
        assert_eq!(
            planes.group_size(),
            g,
            "bitplanes were packed at a different group size"
        );
        BcsSizes {
            original_len,
            group_size: g,
            payload_bits: planes.counts().nonzero_columns(self.encoding) as usize * g,
            index_bits: planes.num_groups() * WORD_BITS,
        }
    }

    /// The pre-bitplane scalar compressor, kept as the reference
    /// implementation for the scalar≡bitplane equivalence tests and the
    /// `bench_sparsity` speedup gate.
    pub fn compress_groups_scalar<'a, I>(&self, groups: I, original_len: usize) -> CompressedTensor
    where
        I: Iterator<Item = &'a [i8]>,
    {
        let g = self.group_size.len();
        let mut out_groups = Vec::new();
        let mut payload_bits = 0usize;
        for group in groups {
            assert!(group.len() <= g, "group longer than configured group size");
            let mut index = 0u8;
            for &v in group {
                index |= self.encoding.encode(v);
            }
            let mut columns = Vec::with_capacity(index.count_ones() as usize);
            for b in 0..WORD_BITS {
                if (index >> b) & 1 == 1 {
                    columns.push(pack_column(group, b, self.encoding));
                }
            }
            payload_bits += columns.len() * g;
            out_groups.push(BcsGroup { index, columns });
        }
        let index_bits = out_groups.len() * WORD_BITS;
        CompressedTensor::from_bcs(
            original_len,
            g,
            self.encoding == Encoding::SignMagnitude,
            out_groups,
            payload_bits,
            index_bits,
        )
    }
}

/// BCS size accounting without the compressed stream (see
/// [`BcsCodec::measure_packed`]).  The ratio methods mirror
/// [`CompressedTensor`]'s exactly, so summaries built from either source are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcsSizes {
    /// Number of Int8 weights in the original (unpadded) tensor.
    pub original_len: usize,
    /// Group size the sizes were measured at.
    pub group_size: usize,
    /// Total payload bits (non-zero columns × group size).
    pub payload_bits: usize,
    /// Total index bits (groups × 8).
    pub index_bits: usize,
}

impl BcsSizes {
    /// Original size in bits.
    pub fn original_bits(&self) -> usize {
        self.original_len * BITS_PER_WEIGHT
    }

    /// Total compressed size in bits, including index overhead.
    pub fn total_bits(&self) -> usize {
        self.payload_bits + self.index_bits
    }

    /// Compression ratio ignoring index overhead (Fig. 5's "ideal" bars).
    pub fn compression_ratio_ideal(&self) -> f64 {
        safe_ratio(self.original_bits(), self.payload_bits)
    }

    /// Compression ratio including index overhead (Fig. 5's "real" bars).
    pub fn compression_ratio_with_index(&self) -> f64 {
        safe_ratio(self.original_bits(), self.total_bits())
    }
}

impl WeightCodec for BcsCodec {
    fn name(&self) -> &'static str {
        "BCS"
    }

    fn compress(&self, weights: &[i8]) -> CompressedTensor {
        let groups = group_slice(weights, self.group_size);
        self.compress_groups(groups.iter(), weights.len())
    }
}

/// Reconstructs the original weights from BCS groups (crate-internal; called
/// through [`CompressedTensor::decompress`]).
pub(crate) fn decompress(
    groups: &[BcsGroup],
    group_size: usize,
    sign_magnitude: bool,
    original_len: usize,
) -> Vec<i8> {
    let encoding = if sign_magnitude {
        Encoding::SignMagnitude
    } else {
        Encoding::TwosComplement
    };
    let mut out = Vec::with_capacity(groups.len() * group_size);
    let mut bytes = vec![0u8; group_size];
    for group in groups {
        bytes.fill(0);
        let mut col_iter = group.columns.iter();
        for b in 0..WORD_BITS {
            if (group.index >> b) & 1 == 1 {
                let word = *col_iter
                    .next()
                    .expect("column count matches index popcount");
                for (i, byte) in bytes.iter_mut().enumerate() {
                    if (word >> i) & 1 == 1 {
                        *byte |= 1 << b;
                    }
                }
            }
        }
        out.extend(bytes.iter().map(|&b| encoding.decode(b)));
    }
    out.truncate(original_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compresses_paper_style_group() {
        // A group with many shared zero columns in sign-magnitude.
        let weights = [1i8, -2, 3, -1, 2, -3, 1, 2];
        let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
        let c = codec.compress(&weights);
        assert_eq!(c.decompress(), weights);
        // Magnitudes use only bits 0 and 1, plus the sign column: 3 non-zero
        // columns out of 8 -> payload 3*8 = 24 bits, index 8 bits.
        assert_eq!(c.payload_bits, 24);
        assert_eq!(c.index_bits, 8);
        assert!((c.compression_ratio_with_index() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_complement_vs_sign_magnitude_on_small_negatives() {
        let weights: Vec<i8> = vec![-1, -2, -3, -1, -2, -3, -2, -1];
        let tc = BcsCodec::new(GroupSize::G8, Encoding::TwosComplement).compress(&weights);
        let sm = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude).compress(&weights);
        assert!(sm.payload_bits < tc.payload_bits);
        assert_eq!(tc.decompress(), weights);
        assert_eq!(sm.decompress(), weights);
    }

    #[test]
    fn all_zero_weights_compress_to_index_only() {
        let weights = vec![0i8; 32];
        let c = BcsCodec::new(GroupSize::G32, Encoding::SignMagnitude).compress(&weights);
        assert_eq!(c.payload_bits, 0);
        assert_eq!(c.index_bits, 8);
        assert_eq!(c.decompress(), weights);
        assert!((c.compression_ratio_with_index() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn partial_trailing_group_is_padded_and_truncated_back() {
        let weights: Vec<i8> = (0..20).map(|i| (i - 10) as i8).collect();
        let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
        let c = codec.compress(&weights);
        assert_eq!(c.decompress(), weights);
        assert_eq!(c.original_len, 20);
        // 3 groups worth of index bits.
        assert_eq!(c.index_bits, 24);
    }

    #[test]
    fn group_accessors() {
        let weights = [0i8, 0, 0, 0, 1, 1, 1, 1];
        let c = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude).compress(&weights);
        let groups = match c.decompress().len() {
            8 => c,
            _ => unreachable!(),
        };
        drop(groups);
        let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
        assert_eq!(codec.group_size(), GroupSize::G8);
        assert_eq!(codec.encoding(), Encoding::SignMagnitude);
        assert_eq!(codec.name(), "BCS");
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_weights(
            weights in proptest::collection::vec(-127i8..=127, 1..512),
            g in prop_oneof![Just(8usize), Just(16), Just(32), 1usize..64],
        ) {
            for encoding in [Encoding::TwosComplement, Encoding::SignMagnitude] {
                let codec = BcsCodec::new(GroupSize::from_len(g), encoding);
                let c = codec.compress(&weights);
                prop_assert_eq!(c.decompress(), weights.clone());
            }
        }

        #[test]
        fn payload_never_exceeds_original(weights in proptest::collection::vec(-127i8..=127, 1..256)) {
            let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
            let c = codec.compress(&weights);
            // Payload bits can never exceed the padded original size.
            let padded = weights.len().div_ceil(8) * 8 * 8;
            prop_assert!(c.payload_bits <= padded);
        }

        #[test]
        fn index_popcount_matches_column_count(weights in proptest::collection::vec(-127i8..=127, 8..64)) {
            let codec = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude);
            let groups = group_slice(&weights, GroupSize::G8);
            let c = codec.compress_groups(groups.iter(), weights.len());
            prop_assert_eq!(c.decompress(), weights);
        }

        #[test]
        fn packed_compression_equals_scalar(
            weights in proptest::collection::vec(-127i8..=127, 1..400),
            g in prop_oneof![Just(8usize), Just(16), Just(32), 1usize..=64],
        ) {
            for encoding in [Encoding::TwosComplement, Encoding::SignMagnitude] {
                let codec = BcsCodec::new(GroupSize::from_len(g), encoding);
                let groups = group_slice(&weights, GroupSize::from_len(g));
                let scalar = codec.compress_groups_scalar(groups.iter(), weights.len());
                let planes = groups.to_bitplanes();
                let packed = codec.compress_packed(&planes, weights.len());
                prop_assert_eq!(&packed, &scalar);
                let sizes = codec.measure_packed(&planes, weights.len());
                prop_assert_eq!(sizes.payload_bits, scalar.payload_bits);
                prop_assert_eq!(sizes.index_bits, scalar.index_bits);
                prop_assert_eq!(sizes.original_bits(), scalar.original_bits());
                prop_assert_eq!(sizes.total_bits(), scalar.total_bits());
                prop_assert_eq!(
                    sizes.compression_ratio_ideal(),
                    scalar.compression_ratio_ideal()
                );
                prop_assert_eq!(
                    sizes.compression_ratio_with_index(),
                    scalar.compression_ratio_with_index()
                );
            }
        }
    }
}
