//! Weight grouping for bit-column analysis.
//!
//! BitWave groups `G` weights taken from **consecutive input channels of one
//! kernel position** (Section III-A: "groups of 4 weight elements from
//! consecutive input channels of one kernel") and then inspects the bit
//! columns of the group.  The hardware supports layer-wise tunable group
//! sizes of 8, 16 and 32 (Section III-C).
//!
//! For a conv weight tensor `[K, C, FY, FX]` the grouping axis is `C` for a
//! fixed `(k, fy, fx)`; for a linear weight `[Out, In]` it is `In`; a rank-1
//! tensor is chunked directly.  When the grouped axis is not a multiple of
//! `G` the trailing group is zero-padded, exactly as the hardware pads the
//! last channel group.

use crate::error::CoreError;
use bitwave_tensor::bitplane::BitplaneTensor;
use bitwave_tensor::{QuantTensor, Shape};
use serde::{Deserialize, Serialize};

/// The hardware-supported group (bit-column) sizes, plus arbitrary sizes for
/// the design-space sweeps of Fig. 5 (G = 1..64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupSize {
    /// 8 weights per group (hardware supported).
    G8,
    /// 16 weights per group (hardware supported).
    G16,
    /// 32 weights per group (hardware supported).
    G32,
    /// An arbitrary group size, used only for analysis sweeps.
    Custom(
        /// Number of weights per group (must be ≥ 1).
        usize,
    ),
}

impl GroupSize {
    /// Number of weights per group.
    pub fn len(self) -> usize {
        match self {
            GroupSize::G8 => 8,
            GroupSize::G16 => 16,
            GroupSize::G32 => 32,
            GroupSize::Custom(n) => n,
        }
    }

    /// Always false: a group size of zero is rejected at construction.
    pub fn is_empty(self) -> bool {
        false
    }

    /// The three group sizes the BitWave hardware supports per layer.
    pub fn hardware_supported() -> [GroupSize; 3] {
        [GroupSize::G8, GroupSize::G16, GroupSize::G32]
    }

    /// Builds a group size from a raw length, mapping 8/16/32 onto the
    /// hardware variants.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn from_len(len: usize) -> Self {
        assert!(len > 0, "group size must be at least 1");
        match len {
            8 => GroupSize::G8,
            16 => GroupSize::G16,
            32 => GroupSize::G32,
            other => GroupSize::Custom(other),
        }
    }
}

impl std::fmt::Display for GroupSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}", self.len())
    }
}

/// The groups extracted from a weight tensor, preserving enough layout
/// information to reassemble the tensor after Bit-Flip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Groups {
    group_size: usize,
    /// Length of the grouped (input-channel) axis before padding.
    axis_len: usize,
    /// Number of independent "rows" (e.g. `K*FY*FX` for a conv weight).
    rows: usize,
    data: Vec<i8>,
}

impl Groups {
    /// Group size in elements.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.data.len() / self.group_size
    }

    /// Iterates over the groups as fixed-size slices.
    pub fn iter(&self) -> impl Iterator<Item = &[i8]> {
        self.data.chunks_exact(self.group_size)
    }

    /// Iterates mutably over the groups.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut [i8]> {
        self.data.chunks_exact_mut(self.group_size)
    }

    /// Total number of stored (padded) elements.
    pub fn padded_len(&self) -> usize {
        self.data.len()
    }

    /// Number of weights the groups were extracted from (the padding
    /// excluded).
    pub fn num_weights(&self) -> usize {
        self.rows * self.axis_len
    }

    /// Packs the (padded) group data into a [`BitplaneTensor`] whose group
    /// windows coincide with these groups: window `i` of every plane holds
    /// bit column `b` of group `i`.  This is the one packing step the
    /// pipeline performs per layer; statistics, BCS sizing, the accelerator
    /// profile and Bit-Flip all share the result.
    ///
    /// # Panics
    ///
    /// Panics if the group size exceeds 64 (a group window must fit one
    /// plane word); callers sweeping arbitrary custom sizes must keep to the
    /// scalar kernels above that limit.
    pub fn to_bitplanes(&self) -> BitplaneTensor {
        BitplaneTensor::from_slice(&self.data, self.group_size)
    }

    /// Row length after zero-padding the grouped axis to a multiple of `G`.
    fn padded_axis(&self) -> usize {
        self.axis_len.div_ceil(self.group_size) * self.group_size
    }
}

/// How a tensor's elements map onto group rows: `blocks` contiguous blocks
/// of `axis_len × plane` elements, where row `(b, p)` (`p < plane`) holds
/// the `axis_len` elements at stride `plane` from `b * axis_len * plane + p`.
///
/// A conv weight `[K, C, FY, FX]` is `K` blocks of `C × (FY·FX)`: row
/// `(k, fy·FX + fx)` walks the input channels of one kernel position.  Linear
/// and rank-1 tensors have `plane == 1`, so every row is contiguous.
#[derive(Debug, Clone, Copy)]
struct RowLayout {
    blocks: usize,
    axis_len: usize,
    plane: usize,
}

impl RowLayout {
    fn of(shape: Shape) -> Result<Self, CoreError> {
        let (blocks, axis_len, plane) = match shape.rank() {
            1 => (1, shape.dim(0), 1),
            2 => (shape.dim(0), shape.dim(1), 1),
            4 => (shape.dim(0), shape.dim(1), shape.dim(2) * shape.dim(3)),
            rank => return Err(CoreError::UnsupportedRank(rank)),
        };
        Ok(Self {
            blocks,
            axis_len,
            plane,
        })
    }

    fn rows(self) -> usize {
        self.blocks * self.plane
    }

    /// Gathers `data` into zero-padded rows of `axis_len.div_ceil(g) * g`.
    fn gather(self, data: &[i8], g: usize) -> Groups {
        let block_len = self.axis_len * self.plane;
        assert_eq!(data.len(), self.blocks * block_len, "row layout mismatch");
        let padded_axis = self.axis_len.div_ceil(g) * g;
        let mut out = vec![0i8; self.rows() * padded_axis];
        for (src, dst) in data
            .chunks_exact(block_len)
            .zip(out.chunks_exact_mut(self.plane * padded_axis))
        {
            for (p, row) in dst.chunks_exact_mut(padded_axis).enumerate() {
                let row = &mut row[..self.axis_len];
                if self.plane == 1 {
                    row.copy_from_slice(src);
                } else {
                    for (d, &s) in row.iter_mut().zip(src[p..].iter().step_by(self.plane)) {
                        *d = s;
                    }
                }
            }
        }
        Groups {
            group_size: g,
            axis_len: self.axis_len,
            rows: self.rows(),
            data: out,
        }
    }

    /// The inverse of [`RowLayout::gather`]: drops the padding and writes
    /// every row back to its strided source positions.
    fn scatter(self, groups: &Groups) -> Vec<i8> {
        let block_len = self.axis_len * self.plane;
        let padded_axis = groups.padded_axis();
        let mut out = vec![0i8; self.blocks * block_len];
        for (dst, src) in out
            .chunks_exact_mut(block_len)
            .zip(groups.data.chunks_exact(self.plane * padded_axis))
        {
            for (p, row) in src.chunks_exact(padded_axis).enumerate() {
                let row = &row[..self.axis_len];
                if self.plane == 1 {
                    dst.copy_from_slice(row);
                } else {
                    for (d, &s) in dst[p..].iter_mut().step_by(self.plane).zip(row) {
                        *d = s;
                    }
                }
            }
        }
        out
    }
}

/// Extracts weight groups from a quantised tensor along its input-channel
/// axis (see module docs for the per-rank convention).
///
/// Every row is written straight into its zero-padded slot of the group
/// buffer with a strided walk over the source tensor (no intermediate
/// channel-last copy).
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedRank`] if the tensor rank is not 1, 2 or 4
/// (rank-3 weights do not occur in the evaluated networks).
pub fn extract_groups(tensor: &QuantTensor, group_size: GroupSize) -> Result<Groups, CoreError> {
    Ok(RowLayout::of(tensor.shape())?.gather(tensor.data(), group_size.len()))
}

/// Writes grouped (possibly Bit-Flipped) values back into a tensor with the
/// same shape as `original`, reversing [`extract_groups`].
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedRank`] for ungroupable ranks and
/// [`CoreError::Tensor`] if `groups` was not produced from a tensor of the
/// same shape.
pub fn reassemble_tensor(
    original: &QuantTensor,
    groups: &Groups,
) -> Result<QuantTensor, CoreError> {
    let shape = original.shape();
    let layout = RowLayout::of(shape)?;
    if groups.axis_len != layout.axis_len || groups.rows != layout.rows() {
        return Err(CoreError::Tensor(
            bitwave_tensor::TensorError::ShapeMismatch {
                expected: shape.num_elements(),
                actual: groups.rows * groups.axis_len,
            },
        ));
    }
    Ok(QuantTensor::new(
        shape,
        layout.scatter(groups),
        original.params(),
    )?)
}

/// Convenience: groups a plain slice (used by codecs operating on already
/// flattened weight streams).
pub fn group_slice(data: &[i8], group_size: GroupSize) -> Groups {
    let g = group_size.len();
    let mut padded = data.to_vec();
    padded.resize(data.len().div_ceil(g) * g, 0);
    Groups {
        group_size: g,
        axis_len: data.len(),
        rows: 1,
        data: padded,
    }
}

/// Returns the number of groups a tensor of `shape` produces at `group_size`
/// without materialising them (used by the analytical models).
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedRank`] for ungroupable ranks.
pub fn group_count_for_shape(shape: Shape, group_size: GroupSize) -> Result<usize, CoreError> {
    let layout = RowLayout::of(shape)?;
    Ok(layout.rows() * layout.axis_len.div_ceil(group_size.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::quant::QuantParams;

    fn conv_tensor() -> QuantTensor {
        // [K=2, C=3, FY=2, FX=2]
        let shape = Shape::conv_weight(2, 3, 2, 2);
        let data: Vec<i8> = (0..shape.num_elements()).map(|i| i as i8).collect();
        QuantTensor::new(shape, data, QuantParams::unit()).unwrap()
    }

    #[test]
    fn group_size_lengths() {
        assert_eq!(GroupSize::G8.len(), 8);
        assert_eq!(GroupSize::G16.len(), 16);
        assert_eq!(GroupSize::G32.len(), 32);
        assert_eq!(GroupSize::Custom(5).len(), 5);
        assert_eq!(GroupSize::from_len(16), GroupSize::G16);
        assert_eq!(GroupSize::from_len(7), GroupSize::Custom(7));
        assert_eq!(GroupSize::G8.to_string(), "G8");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_group_size_rejected() {
        GroupSize::from_len(0);
    }

    #[test]
    fn conv_grouping_gathers_input_channels() {
        let t = conv_tensor();
        let groups = extract_groups(&t, GroupSize::Custom(3)).unwrap();
        // One group per (k, fy, fx) position: 2*2*2 = 8 groups of C=3.
        assert_eq!(groups.num_groups(), 8);
        // First group: k=0, fy=0, fx=0, c=0..3 -> offsets 0, 4, 8 -> values 0,4,8.
        let first: Vec<i8> = groups.iter().next().unwrap().to_vec();
        assert_eq!(first, vec![0, 4, 8]);
    }

    #[test]
    fn conv_grouping_pads_when_c_not_multiple_of_g() {
        let t = conv_tensor();
        let groups = extract_groups(&t, GroupSize::Custom(4)).unwrap();
        assert_eq!(groups.group_size(), 4);
        assert_eq!(groups.num_groups(), 8);
        let first: Vec<i8> = groups.iter().next().unwrap().to_vec();
        assert_eq!(first, vec![0, 4, 8, 0], "tail is zero padded");
    }

    #[test]
    fn roundtrip_through_reassemble() {
        let t = conv_tensor();
        for g in [1usize, 2, 3, 4, 8] {
            let groups = extract_groups(&t, GroupSize::from_len(g)).unwrap();
            let back = reassemble_tensor(&t, &groups).unwrap();
            assert_eq!(back.data(), t.data(), "roundtrip failed for G={g}");
        }
    }

    #[test]
    fn linear_grouping_chunks_input_axis() {
        let shape = Shape::d2(2, 6);
        let data: Vec<i8> = (0..12).map(|i| i as i8).collect();
        let t = QuantTensor::new(shape, data, QuantParams::unit()).unwrap();
        let groups = extract_groups(&t, GroupSize::Custom(4)).unwrap();
        assert_eq!(groups.num_groups(), 4);
        let all: Vec<Vec<i8>> = groups.iter().map(|s| s.to_vec()).collect();
        assert_eq!(all[0], vec![0, 1, 2, 3]);
        assert_eq!(all[1], vec![4, 5, 0, 0]);
        assert_eq!(all[2], vec![6, 7, 8, 9]);
        let back = reassemble_tensor(&t, &groups).unwrap();
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn group_count_matches_extraction() {
        let t = conv_tensor();
        for g in [1usize, 2, 3, 4, 8, 16] {
            let gs = GroupSize::from_len(g);
            assert_eq!(
                group_count_for_shape(t.shape(), gs).unwrap(),
                extract_groups(&t, gs).unwrap().num_groups(),
                "mismatch at G={g}"
            );
        }
    }

    #[test]
    fn group_slice_is_single_row() {
        let data: Vec<i8> = (0..10).map(|i| i as i8).collect();
        let groups = group_slice(&data, GroupSize::Custom(4));
        assert_eq!(groups.num_groups(), 3);
        let padded: Vec<i8> = groups.iter().flatten().copied().collect();
        assert_eq!(&padded[..10], data.as_slice());
        assert_eq!(&padded[10..], &[0, 0], "tail is zero padded");
    }

    #[test]
    fn mutation_through_iter_mut_roundtrips() {
        let t = conv_tensor();
        let mut groups = extract_groups(&t, GroupSize::Custom(3)).unwrap();
        for g in groups.iter_mut() {
            for v in g.iter_mut() {
                *v = v.saturating_add(1);
            }
        }
        let back = reassemble_tensor(&t, &groups).unwrap();
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(*a, b + 1);
        }
    }
}
